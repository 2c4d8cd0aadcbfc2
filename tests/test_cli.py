import math

import numpy as np
import pytest

from markovgeo import verify
from markovgeo.cli import main
from markovgeo.spectral import BRACKET_TOL


@pytest.fixture
def chain_file(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


@pytest.fixture
def constant_f(chain_file):
    return chain_file(
        "constant.chain",
        "states 2\nedge 0 0 1\nedge 0 1 1\nedge 1 0 1\nedge 1 1 1\n",
    )


@pytest.fixture
def skewed_f(chain_file):
    return chain_file(
        "skewed.chain",
        "states 2\nedge 0 0 1\nedge 0 1 2\nedge 1 0 3\nedge 1 1 4\n",
    )


@pytest.fixture
def uniform_w(chain_file):
    return chain_file(
        "uniform.chain",
        "states 2\nedge 0 0 0.5\nedge 0 1 0.5\nedge 1 0 0.5\nedge 1 1 0.5\n",
    )


@pytest.fixture
def skewed_w(chain_file):
    return chain_file(
        "skewed_w.chain",
        "states 2\nedge 0 0 0.3\nedge 0 1 0.7\nedge 1 0 0.9\nedge 1 1 0.1\n",
    )


@pytest.fixture
def uniform_eta(chain_file):
    return chain_file(
        "uniform_eta.chain",
        "states 2\nmode expectation\nedge 0 0 0.25\nedge 0 1 0.25\nedge 1 0 0.25\nedge 1 1 0.25\n",
    )


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def kv(out):
    pairs = {}
    for line in out.strip().splitlines():
        key, _, value = line.partition(" ")
        pairs[key] = value
    return pairs


class TestSpectralCommand:
    def test_constant(self, capsys, constant_f):
        code, out, _ = run(capsys, "spectral", constant_f)
        assert code == 0
        report = kv(out)
        assert float(report["r"]) == pytest.approx(2.0, abs=1e-12)
        assert report["mu"].split(",") == ["0.5", "0.5"]
        assert 0.0 <= float(report["bracket_width"]) <= 1e-9

    def test_closed_form_fixture(self, capsys, skewed_f):
        code, out, _ = run(capsys, "spectral", skewed_f)
        assert code == 0
        assert float(kv(out)["r"]) == pytest.approx((5 + math.sqrt(33)) / 2, abs=1e-10)

    def test_malformed_file(self, capsys, chain_file):
        bad = chain_file("bad.chain", "states nope\n")
        code, _, err = run(capsys, "spectral", bad)
        assert code == 2
        assert "error:" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "spectral", "/nonexistent/file.chain")
        assert code == 2
        assert err

    def test_not_strongly_connected_file(self, capsys, chain_file):
        bad = chain_file("nsc.chain", "states 2\nedge 0 0 1\nedge 0 1 1\nedge 1 1 1\n")
        code, _, err = run(capsys, "spectral", bad)
        assert code == 3


class TestDivergenceCommand:
    def test_self_divergence_zero(self, capsys, uniform_w):
        code, out, _ = run(capsys, "divergence", uniform_w, uniform_w)
        assert code == 0
        assert float(kv(out)["d_f"]) == 0.0

    def test_ray_zero(self, capsys, constant_f, uniform_w):
        code, out, _ = run(capsys, "divergence", constant_f, uniform_w)
        assert code == 0
        assert float(kv(out)["d_f"]) == pytest.approx(0.0, abs=1e-10)

    def test_uniform_vs_skewed_reports_nagaoka(self, capsys, uniform_w, skewed_w):
        code, out, _ = run(capsys, "divergence", uniform_w, skewed_w)
        assert code == 0
        report = kv(out)
        assert float(report["d_f"]) == pytest.approx(0.2990, abs=5e-5)
        assert float(report["nagaoka"]) == pytest.approx(float(report["d_f"]), abs=1e-12)

    def test_reports_bracket_widths(self, capsys, skewed_f, skewed_w):
        code, out, _ = run(capsys, "divergence", skewed_f, skewed_w)
        assert code == 0
        report = kv(out)
        for key in ("bracket_width_f", "bracket_width_g"):
            assert 0.0 <= float(report[key]) <= BRACKET_TOL

    def test_generator_selection(self, capsys, uniform_w, skewed_w):
        code, out, _ = run(capsys, "divergence", uniform_w, skewed_w, "--generator", "chi2")
        assert code == 0
        assert kv(out)["generator"] == "chi2"

    def test_unknown_generator(self, capsys, uniform_w, skewed_w):
        code, _, err = run(capsys, "divergence", uniform_w, skewed_w, "--generator", "nope")
        assert code == 2


class TestPotentialCommand:
    def test_uniform_point(self, capsys, uniform_eta):
        code, out, _ = run(capsys, "potential", uniform_eta, "--hessian", "--restricted")
        assert code == 0
        report = kv(out)
        assert float(report["phibar"]) == pytest.approx(-math.log(2), abs=1e-12)
        assert float(report["phihat"]) == pytest.approx(-math.log(2), abs=1e-12)
        eigenvalues = [float(v) for v in report["hessian_eigenvalues"].split(",")]
        assert min(abs(v) for v in eigenvalues) <= 1e-9
        restricted = [float(v) for v in report["restricted_hessian_eigenvalues"].split(",")]
        assert min(restricted) > 0

    def test_edge_mode_rejected(self, capsys, uniform_w):
        code, _, err = run(capsys, "potential", uniform_w)
        assert code == 2


class TestProjectCommand:
    def test_point_already_in_M(self, capsys, uniform_eta):
        code, out, _ = run(capsys, "project", uniform_eta)
        assert code == 0
        report = kv(out)
        assert float(report["pythagorean_residual"]) <= 1e-6

    def test_skew_fixture(self, capsys, chain_file):
        path = chain_file(
            "skew_eta.chain",
            "states 2\nmode expectation\nedge 0 0 0.3\nedge 0 1 0.3\nedge 1 0 0.2\nedge 1 1 0.2\n",
        )
        code, out, _ = run(capsys, "project", path)
        assert code == 0
        report = kv(out)
        assert float(report["stationarity_residual"]) <= 1e-8
        assert float(report["mass_residual"]) <= 1e-10

    def test_non_normalized_input(self, capsys, chain_file):
        path = chain_file(
            "big_eta.chain",
            "states 2\nmode expectation\nedge 0 0 0.5\nedge 0 1 0.5\nedge 1 0 0.5\nedge 1 1 0.5\n",
        )
        code, _, err = run(capsys, "project", path)
        assert code == 3

    def test_budget_exhausted_exits_4(self, capsys, chain_file):
        # the exact projections have coordinates of 1.8e-4348 and 6.8e-351,
        # below the smallest double: the Perron matrix or the result underflows
        for point in ((1e-4, 0.5, 1e-9, 0.499899), (1e-3, 0.4, 1e-6, 0.599)):
            values = [v / sum(point) for v in point]
            edges = "".join(f"edge {s} {t} {v!r}\n" for (s, t), v in zip([(0, 0), (0, 1), (1, 0), (1, 1)], values))
            path = chain_file("weak_eta.chain", "states 2\nmode expectation\n" + edges)
            code, _, err = run(capsys, "project", path)
            assert code == 4
            assert "underflows to 0" in err


class TestSampleCommand:
    def test_deterministic_cycle(self, capsys, chain_file):
        path = chain_file("cycle.chain", "states 2\nedge 0 1 1\nedge 1 0 1\n")
        code, out, _ = run(capsys, "sample", path, "--n", "5", "--seed", "0", "--initial", "0")
        assert code == 0
        assert out.splitlines()[0] == "0 1 0 1 0"

    def test_same_seed_same_bytes(self, capsys, skewed_w):
        _, out1, _ = run(capsys, "sample", skewed_w, "--n", "50", "--seed", "9")
        _, out2, _ = run(capsys, "sample", skewed_w, "--n", "50", "--seed", "9")
        assert out1 == out2

    def test_seed_required(self, capsys, skewed_w):
        with pytest.raises(SystemExit) as excinfo:
            main(["sample", skewed_w, "--n", "5"])
        assert excinfo.value.code == 2


class TestEstimateCommand:
    def test_consistency_report(self, capsys, skewed_w):
        code, out, _ = run(capsys, "estimate", skewed_w, "--n", "100000", "--seed", "31")
        assert code == 0
        report = kv(out)
        assert float(report["mle_gap_to_truth"]) <= 0.02
        assert float(report["projected_gap_to_truth"]) <= 0.02
        assert float(report["estimator_gap"]) <= 0.01

    def test_reports_bracket_widths(self, capsys, skewed_w):
        code, out, _ = run(capsys, "estimate", skewed_w, "--n", "2000", "--seed", "8")
        assert code == 0
        report = kv(out)
        for key in ("bracket_width_truth", "bracket_width_projected"):
            assert 0.0 <= float(report[key]) <= BRACKET_TOL

    def test_byte_stable(self, capsys, skewed_w):
        _, out1, _ = run(capsys, "estimate", skewed_w, "--n", "2000", "--seed", "8")
        _, out2, _ = run(capsys, "estimate", skewed_w, "--n", "2000", "--seed", "8")
        assert out1 == out2

    @pytest.mark.parametrize("smoothing", ["-0.5", "nan", "inf"])
    def test_bad_smoothing_is_usage_error(self, capsys, skewed_w, smoothing):
        code, _, err = run(capsys, "estimate", skewed_w, "--n", "100", "--seed", "1", "--smoothing", smoothing)
        assert code == 2
        assert "smoothing" in err

    def test_non_stochastic_input(self, capsys, skewed_f):
        code, _, err = run(capsys, "estimate", skewed_f, "--n", "100", "--seed", "1")
        assert code == 3


class TestVerifyCommand:
    def test_default_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--seed", "5", "--cases", "20", "--graphs", "3")
        assert code == 0
        report = kv(out)
        assert report["status"] == "ok"
        assert int(report["failed"]) == 0
        assert report["bregman_equality_pass"] == "yes"

    def test_zero_cases_ok(self, capsys):
        code, out, _ = run(capsys, "verify", "--seed", "5", "--cases", "0")
        assert code == 0
        assert kv(out)["status"] == "ok"

    def test_injected_fault_fails(self, capsys, monkeypatch):
        # negative control: the suite must catch deliberately broken Hessian entries
        hessian = verify.phibar_hessian
        monkeypatch.setattr(verify, "phibar_hessian", lambda eta: hessian(eta) + 1e-3)
        code, out, _ = run(capsys, "verify", "--seed", "5", "--cases", "5")
        assert code == 5
        report = kv(out)
        assert report["hessian_pass"] == "no"
        assert report["status"] == "verification_failed"

    def test_suboptimal_projection_fails(self, capsys, monkeypatch):
        # negative control: a point of M other than the projection has mass 1
        # and is stationary, but breaks the Pythagorean identity
        project = verify.project_to_M

        def off_optimum(eta):
            graph = eta.graph
            degree = np.bincount(graph.sources)
            uniform = verify.tbar(verify.EdgeFunction(graph, 1.0 / degree[graph.sources]))
            return verify.ExpectationPoint(graph, 0.9 * project(eta).values + 0.1 * uniform.values)

        monkeypatch.setattr(verify, "project_to_M", off_optimum)
        code, out, _ = run(capsys, "verify", "--seed", "5", "--cases", "5")
        assert code == 5
        report = kv(out)
        assert report["projection_pass"] == "no"
        assert int(report["failed"]) == 1


class TestOutputFormat:
    def test_json_lines(self, capsys, constant_f):
        import json

        code, out, _ = run(capsys, "--format", "json-lines", "spectral", constant_f)
        assert code == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        keys = [record["key"] for record in records]
        assert keys[0] == "command"
        assert "r" in keys

    def test_seventeen_digit_floats(self, capsys, skewed_f):
        _, out, _ = run(capsys, "spectral", skewed_f)
        r = kv(out)["r"]
        assert r == f"{float(r):.17g}"
