"""Command-line front end.

Reports are plain `key value` lines (or one JSON object per line with
--format json-lines); floats are printed with 17 significant digits so output
is byte-stable for identical inputs and seeds.

Exit codes: 0 ok, 2 parse/usage error, 3 domain-membership error,
4 numerical non-convergence, 5 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import coordinates, divergence, inference, potential, spectral, verify
from .errors import MarkovGeoError, NoConvergence, NotTransitionProbability, ParseError
from .graph import parse_chain_file

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_NOCONV = 4
EXIT_VERIFY = 5

# the first class an error is an instance of decides its exit code, so every
# library error but a parse or convergence failure is a domain error
_EXIT_CODES = {
    ParseError: EXIT_PARSE,
    FileNotFoundError: EXIT_PARSE,
    ValueError: EXIT_PARSE,
    KeyError: EXIT_PARSE,
    NoConvergence: EXIT_NOCONV,
    MarkovGeoError: EXIT_DOMAIN,
}

# the value type each chain-file mode holds, and how an error names the mode
_MODES = {
    "edge": (spectral.EdgeFunction, "an edge-function file"),
    "expectation": (coordinates.ExpectationPoint, "'mode expectation'"),
}


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, np.ndarray):
        return ",".join(f"{v:.17g}" for v in value)
    return str(value)


class Report:
    def __init__(self, command: str):
        self.items: list[tuple[str, object]] = [("command", command)]
        self.exit_code = EXIT_OK

    def add(self, key: str, value) -> None:
        self.items.append((key, value))

    def emit(self, fmt: str) -> None:
        for key, value in self.items:
            if fmt == "json-lines":
                print(json.dumps({"key": key, "value": _fmt(value)}))
            else:
                print(f"{key} {_fmt(value)}")


def _load(path: str, mode: str):
    """The value a chain file of the given mode holds (see _MODES)."""
    with open(path, encoding="utf-8") as handle:
        graph, values, file_mode = parse_chain_file(handle.read())
    if values is None:
        raise ParseError(f"{path}: edges carry no values")
    value_type, expected = _MODES[mode]
    if file_mode != mode:
        raise ParseError(f"{path}: expected {expected}, got mode {file_mode!r}")
    return value_type(graph, values)


def cmd_spectral(args) -> Report:
    f = _load(args.file, "edge")
    sd = spectral.perron(f)
    report = Report("spectral")
    report.add("file", args.file)
    report.add("r", sd.root)
    report.add("mu", sd.left_vec)
    report.add("v", sd.right_vec)
    report.add("bracket_width", sd.bracket_width)
    report.add("status", "ok")
    return report


def cmd_divergence(args) -> Report:
    f = _load(args.file_f, "edge")
    g = _load(args.file_g, "edge")
    gen = divergence.get_generator(args.generator)
    report = Report("divergence")
    report.add("file_f", args.file_f)
    report.add("file_g", args.file_g)
    report.add("generator", gen.name)
    report.add("d_f", divergence.f_divergence(gen, f, g))
    report.add("bracket_width_f", spectral.perron(f).bracket_width)
    report.add("bracket_width_g", spectral.perron(g).bracket_width)
    if coordinates.is_transition_probability(f) and coordinates.is_transition_probability(g):
        report.add("nagaoka", divergence.nagaoka_divergence(f, g))
    report.add("status", "ok")
    return report


def cmd_potential(args) -> Report:
    eta = _load(args.file, "expectation")
    report = Report("potential")
    report.add("file", args.file)
    report.add("phibar", potential.phibar(eta))
    report.add("phihat", potential.phihat(eta))
    report.add("gradient", potential.phibar_gradient(eta))
    if args.hessian:
        hess = potential.phibar_hessian(eta)
        for i in range(hess.shape[0]):
            report.add(f"hessian_row_{i}", hess[i])
        report.add("hessian_eigenvalues", np.linalg.eigvalsh(hess))
    if args.restricted:
        restricted = potential.restricted_hessian(eta)
        for i in range(restricted.shape[0]):
            report.add(f"restricted_hessian_row_{i}", restricted[i])
        report.add("restricted_hessian_eigenvalues", np.linalg.eigvalsh(restricted))
    report.add("status", "ok")
    return report


def cmd_project(args) -> Report:
    eta = _load(args.file, "expectation")
    projected = inference.project_to_M(eta)
    residuals = verify.projection_residuals(eta, projected, np.random.Generator(np.random.PCG64(0)))
    report = Report("project")
    report.add("file", args.file)
    report.add("projected", projected.values)
    # D(projected || eta): the leg from the projection to the input in the
    # Pythagorean identity
    report.add("divergence_to_input", divergence.bregman_divergence(projected, eta))
    for key, value in zip(("mass_residual", "stationarity_residual", "pythagorean_residual"), residuals):
        report.add(key, value)
    report.add("status", "ok")
    return report


def cmd_sample(args) -> Report:
    w = _load(args.file, "edge")
    trajectory = inference.sample_trajectory(w, args.n, args.seed, args.initial)
    print(" ".join(str(s) for s in trajectory.states))
    report = Report("sample")
    report.add("file", args.file)
    report.add("n", args.n)
    report.add("seed", args.seed)
    report.add("status", "ok")
    return report


def cmd_estimate(args) -> Report:
    w = _load(args.file, "edge")
    if not coordinates.is_transition_probability(w):
        raise NotTransitionProbability("estimation input must be a transition probability")
    trajectory = inference.sample_trajectory(w, args.n, args.seed, "stationary")
    empirical = inference.empirical_pair_measure(trajectory)
    mle = inference.mle_transition(trajectory, smoothing=args.smoothing)
    projected = inference.project_to_M(empirical)
    projected_w = coordinates.taubar(projected)
    kl = divergence.get_generator("kl")
    report = Report("estimate")
    report.add("file", args.file)
    report.add("n", args.n)
    report.add("seed", args.seed)
    report.add("mle", mle.values)
    report.add("projected", projected_w.values)
    report.add("mle_gap_to_truth", float(np.max(np.abs(mle.values - w.values))))
    report.add("projected_gap_to_truth", float(np.max(np.abs(projected_w.values - w.values))))
    report.add("estimator_gap", float(np.max(np.abs(projected_w.values - mle.values))))
    if not mle.boundary:
        report.add("kl_truth_to_mle", divergence.f_divergence(kl, w, mle))
    report.add("kl_truth_to_projected", divergence.f_divergence(kl, w, projected_w))
    # the solves behind the stationary start and the divergence above, as stored
    report.add("bracket_width_truth", spectral.perron(w).bracket_width)
    report.add("bracket_width_projected", spectral.perron(projected_w).bracket_width)
    report.add("status", "ok")
    return report


def cmd_verify(args) -> Report:
    results = verify.run_identity_suite(seed=args.seed, max_d=args.graphs, cases=args.cases)
    report = Report("verify")
    report.add("seed", args.seed)
    report.add("graphs", args.graphs)
    report.add("cases", args.cases)
    failed = 0
    for res in results:
        report.add(f"{res.name}_max_error", res.max_error)
        report.add(f"{res.name}_threshold", res.threshold)
        report.add(f"{res.name}_pass", "yes" if res.passed else "no")
        if not res.passed:
            failed += 1
    report.add("failed", failed)
    report.add("status", "ok" if failed == 0 else "verification_failed")
    if failed:
        report.exit_code = EXIT_VERIFY
    return report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="markovgeo",
        description="Information geometry of positive transition measures on a Markov chain.",
    )
    parser.add_argument("--format", choices=("kv", "json-lines"), default="kv")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("spectral", help="dominant root and eigenvectors of an edge function")
    p.add_argument("file")
    p.set_defaults(func=cmd_spectral)

    p = sub.add_parser("divergence", help="F-divergence between two edge functions")
    p.add_argument("file_f")
    p.add_argument("file_g")
    p.add_argument("--generator", default="kl")
    p.set_defaults(func=cmd_divergence)

    p = sub.add_parser("potential", help="potential values and derivatives at an expectation point")
    p.add_argument("file")
    p.add_argument("--hessian", action="store_true")
    p.add_argument("--restricted", action="store_true")
    p.set_defaults(func=cmd_potential)

    p = sub.add_parser("project", help="Bregman projection onto the stationary slice")
    p.add_argument("file")
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("sample", help="sample a trajectory from a transition probability")
    p.add_argument("file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--initial", default="stationary")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("estimate", help="sample, then estimate by MLE and by projection")
    p.add_argument("file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--smoothing", type=float, default=0.0)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("verify", help="run the randomized identity suite")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--graphs", type=int, default=4, help="largest d; sizes cycle through 1..d")
    p.add_argument("--cases", type=int, default=50)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.cmd == "sample" and args.initial != "stationary":
            args.initial = int(args.initial)
        report = args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))
    report.emit(args.format)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
