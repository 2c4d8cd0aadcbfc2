import math

import numpy as np
import pytest

from markovgeo import (
    EdgeFunction,
    build_graph,
    get_generator,
    matrix_of,
    null_space_dimension,
    perron,
    root_gradient,
    scale,
)
from markovgeo.cli import EXIT_NOCONV, main
from markovgeo.errors import BoundaryFunction, NoConvergence, NonpositiveScale
from markovgeo import spectral
from markovgeo.spectral import BRACKET_TOL
from markovgeo.verify import random_edge_function, random_graph, random_transition_probability

from conftest import make_rng

KL = get_generator("kl")


class TestMatrixOf:
    def test_two_state_complete(self, two_state):
        f = EdgeFunction(two_state, np.array([1.0, 2.0, 3.0, 4.0]))
        np.testing.assert_array_equal(matrix_of(f), [[1, 2], [3, 4]])

    def test_two_cycle(self, two_cycle):
        f = EdgeFunction(two_cycle, np.array([3.0, 5.0]))
        np.testing.assert_array_equal(matrix_of(f), [[0, 3], [5, 0]])

    def test_transition_probability_rows_sum_to_one(self):
        rng = make_rng(21)
        for _ in range(10):
            w = random_transition_probability(random_graph(int(rng.integers(1, 6)), rng), rng)
            np.testing.assert_allclose(matrix_of(w).sum(axis=1), 1.0, atol=1e-12)


class TestPerron:
    def test_constant_function(self, two_state):
        sd = perron(EdgeFunction(two_state, np.ones(4)))
        assert sd.root == pytest.approx(2.0, abs=1e-12)
        np.testing.assert_allclose(sd.left_vec, [0.5, 0.5], atol=1e-12)

    def test_closed_form_root(self, two_state):
        f = EdgeFunction(two_state, np.array([1.0, 2.0, 3.0, 4.0]))
        expected = (5 + math.sqrt(33)) / 2
        assert perron(f).root == pytest.approx(expected, abs=1e-12)
        # dense eigensolver oracle
        dense = np.max(np.abs(np.linalg.eigvals(matrix_of(f))))
        assert perron(f).root == pytest.approx(dense, abs=1e-10)

    def test_transition_probability_has_root_one(self):
        rng = make_rng(22)
        for _ in range(10):
            w = random_transition_probability(random_graph(int(rng.integers(1, 6)), rng), rng)
            assert perron(w).root == pytest.approx(1.0, abs=1e-12)

    def test_eigenvector_residuals(self):
        rng = make_rng(23)
        for _ in range(30):
            f = random_edge_function(random_graph(int(rng.integers(1, 8)), rng), rng)
            sd = perron(f)
            a = matrix_of(f)
            assert np.max(np.abs(sd.left_vec @ a - sd.root * sd.left_vec)) <= 1e-10 * sd.root
            assert np.max(np.abs(a @ sd.right_vec - sd.root * sd.right_vec)) <= 1e-10 * sd.root
            assert np.all(sd.left_vec > 0) and np.all(sd.right_vec > 0)
            assert sd.left_vec.sum() == pytest.approx(1.0, abs=1e-12)
            assert sd.right_vec.sum() == pytest.approx(1.0, abs=1e-12)

    def test_root_dominates_spectrum(self):
        rng = make_rng(24)
        for d in range(1, 8):
            f = random_edge_function(random_graph(d, rng), rng)
            eigenvalues = np.linalg.eigvals(matrix_of(f))
            assert perron(f).root >= np.max(np.abs(eigenvalues)) - 1e-9

    def test_rejects_boundary_function(self, two_state):
        f = EdgeFunction(two_state, np.array([0.0, 1.0, 1.0, 1.0]), boundary=True)
        with pytest.raises(BoundaryFunction):
            perron(f)

    def test_periodic_two_cycle_converges(self, two_cycle):
        sd = perron(EdgeFunction(two_cycle, np.array([4.0, 9.0])))
        assert sd.root == pytest.approx(6.0, abs=1e-10)

    def test_ring_with_long_chord(self):
        # a slow-mixing shape: a 121-state ring plus one chord skipping 0.3 n
        # states, weighted so that both cycles have weight product 1
        n, chord, skip = 121, 17, 36
        g = build_graph(n, [(x, (x + 1) % n) for x in range(n)] + [(chord, (chord + skip) % n)])
        z = 0.3 * make_rng(29).standard_normal(n)
        z -= z.mean()
        logw = {(x, (x + 1) % n): z[x] for x in range(n)}
        logw[(chord, (chord + skip) % n)] = -sum(z[(chord + skip + j) % n] for j in range(n - skip))
        f = EdgeFunction(g, np.exp([logw[e] for e in g.edges]))
        sd = perron(f)
        a = matrix_of(f)
        assert np.max(np.abs(sd.left_vec @ a - sd.root * sd.left_vec)) <= 1e-10 * sd.root
        assert np.max(np.abs(a @ sd.right_vec - sd.root * sd.right_vec)) <= 1e-10 * sd.root
        assert np.all(sd.left_vec > 0) and np.all(sd.right_vec > 0)
        assert sd.left_vec.sum() == pytest.approx(1.0, abs=1e-12)
        assert sd.right_vec.sum() == pytest.approx(1.0, abs=1e-12)


class TestCertificate:
    @staticmethod
    def _weak_edge_ring(n):
        # unit weights around a ring except one edge of 1e-20: the root is
        # 1e-20 ** (1 / n) and the eigenvectors span about 20 decades
        g = build_graph(n, [(x, (x + 1) % n) for x in range(n)])
        values = np.ones(n)
        values[0] = 1e-20
        return EdgeFunction(g, values)

    def test_weak_edge_ring_meets_tolerance(self):
        n = 40
        sd = perron(self._weak_edge_ring(n))
        r = 1e-20 ** (1 / n)
        assert sd.root == pytest.approx(r, rel=BRACKET_TOL)
        assert sd.bracket_width <= BRACKET_TOL
        # closed forms from w_x v(x+1) = r v(x) and mu(x) w_x = r mu(x+1)
        right = np.array([1.0] + [1e20 * r**i for i in range(1, n)])
        left = np.array([1.0] + [1e-20 * r**-i for i in range(1, n)])
        np.testing.assert_allclose(sd.right_vec, right / right.sum(), rtol=1e-12, atol=0)
        np.testing.assert_allclose(sd.left_vec, left / left.sum(), rtol=1e-12, atol=0)

    def test_uncorrected_eig_vector_raises(self, monkeypatch):
        # eig alone gets the ring's small entries wrong by about 1e-6 relative
        monkeypatch.setattr(spectral, "_newton_step", lambda matrix, vec, root: (root, vec))
        with pytest.raises(NoConvergence, match="Collatz-Wielandt"):
            perron(self._weak_edge_ring(40))

    def test_bracket_holds_root(self):
        rng = make_rng(31)
        for d in range(1, 12):
            f = random_edge_function(random_graph(d, rng), rng, low=-6.0, high=6.0)
            sd = perron(f)
            a = matrix_of(f)
            assert sd.bracket_width <= BRACKET_TOL
            for quotients in ((a @ sd.right_vec) / sd.right_vec, (sd.left_vec @ a) / sd.left_vec):
                assert quotients.min() <= sd.root * (1 + BRACKET_TOL)
                assert quotients.max() >= sd.root * (1 - BRACKET_TOL)
                assert quotients.max() - quotients.min() <= BRACKET_TOL * sd.root


class TestHardInputs:
    def test_weak_edge_ring_with_chord_raises(self):
        # the 121-state ring plus chord of TestPerron with one edge of 1e-20:
        # eig's dominant vector is not positive, and perron must not return it
        n, chord, skip = 121, 17, 36
        g = build_graph(n, [(x, (x + 1) % n) for x in range(n)] + [(chord, (chord + skip) % n)])
        values = np.ones(g.num_edges)
        values[g.edge_index[(0, 1)]] = 1e-20
        with pytest.raises(NoConvergence):
            perron(EdgeFunction(g, values))

    def test_weights_over_many_decades_raise_or_certify(self):
        # log-normal weights with sigma = 10 span about 40 decades per graph
        returned = 0
        for seed in range(50):
            rng = make_rng(seed)
            g = random_graph(29, rng)
            f = EdgeFunction(g, np.exp(10.0 * rng.standard_normal(g.num_edges)))
            try:
                sd = perron(f)
            except NoConvergence:
                with pytest.raises(NoConvergence):
                    null_space_dimension(KL, f)
                continue
            returned += 1
            assert null_space_dimension(KL, f) == 1
            a = matrix_of(f)
            assert sd.bracket_width <= BRACKET_TOL
            assert np.max(np.abs(a @ sd.right_vec - sd.root * sd.right_vec)) <= 1e-9 * sd.root
            assert np.max(np.abs(sd.left_vec @ a - sd.root * sd.left_vec)) <= 1e-9 * sd.root
            for quotients in ((a @ sd.right_vec) / sd.right_vec, (sd.left_vec @ a) / sd.left_vec):
                assert quotients.max() - quotients.min() <= BRACKET_TOL * sd.root
        assert returned >= 40


class TestStoredSpectralData:
    def test_computed_once_per_object(self, two_state):
        f = EdgeFunction(two_state, np.array([1.0, 2.0, 3.0, 4.0]))
        assert perron(f) is perron(f)

    def test_caller_array_is_copied(self, two_state):
        arr = np.array([1.0, 2.0, 3.0, 4.0])
        f = EdgeFunction(two_state, arr)
        root = perron(f).root
        arr[:] = 10.0
        np.testing.assert_array_equal(f.values, [1.0, 2.0, 3.0, 4.0])
        assert perron(f).root == root
        assert perron(EdgeFunction(two_state, arr)).root == pytest.approx(20.0, abs=1e-12)

    def test_values_and_eigenvectors_read_only(self, two_state):
        f = EdgeFunction(two_state, np.array([1.0, 2.0, 3.0, 4.0]))
        sd = perron(f)
        for array in (f.values, sd.left_vec, sd.right_vec):
            with pytest.raises(ValueError):
                array[0] = 0.5
            with pytest.raises(ValueError):
                array *= 2.0


class TestSolverFailure:
    @staticmethod
    def _failing_eig(matrix):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    def test_linalg_error_is_no_convergence(self, monkeypatch, two_state):
        monkeypatch.setattr(np.linalg, "eig", self._failing_eig)
        with pytest.raises(NoConvergence):
            perron(EdgeFunction(two_state, np.ones(4)))

    def test_mixed_sign_vector_is_no_convergence(self, monkeypatch, two_state):
        def mixed_sign_eig(matrix):
            return np.array([2.0, 0.0]), np.array([[1.0, 1.0], [-0.5, -1.0]])

        monkeypatch.setattr(np.linalg, "eig", mixed_sign_eig)
        with pytest.raises(NoConvergence):
            perron(EdgeFunction(two_state, np.ones(4)))

    @pytest.mark.parametrize("root", [-1.0, 0.0, np.nan])
    def test_bracket_of_nonpositive_root_is_no_convergence(self, root):
        with pytest.raises(NoConvergence, match="not positive"):
            spectral._bracket_width(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([0.5, 0.5]), root)

    def test_negative_root_with_positive_vector_is_no_convergence(self, monkeypatch, two_state):
        def negative_root_eig(matrix):
            return np.array([-1.0, -3.0]), np.array([[1.0, 1.0], [1.0, -1.0]])

        monkeypatch.setattr(np.linalg, "eig", negative_root_eig)
        with pytest.raises(NoConvergence, match="not positive"):
            perron(EdgeFunction(two_state, np.ones(4)))

    def test_cli_exit_code(self, monkeypatch, tmp_path, capsys):
        path = tmp_path / "f.chain"
        path.write_text("states 2\nedge 0 0 1\nedge 0 1 2\nedge 1 0 3\nedge 1 1 4\n")
        monkeypatch.setattr(np.linalg, "eig", self._failing_eig)
        assert main(["divergence", str(path), str(path)]) == EXIT_NOCONV
        assert "eigensolver failed" in capsys.readouterr().err


class TestRootDerivative:
    def test_constant_function_self_loop(self, two_state):
        # closed-form root is (x + w + sqrt((x-w)^2 + 4yz)) / 2; its partial in x
        # at (1,1,1,1) is 1/2, confirmed by the finite-difference oracle below.
        f = EdgeFunction(two_state, np.ones(4))
        assert root_gradient(f)[0] == pytest.approx(0.5, abs=1e-10)
        h = 1e-6
        bumped = np.ones(4)
        bumped[0] += h
        dipped = np.ones(4)
        dipped[0] -= h
        fd = (perron(EdgeFunction(two_state, bumped)).root - perron(EdgeFunction(two_state, dipped)).root) / (2 * h)
        assert root_gradient(f)[0] == pytest.approx(fd, rel=1e-8)

    def test_matches_finite_differences(self):
        rng = make_rng(25)
        for _ in range(10):
            g = random_graph(int(rng.integers(1, 6)), rng)
            f = random_edge_function(g, rng)
            edge = g.edges[int(rng.integers(g.num_edges))]
            k = g.edge_index[edge]
            h = 1e-6 * max(1.0, f.values[k])
            up = f.values.copy()
            up[k] += h
            down = f.values.copy()
            down[k] -= h
            fd = (perron(EdgeFunction(g, up)).root - perron(EdgeFunction(g, down)).root) / (2 * h)
            assert root_gradient(f)[k] == pytest.approx(fd, rel=1e-5)

    def test_scale_invariance_of_gradient(self):
        rng = make_rng(26)
        g = random_graph(3, rng)
        f = random_edge_function(g, rng)
        for a in (0.3, 2.0, 7.5):
            scaled = scale(f, a)
            for k in (0, g.num_edges - 1):
                assert root_gradient(scaled)[k] == pytest.approx(root_gradient(f)[k], rel=1e-9)

    def test_euler_sum_rule(self):
        rng = make_rng(27)
        for _ in range(10):
            g = random_graph(int(rng.integers(1, 7)), rng)
            f = random_edge_function(g, rng)
            sd = perron(f)
            assert float(f.values @ root_gradient(f)) == pytest.approx(sd.root, rel=1e-10)

    def test_unknown_edge(self, two_cycle):
        # an edge's partial is looked up through the graph's index map
        f = EdgeFunction(two_cycle, np.array([1.0, 1.0]))
        with pytest.raises(KeyError):
            root_gradient(f)[f.graph.edge_index[(0, 0)]]


class TestScale:
    def test_constant_by_three(self, two_state):
        scaled = scale(EdgeFunction(two_state, np.ones(4)), 3.0)
        sd = perron(scaled)
        assert sd.root == pytest.approx(6.0, abs=1e-10)
        np.testing.assert_allclose(sd.left_vec, [0.5, 0.5], atol=1e-12)

    def test_identity(self, two_state):
        f = EdgeFunction(two_state, np.array([1.0, 2.0, 3.0, 4.0]))
        np.testing.assert_array_equal(scale(f, 1.0).values, f.values)

    def test_half_preserves_stationary(self):
        rng = make_rng(28)
        f = random_edge_function(random_graph(4, rng), rng)
        sd = perron(f)
        sd_half = perron(scale(f, 0.5))
        assert np.max(np.abs(sd_half.left_vec - sd.left_vec)) <= 1e-10
        assert sd_half.root == pytest.approx(0.5 * sd.root, rel=1e-10)

    def test_nonpositive_rejected(self, two_state):
        f = EdgeFunction(two_state, np.ones(4))
        for a in (0.0, -1.0):
            with pytest.raises(NonpositiveScale):
                scale(f, a)


class TestEdgeFunctionValidation:
    def test_wrong_length(self, two_state):
        with pytest.raises(ValueError):
            EdgeFunction(two_state, np.ones(3))

    def test_nonpositive_value(self, two_state):
        with pytest.raises(ValueError):
            EdgeFunction(two_state, np.array([1.0, -1.0, 1.0, 1.0]))

    def test_boundary_allows_zero(self, two_state):
        f = EdgeFunction(two_state, np.array([0.0, 1.0, 1.0, 1.0]), boundary=True)
        assert f.value_at(0, 0) == 0.0
