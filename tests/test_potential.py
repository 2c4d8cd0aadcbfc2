import dataclasses
import math

import numpy as np
import pytest

from markovgeo import (
    EdgeFunction,
    ExpectationPoint,
    bregman_divergence,
    build_graph,
    perron,
    phibar,
    phibar_gradient,
    phibar_hessian,
    phihat,
    restricted_hessian,
    scale_point,
    tbar,
)
from markovgeo.coordinates import in_marginals, out_marginals
from markovgeo.errors import NotInMtilde
from markovgeo.verify import random_expectation_point, random_graph, random_transition_probability

from conftest import make_rng


def printed_hessian_4x4(eta):
    """The 2-state complete-graph Hessian, hard-coded entry by entry."""
    e00, e01, e10, e11 = eta
    in0, in1 = e00 + e10, e01 + e11
    out0, out1 = e00 + e01, e10 + e11
    return np.array(
        [
            [1 / e00 - 1 / in0 - (in0 - out0) / in0**2, -1 / in0, -1 / in0 + out0 / in0**2, 0],
            [-1 / in0, 1 / e01 + out1 / in1**2, -1 / in1 - 1 / in0, -1 / in1 + out1 / in1**2],
            [-1 / in0 + out0 / in0**2, -1 / in1 - 1 / in0, 1 / e10 + out0 / in0**2, -1 / in1],
            [0, -1 / in1 + out1 / in1**2, -1 / in1, 1 / e11 - 1 / in1 - (in1 - out1) / in1**2],
        ]
    )


def printed_hessian_3x3(eta):
    """The restricted Hessian on the mass-one section, coordinates (e00, e01, e10)."""
    e00, e01, e10, e11 = eta
    in0, in1 = e00 + e10, e01 + e11
    out0, out1 = e00 + e01, e10 + e11
    q = out1 / in1**2 + out0 / in0**2
    return np.array(
        [
            [1 / e11 + 1 / e00 - 2 / (in0 * in1) + q, 1 / e11 - 1 / (in0 * in1), 1 / e11 - 1 / (in0 * in1) + q],
            [1 / e11 - 1 / (in0 * in1), 1 / e01 + 1 / e11, 1 / e11 - 1 / (in0 * in1)],
            [1 / e11 - 1 / (in0 * in1) + q, 1 / e11 - 1 / (in0 * in1), 1 / e11 + 1 / e10 + q],
        ]
    )


def loop_hessian(eta):
    """Reference: the Hessian entry by entry, in a double loop over edge pairs."""
    g = eta.graph
    n = g.num_edges
    v = eta.values
    eta_in = in_marginals(eta)
    eta_out = out_marginals(eta)
    h = np.zeros((n, n))
    for i, (s, t) in enumerate(g.edges):
        for j, (u, w) in enumerate(g.edges):
            entry = 0.0
            if i == j:
                entry += 1.0 / v[i]
            if s == w:
                entry -= 1.0 / eta_in[s]
            if t == u:
                entry -= 1.0 / eta_in[t]
            if t == w:
                entry += eta_out[t] / eta_in[t] ** 2
            h[i, j] = entry
    return 0.5 * (h + h.T)


def ix_restricted_hessian(eta):
    """Reference: the restricted Hessian gathered with np.ix_ over the kept edges."""
    h = phibar_hessian(eta)
    last = eta.graph.num_edges - 1
    keep = list(range(last))
    return h[np.ix_(keep, keep)] - h[keep, last][:, None] - h[last, keep][None, :] + h[last, last]


def loops_all_or_none(graph, self_loops):
    """The graph with every self-loop added, or with every self-loop removed."""
    n = graph.num_states
    if self_loops:
        edges = set(graph.edges) | {(x, x) for x in range(n)}
    else:
        edges = {(x, y) for x, y in graph.edges if x != y}
    return build_graph(n, sorted(edges))


def random_mass_one_point(graph, rng):
    values = np.exp(rng.uniform(-1.5, 1.5, graph.num_edges))
    return ExpectationPoint(graph, values / values.sum())


class TestPhibar:
    def test_uniform_point(self, two_state):
        eta = ExpectationPoint(two_state, np.full(4, 0.25))
        assert phibar(eta) == pytest.approx(-math.log(2), abs=1e-14)

    def test_homogeneous_degree_one(self):
        rng = make_rng(61)
        for _ in range(10):
            eta = random_expectation_point(random_graph(int(rng.integers(1, 6)), rng), rng)
            a = float(rng.uniform(0.1, 10.0))
            assert phibar(scale_point(eta, a)) == pytest.approx(a * phibar(eta), rel=1e-12)

    def test_negative_conditional_entropy_on_W(self):
        rng = make_rng(62)
        for _ in range(5):
            g = random_graph(int(rng.integers(1, 5)), rng)
            w = random_transition_probability(g, rng)
            mu = perron(w).left_vec
            expected = sum(
                mu[x] * w.value_at(x, y) * math.log(w.value_at(x, y)) for x, y in g.edges
            )
            assert phibar(tbar(w)) == pytest.approx(expected, rel=1e-10)


class TestGradient:
    def test_uniform_point(self, two_state):
        eta = ExpectationPoint(two_state, np.full(4, 0.25))
        np.testing.assert_allclose(phibar_gradient(eta), -math.log(2), atol=1e-14)

    def test_euler_identity(self):
        rng = make_rng(63)
        for _ in range(10):
            eta = random_expectation_point(random_graph(int(rng.integers(1, 6)), rng), rng)
            assert float(eta.values @ phibar_gradient(eta)) == pytest.approx(phibar(eta), rel=1e-11)

    def test_degree_zero_homogeneity(self):
        rng = make_rng(64)
        eta = random_expectation_point(random_graph(3, rng), rng)
        for a in (0.25, 4.0):
            np.testing.assert_allclose(
                phibar_gradient(scale_point(eta, a)), phibar_gradient(eta), rtol=1e-12
            )

    def test_matches_finite_differences(self):
        rng = make_rng(65)
        for _ in range(5):
            g = random_graph(int(rng.integers(1, 5)), rng)
            eta = random_expectation_point(g, rng)
            grad = phibar_gradient(eta)
            for k in range(g.num_edges):
                h = 1e-6 * max(1.0, eta.values[k])
                up = eta.values.copy()
                up[k] += h
                down = eta.values.copy()
                down[k] -= h
                fd = (phibar(ExpectationPoint(g, up)) - phibar(ExpectationPoint(g, down))) / (2 * h)
                assert grad[k] == pytest.approx(fd, rel=1e-6, abs=1e-8)


class TestHessian:
    def test_printed_four_by_four(self, two_state):
        rng = make_rng(66)
        for _ in range(20):
            eta = random_expectation_point(two_state, rng)
            np.testing.assert_allclose(
                phibar_hessian(eta), printed_hessian_4x4(eta.values), rtol=1e-12, atol=1e-12
            )

    @pytest.mark.parametrize("self_loops", [True, False])
    def test_matches_loop_reference(self, self_loops):
        rng = make_rng(77 if self_loops else 78)
        for _ in range(20):
            g = random_graph(int(rng.integers(1, 9)), rng)
            n = g.num_states
            if self_loops:
                edges = set(g.edges) | {(x, x) for x in range(n)}
            else:
                edges = {(x, y) for x, y in g.edges if x != y}
            g = build_graph(n, sorted(edges))
            eta = random_expectation_point(g, rng)
            np.testing.assert_allclose(phibar_hessian(eta), loop_hessian(eta), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("self_loops", [True, False])
    def test_exactly_symmetric(self, self_loops):
        rng = make_rng(81 if self_loops else 82)
        for _ in range(20):
            g = loops_all_or_none(random_graph(int(rng.integers(1, 30)), rng), self_loops)
            hess = phibar_hessian(random_expectation_point(g, rng))
            assert np.array_equal(hess, hess.T)

    def test_matches_loop_reference_dense_with_self_loops(self):
        rng = make_rng(83)
        g = loops_all_or_none(random_graph(24, rng), True)
        assert g.num_edges >= 250
        eta = random_expectation_point(g, rng)
        np.testing.assert_allclose(phibar_hessian(eta), loop_hessian(eta), rtol=1e-12, atol=0)

    def test_asymmetric_assembly_raises(self):
        # unsorted sources give out-edge slices that are not the states' rows,
        # so each state's row update lands on other rows
        rng = make_rng(84)
        g = build_graph(3, [(0, 0), (0, 1), (1, 2), (2, 0), (2, 1)])
        swapped = dataclasses.replace(g, sources=g.sources[::-1].copy())
        with pytest.raises(RuntimeError, match="not symmetric"):
            phibar_hessian(random_expectation_point(swapped, rng))

    def test_kernel_is_radial(self):
        rng = make_rng(67)
        for _ in range(10):
            eta = random_expectation_point(random_graph(int(rng.integers(1, 6)), rng), rng)
            hess = phibar_hessian(eta)
            assert np.max(np.abs(hess @ eta.values)) <= 1e-9 * np.max(np.abs(hess))

    def test_exactly_one_zero_eigenvalue(self):
        rng = make_rng(68)
        for _ in range(10):
            eta = random_expectation_point(random_graph(int(rng.integers(1, 6)), rng), rng)
            eigenvalues = np.linalg.eigvalsh(phibar_hessian(eta))
            small = np.abs(eigenvalues) <= 1e-9 * eigenvalues.max()
            assert int(np.count_nonzero(small)) == 1
            assert np.all(eigenvalues[~small] > 0)

    def test_matches_gradient_finite_differences(self):
        rng = make_rng(69)
        g = random_graph(3, rng)
        eta = random_expectation_point(g, rng)
        hess = phibar_hessian(eta)
        scale_h = np.max(np.abs(hess))
        for k in range(g.num_edges):
            h = 1e-6 * max(1.0, eta.values[k])
            up = eta.values.copy()
            up[k] += h
            down = eta.values.copy()
            down[k] -= h
            fd = (phibar_gradient(ExpectationPoint(g, up)) - phibar_gradient(ExpectationPoint(g, down))) / (2 * h)
            np.testing.assert_allclose(hess[:, k], fd, rtol=1e-5, atol=1e-5 * scale_h)

    def test_symmetric(self):
        rng = make_rng(70)
        eta = random_expectation_point(random_graph(5, rng), rng)
        hess = phibar_hessian(eta)
        np.testing.assert_allclose(hess, hess.T, atol=1e-12 * np.max(np.abs(hess)))


class TestRestrictedHessian:
    def test_printed_three_by_three(self, two_state):
        rng = make_rng(71)
        for _ in range(20):
            eta = random_mass_one_point(two_state, rng)
            np.testing.assert_allclose(
                restricted_hessian(eta), printed_hessian_3x3(eta.values), rtol=1e-10, atol=1e-10
            )

    def test_positive_definite(self):
        rng = make_rng(72)
        for _ in range(100):
            g = random_graph(int(rng.integers(1, 6)), rng)
            eta = random_mass_one_point(g, rng)
            assert np.min(np.linalg.eigvalsh(restricted_hessian(eta))) > 0

    @pytest.mark.parametrize("self_loops", [True, False])
    def test_equals_ix_reference_bitwise(self, self_loops):
        rng = make_rng(79 if self_loops else 80)
        for _ in range(20):
            g = random_graph(int(rng.integers(1, 9)), rng)
            n = g.num_states
            if self_loops:
                edges = set(g.edges) | {(x, x) for x in range(n)}
            else:
                edges = {(x, y) for x, y in g.edges if x != y}
            eta = random_mass_one_point(build_graph(n, sorted(edges)), rng)
            np.testing.assert_array_equal(restricted_hessian(eta), ix_restricted_hessian(eta))

    def test_requires_mass_one(self, two_state):
        with pytest.raises(NotInMtilde):
            restricted_hessian(ExpectationPoint(two_state, np.full(4, 0.5)))

    def test_second_order_taylor_of_bregman(self):
        rng = make_rng(73)
        for _ in range(5):
            g = random_graph(int(rng.integers(1, 4)), rng)
            eta = random_mass_one_point(g, rng)
            hess = restricted_hessian(eta)
            direction = rng.standard_normal(g.num_edges)
            direction -= direction.mean()  # tangent to the mass-one section
            direction /= np.linalg.norm(direction)
            reduced = direction[:-1]
            quad = float(reduced @ hess @ reduced)

            def scaled_value(eps):
                moved = ExpectationPoint(g, eta.values + eps * direction)
                return 2.0 * bregman_divergence(moved, eta) / eps**2

            # the O(eps^3) term is only approximately linear over {1e-2, 1e-3},
            # leaving an O(eps_large^2) residual after extrapolation
            richardson = (10.0 * scaled_value(1e-3) - scaled_value(1e-2)) / 9.0
            assert richardson == pytest.approx(quad, rel=5e-3)


class TestPhihat:
    def test_uniform_point(self, two_state):
        eta = ExpectationPoint(two_state, np.full(4, 0.25))
        assert phihat(eta) == pytest.approx(-math.log(2), abs=1e-14)

    def test_differs_off_M(self, two_state):
        eta = ExpectationPoint(two_state, np.array([0.3, 0.3, 0.2, 0.2]))
        assert phihat(eta) != pytest.approx(phibar(eta), rel=1e-6)

    def test_equals_phibar_on_stationary_points(self):
        rng = make_rng(74)
        for _ in range(10):
            g = random_graph(int(rng.integers(1, 6)), rng)
            eta = tbar(random_transition_probability(g, rng))
            assert np.max(np.abs(out_marginals(eta) - in_marginals(eta))) <= 1e-12
            assert phihat(eta) == pytest.approx(phibar(eta), abs=1e-12)

    def test_homogeneous_degree_one(self):
        rng = make_rng(75)
        eta = random_expectation_point(random_graph(3, rng), rng)
        for a in (0.5, 3.0):
            assert phihat(scale_point(eta, a)) == pytest.approx(a * phihat(eta), rel=1e-12)


def test_convexity_along_segments():
    rng = make_rng(76)
    for _ in range(20):
        g = random_graph(int(rng.integers(1, 5)), rng)
        eta = random_mass_one_point(g, rng)
        zeta = random_mass_one_point(g, rng)
        t = float(rng.uniform(0.05, 0.95))
        blend = ExpectationPoint(g, t * eta.values + (1 - t) * zeta.values)
        assert phibar(blend) <= t * phibar(eta) + (1 - t) * phibar(zeta) + 1e-12
