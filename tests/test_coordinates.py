import numpy as np
import pytest

from markovgeo import (
    EdgeFunction,
    ExpectationPoint,
    in_marginals,
    is_in_M,
    is_in_Mtilde,
    is_positive_transition_measure,
    is_transition_probability,
    mass,
    normalize_to_measure,
    out_marginals,
    perron,
    scale,
    scale_point,
    taubar,
    tbar,
)
from markovgeo.errors import NonpositiveScale
from markovgeo.verify import (
    random_edge_function,
    random_expectation_point,
    random_graph,
    random_transition_probability,
)

from conftest import make_rng


@pytest.fixture
def uniform_point(two_state):
    return ExpectationPoint(two_state, np.full(4, 0.25))


class TestExpectationPointValue:
    def test_caller_array_is_copied(self, two_state):
        arr = np.array([0.1, 0.2, 0.3, 0.4])
        eta = ExpectationPoint(two_state, arr)
        arr[:] = 0.25
        np.testing.assert_array_equal(eta.values, [0.1, 0.2, 0.3, 0.4])
        assert in_marginals(eta)[0] == pytest.approx(0.4, abs=1e-15)

    @pytest.mark.parametrize("bad", [0.0, -0.1, np.nan, np.inf, -np.inf])
    def test_rejects_nonpositive_or_nonfinite(self, two_state, bad):
        with pytest.raises(ValueError):
            ExpectationPoint(two_state, np.array([0.25, bad, 0.25, 0.25]))

    def test_values_read_only(self, uniform_point):
        with pytest.raises(ValueError):
            uniform_point.values[0] = 0.5
        with pytest.raises(ValueError):
            uniform_point.values *= 2.0


class TestMass:
    def test_uniform(self, uniform_point):
        assert mass(uniform_point) == pytest.approx(1.0, abs=1e-15)

    def test_equals_root_through_chart(self, two_state):
        f = EdgeFunction(two_state, np.ones(4))
        assert mass(tbar(f)) == pytest.approx(perron(f).root, rel=1e-12)

    def test_linearity(self, uniform_point):
        assert mass(scale_point(uniform_point, 3.5)) == pytest.approx(3.5, rel=1e-15)

    @pytest.mark.parametrize("factor", [0.0, -1.0, np.nan])
    def test_nonpositive_factor_rejected_like_scale(self, two_state, uniform_point, factor):
        # both rescalings reject a factor that is not positive with one error type
        with pytest.raises(NonpositiveScale):
            scale_point(uniform_point, factor)
        with pytest.raises(NonpositiveScale):
            scale(EdgeFunction(two_state, np.ones(4)), factor)


class TestMarginals:
    def test_uniform(self, uniform_point):
        assert in_marginals(uniform_point)[0] == pytest.approx(0.5)
        assert out_marginals(uniform_point)[0] == pytest.approx(0.5)

    def test_double_counting(self):
        rng = make_rng(31)
        for _ in range(10):
            eta = random_expectation_point(random_graph(int(rng.integers(1, 7)), rng), rng)
            total = mass(eta)
            assert in_marginals(eta).sum() == pytest.approx(total, rel=1e-12)
            assert out_marginals(eta).sum() == pytest.approx(total, rel=1e-12)

    def test_in_marginal_is_root_times_stationary(self):
        rng = make_rng(32)
        for _ in range(10):
            f = random_edge_function(random_graph(int(rng.integers(1, 6)), rng), rng)
            sd = perron(f)
            np.testing.assert_allclose(
                in_marginals(tbar(f)), sd.root * sd.left_vec, rtol=1e-10
            )


class TestCharts:
    def test_uniform_transition_maps_to_uniform_point(self, two_state):
        w = EdgeFunction(two_state, np.full(4, 0.5))
        np.testing.assert_allclose(tbar(w).values, 0.25, atol=1e-12)

    def test_uniform_point_maps_back(self, uniform_point):
        np.testing.assert_allclose(taubar(uniform_point).values, 0.5, atol=1e-12)

    def test_roundtrip_both_ways(self):
        rng = make_rng(33)
        for _ in range(25):
            g = random_graph(int(rng.integers(1, 8)), rng)
            f = random_edge_function(g, rng)
            np.testing.assert_allclose(taubar(tbar(f)).values, f.values, rtol=1e-9)
            eta = random_expectation_point(g, rng)
            np.testing.assert_allclose(tbar(taubar(eta)).values, eta.values, rtol=1e-9)

    def test_degree_one_equivariance(self):
        rng = make_rng(34)
        for _ in range(10):
            g = random_graph(int(rng.integers(1, 6)), rng)
            f = random_edge_function(g, rng)
            a = float(rng.uniform(0.1, 10.0))
            np.testing.assert_allclose(tbar(scale(f, a)).values, a * tbar(f).values, rtol=1e-10)

    def test_w_maps_into_M(self):
        rng = make_rng(35)
        for _ in range(10):
            g = random_graph(int(rng.integers(1, 6)), rng)
            w = random_transition_probability(g, rng)
            assert is_in_M(tbar(w))
            assert is_transition_probability(taubar(tbar(w)))

    def test_wtilde_maps_into_Mtilde(self):
        rng = make_rng(36)
        for _ in range(10):
            g = random_graph(int(rng.integers(1, 6)), rng)
            m = normalize_to_measure(random_edge_function(g, rng))
            assert is_in_Mtilde(tbar(m))
            assert is_positive_transition_measure(taubar(tbar(m)))


class TestPredicates:
    def test_transition_probability(self, two_state):
        assert is_transition_probability(EdgeFunction(two_state, np.full(4, 0.5)))
        assert not is_transition_probability(EdgeFunction(two_state, np.ones(4)))
        assert is_transition_probability(EdgeFunction(two_state, np.array([0.3, 0.7, 0.9, 0.1])))

    def test_positive_transition_measure(self, two_state):
        assert is_positive_transition_measure(EdgeFunction(two_state, np.full(4, 0.5)))
        assert not is_positive_transition_measure(EdgeFunction(two_state, np.ones(4)))

    def test_root_one_algebraic_description(self, two_state):
        rng = make_rng(37)
        for _ in range(20):
            m = normalize_to_measure(random_edge_function(two_state, rng))
            x, y, z, w = m.values
            assert abs((x - 1) * (w - 1) - y * z) <= 1e-9
            assert x + w < 2

    def test_membership_in_M_and_Mtilde(self, two_state, uniform_point):
        assert is_in_M(uniform_point)
        assert is_in_Mtilde(uniform_point)
        skew = ExpectationPoint(two_state, np.array([0.3, 0.3, 0.2, 0.2]))
        assert is_in_Mtilde(skew)
        assert not is_in_M(skew)
        big = ExpectationPoint(two_state, np.full(4, 0.5))
        assert not is_in_Mtilde(big)
        assert not is_in_M(big)


class TestNormalizeToMeasure:
    def test_constant(self, two_state):
        m = normalize_to_measure(EdgeFunction(two_state, np.ones(4)))
        np.testing.assert_allclose(m.values, 0.5, atol=1e-12)

    def test_fixes_transition_probabilities(self):
        rng = make_rng(38)
        w = random_transition_probability(random_graph(3, rng), rng)
        np.testing.assert_allclose(normalize_to_measure(w).values, w.values, rtol=1e-12)

    def test_idempotent(self):
        rng = make_rng(39)
        f = random_edge_function(random_graph(4, rng), rng)
        once = normalize_to_measure(f)
        twice = normalize_to_measure(once)
        np.testing.assert_allclose(twice.values, once.values, rtol=1e-12)
