import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest

from markovgeo import (
    EdgeFunction,
    ExpectationPoint,
    StandardConvexFunction,
    bregman_divergence,
    builtin_generators,
    f_divergence,
    get_generator,
    induced_tensor,
    induced_tensor_gram,
    nagaoka_divergence,
    null_space_dimension,
    perron,
    register_generator,
    scale,
    scale_point,
    tbar,
)
from markovgeo import divergence
from markovgeo.errors import (
    BoundaryFunction,
    GeneratorInvalid,
    GraphMismatch,
    NoConvergence,
    NotTransitionProbability,
)
from markovgeo.graph import build_graph
from markovgeo.spectral import root_gradient
from markovgeo.verify import random_edge_function, random_graph, random_transition_probability

from conftest import make_rng

KL = get_generator("kl")
CHI2 = get_generator("chi2")
HELLINGER = get_generator("hellinger")


def kl_decimal(t):
    """Reference: -log t + (t - 1) at the float t, to 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        d = Decimal(float(t))
        return -d.ln() + (d - 1)


def kl_w_oracle(w1, w2):
    """Direct summation of the relative entropy rate for unit-row-sum inputs."""
    mu = perron(w1).left_vec
    return sum(
        mu[x] * w1.value_at(x, y) * math.log(w1.value_at(x, y) / w2.value_at(x, y))
        for x, y in w1.graph.edges
    )


class TestGenerators:
    def test_builtins_present(self):
        names = {gen.name for gen in builtin_generators()}
        assert {"kl", "chi2", "hellinger"} <= names

    def test_kl_at_one(self):
        assert KL.eval(1.0) == 0.0

    def test_kl_accurate_near_one(self):
        near_one = [1.0 + sign * 10.0**-k for k in range(1, 13) for sign in (1, -1)]
        for t in near_one + list(2.0 ** np.arange(-6.0, 7.0)):
            expected = float(kl_decimal(t))
            assert KL.eval(t) == pytest.approx(expected, rel=1e-14, abs=0)
            assert KL.eval(np.array([t]))[0] == pytest.approx(expected, rel=1e-14, abs=0)

    def test_chi2_second_derivative(self):
        assert CHI2.deriv2(1.0) == 1.0
        assert CHI2.deriv2(17.3) == 1.0

    def test_hellinger_at_four(self):
        assert HELLINGER.eval(4.0) == pytest.approx(2.0, abs=1e-14)

    def test_normalization_conditions(self):
        for gen in builtin_generators():
            assert gen.eval(1.0) == pytest.approx(0.0, abs=1e-12)
            assert gen.deriv1(1.0) == pytest.approx(0.0, abs=1e-12)
            assert gen.deriv2(1.0) == pytest.approx(1.0, abs=1e-12)

    def test_register_valid_custom_generator(self):
        # reverse KL generator: t log t - (t - 1)
        gen = StandardConvexFunction(
            name="reverse_kl_test",
            eval=lambda t: t * np.log(t) - (t - 1.0),
            deriv1=np.log,
            deriv2=lambda t: 1.0 / t,
        )
        registered = register_generator(gen)
        assert registered.name == "reverse_kl_test"
        assert get_generator("reverse_kl_test") is registered

    def test_register_rejects_bad_normalization(self):
        bad = StandardConvexFunction(
            name="bad_norm_test",
            eval=lambda t: (t - 1.0) ** 2,  # second derivative 2 at t = 1
            deriv1=lambda t: 2.0 * (t - 1.0),
            deriv2=lambda t: np.full_like(t, 2.0),
        )
        with pytest.raises(GeneratorInvalid):
            register_generator(bad)

    def test_register_rejects_inconsistent_derivative(self):
        bad = StandardConvexFunction(
            name="bad_deriv_test",
            eval=lambda t: -np.log(t) + (t - 1.0),
            deriv1=lambda t: 1.0 - 2.0 / t,  # wrong slope
            deriv2=lambda t: 1.0 / t**2,
        )
        with pytest.raises(GeneratorInvalid):
            register_generator(bad)

    def test_register_rejects_scalar_only_generator(self):
        scalar_only = StandardConvexFunction(
            name="scalar_only_test",
            eval=lambda t: -math.log(t) + (t - 1.0),
            deriv1=lambda t: 1.0 - 1.0 / t,
            deriv2=lambda t: 1.0 / t**2,
        )
        with pytest.raises(GeneratorInvalid, match="fails on an array"):
            register_generator(scalar_only)

    def test_register_rejects_scalar_result(self):
        constant = StandardConvexFunction(
            name="scalar_result_test",
            eval=lambda t: 0.5 * (t - 1.0) ** 2,
            deriv1=lambda t: t - 1.0,
            deriv2=lambda t: 1.0,  # one float for any array
        )
        with pytest.raises(GeneratorInvalid, match="returns shape"):
            register_generator(constant)

    def test_register_rejects_nan_generator(self):
        # KL that returns NaN beyond t = 8: every comparison with NaN is false
        nan_beyond_8 = StandardConvexFunction(
            name="nan_beyond_8_test",
            eval=lambda t: np.where(t > 8, np.nan, -np.log(t) + (t - 1.0)),
            deriv1=lambda t: np.where(t > 8, np.nan, 1.0 - 1.0 / t),
            deriv2=lambda t: 1.0 / t**2,
        )
        with pytest.raises(GeneratorInvalid):
            register_generator(nan_beyond_8)

    def test_builtins_keep_input_shape(self):
        t = np.array([[0.5, 1.0, 2.0]])
        for gen in builtin_generators():
            for fn in (gen.eval, gen.deriv1, gen.deriv2):
                assert np.shape(fn(t)) == t.shape

    def test_duplicate_name_rejected(self):
        with pytest.raises(GeneratorInvalid):
            register_generator(KL)


def per_edge_f_divergence(gen, f, g):
    """Reference: the generator called on one edge's ratio at a time."""
    sd_f, sd_g = perron(f), perron(g)
    ratio = (g.values / sd_g.root) / (f.values / sd_f.root)
    weights = sd_f.left_vec[f.graph.sources] * f.values
    return float(weights @ np.array([gen.eval(t) for t in ratio]))


class TestFDivergence:
    @pytest.mark.parametrize("gen", [KL, CHI2, HELLINGER], ids=lambda g: g.name)
    def test_matches_per_edge_reference(self, gen):
        rng = make_rng(40)
        for _ in range(20):
            g = random_graph(int(rng.integers(1, 8)), rng)
            f1, f2 = random_edge_function(g, rng), random_edge_function(g, rng)
            assert f_divergence(gen, f1, f2) == pytest.approx(per_edge_f_divergence(gen, f1, f2), rel=1e-14, abs=0)
    def test_kl_close_arguments_match_decimal_reference(self):
        # g = f (1 + 1e-7 noise): each generator term is about 1e-14, far
        # below the -log t and t - 1 it would be the difference of
        rng = make_rng(48)
        g = random_graph(4, rng)
        f = random_edge_function(g, rng)
        near = EdgeFunction(g, f.values * (1.0 + 1e-7 * rng.standard_normal(g.num_edges)))
        sd_f, sd_g = perron(f), perron(near)
        ratio = (near.values / sd_g.root) / (f.values / sd_f.root)
        weights = sd_f.left_vec[g.sources] * f.values
        with localcontext() as ctx:
            ctx.prec = 50
            expected = sum(Decimal(float(w)) * kl_decimal(t) for w, t in zip(weights, ratio))
        assert f_divergence(KL, f, near) == pytest.approx(float(expected), rel=1e-13, abs=0)

    def test_zero_on_rays(self):
        rng = make_rng(41)
        for gen in builtin_generators():
            f = random_edge_function(random_graph(3, rng), rng)
            assert f_divergence(gen, f, scale(f, 2.0)) == pytest.approx(0.0, abs=1e-10)
            assert f_divergence(gen, f, f) == 0.0

    def test_uniform_against_skewed(self, two_state):
        w = EdgeFunction(two_state, np.full(4, 0.5))
        g = EdgeFunction(two_state, np.array([0.3, 0.7, 0.9, 0.1]))
        expected = kl_w_oracle(w, g)
        assert expected == pytest.approx(0.2990, abs=5e-5)
        assert f_divergence(KL, w, g) == pytest.approx(expected, rel=1e-12)

    def test_nonnegative(self):
        rng = make_rng(42)
        for gen in builtin_generators():
            for _ in range(20):
                g = random_graph(int(rng.integers(1, 6)), rng)
                assert f_divergence(gen, random_edge_function(g, rng), random_edge_function(g, rng)) >= 0.0

    def test_first_slot_scales_linearly(self):
        rng = make_rng(43)
        g = random_graph(3, rng)
        f1, f2 = random_edge_function(g, rng), random_edge_function(g, rng)
        base = f_divergence(KL, f1, f2)
        for a in (0.2, 3.0):
            assert f_divergence(KL, scale(f1, a), f2) == pytest.approx(a * base, rel=1e-9)

    def test_second_slot_scale_blind(self):
        rng = make_rng(44)
        g = random_graph(3, rng)
        f1, f2 = random_edge_function(g, rng), random_edge_function(g, rng)
        base = f_divergence(KL, f1, f2)
        for b in (0.2, 3.0):
            assert f_divergence(KL, f1, scale(f2, b)) == pytest.approx(base, rel=1e-9)

    def test_graph_mismatch(self, two_state, two_cycle):
        f = EdgeFunction(two_state, np.ones(4))
        g = EdgeFunction(two_cycle, np.ones(2))
        with pytest.raises(GraphMismatch):
            f_divergence(KL, f, g)

    def test_first_order_conditions_vanish(self):
        # directional first derivatives in either slot vanish on the diagonal
        rng = make_rng(45)
        g = random_graph(2, rng)
        f = random_edge_function(g, rng)
        direction = rng.standard_normal(g.num_edges)
        h = 1e-6
        for slot in (0, 1):
            def d(t):
                values = f.values + t * h * direction
                other = EdgeFunction(g, values)
                return f_divergence(KL, other, f) if slot == 0 else f_divergence(KL, f, other)
            fd = (d(1.0) - d(-1.0)) / (2 * h)
            assert abs(fd) <= 1e-5


class TestNagaoka:
    def test_zero_on_diagonal(self):
        rng = make_rng(46)
        w = random_transition_probability(random_graph(3, rng), rng)
        assert nagaoka_divergence(w, w) == 0.0

    def test_matches_kl_f_divergence(self):
        rng = make_rng(47)
        for _ in range(10):
            g = random_graph(int(rng.integers(1, 6)), rng)
            w1 = random_transition_probability(g, rng)
            w2 = random_transition_probability(g, rng)
            assert nagaoka_divergence(w1, w2) == pytest.approx(f_divergence(KL, w1, w2), abs=1e-10)

    def test_uniform_fixture(self, two_state):
        w = EdgeFunction(two_state, np.full(4, 0.5))
        g = EdgeFunction(two_state, np.array([0.3, 0.7, 0.9, 0.1]))
        assert nagaoka_divergence(w, g) == pytest.approx(kl_w_oracle(w, g), rel=1e-12)

    def test_asymmetric(self, two_state):
        w = EdgeFunction(two_state, np.full(4, 0.5))
        g = EdgeFunction(two_state, np.array([0.3, 0.7, 0.9, 0.1]))
        assert nagaoka_divergence(w, g) != pytest.approx(nagaoka_divergence(g, w), rel=1e-3)

    def test_rejects_boundary_function_in_either_slot(self, two_state):
        w = EdgeFunction(two_state, np.full(4, 0.5))
        edge = EdgeFunction(two_state, np.array([0.0, 1.0, 0.5, 0.5]), boundary=True)
        for args in ((w, edge), (edge, w)):
            with pytest.raises(BoundaryFunction):
                nagaoka_divergence(*args)

    def test_requires_transition_probabilities(self, two_state):
        w = EdgeFunction(two_state, np.full(4, 0.5))
        f = EdgeFunction(two_state, np.ones(4))
        with pytest.raises(NotTransitionProbability):
            nagaoka_divergence(w, f)


class TestBregman:
    def test_zero_on_diagonal(self, two_state):
        eta = ExpectationPoint(two_state, np.array([0.3, 0.3, 0.2, 0.2]))
        assert bregman_divergence(eta, eta) == 0.0

    def test_uniform_against_double(self, two_state):
        eta = ExpectationPoint(two_state, np.full(4, 0.25))
        assert bregman_divergence(eta, scale_point(eta, 2.0)) == pytest.approx(0.0, abs=1e-12)

    def test_equals_f_divergence_through_chart(self):
        rng = make_rng(48)
        for _ in range(20):
            g = random_graph(int(rng.integers(1, 8)), rng)
            f1 = random_edge_function(g, rng)
            f2 = random_edge_function(g, rng)
            df = f_divergence(KL, f1, f2)
            assert bregman_divergence(tbar(f1), tbar(f2)) == pytest.approx(df, rel=1e-8, abs=1e-8)

    def test_graph_mismatch(self, two_state, two_cycle):
        with pytest.raises(GraphMismatch):
            bregman_divergence(
                ExpectationPoint(two_state, np.full(4, 0.25)),
                ExpectationPoint(two_cycle, np.full(2, 0.5)),
            )


def fd_contrast_tensor(gen, f, x_vec, y_vec, step=1e-4):
    """Mixed second directional derivative of the divergence in its second slot."""
    g = f.graph
    a = step * max(1.0, float(np.max(np.abs(f.values))))

    def d(su, sv):
        return f_divergence(gen, f, EdgeFunction(g, f.values + su * a * x_vec + sv * a * y_vec))

    return (d(1, 1) - d(1, -1) - d(-1, 1) + d(-1, -1)) / (4 * a * a)


def fd_contrast_tensor_first_slot(gen, f, x_vec, y_vec, step=1e-4):
    """Same tensor from second derivatives in the first slot."""
    g = f.graph
    a = step * max(1.0, float(np.max(np.abs(f.values))))

    def d(su, sv):
        return f_divergence(gen, EdgeFunction(g, f.values + su * a * x_vec + sv * a * y_vec), f)

    return (d(1, 1) - d(1, -1) - d(-1, 1) + d(-1, -1)) / (4 * a * a)


class TestInducedTensor:
    def test_radial_direction_is_null(self):
        rng = make_rng(49)
        for _ in range(5):
            g = random_graph(int(rng.integers(1, 5)), rng)
            f = random_edge_function(g, rng)
            x = rng.standard_normal(g.num_edges)
            assert abs(induced_tensor(KL, f, x, f.values)) <= 1e-10 * np.linalg.norm(x)

    def test_positive_semidefinite(self):
        rng = make_rng(50)
        for _ in range(10):
            g = random_graph(int(rng.integers(1, 5)), rng)
            f = random_edge_function(g, rng)
            x = rng.standard_normal(g.num_edges)
            assert induced_tensor(KL, f, x, x) >= -1e-12

    def test_bilinear(self):
        rng = make_rng(51)
        g = random_graph(3, rng)
        f = random_edge_function(g, rng)
        x = rng.standard_normal(g.num_edges)
        y = rng.standard_normal(g.num_edges)
        assert induced_tensor(KL, f, 2 * x, y) == pytest.approx(2 * induced_tensor(KL, f, x, y), rel=1e-12)
        assert induced_tensor(KL, f, x, y) == pytest.approx(induced_tensor(KL, f, y, x), rel=1e-12)

    @pytest.mark.parametrize("gen", [KL, CHI2, HELLINGER], ids=lambda g: g.name)
    def test_matches_finite_difference_contrast(self, gen):
        rng = make_rng(52)
        for _ in range(5):
            g = random_graph(int(rng.integers(1, 4)), rng)
            f = random_edge_function(g, rng)
            x = rng.standard_normal(g.num_edges)
            y = rng.standard_normal(g.num_edges)
            analytic = induced_tensor(gen, f, x, y)
            fd = fd_contrast_tensor(gen, f, x, y)
            assert analytic == pytest.approx(fd, rel=1e-4, abs=1e-6)

    def test_both_slots_induce_same_tensor(self):
        # open question resolved numerically: the first-slot second derivative
        # agrees with the second-slot one
        rng = make_rng(53)
        g = random_graph(2, rng)
        f = random_edge_function(g, rng)
        x = rng.standard_normal(g.num_edges)
        y = rng.standard_normal(g.num_edges)
        analytic = induced_tensor(KL, f, x, y)
        assert fd_contrast_tensor_first_slot(KL, f, x, y) == pytest.approx(analytic, rel=1e-3, abs=1e-5)


class TestNullSpace:
    @pytest.mark.parametrize("gen", [KL, CHI2, HELLINGER], ids=lambda g: g.name)
    def test_dimension_is_one(self, gen, two_state):
        rng = make_rng(54)
        for _ in range(5):
            f = random_edge_function(two_state, rng)
            assert null_space_dimension(gen, f) == 1

    def test_null_vector_parallel_to_f(self):
        rng = make_rng(55)
        for _ in range(10):
            g = random_graph(int(rng.integers(1, 6)), rng)
            f = random_edge_function(g, rng)
            eigenvalues, eigenvectors = np.linalg.eigh(induced_tensor_gram(KL, f))
            null_vec = eigenvectors[:, np.argmin(np.abs(eigenvalues))]
            cosine = abs(null_vec @ f.values) / (np.linalg.norm(null_vec) * np.linalg.norm(f.values))
            assert cosine >= 1 - 1e-8

    def test_inexact_euler_identity_raises(self, monkeypatch):
        # a gradient off by 1e-6 relative leaves an Euler residual far above
        # the certified bound, so the kernel is not shown to be the ray
        f = random_edge_function(random_graph(3, make_rng(58)), make_rng(59))
        monkeypatch.setattr(divergence, "root_gradient", lambda h: (1.0 + 1e-6) * root_gradient(h))
        with pytest.raises(NoConvergence):
            null_space_dimension(KL, f)


def dense_jacobian_reference(f):
    """Jacobian of a |-> a / r(a) at f as a dense matrix: J = (r I - f grad_r^T) / r^2."""
    sd = perron(f)
    r = sd.root
    return (r * np.eye(f.graph.num_edges) - np.outer(f.values, root_gradient(f))) / r**2


def dense_weights_reference(f):
    sd = perron(f)
    return sd.left_vec[f.graph.sources] * sd.root**2 / f.values


def dense_gram_reference(f):
    """The Gram matrix as the dense product J^T W J."""
    jac = dense_jacobian_reference(f)
    return jac.T @ (dense_weights_reference(f)[:, None] * jac)


def _wide_range_function(rng, sigma):
    g = random_graph(int(rng.integers(9, 20)), rng)
    return EdgeFunction(g, np.exp(sigma * rng.standard_normal(g.num_edges)))


_RNG = make_rng(56)
DENSE_CASES = [random_edge_function(random_graph(d, _RNG), _RNG) for d in (19, 29, 39)]
WIDE_RANGE_CASES = [_wide_range_function(_RNG, sigma) for sigma in (4.0, 4.0, 6.0, 6.0, 8.0, 8.0)]
TWO_STATE_CASES = [
    random_edge_function(build_graph(2, edges), _RNG)
    for edges in ([(0, 0), (0, 1), (1, 0), (1, 1)], [(0, 1), (1, 0)], [(0, 0), (0, 1), (1, 0)])
    for _ in range(3)
]
# constant values: every diagonal entry of P^T W P is the same
CONSTANT_CASE = EdgeFunction(build_graph(3, [(x, y) for x in range(3) for y in range(3)]), np.ones(9))
STRUCTURED_CASES = DENSE_CASES + WIDE_RANGE_CASES + TWO_STATE_CASES + [CONSTANT_CASE]


class TestStructuredTensor:
    """The diagonal-plus-rank-2 code against the dense Jacobian forms."""

    def test_gram_matches_dense_product(self):
        for f in STRUCTURED_CASES:
            dense = dense_gram_reference(f)
            np.testing.assert_allclose(
                induced_tensor_gram(KL, f), dense, rtol=0, atol=1e-12 * np.max(np.abs(dense))
            )

    def test_null_count_is_one_on_wide_range_weights(self):
        # oracle without W: P = r I - f grad_r^T has exactly one singular value
        # at rounding level, and P / r, a projector, has every other one >= 1
        for f in WIDE_RANGE_CASES:
            r = perron(f).root
            p_mat = r * np.eye(f.graph.num_edges) - np.outer(f.values, root_gradient(f))
            singular = np.linalg.svd(p_mat, compute_uv=False)
            assert singular[-1] <= 1e-9 * r and singular[-2] >= 0.5 * r
            assert null_space_dimension(KL, f) == 1

    def test_induced_tensor_matches_dense_jacobian(self):
        rng = make_rng(57)
        for f in STRUCTURED_CASES:
            x = rng.standard_normal(f.graph.num_edges)
            y = rng.standard_normal(f.graph.num_edges)
            jac = dense_jacobian_reference(f)
            weights = dense_weights_reference(f)
            expected = (jac @ x) @ (weights * (jac @ y))
            scale = np.linalg.norm(np.sqrt(weights) * (jac @ x)) * np.linalg.norm(np.sqrt(weights) * (jac @ y))
            assert induced_tensor(KL, f, x, y) == pytest.approx(expected, abs=1e-12 * scale)

    def test_null_count_allocates_no_edge_square_array(self):
        f = DENSE_CASES[-1]
        perron(f)
        edges = f.graph.num_edges
        tracemalloc.start()
        try:
            assert null_space_dimension(KL, f) == 1
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < edges * edges * 8 / 16
