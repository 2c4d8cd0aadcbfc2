from bisect import bisect_right

import numpy as np
import pytest

from markovgeo import (
    EdgeFunction,
    ExpectationPoint,
    Trajectory,
    bregman_divergence,
    build_graph,
    empirical_pair_measure,
    get_generator,
    goodness_of_fit_statistic,
    mass,
    mle_transition,
    perron,
    project_to_M,
    sample_trajectory,
    taubar,
    tbar,
)
from markovgeo import inference
from markovgeo.errors import (
    BoundaryFunction,
    NoConvergence,
    NotInMtilde,
    NotTransitionProbability,
    UnobservedEdge,
    UnvisitedState,
)
from markovgeo.coordinates import stationarity_gap
from markovgeo.potential import phibar, phibar_gradient
from markovgeo.verify import random_graph, random_transition_probability

from conftest import make_rng

KL = get_generator("kl")


@pytest.fixture
def skewed_w(two_state):
    return EdgeFunction(two_state, np.array([0.3, 0.7, 0.6, 0.4]))


class TestTrajectory:
    def test_valid(self, two_cycle):
        t = Trajectory(two_cycle, [0, 1, 0, 1, 0])
        assert len(t) == 5

    def test_rejects_non_edge_pair(self, two_cycle):
        with pytest.raises(ValueError):
            Trajectory(two_cycle, [0, 0, 1])

    def test_rejects_short(self, two_cycle):
        with pytest.raises(ValueError):
            Trajectory(two_cycle, [0])

    def test_rejects_out_of_range(self, two_cycle):
        with pytest.raises(ValueError):
            Trajectory(two_cycle, [0, 1, 2])

    @pytest.mark.parametrize("states", [[0.7, 1.9, 0.2], np.array([0.0, 1.0, 0.0]), [True, False, True]])
    def test_rejects_non_integer_states(self, two_cycle, states):
        with pytest.raises(ValueError, match="integers"):
            Trajectory(two_cycle, states)

    @pytest.mark.parametrize("position", [inference._CHUNK - 1, inference._CHUNK])
    def test_non_edge_pair_at_a_chunk_boundary(self, two_cycle, position):
        # alternation with one repeat: (states[position], states[position + 1]) is a self-loop
        states = np.arange(inference._CHUNK + 5) % 2
        states[position + 1 :] ^= 1
        with pytest.raises(ValueError, match=f"position {position} is not an edge"):
            Trajectory(two_cycle, states)

    def test_caller_array_is_copied(self, two_cycle):
        arr = np.array([0, 1, 0, 1, 0], dtype=np.intp)
        t = Trajectory(two_cycle, arr)
        arr[1] = 0  # (0, 0) is not an edge of the cycle
        np.testing.assert_array_equal(t.states, [0, 1, 0, 1, 0])

    def test_states_read_only(self, two_cycle):
        t = Trajectory(two_cycle, [0, 1, 0, 1, 0])
        with pytest.raises(ValueError):
            t.states[1] = 0
        with pytest.raises(ValueError):
            sample_trajectory(EdgeFunction(two_cycle, np.ones(2)), 5, seed=0).states[1] = 0

    def test_pair_counts_read_only(self, two_cycle):
        t = Trajectory(two_cycle, [0, 1, 0, 1, 0])
        np.testing.assert_array_equal(t.pair_counts, [2, 2])
        with pytest.raises(ValueError):
            t.pair_counts[0] = 5


class TestSampleTrajectory:
    def test_deterministic_cycle(self, two_cycle):
        w = EdgeFunction(two_cycle, np.array([1.0, 1.0]))
        t = sample_trajectory(w, 5, seed=0, initial=0)
        np.testing.assert_array_equal(t.states, [0, 1, 0, 1, 0])

    def test_same_seed_same_trajectory(self, skewed_w):
        a = sample_trajectory(skewed_w, 1000, seed=123)
        b = sample_trajectory(skewed_w, 1000, seed=123)
        np.testing.assert_array_equal(a.states, b.states)

    def test_different_seed_differs(self, skewed_w):
        a = sample_trajectory(skewed_w, 1000, seed=123)
        b = sample_trajectory(skewed_w, 1000, seed=124)
        assert not np.array_equal(a.states, b.states)

    def test_state_frequencies_near_stationary(self, two_state):
        w = EdgeFunction(two_state, np.full(4, 0.5))
        t = sample_trajectory(w, 10**5, seed=2024)
        freq = np.bincount(t.states, minlength=2) / len(t)
        np.testing.assert_allclose(freq, [0.5, 0.5], atol=0.02)

    @pytest.mark.parametrize("initial", [1.7, 1.0, True, np.True_, "1", None])
    def test_rejects_non_integer_initial(self, skewed_w, initial):
        with pytest.raises(ValueError, match="initial state must be an integer"):
            sample_trajectory(skewed_w, 10, seed=0, initial=initial)

    @pytest.mark.parametrize("initial", [-1, 2])
    def test_rejects_initial_out_of_range(self, skewed_w, initial):
        with pytest.raises(ValueError, match="out of range"):
            sample_trajectory(skewed_w, 10, seed=0, initial=initial)

    def test_requires_transition_probability(self, two_state):
        f = EdgeFunction(two_state, np.ones(4))
        with pytest.raises(NotTransitionProbability):
            sample_trajectory(f, 10, seed=0)


def reference_sample_states(w, n, seed, initial="stationary"):
    """The per-step bisect sampler that the interval-table sampler replaced."""
    graph = w.graph
    rng = np.random.Generator(np.random.PCG64(seed))
    if initial == "stationary":
        mu = perron(w).left_vec
        state = int(rng.choice(graph.num_states, p=mu / mu.sum()))
    else:
        state = int(initial)
    cumulative = []
    successors = []
    for x in range(graph.num_states):
        positions = [k for k, (s, _) in enumerate(graph.edges) if s == x]
        probs = np.cumsum([w.values[k] for k in positions])
        probs[-1] = 1.0
        cumulative.append(probs.tolist())
        successors.append([graph.edges[k][1] for k in positions])
    uniforms = rng.random(n - 1)
    states = np.empty(n, dtype=np.intp)
    states[0] = state
    for i in range(n - 1):
        state = successors[state][bisect_right(cumulative[state], uniforms[i])]
        states[i + 1] = state
    return states


def _random_chain(rng, num_states, self_loops):
    """A Hamiltonian cycle plus random extra edges, with every self-loop or with none."""
    order = rng.permutation(num_states)
    edges = {(int(order[i]), int(order[(i + 1) % num_states])) for i in range(num_states)}
    for x in range(num_states):
        for y in range(num_states):
            if x != y and rng.random() < 0.4:
                edges.add((x, y))
        if self_loops:
            edges.add((x, x))
    graph = build_graph(num_states, sorted(edges))
    return random_transition_probability(graph, rng)


def assert_matches_reference(w, n, seed, initial="stationary"):
    states = sample_trajectory(w, n, seed=seed, initial=initial).states
    np.testing.assert_array_equal(states, reference_sample_states(w, n, seed, initial))


class TestSamplerAgainstReference:
    def test_random_chains(self):
        rng = make_rng(71)
        for num_states in range(2, 11):
            for self_loops in (True, False):
                w = _random_chain(rng, num_states, self_loops)
                assert_matches_reference(w, 5000, seed=int(rng.integers(2**63)))

    @pytest.mark.parametrize("tiny_first", [True, False])
    def test_row_with_tiny_probability(self, two_state, tiny_first):
        row = [1e-12, 1.0 - 1e-12] if tiny_first else [1.0 - 1e-12, 1e-12]
        w = EdgeFunction(two_state, np.array(row + [0.5, 0.5]))
        assert_matches_reference(w, 2**16 + 2, seed=13)

    def test_uniform_equal_to_breakpoint(self, two_state):
        # the first uniform of the stream is state 0's only inner breakpoint;
        # bisect_right sends it to the upper successor
        u = float(np.random.Generator(np.random.PCG64(21)).random())
        w = EdgeFunction(two_state, np.array([u, 1.0 - u, 0.5, 0.5]))
        np.testing.assert_array_equal(sample_trajectory(w, 2, seed=21, initial=0).states, [0, 1])
        assert_matches_reference(w, 1000, seed=21, initial=0)

    # n - 1 steps: one short of, at and one past the shortest block, 256
    # shortest blocks, and a full chunk; then a second chunk of 1, 32 and 33 steps
    @pytest.mark.parametrize(
        "n", [2, 3, 32, 33, 34, 8192, 8193, 8194, 2**16, 2**16 + 1, 2**16 + 2, 2**16 + 33, 2**16 + 34]
    )
    def test_lengths_around_the_chunk_size(self, n):
        w = _random_chain(make_rng(72), 3, self_loops=True)
        assert_matches_reference(w, n, seed=n)

    @pytest.mark.parametrize(
        "rows",
        [
            [[0.25, 0.5, 0.25]] * 3,
            [[1 / 4096, 2047 / 4096, 0.5], [0.5, 0.25, 0.25], [4093 / 4096, 1 / 4096, 2 / 4096]],
        ],
    )
    def test_breakpoints_at_grid_cell_edges(self, rows):
        graph = build_graph(3, [(x, y) for x in range(3) for y in range(3)])
        w = EdgeFunction(graph, np.ravel(rows))
        assert_matches_reference(w, 20_000, seed=17)

    @pytest.mark.parametrize("initial", [1, "stationary"])
    def test_deterministic_cycle_never_meets_the_guess(self, initial):
        # from state s != 0 the walk of a cycle never meets the walk from 0
        graph = build_graph(5, [(x, (x + 1) % 5) for x in range(5)])
        assert_matches_reference(EdgeFunction(graph, np.ones(5)), 2**16 + 2, seed=4, initial=initial)

    @pytest.mark.parametrize("chord", [1e-3, 0.05])
    def test_blocks_after_a_miss_are_redone(self, chord):
        # a 5-cycle whose state 0 skips to 2 with probability chord: walks from
        # different states meet only through the chord, so most blocks miss
        # the guess, while some meet it (those walked from state 0 always do)
        # and must still be redone when a miss before them changed their start
        graph = build_graph(5, sorted([(x, (x + 1) % 5) for x in range(5)] + [(0, 2)]))
        values = [{(0, 1): 1.0 - chord, (0, 2): chord}.get(edge, 1.0) for edge in graph.edges]
        assert_matches_reference(EdgeFunction(graph, np.array(values)), 2**16 + 34, seed=4, initial=1)

    def test_sparse_ring_with_chords(self):
        rng = make_rng(75)
        num_states = 200
        edges = {(x, (x + 1) % num_states) for x in range(num_states)}
        edges |= {(x, int(y)) for x in range(num_states) for y in rng.choice(num_states, 2, replace=False)}
        graph = build_graph(num_states, sorted(edges))
        assert_matches_reference(random_transition_probability(graph, rng), 2**16 + 100, seed=6)

    def test_integer_initial(self):
        w = _random_chain(make_rng(73), 6, self_loops=False)
        for initial in range(6):
            assert_matches_reference(w, 3000, seed=9, initial=initial)


def test_interval_index_matches_searchsorted():
    cells = inference._CELLS
    breaks = np.unique(np.concatenate([make_rng(76).random(300), np.arange(1, cells, 7) / cells, [1.0]]))
    crafted = np.concatenate([breaks, np.arange(cells) / cells])
    uniforms = np.concatenate([crafted, np.nextafter(crafted, 0.0), np.nextafter(crafted, 1.0)])
    uniforms = uniforms[(uniforms >= 0.0) & (uniforms < 1.0)]
    grid = inference._interval_grid(breaks)
    assert np.any(grid < 0) and np.any(grid >= 0)
    np.testing.assert_array_equal(
        inference._interval_index(uniforms, breaks, grid), np.searchsorted(breaks, uniforms, side="right")
    )


class TestEmpiricalPairMeasure:
    def test_counting(self, two_cycle):
        t = Trajectory(two_cycle, [0, 1, 0, 1, 0])
        eta = empirical_pair_measure(t)
        np.testing.assert_allclose(eta.values, [0.5, 0.5])

    def test_mass_is_one(self, skewed_w):
        t = sample_trajectory(skewed_w, 997, seed=5)
        assert mass(empirical_pair_measure(t)) == pytest.approx(1.0, abs=1e-12)

    def test_converges_to_chart_image(self, skewed_w):
        t = sample_trajectory(skewed_w, 10**5, seed=77)
        eta = empirical_pair_measure(t)
        assert np.max(np.abs(eta.values - tbar(skewed_w).values)) <= 0.02

    def test_pair_counts_match_edge_lookup(self):
        w = _random_chain(make_rng(74), 7, self_loops=True)
        t = sample_trajectory(w, 20_000, seed=3)
        graph = w.graph
        expected = np.zeros(graph.num_edges)
        edge_ids = [graph.edge_index[(x, y)] for x, y in zip(t.states[:-1].tolist(), t.states[1:].tolist())]
        np.add.at(expected, edge_ids, 1.0)
        np.testing.assert_array_equal(t.pair_counts, expected)

    def test_unobserved_edge(self, two_state):
        t = Trajectory(two_state, [0, 1, 0, 1, 0])
        with pytest.raises(UnobservedEdge) as excinfo:
            empirical_pair_measure(t)
        assert (0, 0) in excinfo.value.edges
        assert (1, 1) in excinfo.value.edges


class TestMleTransition:
    def test_deterministic_cycle(self, two_cycle):
        t = Trajectory(two_cycle, [0, 1, 0, 1, 0])
        np.testing.assert_allclose(mle_transition(t).values, [1.0, 1.0])

    def test_boundary_flag_for_unobserved_edges(self, two_state):
        t = Trajectory(two_state, [0, 0, 1, 0])
        est = mle_transition(t)
        assert est.boundary
        np.testing.assert_allclose(est.values, [0.5, 0.5, 1.0, 0.0])
        with pytest.raises(BoundaryFunction):
            perron(est)

    def test_smoothing_keeps_interior(self, two_state):
        t = Trajectory(two_state, [0, 0, 1, 0])
        est = mle_transition(t, smoothing=0.5)
        assert not est.boundary
        assert np.all(est.values > 0)
        np.testing.assert_allclose(est.values, [1.5 / 3, 1.5 / 3, 1.5 / 2, 0.5 / 2])

    @pytest.mark.parametrize("smoothing", [-0.5, -1e-300, np.nan, np.inf])
    def test_smoothing_negative_or_not_finite_raises(self, two_state, smoothing):
        t = Trajectory(two_state, [0, 0, 1, 0])
        with pytest.raises(ValueError, match="smoothing"):
            mle_transition(t, smoothing=smoothing)

    def test_unvisited_state(self, two_cycle):
        t = Trajectory(two_cycle, [0, 1])
        with pytest.raises(UnvisitedState):
            mle_transition(t)

    def test_consistency(self, skewed_w):
        t = sample_trajectory(skewed_w, 10**5, seed=90)
        est = mle_transition(t)
        assert np.max(np.abs(est.values - skewed_w.values)) <= 0.02


def bregman_rows(eta, points):
    """D(x || eta) for every row x of points, from the definitions:
    phibar(x) = sum_st x_st log x_st - sum_s x_s log x^s, with the outgoing and
    incoming marginals x_s and x^s, and
    D(x || eta) = phibar(x) - phibar(eta) - grad phibar(eta) . (x - eta)."""
    g = eta.graph
    states = np.arange(g.num_states)
    out = points @ (g.sources[:, None] == states)
    into = points @ (g.targets[:, None] == states)
    phi = np.sum(points * np.log(points), axis=1) - np.sum(out * np.log(into), axis=1)
    return phi - phibar(eta) - (points - eta.values) @ phibar_gradient(eta)


def coarse_grid(resolution):
    """Pairs (a, b) of the 2-state fixture's M = {(a, b, b, 1 - a - 2b)}: a and b
    on multiples of resolution, keeping 1 - a - 2b above resolution / 10."""
    a_grid = np.arange(resolution, 1.0, resolution)
    b_grids = [np.arange(resolution, (1.0 - a) / 2, resolution) for a in a_grid]
    a = np.repeat(a_grid, [b.size for b in b_grids])
    b = np.concatenate(b_grids)
    keep = 1.0 - a - 2 * b > resolution / 10
    return a[keep], b[keep]


def refine_grid(a0, b0, step):
    """Pairs (a, b) within 2e-3 of (a0, b0) on the given step, all coordinates positive."""
    a, b = np.meshgrid(
        np.arange(a0 - 2e-3, a0 + 2e-3, step), np.arange(b0 - 2e-3, b0 + 2e-3, step), indexing="ij"
    )
    a, b = a.ravel(), b.ravel()
    keep = np.minimum(np.minimum(a, b), 1.0 - a - 2 * b) > 0
    return a[keep], b[keep]


def best_on_grid(eta, a, b, best=(np.inf, None)):
    """(value, point) of the grid point (a, b, b, 1 - a - 2b) nearest to eta in
    D(. || eta), the first of equal values; best if none is strictly below it."""
    points = np.column_stack((a, b, b, 1.0 - a - 2 * b))
    values = bregman_rows(eta, points)
    k = int(np.argmin(values))
    return (values[k], points[k]) if values[k] < best[0] else best


class TestProjectToM:
    def test_point_of_M_is_fixed(self, two_state):
        eta = ExpectationPoint(two_state, np.full(4, 0.25))
        projected = project_to_M(eta)
        np.testing.assert_allclose(projected.values, eta.values, atol=1e-9)

    def test_matches_grid_search_oracle(self, two_state):
        eta = ExpectationPoint(two_state, np.array([0.3, 0.3, 0.2, 0.2]))
        projected = project_to_M(eta)
        _, coarse = best_on_grid(eta, *coarse_grid(1e-3))
        # refine around the coarse optimum at 1e-5
        _, best = best_on_grid(eta, *refine_grid(coarse[0], coarse[1], 1e-5))
        np.testing.assert_allclose(projected.values, best, atol=1e-4)

    def test_constraints_satisfied(self):
        rng = make_rng(91)
        for _ in range(5):
            g = random_graph(int(rng.integers(1, 5)), rng)
            values = np.exp(rng.uniform(-1.0, 1.0, g.num_edges))
            eta = ExpectationPoint(g, values / values.sum())
            projected = project_to_M(eta)
            assert abs(mass(projected) - 1.0) <= 1e-10
            assert stationarity_gap(projected) <= 1e-8

    def test_first_order_optimality(self, two_state):
        eta = ExpectationPoint(two_state, np.array([0.3, 0.3, 0.2, 0.2]))
        projected = project_to_M(eta)
        from markovgeo.inference import _stationary_tangent_basis

        basis = _stationary_tangent_basis(two_state)
        residual = basis.T @ (phibar_gradient(projected) - phibar_gradient(eta))
        assert np.linalg.norm(residual) <= 1e-8

    def test_pythagorean_identity(self, two_state):
        rng = make_rng(92)
        eta = ExpectationPoint(two_state, np.array([0.3, 0.3, 0.2, 0.2]))
        projected = project_to_M(eta)
        through = bregman_divergence(projected, eta)
        for _ in range(20):
            witness = tbar(random_transition_probability(two_state, rng))
            total = bregman_divergence(witness, eta)
            assert abs(total - bregman_divergence(witness, projected) - through) <= 1e-6 * total

    def test_idempotent(self, two_state):
        eta = ExpectationPoint(two_state, np.array([0.3, 0.3, 0.2, 0.2]))
        once = project_to_M(eta)
        twice = project_to_M(once)
        np.testing.assert_allclose(twice.values, once.values, atol=1e-9)

    def test_requires_mass_one(self, two_state):
        with pytest.raises(NotInMtilde):
            project_to_M(ExpectationPoint(two_state, np.full(4, 0.5)))

    def test_budget_exhausted_raises_no_convergence(self, two_state):
        # exact projections (mpmath) have smallest coordinates of 1.8e-4348
        # and 6.8e-351, below the smallest double
        cases = [
            # an entry of the Perron matrix is about e^-5000
            ((1e-4, 0.5, 1e-9, 0.499899), "matrix underflows"),
            ((1e-3, 0.4, 1e-6, 0.599), "coordinate that underflows"),
        ]
        for values, match in cases:
            values = np.array(values) / sum(values)
            with pytest.raises(NoConvergence, match=match):
                project_to_M(ExpectationPoint(two_state, values))

    def test_tiny_coordinate_matches_exact_projection(self, two_state):
        # exact values from the closed form at 80 digits (mpmath), computed
        # apart from markovgeo
        cases = [
            (
                np.array([0.05, 0.45, 0.00005, 0.44995]) / 0.95,
                [2.2831029837039348e-11, 1.5110777610317709e-7, 1.5110777610317709e-7, 0.99999969776161676],
            ),
            (
                np.array([0.01, 0.49, 0.00001, 0.48999]) / 0.99,
                [4.4611450918546628e-46, 6.6792485636410643e-25, 6.6792485636410643e-25, 1.0],
            ),
            (
                np.array([0.708, 0.00235, 0.00236, 0.28729]),
                [0.70887003555774927, 0.0023528877278305485, 0.0023528877278305485, 0.28642418898658963],
            ),
        ]
        for values, exact in cases:
            projected = project_to_M(ExpectationPoint(two_state, values))
            np.testing.assert_allclose(projected.values, exact, rtol=1e-12, atol=0)

    def test_empirical_measure_starts_next_to_its_projection(self):
        # an empirical pair measure is within O(1/n) of M
        rng = make_rng(93)
        for num_states in range(3, 11):
            w = _random_chain(rng, num_states, self_loops=bool(num_states % 2))
            eta = empirical_pair_measure(sample_trajectory(w, 10**5, seed=int(rng.integers(2**63))))
            projected = project_to_M(eta)
            assert stationarity_gap(projected) <= 1e-9

    def test_weak_transition_certifies(self):
        # the fixed stall query of the benchmark's project workload: one
        # transition of probability 1e-5 on a 16-state circulant graph of
        # degree 3, under log-normal noise
        rng = np.random.default_rng(20231018)
        n = 16
        offsets = [1] + sorted(rng.choice(np.arange(2, n), size=2, replace=False).tolist())
        graph = build_graph(n, sorted((x, (x + o) % n) for x in range(n) for o in offsets))
        weights = rng.uniform(0.7, 1.0, graph.num_edges)
        x = int(rng.integers(n))
        weights[graph.edge_index[(x, (x + offsets[-1]) % n)]] = 1e-5
        rows = np.bincount(graph.sources, weights=weights)
        values = tbar(EdgeFunction(graph, weights / rows[graph.sources])).values
        values = values * np.exp(0.3 * rng.standard_normal(graph.num_edges))
        eta = ExpectationPoint(graph, values / values.sum())
        projected = project_to_M(eta)
        basis = inference._stationary_tangent_basis(graph)
        assert np.linalg.norm(basis.T @ (phibar_gradient(projected) - phibar_gradient(eta))) < inference.PROJECTION_TOL
        assert stationarity_gap(projected) <= 1e-9

    def test_estimators_converge_to_each_other(self, skewed_w):
        t = sample_trajectory(skewed_w, 10**5, seed=90)
        mle = mle_transition(t)
        projected_w = taubar(project_to_M(empirical_pair_measure(t)))
        assert np.max(np.abs(projected_w.values - mle.values)) <= 0.01


class TestGoodnessOfFit:
    def test_zero_at_exact_model(self, skewed_w):
        eta = tbar(skewed_w)
        assert goodness_of_fit_statistic(KL, eta, skewed_w, 1000) == pytest.approx(0.0, abs=1e-9)

    def test_linear_in_n(self, two_state, skewed_w):
        eta = ExpectationPoint(two_state, np.array([0.3, 0.3, 0.2, 0.2]))
        s1 = goodness_of_fit_statistic(KL, eta, skewed_w, 101)
        s2 = goodness_of_fit_statistic(KL, eta, skewed_w, 201)
        assert s2 / s1 == pytest.approx(2.0, rel=1e-12)

    def test_requires_normalized_empirical(self, two_state, skewed_w):
        with pytest.raises(NotInMtilde):
            goodness_of_fit_statistic(KL, ExpectationPoint(two_state, np.full(4, 0.5)), skewed_w, 10)

    def test_requires_model_membership(self, two_state):
        eta = ExpectationPoint(two_state, np.full(4, 0.25))
        with pytest.raises(NotTransitionProbability):
            goodness_of_fit_statistic(KL, eta, EdgeFunction(two_state, np.ones(4)), 10)

    @pytest.mark.slow
    def test_chi_square_calibration(self, skewed_w):
        # mean over replications should sit near |E| - |X| = 2 (heuristic
        # degrees of freedom); recorded as a regression baseline
        n = 10**5
        base_seed = 4000
        values = []
        for i in range(200):
            t = sample_trajectory(skewed_w, n, seed=base_seed + i)
            eta = empirical_pair_measure(t)
            values.append(goodness_of_fit_statistic(KL, eta, skewed_w, n))
        mean = float(np.mean(values))
        assert 1.5 <= mean <= 2.5
