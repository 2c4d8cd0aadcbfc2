"""Each check accepts the program's true output and rejects a corrupted one.

Run with: python3 -m pytest perfbench/tests
"""

import markovgeo as mg
import numpy as np
import pytest

import checks
import reference as ref
import workloads
from checks import CheckFailure
from reference import Chain
from tracing import Tracer


def rng(seed=0):
    return np.random.default_rng(seed)


def chain_and_graph(seed=0, n=6, density=0.5):
    chain = workloads._random_chain(rng(seed), n, density)
    return chain, mg.build_graph(chain.num_states, chain.edges)


def transition(chain, seed=1):
    return ref.row_normalize(chain, 0.2 + rng(seed).random(chain.num_edges))


def off_M_point(chain, seed=2):
    eta = ref.pair_measure(chain, transition(chain)) * np.exp(0.3 * rng(seed).standard_normal(chain.num_edges))
    return eta / eta.sum()


def witnesses(chain):
    return [ref.pair_measure(chain, transition(chain, seed)) for seed in (5, 6)]


# --- reference --------------------------------------------------------------


def test_reference_perron_matches_closed_form_root():
    chain = Chain(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    x, y, z, w = values = np.array([0.3, 2.0, 0.5, 1.1])
    root, left, right = ref.perron(chain, values)
    assert root == pytest.approx((x + w + np.sqrt((x - w) ** 2 + 4 * y * z)) / 2, rel=1e-12)
    a = chain.matrix(values)
    np.testing.assert_allclose(left @ a, root * left, atol=1e-12)
    np.testing.assert_allclose(a @ right, root * right, atol=1e-12)


def test_reference_gradient_matches_finite_differences():
    chain, _ = chain_and_graph()
    eta = off_M_point(chain)
    h = 1e-6
    numeric = [
        (ref.phibar(chain, eta + h * e) - ref.phibar(chain, eta - h * e)) / (2 * h) for e in np.eye(chain.num_edges)
    ]
    np.testing.assert_allclose(ref.phibar_gradient(chain, eta), numeric, atol=1e-7)


def test_chi2_quantile_near_tables():
    assert ref.chi2_quantile(100, 1.959964) == pytest.approx(129.561, rel=1e-3)
    assert ref.chi2_quantile(10, -1.644854) == pytest.approx(3.940, rel=1e-2)


# --- divergence -------------------------------------------------------------


def test_perron_check_rejects_perturbed_root():
    chain, graph = chain_and_graph()
    values = np.exp(rng(3).standard_normal(chain.num_edges))
    sd = mg.perron(mg.EdgeFunction(graph, values))
    checks.check_perron(chain, values, sd.root, sd.left_vec, sd.right_vec)
    with pytest.raises(CheckFailure, match="root"):
        checks.check_perron(chain, values, sd.root * (1 + 1e-5), sd.left_vec, sd.right_vec)
    with pytest.raises(CheckFailure, match="left"):
        checks.check_perron(chain, values, sd.root, np.roll(sd.left_vec, 1), sd.right_vec)


def divergence_outputs(chain, graph, f, g):
    f_fn, g_fn = mg.EdgeFunction(graph, f), mg.EdgeFunction(graph, g)
    fdiv = {name: mg.f_divergence(mg.get_generator(name), f_fn, g_fn) for name in ("kl", "chi2", "hellinger")}
    return fdiv, mg.bregman_divergence(mg.tbar(f_fn), mg.tbar(g_fn))


def test_divergence_check_rejects_wrong_values():
    chain, graph = chain_and_graph()
    w1, w2 = transition(chain, 1), transition(chain, 2)
    fdiv, bregman = divergence_outputs(chain, graph, w1, w2)
    nagaoka = mg.nagaoka_divergence(mg.EdgeFunction(graph, w1), mg.EdgeFunction(graph, w2))
    checks.check_divergences(chain, w1, w2, fdiv, bregman, nagaoka, ray=False)
    with pytest.raises(CheckFailure, match="Bregman"):
        checks.check_divergences(chain, w1, w2, fdiv, bregman * 1.01, nagaoka, ray=False)
    with pytest.raises(CheckFailure, match="Nagaoka"):
        checks.check_divergences(chain, w1, w2, fdiv, bregman, nagaoka * 1.01, ray=False)
    with pytest.raises(CheckFailure, match="chi2"):
        checks.check_divergences(chain, w1, w2, fdiv | {"chi2": fdiv["chi2"] + 1e-3}, bregman, nagaoka, ray=False)
    # a ray the divergences do not see as one
    with pytest.raises(CheckFailure, match="ray"):
        checks.check_divergences(chain, w1, w2, fdiv, bregman, nagaoka, ray=True)


def test_divergence_check_accepts_ray_and_rejects_negative():
    chain, graph = chain_and_graph()
    f = np.exp(rng(4).standard_normal(chain.num_edges))
    fdiv, bregman = divergence_outputs(chain, graph, f, 2.5 * f)
    checks.check_divergences(chain, f, 2.5 * f, fdiv, bregman, None, ray=True)
    zero = dict.fromkeys(fdiv, -1e-3)
    with pytest.raises(CheckFailure):
        checks.check_divergences(chain, f, 2.5 * f, zero, -1e-3, None, ray=True)


# --- estimate and project ---------------------------------------------------


def test_projection_check_rejects_point_not_moved_onto_M():
    chain, graph = chain_and_graph()
    eta = off_M_point(chain)
    projected = mg.project_to_M(mg.ExpectationPoint(graph, eta)).values
    checks.check_projection(chain, eta, projected, witnesses(chain))
    with pytest.raises(CheckFailure, match="stationary"):
        checks.check_projection(chain, eta, eta, witnesses(chain))


def test_projection_check_rejects_wrong_point_of_M():
    chain, graph = chain_and_graph()
    eta = off_M_point(chain)
    other = ref.pair_measure(chain, transition(chain, 9))  # in M, but not the projection
    with pytest.raises(CheckFailure, match="Pythagorean"):
        checks.check_projection(chain, eta, other, witnesses(chain))


def sampled(chain, graph, steps, seed):
    w = transition(chain, seed)
    trajectory = mg.sample_trajectory(mg.EdgeFunction(graph, w), steps, seed=seed)
    return w, trajectory


def test_estimate_check_rejects_bad_counts_and_rows():
    chain, graph = chain_and_graph()
    _, trajectory = sampled(chain, graph, 20_000, 7)
    empirical = mg.empirical_pair_measure(trajectory).values
    mle = mg.mle_transition(trajectory).values
    checks.check_estimate(chain, trajectory.states, 20_000, empirical, mle)
    with pytest.raises(CheckFailure, match="pair counts"):
        checks.check_estimate(chain, trajectory.states, 20_000, np.roll(empirical, 1), mle)
    with pytest.raises(CheckFailure, match="MLE"):
        checks.check_estimate(chain, trajectory.states, 20_000, empirical, 1.01 * mle)
    bad = trajectory.states.copy()
    bad[1] = next(y for y in range(chain.num_states) if (bad[0], y) not in chain.edges)
    with pytest.raises(CheckFailure, match="not an edge"):
        checks.check_estimate(chain, bad, 20_000, empirical, mle)


def test_chi_square_band_rejects_stationary_pair_measure_as_sample():
    kl = mg.get_generator("kl")
    sampled_total = exact_total = dof_total = 0
    for seed in range(8):
        chain, graph = chain_and_graph(seed)
        w, trajectory = sampled(chain, graph, 50_000, seed)
        w_fn = mg.EdgeFunction(graph, w)
        counts = ref.pair_counts(chain, trajectory.states)
        empirical = mg.empirical_pair_measure(trajectory)
        statistic = mg.goodness_of_fit_statistic(kl, empirical, w_fn, 50_000)
        reference_statistic, dof = ref.likelihood_ratio(chain, counts, w)
        checks.check_likelihood_ratio(statistic, reference_statistic)
        sampled_total += statistic
        dof_total += dof
        # a "trajectory" whose pair measure is the stationary one exactly
        exact = mg.ExpectationPoint(graph, ref.pair_measure(chain, w))
        exact_total += mg.goodness_of_fit_statistic(kl, exact, w_fn, 50_000)
    checks.check_chi_square_band(sampled_total, dof_total)
    with pytest.raises(CheckFailure, match="outside"):
        checks.check_chi_square_band(exact_total, dof_total)
    with pytest.raises(CheckFailure, match="likelihood ratio"):
        checks.check_likelihood_ratio(statistic * 1.1, reference_statistic)


# --- geometry ---------------------------------------------------------------


def test_hessian_check_rejects_offset_entries():
    chain, graph = chain_and_graph(density=0.7)
    eta = off_M_point(chain)
    directions = rng(8).standard_normal((2, chain.num_edges))
    hessian = mg.phibar_hessian(mg.ExpectationPoint(graph, eta))
    checks.check_hessian(chain, eta, hessian, directions)
    with pytest.raises(CheckFailure):
        checks.check_hessian(chain, eta, hessian + 1e-3 * np.max(np.abs(hessian)), directions)
    scaled = hessian.copy()
    scaled[0, 0] *= 1.01
    with pytest.raises(CheckFailure):
        checks.check_hessian(chain, eta, scaled, directions)


def test_restricted_hessian_and_gram_checks_reject_corruption():
    chain, graph = chain_and_graph(density=0.7)
    eta = off_M_point(chain)
    restricted = mg.restricted_hessian(mg.ExpectationPoint(graph, eta))
    checks.check_restricted_hessian(chain, restricted)
    with pytest.raises(CheckFailure, match="positive definite"):
        checks.check_restricted_hessian(chain, -restricted)
    kl = mg.get_generator("kl")
    f_fn = mg.EdgeFunction(graph, np.exp(rng(9).standard_normal(chain.num_edges)))
    gram = mg.induced_tensor_gram(kl, f_fn)
    checks.check_gram(f_fn.values, gram, mg.null_space_dimension(kl, f_fn))
    with pytest.raises(CheckFailure, match="dimension"):
        checks.check_gram(f_fn.values, gram, 2)
    with pytest.raises(CheckFailure, match="Gram f"):
        checks.check_gram(f_fn.values, gram + np.eye(chain.num_edges) * np.max(np.abs(gram)), 1)


# --- workloads and tracing --------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_warmup_queries_run_and_pass_their_checks(name):
    workload = workloads.WORKLOADS[name]()
    for query in workload.warmup_round(rng(11)):
        workload.check(query, workload.run(query))
    workload.finish()


def test_rounds_are_reproducible_from_the_seed():
    workload = workloads.Geometry()
    a, b = (workload.make_round(np.random.default_rng([3, 3, 0])) for _ in range(2))
    assert [q["chain"].edges for q in a] == [q["chain"].edges for q in b]
    assert all(np.array_equal(p["eta"].values, q["eta"].values) for p, q in zip(a, b))


def test_tracer_counts_nested_calls_and_restores_functions():
    chain, graph = chain_and_graph()
    f = mg.EdgeFunction(graph, np.exp(rng(12).standard_normal(chain.num_edges)))
    original = mg.perron
    tracer = Tracer()
    tracer.install()
    try:
        mg.f_divergence(mg.get_generator("kl"), f, f)
    finally:
        tracer.uninstall()
    assert mg.perron is original and mg.divergence.perron is original
    assert tracer.totals["divergence.f_divergence"][0] == 1
    assert tracer.totals["spectral.perron"][0] == 2
    inclusive = {name: end - start for _, _, _, name, start, end in tracer.spans}
    assert tracer.totals["divergence.f_divergence"][1] < inclusive["divergence.f_divergence"]
