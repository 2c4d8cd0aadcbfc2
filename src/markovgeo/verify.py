"""Randomized identity suite: seeded instance generators and named checks.

Each check runs a batch of random cases and reports the worst observed error
together with its pass threshold. The CLI's verify command aggregates these;
the test suite reuses the same generators so failures reproduce exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coordinates import (
    ExpectationPoint,
    mass,
    normalize_to_measure,
    scale_point,
    stationarity_gap,
    taubar,
    tbar,
)
from .divergence import bregman_divergence, f_divergence, get_generator, induced_tensor_gram
from .divergence import nagaoka_divergence, null_space_dimension
from .graph import ChainGraph, build_graph
from .inference import project_to_M
from .potential import phibar, phibar_gradient, phibar_hessian
from .spectral import EdgeFunction, perron, scale

__all__ = [
    "CheckResult",
    "random_graph",
    "random_edge_function",
    "random_transition_probability",
    "random_expectation_point",
    "projection_residuals",
    "run_identity_suite",
    "IDENTITY_CHECKS",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_error: float
    threshold: float
    cases: int

    @property
    def passed(self) -> bool:
        return self.cases == 0 or self.max_error <= self.threshold


def random_graph(d: int, rng: np.random.Generator) -> ChainGraph:
    """Random strongly connected graph on d + 1 states: a Hamiltonian cycle
    through a random permutation, plus each remaining edge with probability 1/2."""
    n = d + 1
    perm = rng.permutation(n)
    edges = {(int(perm[i]), int(perm[(i + 1) % n])) for i in range(n)}
    for x in range(n):
        for y in range(n):
            if (x, y) not in edges and rng.random() < 0.5:
                edges.add((x, y))
    return build_graph(n, sorted(edges))


def random_edge_function(graph: ChainGraph, rng: np.random.Generator, low=-2.0, high=2.0) -> EdgeFunction:
    """Coordinates log-uniform in [e^low, e^high]."""
    return EdgeFunction(graph, np.exp(rng.uniform(low, high, size=graph.num_edges)))


def random_transition_probability(graph: ChainGraph, rng: np.random.Generator) -> EdgeFunction:
    values = rng.uniform(0.1, 1.0, size=graph.num_edges)
    row_sums = np.bincount(graph.sources, weights=values, minlength=graph.num_states)
    return EdgeFunction(graph, values / row_sums[graph.sources])


def random_expectation_point(graph: ChainGraph, rng: np.random.Generator) -> ExpectationPoint:
    return ExpectationPoint(graph, np.exp(rng.uniform(-2.0, 2.0, size=graph.num_edges)))


def _graph_cycle(max_d: int, cases: int, rng: np.random.Generator):
    for i in range(cases):
        yield random_graph(1 + i % max_d, rng)


def check_scaling_law(rng, cases, max_d):
    """Rescaling multiplies the root and fixes the stationary distribution."""
    worst = 0.0
    for graph in _graph_cycle(max_d, cases, rng):
        f = random_edge_function(graph, rng)
        a = rng.uniform(0.1, 10.0)
        sd = perron(f)
        sd_scaled = perron(scale(f, a))
        worst = max(worst, abs(sd_scaled.root - a * sd.root) / (a * sd.root))
        worst = max(worst, float(np.max(np.abs(sd_scaled.left_vec - sd.left_vec))))
    return CheckResult("scaling_law", worst, 1e-9, cases)


def check_chart_roundtrip(rng, cases, max_d):
    """The two charts are mutually inverse; the forward chart is 1-homogeneous."""
    worst = 0.0
    for graph in _graph_cycle(max_d, cases, rng):
        f = random_edge_function(graph, rng)
        back = taubar(tbar(f))
        worst = max(worst, float(np.max(np.abs(back.values - f.values)) / np.max(np.abs(f.values))))
        eta = random_expectation_point(graph, rng)
        forward = tbar(taubar(eta))
        worst = max(worst, float(np.max(np.abs(forward.values - eta.values)) / np.max(np.abs(eta.values))))
        a = rng.uniform(0.1, 10.0)
        scaled = tbar(scale(f, a))
        reference = a * tbar(f).values
        worst = max(worst, float(np.max(np.abs(scaled.values - reference)) / np.max(np.abs(reference))))
    return CheckResult("chart_roundtrip", worst, 1e-9, cases)


def check_bregman_equality(rng, cases, max_d):
    """The Bregman divergence through the chart equals the log-generator F-divergence."""
    kl = get_generator("kl")
    worst = 0.0
    for graph in _graph_cycle(max_d, cases, rng):
        f = random_edge_function(graph, rng)
        g = random_edge_function(graph, rng)
        df = f_divergence(kl, f, g)
        db = bregman_divergence(tbar(f), tbar(g))
        worst = max(worst, abs(db - df) / (1.0 + df))
    return CheckResult("bregman_equality", worst, 1e-8, cases)


def check_restriction_identity(rng, cases, max_d):
    """On transition probabilities all three divergence routes agree."""
    kl = get_generator("kl")
    worst = 0.0
    for graph in _graph_cycle(max_d, cases, rng):
        w1 = random_transition_probability(graph, rng)
        w2 = random_transition_probability(graph, rng)
        values = (
            f_divergence(kl, w1, w2),
            nagaoka_divergence(w1, w2),
            bregman_divergence(tbar(w1), tbar(w2)),
        )
        worst = max(worst, max(values) - min(values))
    return CheckResult("restriction_identity", worst, 1e-10, cases)


def check_null_space(rng, cases, max_d):
    """The induced tensor degenerates exactly along the ray through f."""
    kl = get_generator("kl")
    worst = 0.0
    for graph in _graph_cycle(max_d, cases, rng):
        f = random_edge_function(graph, rng)
        worst = max(worst, abs(null_space_dimension(kl, f) - 1))
        gram = induced_tensor_gram(kl, f)
        eigenvalues, eigenvectors = np.linalg.eigh(gram)
        small = np.abs(eigenvalues) <= 1e-9 * eigenvalues.max()
        worst = max(worst, abs(int(np.count_nonzero(small)) - 1))
        direction = eigenvectors[:, 0]
        cosine = abs(direction @ f.values) / (np.linalg.norm(direction) * np.linalg.norm(f.values))
        worst = max(worst, 1.0 - cosine)
    return CheckResult("null_space", worst, 1e-8, cases)


def check_potential_homogeneity(rng, cases, max_d):
    """phibar is 1-homogeneous and its gradient satisfies the Euler identity."""
    worst = 0.0
    for graph in _graph_cycle(max_d, cases, rng):
        eta = random_expectation_point(graph, rng)
        a = rng.uniform(0.1, 10.0)
        value = phibar(eta)
        worst = max(worst, abs(phibar(scale_point(eta, a)) - a * value) / max(abs(a * value), 1e-3))
        euler = float(eta.values @ phibar_gradient(eta))
        worst = max(worst, abs(euler - value) / max(abs(value), 1e-3))
    return CheckResult("potential_homogeneity", worst, 1e-10, cases)


def check_hessian(rng, cases, max_d):
    """Hessian kernel along eta and agreement with gradient finite differences."""
    worst = 0.0
    for graph in _graph_cycle(max_d, cases, rng):
        eta = random_expectation_point(graph, rng)
        hess = phibar_hessian(eta)
        scale_h = float(np.max(np.abs(hess)))
        worst = max(worst, float(np.max(np.abs(hess @ eta.values))) / scale_h)
        k = int(rng.integers(graph.num_edges))
        h = 1e-6 * max(1.0, eta.values[k])
        plus = eta.values.copy()
        plus[k] += h
        minus = eta.values.copy()
        minus[k] -= h
        fd_col = (
            phibar_gradient(ExpectationPoint(graph, plus))
            - phibar_gradient(ExpectationPoint(graph, minus))
        ) / (2 * h)
        worst = max(worst, float(np.max(np.abs(fd_col - hess[:, k]))) / scale_h * 1e-4)
    return CheckResult("hessian", worst, 1e-9, cases)


def check_example_fixtures(rng, cases, max_d):
    """2-state complete graph: closed-form root and the root-one algebraic locus."""
    del max_d
    graph = build_graph(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    worst = 0.0
    for _ in range(cases):
        f = random_edge_function(graph, rng)
        x, y, z, w = f.values
        closed_form = (x + w + math.sqrt((x - w) ** 2 + 4 * y * z)) / 2
        worst = max(worst, abs(perron(f).root - closed_form))
        m = normalize_to_measure(f)
        x, y, z, w = m.values
        worst = max(worst, abs((x - 1) * (w - 1) - y * z))
        if not x + w < 2:
            worst = max(worst, 1.0)
    return CheckResult("example_fixtures", worst, 1e-9, cases)


def projection_residuals(eta: ExpectationPoint, projected: ExpectationPoint, rng: np.random.Generator):
    """Mass and stationarity residuals of projected, the projection of eta onto M, and the
    largest relative residual of D(w || eta) = D(w || projected) + D(projected || eta) over
    5 witnesses w, the pair measures of transition probabilities drawn from rng."""
    through = bregman_divergence(projected, eta)
    worst = 0.0
    for _ in range(5):
        witness = tbar(random_transition_probability(eta.graph, rng))
        total = bregman_divergence(witness, eta)
        worst = max(worst, abs(total - (bregman_divergence(witness, projected) + through)) / max(total, 1e-300))
    return abs(mass(projected) - 1.0), stationarity_gap(projected), worst


def check_projection(rng, cases, max_d):
    """The projection onto M has mass 1, is stationary and satisfies the Pythagorean identity."""
    worst = 0.0
    for graph in _graph_cycle(max_d, cases, rng):
        eta = random_expectation_point(graph, rng)
        eta = scale_point(eta, 1.0 / mass(eta))
        worst = max(worst, *projection_residuals(eta, project_to_M(eta), rng))
    return CheckResult("projection", worst, 1e-9, cases)


IDENTITY_CHECKS = (
    check_scaling_law,
    check_chart_roundtrip,
    check_bregman_equality,
    check_restriction_identity,
    check_null_space,
    check_potential_homogeneity,
    check_hessian,
    check_example_fixtures,
    check_projection,
)


def run_identity_suite(seed: int, max_d: int = 4, cases: int = 50):
    """Run every identity check with independent seeded streams."""
    results = [
        check(np.random.Generator(np.random.PCG64(seed + i)), cases, max_d)
        for i, check in enumerate(IDENTITY_CHECKS)
    ]
    return sorted(results, key=lambda res: res.name)
