"""Sampling, empirical pair measures, estimation, and projection onto M.

Randomness uses numpy's PCG64 generator, seeded explicitly, so trajectories
are bit-reproducible across platforms. Independent replications derive their
seeds as base_seed + replication_index.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .coordinates import (
    ExpectationPoint,
    is_in_M,
    is_in_Mtilde,
    is_positive_transition_measure,
    is_transition_probability,
    taubar,
    tbar,
)
from .divergence import StandardConvexFunction, f_divergence
from .errors import (
    NoConvergence,
    NotInMtilde,
    NotTransitionProbability,
    UnobservedEdge,
    UnvisitedState,
)
from .graph import ChainGraph, frozen_array
from .potential import phibar, phibar_gradient, phibar_hessian
from .spectral import EdgeFunction, perron

__all__ = [
    "Trajectory",
    "sample_trajectory",
    "empirical_pair_measure",
    "mle_transition",
    "project_to_M",
    "ProjectionTrace",
    "goodness_of_fit_statistic",
]


@dataclass(frozen=True)
class Trajectory:
    """A state sequence whose consecutive pairs are all edges of the graph.

    The states are a read-only copy, so the checked invariant holds for good.
    """

    graph: ChainGraph
    states: np.ndarray

    def __post_init__(self):
        states = frozen_array(self.states, np.intp)
        object.__setattr__(self, "states", states)
        if states.ndim != 1 or states.size < 2:
            raise ValueError("a trajectory needs at least 2 states")
        if states.min() < 0 or states.max() >= self.graph.num_states:
            raise ValueError("state index out of range")
        adjacency = np.zeros((self.graph.num_states, self.graph.num_states), dtype=bool)
        adjacency[self.graph.sources, self.graph.targets] = True
        if not adjacency[states[:-1], states[1:]].all():
            bad = int(np.flatnonzero(~adjacency[states[:-1], states[1:]])[0])
            raise ValueError(f"consecutive pair at position {bad} is not an edge")

    def __len__(self):
        return self.states.size


# uniforms drawn per chunk, so the sampler holds no n-length array but its output
_CHUNK = 1 << 16


def sample_trajectory(w: EdgeFunction, n: int, seed: int, initial="stationary") -> Trajectory:
    """Sample n states of the chain driven by the rows of w (PCG64 stream)."""
    if not is_transition_probability(w):
        raise NotTransitionProbability("sampling requires unit row sums")
    if n < 2:
        raise ValueError("trajectory length must be at least 2")
    graph = w.graph
    rng = np.random.Generator(np.random.PCG64(seed))
    if initial == "stationary":
        mu = perron(w).left_vec
        state = int(rng.choice(graph.num_states, p=mu / mu.sum()))
    else:
        state = int(initial)
        if not 0 <= state < graph.num_states:
            raise ValueError(f"initial state {state} out of range")

    # A uniform u steps from x to successors[x][bisect_right(cumulative[x], u)].
    # Every comparison in that search is constant between consecutive values
    # of breaks, the union of all rows' breakpoints, so rows[x][j] = the search
    # at the lower end of interval j gives the same successor, ties included.
    # The interval above 1.0 is clamped to the last successor; no u reaches it.
    start = np.searchsorted(graph.sources, np.arange(graph.num_states + 1))
    cumulative = []
    successors = []
    for x in range(graph.num_states):
        probs = np.cumsum(w.values[start[x] : start[x + 1]])
        probs[-1] = 1.0
        cumulative.append(probs.tolist())
        successors.append(graph.targets[start[x] : start[x + 1]].tolist())
    breaks = sorted(set().union(*cumulative))
    lower_ends = [-1.0] + breaks
    rows = [
        [succ[min(bisect_right(cum, low), len(cum) - 1)] for low in lower_ends]
        for cum, succ in zip(cumulative, successors)
    ]
    breaks = np.array(breaks)

    # each double takes one 64-bit PCG64 output, so chunked draws give the
    # same numbers as one rng.random(n - 1)
    states = np.empty(n, dtype=np.intp)
    states[0] = state
    for start in range(1, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        walk = []
        append = walk.append
        for j in np.searchsorted(breaks, rng.random(stop - start), side="right").tolist():
            state = rows[state][j]
            append(state)
        states[start:stop] = walk
    return Trajectory(graph, states)


def _pair_counts(trajectory: Trajectory) -> np.ndarray:
    graph = trajectory.graph
    size = graph.num_states
    cells = trajectory.states[:-1] * size
    cells += trajectory.states[1:]
    counts = np.bincount(cells, minlength=size * size)
    return counts[graph.sources * size + graph.targets].astype(float)


def empirical_pair_measure(trajectory: Trajectory) -> ExpectationPoint:
    """Pair frequencies normalized by n - 1; total mass 1 by construction."""
    graph = trajectory.graph
    counts = _pair_counts(trajectory)
    if np.any(counts == 0):
        missing = [graph.edges[k] for k in np.flatnonzero(counts == 0)]
        raise UnobservedEdge(missing)
    return ExpectationPoint(graph, counts / (len(trajectory) - 1))


def mle_transition(trajectory: Trajectory, smoothing: float = 0.0) -> EdgeFunction:
    """Row-normalized pair counts. Zero counts yield a boundary-flagged result
    unless additive smoothing is requested (smoothing added to every count)."""
    if not 0.0 <= smoothing < np.inf:
        raise ValueError(f"smoothing must be nonnegative and finite, got {smoothing}")
    graph = trajectory.graph
    counts = _pair_counts(trajectory) + smoothing
    row_sums = np.bincount(graph.sources, weights=counts, minlength=graph.num_states)
    if np.any(row_sums == 0):
        raise UnvisitedState(np.flatnonzero(row_sums == 0).tolist())
    values = counts / row_sums[graph.sources]
    return EdgeFunction(graph, values, boundary=bool(np.any(values == 0)))


@dataclass(frozen=True)
class ProjectionTrace:
    iterations: int
    objective_values: np.ndarray = field(repr=False)


def _stationary_tangent_basis(graph: ChainGraph) -> np.ndarray:
    """Orthonormal basis of {v : sum v = 0 and out-in balance at every state}."""
    edges = np.arange(graph.num_edges)
    constraints = np.zeros((1 + graph.num_states, graph.num_edges))
    constraints[0, :] = 1.0
    np.add.at(constraints, (1 + graph.sources, edges), 1.0)
    np.add.at(constraints, (1 + graph.targets, edges), -1.0)
    _, singular, vt = np.linalg.svd(constraints)
    rank = int(np.count_nonzero(singular > 1e-12 * singular[0]))
    return vt[rank:].T


def _uniform_stationary_point(graph: ChainGraph) -> ExpectationPoint:
    """Interior point of M: image of the row-uniform transition probability."""
    out_degree = np.bincount(graph.sources)
    return tbar(EdgeFunction(graph, 1.0 / out_degree[graph.sources]))


# project_to_M stops when the reduced gradient's norm falls below PROJECTION_TOL;
# it runs at most GRADIENT_MAX_ITER gradient steps, then NEWTON_MAX_ITER Newton steps
PROJECTION_TOL = 1e-9
GRADIENT_MAX_ITER = 10**5
NEWTON_MAX_ITER = 100


def project_to_M(eta: ExpectationPoint, with_trace: bool = False):
    """Bregman projection of eta onto M, minimizing the first argument.

    Projected gradient descent on the affine subspace of M with Armijo
    backtracking, then a damped Newton polish; coordinates are kept >= 1e-12
    by step clipping. NoConvergence if the polish ends above PROJECTION_TOL.
    """
    if not is_in_Mtilde(eta):
        raise NotInMtilde("projection input must satisfy the normalization condition")
    graph = eta.graph
    basis = _stationary_tangent_basis(graph)
    target_grad = phibar_gradient(eta)

    def objective(values):
        point = ExpectationPoint(graph, values)
        return phibar(point) - float(target_grad @ values)

    def reduced_gradient(values):
        return basis.T @ (phibar_gradient(ExpectationPoint(graph, values)) - target_grad)

    def step_cap(values, direction):
        # clip so every coordinate stays >= 1e-12
        negative = direction < 0
        if not negative.any():
            return np.inf
        return float(np.min((values[negative] - 1e-12) / -direction[negative]))

    if is_in_M(eta):
        current = eta.values.copy()
    else:
        current = _uniform_stationary_point(graph).values
    obj = objective(current)
    history = [obj]
    iterations = 0
    converged = False
    step = 1.0
    # Armijo comparisons lose meaning once the certified decrease t*|g|^2 drops
    # below float resolution of the objective; from there a damped Newton
    # polish (below) carries the iterate to the gradient tolerance.
    polish_at = max(PROJECTION_TOL, 1e-6)
    for _ in range(GRADIENT_MAX_ITER):
        grad = reduced_gradient(current)
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm < polish_at:
            break
        direction = -(basis @ grad)
        t = min(2.0 * step, step_cap(current, direction), 1.0e6)
        descent = -(grad_norm**2)
        while True:
            candidate = current + t * direction
            cand_obj = objective(candidate)
            if cand_obj <= obj + 1e-4 * t * descent:
                break
            t *= 0.5
            if t < 1e-18:
                candidate = current + t * direction
                cand_obj = objective(candidate)
                break
        step = t
        current, obj = candidate, cand_obj
        history.append(obj)
        iterations += 1
    for _ in range(NEWTON_MAX_ITER):
        grad = reduced_gradient(current)
        if float(np.linalg.norm(grad)) < PROJECTION_TOL:
            converged = True
            break
        hess = basis.T @ phibar_hessian(ExpectationPoint(graph, current)) @ basis
        direction = basis @ np.linalg.solve(hess, -grad)
        t = min(1.0, 0.99 * step_cap(current, direction))
        current = current + t * direction
        history.append(objective(current))
        iterations += 1
    if not converged:
        raise NoConvergence(f"projection did not reach gradient norm {PROJECTION_TOL:g} in {iterations} iterations")
    result = ExpectationPoint(graph, current)
    if with_trace:
        return result, ProjectionTrace(iterations=iterations, objective_values=np.array(history))
    return result


def goodness_of_fit_statistic(
    gen: StandardConvexFunction,
    empirical: ExpectationPoint,
    model: EdgeFunction,
    n: int,
) -> float:
    """2 (n - 1) times the F-divergence from the empirical edge function to the model."""
    if not is_in_Mtilde(empirical):
        raise NotInMtilde("empirical measure must have total mass 1")
    if not (is_transition_probability(model) or is_positive_transition_measure(model)):
        raise NotTransitionProbability("model must have unit row sums or unit root")
    return 2.0 * (n - 1) * f_divergence(gen, taubar(empirical), model)
