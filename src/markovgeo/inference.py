"""Sampling, empirical pair measures, estimation, and projection onto M.

Randomness uses numpy's PCG64 generator, seeded explicitly, so trajectories
are bit-reproducible across platforms. Independent replications derive their
seeds as base_seed + replication_index.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .coordinates import (
    ExpectationPoint,
    in_marginals,
    is_in_Mtilde,
    is_positive_transition_measure,
    is_transition_probability,
    out_marginals,
    taubar,
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
from .potential import phibar_gradient
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
    pair_counts[k] is how often edge k occurs as a consecutive pair, counted
    once while the pairs are checked.
    """

    graph: ChainGraph
    states: np.ndarray
    pair_counts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        states = np.asarray(self.states)
        if states.ndim != 1 or states.size < 2:
            raise ValueError("a trajectory needs at least 2 states")
        if states.dtype.kind not in "iu":
            raise ValueError(f"trajectory states must be integers, got dtype {states.dtype}")
        states = frozen_array(states, np.intp)
        object.__setattr__(self, "states", states)
        graph = self.graph
        size = graph.num_states
        if states.min() < 0 or states.max() >= size:
            raise ValueError("state index out of range")
        # a pair (x, y) is the cell x * size + y; counted a chunk at a time,
        # so no n-length temporary is made
        edge_cells = graph.sources * size + graph.targets
        pair_counts = np.zeros(graph.num_edges, dtype=np.intp)
        for lo in range(0, states.size - 1, _CHUNK):
            hi = min(lo + _CHUNK, states.size - 1)
            cells = states[lo:hi] * size
            cells += states[lo + 1 : hi + 1]
            counts = np.bincount(cells, minlength=size * size)[edge_cells]
            if counts.sum() < hi - lo:
                is_edge = np.zeros(size * size, dtype=bool)
                is_edge[edge_cells] = True
                bad = lo + int(np.flatnonzero(~is_edge[cells])[0])
                raise ValueError(f"consecutive pair at position {bad} is not an edge")
            pair_counts += counts
        object.__setattr__(self, "pair_counts", frozen_array(pair_counts, np.intp))

    def __len__(self):
        return self.states.size


# states per chunk, so neither the sampler nor the pair count holds an n-length
# temporary besides the output
_CHUNK = 1 << 16
# blocks of a chunk walked side by side; a short chunk takes fewer blocks of
# _MIN_BLOCK steps, since correcting a block has a fixed cost of a few steps
_BLOCKS = 256
_MIN_BLOCK = 32
# steps every block takes side by side from its tentative start; at most _MIN_BLOCK
_LEAD = 16
# cells of the exact grid over [0, 1)
_CELLS = 1 << 12


def sample_trajectory(w: EdgeFunction, n: int, seed: int, initial="stationary") -> Trajectory:
    """Sample n states of the chain driven by the rows of w (PCG64 stream).

    initial is "stationary" (drawn from the stream by the Perron left vector)
    or an integer state.
    """
    if not is_transition_probability(w):
        raise NotTransitionProbability("sampling requires unit row sums")
    if n < 2:
        raise ValueError("trajectory length must be at least 2")
    graph = w.graph
    size = graph.num_states
    rng = np.random.Generator(np.random.PCG64(seed))
    if isinstance(initial, str) and initial == "stationary":
        mu = perron(w).left_vec
        state = int(rng.choice(size, p=mu / mu.sum()))
    else:
        try:
            state = None if isinstance(initial, bool) else operator.index(initial)
        except TypeError:
            state = None
        if state is None:
            raise ValueError(f"initial state must be an integer or 'stationary', got {initial!r}")
        if not 0 <= state < size:
            raise ValueError(f"initial state {state} out of range")

    breaks, flat = _interval_table(w)
    grid = _interval_grid(breaks)
    # indexing a memoryview gives Python ints without a list of (E + 1) * n of them
    flat_ints = memoryview(flat)
    # each double takes one 64-bit PCG64 output, so chunked draws give the
    # same numbers as one rng.random(n - 1)
    states = np.empty(n, dtype=np.intp)
    states[0] = state
    for lo in range(1, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        length = max(-(-(hi - lo) // _BLOCKS), _MIN_BLOCK)
        blocks = -(-(hi - lo) // length)
        # block b's steps are offsets[b * length : (b + 1) * length], padded with 0
        offsets = np.zeros(blocks * length, dtype=np.intp)
        offsets[: hi - lo] = _interval_index(rng.random(hi - lo), breaks, grid)
        offsets *= size
        # walk[t, b] is where block b stands after its step t, guessing that
        # every block starts in state 0
        steps = offsets.reshape(blocks, length).T.copy()
        walk = np.empty((length, blocks), dtype=np.intp)
        _walk(flat, steps, np.zeros(blocks, dtype=np.intp), walk)
        # Block b's tentative start is the guessed end of block b - 1; block 0
        # starts at the carried state. From there every block takes its first
        # _LEAD steps side by side, and meets the guess if it then stands
        # where the guess stands. From a common state both use the same
        # intervals, so the rest of the guess is right (the coupling of Propp
        # and Wilson, 1996). A last block shorter than _LEAD may meet only in
        # its padding, but then its lead walk holds all of its steps.
        starts = np.empty(blocks, dtype=np.intp)
        starts[0] = state
        starts[1:] = walk[-1, :-1]
        lead = np.empty((_LEAD, blocks), dtype=np.intp)
        _walk(flat, steps, starts, lead)
        meet = lead[-1] == walk[_LEAD - 1]
        np.copyto(walk[:_LEAD], lead, where=meet)
        states[lo:hi] = walk.T.ravel()[: hi - lo]
        # Blocks in order: one that met from its true start is right, and ends
        # at the next block's tentative start. Each block that did not meet,
        # and each later block whose start changed, follows its steps from its
        # true start until it meets what is stored, which is one walk by the
        # same steps: from state 0, or from its tentative start.
        tentative = starts.tolist() + [None]
        for b, met in enumerate(meet.tolist()):
            if met and state == tentative[b]:
                state = tentative[b + 1]
                continue
            first = lo + b * length
            last = min(first + length, hi)
            _follow(flat_ints, offsets[first - lo : last - lo], states[first:last], state)
            state = int(states[last - 1])
        state = int(states[hi - 1])
    return Trajectory(graph, states)


def _interval_table(w: EdgeFunction):
    """The breakpoints of all rows of w, and flat[j * num_states + x], the
    successor of x for every uniform in interval j of the breakpoints.

    A uniform u steps from x to successors[x][bisect_right(cumulative[x], u)].
    Every comparison in that search is constant between consecutive values of
    breaks, the union of all rows' breakpoints, so the search at the lower end
    of interval j gives the same successor, ties included. cumulative[x] is
    nondecreasing up to its last entry 1.0, so for u < 1 the entries <= u come
    first and every binary search agrees. The intervals from 1.0 up are clamped
    to the last successor; no u reaches them.
    """
    graph = w.graph
    start = np.searchsorted(graph.sources, np.arange(graph.num_states + 1))
    cumulative = np.empty(graph.num_edges)
    for x in range(graph.num_states):
        row = cumulative[start[x] : start[x + 1]]
        np.cumsum(w.values[start[x] : start[x + 1]], out=row)
        row[-1] = 1.0
    breaks = np.sort(cumulative)
    breaks = breaks[np.concatenate(([True], breaks[1:] != breaks[:-1]))]
    lower_ends = np.concatenate(([-1.0], breaks))
    table = np.empty((lower_ends.size, graph.num_states), dtype=np.intp)
    for x in range(graph.num_states):
        found = np.searchsorted(cumulative[start[x] : start[x + 1]], lower_ends, side="right")
        np.minimum(found, start[x + 1] - start[x] - 1, out=found)
        table[:, x] = graph.targets[start[x] + found]
    return breaks, table.ravel()


def _interval_grid(breaks: np.ndarray) -> np.ndarray:
    """grid[c] is the interval of breaks holding all of grid cell c, the u in
    [c, c + 1) / _CELLS, or -1 where a breakpoint lies strictly inside it."""
    cell_edges = np.arange(_CELLS + 1) / _CELLS
    first = np.searchsorted(breaks, cell_edges[:-1], side="right")
    inside = np.searchsorted(breaks, cell_edges[1:], side="left") - first
    return np.where(inside == 0, first, -1)


def _interval_index(uniforms: np.ndarray, breaks: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """np.searchsorted(breaks, uniforms, side="right") for uniforms in [0, 1).

    uniforms * _CELLS is exact, so it picks each uniform's grid cell exactly;
    only uniforms in cells that a breakpoint splits are searched.
    """
    index = grid[(uniforms * _CELLS).astype(np.intp)]
    split = np.flatnonzero(index < 0)
    index[split] = np.searchsorted(breaks, uniforms[split], side="right")
    return index


def _walk(flat, steps, here, walk):
    """walk[t] is where every block stands after its step t, from the states
    here, with steps[t] its offsets into flat: one gather per step."""
    cursor = np.empty_like(here)
    for t in range(walk.shape[0]):
        np.add(steps[t], here, out=cursor)
        here = walk[t]
        flat.take(cursor, out=here)


def _follow(flat_ints, steps, guess, state):
    """Overwrite guess, a block's walk by the same steps from another state,
    with its walk from state until the two meet. Pieces of doubling length keep the cost of reading
    steps and guess near the number of steps followed; once met, a piece's
    last states agree."""
    t = 0
    piece = 8
    while t < steps.size:
        end = min(t + piece, steps.size)
        guessed = int(guess[end - 1])
        guess[t:end] = [state := flat_ints[offset + state] for offset in steps[t:end].tolist()]
        if state == guessed:
            return
        t = end
        piece *= 2


def empirical_pair_measure(trajectory: Trajectory) -> ExpectationPoint:
    """Pair frequencies normalized by n - 1; total mass 1 by construction."""
    graph = trajectory.graph
    counts = trajectory.pair_counts
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
    counts = trajectory.pair_counts + smoothing
    row_sums = np.bincount(graph.sources, weights=counts, minlength=graph.num_states)
    if np.any(row_sums == 0):
        raise UnvisitedState(np.flatnonzero(row_sums == 0).tolist())
    values = counts / row_sums[graph.sources]
    return EdgeFunction(graph, values, boundary=bool(np.any(values == 0)))


@dataclass(frozen=True)
class ProjectionTrace:
    iterations: int


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


# project_to_M raises unless the reduced gradient of its result is below PROJECTION_TOL
PROJECTION_TOL = 1e-9


def project_to_M(eta: ExpectationPoint, with_trace: bool = False):
    """Bregman projection of eta onto M, minimizing the first argument.

    x_st is proportional to mu(s) G(s, t) v(t), with mu, v the Perron vectors of
    G(s, t) = (eta_st / eta^s) e^{(c(s) + c(t)) / 2}, c = 1 - eta_t / eta^t: a
    similar of exp(grad phibar(eta)), whose stochastic (Doob) rescaling is W_x.
    NoConvergence if G or x underflows to 0, or if the reduced gradient of x is
    not below PROJECTION_TOL. The trace reports 0 iterations.
    """
    if not is_in_Mtilde(eta):
        raise NotInMtilde("projection input must satisfy the normalization condition")
    graph = eta.graph
    eta_in = in_marginals(eta)
    half_c = 0.5 * (1.0 - out_marginals(eta) / eta_in)
    weights = eta.values / eta_in[graph.sources] * np.exp(half_c[graph.sources] + half_c[graph.targets])
    if not weights.min() > 0:
        raise NoConvergence("projection's Perron matrix underflows to 0")
    sd = perron(EdgeFunction(graph, weights))
    values = sd.left_vec[graph.sources] * weights * sd.right_vec[graph.targets]
    values /= values.sum()
    if not values.min() > 0:
        raise NoConvergence("projection has a coordinate that underflows to 0")
    point = ExpectationPoint(graph, values)
    grad = _stationary_tangent_basis(graph).T @ (phibar_gradient(point) - phibar_gradient(eta))
    norm = float(np.linalg.norm(grad))
    if not norm < PROJECTION_TOL:
        raise NoConvergence(f"projection's reduced gradient norm {norm:.3g} is not below {PROJECTION_TOL:g}")
    if with_trace:
        return point, ProjectionTrace(iterations=0)
    return point


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
