"""The four workloads: input generation, the timed query, and its checks.

A workload is a list of queries made afresh for every round from
``(seed, workload, round)``. Every round has the same make-up (sizes are drawn
from fixed strata), so each round costs about the same and a run of whole
rounds gives steady figures. Inputs are built with ``reference`` and numpy
only; markovgeo receives nothing but the finished graphs, edge functions and
points.

``run`` holds the program calls that are timed; ``check`` runs after the
query, untimed, and raises ``checks.CheckFailure`` on a wrong output.
"""

from __future__ import annotations

import markovgeo as mg
import numpy as np

import checks
import reference as ref
from reference import Chain


def _strata(rng, count, low, high):
    """One integer from each of ``count`` equal strata of [low, high]."""
    u = (np.arange(count) + rng.random(count)) / count
    return [int(low + x * (high - low + 1 - 1e-9)) for x in u]


def _random_chain(rng, n, density, self_loops=True):
    """A Hamiltonian cycle through a random order of states, plus random extra edges."""
    order = rng.permutation(n)
    edges = {(int(order[i]), int(order[(i + 1) % n])) for i in range(n)}
    xs, ys = np.nonzero(rng.random((n, n)) < density)
    edges.update((x, y) for x, y in zip(xs.tolist(), ys.tolist()) if self_loops or x != y)
    return Chain(n, edges)


def _program_graph(chain):
    graph = mg.build_graph(chain.num_states, chain.edges)
    if graph.edges != chain.edges:
        raise RuntimeError("the program orders edges differently from the benchmark")
    return graph


class Workload:
    name = ""
    queries_per_round = 0
    # share of the queries' CPU time in interpreter loops, small numpy calls
    # and dense linear algebra, read from a traced run; speed.py weighs its
    # probes by it
    speed_mix = (1.0, 0.0, 0.0)

    @property
    def tail_percentile(self):
        """The highest percentile that leaves ten of a round's queries beyond it."""
        return 100.0 * (1.0 - 10.0 / self.queries_per_round)

    def make_round(self, rng):
        raise NotImplementedError

    def warmup_round(self, rng):
        """A few queries on other inputs, run untimed before timing starts."""
        raise NotImplementedError

    def run(self, query):
        raise NotImplementedError

    def check(self, query, output):
        raise NotImplementedError

    def finish(self):
        """Checks over all queries of the run."""

    def counts(self, query, output):
        """Extra per-layer counts for one query."""
        return {}


class Divergence(Workload):
    """Pairs of positive edge functions and of transition probabilities.

    Each round has 32 groups of 2 queries on random strongly connected graphs
    without self-loops, one from each of 32 strata of 2-40 states, with edge
    density 0.2; and 8 groups of 2 queries on rings with one chord, of 30, 43,
    ..., 121 states. The two queries of a group share their first argument.
    Groups alternate between edge functions and transition probabilities; in
    every edge-function group the first query is on the ray g = a f.
    """

    name = "divergence"
    queries_per_round = 80
    speed_mix = (0.1, 0.9, 0.0)  # power iteration
    GENERATORS = ("kl", "chi2", "hellinger")
    # Ring sizes are fixed rather than drawn: the cost of power iteration grows
    # steeply with the ring's size (0.04 s per call at 30 states, 0.18 s at
    # 120), so drawn sizes made a round's time vary more between seeds. The
    # seed picks the chord and the values.
    RING_SIZES = tuple(range(30, 122, 13))

    def __init__(self):
        self.generators = {name: mg.get_generator(name) for name in self.GENERATORS}

    def make_round(self, rng):
        queries = []
        # Self-loops raise the shift power iteration uses, which made the cost
        # of one random query range over 2x at a given size.
        for i, n in enumerate(_strata(rng, 32, 2, 40)):
            chain = _random_chain(rng, n, 0.2, self_loops=False)
            queries += self._group(rng, chain, transition=i % 2 == 1, ring=None)
        for i, n in enumerate(self.RING_SIZES):
            chord = int(rng.integers(n))
            skip = int(round(0.3 * n))
            edges = [(x, (x + 1) % n) for x in range(n)] + [(chord, (chord + skip) % n)]
            chain = Chain(n, edges)
            queries += self._group(rng, chain, transition=i % 2 == 1, ring=(chord, skip))
        return queries

    def warmup_round(self, rng):
        chain = _random_chain(rng, 6, 0.3, self_loops=False)
        return self._group(rng, chain, transition=False, ring=None) + self._group(rng, chain, transition=True, ring=None)

    def _group(self, rng, chain, transition, ring):
        graph = _program_graph(chain)
        if transition:
            first = self._transition(rng, chain, ring)
            seconds = [self._transition(rng, chain, ring) for _ in range(2)]
            rays = [False, False]
        else:
            first = self._edge_values(rng, chain, ring)
            seconds = [first * rng.uniform(0.5, 2.0), self._edge_values(rng, chain, ring)]
            rays = [True, False]
        f = mg.EdgeFunction(graph, first)
        return [
            {"chain": chain, "f": f, "g": mg.EdgeFunction(graph, g), "transition": transition, "ray": ray}
            for g, ray in zip(seconds, rays)
        ]

    @staticmethod
    def _edge_values(rng, chain, ring):
        if ring is None:
            return np.exp(0.5 * rng.standard_normal(chain.num_edges))
        # Rings get log-weights of mean 0 on the long cycle and a chord weight
        # that gives the short cycle product 1 as well: the Perron root is then
        # near 1 and power iteration takes about as long on every ring of one size.
        chord, skip = ring
        n = chain.num_states
        z = 0.3 * rng.standard_normal(n)
        z -= z.mean()
        logw = {(x, (x + 1) % n): z[x] for x in range(n)}
        logw[(chord, (chord + skip) % n)] = -sum(z[(chord + skip + j) % n] for j in range(n - skip))
        return np.exp([logw[e] for e in chain.edges])

    @staticmethod
    def _transition(rng, chain, ring):
        if ring is None:
            return ref.row_normalize(chain, 0.2 + rng.random(chain.num_edges))
        chord, skip = ring
        n = chain.num_states
        p = rng.uniform(0.4, 0.6)
        split = {(chord, (chord + 1) % n): p, (chord, (chord + skip) % n): 1.0 - p}
        return np.array([split.get(e, 1.0) for e in chain.edges])

    def run(self, q):
        f, g = q["f"], q["g"]
        sd_f, sd_g = mg.perron(f), mg.perron(g)
        fdiv = {name: mg.f_divergence(gen, f, g) for name, gen in self.generators.items()}
        bregman = mg.bregman_divergence(mg.tbar(f), mg.tbar(g))
        nagaoka = mg.nagaoka_divergence(f, g) if q["transition"] else None
        return {"sd_f": sd_f, "sd_g": sd_g, "fdiv": fdiv, "bregman": bregman, "nagaoka": nagaoka}

    def check(self, q, out):
        chain = q["chain"]
        for key, fn in (("sd_f", q["f"]), ("sd_g", q["g"])):
            sd = out[key]
            checks.check_perron(chain, fn.values, sd.root, sd.left_vec, sd.right_vec)
        checks.check_divergences(
            chain, q["f"].values, q["g"].values, out["fdiv"], out["bregman"], out["nagaoka"], q["ray"]
        )


class Estimate(Workload):
    """Sample a trajectory, estimate, project onto M and test goodness of fit.

    Each round has 40 queries on 3-10-state chains whose transition
    probabilities are at least 1/(2 * out-degree); trajectory lengths come one
    from each of 40 log-spaced strata of [1e5, 1e6]. Nothing is shared.
    """

    name = "estimate"
    queries_per_round = 40
    speed_mix = (0.9, 0.1, 0.0)  # the sampling loop

    def __init__(self):
        self.kl = mg.get_generator("kl")
        self.statistics = {}

    def make_round(self, rng):
        lengths = 10.0 ** (5.0 + (np.arange(40) + rng.random(40)) / 40.0)
        return [self._query(rng, 3 + i % 8, int(n)) for i, n in enumerate(lengths)]

    def warmup_round(self, rng):
        return [self._query(rng, 3, 20_000), self._query(rng, 6, 20_000)]

    def _query(self, rng, states, steps):
        chain = _random_chain(rng, states, 0.5)
        w = ref.row_normalize(chain, 1.0 + rng.random(chain.num_edges))
        return {
            "chain": chain,
            "w": mg.EdgeFunction(_program_graph(chain), w),
            "steps": steps,
            "sample_seed": int(rng.integers(2**63)),
            "witness_seed": int(rng.integers(2**63)),
        }

    def run(self, q):
        trajectory = mg.sample_trajectory(q["w"], q["steps"], seed=q["sample_seed"])
        empirical = mg.empirical_pair_measure(trajectory)
        mle = mg.mle_transition(trajectory)
        projected, trace = mg.project_to_M(empirical, with_trace=True)
        statistic = mg.goodness_of_fit_statistic(self.kl, empirical, q["w"], q["steps"])
        return {
            "states": trajectory.states,
            "empirical": empirical.values,
            "mle": mle.values,
            "projected": projected.values,
            "iterations": trace.iterations,
            "statistic": statistic,
        }

    def check(self, q, out):
        chain = q["chain"]
        counts = checks.check_estimate(chain, out["states"], q["steps"], out["empirical"], out["mle"])
        reference_statistic, dof = ref.likelihood_ratio(chain, counts, q["w"].values)
        checks.check_likelihood_ratio(out["statistic"], reference_statistic)
        # keyed by the sampling seed, so a query run twice (as in a traced run) counts once
        self.statistics[q["sample_seed"]] = (out["statistic"], dof)
        checks.check_projection(chain, out["empirical"], out["projected"], _witnesses(chain, q["witness_seed"]))

    def finish(self):
        if self.statistics:
            total = sum(s for s, _ in self.statistics.values())
            dof = sum(d for _, d in self.statistics.values())
            checks.check_chi_square_band(total, dof)

    def counts(self, q, out):
        return _projection_counts([out["iterations"]]) | {"inference.transitions_sampled": q["steps"] - 1}


class Project(Workload):
    """Bregman projection onto M of mass-one points off M, with project_to_M's defaults.

    A query projects a batch of 4 points of one chain. Each round has 39
    queries on 12-20-state circulant graphs (every state has in- and
    out-degree 5); a point is the stationary pair measure of near-uniform
    transition probabilities under multiplicative log-normal noise. Each round
    also has, at a random place, one query on a 16-state graph of degree 3
    whose first point has one transition of probability about 1e-5, so that
    the gradient phase runs to max_iter: 1 query in 40, 1 projection in 160,
    stalls.

    Iteration counts have a heavy, erratic upper tail (median 47, largest of
    120 about 2000). Batches of 4 and degree 5 rather than 3 or 4 keep the
    median and tail latency of a round from resting on a few outliers.

    The stalling query is built from a fixed seed, the same in every round and
    every run. Its 100 000 iterations follow a path set by rounding, and on
    points drawn from the run's seed they took 12 to 17 s; a fixed point costs
    the same in every run.
    """

    name = "project"
    queries_per_round = 40
    speed_mix = (0.3, 0.7, 0.0)  # potential and gradient on small arrays
    BATCH = 4
    NOISE = 0.3
    STALL_SEED = 20231018

    def make_round(self, rng):
        queries = [self._query(rng, n, 5, rare=False) for n in _strata(rng, 39, 12, 20)]
        stall = self._query(np.random.default_rng(self.STALL_SEED), 16, 3, rare=True)
        queries.insert(int(rng.integers(40)), stall)
        return queries

    def warmup_round(self, rng):
        return [self._query(rng, 12, 5, rare=False)]

    def _query(self, rng, n, degree, rare):
        offsets = [1] + sorted(rng.choice(np.arange(2, n), size=degree - 1, replace=False).tolist())
        chain = Chain(n, [(x, (x + o) % n) for x in range(n) for o in offsets])
        graph = _program_graph(chain)
        points = []
        for k in range(self.BATCH):
            weights = rng.uniform(0.7, 1.0, chain.num_edges)
            if rare and k == 0:
                # a transition other than the one to x + 1, so the graph stays strongly connected
                x = int(rng.integers(n))
                weights[chain.edges.index((x, (x + offsets[-1]) % n))] = 1e-5
            eta = ref.pair_measure(chain, ref.row_normalize(chain, weights))
            eta = eta * np.exp(self.NOISE * rng.standard_normal(chain.num_edges))
            points.append(mg.ExpectationPoint(graph, eta / eta.sum()))
        return {"chain": chain, "points": points, "witness_seed": int(rng.integers(2**63))}

    def run(self, q):
        projected = [mg.project_to_M(eta, with_trace=True) for eta in q["points"]]
        return {"projected": [p.values for p, _ in projected], "iterations": [t.iterations for _, t in projected]}

    def check(self, q, out):
        chain = q["chain"]
        witnesses = _witnesses(chain, q["witness_seed"])
        for eta, projected in zip(q["points"], out["projected"]):
            checks.check_projection(chain, eta.values, projected, witnesses)

    def counts(self, q, out):
        return _projection_counts(out["iterations"])


class Geometry(Workload):
    """Hessian of phibar, its restriction to the mass-one section, and the contrast tensor.

    Each round has 40 queries on dense graphs, one from each of 40 strata of
    20-40 states, with edge density 0.5. The point eta has mass 1; f is an
    independent positive edge function on the same graph.
    """

    name = "geometry"
    queries_per_round = 40
    speed_mix = (0.75, 0.0, 0.25)  # the Hessian's double loop; Gram and eigenvalues
    DENSITY = 0.5

    def __init__(self):
        self.kl = mg.get_generator("kl")

    def make_round(self, rng):
        return [self._query(rng, n) for n in _strata(rng, 40, 20, 40)]

    def warmup_round(self, rng):
        # the largest size, so the allocator has settled on its handling of
        # E x E arrays before timing starts
        return [self._query(rng, 40)]

    def _query(self, rng, n):
        chain = _random_chain(rng, n, self.DENSITY)
        graph = _program_graph(chain)
        eta = np.exp(0.5 * rng.standard_normal(chain.num_edges))
        return {
            "chain": chain,
            "eta": mg.ExpectationPoint(graph, eta / eta.sum()),
            "f": mg.EdgeFunction(graph, np.exp(0.5 * rng.standard_normal(chain.num_edges))),
            "directions": rng.standard_normal((2, chain.num_edges)),
        }

    def run(self, q):
        eta, f = q["eta"], q["f"]
        return {
            "hessian": mg.phibar_hessian(eta),
            "restricted": mg.restricted_hessian(eta),
            "gram": mg.induced_tensor_gram(self.kl, f),
            "null_dim": mg.null_space_dimension(self.kl, f),
        }

    def check(self, q, out):
        chain = q["chain"]
        checks.check_hessian(chain, q["eta"].values, out["hessian"], q["directions"])
        checks.check_restricted_hessian(chain, out["restricted"])
        checks.check_gram(q["f"].values, out["gram"], out["null_dim"])


MAX_ITER = 10**5  # project_to_M's default gradient-phase budget


def _projection_counts(iterations):
    return {
        "inference.project_to_M_iterations": sum(iterations),
        "inference.project_to_M_stalls": sum(i > MAX_ITER for i in iterations),
    }


def _witnesses(chain, seed, count=2):
    """Points of M: stationary pair measures of random transition probabilities."""
    rng = np.random.default_rng(seed)
    return [
        ref.pair_measure(chain, ref.row_normalize(chain, 0.2 + rng.random(chain.num_edges)))
        for _ in range(count)
    ]


WORKLOADS = {w.name: w for w in (Divergence, Estimate, Project, Geometry)}
