"""Reference numerics, written apart from markovgeo.

Everything here works on a plain edge list and numpy arrays: eigen-data comes
from ``numpy.linalg.eig``, the potential and its Bregman divergence from their
definitions, and the likelihood-ratio statistic from the classical formula.
The benchmark checks the program's outputs against these.
"""

from __future__ import annotations

import math

import numpy as np

# Standard convex generators F with F(1) = F'(1) = 0 and F''(1) = 1.
GENERATORS = {
    "kl": lambda t: t - 1.0 - np.log(t),
    "chi2": lambda t: 0.5 * (t - 1.0) ** 2,
    "hellinger": lambda t: 2.0 * (np.sqrt(t) - 1.0) ** 2,
}


class Chain:
    """A directed graph given by its sorted edge list, with per-edge endpoints."""

    def __init__(self, num_states, edges):
        self.num_states = int(num_states)
        self.edges = tuple(sorted((int(x), int(y)) for x, y in edges))
        self.src = np.array([x for x, _ in self.edges], dtype=np.intp)
        self.dst = np.array([y for _, y in self.edges], dtype=np.intp)

    @property
    def num_edges(self):
        return len(self.edges)

    def matrix(self, values):
        a = np.zeros((self.num_states, self.num_states))
        a[self.src, self.dst] = values
        return a

    def out_sums(self, values):
        return np.bincount(self.src, weights=values, minlength=self.num_states)

    def in_sums(self, values):
        return np.bincount(self.dst, weights=values, minlength=self.num_states)


def _dominant(matrix):
    """Eigenvalue of largest real part and its eigenvector, scaled to sum 1."""
    eigenvalues, vectors = np.linalg.eig(matrix)
    k = int(np.argmax(eigenvalues.real))
    vec = vectors[:, k].real
    return float(eigenvalues[k].real), vec / vec.sum()


def perron(chain, values):
    """(root, left eigenvector, right eigenvector), eigenvectors summing to 1."""
    a = chain.matrix(values)
    root, right = _dominant(a)
    _, left = _dominant(a.T)
    return root, left, right


def pair_measure(chain, values):
    """Expectation coordinates mu(x) f(x, y) of a positive edge function."""
    _, left, _ = perron(chain, values)
    return left[chain.src] * values


def row_normalize(chain, values):
    return values / chain.out_sums(values)[chain.src]


def f_divergence(name, chain, f, g):
    """D_F(f, g) from its definition: weights mu_f(x) f_xy, normalized ratio g/r_g over f/r_f."""
    root_f, mu_f, _ = perron(chain, f)
    root_g, _, _ = perron(chain, g)
    ratio = (g / root_g) / (f / root_f)
    return float((mu_f[chain.src] * f) @ GENERATORS[name](ratio))


def relative_entropy_rate(chain, w1, w2):
    """sum_x pi(x) sum_y w1(x, y) log(w1(x, y) / w2(x, y)), pi stationary for w1."""
    _, pi, _ = perron(chain, w1)
    return float((pi[chain.src] * w1) @ np.log(w1 / w2))


def phibar(chain, eta):
    """sum eta_xy log eta_xy - sum_x eta_x log eta^x (outgoing eta_x, incoming eta^x)."""
    return float(eta @ np.log(eta) - chain.out_sums(eta) @ np.log(chain.in_sums(eta)))


def phibar_gradient(chain, eta):
    """d phibar / d eta_st = log eta_st + 1 - log eta^s - eta_t / eta^t."""
    eta_out, eta_in = chain.out_sums(eta), chain.in_sums(eta)
    return np.log(eta) + 1.0 - np.log(eta_in[chain.src]) - (eta_out / eta_in)[chain.dst]


def bregman(chain, eta, zeta):
    """phibar(eta) - phibar(zeta) - <grad phibar(zeta), eta - zeta>."""
    return phibar(chain, eta) - phibar(chain, zeta) - float(phibar_gradient(chain, zeta) @ (eta - zeta))


def pair_counts(chain, states):
    """Number of times each edge is traversed by a state sequence."""
    ids = np.full((chain.num_states, chain.num_states), -1, dtype=np.intp)
    ids[chain.src, chain.dst] = np.arange(chain.num_edges)
    edge_ids = ids[states[:-1], states[1:]]
    if np.any(edge_ids < 0):
        raise ValueError("the sequence steps along a pair that is not an edge")
    return np.bincount(edge_ids, minlength=chain.num_edges)


def likelihood_ratio(chain, counts, w):
    """Classical statistic 2 sum n_xy log(w_hat_xy / w_xy) and its E - n degrees of freedom."""
    counts = np.asarray(counts, dtype=float)
    w_hat = counts / chain.out_sums(counts)[chain.src]
    seen = counts > 0
    statistic = 2.0 * float(counts[seen] @ np.log(w_hat[seen] / w[seen]))
    return statistic, chain.num_edges - chain.num_states


def chi2_quantile(dof, z):
    """Wilson-Hilferty approximation to the chi-square quantile at standard-normal score z."""
    c = 2.0 / (9.0 * dof)
    return dof * (1.0 - c + z * math.sqrt(c)) ** 3
