"""The convex potential on expectation points and its derivatives.

phibar(eta) = sum_xy eta_xy log eta_xy - sum_x eta_x log eta^x, where eta_x and
eta^x are the outgoing and incoming marginals. It is homogeneous of degree 1,
so its Hessian annihilates the radial vector eta; restricted to the mass-one
section it is positive definite. phihat is the closely related variant that
uses the outgoing marginal inside the logarithm as well.
"""

from __future__ import annotations

import numpy as np

from .coordinates import ExpectationPoint, in_marginals, is_in_Mtilde, out_marginals
from .errors import NotInMtilde

__all__ = ["phibar", "phibar_gradient", "phibar_hessian", "restricted_hessian", "phihat"]


def phibar(eta: ExpectationPoint) -> float:
    v = eta.values
    return float(v @ np.log(v)) - float(out_marginals(eta) @ np.log(in_marginals(eta)))


def phihat(eta: ExpectationPoint) -> float:
    v = eta.values
    eta_out = out_marginals(eta)
    return float(v @ np.log(v)) - float(eta_out @ np.log(eta_out))


def phibar_gradient(eta: ExpectationPoint) -> np.ndarray:
    """Per-edge partials: log eta_xy - log eta^x - eta_y/eta^y + 1."""
    g = eta.graph
    eta_in = in_marginals(eta)
    eta_out = out_marginals(eta)
    return np.log(eta.values) - np.log(eta_in[g.sources]) - (eta_out / eta_in)[g.targets] + 1.0


def phibar_hessian(eta: ExpectationPoint) -> np.ndarray:
    """Dense Hessian from the closed-form entry expression, one row per edge.

    Entry ((s,t),(u,v)):
        kron(st,uv)/eta_st - kron(s,v)/eta^s - (kron(t,u) eta^t - kron(t,v) eta_t)/(eta^t)^2
    so row (s,t) is around[t] - into[s], plus 1/eta_st on the diagonal: into[x]
    is 1/eta^x on the edges into x, around[x] is eta_x/(eta^x)^2 there less
    1/eta^x on the edges out of x. A cell and its mirror combine the same
    floats in orders that differ only by commutativity, so the result is
    symmetric bit for bit; an asymmetric one is an assembly bug and raises.
    """
    g = eta.graph
    inv_in = 1.0 / in_marginals(eta)[:, None]
    states = np.arange(g.num_states)[:, None]
    into = (g.targets == states) * inv_in
    around = into * (out_marginals(eta)[:, None] * inv_in) - (g.sources == states) * inv_in
    h = around[g.targets]
    # edges are sorted by source, so the rows of a state's out-edges are one slice
    start = np.searchsorted(g.sources, np.arange(g.num_states + 1))
    for x in range(g.num_states):
        h[start[x] : start[x + 1]] -= into[x]
    h.flat[:: g.num_edges + 1] += 1.0 / eta.values
    if not np.array_equal(h, h.T):
        raise RuntimeError("Hessian assembly is not symmetric")
    return h


def restricted_hessian(eta: ExpectationPoint) -> np.ndarray:
    """Hessian pulled back to the mass-one section's affine chart.

    The chart keeps every coordinate but the lexicographically last edge's,
    which is recovered from the normalization condition. The result is
    symmetric positive definite.
    """
    if not is_in_Mtilde(eta):
        raise NotInMtilde("restricted Hessian requires a point of total mass 1")
    h = phibar_hessian(eta)
    out = h[:-1, :-1] - h[:-1, -1:]
    out -= h[-1:, :-1]
    out += h[-1, -1]
    return out
