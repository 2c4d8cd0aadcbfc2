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
    """Dense Hessian assembled from the closed-form entry expression.

    Entry ((s,t),(u,v)):
        kron(st,uv)/eta_st - kron(s,v)/eta^s - (kron(t,u) eta^t - kron(t,v) eta_t)/(eta^t)^2
    The matrix is explicitly symmetrized after assembly; asymmetry beyond
    1e-10 of the largest entry indicates an assembly bug and raises.
    """
    g = eta.graph
    eta_in = in_marginals(eta)
    eta_out = out_marginals(eta)
    # the kron terms are nonzero only on blocks that share a state x:
    # (out_edges[x], in_edges[x]) and its transpose for kron(s,v) and kron(t,u),
    # (in_edges[x], in_edges[x]) for kron(t,v)
    h = np.diag(1.0 / eta.values)
    for x in range(g.num_states):
        out_x, in_x = g.out_edges[x], g.in_edges[x]
        h[np.ix_(out_x, in_x)] -= 1.0 / eta_in[x]
        h[np.ix_(in_x, out_x)] -= 1.0 / eta_in[x]
        h[np.ix_(in_x, in_x)] += eta_out[x] / eta_in[x] ** 2
    # one E x E buffer holds |h - h^T| for the check, then the symmetrized result
    out = np.subtract(h, h.T)
    asymmetry = np.abs(out, out=out).max()
    if asymmetry > 1e-10 * max(h.max(), -h.min(), 1.0):
        raise RuntimeError(f"Hessian assembly asymmetry {asymmetry}")
    np.add(h, h.T, out=out)
    out *= 0.5
    return out


def restricted_hessian(eta: ExpectationPoint) -> np.ndarray:
    """Hessian pulled back to the mass-one section's affine chart.

    The chart keeps every coordinate but the lexicographically last edge's,
    which is recovered from the normalization condition. The result is
    symmetric positive definite.
    """
    if not is_in_Mtilde(eta):
        raise NotInMtilde("restricted Hessian requires a point of total mass 1")
    h = phibar_hessian(eta)
    return h[:-1, :-1] - h[:-1, -1:] - h[-1:, :-1] + h[-1, -1]
