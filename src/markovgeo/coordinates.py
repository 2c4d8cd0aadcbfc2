"""Coordinate charts between positive edge functions and expectation points.

The forward chart sends f to eta with eta_xy = mu_f(x) f(x, y); its closed-form
inverse is f(x, y) = mass(eta) * eta_xy / eta^x where eta^x is the incoming
marginal. Membership predicates identify the transition-probability set W
(unit row sums), the positive-transition-measure hypersurface (root 1), the
normalized section (mass 1), and the stationary simplex slice M.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonpositiveScale
from .graph import ChainGraph, frozen_array
from .spectral import EdgeFunction, perron

__all__ = [
    "ExpectationPoint",
    "mass",
    "in_marginals",
    "out_marginals",
    "stationarity_gap",
    "tbar",
    "taubar",
    "is_transition_probability",
    "is_positive_transition_measure",
    "normalize_to_measure",
    "is_in_M",
    "is_in_Mtilde",
    "scale_point",
]

# absolute tolerance of every membership predicate
DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class ExpectationPoint:
    """A positive point in expectation coordinates, canonical edge order.

    As for EdgeFunction, the values are copied at construction and the copy
    is read-only, so the point never changes.
    """

    graph: ChainGraph
    values: np.ndarray

    def __post_init__(self):
        values = frozen_array(self.values, float)
        object.__setattr__(self, "values", values)
        if values.shape != (self.graph.num_edges,):
            raise ValueError(f"expected {self.graph.num_edges} values, got shape {values.shape}")
        # two reductions, false on NaN too, and several times cheaper than
        # np.any/np.all
        if not (values.min() > 0 and values.max() < np.inf):
            raise ValueError("expectation coordinates must be strictly positive and finite")


def mass(eta: ExpectationPoint) -> float:
    """Total mass: the sum of all coordinates."""
    return float(eta.values.sum())


def in_marginals(eta: ExpectationPoint) -> np.ndarray:
    """Incoming sums eta^x for every state at once."""
    return np.bincount(eta.graph.targets, weights=eta.values, minlength=eta.graph.num_states)


def out_marginals(eta: ExpectationPoint) -> np.ndarray:
    """Outgoing sums eta_x for every state at once."""
    return np.bincount(eta.graph.sources, weights=eta.values, minlength=eta.graph.num_states)


def stationarity_gap(eta: ExpectationPoint) -> float:
    """Max absolute difference between outgoing and incoming marginals."""
    return float(np.max(np.abs(out_marginals(eta) - in_marginals(eta))))


def tbar(f: EdgeFunction) -> ExpectationPoint:
    """Forward chart: eta_xy = mu_f(x) f(x, y)."""
    mu = perron(f).left_vec
    return ExpectationPoint(f.graph, mu[f.graph.sources] * f.values)


def taubar(eta: ExpectationPoint) -> EdgeFunction:
    """Inverse chart: f(x, y) = mass(eta) * eta_xy / eta^x."""
    eta_in = in_marginals(eta)
    return EdgeFunction(eta.graph, mass(eta) * eta.values / eta_in[eta.graph.sources])


def is_transition_probability(f: EdgeFunction) -> bool:
    """Membership in W: every outgoing row sum equals 1."""
    rows = np.bincount(f.graph.sources, weights=f.values, minlength=f.graph.num_states)
    return bool(np.max(np.abs(rows - 1.0)) <= DEFAULT_TOL)


def is_positive_transition_measure(f: EdgeFunction) -> bool:
    """Membership in the root-one hypersurface of positive transition measures."""
    return abs(perron(f).root - 1.0) <= DEFAULT_TOL


def normalize_to_measure(f: EdgeFunction) -> EdgeFunction:
    """Radial retraction f / r(f) onto the root-one hypersurface."""
    return EdgeFunction(f.graph, f.values / perron(f).root)


def is_in_Mtilde(eta: ExpectationPoint) -> bool:
    """Normalization condition only: total mass 1."""
    return abs(mass(eta) - 1.0) <= DEFAULT_TOL


def is_in_M(eta: ExpectationPoint) -> bool:
    """Mass 1 and stationarity: outgoing and incoming marginals agree at every state."""
    return is_in_Mtilde(eta) and stationarity_gap(eta) <= DEFAULT_TOL


def scale_point(eta: ExpectationPoint, a: float) -> ExpectationPoint:
    """Pointwise rescaling of an expectation point."""
    if not a > 0:
        raise NonpositiveScale(f"scale factor must be positive, got {a}")
    return ExpectationPoint(eta.graph, a * eta.values)
