"""Divergences on positive edge functions and expectation points.

The F-divergence of two positive edge functions compares them after radial
normalization by their dominant roots, weighted by the stationary pair measure
of the first argument. With the log generator it coincides with the Bregman
divergence of the explicit potential on expectation points, and on the
transition-probability set it reduces to the classical relative entropy rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .coordinates import ExpectationPoint, in_marginals, mass, out_marginals, is_transition_probability
from .errors import GeneratorInvalid, GraphMismatch, NoConvergence, NotTransitionProbability
from .spectral import EdgeFunction, perron, require_interior, require_same_graph, root_gradient

__all__ = [
    "StandardConvexFunction",
    "builtin_generators",
    "register_generator",
    "get_generator",
    "f_divergence",
    "nagaoka_divergence",
    "bregman_divergence",
    "induced_tensor",
    "induced_tensor_gram",
    "null_space_dimension",
]

# results in [_CLAMP, 0) report as 0 so nonnegativity stays contractual
_CLAMP = -1e-12


@dataclass(frozen=True)
class StandardConvexFunction:
    """A strictly convex generator on (0, inf) normalized at t = 1.

    Each callable acts elementwise on an array of t and returns an array of
    the same shape.
    """

    name: str
    eval: Callable[[np.ndarray], np.ndarray]
    deriv1: Callable[[np.ndarray], np.ndarray]
    deriv2: Callable[[np.ndarray], np.ndarray]

    def __call__(self, t):
        return self.eval(t)


def _validate_generator(gen: StandardConvexFunction):
    """Normalization at t = 1, F'' > 0, and central differences of F and F'
    against F' and F'' on the grid 2^-6 .. 2^6, which holds t = 1. Each
    callable runs once on the grid and F, F' once on each of its +-h shifts."""

    def on_array(label, fn, t):
        try:
            value = np.asarray(fn(t), dtype=float)
        except Exception as exc:
            raise GeneratorInvalid(f"{gen.name}: {label} fails on an array: {exc}") from exc
        if value.shape != t.shape:
            raise GeneratorInvalid(f"{gen.name}: {label} returns shape {value.shape} for shape {t.shape}")
        return value

    t = 2.0 ** np.arange(-6.0, 7.0)
    f, d1, d2 = on_array("F", gen.eval, t), on_array("F'", gen.deriv1, t), on_array("F''", gen.deriv2, t)
    one = 6  # t[one] == 1.0
    # every check is written so that NaN fails it
    for label, value in (("F(1)", f[one]), ("F'(1)", d1[one])):
        if not abs(value) <= 1e-12:
            raise GeneratorInvalid(f"{gen.name}: {label} = {value}, expected 0")
    if not abs(d2[one] - 1.0) <= 1e-12:
        raise GeneratorInvalid(f"{gen.name}: F''(1) = {d2[one]}, expected 1")
    bad = np.flatnonzero(~(d2 > 0))
    if bad.size:
        raise GeneratorInvalid(f"{gen.name}: F''({t[bad[0]]}) = {d2[bad[0]]} is not positive")
    h = 1e-6 * t
    fd1 = (on_array("F", gen.eval, t + h) - on_array("F", gen.eval, t - h)) / (2 * h)
    fd2 = (on_array("F'", gen.deriv1, t + h) - on_array("F'", gen.deriv1, t - h)) / (2 * h)
    for label, fd, exact in (("F' inconsistent with F", fd1, d1), ("F'' inconsistent with F'", fd2, d2)):
        bad = np.flatnonzero(~(np.abs(fd - exact) <= 1e-6 * np.maximum(np.abs(exact), 1e-3)))
        if bad.size:
            raise GeneratorInvalid(f"{gen.name}: {label} near t = {t[bad[0]]}")


def _kl_eval(t):
    """-log t + (t - 1), without its cancellation near t = 1: with
    s = (t - 1)/(t + 1), log t = 2 sum_{k>=0} s^(2k+1)/(2k+1), so the value is
    2 s^2 (1/(1 - s) - sum_{k>=1} s^(2k-1)/(2k+1)), whose first 7 terms leave
    less than 1e-16 relative for |s| <= 0.1."""
    t = np.asarray(t, dtype=float)
    s = (t - 1.0) / (t + 1.0)
    value = np.asarray(-np.log(t) + (t - 1.0))
    near = np.abs(s) <= 0.1
    if near.any():
        s = s[near]
        s2 = s * s
        tail = 1.0 / 15.0
        for k in range(6, 0, -1):
            tail = tail * s2 + 1.0 / (2 * k + 1)
        value[near] = 2.0 * s2 * (1.0 / (1.0 - s) - s * tail)
    return value[()]


_KL = StandardConvexFunction(
    name="kl",
    eval=_kl_eval,
    deriv1=lambda t: 1.0 - 1.0 / t,
    deriv2=lambda t: 1.0 / t**2,
)
_CHI2 = StandardConvexFunction(
    name="chi2",
    eval=lambda t: 0.5 * (t - 1.0) ** 2,
    deriv1=lambda t: t - 1.0,
    deriv2=lambda t: np.ones_like(t, dtype=float),
)
_HELLINGER = StandardConvexFunction(
    name="hellinger",
    eval=lambda t: 2.0 * (np.sqrt(t) - 1.0) ** 2,
    deriv1=lambda t: 2.0 - 2.0 / np.sqrt(t),
    deriv2=lambda t: t**-1.5,
)

_REGISTRY: dict[str, StandardConvexFunction] = {}


def register_generator(gen: StandardConvexFunction) -> StandardConvexFunction:
    """Validate a generator and add it to the registry. Names are write-once."""
    if gen.name in _REGISTRY:
        raise GeneratorInvalid(f"generator {gen.name!r} already registered")
    _validate_generator(gen)
    _REGISTRY[gen.name] = gen
    return gen


for _gen in (_KL, _CHI2, _HELLINGER):
    register_generator(_gen)


def builtin_generators() -> list[StandardConvexFunction]:
    return [_KL, _CHI2, _HELLINGER]


def get_generator(name: str) -> StandardConvexFunction:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown generator {name!r}; known: {sorted(_REGISTRY)}") from None


def _clamp(value: float) -> float:
    return 0.0 if _CLAMP <= value < 0.0 else value


def f_divergence(gen: StandardConvexFunction, f: EdgeFunction, g: EdgeFunction) -> float:
    """D_F of two positive edge functions; zero exactly on rays g = a f."""
    graph = require_same_graph(f, g)
    sd_f, sd_g = perron(f), perron(g)
    ratio = (g.values / sd_g.root) / (f.values / sd_f.root)
    weights = sd_f.left_vec[graph.sources] * f.values
    value = float(weights @ gen.eval(ratio))
    return _clamp(value)


def nagaoka_divergence(w1: EdgeFunction, w2: EdgeFunction) -> float:
    """Relative entropy rate between two transition probabilities."""
    graph = require_same_graph(w1, w2)
    for w in (w1, w2):
        require_interior(w)
        if not is_transition_probability(w):
            raise NotTransitionProbability("inputs must have unit row sums")
    mu = perron(w1).left_vec
    weights = mu[graph.sources] * w1.values
    value = float(weights @ np.log(w1.values / w2.values))
    return _clamp(value)


def bregman_divergence(eta: ExpectationPoint, zeta: ExpectationPoint) -> float:
    """Bregman divergence of the potential on expectation points (closed form)."""
    require_same_graph(eta, zeta)
    eta_in, eta_out = in_marginals(eta), out_marginals(eta)
    zeta_in, zeta_out = in_marginals(zeta), out_marginals(zeta)
    value = (
        float(eta.values @ np.log(eta.values / zeta.values))
        - float(eta_out @ np.log(eta_in / zeta_in))
        + float(eta_in @ (zeta_out / zeta_in))
        - mass(eta)
    )
    return _clamp(value)


def _tensor_weights(f: EdgeFunction, spectral) -> np.ndarray:
    # second derivative of F(u) through the normalized ratio u contributes the
    # chain factor (r / f_xy)^2 on top of the pair-measure weight mu_f(x) f_xy
    return spectral.left_vec[f.graph.sources] * spectral.root**2 / f.values


def induced_tensor(gen: StandardConvexFunction, f: EdgeFunction, x_vec, y_vec) -> float:
    """Symmetric bilinear form induced on tangent vectors at f.

    The value is generator independent: the second-derivative normalization at
    t = 1 makes every admissible generator induce the same tensor. It is
    (J x) . W (J y), where J x = (r x - f (grad r . x)) / r^2 is the Jacobian
    of a |-> a / r(a) at f and W the diagonal of tensor weights.
    """
    x_vec = np.asarray(x_vec, dtype=float)
    y_vec = np.asarray(y_vec, dtype=float)
    if x_vec.shape != (f.graph.num_edges,) or y_vec.shape != (f.graph.num_edges,):
        raise GraphMismatch("tangent vectors must be edge-indexed on the same graph")
    del gen
    sd = perron(f)
    r = sd.root
    dr = root_gradient(f)

    def jac(vec):
        return (r * vec - f.values * (dr @ vec)) / r**2

    return float(jac(x_vec) @ (_tensor_weights(f, sd) * jac(y_vec)))


def induced_tensor_gram(gen: StandardConvexFunction, f: EdgeFunction) -> np.ndarray:
    """Gram matrix of the induced tensor in the coordinate basis.

    With P = r I - f grad_r^T it is r^-4 P^T W P, a diagonal plus a rank-2
    term: r^-4 [r^2 W - r (a grad_r^T + grad_r a^T) + c grad_r grad_r^T], with
    a = W f and c = f . W f. It is built in O(E^2) as diag(w / r^2) plus the
    product [g, h] [h, g]^T of two E x 2 factors, with g = grad_r / r^2 and
    h = c g / 2 - a / r.
    """
    del gen
    sd = perron(f)
    r = sd.root
    weights = _tensor_weights(f, sd)
    a = weights * f.values
    g = root_gradient(f) / r**2
    h = 0.5 * float(a @ f.values) * g - a / r
    gram = np.column_stack((g, h)) @ np.column_stack((h, g)).T
    gram[np.diag_indices_from(gram)] += weights / r**2
    return gram


def null_space_dimension(gen: StandardConvexFunction, f: EdgeFunction) -> int:
    """Dimension of the kernel of the induced tensor at f: 1, the ray through f.

    The Gram matrix is r^-4 P^T W P with W a positive diagonal and
    P = r I - f grad_r^T, so its kernel is ker P: span{f} if Euler's identity
    grad_r . f = r holds (P f = (r - grad_r . f) f), else {0}. The identity is
    exact for the 1-homogeneous root and the stored Perron data certifies it:
    grad_r . f = mu^T A v / (mu . v) averages the quotients (A v)_i / v_i with
    weights mu_i v_i > 0, so it lies in their bracket, which holds r and has
    relative width at most bracket_width. Rounding in sums of at most E positive
    terms stays below 8 E eps relative, so a residual above
    bracket_width + 8 E eps raises NoConvergence.
    """
    del gen
    sd = perron(f)
    residual = abs(sd.root - float(root_gradient(f) @ f.values)) / sd.root
    bound = sd.bracket_width + 8 * f.graph.num_edges * np.finfo(float).eps
    if not residual <= bound:
        raise NoConvergence(f"Euler residual {residual:.3g} exceeds its bound {bound:.3g}")
    return 1
