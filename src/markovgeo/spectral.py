"""Perron-Frobenius spectral data for positive edge functions.

For a positive function f on the edge set, the weight matrix A(f) is
irreducible (the graph is strongly connected), so it has a simple dominant
positive eigenvalue r(f) with positive left/right eigenvectors. The solver is
a dense eigendecomposition (``numpy.linalg.eig``) of A(f) and of its transpose.
No other eigenvalue of a nonnegative irreducible matrix has real part as large
as r(f), periodic structures such as a pure cycle included, so the root is the
eigenvalue of largest real part. Every solve certifies itself: for a positive
vector v the Collatz-Wielandt quotients (Av)_i / v_i bracket r(f). A bracket
(widened to hold the computed root) wider than BRACKET_TOL relative gets one
Newton step, and raises NoConvergence if it is still too wide. Each
EdgeFunction stores its spectral data the first time it is computed, so later
calls on the same object reuse it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BoundaryFunction, GraphMismatch, NoConvergence, NonpositiveScale
from .graph import ChainGraph, frozen_array

__all__ = ["EdgeFunction", "SpectralData", "matrix_of", "perron", "root_gradient", "scale"]

# Largest relative width of the Collatz-Wielandt bracket a solve may return.
BRACKET_TOL = 1e-9


@dataclass(frozen=True)
class EdgeFunction:
    """A real-valued function on the edge set, in canonical edge order.

    Strictly positive unless boundary=True (row-normalized count estimates may
    sit on the boundary of the positive cone; such objects are rejected by
    every spectral or divergence operation).

    The values are copied at construction and the copy is read-only, so the
    object never changes. Its spectral data is therefore computed once: the
    first perron(f) stores it on f and later calls return the same object.
    """

    graph: ChainGraph
    values: np.ndarray
    boundary: bool = False
    _spectral: SpectralData | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        values = frozen_array(self.values, float)
        object.__setattr__(self, "values", values)
        if values.shape != (self.graph.num_edges,):
            raise ValueError(f"expected {self.graph.num_edges} values, got shape {values.shape}")
        if self.boundary:
            if np.any(values < 0):
                raise ValueError("edge values must be nonnegative")
        elif np.any(values <= 0) or not np.all(np.isfinite(values)):
            raise ValueError("edge values must be strictly positive and finite")

    def value_at(self, x: int, y: int) -> float:
        return float(self.values[self.graph.edge_index[(x, y)]])


@dataclass(frozen=True)
class SpectralData:
    """Perron-Frobenius root with left/right eigenvectors normalized to sum 1.

    bracket_width is the larger relative width of the two Collatz-Wielandt
    brackets, for mu and for v, each widened to hold the computed root; it is
    at most BRACKET_TOL. The eigenvectors are read-only copies: the data is
    shared by every caller of perron on the same edge function.
    """

    root: float
    left_vec: np.ndarray = field(repr=False)
    right_vec: np.ndarray = field(repr=False)
    bracket_width: float

    def __post_init__(self):
        object.__setattr__(self, "left_vec", frozen_array(self.left_vec, float))
        object.__setattr__(self, "right_vec", frozen_array(self.right_vec, float))


def require_interior(f: EdgeFunction):
    if f.boundary:
        raise BoundaryFunction("operation requires a strictly positive edge function")


def require_same_graph(*objects):
    first = objects[0].graph
    for other in objects[1:]:
        if other.graph != first:
            raise GraphMismatch("inputs live on different graphs")
    return first


def matrix_of(f: EdgeFunction) -> np.ndarray:
    """Dense weight matrix: entry (i, j) is f(i, j) on edges, 0 elsewhere."""
    g = f.graph
    a = np.zeros((g.num_states, g.num_states))
    a[g.sources, g.targets] = f.values
    return a


def _bracket_width(matrix, vec, root):
    """Relative width of [min (Av)_i / v_i, max (Av)_i / v_i], widened to hold
    root; NoConvergence unless vec and root are strictly positive (dividing
    by a root <= 0 would give a width <= 0, which passes any tolerance)."""
    if not np.all(vec > 0):
        raise NoConvergence("dominant eigenvector is not strictly positive")
    if not root > 0:
        raise NoConvergence(f"dominant eigenvalue {root:g} is not positive")
    quotients = (matrix @ vec) / vec
    return (max(quotients.max(), root) - min(quotients.min(), root)) / root


def _newton_step(matrix, vec, root):
    """One Newton step for (root, vec) in the coordinates scaled by vec.

    The scaled matrix D^-1 A D, D = diag(vec), has rows summing to nearly root
    and a Perron vector near all-ones, so its bordered solve (sum(vec) kept at
    1) fixes every entry of vec to similar relative accuracy.
    """
    n = vec.size
    scaled = matrix * vec / vec[:, None]
    system = np.zeros((n + 1, n + 1))
    system[:n, :n] = scaled - root * np.eye(n)
    system[:n, n] = -1.0
    system[n, :n] = vec
    try:
        step = np.linalg.solve(system, np.append(root - scaled.sum(axis=1), 0.0))
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"Newton step failed: {exc}") from exc
    vec = vec * (1.0 + step[:n])
    return root + float(step[n]), vec / vec.sum()


def _dominant_eigenvector(matrix):
    """Eigenvalue of largest real part, its eigenvector scaled to sum 1, and
    the relative width of the Collatz-Wielandt bracket that certifies both.

    eig's vector is accurate in norm, not entry by entry: with weak edges or
    weights spread over many orders of magnitude its small entries can be off
    by 1e-6 relative. When the bracket is too wide, one Newton step corrects
    them; if the bracket is still too wide, the solve raises.
    """
    try:
        eigenvalues, vectors = np.linalg.eig(matrix)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigensolver failed: {exc}") from exc
    k = int(np.argmax(eigenvalues.real))
    root = float(eigenvalues[k].real)
    vec = vectors[:, k].real
    vec = vec / vec.sum()
    width = _bracket_width(matrix, vec, root)
    if not width <= BRACKET_TOL:
        root, vec = _newton_step(matrix, vec, root)
        width = _bracket_width(matrix, vec, root)
    if not width <= BRACKET_TOL:
        raise NoConvergence(f"Collatz-Wielandt bracket width {width:.3g} exceeds {BRACKET_TOL:g}")
    return root, vec, width


def perron(f: EdgeFunction) -> SpectralData:
    """Perron-Frobenius root and positive eigenvectors of A(f), computed once per f."""
    require_interior(f)
    if f._spectral is None:
        a = matrix_of(f)
        root, right, right_width = _dominant_eigenvector(a)
        _, left, left_width = _dominant_eigenvector(a.T)
        sd = SpectralData(root=root, left_vec=left, right_vec=right, bracket_width=max(left_width, right_width))
        object.__setattr__(f, "_spectral", sd)
    return f._spectral


def root_gradient(f: EdgeFunction) -> np.ndarray:
    """Partial derivatives of the root in every edge weight, in canonical edge order.

    First-order eigenvalue perturbation: d r / d A_st = mu_s v_t / (mu . v).
    """
    sd = perron(f)
    g = f.graph
    return sd.left_vec[g.sources] * sd.right_vec[g.targets] / (sd.left_vec @ sd.right_vec)


def scale(f: EdgeFunction, a: float) -> EdgeFunction:
    """Pointwise rescaling; multiplies the root by a, leaves mu_f unchanged."""
    if not a > 0:
        raise NonpositiveScale(f"scale factor must be positive, got {a}")
    return EdgeFunction(f.graph, a * f.values)
