"""Directed graph (X, E) underlying a Markov chain, with canonical edge indexing.

All vectorized quantities in the library are laid out in the canonical edge
order: lexicographic by (source, target). The graph is validated strongly
connected at construction and is immutable afterwards.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import (
    DuplicateEdge,
    NotStronglyConnected,
    OutOfRangeState,
    ParseError,
    TooFewStates,
)

__all__ = [
    "ChainGraph",
    "build_graph",
    "strongly_connected",
    "parse_chain_file",
    "format_chain_file",
]


def frozen_array(values, dtype) -> np.ndarray:
    """A read-only copy of values at dtype: the one way every value type
    (ChainGraph, EdgeFunction, ExpectationPoint, SpectralData, Trajectory)
    holds an array, so none aliases its caller's array or can be changed."""
    array = np.array(values, dtype=dtype)
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class ChainGraph:
    """The directed graph (X, E) with |X| = num_states, edges in canonical order.

    Built and validated by build_graph; its index map and arrays are read-only.
    """

    num_states: int
    edges: tuple[tuple[int, int], ...]
    edge_index: Mapping[tuple[int, int], int] = field(compare=False, repr=False)
    # per-edge source/target state arrays, for vectorized gathers; sources is
    # sorted, so the out-edges of x are the slice [start[x], start[x + 1]) with
    # start = np.searchsorted(sources, np.arange(num_states + 1))
    sources: np.ndarray = field(compare=False, repr=False)
    targets: np.ndarray = field(compare=False, repr=False)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def __eq__(self, other):
        if not isinstance(other, ChainGraph):
            return NotImplemented
        return self.num_states == other.num_states and self.edges == other.edges

    def __hash__(self):
        return hash((self.num_states, self.edges))


def _check_edges(num_states, edges):
    seen = set()
    for x, y in edges:
        if not (0 <= x < num_states and 0 <= y < num_states):
            raise OutOfRangeState(f"edge ({x}, {y}) outside state range [0, {num_states})")
        if (x, y) in seen:
            raise DuplicateEdge(f"edge ({x}, {y}) listed twice")
        seen.add((x, y))


def _reach(num_states, adjacency):
    """States reachable from state 0 along the given adjacency lists."""
    reached = [False] * num_states
    reached[0] = True
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for u in adjacency[v]:
            if not reached[u]:
                reached[u] = True
                frontier.append(u)
    return reached


def _unreachable_pair(num_states, edges):
    """A pair (x, y) with no directed path x -> y, or None if there is none.

    The graph is strongly connected iff state 0 reaches every state and every
    state reaches 0, so one search forward and one on the reversed edges
    decide it: an unreached y gives (0, y), an unreaching x gives (x, 0).
    """
    forward = [[] for _ in range(num_states)]
    backward = [[] for _ in range(num_states)]
    for x, y in edges:
        forward[x].append(y)
        backward[y].append(x)
    for y, reached in enumerate(_reach(num_states, forward)):
        if not reached:
            return (0, y)
    for x, reached in enumerate(_reach(num_states, backward)):
        if not reached:
            return (x, 0)
    return None


def strongly_connected(num_states: int, edges) -> bool:
    """True iff every ordered pair of states is joined by a directed path."""
    for x, y in edges:
        if not (0 <= x < num_states and 0 <= y < num_states):
            raise OutOfRangeState(f"edge ({x}, {y}) outside state range [0, {num_states})")
    return num_states > 0 and _unreachable_pair(num_states, edges) is None


def build_graph(num_states: int, edges) -> ChainGraph:
    """Validate and build a ChainGraph with canonical (lexicographic) edge order."""
    if num_states < 2:
        raise TooFewStates(f"need at least 2 states, got {num_states}")
    edges = [(int(x), int(y)) for x, y in edges]
    _check_edges(num_states, edges)
    witness = _unreachable_pair(num_states, edges)
    if witness is not None:
        raise NotStronglyConnected(witness)

    ordered = tuple(sorted(edges))
    return ChainGraph(
        num_states=num_states,
        edges=ordered,
        edge_index=MappingProxyType({edge: k for k, edge in enumerate(ordered)}),
        sources=frozen_array([x for x, _ in ordered], np.intp),
        targets=frozen_array([y for _, y in ordered], np.intp),
    )


def parse_chain_file(text: str):
    """Parse the chain file format.

    Format (UTF-8, line oriented, '#' starts a comment):
        states N
        mode edge|expectation        (optional; default edge)
        edge X Y [VALUE]

    Returns (graph, values, mode) where values is an ndarray in canonical edge
    order, or None if no edge carried a VALUE. Mixing valued and bare edges is
    an error.
    """
    num_states = None
    mode = "edge"
    raw_edges = []
    raw_values = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if num_states is None:
            if parts[0] != "states" or len(parts) != 2:
                raise ParseError(f"line {lineno}: expected 'states N', got {line!r}")
            try:
                num_states = int(parts[1])
            except ValueError:
                raise ParseError(f"line {lineno}: bad state count {parts[1]!r}") from None
            continue
        if parts[0] == "mode":
            if len(parts) != 2 or parts[1] not in ("edge", "expectation"):
                raise ParseError(f"line {lineno}: expected 'mode edge|expectation'")
            mode = parts[1]
            continue
        if parts[0] != "edge" or len(parts) not in (3, 4):
            raise ParseError(f"line {lineno}: expected 'edge X Y [VALUE]', got {line!r}")
        try:
            x, y = int(parts[1]), int(parts[2])
        except ValueError:
            raise ParseError(f"line {lineno}: bad edge endpoints {line!r}") from None
        value = None
        if len(parts) == 4:
            try:
                value = float(parts[3])
            except ValueError:
                raise ParseError(f"line {lineno}: bad value {parts[3]!r}") from None
        raw_edges.append((x, y))
        raw_values.append(value)
    if num_states is None:
        raise ParseError("missing 'states N' line")
    if not raw_edges:
        raise ParseError("no edges")

    has_values = [v is not None for v in raw_values]
    if any(has_values) and not all(has_values):
        raise ParseError("either all edges or none must carry a value")

    graph = build_graph(num_states, raw_edges)
    values = None
    if all(has_values):
        values = np.empty(graph.num_edges)
        for (x, y), v in zip(raw_edges, raw_values):
            values[graph.edge_index[(x, y)]] = v
    return graph, values, mode


def format_chain_file(graph: ChainGraph, values=None, mode: str = "edge") -> str:
    """Render a graph (optionally with edge values) in the chain file format."""
    lines = [f"states {graph.num_states}"]
    if mode != "edge":
        lines.append(f"mode {mode}")
    for k, (x, y) in enumerate(graph.edges):
        if values is None:
            lines.append(f"edge {x} {y}")
        else:
            lines.append(f"edge {x} {y} {values[k]:.17g}")
    return "\n".join(lines) + "\n"
