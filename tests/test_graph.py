import numpy as np
import pytest

from markovgeo import build_graph, format_chain_file, parse_chain_file, strongly_connected
from markovgeo.errors import (
    DuplicateEdge,
    NotStronglyConnected,
    OutOfRangeState,
    ParseError,
    TooFewStates,
)
from markovgeo.verify import random_graph

from conftest import make_rng


class TestBuildGraph:
    def test_two_state_complete(self):
        g = build_graph(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
        assert g.num_states == 2
        assert g.edges == ((0, 0), (0, 1), (1, 0), (1, 1))

    def test_two_cycle(self):
        g = build_graph(2, [(1, 0), (0, 1)])
        assert g.edges == ((0, 1), (1, 0))

    def test_not_strongly_connected_witness(self):
        with pytest.raises(NotStronglyConnected) as excinfo:
            build_graph(2, [(0, 0), (0, 1), (1, 1)])
        assert excinfo.value.witness == (1, 0)

    def test_duplicate_edge(self):
        with pytest.raises(DuplicateEdge):
            build_graph(2, [(0, 1), (1, 0), (0, 1)])

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeState):
            build_graph(2, [(0, 1), (1, 2)])

    def test_too_few_states(self):
        with pytest.raises(TooFewStates):
            build_graph(1, [(0, 0)])

    def test_canonical_order_independent_of_input_order(self):
        a = build_graph(3, [(2, 0), (0, 1), (1, 2), (0, 0)])
        b = build_graph(3, [(0, 0), (0, 1), (1, 2), (2, 0)])
        assert a.edges == b.edges
        assert a.edge_index == b.edge_index


class TestStronglyConnected:
    def test_three_cycle(self):
        assert strongly_connected(3, [(0, 1), (1, 2), (2, 0)])

    def test_out_star(self):
        assert not strongly_connected(3, [(0, 1), (0, 2)])

    def test_complete_two_state(self):
        assert strongly_connected(2, [(0, 0), (0, 1), (1, 0), (1, 1)])

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeState):
            strongly_connected(2, [(0, 5)])

    def test_build_succeeds_iff_predicate(self):
        rng = make_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            edge_count = int(rng.integers(n, n * n + 1))
            flat = rng.choice(n * n, size=edge_count, replace=False)
            edges = [(int(e // n), int(e % n)) for e in flat]
            connected = strongly_connected(n, edges)
            if connected:
                build_graph(n, edges)
            else:
                with pytest.raises(NotStronglyConnected):
                    build_graph(n, edges)

    def test_witness_has_no_path(self):
        # the witness against a brute-force transitive closure
        rng = make_rng(15)
        witnesses = 0
        for _ in range(200):
            n = int(rng.integers(2, 7))
            flat = rng.choice(n * n, size=int(rng.integers(1, n * n + 1)), replace=False)
            edges = [(int(e // n), int(e % n)) for e in flat]
            reach = np.eye(n, dtype=bool)
            for x, y in edges:
                reach[x, y] = True
            for _ in range(n):
                reach = reach | ((reach.astype(int) @ reach.astype(int)) > 0)
            try:
                build_graph(n, edges)
            except NotStronglyConnected as exc:
                x, y = exc.witness
                assert not reach[x, y]
                witnesses += 1
            else:
                assert reach.all()
        assert witnesses > 50

    def test_reversal_preserves_connectivity(self):
        rng = make_rng(12)
        for _ in range(25):
            g = random_graph(int(rng.integers(1, 6)), rng)
            reversed_edges = [(y, x) for x, y in g.edges]
            assert strongly_connected(g.num_states, reversed_edges)


class TestIndexMaps:
    def test_out_and_in_lists_partition_edges(self):
        # the out-edges of x are the slice [start[x], start[x + 1]) of the
        # sorted sources; its in-edges are where targets == x
        rng = make_rng(13)
        for _ in range(20):
            g = random_graph(int(rng.integers(1, 7)), rng)
            start = np.searchsorted(g.sources, np.arange(g.num_states + 1))
            assert start[0] == 0 and start[-1] == g.num_edges
            in_all = sorted(k for x in range(g.num_states) for k in np.flatnonzero(g.targets == x))
            assert in_all == list(range(g.num_edges))
            for x in range(g.num_states):
                assert all(g.edges[k][0] == x for k in range(start[x], start[x + 1]))
                assert all(g.edges[k][1] == x for k in np.flatnonzero(g.targets == x))
            # every state appears as both a source and a target
            assert np.all(np.diff(start) > 0)
            assert np.all(np.bincount(g.targets, minlength=g.num_states) > 0)


class TestGraphValue:
    def test_index_arrays_read_only(self):
        g = build_graph(3, [(0, 1), (1, 2), (2, 0), (2, 2)])
        for array in (g.sources, g.targets):
            with pytest.raises(ValueError):
                array[0] = 1
            with pytest.raises(ValueError):
                array += 1
        with pytest.raises(TypeError):
            g.edge_index[(0, 1)] = 3
        with pytest.raises(TypeError):
            del g.edge_index[(0, 1)]
        assert g.edge_index[(2, 2)] == 3
        np.testing.assert_array_equal(g.sources, [0, 1, 2, 2])
        np.testing.assert_array_equal(g.targets, [1, 2, 0, 2])


class TestChainFile:
    def test_parse_basic(self):
        text = "# fixture\nstates 2\nedge 0 0 1.0\nedge 0 1 2e0\nedge 1 0 3.0\nedge 1 1 4.0\n"
        graph, values, mode = parse_chain_file(text)
        assert graph.num_states == 2
        assert mode == "edge"
        np.testing.assert_allclose(values, [1.0, 2.0, 3.0, 4.0])

    def test_values_resorted_to_canonical_order(self):
        text = "states 2\nedge 1 0 3.0\nedge 0 1 2.0\n"
        _, values, _ = parse_chain_file(text)
        np.testing.assert_allclose(values, [2.0, 3.0])

    def test_expectation_mode_and_trailing_comment(self):
        text = "states 2\nmode expectation\nedge 0 1 0.5 # half\nedge 1 0 0.5\n"
        _, values, mode = parse_chain_file(text)
        assert mode == "expectation"
        np.testing.assert_allclose(values, [0.5, 0.5])

    def test_roundtrip(self):
        rng = make_rng(14)
        g = random_graph(3, rng)
        values = rng.uniform(0.5, 2.0, g.num_edges)
        text = format_chain_file(g, values, mode="expectation")
        g2, values2, mode = parse_chain_file(text)
        assert g2 == g
        assert mode == "expectation"
        np.testing.assert_array_equal(values, values2)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "edge 0 1\nstates 2\n",
            "states two\n",
            "states 2\nedge 0 1 1.0\nedge 1 0\n",
            "states 2\nmode weird\nedge 0 1\nedge 1 0\n",
            "states 2\nedge 0 1 abc\nedge 1 0 1.0\n",
            "states 2\n",
        ],
    )
    def test_parse_errors(self, text):
        with pytest.raises(ParseError):
            parse_chain_file(text)
