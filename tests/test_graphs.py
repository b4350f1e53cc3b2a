"""Graph construction, graph6 / edge-list I/O, and structural operations."""

import random

import pytest
from hypothesis import given, strategies as st

from conftest import edgeless
from giwb.bounds import complete, cycle, path
from giwb.graphs import (Graph, GraphFormatError, bits, bridges, complement,
                         component_count, connected_components, from_edges,
                         induced_subgraph, mask_of, neighbor_set,
                         parse_edge_list, parse_graph6, to_graph6)
from giwb.harness import _edge_list, _graph_from_mask
from giwb.hypergraphs import HyperGraph, two_section


def random_graph(n: int, edge_bits: int) -> Graph:
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return from_edges(n, [e for i, e in enumerate(pairs) if edge_bits >> i & 1])


def graphs_up_to(n_max: int, n_min: int = 0):
    return st.integers(min_value=n_min, max_value=n_max).flatmap(
        lambda n: st.builds(random_graph, st.just(n),
                            st.integers(0, (1 << (n * (n - 1) // 2)) - 1)))


graphs = graphs_up_to(12)
small_graphs = graphs_up_to(8)  # for tests whose oracle is super-exponential


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            from_edges(2, [(1, 1)])

    def test_rejects_asymmetric_rows(self):
        with pytest.raises(ValueError, match="asymmetric"):
            Graph(2, (0b10, 0b00))

    def test_rejects_row_count_mismatch(self):
        with pytest.raises(ValueError, match="row count"):
            Graph(3, (0, 0))

    def test_rejects_bits_beyond_n(self):
        with pytest.raises(ValueError, match="beyond n"):
            Graph(2, (0b100, 0b000))

    def test_rows_given_as_a_list_are_stored_as_a_tuple(self):
        rows = [2, 5, 2]
        g = Graph(3, rows)
        assert g == Graph(3, (2, 5, 2)) and type(g.adj) is tuple
        assert hash(g) == hash(Graph(3, (2, 5, 2)))
        rows[0] = 0
        assert g.adj == (2, 5, 2)
        with pytest.raises(ValueError, match="asymmetric"):
            Graph(2, [0b10, 0b00])
        h = HyperGraph(3, [0b011, 0b110])
        assert h == HyperGraph(3, (0b011, 0b110)) and type(h.edges) is tuple
        assert hash(h) == hash(HyperGraph(3, (0b011, 0b110)))

    def test_rejects_oversized_order(self):
        with pytest.raises(ValueError, match="outside"):
            Graph(65, (0,) * 65)

    def test_from_edges_checks_the_order_before_reading_edges(self):
        def unreadable():
            raise AssertionError("edges read for an order beyond the cap")
            yield
        with pytest.raises(ValueError, match="vertex count 100000 outside"):
            from_edges(10**5, unreadable())
        with pytest.raises(ValueError, match="vertex count -1 outside"):
            from_edges(-1, unreadable())

    @pytest.mark.parametrize("edge", [(0, 5), (3, 0), (-1, 1)])
    def test_from_edges_rejects_endpoints_beyond_n(self, edge):
        with pytest.raises(ValueError, match=r"outside 0\.\.2"):
            from_edges(3, [edge])

    def test_bits_and_mask_of_invert(self):
        assert bits(mask_of([0, 3, 5])) == (0, 3, 5)
        assert mask_of(bits(0b101001)) == 0b101001

    def test_edges_sorted_and_counted(self):
        g = cycle(4)
        assert list(g.edges()) == [(0, 1), (0, 3), (1, 2), (2, 3)]
        assert g.edge_count == 4

    def test_degree_and_isolated(self):
        g = from_edges(3, [(0, 1)])
        assert [g.degree(v) for v in range(3)] == [1, 1, 0]
        assert g.has_isolated_vertex()
        assert not cycle(3).has_isolated_vertex()

    def test_remove_edge_and_vertex(self):
        g = cycle(3)
        assert g.remove_edge(0, 1).edge_count == 2
        with pytest.raises(ValueError, match="not an edge"):
            path(3).remove_edge(0, 2)


def _derived(g: Graph, subset: int) -> list[Graph]:
    """What each builder derives from ``g``."""
    text = "".join([f"n {g.n}\n"] + [f"{u} {v}\n" for u, v in g.edges()])
    out = [parse_graph6(to_graph6(g)), parse_edge_list(text),
           from_edges(g.n, g.edges()), complement(g),
           induced_subgraph(g, subset)]
    edge = next(g.edges(), None)
    if edge:
        out.append(g.remove_edge(*edge))
    return out


class TestTrustedConstruction:
    """The builders skip Graph's checks, yet return graphs it accepts."""

    @staticmethod
    def build_unchecked(build):
        with pytest.MonkeyPatch.context() as mp:
            def refuse(self):
                raise AssertionError("derived graph re-validated")
            mp.setattr(Graph, "__post_init__", refuse)
            return build()

    @staticmethod
    def assert_valid(graphs):
        for h in graphs:
            assert type(h.adj) is tuple and Graph(h.n, h.adj) == h

    @given(graphs, st.integers(0, 2**12 - 1))
    def test_builders(self, g, subset):
        subset &= g.full_mask
        self.assert_valid(self.build_unchecked(lambda: _derived(g, subset)))

    @pytest.mark.parametrize("n", [0, 63, 64])
    def test_builders_at_the_extreme_orders(self, n):
        rng = random.Random(n)
        g = random_graph(n, rng.getrandbits(n * (n - 1) // 2))
        subset = rng.getrandbits(n)
        derived = self.build_unchecked(lambda: _derived(g, subset))
        self.assert_valid(derived)
        assert derived[0] == g

    @given(st.integers(0, 12).flatmap(lambda n: st.builds(
        HyperGraph, st.just(n),
        st.lists(st.integers(0, (1 << n) - 1), max_size=6))))
    def test_two_section(self, h):
        self.assert_valid([self.build_unchecked(lambda: two_section(h))])

    @given(st.integers(1, 7).flatmap(lambda n: st.tuples(
        st.just(n), st.integers(0, (1 << n * (n - 1) // 2) - 1))))
    def test_graph_from_mask(self, n_mask):
        n, mask = n_mask
        edge_list = _edge_list(n)
        self.assert_valid(
            [self.build_unchecked(lambda: _graph_from_mask(n, mask, edge_list))])


class TestGraph6:
    def test_known_codes(self):
        assert to_graph6(cycle(5)) == "Dhc"
        assert to_graph6(path(3)) == "Bg"
        assert to_graph6(complete(4)) == "C~"
        assert to_graph6(edgeless(1)) == "@"

    def test_parse_known_code(self):
        g = parse_graph6("Dhc")
        assert g.n == 5 and sorted(g.edges()) == sorted(cycle(5).edges())

    def test_header_prefix_accepted(self):
        assert parse_graph6(">>graph6<<Bg").n == 3

    @given(graphs)
    def test_round_trip(self, g):
        assert parse_graph6(to_graph6(g)) == g

    def test_long_form_round_trip(self):
        g = edgeless(63)
        code = to_graph6(g)
        assert code.startswith("~")
        assert parse_graph6(code) == g

    def test_random_round_trip_up_to_the_cap(self):
        # Every order 0..64, so the 4-byte header of n = 63, 64 is crossed,
        # against an encoder written from the format's definition.
        rng = random.Random(6)
        for n in range(65):
            for density in (0.0, rng.random(), 1.0):
                g = from_edges(n, [(i, j) for j in range(n) for i in range(j)
                                   if rng.random() < density])
                code = to_graph6(g)
                assert code == _graph6_by_definition(g), n
                assert parse_graph6(code) == g, n

    @pytest.mark.parametrize("line, message", [
        ("", "empty"),
        ("B", "truncated bit body"),
        ("Bg?", "trailing bytes"),
        ("BC", "nonzero padding"),
        ("D?@", "byte 2: nonzero padding"),
        ("~?", "truncated multi-byte"),
        ("~~?????????", "8-byte vertex counts"),
        ("~?B?" + "?" * 100, "exceeds the 64-vertex cap"),
    ])
    def test_malformed_inputs(self, line, message):
        with pytest.raises(GraphFormatError, match=message):
            parse_graph6(line)

    def test_out_of_range_byte(self):
        with pytest.raises(GraphFormatError, match="byte 1"):
            parse_graph6("B\x07")


def _graph6_by_definition(g: Graph) -> str:
    """graph6 from McKay's definition: the order (one byte, or 126 and three
    bytes from n = 63), then x(i, j) for j = 1 .. n-1 and i < j, six bits per
    byte, zero padded, every byte offset by 63."""
    n = g.n
    head = [n] if n <= 62 else [63, n >> 12, n >> 6 & 63, n & 63]
    stream = "".join("1" if g.has_edge(i, j) else "0"
                     for j in range(1, n) for i in range(j))
    stream += "0" * (-len(stream) % 6)
    body = [int(stream[k:k + 6], 2) for k in range(0, len(stream), 6)]
    return "".join(chr(63 + x) for x in head + body)


class TestEdgeList:
    def test_parse_with_comments_and_duplicates(self):
        g = parse_edge_list("# a triangle\nn 3\n0 1\n1 2\n0 2\n0 2\n")
        assert g == cycle(3)

    @pytest.mark.parametrize("text, message", [
        ("", "empty"),
        ("3\n0 1", "expected 'n <count>'"),
        ("n x", "unparsable vertex count"),
        ("n 99", "outside"),
        ("n 3\n0", "line 2: expected 'u v'"),
        ("n 3\n0 z", "line 2: unparsable"),
        ("n 3\n1 1", "line 2: self-loop"),
        ("n 3\n0 3", "line 2: vertex out of range"),
        ("# lines count from the top\nn 3\n\n0 z", "line 4: unparsable"),
    ])
    def test_malformed_inputs(self, text, message):
        with pytest.raises(GraphFormatError, match=message):
            parse_edge_list(text)


class TestOperations:
    @given(graphs)
    def test_complement_involution(self, g):
        assert complement(complement(g)) == g

    @given(graphs, st.integers(min_value=0))
    def test_induced_subgraph_commutes_with_complement(self, g, seed):
        subset = seed & g.full_mask
        assert (induced_subgraph(complement(g), subset)
                == complement(induced_subgraph(g, subset)))

    def test_induced_subgraph_reindexes(self):
        g = induced_subgraph(cycle(4), 0b1101)  # vertices 0, 2, 3
        assert g.n == 3 and sorted(g.edges()) == [(0, 2), (1, 2)]

    def test_subset_validation(self):
        with pytest.raises(ValueError, match="beyond n"):
            induced_subgraph(cycle(3), 0b1000)
        with pytest.raises(ValueError, match="beyond n"):
            neighbor_set(cycle(3), 0b1000)

    def test_neighbor_set(self):
        assert neighbor_set(path(4), 0b0010) == 0b0101

    def test_components_partition(self):
        g = from_edges(5, [(0, 1), (2, 3)])
        parts = connected_components(g)
        assert parts == [0b00011, 0b01100, 0b10000]
        assert component_count(cycle(6)) == 1

    def test_bridges(self):
        assert bridges(path(4)) == {(0, 1), (1, 2), (2, 3)}
        assert bridges(cycle(5)) == set()
        # One chord: the cycle edges stop being bridges, the pendant stays.
        g = from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        assert bridges(g) == {(2, 3)}
