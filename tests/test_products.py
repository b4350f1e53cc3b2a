"""Metamorphic oracles above n = 7: lexicographic products, disjoint unions
and joins, built with networkx, against identities that give each
invariant exactly from the factors.

A maximal stable set of G[H] is a maximal stable set S of G with a maximal
stable set of H in each copy of H over S, so

- α(G[H]) = α(G)α(H) and ω(G[H]) = ω(G)ω(H);
- σ_v(G[H]) = (σ_v(G) − 1)α(H) + σ_v(H): a largest stable set through
  (g, h) takes a largest one through h in g's copy and maximum ones in the
  other copies over a largest stable set of G through g;
- ω_v(G[H]) = (ω_v(G) − 1)ω(H) + ω_v(H), the same on the complements, since
  the complement of G[H] is co-G[co-H];
- σ_v(G ∪ H) = min(σ_v(G) + α(H), σ_v(H) + α(G)), and dually
  ω_v(G + H) = min(ω_v(G) + ω(H), ω_v(H) + ω(G)) for the join.

The identities also turn single findings into families: the tokens below
are members, each pinned with the verdict its check gives.
"""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from giwb.bounds import VIOLATED
from giwb.conjectures import (check_conjecture1_full,
                              check_omega_v_substitution)
from giwb.graphs import Graph, from_edges, parse_graph6, to_graph6
from giwb.invariants import GraphAnalysis
from test_graphs import graphs_up_to

# GB]eCK[GB]eCK]: 64 vertices, omega-v-sub 81 > 64 and conj1 holds.
SQUARE = (
    "~?@?B]eCK?????B?F?I?E?@B???????????K??F??A_??W??@B?N~~?N~~?F~~_@~~z?N~~"
    "[?~~}_@~~}?@~~{K?~~~~?N~~~o@~~~}?F~~~z?N~~~v?N~~~y?F~~~}?@~~~~B~oB~??B~?"
    "N{??F}?^w??F}?^w??N~?N{??F~oB~??Af}?^w??W^w@~_?@B~~{?????~~{?????^~}????"
    "?F~~_????B~~{?????^~~o????Af~~_????EF~~_????CN~?????N~~~o????B~~v}?????^"
    "~}^w????@~~z~o????B~~v~o????B~~y^w????@~~}F}?????^~~B")


def to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def from_nx(h: nx.Graph) -> Graph:
    """``h`` with its nodes renumbered in sorted order."""
    index = {v: i for i, v in enumerate(sorted(h.nodes()))}
    return from_edges(len(index), [(index[u], index[v]) for u, v in h.edges()])


def lex(g: Graph, h: Graph) -> Graph:
    return from_nx(nx.lexicographic_product(to_nx(g), to_nx(h)))


def union(g: Graph, h: Graph) -> Graph:
    return from_nx(nx.disjoint_union(to_nx(g), to_nx(h)))


def join(g: Graph, h: Graph) -> Graph:
    return from_nx(nx.full_join(to_nx(g), to_nx(h), rename=("g", "h")))


B_GRAPH = parse_graph6("GB]eCK")  # omega-v-sub 9 > 8 (FINDINGS.md)
CONJ1 = parse_graph6("HcdePhT")  # conj1 fails its clique system at 9 = 9
K_2, TWO_K_1 = from_edges(2, [(0, 1)]), from_edges(2, [])

pairs = st.tuples(graphs_up_to(7, 1), graphs_up_to(7, 1))


class TestIdentities:
    @settings(max_examples=150, deadline=None)
    @given(pairs)
    def test_lexicographic_product(self, pair):
        g, h = pair
        a, b, p = (GraphAnalysis(x) for x in (g, h, lex(g, h)))
        assert p.alpha == a.alpha * b.alpha
        assert p.omega == a.omega * b.omega
        assert p.sigma_v == (a.sigma_v - 1) * b.alpha + b.sigma_v
        assert p.omega_v == (a.omega_v - 1) * b.omega + b.omega_v

    @settings(max_examples=150, deadline=None)
    @given(pairs)
    def test_disjoint_union_and_join(self, pair):
        g, h = pair
        a, b = GraphAnalysis(g), GraphAnalysis(h)
        assert GraphAnalysis(union(g, h)).sigma_v == min(
            a.sigma_v + b.alpha, b.sigma_v + a.alpha)
        assert GraphAnalysis(join(g, h)).omega_v == min(
            a.omega_v + b.omega, b.omega_v + a.omega)


class TestFamilies:
    """Members of the FINDINGS.md families, built with networkx."""

    @pytest.mark.parametrize("g, want, lhs, rhs", [
        (lex(B_GRAPH, K_2), "O`?Hx{~N}WX`{?{?w@}?^", 18, 16),
        (union(B_GRAPH, B_GRAPH), "OB]eCK?????B?F?I?E?@B", 18, 16),
        (lex(B_GRAPH, B_GRAPH), SQUARE, 81, 64),
    ], ids=["GB]eCK[K_2]", "2 GB]eCK", "GB]eCK[GB]eCK]"])
    def test_omega_v_substitution_fails(self, g, want, lhs, rhs):
        assert to_graph6(g) == want
        v = check_omega_v_substitution(g)
        assert (v.status, v.lhs, v.rhs) == (VIOLATED, lhs, rhs)

    @pytest.mark.parametrize("g, want", [
        (lex(CONJ1, K_2), "Q~?MEFBoxwF`{K{K`x_]XKrKrKw"),
        (lex(CONJ1, TWO_K_1), "Q]?EEBBopwF_{K{K@x_]WKrKrKo"),
        (union(CONJ1, CONJ1), "QcdePhT???_??C?C_@_?q?@g?Ig"),
    ], ids=["HcdePhT[K_2]", "HcdePhT[2K_1]", "2 HcdePhT"])
    def test_conjecture1_clique_system_fails(self, g, want):
        assert to_graph6(g) == want
        v = check_conjecture1_full(g)
        assert (v.status, v.lhs, v.rhs) == (VIOLATED, 18, 18)
        assert v.witness["failed"] == "clique-system"
