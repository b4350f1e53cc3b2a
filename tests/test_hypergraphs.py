"""Hypergraph machinery: construction, 2-section, conformality, and the
derived bound checks."""

import functools
import itertools
import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (check_hyper_corollary_reference, dedup_classes,
                      two_section_oracle)
from giwb.bounds import HOLDS, NOT_APPLICABLE, complete as k_n, cycle, path
from giwb import hypergraphs, invariants
from giwb.graphs import Graph, parse_graph6
from giwb.hypergraphs import (HyperGraph, check_conjecture2,
                              check_hyper_corollary, is_conformal,
                              is_conformal_oracle, stable_set_hypergraph,
                              two_section)
from giwb.invariants import GraphAnalysis
from test_graphs import graphs_up_to


def all_hypergraphs(n: int):
    """Every hypergraph on n vertices over the nonempty candidate edges."""
    candidates = [m for m in range(1, 1 << n)]
    for r in range(len(candidates) + 1):
        for chosen in itertools.combinations(candidates, r):
            yield HyperGraph(n, chosen)


class TestBasics:
    def test_edge_validation(self):
        with pytest.raises(ValueError, match="beyond n"):
            HyperGraph(2, (0b100,))

    def test_isolated_and_coverage(self):
        h = HyperGraph(3, (0b011,))
        assert h.has_isolated_vertex() and h.covered_vertices() == 0b011
        assert not HyperGraph(3, (0b111,)).has_isolated_vertex()

    def test_two_section(self):
        h = HyperGraph(4, (0b0111, 0b1100))
        assert h.r_max == 3 and h.is_uniform() is None
        g = two_section(h)
        assert sorted(g.edges()) == [(0, 1), (0, 2), (1, 2), (2, 3)]

    @given(st.integers(0, 12).flatmap(lambda n: st.builds(
        HyperGraph, st.just(n),
        st.lists(st.integers(0, (1 << n) - 1), max_size=10))))
    def test_two_section_matches_pairwise_oracle(self, h):
        assert two_section(h) == two_section_oracle(h)

    def test_stable_set_hypergraph_of_cycle(self):
        h = stable_set_hypergraph(cycle(5))
        assert len(h.edges) == 5 and h.r_max == 2


class TestConformality:
    def test_single_edge_is_conformal(self):
        assert is_conformal(HyperGraph(5, (0b00111,)))

    def test_triangle_of_pairs_is_not_conformal(self):
        h = HyperGraph(3, (0b011, 0b110, 0b101))
        assert not is_conformal(h)

    def test_adding_the_covering_edge_restores_conformality(self):
        h = HyperGraph(3, (0b011, 0b110, 0b101, 0b111))
        assert is_conformal(h)

    def test_edgeless_is_conformal(self):
        assert is_conformal(HyperGraph(3, ()))

    def test_matches_oracle_exhaustively_n3(self):
        for h in all_hypergraphs(3):
            assert is_conformal(h) == is_conformal_oracle(h), h

    def test_matches_oracle_sampled_n5(self):
        rng = random.Random(20260823)
        for _ in range(500):
            edge_count = rng.randrange(0, 6)
            edges = tuple(rng.randrange(1, 32) for _ in range(edge_count))
            h = HyperGraph(5, edges)
            assert is_conformal(h) == is_conformal_oracle(h), h


class TestHyperCorollary:
    def test_holds_on_odd_cycle(self):
        v = check_hyper_corollary(cycle(5))
        assert v.status == HOLDS and (v.lhs, v.rhs) == (4, 5)

    def test_equality_on_even_cycle(self):
        v = check_hyper_corollary(cycle(4))
        assert v.status == HOLDS and v.equality

    def test_not_applicable_when_a_core_is_nonempty(self):
        # P_3 has nonempty alpha_core even though its maximal stable sets
        # already have empty intersection.
        assert check_hyper_corollary(path(3)).status == NOT_APPLICABLE
        assert check_hyper_corollary(Graph(0, ())).status == NOT_APPLICABLE

    def test_hypergraph_never_built(self, monkeypatch):
        def unexpected(g):
            raise AssertionError("the check built a hypergraph")
        for name in ("stable_set_hypergraph", "maximal_stable_sets"):
            monkeypatch.setattr(hypergraphs, name, unexpected)
        monkeypatch.setattr(invariants, "maximal_stable_sets", unexpected)
        assert check_hyper_corollary(parse_graph6("Bg")).status == NOT_APPLICABLE
        assert check_hyper_corollary(cycle(5)).status == HOLDS
        assert check_hyper_corollary(cycle(4)).equality

    @staticmethod
    def assert_identities(g):
        # Empty cores make the maximal stable sets meet in no vertex and
        # cover every vertex, and the largest of them has alpha vertices.
        an = GraphAnalysis(g)
        h = stable_set_hypergraph(g)
        assert h.r_max == an.alpha
        if an.cores.alpha_core == an.cores.tau_core == 0 < g.n:
            assert functools.reduce(operator.and_, h.edges) == 0
            assert h.covered_vertices() == g.full_mask
        assert check_hyper_corollary(g) == check_hyper_corollary_reference(g)

    def test_identities_on_every_class(self):
        for g in dedup_classes(7):
            self.assert_identities(g)

    @settings(deadline=None)
    @given(graphs_up_to(14))
    def test_identities(self, g):
        self.assert_identities(g)


class TestConjecture2:
    def test_single_full_edge_equality(self):
        v = check_conjecture2(HyperGraph(3, (0b111,)))
        assert v.status == HOLDS and v.equality
        assert v.witness == {"r": 3, "sigma_v": 1}

    def test_two_section_filter(self):
        # 2-uniform pentagon: sigma_v = alpha = 2 on the 2-section,
        # 2 * 2 <= 5.
        edges = tuple(1 << i | 1 << ((i + 1) % 5) for i in range(5))
        v = check_conjecture2(HyperGraph(5, edges))
        assert v.status == HOLDS and (v.lhs, v.rhs) == (4, 5)

    def test_hypothesis_filters(self):
        assert check_conjecture2(HyperGraph(3, ())).status == NOT_APPLICABLE
        mixed = HyperGraph(3, (0b011, 0b111))
        assert check_conjecture2(mixed).status == NOT_APPLICABLE
        isolated = HyperGraph(3, (0b011,))
        assert check_conjecture2(isolated).status == NOT_APPLICABLE
        # P_3 as a 2-uniform hypergraph: sigma_v = 1 < 2 = alpha.
        p3 = HyperGraph(3, (0b011, 0b110))
        assert check_conjecture2(p3).status == NOT_APPLICABLE
