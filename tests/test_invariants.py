"""Invariant computations against enumeration oracles and frozen values."""

import gc
import weakref

import pytest
from hypothesis import given, strategies as st

from conftest import (alpha_oracle, all_labeled_graphs, cores_oracle, edgeless,
                      is_stable, maximum_stable_sets_oracle,
                      perfect_matching_oracle)
from giwb.bounds import complete, cycle, path
from giwb.graphs import Graph, bits, complement, from_edges
from giwb.invariants import (GraphAnalysis, core_decomposition,
                             criticality_profile, has_perfect_matching,
                             invariant_suite, max_clique_containing_edge,
                             max_stable_containing, maximal_cliques,
                             maximal_stable_sets, maximum_stable_sets,
                             stability_number)
from test_graphs import graphs, small_graphs


class TestStabilityNumber:
    def test_matches_subset_oracle_exhaustively(self):
        for n in range(1, 5):
            for g in all_labeled_graphs(n):
                assert stability_number(g) == alpha_oracle(g)

    @given(graphs)
    def test_matches_subset_oracle(self, g):
        assert stability_number(g) == alpha_oracle(g)

    @given(graphs, st.integers(min_value=0))
    def test_subset_restriction_matches_oracle(self, g, seed):
        subset = seed & g.full_mask
        assert stability_number(g, subset) == alpha_oracle(g, subset)

    def test_rejects_subset_beyond_n(self):
        with pytest.raises(ValueError, match="beyond n"):
            stability_number(cycle(3), 0b1000)

    def test_empty_graph(self):
        assert stability_number(Graph(0, ())) == 0


class TestAnalysisTable:
    @given(graphs)
    def test_alpha_of_every_subset_matches_oracle(self, g):
        an = GraphAnalysis(g)
        # Sample the corners plus a diagonal of subsets.
        subsets = {0, g.full_mask} | {g.full_mask >> k for k in range(g.n)}
        for s in subsets:
            assert an.alpha_of(s) == alpha_oracle(g, s)

    def test_sigma_e_is_freed_without_the_cycle_collector(self):
        # sigma_e reads this table on the complement's edges; a reference
        # cycle with the complement's analysis would keep both tables alive
        # until the next full collection.
        gc.disable()
        try:
            an = GraphAnalysis(cycle(5))
            assert an.sigma_e == 2
            refs = [weakref.ref(an), weakref.ref(an.complement_analysis)]
            del an
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()

    def test_table_fallback_above_cap(self):
        g = edgeless(20)  # above the subset-table cap
        an = GraphAnalysis(g)
        assert an._table is None
        assert an.alpha == 20 and an.sigma_v == 20


class TestInvariantSuite:
    @pytest.mark.parametrize("g, expected", [
        (cycle(5), dict(alpha=2, tau=3, omega=2, sigma_v=2, omega_v=2,
                        omega_e=2, sigma_e=2)),
        (path(3), dict(alpha=2, tau=1, omega=2, sigma_v=1, omega_v=2,
                       omega_e=2, sigma_e=2)),
        (cycle(4), dict(alpha=2, tau=2, omega=2, sigma_v=2, omega_v=2,
                        omega_e=2, sigma_e=2)),
        (complete(4), dict(alpha=1, tau=3, omega=4, sigma_v=1, omega_v=4,
                           omega_e=4, sigma_e=None)),
        (from_edges(4, [(0, 1), (0, 2), (0, 3)]),
         dict(alpha=3, tau=1, omega=2, sigma_v=1, omega_v=2, omega_e=2,
              sigma_e=3)),
    ])
    def test_frozen_values(self, g, expected):
        rep = invariant_suite(g)
        for key, val in expected.items():
            assert getattr(rep, key) == val, key

    @given(graphs)
    def test_alpha_plus_tau_is_n(self, g):
        an = GraphAnalysis(g)
        assert an.alpha + an.tau == g.n

    @given(graphs)
    def test_complement_duality(self, g):
        an, co = GraphAnalysis(g), GraphAnalysis(complement(g))
        assert an.omega == co.alpha
        assert an.omega_v == co.sigma_v
        assert an.omega_e == co.sigma_e

    def test_edgeless_and_complete_conventions(self):
        assert invariant_suite(edgeless(3)).omega_e is None
        assert invariant_suite(complete(3)).sigma_e is None

    @given(small_graphs)
    def test_sigma_v_definition(self, g):
        # sigma_v is the smallest maximum stable set through a vertex.
        an = GraphAnalysis(g)
        if g.n == 0:
            assert an.sigma_v == 0
            return
        per_vertex = [max(s.bit_count() for s in range(1 << g.n)
                          if s >> v & 1 and is_stable(g, s))
                      for v in range(g.n)]
        assert an.sigma_v == min(per_vertex)
        for v in range(g.n):
            assert an.max_stable_containing(v) == per_vertex[v]

    def test_per_vertex_and_per_edge_queries(self):
        g = cycle(5)
        assert max_stable_containing(g, 0) == 2
        assert max_clique_containing_edge(g, (0, 1)) == 2
        with pytest.raises(ValueError, match="out of range"):
            max_stable_containing(g, 9)
        with pytest.raises(ValueError, match="not an edge"):
            max_clique_containing_edge(g, (0, 2))
        p3 = path(3)
        for edge in [(-1, 1), (5, 1), (1, 3)]:
            with pytest.raises(ValueError, match="out of range"):
                max_clique_containing_edge(p3, edge)


class TestStableSetEnumeration:
    @given(small_graphs)
    def test_maximal_stable_sets_are_exactly_the_maximal_ones(self, g):
        found = maximal_stable_sets(g)
        stables = [s for s in range(1 << g.n) if is_stable(g, s)]
        expected = sorted(s for s in stables
                          if not any(s != t and s & t == s for t in stables))
        assert found == expected

    @given(graphs)
    def test_maximum_stable_sets_match_oracle(self, g):
        assert maximum_stable_sets(g) == maximum_stable_sets_oracle(g)

    @given(graphs)
    def test_maximal_cliques_dualize(self, g):
        assert maximal_cliques(g) == maximal_stable_sets(complement(g))


class TestCores:
    def test_matches_intersection_oracle_exhaustively(self):
        for n in range(1, 5):
            for g in all_labeled_graphs(n):
                cores = core_decomposition(g)
                assert (cores.alpha_core, cores.tau_core) == cores_oracle(g)

    @given(graphs)
    def test_matches_intersection_oracle(self, g):
        cores = core_decomposition(g)
        assert (cores.alpha_core, cores.tau_core) == cores_oracle(g)

    @given(graphs)
    def test_partition(self, g):
        cores = core_decomposition(g)
        assert cores.alpha_core | cores.tau_core | cores.b_part == g.full_mask
        assert cores.alpha_core & cores.tau_core == 0
        assert cores.b_part & (cores.alpha_core | cores.tau_core) == 0

    def test_known_decompositions(self):
        p3 = core_decomposition(path(3))
        assert (p3.alpha_core, p3.tau_core, p3.b_part) == (0b101, 0b010, 0)
        c4 = core_decomposition(cycle(4))
        assert (c4.alpha_core, c4.tau_core, c4.b_part) == (0, 0, 0b1111)


class TestCriticality:
    def test_odd_cycle_is_tau_critical_b_graph(self):
        prof = criticality_profile(cycle(5))
        assert prof.is_b_graph and prof.is_tau_critical
        assert prof.is_alpha_critical
        assert prof.bridge_edges == frozenset()

    def test_complete_graph_is_alpha_critical(self):
        prof = criticality_profile(complete(4))
        assert prof.is_alpha_critical
        # Each vertex is its own maximum stable set, so alpha_core is empty.
        assert prof.is_tau_critical

    def test_path_criticality(self):
        prof = criticality_profile(path(3))
        assert not prof.is_b_graph and not prof.is_tau_critical
        assert prof.critical_edges == frozenset()
        assert prof.bridge_edges == {(0, 1), (1, 2)}
        assert prof.q_minimal_necessary

    def test_edgeless_graph(self):
        prof = criticality_profile(edgeless(3))
        assert prof.is_b_graph and not prof.is_tau_critical
        assert not prof.is_alpha_critical
        assert prof.q_minimal_necessary


class TestMonotoneChains:
    """sigma_e <= sigma_v <= alpha and omega_e <= omega_v <= omega.

    The upper halves are unconditional.  The lower halves need an
    isolated-vertex hypothesis on the side whose "per-edge" invariant is
    computed: omega_e <= omega_v requires G without isolated vertices, and
    dually sigma_e <= sigma_v requires the complement without isolated
    vertices (a dominating vertex of G breaks it: P_3 has sigma_e = 2 but
    sigma_v = 1).
    """

    def test_chains_hold_under_their_hypotheses(self):
        from giwb.harness import enumerate_graphs
        for n in range(1, 7):
            for g in enumerate_graphs(n, dedup=True):
                an = GraphAnalysis(g)
                assert an.sigma_v <= an.alpha and an.omega_v <= an.omega
                if an.omega_e is not None and not g.has_isolated_vertex():
                    assert an.omega_e <= an.omega_v
                if an.sigma_e is not None and \
                        not complement(g).has_isolated_vertex():
                    assert an.sigma_e <= an.sigma_v

    def test_dominating_vertex_breaks_the_sigma_chain(self):
        an = GraphAnalysis(path(3))
        assert an.sigma_e == 2 > 1 == an.sigma_v

    def test_b_graph_iff_sigma_v_equals_alpha(self):
        from giwb.harness import enumerate_graphs
        for n in range(1, 7):
            for g in enumerate_graphs(n, dedup=True):
                an = GraphAnalysis(g)
                assert an.is_b_graph == (an.sigma_v == an.alpha)

    def test_high_degree_vertices_lie_in_tau_core(self):
        from giwb.harness import enumerate_graphs
        for n in range(1, 7):
            for g in enumerate_graphs(n, dedup=True):
                an = GraphAnalysis(g)
                for v in range(g.n):
                    if g.degree(v) > an.tau:
                        assert an.cores.tau_core >> v & 1


class TestPerfectMatching:
    def test_matches_pairing_oracle_exhaustively(self):
        for n in range(1, 6):
            for g in all_labeled_graphs(n):
                assert has_perfect_matching(g) == perfect_matching_oracle(g)

    @pytest.mark.parametrize("g, expected", [
        (cycle(4), True),
        (cycle(5), False),
        (path(4), True),
        (from_edges(4, [(0, 1), (0, 2), (0, 3)]), False),
        (complete(6), True),
    ])
    def test_known_cases(self, g, expected):
        assert has_perfect_matching(g) == expected
