"""Invariant computations against enumeration oracles and frozen values."""

import gc
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (alpha_oracle, all_labeled_graphs, complement_oracle,
                      cores_by_deletion, cores_oracle, dedup_classes,
                      edgeless, is_stable, maximum_stable_sets_oracle,
                      omega_e_oracle, perfect_matching_oracle, sigma_v_oracle)
from giwb import invariants
from giwb.bounds import complete, cycle, path, star
from giwb.graphs import (Graph, bits, complement, connected_components,
                         from_edges, to_graph6)
from giwb.invariants import (GraphAnalysis, core_decomposition,
                             has_perfect_matching, invariant_suite,
                             maximal_cliques, maximal_stable_sets,
                             maximum_stable_sets, stability_number)
from test_graphs import graphs, graphs_up_to, small_graphs

# Orders up to which the α memo is compared with subset enumeration.
memo_graphs = graphs_up_to(14)


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

    def test_matches_networkx_above_the_hypothesis_orders(self):
        # Hypothesis reaches n = 12 and the memo tests n = 14; networkx's
        # maximum clique of the complement checks n = 17-64 independently.
        import networkx as nx

        def nx_alpha(g, subset):
            vs = list(bits(subset))
            co = nx.Graph()
            co.add_nodes_from(vs)
            co.add_edges_from((u, v) for i, u in enumerate(vs)
                              for v in vs[i + 1:] if not g.has_edge(u, v))
            return nx.max_weight_clique(co, weight=None)[1]

        def pairs(n):
            return [(u, v) for u in range(n) for v in range(u + 1, n)]

        rng = random.Random(2003)
        cases = []
        for n in range(17, 41):
            for density in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
                edges = rng.sample(pairs(n), round(density * len(pairs(n))))
                g = from_edges(n, edges)
                cases.append((g, g.full_mask))
                cases += [(g, rng.getrandbits(n)) for _ in range(2)]
        block = [k for k in range(1, 11) for _ in range(k)]
        cliques = from_edges(len(block), [  # K_1 + K_2 + ... + K_10
            (u, v) for u, v in pairs(len(block)) if block[u] == block[v]])
        for g in (edgeless(64), complete(64), cycle(63), star(63), cliques):
            cases += [(g, g.full_mask), (g, rng.getrandbits(g.n))]
        for g, subset in cases:
            assert stability_number(g, subset) == nx_alpha(g, subset), (
                to_graph6(g), subset)


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
        g = edgeless(20)
        an = GraphAnalysis(g)
        assert an.alpha == 20 and an.sigma_v == 20
        g = cycle(12)
        an = GraphAnalysis(g)
        assert (an.alpha, an.sigma_v, an.omega, an.omega_e) == (6, 6, 2, 2)
        for s in (0, g.full_mask, 0b101101101101, g.full_mask >> 3):
            assert an.alpha_of(s) == alpha_oracle(g, s)


class TestAlphaMemo:
    @settings(deadline=None)
    @given(memo_graphs)
    def test_memo_agrees_with_the_table(self, g):
        report = invariant_suite(g)
        co = complement_oracle(g)
        assert report.alpha == alpha_oracle(g)
        assert report.omega == alpha_oracle(co)
        if g.n:
            assert report.sigma_v == sigma_v_oracle(g)
            assert report.omega_v == sigma_v_oracle(co)
        assert report.omega_e == (omega_e_oracle(g) if g.edge_count else None)
        assert report.sigma_e == (omega_e_oracle(co) if co.edge_count
                                  else None)
        cores = GraphAnalysis(g).cores
        assert (cores.alpha_core, cores.tau_core) == cores_oracle(g)

    @staticmethod
    def searches(g, *queries):
        """The subsets searched while an analysis of ``g`` answers the
        named queries."""
        searched = []
        real = invariants._max_stable_set

        def counted(graph, subset=None):
            searched.append(subset)
            return real(graph, subset)
        an = GraphAnalysis(g)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(invariants, "_max_stable_set", counted)
            for query in queries:
                getattr(an, query)
        return searched

    @settings(deadline=None)
    @given(memo_graphs)
    def test_each_subset_is_searched_once(self, g):
        # cores reads sigma_v's searches and alpha, and deletes no vertex.
        searched = self.searches(g, "sigma_v", "cores")
        full = g.full_mask
        closed_non_nbhds = [full & ~(g.adj[v] | 1 << v) for v in range(g.n)]
        assert len(searched) == len(set(searched))
        assert set(searched) <= {full, *closed_non_nbhds}
        # A vertex left unsearched lies in a maximum stable set found.
        a = alpha_oracle(g)
        for sub in closed_non_nbhds:
            if sub not in searched:
                assert 1 + alpha_oracle(g, sub) == a

    @settings(deadline=None)
    @given(memo_graphs)
    def test_max_stable_containing_matches_oracle(self, g):
        an = GraphAnalysis(g)
        for v in range(g.n):
            closed_non_nbhd = g.full_mask & ~(g.adj[v] | 1 << v)
            assert an.max_stable_containing(v) == \
                1 + alpha_oracle(g, closed_non_nbhd)

    @pytest.mark.parametrize("g, vertex_searches", [
        # The two maximum stable sets of C_12 alternate: α's witness is one,
        # and the first vertex outside it finds the other.
        (cycle(12), 1),
        # The Petersen graph (outer 5-cycle, inner pentagram, spokes) has
        # five maximum stable sets of order 4, any two sharing one vertex.
        # Each search finds a new one, so the sets found cover 4, 7, 9 and
        # then all 10 vertices, whatever the labels.
        (from_edges(10, [(i, (i + 1) % 5) for i in range(5)]
                    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                    + [(i, i + 5) for i in range(5)]), 3),
        # A perfect matching (5K_2): each vertex outside α's witness has
        # exactly one neighbour in it, so one swap settles every vertex.
        (from_edges(10, [(2 * i, 2 * i + 1) for i in range(5)]), 0),
    ])
    def test_covered_vertices_are_not_searched(self, g, vertex_searches):
        rng = random.Random(g.n)
        for _ in range(20):
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
            searched = self.searches(h, "sigma_v")
            assert searched[0] == h.full_mask
            assert len(searched) - 1 == vertex_searches < h.n
            assert GraphAnalysis(h).sigma_v == alpha_oracle(h)

    def test_sigma_v_and_omega_v_match_networkx(self):
        # The memo tests stop at n = 14; networkx's maximum clique checks
        # the per-vertex orders on n = 17-40 independently.
        import networkx as nx

        def nx_through(g, v, adjacent):
            # 1 + the clique number of the complement of g on V - N[v]
            # (adjacent=False: a largest stable set through v) or of g on
            # N(v) (adjacent=True: a largest clique through v).
            vs = [u for u in range(g.n) if u != v
                  and g.has_edge(u, v) == adjacent]
            h = nx.Graph()
            h.add_nodes_from(vs)
            h.add_edges_from(
                (u, w) for i, u in enumerate(vs) for w in vs[i + 1:]
                if g.has_edge(u, w) == adjacent)
            return 1 + nx.max_weight_clique(h, weight=None)[1]

        rng = random.Random(2016)
        densities = (0.1, 0.3, 0.5, 0.7, 0.9)
        for n in range(17, 41):
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            edges = rng.sample(pairs, round(densities[n % 5] * len(pairs)))
            g = from_edges(n, edges)
            an = GraphAnalysis(g)
            assert an.sigma_v == min(nx_through(g, v, False)
                                     for v in range(n)), to_graph6(g)
            assert an.omega_v == min(nx_through(g, v, True)
                                     for v in range(n)), to_graph6(g)


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

    @given(graphs, st.integers(min_value=0))
    def test_maximum_stable_sets_in_a_subset_match_oracle(self, g, seed):
        subset = seed & g.full_mask
        assert (maximum_stable_sets(g, subset)
                == maximum_stable_sets_oracle(g, subset))

    def test_maximum_stable_sets_of_every_component_up_to_7(self):
        for g in dedup_classes(7):
            for comp in connected_components(g):
                assert (maximum_stable_sets(g, comp)
                        == maximum_stable_sets_oracle(g, comp)), (g, comp)

    def test_maximum_stable_sets_subset_edges(self):
        g = cycle(5)
        assert maximum_stable_sets(g, 0) == [0]
        with pytest.raises(ValueError, match="beyond n"):
            maximum_stable_sets(g, 0b100001)

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

    def test_matches_both_oracles_on_every_class(self):
        for g in dedup_classes(7):
            cores = GraphAnalysis(g).cores
            got = (cores.alpha_core, cores.tau_core)
            assert got == cores_by_deletion(g) == cores_oracle(g), g

    @settings(deadline=None)
    @given(memo_graphs)
    def test_matches_both_oracles_above_the_table_cap(self, g):
        cores = GraphAnalysis(g).cores
        got = (cores.alpha_core, cores.tau_core)
        assert got == cores_by_deletion(g) == cores_oracle(g)

    @settings(deadline=None)
    @given(graphs_up_to(14))
    def test_asks_no_alpha_beyond_sigma_v(self, g):
        an = GraphAnalysis(g)
        asked = []
        real = an.alpha_of
        an.alpha_of = lambda subset: asked.append(subset) or real(subset)
        an.sigma_v
        before = set(asked)
        an.cores
        assert set(asked) <= before | {g.full_mask}

    def test_known_decompositions(self):
        p3 = core_decomposition(path(3))
        assert (p3.alpha_core, p3.tau_core, p3.b_part) == (0b101, 0b010, 0)
        c4 = core_decomposition(cycle(4))
        assert (c4.alpha_core, c4.tau_core, c4.b_part) == (0, 0, 0b1111)

    @pytest.mark.parametrize("g, b_graph, tau_critical", [
        (cycle(5), True, True),
        # Each vertex is its own maximum stable set: alpha_core is empty.
        (complete(4), True, True),
        (path(3), False, False),
        (edgeless(3), True, False),
    ], ids=["C_5", "K_4", "P_3", "3K_1"])
    def test_b_graph_and_tau_critical_flags(self, g, b_graph, tau_critical):
        an = GraphAnalysis(g)
        assert (an.is_b_graph, an.is_tau_critical) == (b_graph, tau_critical)

    def test_tau_critical_iff_no_vertex_deletion_lowers_alpha(self):
        for g in dedup_classes(7):
            a = stability_number(g)
            assert GraphAnalysis(g).is_tau_critical == all(
                stability_number(g, g.full_mask & ~(1 << v)) == a
                for v in range(g.n)), g


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
