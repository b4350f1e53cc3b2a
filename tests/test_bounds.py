"""Bound checkers, the equality classifier, families, isomorphism, catalogs."""

import random

import pytest

from conftest import clique_of_stars_fit_reference, edgeless
from giwb.bounds import (FAMILY_KINDS, FamilySpec, HOLDS, NOT_APPLICABLE,
                         _clique_of_stars_shape, are_isomorphic,
                         catalog_min_edges, check_berge, check_cor1,
                         check_edge_bound, check_galvin_goddard,
                         check_theorem1, classify_equality_theorem1,
                         clique_of_stars, complete as k_n, cycle,
                         generate_family, path, star)
from giwb.graphs import Graph, connected_components, from_edges
from giwb.harness import enumerate_graphs

P3_PLUS_P3 = from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)])


class TestTheorem1:
    def test_holds_strictly_on_odd_cycle(self):
        v = check_theorem1(cycle(5))
        assert v.status == HOLDS and not v.equality
        assert (v.lhs, v.rhs, v.slack) == (2, 3, 1)

    @pytest.mark.parametrize("tau, leaves", [(1, 1), (1, 3), (2, 2), (3, 2)])
    def test_equality_on_clique_of_stars(self, tau, leaves):
        v = check_theorem1(clique_of_stars(tau, leaves))
        assert v.status == HOLDS and v.equality

    def test_isolated_vertices_filtered(self):
        assert check_theorem1(edgeless(3)).status == NOT_APPLICABLE
        assert check_theorem1(Graph(0, ())).status == NOT_APPLICABLE

    def test_verdict_applicable_property(self):
        assert check_theorem1(cycle(5)).applicable
        assert not check_theorem1(edgeless(2)).applicable


class TestEqualityClassifier:
    def test_matches_clique_of_stars(self):
        v = classify_equality_theorem1(clique_of_stars(2, 2))
        assert v.status == HOLDS
        assert v.witness == {"tau": 2, "leaves": 2,
                             "alpha_minus_sigma_v_plus_1": 2,
                             "components": [(2, 2)]}

    def test_matches_disjoint_union_with_common_leaf_count(self):
        # Two disjoint paths P_3 = star(2) + star(2): equality with
        # alpha > sigma_v but disconnected.
        v = classify_equality_theorem1(P3_PLUS_P3)
        assert v.status == HOLDS
        assert v.witness["components"] == [(1, 2), (1, 2)]

    def test_not_applicable_without_strict_alpha_gap(self):
        # K_2 achieves equality but with alpha = sigma_v.
        assert classify_equality_theorem1(k_n(2)).status == NOT_APPLICABLE
        assert classify_equality_theorem1(cycle(5)).status == NOT_APPLICABLE

    def test_exact_on_15_vertices(self):
        v = classify_equality_theorem1(clique_of_stars(3, 4))
        assert v.status == HOLDS
        assert v.witness["components"] == [(3, 4)]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_recognizer_equals_isomorphism_reference_on_every_class(self, n):
        for g in enumerate_graphs(n, dedup=True):
            comps = connected_components(g)
            fits = [clique_of_stars_fit_reference(g, c) for c in comps]
            assert [_clique_of_stars_shape(g, c) for c in comps] == fits, g
            v = classify_equality_theorem1(g)
            if v.status == HOLDS:
                assert v.witness["components"] == fits

    @pytest.mark.parametrize("k, ell", [(k, ell) for k in range(1, 6)
                                        for ell in range(1, 15 // k)])
    def test_recognizer_on_relabeled_blocks_and_near_misses(self, k, ell):
        g = clique_of_stars(k, ell)
        perm = random.Random(k * 100 + ell).sample(range(g.n), g.n)
        edges = [(perm[u], perm[v]) for u, v in g.edges()]
        leaves = [(perm[c], perm[k + c * ell]) for c in range(k)]
        variants = [edges]
        if k >= 2:  # a leaf moved to another center
            variants.append([e for e in edges if e != leaves[0]]
                            + [(leaves[1][0], leaves[0][1])])
            # a missing clique edge
            variants.append([e for e in edges
                             if e != (perm[0], perm[1])])
        if k >= 2 or ell >= 2:  # an edge between two leaves
            other = leaves[1][1] if k >= 2 else perm[2]
            variants.append(edges + [(leaves[0][1], other)])
        for i, variant in enumerate(variants):
            h = from_edges(g.n, variant)
            comps = connected_components(h)
            fits = [_clique_of_stars_shape(h, c) for c in comps]
            assert fits == [clique_of_stars_fit_reference(h, c)
                            for c in comps], i
            if i == 0:
                assert fits == [(k, ell)]
            elif k >= 3:  # smaller near misses can be blocks again
                assert None in fits, i


class TestOtherBounds:
    def test_cor1_values(self):
        v = check_cor1(path(3))  # alpha_core size 2, tau_core size 1
        assert (v.lhs, v.rhs) == (0, 0) and v.equality
        assert check_cor1(cycle(5)).status == HOLDS

    def test_berge(self):
        assert check_berge(cycle(5)).status == HOLDS
        assert check_berge(path(3)).status == NOT_APPLICABLE  # not a B-graph
        assert check_berge(edgeless(2)).status == NOT_APPLICABLE

    def test_edge_bound_equalities(self):
        for g in [star(4), k_n(5), cycle(5), cycle(7)]:
            v = check_edge_bound(g)
            assert v.status == HOLDS and v.equality, g

    def test_edge_bound_strict_case(self):
        v = check_edge_bound(k_n(4).remove_edge(0, 1))
        assert v.status == HOLDS
        assert v.slack == v.lhs - v.rhs >= 0

    def test_galvin_goddard_equality_on_c4(self):
        v = check_galvin_goddard(cycle(4))
        assert v.status == HOLDS and v.equality
        assert v.witness == {"p": 1, "q": 1}

    def test_galvin_goddard_on_complete(self):
        v = check_galvin_goddard(k_n(4))
        assert v.status == HOLDS  # p = 0 makes the bound trivial


class TestFamilies:
    def test_clique_of_stars_shape(self):
        g = clique_of_stars(3, 2)
        assert g.n == 9 and g.edge_count == 3 + 6
        assert star(3).n == 4

    def test_generate_family_dispatch(self):
        assert generate_family(FamilySpec("complete", (4,))) == k_n(4)
        assert generate_family(FamilySpec("star", (3,))) == star(3)
        assert generate_family(FamilySpec("odd-cycle", (5,))) == cycle(5)
        assert are_isomorphic(
            generate_family(FamilySpec("clique-of-stars", (2, 1))), path(4))

    @pytest.mark.parametrize("kind, params", [
        ("complete", ()), ("complete", (0,)), ("star", (1, 2)),
        ("odd-cycle", (4,)), ("clique-of-stars", (0, 1)),
        ("clique-of-stars", (2,)),
    ])
    def test_parameter_validation(self, kind, params):
        with pytest.raises(ValueError):
            generate_family(FamilySpec(kind, params))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown family"):
            FamilySpec("moebius", (5,))
        assert set(FAMILY_KINDS) == {"clique-of-stars", "star", "complete",
                                     "odd-cycle"}


class TestIsomorphism:
    def test_positive(self):
        relabeled = from_edges(5, [(2, 4), (4, 1), (1, 3), (3, 0), (0, 2)])
        assert are_isomorphic(cycle(5), relabeled)

    def test_negative_same_degree_sequence(self):
        two_triangles = from_edges(6, [(0, 1), (1, 2), (0, 2),
                                       (3, 4), (4, 5), (3, 5)])
        assert not are_isomorphic(cycle(6), two_triangles)

    def test_negative_different_sizes(self):
        assert not are_isomorphic(cycle(4), cycle(5))
        assert not are_isomorphic(cycle(4), path(4))


class TestCatalog:
    def test_fold_over_explicit_stream(self):
        stream = [cycle(5), path(5), k_n(5)]
        res = catalog_min_edges(2, 3, 1, stream)
        assert res.min_edges == 5 and res.witness_graph6 == "Dhc"
        assert res.lower_bound == 2 - 1 + 4

    def test_empty_match_is_a_result(self):
        res = catalog_min_edges(1, 4, 1, [cycle(5)])
        assert res.empty and res.min_edges is None
        assert res.witness_graph6 is None
