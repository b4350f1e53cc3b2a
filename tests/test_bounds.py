"""Bound checkers, the equality classifier, families, isomorphism, catalogs."""

import itertools
import random

import pytest

from conftest import corona, corona_fit_reference, dedup_classes, edgeless
from giwb.bounds import (FAMILY_KINDS, HOLDS, NOT_APPLICABLE, VIOLATED,
                         _corona_shape, are_isomorphic,
                         catalog_min_edges, check_berge, check_cor1,
                         check_edge_bound, check_galvin_goddard,
                         check_theorem1, classify_equality_theorem1,
                         clique_of_stars, complete as k_n, cycle,
                         generate_family, path, star)
from giwb.graphs import Graph, from_edges, induced_subgraph, parse_graph6
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


def _fit(shape):
    """``_corona_shape``'s answer as the reference reports it: (tau, ell)."""
    return None if shape is None else (shape[0].bit_count(), shape[1])


class TestEqualityClassifier:
    def test_matches_clique_of_stars(self):
        v = classify_equality_theorem1(clique_of_stars(2, 2))
        assert v.status == HOLDS
        assert v.witness == {"tau": 2, "leaves": 2,
                             "alpha_minus_sigma_v_plus_1": 2,
                             "centers": 0b11}

    def test_matches_disjoint_union_with_common_leaf_count(self):
        # Two disjoint paths P_3 = star(2) + star(2): equality with
        # alpha > sigma_v but disconnected; H is two isolated vertices.
        v = classify_equality_theorem1(P3_PLUS_P3)
        assert v.status == HOLDS
        assert (v.witness["centers"], v.witness["leaves"]) == (0b10010, 2)

    def test_matches_the_corona_of_a_path(self):
        # The tree 6-8-7 with two leaves on each of 6, 7 and 8: the corona
        # P_3 o 2K_1, an equality case (6 = 3 * 2) that is no clique of
        # stars, since 6 and 7 are not adjacent.
        g = parse_graph6("H???XbB")
        assert [g.degree(v) for v in range(9)] == [1] * 6 + [3, 3, 4]
        assert not g.has_edge(6, 7)
        v = check_theorem1(g)
        assert v.status == HOLDS and (v.lhs, v.rhs) == (6, 6)
        c = classify_equality_theorem1(g)
        assert c.status == HOLDS and c.equality
        assert c.witness == {"tau": 3, "leaves": 2,
                             "alpha_minus_sigma_v_plus_1": 2,
                             "centers": 0b111000000}

    def test_not_applicable_without_strict_alpha_gap(self):
        # K_2 achieves equality but with alpha = sigma_v.
        assert classify_equality_theorem1(k_n(2)).status == NOT_APPLICABLE
        assert classify_equality_theorem1(cycle(5)).status == NOT_APPLICABLE

    def test_exact_on_15_vertices(self):
        v = classify_equality_theorem1(clique_of_stars(3, 4))
        assert v.status == HOLDS
        assert (v.witness["centers"], v.witness["leaves"]) == (0b111, 4)

    @pytest.mark.parametrize("seed", range(40))
    def test_every_random_corona_holds_with_equality(self, seed):
        # alpha = tau * ell, sigma_v = alpha - ell + 1: equality whatever H.
        rng = random.Random(seed)
        k = rng.randint(1, 20)
        ell = rng.randint(2, min(5, 64 // k - 1))
        density = rng.random()
        h = from_edges(k, [e for e in itertools.combinations(range(k), 2)
                           if rng.random() < density])
        g = corona(h, ell)
        perm = rng.sample(range(g.n), g.n)
        g = from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        v = classify_equality_theorem1(g)
        assert v.status == HOLDS and v.equality
        assert v.witness == {"tau": k, "leaves": ell,
                             "alpha_minus_sigma_v_plus_1": ell,
                             "centers": sum(1 << perm[c] for c in range(k))}

    @pytest.mark.parametrize("n", range(1, 8))
    def test_recognizer_equals_isomorphism_reference_on_every_class(self, n):
        # Both directions: the check applies exactly on the coronas with
        # ell >= 2, and never reports a violation.
        coronas = 0
        for g in enumerate_graphs(n, dedup=True):
            shape = _corona_shape(g)
            fit = corona_fit_reference(g)
            assert _fit(shape) == fit, g
            coronas += fit is not None
            v = classify_equality_theorem1(g)
            assert v.status != VIOLATED, g
            assert (v.status == HOLDS) == (fit is not None), g
            if fit is not None:
                assert (v.witness["tau"], v.witness["leaves"]) == fit
                assert v.witness["centers"] == shape[0]
        # The stars K_1,n-1 for n >= 3, plus P_3 + P_3 and K_2 o 2K_1 at 6.
        assert coronas == (3 if n == 6 else int(n >= 3))

    @pytest.mark.parametrize("k, ell", [(k, ell) for k in range(1, 6)
                                        for ell in range(1, 15 // k)])
    def test_recognizer_on_relabeled_blocks_and_near_misses(self, k, ell):
        # clique_of_stars(k, ell) is the corona K_k o ellK_1.
        g = clique_of_stars(k, ell)
        perm = random.Random(k * 100 + ell).sample(range(g.n), g.n)
        edges = [(perm[u], perm[v]) for u, v in g.edges()]
        centers = sum(1 << perm[c] for c in range(k))
        spokes = [(perm[c], perm[k + c * ell]) for c in range(k)]
        full = (1 << g.n) - 1
        variants = {"relabeled": from_edges(g.n, edges)}
        if k >= 2:
            variants["moved leaf"] = from_edges(
                g.n, [e for e in edges if e != spokes[0]]
                + [(spokes[1][0], spokes[0][1])])
            # H loses an edge and the graph stays a corona.
            variants["missing center edge"] = from_edges(
                g.n, [e for e in edges if e != (perm[0], perm[1])])
        if k >= 2 or ell >= 2:
            other = spokes[1][1] if k >= 2 else perm[k + 1]
            variants["leaf-leaf edge"] = from_edges(
                g.n, edges + [(spokes[0][1], other)])
        if k >= 2:
            variants["center one leaf short"] = induced_subgraph(
                variants["relabeled"], full & ~(1 << spokes[0][1]))
        for name, h in variants.items():
            shape = _corona_shape(h)
            assert _fit(shape) == corona_fit_reference(h), name
            if name in ("relabeled", "missing center edge"):
                assert shape == ((centers, ell) if ell >= 2 else None), name
            elif ell >= 2:  # with ell = 1 some are coronas (P_4 - leaf = P_3)
                assert shape is None, name


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
        k4_minus_01 = from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        v = check_edge_bound(k4_minus_01)
        assert v.status == HOLDS
        assert v.slack == v.lhs - v.rhs >= 0

    def test_galvin_goddard_equality_on_c4(self):
        v = check_galvin_goddard(cycle(4))
        assert v.status == HOLDS and v.equality
        assert v.witness == {"p": 1, "q": 1}

    def test_galvin_goddard_on_complete(self):
        v = check_galvin_goddard(k_n(4))
        assert v.status == HOLDS  # p = 0 makes the bound trivial
        # sigma_v + omega_v <= n + 1, so n - p - q >= 1 on every graph.
        for g in dedup_classes(7):
            w = check_galvin_goddard(g).witness
            assert g.n - w["p"] - w["q"] >= 1, g


class TestFamilies:
    def test_clique_of_stars_shape(self):
        g = clique_of_stars(3, 2)
        assert g.n == 9 and g.edge_count == 3 + 6
        assert star(3).n == 4

    def test_generate_family_dispatch(self):
        assert generate_family("complete", (4,)) == k_n(4)
        assert generate_family("star", (3,)) == star(3)
        assert generate_family("odd-cycle", (5,)) == cycle(5)
        assert are_isomorphic(generate_family("clique-of-stars", (2, 1)),
                              path(4))

    @pytest.mark.parametrize("kind, params", [
        ("complete", ()), ("complete", (0,)), ("star", (1, 2)),
        ("odd-cycle", (4,)), ("clique-of-stars", (0, 1)),
        ("clique-of-stars", (2,)),
    ])
    def test_parameter_validation(self, kind, params):
        with pytest.raises(ValueError):
            generate_family(kind, params)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown family"):
            generate_family("moebius", (5,))
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

    @pytest.mark.parametrize("alpha, tau, c, name", [
        (2, 2, -1, "c"), (-1, 3, 1, "alpha"), (2, -1, 1, "tau")])
    def test_negative_parameters_are_rejected_before_the_stream(
            self, alpha, tau, c, name):
        read = []

        def stream():
            read.append(True)
            yield cycle(5)
        message = f"^{name} must be >= 0, not {min(alpha, tau, c)}$"
        with pytest.raises(ValueError, match=message):
            catalog_min_edges(alpha, tau, c, stream())
        assert not read
