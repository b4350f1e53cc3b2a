"""Clique systems and the conjecture checkers."""

import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

import giwb.conjectures as conjectures
from conftest import (check_conjecture1_reference, check_conjecture3_reference,
                      clique_systems_oracle, complement_oracle, dedup_classes,
                      edgeless, maximum_stable_sets_oracle, omega_e_oracle,
                      sigma_v_oracle)
from giwb.bounds import (HOLDS, NOT_APPLICABLE, VIOLATED, complete as k_n,
                         cycle, path)
from giwb.conjectures import (CliqueSystem, check_conjecture1_bound,
                              check_conjecture1_full, check_conjecture3,
                              check_omega_v_substitution, clique_system_search)
from giwb.graphs import from_edges, mask_of, parse_graph6
from giwb.harness import enumerate_graphs
from giwb.invariants import GraphAnalysis, maximum_stable_sets
from test_graphs import graphs, graphs_up_to, small_graphs
from test_products import union


class TestCliqueSystem:
    def test_search_on_c4(self):
        g = cycle(4)
        system = clique_system_search(g, 0b0101, 2)
        assert system is not None
        assert system.validate(g, 0b0101, 2)

    def test_search_agrees_with_oracle_on_small_graphs(self):
        for g in [cycle(4), cycle(5), cycle(7), k_n(4), path(5),
                  from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5),
                                 (5, 0), (0, 3)])]:
            for stable in maximum_stable_sets(g):
                for order in (1, 2, 3):
                    found = clique_system_search(g, stable, order)
                    oracle = clique_systems_oracle(g, stable, order)
                    assert (found is not None) == bool(oracle), (g, stable, order)
                    if found is not None:
                        assert found.parts in [tuple(sorted(s))
                                               for s in oracle] or \
                            found.validate(g, stable, order)

    def test_no_system_when_cliques_too_large(self):
        g = cycle(5)
        stable = maximum_stable_sets(g)[0]
        assert clique_system_search(g, stable, 3) is None

    def test_rejects_a_set_that_is_not_stable(self):
        with pytest.raises(ValueError, match="not a stable set"):
            clique_system_search(cycle(5), 0b00011, 2)
        with pytest.raises(ValueError, match="order"):
            clique_system_search(cycle(5), 0b00101, 0)

    @pytest.mark.parametrize("stable", [
        0b00001,    # stable but below alpha = 2: decided all the same
        0b00011,    # 0-1 is an edge of C_5
        0b10100,    # 2-4 is no edge: stable, maximum
        0b100001,   # a vertex beyond n
    ])
    def test_precondition(self, stable):
        g = cycle(5)
        if stable in (0b00001, 0b10100):
            system = clique_system_search(g, stable, 2)
            assert system is not None and system.validate(g, stable, 2)
        else:
            with pytest.raises(ValueError, match="not a stable set"):
                clique_system_search(g, stable, 2)

    def test_full_check_enumerates_once_per_component(self, monkeypatch):
        calls = []
        real = conjectures.maximum_stable_sets

        def counted(g, subset=None):
            calls.append(subset)
            return real(g, subset)
        monkeypatch.setattr(conjectures, "maximum_stable_sets", counted)
        g = cycle(7)  # seven maximum stable sets, one search each
        assert len(maximum_stable_sets(g)) == 7
        assert check_conjecture1_full(g).status == HOLDS
        assert calls == [g.full_mask]
        calls.clear()
        v = check_conjecture1_full(functools.reduce(union, [k_n(3)] * 21))
        assert v.status == HOLDS
        assert len(calls) == 21

    def test_validate_rejects_bad_systems(self):
        g = cycle(4)
        stable = 0b0101
        assert not CliqueSystem((0b0011, 0b0011)).validate(g, stable, 2)  # overlap
        assert not CliqueSystem((0b0101,)).validate(g, stable, 2)  # non-edge
        assert not CliqueSystem((0b0011, 0b1000)).validate(g, stable, 2)  # size
        c5 = parse_graph6("Dhc")
        stable = 0b00101
        assert not CliqueSystem(()).validate(c5, stable, 2)  # no part at all
        assert not CliqueSystem((0b00011,)).validate(c5, stable, 2)  # misses 2
        assert not CliqueSystem(  # a part on vertices 5 and 6, beyond n
            (0b00011, 0b01100, 0b1100000)).validate(c5, 0b0100101, 2)

    def test_deterministic_witness(self):
        g = cycle(4)
        first = clique_system_search(g, 0b0101, 2)
        second = clique_system_search(g, 0b0101, 2)
        assert first == second


class TestSearchAgainstOracle:
    """The one backtracking search against every system raw enumeration
    finds, on every maximum stable set and clique orders 1-4."""

    @staticmethod
    def assert_agrees(g):
        for stable in maximum_stable_sets_oracle(g):
            for order in range(1, 5):
                found = clique_system_search(g, stable, order)
                systems = clique_systems_oracle(g, stable, order)
                assert (found is not None) == bool(systems), (g, stable, order)
                if found is not None:
                    assert found.validate(g, stable, order)
                    assert sorted(found.parts) in [sorted(s) for s in systems]

    @settings(deadline=None)
    @given(small_graphs)
    def test_small_graphs(self, g):
        self.assert_agrees(g)

    def test_every_class_up_to_6(self):
        for g in dedup_classes(6):
            self.assert_agrees(g)


class TestConjecture1:
    def test_bound_on_odd_cycle(self):
        v = check_conjecture1_bound(cycle(5))
        assert v.status == HOLDS and (v.lhs, v.rhs) == (4, 5)
        assert v.witness == {"omega_e": 2, "sigma_v": 2}

    def test_bound_filters(self):
        assert check_conjecture1_bound(path(3)).status == NOT_APPLICABLE
        assert check_conjecture1_bound(edgeless(3)).status == NOT_APPLICABLE

    def test_full_check_on_cycles(self):
        for n in (4, 5, 7):
            v = check_conjecture1_full(cycle(n))
            assert v.status == HOLDS, n

    def test_full_equality_on_even_cycle(self):
        v = check_conjecture1_full(cycle(4))
        assert v.status == HOLDS and v.equality

    def test_full_not_applicable_mirrors_bound(self):
        assert check_conjecture1_full(path(3)).status == NOT_APPLICABLE


class TestComponents:
    """conj1 decided once per component against the whole-graph walk of
    conftest: the same status, bound, equality and witness."""

    @staticmethod
    def assert_agrees(g):
        assert (check_conjecture1_full(g)
                == check_conjecture1_reference(g, GraphAnalysis(g)))

    @staticmethod
    def relabelled(g, rng):
        order = list(range(g.n))
        rng.shuffle(order)
        return from_edges(g.n, [(order[u], order[v]) for u, v in g.edges()])

    def test_every_class_up_to_7(self):
        for g in dedup_classes(7):
            self.assert_agrees(g)

    @settings(deadline=None)
    @given(graphs)
    def test_hypothesis_graphs(self, g):
        self.assert_agrees(g)

    @settings(deadline=None)
    @given(st.lists(graphs_up_to(6, 1), min_size=2, max_size=3))
    def test_hypothesis_unions(self, parts):
        self.assert_agrees(functools.reduce(union, parts))

    def test_relabelled_unions_with_the_9_vertex_finding(self):
        # 1-2 copies of HcdePhT and 0-2 isolate-free B-graphs on n <= 5,
        # under a random vertex order, so that the failing sets and the
        # smallest ones interleave across the components.
        rng = random.Random(23)
        conj1 = parse_graph6("HcdePhT")
        b_graphs = [g for g in dedup_classes(5) if not g.has_isolated_vertex()
                    and GraphAnalysis(g).is_b_graph]
        statuses = set()
        for _ in range(200):
            parts = ([conj1] * rng.randint(1, 2)
                     + rng.choices(b_graphs, k=rng.randint(0, 2)))
            rng.shuffle(parts)
            g = self.relabelled(functools.reduce(union, parts), rng)
            v = check_conjecture1_full(g)
            assert v == check_conjecture1_reference(g, GraphAnalysis(g)), g
            statuses.add((v.status, (v.witness or {}).get("failed")))
        assert statuses == {(HOLDS, None), (VIOLATED, "clique-system")}

    def test_relabelled_unions_that_fail_late(self):
        # Every maximum stable set of HcdePhT fails, so the unions above
        # never fail past a component's smallest set.  These one-vertex
        # extensions of it first fail at their 2nd or 6th maximum stable
        # set, and a union of two picks the least excess over both.
        rng = random.Random(23)
        late = [parse_graph6(t) for t in ("IcdePhTX?", "IcdePhTq_")]
        witnesses = set()
        for _ in range(40):
            g = self.relabelled(union(*rng.choices(late, k=2)), rng)
            v = check_conjecture1_full(g)
            assert v == check_conjecture1_reference(g, GraphAnalysis(g)), g
            witnesses.add(tuple(v.witness["stable_set"]))
        assert len(witnesses) > 1

    def test_21_triangles_take_63_searches(self, monkeypatch):
        searched = []
        real = conjectures.clique_system_search

        def counted(g, stable, order):
            searched.append(stable)
            return real(g, stable, order)
        monkeypatch.setattr(conjectures, "clique_system_search", counted)
        v = check_conjecture1_full(functools.reduce(union, [k_n(3)] * 21))
        assert (v.status, v.lhs, v.rhs, v.equality) == (HOLDS, 63, 63, True)
        assert len(searched) == 63


class TestConjecture3:
    def test_holds_on_odd_cycle(self):
        v = check_conjecture3(cycle(5))
        assert v.status == HOLDS and (v.lhs, v.rhs) == (4, 5)

    def test_hypothesis_filters(self):
        # K_4: sigma_e undefined (complete graph); edgeless: omega_e undefined.
        assert check_conjecture3(k_n(4)).status == NOT_APPLICABLE
        assert check_conjecture3(edgeless(3)).status == NOT_APPLICABLE

    def test_dominated_graphs_fall_outside_the_intended_domain(self):
        # P_3 and K_{1,3} satisfy the raw equalities alpha = sigma_e and
        # omega = omega_e only because the sigma chain breaks at their
        # dominating vertex; the checker keeps them not-applicable.
        star3 = from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert check_conjecture3(path(3)).status == NOT_APPLICABLE
        assert check_conjecture3(star3).status == NOT_APPLICABLE

    @given(graphs)
    def test_filter_order_keeps_the_verdict(self, g):
        assert (check_conjecture3(g, GraphAnalysis(g))
                == check_conjecture3_reference(g, GraphAnalysis(g)))

    def test_filter_order_keeps_the_verdict_on_every_class(self):
        for n in range(1, 7):
            for g in enumerate_graphs(n, dedup=True):
                assert (check_conjecture3(g, GraphAnalysis(g))
                        == check_conjecture3_reference(g, GraphAnalysis(g)))

    def test_non_b_graph_skips_the_per_edge_invariants(self):
        star = from_edges(10, [(0, v) for v in range(1, 10)])
        an = GraphAnalysis(star)
        assert check_conjecture3(star, an).status == NOT_APPLICABLE
        assert an.sigma_v != an.alpha
        assert "omega_e" not in an.__dict__ and "sigma_e" not in an.__dict__


class TestOmegaVSubstitution:
    def test_descriptive_verdict_on_odd_cycle(self):
        v = check_omega_v_substitution(cycle(5))
        assert v.status == HOLDS
        assert v.witness == {"omega_v": 2, "sigma_v": 2}

    def test_filters(self):
        assert check_omega_v_substitution(path(3)).status == NOT_APPLICABLE


def _b_graph_oracle(g):
    """No isolated vertex, and every vertex lies in a maximum stable set
    (an empty tau-core)."""
    union = 0
    for s in maximum_stable_sets_oracle(g):
        union |= s
    return not g.has_isolated_vertex() and union == g.full_mask


class TestFindings:
    """The first conjecture findings (FINDINGS.md), each re-derived by the
    subset-enumeration oracles of conftest."""

    def test_omega_v_substitution_fails_on_8_vertices(self):
        g = parse_graph6("GB]eCK")
        assert g.n == 8 and _b_graph_oracle(g)
        sigma_v = sigma_v_oracle(g)
        omega_v = sigma_v_oracle(complement_oracle(g))
        assert (omega_v, sigma_v) == (3, 3) and omega_v * sigma_v > g.n
        v = check_omega_v_substitution(g)
        assert (v.status, v.lhs, v.rhs) == (VIOLATED, 9, 8)
        assert v.witness == {"omega_v": 3, "sigma_v": 3}

    def test_conjecture1_clique_system_fails_on_9_vertices(self):
        g = parse_graph6("HcdePhT")
        assert g.n == 9 and _b_graph_oracle(g)
        omega_e, sigma_v = omega_e_oracle(g), sigma_v_oracle(g)
        assert (omega_e, sigma_v) == (3, 3)  # the bound holds: 9 <= 9
        maxes = maximum_stable_sets_oracle(g)
        assert len(maxes) == 8 and mask_of([1, 2, 3]) in maxes
        for stable in maxes:
            assert clique_systems_oracle(g, stable, omega_e) == [], stable
        v = check_conjecture1_full(g)
        assert (v.status, v.lhs, v.rhs) == (VIOLATED, 9, 9)
        assert v.witness == {"failed": "clique-system", "stable_set": [1, 2, 3]}
