"""Enumeration streams and the sharded scan harness."""

import dataclasses
import io
import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

import giwb.harness as harness
from conftest import brute_force_scan
from giwb.bounds import (HOLDS, VIOLATED, Verdict, are_isomorphic,
                         catalog_min_edges)
from giwb.graphs import (GraphFormatError, component_count, from_edges,
                         to_graph6)
from giwb.harness import (CHECKS, THEOREM_CHECKS, CheckTotals, ScanConfig,
                          check_names, enumerate_graphs, graphs_from_file,
                          normalize_check_name, scan)
from giwb.invariants import GraphAnalysis


class TestEnumeration:
    def test_labeled_counts(self):
        for n, expected in [(1, 1), (2, 2), (3, 8), (4, 64), (5, 1024)]:
            assert sum(1 for _ in enumerate_graphs(n)) == expected

    def test_dedup_counts_match_isomorphism_classes(self):
        # Known counts of graphs up to isomorphism.
        for n, expected in [(1, 1), (2, 2), (3, 4), (4, 11), (5, 34),
                            (6, 156), (7, 1044)]:
            assert sum(1 for _ in enumerate_graphs(n, dedup=True)) == expected

    def test_dedup_representatives_are_pairwise_nonisomorphic(self):
        reps = list(enumerate_graphs(4, dedup=True))
        for i, g in enumerate(reps):
            for h in reps[i + 1:]:
                assert not are_isomorphic(g, h)

    def test_every_labeled_graph_has_a_dedup_representative(self):
        reps = list(enumerate_graphs(4, dedup=True))
        for g in enumerate_graphs(4):
            assert any(are_isomorphic(g, r) for r in reps)

    def test_connected_filter(self):
        assert sum(1 for _ in enumerate_graphs(3, connected_only=True)) == 4

    def test_order_bounds(self):
        with pytest.raises(ValueError):
            list(enumerate_graphs(0))
        with pytest.raises(ValueError):
            list(enumerate_graphs(8))

    def test_graphs_from_file(self, tmp_path):
        path = tmp_path / "graphs.g6"
        path.write_text("Dhc\n\nBw\n")
        gs = list(graphs_from_file(str(path)))
        assert [g.n for g in gs] == [5, 3]
        assert [to_graph6(g) for g in gs] == ["Dhc", "Bw"]

    def test_graphs_from_file_detects_format_past_comments(self, tmp_path):
        path = tmp_path / "tri.txt"
        path.write_text("\n# a triangle\nn 3\n0 1\n# closing edge\n1 2\n0 2\n")
        assert [to_graph6(g) for g in graphs_from_file(str(path))] == ["Bw"]

    def test_graphs_from_stdin(self, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("# two graphs\nDhc\n\nBw\n"))
        assert [to_graph6(g) for g in graphs_from_file("-")] == ["Dhc", "Bw"]

    def test_graphs_from_file_without_graphs(self, tmp_path):
        path = tmp_path / "empty.g6"
        path.write_text("\n   \n# only a comment\n")
        with pytest.raises(GraphFormatError, match="no graphs in input"):
            list(graphs_from_file(str(path)))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_catalog_over_classes_equals_catalog_over_labeled_graphs(self, n):
        # Streams are pre-split by (alpha, tau, c) so that each graph is
        # analysed once; the split keeps stream order and drops only graphs
        # the catalog would skip, so it leaves each catalog unchanged.
        def split(stream):
            groups = {}
            for g in stream:
                an = GraphAnalysis(g)
                groups.setdefault((an.alpha, an.tau, component_count(g)),
                                  []).append(g)
            return groups
        labeled = split(enumerate_graphs(n))
        classes = split(enumerate_graphs(n, dedup=True))
        assert labeled.keys() == classes.keys()
        for alpha in range(1, n + 1):
            for c in range(1, n + 1):
                key = (alpha, n - alpha, c)
                assert (catalog_min_edges(*key, classes.get(key, []))
                        == catalog_min_edges(*key, labeled.get(key, []))), key


class TestScanConfig:
    def test_check_name_normalization(self):
        assert normalize_check_name("Edge_Bound") == "edge-bound"
        with pytest.raises(ValueError, match="unknown check"):
            normalize_check_name("theorem9")
        cfg = ScanConfig(checks=("theorem_1".replace("_1", "1"),), n=3)
        assert cfg.checks == ("theorem1",)

    def test_source_exclusivity(self):
        # The order is the only source.
        with pytest.raises(TypeError, match="'n'"):
            ScanConfig(checks=("theorem1",))
        with pytest.raises(ValueError, match="1 <= n <= 7"):
            ScanConfig(checks=("theorem1",), n=8)

    def test_validation(self):
        with pytest.raises(ValueError, match="shard_count"):
            ScanConfig(checks=("theorem1",), n=3, shard_count=0)
        with pytest.raises(ValueError, match="at least one check"):
            ScanConfig(checks=(), n=3)

    def test_a_check_named_twice_is_rejected(self):
        with pytest.raises(ValueError, match="'theorem1' is named more"):
            ScanConfig(checks=("theorem1", "Theorem1"), n=3)
        with pytest.raises(ValueError, match="named more than once"):
            check_names(["cor1", "edge-bound", "Cor1"])
        assert check_names(["Edge_Bound", "cor1"]) == ("edge-bound", "cor1")

    def test_registry_split(self):
        assert THEOREM_CHECKS <= set(CHECKS)
        assert "conj1" in CHECKS and "conj1" not in THEOREM_CHECKS
        assert "theorem1" in THEOREM_CHECKS


class TestScan:
    def test_totals_account_for_every_graph(self):
        rep = scan(ScanConfig(checks=("theorem1", "edge-bound"), n=4))
        assert rep.graph_count == 64
        for name in ("theorem1", "edge-bound"):
            t = rep.totals[name]
            assert (t.applicable + t.not_applicable + t.unchecked
                    == rep.graph_count)

    def test_an_unknown_status_is_an_error(self):
        totals = CheckTotals()
        totals.add(Verdict(HOLDS, lhs=1, rhs=1, slack=0, equality=True), 3)
        with pytest.raises(RuntimeError, match="unknown verdict status"):
            totals.add(Verdict("unchecked"))
        assert totals == CheckTotals(applicable=3, holds=3, equality=3)

    def test_zero_violations_on_small_orders(self):
        rep = scan(ScanConfig(checks=("theorem1", "cor1", "edge-bound"), n=5))
        assert rep.violations == []
        assert rep.theorem_violations == []

    def test_shard_count_does_not_change_the_report_body(self):
        bodies = set()
        for shards in (1, 2, 8):
            rep = scan(ScanConfig(checks=("theorem1", "theorem1-equality",
                                          "edge-bound"),
                                  n=5, shard_count=shards))
            bodies.add(rep.body_text())
        assert len(bodies) == 1

    @pytest.mark.parametrize("n, classes", [(1, 1), (2, 2), (3, 4)])
    def test_sub_totals_only_for_residues_that_get_a_class(self, n, classes,
                                                          monkeypatch):
        made = []

        class CountedTotals(CheckTotals):
            def __init__(self, *args, **kwargs):
                made.append(self)
                super().__init__(*args, **kwargs)
        one = scan(ScanConfig(checks=("theorem1",), n=n)).body_text()
        monkeypatch.setattr(harness, "CheckTotals", CountedTotals)
        many = scan(ScanConfig(checks=("theorem1",), n=n,
                               shard_count=100_000))
        assert many.body_text() == one
        # One set per residue that got a class, plus the report's own.
        assert len(made) <= classes + 1

    def test_dedup_and_labeled_scans_agree_on_violation_freeness(self):
        # The checks are isomorphism-invariant, so a dedup scan is violation
        # free exactly when the labeled scan is.
        labeled = scan(ScanConfig(checks=("theorem1",), n=4))
        dedup = scan(ScanConfig(checks=("theorem1",), n=4, dedup=True))
        assert bool(labeled.violations) == bool(dedup.violations) == False

    def test_tsv_header(self):
        rep = scan(ScanConfig(checks=("theorem1",), n=3))
        assert rep.violations_tsv().splitlines()[0] == \
            "graph6\tcheck\tlhs\trhs\tslack"


@st.composite
def relabeled_pairs(draw):
    """A random graph on at most 7 vertices and a random relabeling of it."""
    n = draw(st.integers(1, 7))
    pairs = list(itertools.combinations(range(n), 2))
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    perm = draw(st.permutations(range(n)))
    edges = [e for i, e in enumerate(pairs) if mask >> i & 1]
    return (from_edges(n, edges),
            from_edges(n, [(perm[u], perm[v]) for u, v in edges]))


class TestOrbitWeighting:
    @settings(max_examples=200, deadline=None)
    @given(relabeled_pairs())
    def test_every_check_is_invariant_under_relabeling(self, pair):
        g, h = pair
        for name, check in CHECKS.items():
            a, b = check(g, GraphAnalysis(g)), check(h, GraphAnalysis(h))
            assert ((a.status, a.equality, a.lhs, a.rhs, a.slack)
                    == (b.status, b.equality, b.lhs, b.rhs, b.slack)), name

    @pytest.mark.parametrize("connected_only", [False, True])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_weighted_scan_equals_brute_force(self, n, connected_only):
        # Dedup scans walk the same classes with weight 1.
        for dedup in (False, True):
            config = ScanConfig(checks=tuple(CHECKS), n=n,
                                connected_only=connected_only, dedup=dedup)
            want = brute_force_scan(config).body_text()
            for shards in (1, 3):
                got = scan(dataclasses.replace(config, shard_count=shards))
                assert got.body_text() == want, (dedup, shards)

    def test_violating_orbits_are_replayed_member_by_member(self,
                                                            monkeypatch):
        # Real scans find no violations, so inject one on an invariant
        # property, with a witness that depends on the labeling.
        real = CHECKS["theorem1"]

        def three_or_four_edges_violate(g, an):
            v = real(g, an)
            if g.edge_count not in (3, 4):
                return v
            return Verdict(VIOLATED, lhs=v.lhs, rhs=v.rhs,
                           slack=-1, witness={"edges": list(g.edges())})
        monkeypatch.setitem(CHECKS, "theorem1", three_or_four_edges_violate)
        for n, connected_only, dedup in [(4, False, False), (5, False, False),
                                         (5, True, False), (5, False, True)]:
            config = ScanConfig(checks=("theorem1", "edge-bound"), n=n,
                                connected_only=connected_only, dedup=dedup)
            want = brute_force_scan(config)
            assert want.violations
            for shards in (1, 3):
                got = scan(dataclasses.replace(config, shard_count=shards))
                assert got.body_text() == want.body_text()
        # n = 4: 11 classes; the 3-edge ones (K_3 + K_1, P_4, K_1,3) have
        # orbits of 4, 12 and 4 graphs, the 4-edge ones (C_4, the paw) of 3
        # and 12, and the other 35 - 5 members of these orbits are replayed.
        rep = scan(ScanConfig(checks=("theorem1",), n=4))
        assert len(rep.violations) == math.comb(6, 3) + math.comb(6, 4)
        assert rep.graphs_analysed == 11 + 30

    def test_unreplayed_runs_analyse_one_graph_per_class(self):
        rep = scan(ScanConfig(checks=("theorem1",), n=6))
        assert (rep.graph_count, rep.graphs_analysed) == (1 << 15, 156)
        dedup = scan(ScanConfig(checks=("theorem1",), n=6, dedup=True))
        assert dedup.graph_count == dedup.graphs_analysed == 156

    def test_weights_that_miss_a_class_are_an_error(self, monkeypatch):
        real = harness._orbits
        monkeypatch.setattr(harness, "_orbits",
                            lambda n: itertools.islice(real(n), 1, None))
        with pytest.raises(RuntimeError, match="orbit weights add up to"):
            scan(ScanConfig(checks=("theorem1",), n=4))
        with pytest.raises(RuntimeError, match="orbit weights add up to"):
            scan(ScanConfig(checks=("theorem1",), n=4, dedup=True))
