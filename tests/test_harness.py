"""Enumeration streams and the sharded scan harness."""

import io

import pytest

from giwb.bounds import are_isomorphic
from giwb.graphs import GraphFormatError, to_graph6
from giwb.harness import (CHECKS, THEOREM_CHECKS, ScanConfig,
                          enumerate_graphs, graphs_from_file,
                          normalize_check_name, scan)


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


class TestScanConfig:
    def test_check_name_normalization(self):
        assert normalize_check_name("Edge_Bound") == "edge-bound"
        with pytest.raises(ValueError, match="unknown check"):
            normalize_check_name("theorem9")
        cfg = ScanConfig(checks=("theorem_1".replace("_1", "1"),), n=3)
        assert cfg.checks == ("theorem1",)

    def test_source_exclusivity(self):
        with pytest.raises(ValueError, match="exactly one"):
            ScanConfig(checks=("theorem1",))
        with pytest.raises(ValueError, match="exactly one"):
            ScanConfig(checks=("theorem1",), n=3, path="x.g6")

    def test_validation(self):
        with pytest.raises(ValueError, match="shard_count"):
            ScanConfig(checks=("theorem1",), n=3, shard_count=0)
        with pytest.raises(ValueError, match="at least one check"):
            ScanConfig(checks=(), n=3)

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

    def test_zero_violations_on_small_orders(self):
        rep = scan(ScanConfig(checks=("theorem1", "cor1", "edge-bound"), n=5))
        assert rep.violations == []
        assert rep.theorem_violations == [] and rep.finding_violations == []

    def test_shard_count_does_not_change_the_report_body(self):
        bodies = set()
        for shards in (1, 2, 8):
            rep = scan(ScanConfig(checks=("theorem1", "theorem1-equality",
                                          "edge-bound"),
                                  n=5, shard_count=shards))
            bodies.add(rep.body_text())
        assert len(bodies) == 1

    def test_dedup_and_labeled_scans_agree_on_violation_freeness(self):
        # The checks are isomorphism-invariant, so a dedup scan is violation
        # free exactly when the labeled scan is.
        labeled = scan(ScanConfig(checks=("theorem1",), n=4))
        dedup = scan(ScanConfig(checks=("theorem1",), n=4, dedup=True))
        assert bool(labeled.violations) == bool(dedup.violations) == False

    def test_file_source(self, tmp_path):
        path = tmp_path / "in.g6"
        path.write_text("Dhc\nCl\n")
        rep = scan(ScanConfig(checks=("theorem1",), path=str(path)))
        assert rep.graph_count == 2
        assert rep.totals["theorem1"].holds == 2
        assert rep.body_dict()["source"] == {"file": str(path)}

    def test_tsv_header(self):
        rep = scan(ScanConfig(checks=("theorem1",), n=3))
        assert rep.violations_tsv().splitlines()[0] == \
            "graph6\tcheck\tlhs\trhs\tslack"
