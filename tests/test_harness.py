"""Enumeration streams and the sharded scan harness."""

import dataclasses
import hashlib
import io
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import giwb.harness as harness
from conftest import brute_force_scan, orbits_reference
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


class TestClassWalk:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_walk_equals_the_reference_walk(self, n):
        got = list(harness._orbits(n))
        want = list(orbits_reference(n))
        assert [mask for mask, _, _ in got] == [mask for mask, _ in want]
        for (mask, _, orbit), (_, ref) in zip(got, want):
            assert type(mask) is int
            assert orbit.dtype == ref.dtype and orbit.shape == ref.shape
            assert np.array_equal(orbit, ref), mask

    @pytest.mark.parametrize("n", range(1, 8))
    def test_each_mask_is_the_minimum_of_its_orbit(self, n):
        # Orbit-stabilizer: n! images, each member |Aut| times, so the
        # weight n!/|Aut| counts the distinct members; the orbits partition
        # the 2^C(n,2) edge masks.
        n_perms = math.factorial(n)
        total = 0
        for mask, weight, orbit in harness._orbits(n):
            assert orbit.shape == (n_perms,)
            assert mask == orbit.min()
            assert type(weight) is int
            assert weight == n_perms // np.count_nonzero(orbit == mask)
            assert weight == len(np.unique(orbit))
            total += weight
        assert total == 1 << math.comb(n, 2)

    def test_walk_memory_stays_small(self):
        # numpy, imported above, registers its buffers with tracemalloc.
        # The n = 7 walk holds the 2^21 seen marks (2 MiB) and its chunk
        # tables (2.2 MiB at three edge bits a chunk); 7-bit tables (15 MiB)
        # would raise the peak RSS of a dedup n = 7 scan by a third.
        tracemalloc.start()
        try:
            for _ in harness._orbits(7):
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 6 << 20, peak / 2 ** 20


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


# SHA-256 of ``ScanReport.body_text()`` with every check, keyed by
# (n, dedup, connected_only), and of the ``enumerate_graphs(n, dedup=True)``
# graph6 stream, one graph a line, keyed by n.  Recorded from the
# gather-and-sum class walk that the chunk-table walk replaced; a change that
# moves one of them must show why the new body is right.
GOLDEN_BODIES = {
    (1, False, False):
        "1aabb80d8101d02019f18e11bd099e7c1f906a259cac891029bbd67d36658bc2",
    (1, False, True):
        "fe1e0319dc046a1245f901fd7839f9af7a1b4cf75350e2e0db1fc0875cea75b5",
    (1, True, False):
        "c8c6e9c94ee56999623d424ad61ab96c6d25f08439720783d3228a58e568eb55",
    (1, True, True):
        "0b1e857c5908063bcaa469029624e4ae27eede41c40f22d8ec891bcb13ae8853",
    (2, False, False):
        "bb0b9eab38e7c9cf2bae6ff4a6b294a5a1e8abdd2cbba6061b2c84b8dea41e9a",
    (2, False, True):
        "66c7e123bf140813cc4c6dc6338573aefac00241925533709d220c556d25135e",
    (2, True, False):
        "bd79f52fce9556407892292bab795d3dbe88f66d2ec4d51428d69e5095b7b0ed",
    (2, True, True):
        "dc45de6c5b4ef1a37eeb55fe581b7ef0265217a36c0e1696fe7008fb703128df",
    (3, False, False):
        "e1fae0fa921e6bbc27e9cd5d3f687575a99f8e9f8e346cc474a8574dc851884a",
    (3, False, True):
        "817811e720da0b2c65a129f00ea5fd087412a66e3c538f13fec8c4bdee9d3c9e",
    (3, True, False):
        "68d6759f64b01994ca9bff9014a18868581bcea619c9d52eb628904efa737eb4",
    (3, True, True):
        "0218345d9d6adb20d4399a3fa4c0a77929675efdf0cd6731aa2ff32f8eaef72a",
    (4, False, False):
        "73602b8f4831028a92f93dd3e4b185ca9df6651446b815ed86f29f0e0a8acde4",
    (4, False, True):
        "6c2301c75a8e4fd2078e5b35210c6b8ae2018e71bab59fcf24ef44e357aa6bb0",
    (4, True, False):
        "434d925e642fd004b6b908ebde57c7655aa5d14a1cce95520b0a17cd251e4c57",
    (4, True, True):
        "a75763bdbe8e4019ea056c0005aafa8ef2e6600cde25ca69b036dc761bb76b71",
    (5, False, False):
        "40fe8dc0750afbc064021f9dcdabde75a8f898ee05807605d03342dbacf71ff6",
    (5, False, True):
        "6c98cf72e5175c634182cac74dc38d5050b9ae8702734ff23611fa921e551bf6",
    (5, True, False):
        "affd3ca1479d05bcef627ddc364160437052ff9df1a8a0f9da8cd9724b5f46d4",
    (5, True, True):
        "c5a098bee9b6724098295d8ef19ec3500be1ac9f42eefaf654be7bf90a48bb4e",
    (6, False, False):
        "12c8f2298ac06dd6f57a0d4bee7336acda363dedbf09cd8d385b0ac4a0c21bd7",
    (6, False, True):
        "5bfea170317176680b683ea8d1cca3465556e99c8174ba8db0f9c711dbe6f4c6",
    (6, True, False):
        "3ac7b00b80b7ba26075a0e90bd9ade66fe56aaffcdbb0d2775be2f1d9cb06436",
    (6, True, True):
        "5f746a2c14419c858f1d8c6a8943a6d994b4fdf56300bb84e55f3679ee45720b",
    (7, False, False):
        "f8c80e8299d41bb0fd4e305fe8d30bdf2209cf8fe89b2b0a335c25255ad5823c",
    (7, False, True):
        "7094e4c5d51fcd73fe888a4d5c5606ee797ab6f1d08c595b871d2fe148365f38",
    (7, True, False):
        "8f582b65d989063ee6dc9c08329ef8beef9c99f661017cce43953ba974c6a19d",
    (7, True, True):
        "b87d0b077091524e590734d9547f3f6f242f7e74fa6097645b214ea0fba611e7",
}
GOLDEN_CLASS_STREAMS = {
    1: "ecf5de1a2ecc66a1876a832804c64f6b5125784e94c82285d9720621c613ab46",
    2: "b7cd2a004ade86133158ffa94292f1d79a1fa154874706bf33b9e841cd3fa4cb",
    3: "a1680d75ef87e824903a43a0f5a4c37577b6945842554674563d48ca3cc90e3d",
    4: "65ef34378cc8a79e252929a66a5b32ecd374d6ec6e30ea4360abbd2c49d6a3ca",
    5: "251047a1d7b1b00ea80958f665dad24b670c93bf073755261f64191d1fdea5e9",
    6: "d862213886164219c3f965a16bbf5df4a1f2332e695705c7f0d9caa1265512ee",
    7: "8b0185a40a698f507bca6e576a1750eda90cdb65646b4a7e9a1c2e25f1d8df74",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestGoldenDigests:
    def test_every_scan_body_is_unchanged(self):
        got = {key: _sha256(scan(ScanConfig(
                   checks=tuple(CHECKS), n=key[0], dedup=key[1],
                   connected_only=key[2])).body_text())
               for key in GOLDEN_BODIES}
        assert got == GOLDEN_BODIES

    def test_every_class_stream_is_unchanged(self):
        got = {n: _sha256("".join(to_graph6(g) + "\n"
                                  for g in enumerate_graphs(n, dedup=True)))
               for n in GOLDEN_CLASS_STREAMS}
        assert got == GOLDEN_CLASS_STREAMS


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

    def test_violations_are_recorded_once_per_class(self, monkeypatch):
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
            per_class = scan(dataclasses.replace(config, dedup=True))
            assert per_class.violations
            for shards in (1, 3):
                got = scan(dataclasses.replace(config, shard_count=shards))
                assert (got.graph_count, got.totals) == (want.graph_count,
                                                         want.totals)
                assert got.violations == per_class.violations
        # n = 4: 11 classes; the 3-edge ones (K_3 + K_1, P_4, K_1,3) have
        # orbits of 4, 12 and 4 graphs, the 4-edge ones (C_4, the paw) of 3
        # and 12: 35 labeled violators, one record for each class.
        rep = scan(ScanConfig(checks=("theorem1",), n=4))
        assert len(rep.violations) == 5
        assert rep.totals["theorem1"].violated == 35
        assert rep.graphs_analysed == 11

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
