"""Command-line interface: parsing, JSON output, and exit codes."""

import io
import json
import time

import pytest

import giwb.cli as cli
from giwb.bounds import VIOLATED, Verdict


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    records = [json.loads(line) for line in captured.out.splitlines()
               if line.startswith("{")]
    return code, records, captured


class TestInvariants:
    def test_inline_token(self, capsys):
        code, records, _ = run(capsys, "invariants", "Dhc")
        assert code == 0
        inv = records[0]["invariants"]
        assert (inv["alpha"], inv["tau"], inv["sigma_v"]) == (2, 3, 2)
        assert records[0]["graph6"] == "Dhc"

    def test_stdin_and_file_sources(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "g.g6"
        path.write_text("Bw\nBg\n")
        code, records, _ = run(capsys, "invariants", str(path))
        assert code == 0 and len(records) == 2

    def test_edge_list_file_autodetected(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("n 3\n0 1\n1 2\n")
        code, records, _ = run(capsys, "invariants", str(path))
        assert code == 0 and records[0]["invariants"]["alpha"] == 2

    def test_decompose(self, capsys):
        code, records, _ = run(capsys, "decompose", "Bg")
        assert code == 0
        assert records[0]["alpha_core"] == [0, 2]
        assert records[0]["tau_core"] == [1]
        assert records[0]["b_part"] == []


class TestGamma:
    def test_value_with_oracle(self, capsys):
        code, records, _ = run(capsys, "gamma", "--a", "2", "--t", "3",
                               "--oracle")
        assert code == 0
        assert records[0]["gamma"]["value"] == 4
        assert records[0]["oracle"] == 4

    def test_property_grid(self, capsys):
        code, records, _ = run(capsys, "gamma", "--properties", "4", "6")
        assert code == 0
        assert records[0]["inequalities_ok"] is True

    def test_missing_arguments(self, capsys):
        code, _, captured = run(capsys, "gamma")
        assert code == 2 and "needs --a and --t" in captured.err


class TestCheck:
    def test_all_checks_on_holding_graph(self, capsys):
        code, records, _ = run(capsys, "check", "--all", "Dhc")
        assert code == 0
        assert {r["check"] for r in records} == set(cli.CLI_CHECK_FLAGS)
        assert all(r["finding"] is False for r in records)

    def test_single_check_flag(self, capsys):
        code, records, _ = run(capsys, "check", "--edge-bound", "Dhc")
        assert code == 0 and len(records) == 1
        assert records[0]["equality"] is True

    def test_no_flags_is_a_usage_error(self, capsys):
        code, _, captured = run(capsys, "check", "Dhc")
        assert code == 2 and "at least one check" in captured.err

    def test_theorem_violation_exits_nonzero(self, capsys, monkeypatch):
        # No real graph violates a theorem check; exercise the exit-code
        # plumbing with a stubbed verdict.
        stub = Verdict("theorem1", VIOLATED, lhs=9, rhs=1, slack=-8)
        monkeypatch.setitem(cli.CHECKS, "theorem1", lambda g, an: stub)
        code, records, _ = run(capsys, "check", "--theorem1", "Dhc")
        assert code == 1
        assert records[0]["status"] == "violated"
        assert records[0]["finding"] is False

    def test_all_checks_share_one_analysis(self, capsys, monkeypatch):
        seen = []
        for name, fn in list(cli.CHECKS.items()):
            def recording(g, an, fn=fn):
                seen.append(an)
                return fn(g, an)
            monkeypatch.setitem(cli.CHECKS, name, recording)
        code, records, _ = run(capsys, "check", "--all", "Dhc")
        assert code == 0 and len(seen) == len(records) == len(cli.CLI_CHECK_FLAGS)
        assert seen[0] is not None and all(an is seen[0] for an in seen)

    def test_conjecture_violation_is_a_finding(self, capsys, monkeypatch):
        stub = Verdict("conj1", VIOLATED, lhs=9, rhs=1, slack=-8)
        monkeypatch.setitem(cli.CHECKS, "conj1", lambda g, an: stub)
        code, records, _ = run(capsys, "check", "--conj1", "Dhc")
        assert code == 0
        assert records[0]["finding"] is True


class TestSearch:
    def test_small_scan(self, capsys):
        code, records, _ = run(capsys, "search", "--n", "4",
                               "--checks", "theorem1,edge-bound")
        assert code == 0
        report = records[0]["report"]
        assert report["graph_count"] == 64
        assert report["violations"] == []
        assert "elapsed_seconds" in records[0]["runtime"]
        # 64 labeled graphs, checked once per isomorphism class.
        assert records[0]["runtime"]["graphs_analysed"] == 11
        assert "graphs_analysed" not in report

    def test_unknown_check_name(self, capsys):
        code, _, captured = run(capsys, "search", "--n", "3",
                                "--checks", "nonsense")
        assert code == 2 and "unknown check" in captured.err


class TestGenerateAndCatalog:
    def test_generate_pipes_into_check(self, capsys):
        code, _, captured = run(capsys, "generate", "--family",
                                "clique-of-stars", "--params", "2", "2")
        assert code == 0 and captured.out.strip() == "EsP?"

    def test_generate_bad_params(self, capsys):
        code, _, captured = run(capsys, "generate", "--family", "odd-cycle",
                                "--params", "4")
        assert code == 2 and "odd" in captured.err

    def test_catalog(self, capsys):
        code, records, _ = run(capsys, "catalog-min-edges", "--alpha", "2",
                               "--tau", "3", "--c", "1")
        assert code == 0
        cat = records[0]["catalog"]
        assert cat["min_edges"] == 5 and cat["lower_bound"] == 5

    def test_catalog_from_file(self, capsys, tmp_path):
        path = tmp_path / "in.g6"
        path.write_text("Dhc\n")
        code, records, _ = run(capsys, "catalog-min-edges", "--alpha", "2",
                               "--tau", "3", "--c", "1", "--input", str(path))
        assert code == 0 and records[0]["catalog"]["witness_graph6"] == "Dhc"


CATALOG = ("catalog-min-edges", "--alpha", "2", "--tau", "3", "--c", "1",
           "--input")


class TestInputs:
    def test_edge_list_after_a_comment(self, capsys, tmp_path):
        path = tmp_path / "tri.txt"
        path.write_text("# a triangle\nn 3\n0 1\n1 2\n0 2\n")
        code, records, _ = run(capsys, "invariants", str(path))
        assert code == 0 and records[0]["graph6"] == "Bw"

    def test_catalog_reads_edge_lists_from_file_and_stdin(
            self, capsys, tmp_path, monkeypatch):
        text = "n 5\n0 1\n1 2\n2 3\n3 4\n0 4\n"  # C_5, encoded Dhc
        path = tmp_path / "c5.txt"
        path.write_text(text)
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        for source in (str(path), "-"):
            code, records, _ = run(capsys, *CATALOG, source)
            assert code == 0, source
            assert records[0]["catalog"]["witness_graph6"] == "Dhc"

    @pytest.mark.parametrize("argv", [("invariants",), CATALOG])
    def test_input_without_graphs_exits_2(self, capsys, tmp_path, argv):
        path = tmp_path / "empty.txt"
        path.write_text("\n# nothing here\n")
        code, records, captured = run(capsys, *argv, str(path))
        assert code == 2 and not records
        assert "giwb: error: no graphs in input" in captured.err

    @pytest.mark.parametrize("argv", [("invariants",), CATALOG])
    def test_unreadable_paths_exit_2(self, capsys, tmp_path, argv):
        for source in (tmp_path, tmp_path / "missing.g6"):
            code, _, captured = run(capsys, *argv, str(source))
            assert code == 2 and "giwb: error:" in captured.err, source

    def test_records_stream_before_a_later_parse_error(self, capsys, tmp_path):
        path = tmp_path / "mixed.g6"
        path.write_text("Bw\nzz\n")
        code, records, captured = run(capsys, "invariants", str(path))
        assert code == 2 and [r["graph6"] for r in records] == ["Bw"]
        assert "giwb: error:" in captured.err


    @pytest.mark.parametrize("text, line", [
        ("Bw\nBw\nzz\nBw\n", 3),
        ("# two triangles, then junk\nBw\n\nBw\nzz\n", 5),
    ])
    def test_graph6_parse_error_names_its_line(self, capsys, tmp_path,
                                                text, line):
        path = tmp_path / "bad.g6"
        path.write_text(text)
        code, records, captured = run(capsys, "invariants", str(path))
        assert code == 2 and len(records) == 2
        assert f"giwb: error: line {line}: byte 2: " in captured.err


class TestErrors:
    def test_gamma_oracle_outside_its_domain_exits_2(self, capsys):
        start = time.perf_counter()
        code, _, captured = run(capsys, "gamma", "--a", "3000", "--t", "1",
                                "--oracle")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and "a + t <= 100" in captured.err

    def test_internal_error_exits_3(self, capsys, monkeypatch):
        def broken(g, an):
            raise RuntimeError("broken invariant")
        monkeypatch.setitem(cli.CHECKS, "theorem1", broken)
        code, records, captured = run(capsys, "check", "--theorem1", "Dhc")
        assert code == 3 and not records
        assert "RuntimeError: broken invariant" in captured.err

    def test_malformed_graph6_exits_2(self, capsys):
        code, _, captured = run(capsys, "check", "--all", "zzz\x01")
        assert code == 2 and "error:" in captured.err

    def test_unknown_subcommand_exits_2(self, capsys):
        assert cli.main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_records_carry_version(self, capsys):
        _, records, _ = run(capsys, "invariants", "Dhc")
        assert records[0]["version"]
