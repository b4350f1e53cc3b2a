"""Command-line interface: parsing, JSON output, and exit codes."""

import functools
import io
import itertools
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys
import time

import pytest

import giwb.cli as cli
from giwb.bounds import VIOLATED, Verdict, complete
from giwb.graphs import complement, to_graph6
from giwb.harness import CHECKS
from giwb.invariants import GraphAnalysis
from test_products import SQUARE, union


ROOT = pathlib.Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def readme_cli_lines() -> list[str]:
    """The ``giwb`` lines of the README's CLI example block."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("giwb ")]


def src_env(**extra) -> dict[str, str]:
    """The environment for a new Python process that imports giwb from this
    checkout's ``src``."""
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))


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

    @pytest.mark.parametrize("extra", [("--a", "2"), ("--t", "3"),
                                       ("--oracle",)])
    def test_properties_excludes_single_value_options(self, capsys, extra):
        code, records, captured = run(capsys, "gamma", "--properties", "3",
                                      "3", *extra)
        assert code == 2 and not records
        assert "--properties excludes --a, --t and --oracle" in captured.err


class TestCheck:
    def test_all_checks_on_holding_graph(self, capsys):
        code, records, _ = run(capsys, "check", "--all", "Dhc")
        assert code == 0
        # The eight records, in this order, that the benchmark's oracle pins.
        assert [r["check"] for r in records] == [
            "theorem1", "cor1", "berge", "edge-bound", "galvin-goddard",
            "conj1", "conj3", "hyper-cor"]
        assert all(r["finding"] is False for r in records)

    def test_conj1_finishes_on_the_64_vertex_square(self):
        # The square: 256 maximum stable sets, each with a clique system of
        # order 6.  21K_3: 3^21 maximum stable sets, decided by 63 searches,
        # three per triangle.
        triangles = to_graph6(functools.reduce(union, [complete(3)] * 21))
        for token, lhs, rhs in ((SQUARE, 54, 64), (triangles, 63, 63)):
            proc = subprocess.run(
                [sys.executable, "-m", "giwb.cli", "check", "--checks",
                 "conj1", token], env=src_env(), capture_output=True,
                text=True, timeout=60)
            assert proc.returncode == 0, proc.stderr
            record = json.loads(proc.stdout)
            assert (record["status"], record["lhs"], record["rhs"]) == (
                "holds", lhs, rhs)

    def test_single_check_flag(self, capsys):
        code, records, _ = run(capsys, "check", "--checks", "edge-bound", "Dhc")
        assert code == 0 and len(records) == 1
        assert records[0]["equality"] is True

    @pytest.mark.parametrize("name", list(CHECKS))
    def test_every_registered_check_is_selectable(self, capsys, name):
        code, records, _ = run(capsys, "check", "--checks", name, "Dhc")
        assert code == 0 and [r["check"] for r in records] == [name]

    def test_records_follow_the_given_order(self, capsys):
        names = list(reversed(CHECKS))
        code, records, _ = run(capsys, "check", "--checks",
                               ",".join(names), "Dhc")
        assert code == 0 and [r["check"] for r in records] == names

    def test_names_are_normalized(self, capsys):
        code, records, _ = run(capsys, "check", "--checks",
                               "Edge_Bound,THEOREM1", "Dhc")
        assert code == 0
        assert [r["check"] for r in records] == ["edge-bound", "theorem1"]

    def test_no_flags_is_a_usage_error(self, capsys):
        code, _, captured = run(capsys, "check", "Dhc")
        assert code == 2
        assert ("one of the arguments --checks --all is required"
                in captured.err)

    def test_both_selectors_are_a_usage_error(self, capsys):
        code, _, captured = run(capsys, "check", "--all", "--checks",
                                "theorem1", "Dhc")
        assert code == 2 and "not allowed with argument" in captured.err

    @pytest.mark.parametrize("checks", ["cor1,cor1", "theorem1,Theorem1"])
    def test_a_check_named_twice_is_a_usage_error(self, capsys, checks):
        code, records, captured = run(capsys, "check", "--checks", checks,
                                      "Dhc")
        assert code == 2 and not records
        assert "named more than once" in captured.err

    def test_unknown_check_name(self, capsys):
        code, _, captured = run(capsys, "check", "--checks", "theorem9", "Dhc")
        assert code == 2 and "unknown check" in captured.err

    def test_theorem_violation_exits_nonzero(self, capsys, monkeypatch):
        # No real graph violates a theorem check; exercise the exit-code
        # plumbing with a stubbed verdict.
        stub = Verdict(VIOLATED, lhs=9, rhs=1, slack=-8)
        monkeypatch.setitem(cli.CHECKS, "theorem1", lambda g, an: stub)
        code, records, _ = run(capsys, "check", "--checks", "theorem1", "Dhc")
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
        assert code == 0 and len(seen) == len(records) == len(cli.CHECK_ALL)
        assert seen[0] is not None and all(an is seen[0] for an in seen)

    def test_all_checks_build_the_graph_and_complement_analyses_only(
            self, capsys, monkeypatch):
        built = []
        init = GraphAnalysis.__init__

        def counted(an, g):
            built.append(g)
            init(an, g)
        monkeypatch.setattr(GraphAnalysis, "__init__", counted)
        code, _, _ = run(capsys, "check", "--all", "Dhc")
        assert code == 0
        assert len(built) == 2 and to_graph6(built[0]) == "Dhc"
        assert built[1] == complement(built[0])

    def test_conjecture_violation_is_a_finding(self, capsys, monkeypatch):
        stub = Verdict(VIOLATED, lhs=9, rhs=1, slack=-8)
        monkeypatch.setitem(cli.CHECKS, "conj1", lambda g, an: stub)
        code, records, _ = run(capsys, "check", "--checks", "conj1", "Dhc")
        assert code == 0
        assert records[0]["finding"] is True


class TestFindingsReplay:
    """Each FINDINGS.md row, replayed by the command the row gives."""

    def test_omega_v_substitution_on_8_vertices(self, capsys):
        code, records, _ = run(capsys, "check", "--checks", "omega-v-sub",
                               "GB]eCK")
        assert code == 0 and len(records) == 1
        r = records[0]
        assert (r["status"], r["finding"], r["lhs"], r["rhs"]) == (
            "violated", True, 9, 8)
        assert r["witness"] == {"omega_v": 3, "sigma_v": 3}

    def test_conjecture1_on_9_vertices(self, capsys):
        code, records, _ = run(capsys, "check", "--checks", "conj1", "HcdePhT")
        assert code == 0 and len(records) == 1
        r = records[0]
        assert (r["status"], r["finding"], r["lhs"], r["rhs"]) == (
            "violated", True, 9, 9)
        assert r["witness"] == {"failed": "clique-system",
                                "stable_set": [1, 2, 3]}

    @pytest.mark.parametrize("token, lhs, rhs", [
        ("O`?Hx{~N}WX`{?{?w@}?^", 18, 16), ("OB]eCK?????B?F?I?E?@B", 18, 16),
        (SQUARE, 81, 64)], ids=["GB]eCK[K_2]", "2 GB]eCK", "GB]eCK[GB]eCK]"])
    def test_omega_v_substitution_family(self, capsys, token, lhs, rhs):
        code, records, _ = run(capsys, "check", "--checks", "omega-v-sub",
                               token)
        assert code == 0 and len(records) == 1
        r = records[0]
        assert (r["status"], r["finding"], r["lhs"], r["rhs"]) == (
            "violated", True, lhs, rhs)

    @pytest.mark.parametrize("token", [
        "Q~?MEFBoxwF`{K{K`x_]XKrKrKw", "Q]?EEBBopwF_{K{K@x_]WKrKrKo",
        "QcdePhT???_??C?C_@_?q?@g?Ig"],
        ids=["HcdePhT[K_2]", "HcdePhT[2K_1]", "2 HcdePhT"])
    def test_conjecture1_family_on_18_vertices(self, capsys, token):
        code, records, _ = run(capsys, "check", "--checks", "conj1", token)
        assert code == 0 and len(records) == 1
        r = records[0]
        assert (r["status"], r["finding"], r["lhs"], r["rhs"]) == (
            "violated", True, 18, 18)
        assert r["witness"]["failed"] == "clique-system"

    def test_corona_equality_case_on_9_vertices(self, capsys):
        code, records, _ = run(capsys, "check", "--checks",
                               "theorem1,theorem1-equality", "H???XbB")
        assert code == 0
        assert [r["status"] for r in records] == ["holds", "holds"]
        assert records[0]["equality"] and records[1]["equality"]
        assert records[1]["witness"] == {
            "tau": 3, "leaves": 2, "alpha_minus_sigma_v_plus_1": 2,
            "centers": 448}


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

    @pytest.mark.parametrize("dedup", [(), ("--dedup",)])
    def test_a_check_named_twice_is_a_usage_error(self, capsys, dedup):
        # Counted twice, its totals would exceed the graph count.
        code, records, captured = run(capsys, "search", "--n", "3", *dedup,
                                      "--checks", "cor1,cor1")
        assert code == 2 and not records
        assert "named more than once" in captured.err

    def test_shards_is_no_option(self, capsys):
        code, _, captured = run(capsys, "search", "--help")
        assert code == 0 and "--checks" in captured.out
        assert "--shards" not in captured.out
        code, records, captured = run(capsys, "search", "--n", "3", "--checks",
                                      "theorem1", "--shards", "2")
        assert code == 2 and not records
        assert "unrecognized arguments: --shards" in captured.err


class TestGenerateAndCatalog:
    def test_generate_pipes_into_check(self, capsys):
        code, _, captured = run(capsys, "generate", "--family",
                                "clique-of-stars", "--params", "2", "2")
        assert code == 0 and captured.out.strip() == "EsP?"

    def test_generate_rejects_a_huge_order_without_building_it(self, capsys):
        start = time.perf_counter()
        code, _, captured = run(capsys, "generate", "--family", "complete",
                                "--params", "4000")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and "vertex count 4000 outside" in captured.err

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

    def test_catalog_order_out_of_range(self, capsys):
        code, records, captured = run(capsys, "catalog-min-edges", "--alpha",
                                      "4", "--tau", "4", "--c", "1")
        assert code == 2 and not records
        assert "giwb: error: alpha + tau must be 1..7" in captured.err

    @pytest.mark.parametrize("counts, named", [
        (("--alpha", "2", "--tau", "2", "--c", "-1"), "c"),
        (("--alpha", "-1", "--tau", "3", "--c", "1"), "alpha"),
        # alpha + tau lies outside 1..7 here: the negative count is named
        # before the order is checked.
        (("--alpha", "-5", "--tau", "3", "--c", "1"), "alpha"),
        (("--alpha", "2", "--tau", "-9", "--c", "1"), "tau")])
    @pytest.mark.parametrize("from_file", [False, True])
    def test_catalog_negative_counts_exit_2(self, capsys, tmp_path, counts,
                                            named, from_file):
        source = ()
        if from_file:
            path = tmp_path / "in.g6"
            path.write_text("Dhc\n")
            source = ("--input", str(path))
        code, records, captured = run(capsys, "catalog-min-edges", *counts,
                                      *source)
        assert code == 2 and not records
        value = dict(zip(counts[::2], counts[1::2]))[f"--{named}"]
        assert f"giwb: error: {named} must be >= 0, not {value}" in captured.err

    def test_catalog_has_no_order_option(self, capsys):
        # tau = n - alpha: only n = alpha + tau can match, and that is the
        # order enumerated.
        code, _, captured = run(capsys, "catalog-min-edges", "--alpha", "2",
                                "--tau", "3", "--c", "1", "--n", "5")
        assert code == 2 and "unrecognized arguments: --n" in captured.err


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
        code, records, captured = run(capsys, "check", "--checks", "theorem1",
                                      "Dhc")
        assert code == 3 and not records
        assert "RuntimeError: broken invariant" in captured.err

    def test_malformed_graph6_exits_2(self, capsys):
        code, _, captured = run(capsys, "check", "--all", "zzz\x01")
        assert code == 2 and "error:" in captured.err

    def test_unknown_subcommand_exits_2(self, capsys):
        assert cli.main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_closed_output_pipe_exits_141_quietly(self, tmp_path):
        path = tmp_path / "many.g6"
        path.write_text("Dhc\n" * 3000, encoding="ascii")
        with subprocess.Popen(
                [sys.executable, "-m", "giwb.cli", "check", "--all",
                 str(path)], env=src_env(), stdout=subprocess.PIPE,
                stderr=subprocess.PIPE) as proc:
            assert proc.stdout.readline().startswith(b"{")
            proc.stdout.close()  # 24,000 records cannot fit in the pipe
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 141
        assert err == b""

    def test_records_carry_version(self, capsys):
        _, records, _ = run(capsys, "invariants", "Dhc")
        assert records[0]["version"]


# Runs giwb commands in one interpreter; prints each exit code and whether
# numpy is loaded after it.
NUMPY_PROBE = """
import contextlib, io, shlex, sys
import giwb.cli
for line in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = giwb.cli.main(shlex.split(line))
    print(code, "numpy" in sys.modules)
"""


class TestNumpyLoad:
    def test_only_the_class_walk_loads_numpy(self, tmp_path):
        path = tmp_path / "in.g6"
        path.write_text("Dhc\nDj_\n")
        no_walk = ["check --all Dhc", "invariants Dhc", "decompose Dhc",
                   "gamma --a 2 --t 3",
                   "generate --family odd-cycle --params 5",
                   "catalog-min-edges --alpha 2 --tau 3 --c 1 --input "
                   + shlex.quote(str(path))]
        proc = subprocess.run(
            [sys.executable, "-c", NUMPY_PROBE, *no_walk,
             "search --n 3 --checks theorem1"], env=src_env(),
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["0 False"] * len(no_walk) + [
            "0 True"]


def fresh_process(argv: tuple[str, ...]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``giwb argv`` as a new process's
    first call, with help wrapped at 80 columns."""
    proc = subprocess.run([sys.executable, "-m", "giwb.cli", *argv],
                          env=src_env(COLUMNS="80"), capture_output=True,
                          text=True, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def without_elapsed(out: str) -> str:
    """Output with each record's wall-clock ``elapsed_seconds`` dropped."""
    lines = []
    for line in out.splitlines():
        if line.startswith("{"):
            record = json.loads(line)
            record.get("runtime", {}).pop("elapsed_seconds", None)
            line = json.dumps(record, sort_keys=True)
        lines.append(line)
    return "\n".join(lines)


class TestParserReuse:
    ARGVS = [("check", "Dhc"),  # neither --checks nor --all: usage error
             ("--help",),
             ("check", "--checks", "conj1", "Dhc"),
             ("check", "--all", "Dhc"),
             ("search", "--n", "3", "--checks", "theorem1")]

    def test_one_parser_serves_every_call_without_state(self, capsys,
                                                         monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        cli.build_parser.cache_clear()
        seen = []
        for _ in range(3):
            for argv in self.ARGVS:
                code = cli.main(list(argv))
                captured = capsys.readouterr()
                seen.append((argv, code, captured.out, captured.err))
        assert cli.build_parser.cache_info().misses == 1
        fresh = {argv: fresh_process(argv) for argv in self.ARGVS}
        assert [fresh[argv][0] for argv in self.ARGVS] == [2, 0, 0, 0, 0]
        for argv, code, out, err in seen:
            want_code, want_out, want_err = fresh[argv]
            assert (code, without_elapsed(out), err) == (
                want_code, without_elapsed(want_out), want_err), argv


def workflow_smoke_lines() -> list[str]:
    """The ``giwb`` lines of the CI workflow's console-script smoke step."""
    return [line.strip() for line in WORKFLOW.read_text(encoding="utf-8")
            .splitlines() if line.strip().startswith("giwb ")]


def run_line(capsys, monkeypatch, line: str) -> str:
    """Run a shell line of ``giwb`` commands in process, asserting that each
    exits 0; a `|` feeds the left command's stdout to the right one's
    stdin.  Returns the last command's stdout."""
    out = ""
    for command in line.split("|"):
        argv = shlex.split(command, comments=True)
        assert argv[0] == "giwb"
        monkeypatch.setattr("sys.stdin", io.StringIO(out))
        code = cli.main(argv[1:])
        captured = capsys.readouterr()
        assert code == 0, (command, captured.err)
        out = captured.out
    return out


class TestWorkflowSmoke:
    def test_every_subcommand_is_smoked(self):
        commands = [shlex.split(command) for line in workflow_smoke_lines()
                    for command in line.split("|")]
        smoked = {argv[1] for argv in commands if not argv[1].startswith("-")}
        assert smoked == {"invariants", "decompose", "gamma", "check",
                          "search", "generate", "catalog-min-edges"}

    @pytest.mark.parametrize("line", workflow_smoke_lines())
    def test_line_exits_0(self, capsys, monkeypatch, line):
        assert run_line(capsys, monkeypatch, line)

    def test_a_leg_runs_the_oldest_numpy(self):
        # GitHub adds an ``include`` entry to every combination whose
        # original values it leaves alone, and makes it a combination of
        # its own only when it would change one; the base ``numpy`` value
        # is what makes the floor a leg of its own.
        yaml = pytest.importorskip("yaml")
        job = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))[
            "jobs"]["tier1"]
        matrix = dict(job["strategy"]["matrix"])
        includes = matrix.pop("include", [])
        legs = [dict(zip(matrix, values))
                for values in itertools.product(*matrix.values())]
        for extra in includes:
            fits = [leg for leg in legs if all(
                leg[k] == v for k, v in extra.items() if k in matrix)]
            for leg in fits:
                leg.update(extra)
            if not fits:
                legs.append(dict(extra))
        floor = re.search(r'"numpy>=([\d.]+)"', (ROOT / "pyproject.toml")
                          .read_text(encoding="utf-8")).group(1)
        assert {(leg["python-version"], leg["numpy"]) for leg in legs} == {
            ("3.10", "latest"), ("3.11", "latest"), ("3.10", f"{floor}.*")}
        pin = [step for step in job["steps"] if "numpy==" in step.get("run", "")]
        assert [step["if"] for step in pin] == ["matrix.numpy != 'latest'"]
        assert f"numpy ≥ {floor}" in README.read_text(encoding="utf-8")


class TestReadme:
    def test_the_example_block_is_found(self):
        assert len(readme_cli_lines()) >= 10

    @pytest.mark.parametrize("line", readme_cli_lines())
    def test_example_runs(self, capsys, monkeypatch, line):
        assert run_line(capsys, monkeypatch, line)
