"""Tests of the benchmark itself: the oracles accept giwb's real outputs and
reject tampered ones, and every workload and the traced run finish.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest

import oracles
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from giwb import cli  # noqa: E402
from giwb.harness import enumerate_graphs  # noqa: E402


def giwb(argv, capsys) -> tuple[int, str]:
    capsys.readouterr()
    code = cli.main(argv)
    return code, capsys.readouterr().out


@pytest.fixture(scope="module")
def labeled_n4():
    return oracles.labeled_expectations(4)


def test_labeled_oracle_accepts_and_rejects_a_tampered_total(capsys,
                                                             labeled_n4):
    code, text = giwb(["search", "--n", "4", "--checks",
                       ",".join(workloads.LABELED_CHECKS)], capsys)
    body = oracles.parse_report(text)
    assert code == 0
    assert oracles.verify_labeled(body, labeled_n4) == []

    for check, key in (("theorem1", "equality"), ("edge-bound", "holds"),
                       ("cor1", "not_applicable")):
        bad = copy.deepcopy(body)
        bad["totals"][check][key] += 1
        assert oracles.verify_labeled(bad, labeled_n4), (check, key)


def test_labeled_oracle_matches_known_counts():
    assert oracles.count_without_isolated(6) == 27449
    assert [oracles.gamma_brute(a, t) for a, t in ((1, 3), (2, 2), (3, 3))] \
        == [6, 2, 3]


def test_dedup_oracle_rejects_a_duplicated_class(capsys):
    reps = [oracles.graph_from_rows(g.adj)
            for g in enumerate_graphs(5, dedup=True)]
    assert oracles.verify_representatives(reps, 5) == []
    code, text = giwb(["search", "--n", "5", "--dedup", "--checks",
                       ",".join(workloads.DEDUP_CHECKS)], capsys)
    body = oracles.parse_report(text)
    want = oracles.dedup_expectations(reps)
    assert code == 0
    assert oracles.verify_dedup(body, want) == []

    # Replace one class by a relabeled copy of another: the count still
    # matches the atlas, the classes do not.
    dup = list(reps)
    mapping = {v: (v + 1) % 5 for v in range(5)}
    dup[-1] = nx.relabel_nodes(reps[-2], mapping)
    assert any("isomorphic" in p
               for p in oracles.verify_representatives(dup, 5))
    assert oracles.verify_representatives(reps[:-1], 5)

    bad = copy.deepcopy(body)
    bad["totals"]["conj3"]["applicable"] += 1
    bad["totals"]["conj3"]["not_applicable"] -= 1
    bad["totals"]["conj3"]["holds"] += 1
    assert oracles.verify_dedup(bad, want)


def test_check_oracle_rejects_a_wrong_alpha(capsys):
    n, edges = workloads.check_graphs(seed=7)[3]
    token = workloads.graph6(n, edges)
    assert oracles.token_problems(token, n, edges) == []
    want = oracles.check_expectations(n, edges)
    code, text = giwb(["check", "--all", token], capsys)
    assert oracles.verify_check(text, code, token, want) == []

    records = [json.loads(line) for line in text.splitlines()]
    for rec in records:
        if rec["check"] == "theorem1":
            rec["lhs"] += 1
    bad = "".join(json.dumps(r) + "\n" for r in records)
    assert any("alpha" in p
               for p in oracles.verify_check(bad, code, token, want))
    assert oracles.verify_check(text, 1, token, want) == ["exit code 1"]


def test_a_crash_is_a_failed_operation():
    import worker

    class Crashing:
        @staticmethod
        def main(argv):
            raise RecursionError("maximum recursion depth exceeded")

    code, _, text = worker.call(Crashing, ["gamma", "--a", "3000"])
    assert code == 1 and "RecursionError" in text
    assert oracles.verify_check(text, code, "A_", {}) == ["exit code 1"]


def test_check_graphs_input_depends_only_on_the_seed():
    assert workloads.check_graphs(3) == workloads.check_graphs(3)
    assert workloads.check_graphs(3) != workloads.check_graphs(4)
    sizes = [n for n, _ in workloads.check_graphs(3)]
    assert min(sizes) <= 16 < max(sizes)


def run_bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload,trace", [
    *((w, 0) for w in workloads.WORKLOADS), ("scan-dedup-n7", 1)])
def test_smoke_run(workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
