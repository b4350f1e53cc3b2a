"""giwb benchmark: one command per workload run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a giwb source tree (the program is taken from
``src/``).  Set-up is measured in several fresh worker processes and the
timed run in one more (``worker.py``); this process then verifies every
output against the independent oracles (``oracles.py``), writes the raw
figures under ``perfbench/raw/`` and prints one JSON result as the last line
of its standard output.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RAW = HERE / "raw"
# Set-up is timed in this many processes (the timed run's included); the
# median is reported.
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 150
# Per-layer metric -> (worker figure, unit).  "span:X" is the inclusive time
# of span X; "<layer>.self_s" the layer's self time; counts are per
# operation.
LAYER_METRICS = {
    "harness.enum_s": ("span:harness.enum", "s/op"),
    "harness.graphs_enumerated": ("harness.graphs_enumerated", "count/op"),
    "harness.report_s": ("span:harness.report", "s/op"),
    "harness.self_s": ("harness.self_s", "s/op"),
    "graphs.graph6_parse_s": ("span:graphs.graph6_parse", "s/op"),
    "graphs.graph6_parsed": ("graphs.graph6_parsed", "count/op"),
    "graphs.graph6_encode_s": ("span:graphs.graph6_encode", "s/op"),
    "graphs.graph6_encoded": ("graphs.graph6_encoded", "count/op"),
    "graphs.complements_built": ("graphs.complements_built", "count/op"),
    "graphs.components_s": ("span:graphs.components", "s/op"),
    "graphs.self_s": ("graphs.self_s", "s/op"),
    "invariants.analyses": ("invariants.analyses", "count/op"),
    "invariants.tables_built": ("invariants.tables_built", "count/op"),
    "invariants.table_s": ("span:invariants.table", "s/op"),
    "invariants.alpha_of_calls": ("invariants.alpha_of_calls", "count/op"),
    "invariants.alpha_of_s": ("span:invariants.alpha_of", "s/op"),
    "invariants.bb_calls": ("invariants.bb_calls", "count/op"),
    "invariants.bb_s": ("span:invariants.bb", "s/op"),
    "invariants.maximal_sets": ("invariants.maximal_sets", "count/op"),
    "invariants.maximal_sets_s": ("span:invariants.maximal_sets", "s/op"),
    "invariants.derived_s": ("span:invariants.derived", "s/op"),
    "invariants.self_s": ("invariants.self_s", "s/op"),
    "bounds.theorem1_s": ("span:bounds.theorem1", "s/op"),
    "bounds.theorem1-equality_s": ("span:bounds.theorem1-equality", "s/op"),
    "bounds.cor1_s": ("span:bounds.cor1", "s/op"),
    "bounds.berge_s": ("span:bounds.berge", "s/op"),
    "bounds.edge-bound_s": ("span:bounds.edge-bound", "s/op"),
    "bounds.galvin-goddard_s": ("span:bounds.galvin-goddard", "s/op"),
    "bounds.iso_calls": ("bounds.iso_calls", "count/op"),
    "bounds.iso_s": ("span:bounds.iso", "s/op"),
    "bounds.self_s": ("bounds.self_s", "s/op"),
    "gamma.closed_calls": ("gamma.closed_calls", "count/op"),
    "gamma.closed_s": ("span:gamma.closed", "s/op"),
    "hypergraphs.hyper_cor_s": ("span:hypergraphs.hyper-cor", "s/op"),
    "hypergraphs.hypergraphs_built": ("hypergraphs.hypergraphs_built",
                                      "count/op"),
    "hypergraphs.hyper_cor_applicable": ("hypergraphs.hyper_cor_applicable",
                                         "count/op"),
    "hypergraphs.self_s": ("hypergraphs.self_s", "s/op"),
    "conjectures.conj1_s": ("span:conjectures.conj1", "s/op"),
    "conjectures.conj3_s": ("span:conjectures.conj3", "s/op"),
    "conjectures.omega_v_sub_s": ("span:conjectures.omega-v-sub", "s/op"),
    "conjectures.clique_searches": ("conjectures.clique_searches",
                                    "count/op"),
    "conjectures.clique_search_s": ("span:conjectures.clique_search",
                                    "s/op"),
    "conjectures.self_s": ("conjectures.self_s", "s/op"),
    "cli.self_s": ("cli.self_s", "s/op"),
    "trace.overhead_s": ("trace.overhead_s", "s/op"),
    "trace.overhead_pct": ("trace.overhead_pct", "%"),
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("GIWB_SHARDS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def start_worker(args, setup_only: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.perf_counter()
    proc = subprocess.run(cmd + ["--spawned-at", repr(spawned)],
                          capture_output=True, text=True, cwd=ROOT,
                          env=worker_env(), timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def steal_ticks():
    """The host's CPU steal ticks (all CPUs) from /proc/stat, or None."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None


# Verification: every operation's output against the oracles.

def verify(doc: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every operation of the run."""
    import oracles

    workload, ops = doc["workload"], doc["ops"]
    if workload == "check-graphs":
        graphs = workloads.check_graphs(doc["seed"])
        if doc["tokens"] != [workloads.graph6(n, e) for n, e in graphs]:
            raise RuntimeError("worker ran other inputs than the seed gives")
        checker = []
        for tok, (n, edges) in zip(doc["tokens"], graphs):
            problems = oracles.token_problems(tok, n, edges)
            if problems:
                raise RuntimeError(problems[0])
            want = oracles.check_expectations(n, edges)
            checker.append(lambda text, code, tok=tok, want=want:
                           oracles.verify_check(text, code, tok, want))
    elif workload == "scan-labeled-n6":
        want = oracles.labeled_expectations(6)
        if want["without_isolated"] != oracles.count_without_isolated(6):
            raise RuntimeError("oracles disagree on graphs without "
                               "isolated vertices")
        checker = [lambda text, code: scan_problems(
            text, code, oracles.verify_labeled, want)]
    else:
        reps = [oracles.graph_from_rows(r) for r in doc["representatives"]]
        rep_problems = oracles.verify_representatives(reps, 7)
        want = oracles.dedup_expectations(reps)
        checker = [lambda text, code: rep_problems + scan_problems(
            text, code, oracles.verify_dedup, want)]

    attempted = failed = 0
    problems: list[str] = []
    for op, check in zip(ops, checker):
        # Equal (exit code, output) pairs get one verdict; every operation
        # is counted.
        verdicts: dict = {}
        for code, idx in op["runs"]:
            if (code, idx) not in verdicts:
                found = check(op["texts"][idx], code)
                verdicts[code, idx] = found
                problems += found
            attempted += 1
            failed += bool(verdicts[code, idx])
    return attempted, failed, problems


def scan_problems(text: str, code: int, verify_body, want) -> list[str]:
    import oracles

    if code != 0:
        return [f"exit code {code}"]
    try:
        body = oracles.parse_report(text)
    except (ValueError, KeyError) as exc:
        return [f"unreadable report: {exc}"]
    return verify_body(body, want)


# Metrics

def end_to_end(doc: dict, setup: list[float]) -> dict:
    import oracles

    ops = doc["ops"]
    if doc["workload"] == "check-graphs":
        ms = [s * 1000 for op in ops for s in op["seconds"]]
        # graphs/s: the round's graph count over the sum of each graph's
        # median time across rounds, so one slow round moves nothing.
        per_graph = [statistics.median(op["seconds"]) for op in ops]
        rate = len(ops) / sum(per_graph)
        p50 = statistics.median(ms)
    else:
        try:
            graphs = oracles.parse_report(ops[0]["texts"][0])["graph_count"]
        except (ValueError, KeyError):  # a failed scan; counted in verify
            graphs = 0
        scan_s = statistics.median(ops[0]["seconds"])
        rate = graphs / scan_s
        p50 = scan_s * 1000 / graphs
    return {
        "setup_s": (statistics.median(setup), "s"),
        "graphs_per_s": (rate, "graphs/s"),
        "graph_ms_p50": (p50, "ms"),
        "peak_rss_mb": (doc["peak_rss_mb"], "MiB"),
    }


def extra_figures(doc: dict) -> dict:
    """Raw-output figures that are not benchmark metrics."""
    out = {"rounds": len(doc["rounds"]),
           "round_seconds": [r["seconds"] for r in doc["rounds"]]}
    if doc["workload"] == "check-graphs":
        ms = sorted(s * 1000 for op in doc["ops"] for s in op["seconds"])
        out["samples"] = len(ms)
        # A percentile is kept only with at least ten samples beyond it.
        if len(ms) * 0.1 >= 10:
            out["graph_ms_p90"] = statistics.quantiles(ms, n=10)[-1]
    return out


def per_layer(doc: dict) -> dict:
    layers = doc["layers"]
    out = {name: (layers.get(key, 0.0), unit)
           for name, (key, unit) in LAYER_METRICS.items()}
    built = layers.get("hypergraphs.hypergraphs_built", 0)
    out["hypergraphs.hyper_cor_useful_pct"] = (
        100 * layers.get("hypergraphs.hyper_cor_applicable", 0) / built
        if built else 0.0, "%")
    lines = [op["texts"][idx].count("\n")
             for op in doc["ops"] for _, idx in op["runs"]]
    out["cli.records"] = (sum(lines) / len(lines), "count/op")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "giwb" / "__init__.py").is_file():
        print(f"run.py: no giwb sources under {ROOT / 'src'}; run from a "
              "giwb source tree", file=sys.stderr)
        return 2
    steal_before = steal_ticks()
    started = time.time()
    setup = []
    if not args.trace:
        setup = [start_worker(args, True)["setup_s"]
                 for _ in range(SETUP_SAMPLES - 1)]
    doc = start_worker(args, False)
    setup.append(doc["setup_s"])
    steal_after = steal_ticks()

    attempted, failed, problems = verify(doc)
    metrics = per_layer(doc) if args.trace else end_to_end(doc, setup)
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:.6g} {unit}")
    for problem in problems[:20]:
        print(f"FAILED: {problem}")

    RAW.mkdir(exist_ok=True)
    raw = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "started_unix": started,
        "steal_ticks": (None if steal_before is None or steal_after is None
                        else steal_after - steal_before),
        "clock_ticks_per_s": os.sysconf("SC_CLK_TCK"),
        "attempted": attempted, "failed": failed, "problems": problems,
        "setup_samples_s": setup,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        **extra_figures(doc),
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RAW / name).write_text(json.dumps(raw, indent=1) + "\n")

    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
