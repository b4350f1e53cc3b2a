"""One workload in one fresh process: set up, run whole rounds of giwb
operations until the time is up, and print one JSON document of timings and
raw outputs on stdout.  run.py starts this process and verifies the outputs.

An operation is one ``giwb.cli.main`` call (``search`` or ``check --all``)
with its standard output captured.  A round is one scan, or one pass over
the ``check-graphs`` input.  Nothing here checks giwb's answers.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback

import workloads


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.perf_counter() of the parent just before it "
                        "started this process (a system-wide clock)")
    p.add_argument("--setup-only", action="store_true",
                   help="stop after set-up and report only its duration")
    return p.parse_args(argv)


def call(cli, argv: list[str]) -> tuple[int, float, str]:
    """One operation: exit code, seconds, captured standard output."""
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(argv)
        except Exception:  # the program crashed: a failed operation
            traceback.print_exc(file=out)
            code = 1  # as the interpreter would exit
    return code, time.perf_counter() - start, out.getvalue()


def round_ops(workload: str, seed: int):
    """(argument lists of one round, warm-up argument list, graph6 inputs)."""
    if workload in workloads.SCANS:
        return ([workloads.SCANS[workload]], workloads.SCAN_WARMUPS[workload],
                [])
    tokens = [workloads.graph6(n, edges)
              for n, edges in workloads.check_graphs(seed)]
    argvs = [["check", "--all", tok] for tok in tokens]
    return argvs, argvs[0], tokens


def run(args) -> dict:
    from giwb import cli  # imports are part of set-up

    argvs, warmup, tokens = round_ops(args.workload, args.seed)
    call(cli, warmup)
    setup_s = time.perf_counter() - args.spawned_at
    if args.setup_only:
        return {"setup_s": setup_s}

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    # ops[i]: per operation of the round, its time and (exit code, output)
    # in each round; equal outputs are kept once.
    ops = [{"seconds": [], "runs": [], "texts": {}} for _ in argvs]
    rounds = []  # (traced, seconds, per-layer snapshot or None)
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds \
            or (tracer and len(rounds) < 2):
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        try:
            took = 0.0
            for op, argv in zip(ops, argvs):
                code, seconds, text = call(cli, argv)
                took += seconds
                op["seconds"].append(seconds)
                op["runs"].append(
                    (code, op["texts"].setdefault(text, len(op["texts"]))))
        finally:
            if traced:
                tracer.uninstall()
        rounds.append((traced, took, snapshot(tracer) if traced else None))
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "peak_rss_mb": peak_kib / 1024,
        "tokens": tokens,
        "ops": [{**op, "texts": list(op["texts"])} for op in ops],
        "rounds": [{"traced": t, "seconds": s} for t, s, _ in rounds],
    }
    if tracer:
        doc["layers"] = layer_metrics(rounds, len(ops))
    if args.workload == "scan-dedup-n7":
        # The verifier needs the class representatives, which the search
        # report does not list; take them from the same enumeration, after
        # timing and after the peak memory was read.
        from giwb.harness import enumerate_graphs
        doc["representatives"] = [list(g.adj)
                                  for g in enumerate_graphs(7, dedup=True)]
    return doc


def snapshot(tracer) -> dict:
    """Per-round per-layer figures of the tracer."""
    snap = {f"{layer}.self_s": s
            for layer, s in tracer.layer_self_seconds().items()}
    snap.update(tracer.counts)
    for name, (_, total, _) in tracer.spans.items():
        snap[f"span:{name}"] = total
    return snap


def layer_metrics(rounds, ops_per_round: int) -> dict:
    """Median over traced rounds of each per-round figure, per operation,
    plus the tracing overhead against the untraced rounds."""
    traced = [snap for t, _, snap in rounds if t]
    keys = sorted({k for snap in traced for k in snap})
    out = {k: statistics.median(snap.get(k, 0) for snap in traced)
           / ops_per_round for k in keys}
    plain = statistics.median(s for t, s, _ in rounds if not t)
    slow = statistics.median(s for t, s, _ in rounds if t)
    out["trace.overhead_s"] = (slow - plain) / ops_per_round
    out["trace.overhead_pct"] = 100 * (slow - plain) / plain
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    doc = run(args)
    sys.stdout.write(json.dumps(doc) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
