"""Command-line entry point.

Subcommands: invariants, decompose, gamma, check, search, generate,
catalog-min-edges.  A graph argument is an inline graph6 token, or a file
path or ``-`` for stdin streamed by ``harness.graphs_from_file`` (format
picked by the first line that is neither blank nor a ``#`` comment).
Output is UTF-8 line-delimited JSON records with stable key order, written
per graph, so records for earlier graphs precede an error on a later one.

Exit codes: 0 on completion (including logged findings), 1 when a theorem
or corollary check is violated, 2 on usage, parse or input errors
(unreadable files included), 3 on an internal error (traceback on stderr),
141 (128 + SIGPIPE) when the reader closes standard output early.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import traceback
from typing import Iterable, Iterator, Optional

from . import __version__
from .bounds import (FAMILY_KINDS, CatalogResult, VIOLATED, catalog_min_edges,
                     generate_family)
from .gamma import gamma_closed, gamma_oracle, gamma_property_suite
from .graphs import Graph, GraphFormatError, bits, parse_graph6, to_graph6
from .harness import (CHECKS, ENUM_CAP, THEOREM_CHECKS, ScanConfig,
                      check_names, check_verdicts, enumerate_graphs,
                      graphs_from_file, scan)
from .invariants import core_decomposition, invariant_suite

# The checks `check --all` runs, in record order.  theorem1-equality,
# conj1-bound and omega-v-sub stay out: the benchmark's check-graphs oracle
# pins exactly these eight records per graph.  `--checks` reaches every check.
CHECK_ALL = ("theorem1", "cor1", "berge", "edge-bound", "galvin-goddard",
             "conj1", "conj3", "hyper-cor")


def _emit(record: dict) -> None:
    record = {"version": __version__, **record}
    print(json.dumps(record, sort_keys=True))


def _read_graphs(arg: str) -> Iterable[Graph]:
    """An existing path or ``-`` is read as a graph file; anything else is
    one inline graph6 token."""
    if arg == "-" or os.path.exists(arg):
        return graphs_from_file(arg)
    try:
        return [parse_graph6(arg)]
    except GraphFormatError as exc:
        raise GraphFormatError(f"{arg!r} is no file and no graph6 token: {exc}") from None


def _cmd_invariants(args) -> int:
    for g in _read_graphs(args.graph):
        rep = invariant_suite(g)
        _emit({"graph6": to_graph6(g), "invariants": dataclasses.asdict(rep)})
    return 0


def _cmd_decompose(args) -> int:
    for g in _read_graphs(args.graph):
        cores = core_decomposition(g)
        _emit({
            "graph6": to_graph6(g),
            "alpha_core": list(bits(cores.alpha_core)),
            "tau_core": list(bits(cores.tau_core)),
            "b_part": list(bits(cores.b_part)),
        })
    return 0


def _cmd_gamma(args) -> int:
    if args.properties:
        if args.a is not None or args.t is not None or args.oracle:
            raise ValueError("--properties excludes --a, --t and --oracle")
        a_max, t_max = args.properties
        rep = gamma_property_suite(a_max, t_max)
        _emit({"gamma_properties": dataclasses.asdict(rep),
               "ok": rep.ok, "inequalities_ok": rep.inequalities_ok})
        return 0
    if args.a is None or args.t is None:
        raise ValueError("gamma needs --a and --t (or --properties)")
    gv = gamma_closed(args.a, args.t)
    record = {"gamma": dataclasses.asdict(gv)}
    if args.oracle:
        record["oracle"] = gamma_oracle(args.a, args.t)
    _emit(record)
    return 0


def _cmd_check(args) -> int:
    names = CHECK_ALL if args.all else check_names(args.checks.split(","))
    exit_code = 0
    for g in _read_graphs(args.graph):
        g6 = to_graph6(g)
        for name, v in check_verdicts(g, names):
            _emit({"graph6": g6, "check": name, "status": v.status,
                   "lhs": v.lhs, "rhs": v.rhs, "slack": v.slack,
                   "equality": v.equality, "witness": v.witness,
                   "finding": (v.status == VIOLATED
                               and name not in THEOREM_CHECKS)})
            if v.status == VIOLATED and name in THEOREM_CHECKS:
                exit_code = 1
    return exit_code


def _cmd_search(args) -> int:
    config = ScanConfig(
        checks=tuple(args.checks.split(",")),
        n=args.n,
        connected_only=args.connected,
        dedup=args.dedup,
    )
    report = scan(config)
    _emit({"report": report.body_dict(),
           "runtime": {"elapsed_seconds": report.elapsed_seconds,
                       "graphs_analysed": report.graphs_analysed}})
    if args.tsv and report.violations:
        print(report.violations_tsv(), file=sys.stderr)
    return 1 if report.theorem_violations else 0


def _cmd_generate(args) -> int:
    g = generate_family(args.family, args.params)
    print(to_graph6(g))
    return 0


def _catalog_classes(n: int) -> Iterator[Graph]:
    """One graph per class on ``n`` = alpha + tau vertices.

    tau = n - alpha, so only graphs on alpha + tau vertices can match.
    alpha, tau and c are class invariants, and each class's canonical
    representative is the smallest mask of its orbit, streamed in ascending
    order: the first class reaching the minimum holds the first labeled
    graph reaching it, so min and witness are unchanged.  The order is
    checked when the stream is first read, so ``catalog_min_edges`` names a
    negative alpha, tau or c first.
    """
    if not 1 <= n <= ENUM_CAP:
        raise ValueError(f"alpha + tau must be 1..{ENUM_CAP}, not {n}")
    yield from enumerate_graphs(n, dedup=True)


def _cmd_catalog(args) -> int:
    stream = (graphs_from_file(args.input) if args.input
              else _catalog_classes(args.alpha + args.tau))
    result: CatalogResult = catalog_min_edges(args.alpha, args.tau, args.c, stream)
    _emit({"catalog": dataclasses.asdict(result)})
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``giwb`` parser, built once per process.  ``parse_args`` keeps
    no state between calls, and building the seven subparsers takes about
    1 ms, more than all of ``check --all`` on a 16-vertex graph."""
    parser = argparse.ArgumentParser(
        prog="giwb",
        description="Exact graph-invariant workbench and verification harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="print the full invariant report")
    p.add_argument("graph", help="graph6 token, file path, or - for stdin")
    p.set_defaults(fn=_cmd_invariants)

    p = sub.add_parser("decompose", help="print the core decomposition")
    p.add_argument("graph")
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("gamma", help="evaluate Gamma(a, t) or its property suite")
    p.add_argument("--a", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--oracle", action="store_true",
                   help="also print the composition-DP oracle value")
    p.add_argument("--properties", nargs=2, type=int, metavar=("AMAX", "TMAX"))
    p.set_defaults(fn=_cmd_gamma)

    p = sub.add_parser("check", help="run bound/conjecture checks on graphs")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--checks",
                       help="comma-separated names, run in this order: "
                       + ", ".join(CHECKS))
    which.add_argument("--all", action="store_true",
                       help=f"run {', '.join(CHECK_ALL)}")
    p.add_argument("graph")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("search", help="exhaustive scan of small graphs")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--connected", action="store_true")
    p.add_argument("--dedup", action="store_true")
    p.add_argument("--checks", required=True,
                   help="comma-separated check names")
    p.add_argument("--tsv", action="store_true",
                   help="also print a TSV violations table to stderr")
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("generate", help="construct an extremal family graph")
    p.add_argument("--family", required=True,
                   choices=FAMILY_KINDS)
    p.add_argument("--params", nargs="+", type=int, required=True)
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("catalog-min-edges",
                       help="minimum edge count for an (alpha, tau, c) class")
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--tau", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--input",
                   help="graph file or - for stdin instead of enumeration")
    p.set_defaults(fn=_cmd_catalog)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except BrokenPipeError:
        # The reader stopped early (`giwb ... | head`).  Exit as a shell
        # reports a tool that SIGPIPE ends, with nothing on stderr; the
        # interpreter's exit-time flush of stdout would raise again, so
        # stdout now points at the null device.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (ValueError, OSError) as exc:
        print(f"giwb: error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
