"""Exhaustive small-graph enumeration, the graph-file reader and the
check-scan harness.

The labeled stream covers every edge mask (ascending); dedup keeps one
representative per isomorphism class (the lexicographically minimal edge
mask over all vertex permutations).  Every scan is one walk over the
classes, each with its orbit.  Every check is a function of the
isomorphism class, so by orbit-stabilizer the labeled totals are the sum
over classes of orbit size x verdict: a labeled scan weights each
representative by n!/|Aut| and replays an orbit whose representative
violates any check member by member, so labeling-dependent witnesses and
the sorted violation list are exactly those of a scan over every edge mask;
a dedup scan weights each representative 1.  In both modes the orbit sizes
must add up to the labeled count.  Per-check totals are summed from
sub-totals per class-index residue, so ``ScanConfig.shard_count`` changes none.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, Iterator, Optional

import numpy as np

from .bounds import (HOLDS, NOT_APPLICABLE, Verdict, VIOLATED, check_berge,
                     check_cor1, check_edge_bound, check_galvin_goddard,
                     check_theorem1, classify_equality_theorem1)
from .conjectures import (check_conjecture1_bound, check_conjecture1_full,
                          check_conjecture3, check_omega_v_substitution)
from .graphs import (Graph, GraphFormatError, component_count, is_significant,
                     parse_edge_list, parse_graph6, to_graph6)
from .hypergraphs import check_hyper_corollary
from .invariants import GraphAnalysis

ENUM_CAP = 7

CheckFn = Callable[[Graph, GraphAnalysis], Verdict]

CHECKS: dict[str, CheckFn] = {
    "theorem1": check_theorem1,
    "theorem1-equality": classify_equality_theorem1,
    "cor1": check_cor1,
    "berge": check_berge,
    "edge-bound": check_edge_bound,
    "galvin-goddard": check_galvin_goddard,
    "hyper-cor": check_hyper_corollary,
    "conj1-bound": check_conjecture1_bound,
    "conj1": check_conjecture1_full,
    "conj3": check_conjecture3,
    "omega-v-sub": check_omega_v_substitution,
}

# Violations of these checks are failures (nonzero exit); the remaining
# checks are conjectures whose violations are findings for manual review.
THEOREM_CHECKS = frozenset({
    "theorem1", "theorem1-equality", "cor1", "berge", "edge-bound",
    "galvin-goddard", "hyper-cor",
})


def normalize_check_name(name: str) -> str:
    key = name.strip().lower().replace("_", "-")
    if key not in CHECKS:
        raise ValueError(f"unknown check name {name!r}")
    return key


def check_names(names) -> tuple[str, ...]:
    """The normalized names, in the given order; a check named twice would
    be counted twice, so a repeat is an error."""
    keys = tuple(normalize_check_name(name) for name in names)
    for i, key in enumerate(keys):
        if key in keys[:i]:
            raise ValueError(f"check {key!r} is named more than once")
    return keys


def _edge_list(n: int) -> list[tuple[int, int]]:
    return list(itertools.combinations(range(n), 2))


def _graph_from_mask(n: int, mask: int, edge_list) -> Graph:
    adj = [0] * n
    while mask:
        b = mask & -mask
        u, v = edge_list[b.bit_length() - 1]
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        mask &= mask - 1
    # Valid by construction.  Graph's validating constructor would add about
    # 9 us to the 5 us this takes for a 7-vertex graph (Python 3.11), about
    # 19 s on each walk over all 2^21 labeled 7-vertex graphs.
    g = object.__new__(Graph)
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "adj", tuple(adj))
    return g


def _orbits(n: int) -> Iterator[tuple[int, np.ndarray]]:
    """Ascending canonical edge masks, one per isomorphism class, each with
    its orbit: the mask's image under every vertex permutation, n! entries
    in which each orbit member appears |Aut| times.

    Ascending iteration plus orbit marking makes the first mask seen in
    each orbit exactly the lexicographic minimum over all permutations.
    """
    m = n * (n - 1) // 2
    edge_list = _edge_list(n)
    eidx = {e: i for i, e in enumerate(edge_list)}
    perm_map = np.array(
        [[eidx[tuple(sorted((p[u], p[v])))] for (u, v) in edge_list]
         for p in itertools.permutations(range(n))],
        dtype=np.int64)
    seen = np.zeros(1 << m, dtype=bool)
    shifts = np.arange(m, dtype=np.int64)
    for mask in range(1 << m):
        if seen[mask]:
            continue
        bitvals = (mask >> shifts) & 1
        orbit = (bitvals[np.newaxis, :] << perm_map).sum(axis=1)
        seen[orbit] = True
        yield mask, orbit


def _labeled_count(n: int, connected_only: bool) -> int:
    """Labeled graphs on n vertices: 2^C(n,2), or the connected ones by the
    recurrence that splits off the component of vertex 0."""
    if not connected_only:
        return 1 << math.comb(n, 2)
    conn = [0, 1]
    for k in range(2, n + 1):
        conn.append((1 << math.comb(k, 2)) - sum(
            math.comb(k - 1, j - 1) * conn[j] * (1 << math.comb(k - j, 2))
            for j in range(1, k)))
    return conn[n]


def enumerate_graphs(n: int, connected_only: bool = False,
                     dedup: bool = False) -> Iterator[Graph]:
    """Stream all graphs on ``n`` vertices: every labeled edge mask in
    ascending order, or one canonical representative per isomorphism class
    with ``dedup``."""
    if not 1 <= n <= ENUM_CAP:
        raise ValueError(f"enumeration supports 1 <= n <= {ENUM_CAP}")
    edge_list = _edge_list(n)
    masks = ((mask for mask, _ in _orbits(n)) if dedup
             else range(1 << len(edge_list)))
    for mask in masks:
        g = _graph_from_mask(n, mask, edge_list)
        if connected_only and component_count(g) != 1:
            continue
        yield g


def graphs_from_file(source: str) -> Iterator[Graph]:
    """Stream the graphs of the file ``source`` (``-``: stdin).  The first
    line neither blank nor a ``#`` comment picks the format: ``n <count>``
    makes the input one edge-list graph, anything else is graph6, one graph
    per such line.  An input without a graph raises GraphFormatError; a
    graph6 parse error names its physical line, counting blank and comment
    lines."""
    with (contextlib.nullcontext(sys.stdin) if source == "-"
          else open(source, encoding="utf-8")) as fh:
        head = []
        for line in fh:
            head.append(line)
            if is_significant(line):
                break
        else:
            raise GraphFormatError("no graphs in input")
        if head[-1].split()[0] == "n":  # the header parse_counted reads
            yield parse_edge_list("".join(head) + fh.read())
            return
        for line_no, line in enumerate(itertools.chain(head, fh), 1):
            if is_significant(line):
                try:
                    g = parse_graph6(line)
                except GraphFormatError as exc:
                    raise GraphFormatError(f"line {line_no}: {exc}") from None
                yield g


def check_verdicts(g: Graph, names) -> Iterator[tuple[str, Verdict]]:
    """``(name, verdict)`` for each named check on ``g``; the checks share
    one analysis, so its subset table is built once."""
    an = GraphAnalysis(g)
    for name in names:
        yield name, CHECKS[name](g, an)


@dataclass(frozen=True)
class ScanConfig:
    """Which graphs to scan and with which checks.

    A scan covers every graph on ``n`` vertices (the connected ones with
    ``connected_only``): all labeled graphs, or one representative per
    isomorphism class with ``dedup``.  ``shard_count`` partitions each
    check's totals by class-index residue within the one process; the
    report body is independent of it by construction.
    """

    checks: tuple[str, ...]
    n: int
    connected_only: bool = False
    dedup: bool = False
    shard_count: int = 1

    def __post_init__(self):
        if not 1 <= self.n <= ENUM_CAP:
            raise ValueError(f"enumeration supports 1 <= n <= {ENUM_CAP}")
        if self.shard_count < 1:
            raise ValueError("shard_count must be >= 1")
        if not self.checks:
            raise ValueError("at least one check required")
        object.__setattr__(self, "checks", check_names(self.checks))


@dataclass
class CheckTotals:
    applicable: int = 0
    holds: int = 0
    equality: int = 0
    violated: int = 0
    not_applicable: int = 0
    # Every check is decided, so this stays 0; report bodies and their
    # readers (acceptance criterion 04, the benchmark's oracles) keep the key.
    unchecked: int = 0

    def add(self, v: Verdict, weight: int = 1) -> None:
        """Count ``v`` for ``weight`` graphs (an orbit shares its verdict)."""
        if v.status == HOLDS:
            self.applicable += weight
            self.holds += weight
            if v.equality:
                self.equality += weight
        elif v.status == VIOLATED:
            self.applicable += weight
            self.violated += weight
        elif v.status == NOT_APPLICABLE:
            self.not_applicable += weight
        else:
            raise RuntimeError(f"unknown verdict status {v.status!r}")

    def merge(self, other: "CheckTotals") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


@dataclass
class ScanReport:
    """Totals per check plus the replayable violation list of one scan.

    ``graphs_analysed`` counts the graphs whose checks ran (class
    representatives plus replayed orbit members for a labeled scan); like
    ``elapsed_seconds`` it is runtime, not body.
    """

    config: ScanConfig
    graph_count: int = 0
    totals: dict[str, CheckTotals] = field(default_factory=dict)
    violations: list[dict] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    graphs_analysed: int = 0

    @property
    def theorem_violations(self) -> list[dict]:
        return [v for v in self.violations if v["check"] in THEOREM_CHECKS]

    def add(self, g: Graph, verdicts, totals: dict[str, CheckTotals],
            weight: int = 1) -> None:
        """Count ``g``'s ``(name, verdict)`` pairs for ``weight`` graphs in
        ``totals`` and record its violations, which need ``weight`` 1."""
        self.graph_count += weight
        self.graphs_analysed += 1
        g6: Optional[str] = None
        for name, verdict in verdicts:
            totals[name].add(verdict, weight)
            if verdict.status == VIOLATED:
                if weight != 1:
                    raise RuntimeError("a violation was weighted, not replayed")
                if g6 is None:
                    g6 = to_graph6(g)
                self.violations.append(_verdict_record(g6, name, verdict))

    def body_dict(self) -> dict:
        """Deterministic report body (runtime stats excluded)."""
        return {
            "source": {"n": self.config.n,
                       "connected_only": self.config.connected_only,
                       "dedup": self.config.dedup},
            "checks": list(self.config.checks),
            "graph_count": self.graph_count,
            "totals": {name: asdict(self.totals[name])
                       for name in self.config.checks},
            "violations": self.violations,
        }

    def body_text(self) -> str:
        return json.dumps(self.body_dict(), sort_keys=True, indent=2)

    def violations_tsv(self) -> str:
        lines = ["graph6\tcheck\tlhs\trhs\tslack"]
        for v in self.violations:
            lines.append(f"{v['graph6']}\t{v['check']}\t{v.get('lhs')}"
                         f"\t{v.get('rhs')}\t{v.get('slack')}")
        return "\n".join(lines)


def _verdict_record(graph6: str, name: str, v: Verdict) -> dict:
    rec: dict = {"graph6": graph6, "check": name}
    if v.lhs is not None:
        rec["lhs"] = v.lhs
    if v.rhs is not None:
        rec["rhs"] = v.rhs
    if v.slack is not None:
        rec["slack"] = v.slack
    if v.witness is not None:
        rec["witness"] = v.witness
    return rec


def scan(config: ScanConfig) -> ScanReport:
    """Evaluate every configured check on every graph on ``config.n``
    vertices, in one walk over the isomorphism classes.

    A labeled scan counts each class representative for its orbit of
    n!/|Aut| labeled graphs and replays any orbit with a violation member
    by member, so the body is byte-identical to checking every edge mask; a
    dedup scan counts each representative once.  In both modes the orbit
    sizes must add up to 2^C(n,2) labeled graphs (the connected ones under
    ``connected_only``), else RuntimeError: a class the walk dropped is an
    error, not a smaller report.  Each check's totals are counted in
    sub-totals per class-index residue modulo ``shard_count``, created for
    the first class of a residue and summed at the end; the sum is
    commutative and the violation list is sorted once, so the body is the
    same for any shard count.
    """
    started = time.monotonic()
    n, checks = config.n, config.checks
    report = ScanReport(config=config)
    sub_totals: dict[int, dict[str, CheckTotals]] = {}
    edge_list = _edge_list(n)
    n_perms = math.factorial(n)
    idx = labeled_total = 0
    for mask, orbit in _orbits(n):
        g = _graph_from_mask(n, mask, edge_list)
        if config.connected_only and component_count(g) != 1:
            continue
        residue = idx % config.shard_count
        idx += 1
        totals = sub_totals.get(residue)
        if totals is None:
            totals = sub_totals[residue] = {c: CheckTotals() for c in checks}
        weight = n_perms // int(np.count_nonzero(orbit == mask))
        labeled_total += weight
        verdicts = list(check_verdicts(g, checks))
        if config.dedup or all(v.status != VIOLATED for _, v in verdicts):
            report.add(g, verdicts, totals, 1 if config.dedup else weight)
        else:
            members = np.unique(orbit)
            if len(members) != weight:
                raise RuntimeError(f"orbit of edge mask {mask} on {n} vertices "
                                   f"has {len(members)} members, not {weight}")
            for member in members:
                if member == mask:
                    report.add(g, verdicts, totals)
                    continue
                h = _graph_from_mask(n, int(member), edge_list)
                report.add(h, check_verdicts(h, checks), totals)
    want = _labeled_count(n, config.connected_only)
    if labeled_total != want:
        raise RuntimeError(f"orbit weights add up to {labeled_total} "
                           f"graphs, not the {want} labeled graphs")

    report.totals = {c: CheckTotals() for c in checks}
    for totals in sub_totals.values():
        for name in checks:
            report.totals[name].merge(totals[name])
    report.violations.sort(key=lambda rec: (rec["graph6"], rec["check"]))
    report.elapsed_seconds = time.monotonic() - started
    return report
