"""Exhaustive small-graph enumeration and the sharded check-scan harness.

The labeled stream covers every edge mask (ascending), serving the "for all
graphs" quantifiers directly; dedup keeps one representative per isomorphism
class (the lexicographically minimal edge mask over all vertex permutations)
and is opt-in for reporting economy.  Scans are sharded by stream-index
residue with a commutative merge, so totals are shard-count independent.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, Iterator, Optional

import numpy as np

from .bounds import (HOLDS, NOT_APPLICABLE, UNCHECKED, Verdict, VIOLATED,
                     check_berge, check_cor1, check_edge_bound,
                     check_galvin_goddard, check_theorem1,
                     classify_equality_theorem1)
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
    # Construction from an edge mask is valid by construction; skip the
    # dataclass re-validation on the exhaustive hot path.
    g = object.__new__(Graph)
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "adj", tuple(adj))
    return g


def _dedup_masks(n: int) -> Iterator[int]:
    """Ascending canonical edge masks, one per isomorphism class.

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
        yield mask


def enumerate_graphs(n: int, connected_only: bool = False,
                     dedup: bool = False) -> Iterator[Graph]:
    """Stream all graphs on ``n`` vertices: every labeled edge mask in
    ascending order, or one canonical representative per isomorphism class
    with ``dedup``."""
    if not 1 <= n <= ENUM_CAP:
        raise ValueError(f"enumeration supports 1 <= n <= {ENUM_CAP}")
    edge_list = _edge_list(n)
    masks = _dedup_masks(n) if dedup else range(1 << len(edge_list))
    for mask in masks:
        g = _graph_from_mask(n, mask, edge_list)
        if connected_only and component_count(g) != 1:
            continue
        yield g


def graphs_from_file(source: str) -> Iterator[Graph]:
    """Stream the graphs of the file ``source`` (``-``: stdin).  The first
    line neither blank nor a ``#`` comment picks the format: ``n <count>``
    makes the input one edge-list graph, anything else is graph6, one graph
    per such line.  An input without a graph raises GraphFormatError."""
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
        for line in itertools.chain(head, fh):
            if is_significant(line):
                yield parse_graph6(line)


def check_verdicts(g: Graph, names) -> Iterator[tuple[str, Verdict]]:
    """``(name, verdict)`` for each named check on ``g``; the checks share
    one analysis, so its subset table is built once."""
    an = GraphAnalysis(g)
    for name in names:
        yield name, CHECKS[name](g, an)


@dataclass(frozen=True)
class ScanConfig:
    """What to scan and with which checks.

    Exactly one source: ``n`` (exhaustive enumeration) or ``path`` (read by
    ``graphs_from_file``).  ``shard_count`` partitions the stream by index
    residue; totals are independent of it by construction.
    """

    checks: tuple[str, ...]
    n: Optional[int] = None
    connected_only: bool = False
    dedup: bool = False
    path: Optional[str] = None
    shard_count: int = 1

    def __post_init__(self):
        if (self.n is None) == (self.path is None):
            raise ValueError("exactly one of n/path must be given")
        if self.n is not None and not 1 <= self.n <= ENUM_CAP:
            raise ValueError(f"enumeration supports 1 <= n <= {ENUM_CAP}")
        if self.shard_count < 1:
            raise ValueError("shard_count must be >= 1")
        if not self.checks:
            raise ValueError("at least one check required")
        object.__setattr__(self, "checks",
                           tuple(normalize_check_name(c) for c in self.checks))


@dataclass
class CheckTotals:
    applicable: int = 0
    holds: int = 0
    equality: int = 0
    violated: int = 0
    not_applicable: int = 0
    unchecked: int = 0

    def add(self, v: Verdict) -> None:
        if v.status == HOLDS:
            self.applicable += 1
            self.holds += 1
            if v.equality:
                self.equality += 1
        elif v.status == VIOLATED:
            self.applicable += 1
            self.violated += 1
        elif v.status == UNCHECKED:
            self.unchecked += 1
        else:
            self.not_applicable += 1

    def merge(self, other: "CheckTotals") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class ScanReport:
    """Totals per check plus the replayable violation list."""

    config: ScanConfig
    graph_count: int = 0
    totals: dict[str, CheckTotals] = field(default_factory=dict)
    violations: list[dict] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def theorem_violations(self) -> list[dict]:
        return [v for v in self.violations if v["check"] in THEOREM_CHECKS]

    @property
    def finding_violations(self) -> list[dict]:
        return [v for v in self.violations if v["check"] not in THEOREM_CHECKS]

    def body_dict(self) -> dict:
        """Deterministic report body (runtime stats excluded)."""
        return {
            "source": ({"file": self.config.path} if self.config.path
                       else {"n": self.config.n,
                             "connected_only": self.config.connected_only,
                             "dedup": self.config.dedup}),
            "checks": list(self.config.checks),
            "graph_count": self.graph_count,
            "totals": {name: self.totals[name].as_dict()
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
    """Evaluate every configured check on every stream graph.

    Internally a single pass with per-shard sub-totals merged at the end:
    the merge is commutative counting plus a sorted violation list, which
    guarantees byte-identical report bodies for any shard count.
    """
    started = time.monotonic()
    if config.path is not None:
        stream = graphs_from_file(config.path)
    else:
        stream = enumerate_graphs(config.n, config.connected_only, config.dedup)

    shards = [ScanReport(config=config,
                         totals={c: CheckTotals() for c in config.checks})
              for _ in range(config.shard_count)]
    for idx, g in enumerate(stream):
        shard = shards[idx % config.shard_count]
        shard.graph_count += 1
        g6: Optional[str] = None
        for name, verdict in check_verdicts(g, config.checks):
            shard.totals[name].add(verdict)
            if verdict.status == VIOLATED:
                if g6 is None:
                    g6 = to_graph6(g)
                shard.violations.append(_verdict_record(g6, name, verdict))

    report = ScanReport(config=config,
                        totals={c: CheckTotals() for c in config.checks})
    for shard in shards:
        report.graph_count += shard.graph_count
        for name in config.checks:
            report.totals[name].merge(shard.totals[name])
        report.violations.extend(shard.violations)
    report.violations.sort(key=lambda rec: (rec["graph6"], rec["check"]))
    report.elapsed_seconds = time.monotonic() - started
    return report
