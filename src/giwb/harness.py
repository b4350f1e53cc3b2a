"""Exhaustive small-graph enumeration, the graph-file reader and the
check-scan harness.

The labeled stream covers every edge mask (ascending); dedup keeps one
representative per isomorphism class (the lexicographically minimal edge
mask over all vertex permutations).  Every scan is one walk over the
classes, each with its orbit.  Every check is a function of the
isomorphism class, so by orbit-stabilizer the labeled totals are the sum
over classes of orbit size x verdict: a labeled scan weights each
representative by n!/|Aut|, a dedup scan weights it 1.  In both modes a
violating class gets one record per violated check, named by its
representative, and the orbit sizes must add up to the labeled count.
Per-check totals are summed from sub-totals per class-index residue, so
``ScanConfig.shard_count`` changes none.

The class walk ``_orbits`` marks each class's orbit in a bitmap over all
2^C(n,2) edge masks and jumps to the next unmarked mask; it sums each orbit
from per-chunk tables of the permutations' edge images, one row add per
three edge bits.  It is the only numpy code and imports numpy when it
starts: ``search``, ``catalog-min-edges`` without ``--input`` and
``enumerate_graphs(n, dedup=True)`` load it, and no other command does.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from typing import TYPE_CHECKING, Callable, Iterator, Optional

from .bounds import (HOLDS, NOT_APPLICABLE, Verdict, VIOLATED, check_berge,
                     check_cor1, check_edge_bound, check_galvin_goddard,
                     check_theorem1, classify_equality_theorem1)
from .conjectures import (check_conjecture1_bound, check_conjecture1_full,
                          check_conjecture3, check_omega_v_substitution)
from .graphs import (Graph, GraphFormatError, _graph, component_count,
                     is_significant, parse_edge_list, parse_graph6, to_graph6)
from .hypergraphs import check_hyper_corollary
from .invariants import GraphAnalysis

if TYPE_CHECKING:
    import numpy as np

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
    return _graph(n, adj)


def _orbits(n: int) -> Iterator[tuple[int, int, np.ndarray]]:
    """Ascending canonical edge masks, one per isomorphism class, each with
    its weight n!/|Aut| (the orbit size) and its orbit: the mask's image
    under every vertex permutation, n! entries (in ``itertools.permutations``
    order) in which each orbit member appears |Aut| times.

    Ascending iteration plus orbit marking makes the first mask seen in
    each orbit exactly the lexicographic minimum over all permutations.
    After marking an orbit the walk moves to the next unmarked mask: on a
    bool array ``argmin`` stops at the first ``False``, and returns 0, the
    mask just marked, once every mask is marked.

    An orbit is the sum, over the mask's set edges, of each edge's image
    bit under every permutation.  The edge bits are cut into chunks of three
    consecutive bits, and each chunk gets a table, built by one small
    matmul, whose row x is that sum over the chunk's edges that x selects;
    an orbit is then one contiguous row add per non-empty chunk.  At n = 7
    that is at most 7 adds of 5,040 entries a class, in place of a strided
    gather and sum of the set edges' columns of the 5,040 x 21 image map,
    and the walk takes about 60% of the time it took that way.
    """
    import numpy as np
    m = n * (n - 1) // 2
    us, vs = np.array(_edge_list(n), dtype=np.int64).reshape(m, 2).T
    edge_index = np.zeros((n, n), dtype=np.int64)
    edge_index[us, vs] = edge_index[vs, us] = np.arange(m)
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    n_perms = len(perms)
    # Row i: edge i's image bit under every permutation.
    edge_images = (np.int64(1) << edge_index[perms[:, us], perms[:, vs]]).T
    # One walk's tables hold ceil(C(n,2)/w) x 2^w x n! int64 entries for
    # w edge bits a chunk: 2.2 MiB at n = 7 for w = 3, 3.2 MiB for w = 4
    # and 15 MiB for w = 7.  Widths 3 to 5 walk n = 7 within about 15% of
    # each other; w = 7 is slower and would add a third to the peak memory
    # of a dedup n = 7 scan.
    chunk_bits = 3
    tables = []
    for lo in range(0, m, chunk_bits):
        width = min(chunk_bits, m - lo)
        selector = np.arange(1 << width)[:, None] >> np.arange(width) & 1
        tables.append((lo, (1 << width) - 1,
                       selector @ edge_images[lo:lo + width]))
    del perms, edge_images
    seen = np.zeros(1 << m, dtype=bool)
    mask = 0
    while not seen[mask]:
        orbit = np.zeros(n_perms, dtype=np.int64)
        for lo, low, table in tables:
            x = mask >> lo & low
            if x:
                orbit += table[x]
        seen[orbit] = True
        yield mask, n_perms // int(np.count_nonzero(orbit == mask)), orbit
        mask += int(seen[mask:].argmin())


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


def enumerate_graphs(n: int, dedup: bool = False) -> Iterator[Graph]:
    """Stream all graphs on ``n`` vertices: every labeled edge mask in
    ascending order, or one canonical representative per isomorphism class
    with ``dedup``."""
    if not 1 <= n <= ENUM_CAP:
        raise ValueError(f"enumeration supports 1 <= n <= {ENUM_CAP}")
    edge_list = _edge_list(n)
    masks = ((mask for mask, _, _ in _orbits(n)) if dedup
             else range(1 << len(edge_list)))
    for mask in masks:
        yield _graph_from_mask(n, mask, edge_list)


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
        if head[-1].split()[0] == "n":  # the header parse_edge_list reads
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
    one analysis, so each distinct α query is searched once."""
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
    """Totals per check plus the replayable violation list of one scan:
    one record per violating class and check, named by the class
    representative.

    ``graphs_analysed`` counts the classes whose checks ran; like
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
        ``totals`` and record each of its violations once."""
        self.graph_count += weight
        self.graphs_analysed += 1
        g6: Optional[str] = None
        for name, verdict in verdicts:
            totals[name].add(verdict, weight)
            if verdict.status == VIOLATED:
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
    n!/|Aut| labeled graphs, a dedup scan counts it once; in both modes a
    violation is recorded once, for the representative.  The orbit
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
    idx = labeled_total = 0
    for mask, weight, _ in _orbits(n):
        g = _graph_from_mask(n, mask, edge_list)
        if config.connected_only and component_count(g) != 1:
            continue
        residue = idx % config.shard_count
        idx += 1
        totals = sub_totals.get(residue)
        if totals is None:
            totals = sub_totals[residue] = {c: CheckTotals() for c in checks}
        labeled_total += weight
        report.add(g, check_verdicts(g, checks), totals,
                   1 if config.dedup else weight)
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
