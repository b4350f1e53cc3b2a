"""Shared construction helpers and independent oracles for the test suite.

The oracles here deliberately avoid the library's fast paths: stability via
raw subset enumeration, cores via explicit maximum-stable-set intersection,
matchings via permutation pairing, labeled scans by checking every edge
mask.  They are the ground truth the optimized code is measured against.
"""

from __future__ import annotations

import itertools

from giwb.bounds import VIOLATED
from giwb.graphs import Graph, bits, from_edges, to_graph6
from giwb.harness import (CheckTotals, ScanConfig, ScanReport,
                          _verdict_record, check_verdicts, enumerate_graphs)


def cycle(n: int) -> Graph:
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete(n: int) -> Graph:
    return from_edges(n, itertools.combinations(range(n), 2))


def edgeless(n: int) -> Graph:
    return Graph(n, (0,) * n)


def is_stable(g: Graph, subset: int) -> bool:
    return all(g.adj[v] & subset == 0 for v in bits(subset))


def alpha_oracle(g: Graph, subset: int | None = None) -> int:
    """Stability number by raw enumeration of all vertex subsets."""
    avail = g.full_mask if subset is None else subset
    best = 0
    s = avail
    while True:
        if is_stable(g, s):
            best = max(best, s.bit_count())
        if s == 0:
            break
        s = (s - 1) & avail
    return best


def maximum_stable_sets_oracle(g: Graph) -> list[int]:
    """All maximum stable sets by raw subset enumeration."""
    a = alpha_oracle(g)
    return [s for s in range(1 << g.n)
            if s.bit_count() == a and is_stable(g, s)]


def cores_oracle(g: Graph) -> tuple[int, int]:
    """(alpha_core, tau_core) from the maximum stable sets directly:
    alpha_core is their intersection, tau_core the complement of their
    union."""
    maxes = maximum_stable_sets_oracle(g)
    inter = g.full_mask
    union = 0
    for s in maxes:
        inter &= s
        union |= s
    return inter, g.full_mask & ~union


def perfect_matching_oracle(g: Graph) -> bool:
    """Perfect matching by trying every pairing of the vertex sequence."""
    if g.n % 2:
        return False
    verts = list(range(g.n))

    def pair_up(rest: list[int]) -> bool:
        if not rest:
            return True
        v, tail = rest[0], rest[1:]
        for i, u in enumerate(tail):
            if g.has_edge(v, u) and pair_up(tail[:i] + tail[i + 1:]):
                return True
        return False

    return pair_up(verts)


def all_labeled_graphs(n: int):
    """Every labeled graph on n vertices, by explicit edge subsets."""
    pairs = list(itertools.combinations(range(n), 2))
    for r in range(len(pairs) + 1):
        for chosen in itertools.combinations(pairs, r):
            yield from_edges(n, chosen)


def brute_force_scan(config: ScanConfig) -> ScanReport:
    """Reference labeled scan: every configured check on every labeled
    graph of the stream, without orbit weighting or shards."""
    report = ScanReport(config=config,
                        totals={c: CheckTotals() for c in config.checks})
    for g in enumerate_graphs(config.n, config.connected_only):
        report.graph_count += 1
        for name, verdict in check_verdicts(g, config.checks):
            report.totals[name].add(verdict)
            if verdict.status == VIOLATED:
                report.violations.append(
                    _verdict_record(to_graph6(g), name, verdict))
    report.violations.sort(key=lambda rec: (rec["graph6"], rec["check"]))
    return report
