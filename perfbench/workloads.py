"""The benchmark's workloads: the giwb command lines they run and the seeded
input of ``check-graphs``.

Nothing here imports giwb.  The worker feeds these argument lists to
``giwb.cli.main``; the oracles rebuild the same inputs from the same seed.
"""

from __future__ import annotations

import itertools
import random

LABELED_CHECKS = ("theorem1", "theorem1-equality", "cor1", "berge",
                  "edge-bound", "galvin-goddard", "hyper-cor")
DEDUP_CHECKS = ("conj1", "conj3", "omega-v-sub")

# The checks `giwb check --all` runs, and those of them whose violation is a
# failure of the program (the rest are conjectures).
CHECK_ALL = ("theorem1", "cor1", "berge", "edge-bound", "galvin-goddard",
             "conj1", "conj3", "hyper-cor")
THEOREM_CHECKS = frozenset({"theorem1", "cor1", "berge", "edge-bound",
                            "galvin-goddard", "hyper-cor"})

SCANS = {
    "scan-labeled-n6": ["search", "--n", "6", "--checks",
                        ",".join(LABELED_CHECKS)],
    "scan-dedup-n7": ["search", "--n", "7", "--dedup", "--checks",
                      ",".join(DEDUP_CHECKS)],
}
# A small scan with the same checks, run once before timing so that lazy
# imports and first-call costs land in set-up.
SCAN_WARMUPS = {
    "scan-labeled-n6": ["search", "--n", "4", "--checks",
                        ",".join(LABELED_CHECKS)],
    "scan-dedup-n7": ["search", "--n", "4", "--dedup", "--checks",
                      ",".join(DEDUP_CHECKS)],
}
WORKLOADS = (*SCANS, "check-graphs")

# check-graphs: for every order, graphs of five densities without isolated
# vertices and one graph with exactly one isolated vertex, each drawn
# uniformly among such graphs with round(density * C(n, 2)) edges (C(n - 1, 2)
# for the one with the isolated vertex).  An isolated vertex makes several
# checks not applicable and roughly halves a graph's cost, so fixing which
# slots have one, and the edge count of every slot, keeps the seed from
# moving the cost of a round much.  Orders 10-16 use giwb's 2^n subset
# table, orders 17 and up its branch-and-bound; the sparse large graphs
# exercise the Bron-Kerbosch enumeration.
CHECK_ORDERS = (10, 12, 13, 14, 15, 16, 17, 20, 24, 28, 32)
CHECK_SLOTS = ((0.2, False), (0.3, False), (0.3, True), (0.5, False),
               (0.7, False), (0.85, False))  # (density, isolated vertex)


def check_graphs(seed: int) -> list[tuple[int, list[tuple[int, int]]]]:
    """The seeded ``check-graphs`` input as (order, sorted edge list) pairs."""
    rng = random.Random(seed)
    out = []
    for n in CHECK_ORDERS:
        for density, isolated in CHECK_SLOTS:
            out.append((n, _no_isolated(rng, n, density, isolated)))
    return out


def _no_isolated(rng, n: int, density: float, isolated: bool):
    """Edges on n vertices that touch every vertex, or every vertex but one
    random one, by rejection."""
    skip = rng.randrange(n) if isolated else None
    others = [v for v in range(n) if v != skip]
    pairs = list(itertools.combinations(others, 2))
    m = round(density * len(pairs))
    if 2 * m < len(others):
        raise ValueError(f"{m} edges cannot touch {len(others)} vertices")
    while True:
        edges = sorted(rng.sample(pairs, m))
        if len({v for e in edges for v in e}) == len(others):
            return edges


def graph6(n: int, edges) -> str:
    """graph6 token of a graph on n <= 62 vertices (McKay's format: the
    upper triangle column by column, six bits per printable byte)."""
    if not 0 <= n <= 62:
        raise ValueError("graph6 encoder handles 0..62 vertices")
    present = {(min(u, v), max(u, v)) for u, v in edges}
    stream = [int((i, j) in present) for j in range(1, n) for i in range(j)]
    stream += [0] * (-len(stream) % 6)
    body = "".join(
        chr(63 + int("".join(map(str, stream[k:k + 6])), 2))
        for k in range(0, len(stream), 6))
    return chr(63 + n) + body
