"""Exact graph invariants: stability and covering numbers, the per-vertex and
per-edge covering invariants, core decomposition, and criticality predicates.

Everything here is exact combinatorial search.  ``stability_number`` is a
bitmask branch-and-bound; the derived invariants run off a per-graph table of
stability numbers over vertex subsets, so vertex deletions and per-vertex
queries are table lookups at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional

from .graphs import Graph, VertexMask, bridges, complement, component_count

# Largest n for which the 2^n subset table is built; beyond it every query
# falls back to branch-and-bound.
_TABLE_CAP = 16


def stability_number(g: Graph, subset: Optional[VertexMask] = None) -> int:
    """Maximum size of a stable set of ``g`` (restricted to ``subset``).

    Branch-and-bound over bit rows: branch on the lowest-index available
    vertex, prune with a greedy clique-cover upper bound.  The pruning is a
    pure performance choice; correctness is anchored to the subset
    enumeration oracle in the test suite.
    """
    adj = g.adj
    avail0 = g.full_mask if subset is None else subset
    if avail0 & ~g.full_mask:
        raise ValueError("subset has bits beyond n")
    best = 0

    def cover_bound(avail: int) -> int:
        # A clique cover of the available vertices bounds any stable set.
        cnt = 0
        rest = avail
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            cand = rest & adj[v]
            while cand:
                u = (cand & -cand).bit_length() - 1
                rest &= ~(1 << u)
                cand &= adj[u]
            cnt += 1
        return cnt

    def bb(avail: int, size: int) -> None:
        nonlocal best
        if size > best:
            best = size
        if not avail or size + cover_bound(avail) <= best:
            return
        v = (avail & -avail).bit_length() - 1
        bb(avail & ~(adj[v] | (1 << v)), size + 1)
        bb(avail & (avail - 1), size)

    bb(avail0, 0)
    return best


def max_stable_containing(g: Graph, v: int) -> int:
    """Largest stable set through ``v`` (automatically maximal at that size)."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    return GraphAnalysis(g).max_stable_containing(v)


def max_clique_containing_edge(g: Graph, e: tuple[int, int]) -> int:
    """Largest clique through the edge ``e``."""
    u, v = e
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise ValueError(f"edge ({u}, {v}) has a vertex out of range")
    if not g.has_edge(u, v):
        raise ValueError(f"({u}, {v}) is not an edge")
    return GraphAnalysis(g).max_clique_containing_edge(u, v)


def maximal_stable_sets(g: Graph) -> list[VertexMask]:
    """All inclusionwise-maximal stable sets, sorted by bit pattern."""
    co_rows = tuple((g.full_mask & ~g.adj[i]) & ~(1 << i) for i in range(g.n))
    return sorted(_bron_kerbosch(g.n, co_rows))


def maximal_cliques(g: Graph) -> list[VertexMask]:
    """All inclusionwise-maximal cliques, sorted by bit pattern."""
    return sorted(_bron_kerbosch(g.n, g.adj))


def maximum_stable_sets(g: Graph) -> list[VertexMask]:
    """All stable sets of maximum size, sorted by bit pattern."""
    sets = maximal_stable_sets(g)
    top = max((s.bit_count() for s in sets), default=0)
    return [s for s in sets if s.bit_count() == top]


def _bron_kerbosch(n: int, rows: tuple[int, ...]) -> Iterator[VertexMask]:
    """Maximal cliques of the graph given by neighbor rows, with pivoting.
    The empty graph yields the empty clique (which is maximal in it)."""

    def rec(clique: int, cand: int, excl: int):
        if not cand and not excl:
            yield clique
            return
        pool = cand | excl
        pivot = (pool & -pool).bit_length() - 1
        best_deg = (cand & rows[pivot]).bit_count()
        scan = pool & ~(1 << pivot)
        while scan:
            u = (scan & -scan).bit_length() - 1
            scan &= scan - 1
            d = (cand & rows[u]).bit_count()
            if d > best_deg:
                pivot, best_deg = u, d
        branch = cand & ~rows[pivot]
        while branch:
            v = (branch & -branch).bit_length() - 1
            branch &= branch - 1
            vb = 1 << v
            yield from rec(clique | vb, cand & rows[v], excl & rows[v])
            cand &= ~vb
            excl |= vb

    yield from rec(0, (1 << n) - 1, 0)


@dataclass(frozen=True)
class InvariantReport:
    """All invariants of one graph.  ``omega_e`` is None on edgeless graphs
    and ``sigma_e`` is None on complete ones (min over an empty edge set)."""

    n: int
    edge_count: int
    component_count: int
    alpha: int
    tau: int
    omega: int
    sigma_v: int
    omega_v: int
    omega_e: Optional[int]
    sigma_e: Optional[int]
    has_isolated_vertex: bool


@dataclass(frozen=True)
class CoreDecomposition:
    """Partition of V into the intersection of all maximum stable sets
    (alpha_core), the intersection of all minimum vertex covers (tau_core),
    and the rest (b_part)."""

    alpha_core: VertexMask
    tau_core: VertexMask
    b_part: VertexMask


@dataclass(frozen=True)
class CriticalityProfile:
    is_b_graph: bool
    is_tau_critical: bool
    is_alpha_critical: bool
    q_minimal_necessary: bool
    critical_edges: frozenset[tuple[int, int]]
    bridge_edges: frozenset[tuple[int, int]]


class GraphAnalysis:
    """Cached exact analysis of one graph.

    Builds the subset table of stability numbers once (n <= 16) so that the
    vertex-deletion and through-vertex queries behind sigma_v, the cores, and
    the criticality predicates are O(1) lookups.  All results are plain
    values; instances are cheap to throw away.
    """

    def __init__(self, g: Graph):
        self.g = g

    @cached_property
    def _table(self) -> Optional[list[int]]:
        g = self.g
        if g.n > _TABLE_CAP:
            return None
        adj = g.adj
        closed = [adj[i] | (1 << i) for i in range(g.n)]
        table = [0] * (1 << g.n)
        for s in range(1, 1 << g.n):
            v = (s & -s).bit_length() - 1
            skip = table[s & (s - 1)]
            take = 1 + table[s & ~closed[v]]
            table[s] = skip if skip >= take else take
        return table

    def alpha_of(self, subset: VertexMask) -> int:
        t = self._table
        if t is not None:
            return t[subset]
        return stability_number(self.g, subset)

    @cached_property
    def complement_analysis(self) -> "GraphAnalysis":
        return GraphAnalysis(complement(self.g))

    @cached_property
    def alpha(self) -> int:
        return self.alpha_of(self.g.full_mask)

    @property
    def tau(self) -> int:
        return self.g.n - self.alpha

    @cached_property
    def omega(self) -> int:
        return self.complement_analysis.alpha

    def max_stable_containing(self, v: int) -> int:
        g = self.g
        return 1 + self.alpha_of(g.full_mask & ~(g.adj[v] | (1 << v)))

    @cached_property
    def sigma_v(self) -> int:
        if self.g.n == 0:
            return 0
        return min(self.max_stable_containing(v) for v in range(self.g.n))

    @cached_property
    def omega_v(self) -> int:
        return self.complement_analysis.sigma_v

    def max_clique_containing_edge(self, u: int, v: int) -> int:
        common = self.g.adj[u] & self.g.adj[v]
        return 2 + self.complement_analysis.alpha_of(common)

    @cached_property
    def omega_e(self) -> Optional[int]:
        vals = [self.max_clique_containing_edge(u, v) for u, v in self.g.edges()]
        return min(vals) if vals else None

    @cached_property
    def sigma_e(self) -> Optional[int]:
        # omega_e of the complement, whose complement is g: this analysis
        # answers its alpha queries, so no second analysis of g is built.
        co = self.complement_analysis.g
        vals = [2 + self.alpha_of(co.adj[u] & co.adj[v]) for u, v in co.edges()]
        return min(vals) if vals else None

    @cached_property
    def cores(self) -> CoreDecomposition:
        g = self.g
        a = self.alpha
        alpha_core = tau_core = 0
        for v in range(g.n):
            vb = 1 << v
            if self.alpha_of(g.full_mask & ~vb) == a - 1:
                alpha_core |= vb
            elif self.max_stable_containing(v) < a:
                tau_core |= vb
        b = g.full_mask & ~(alpha_core | tau_core)
        return CoreDecomposition(alpha_core, tau_core, b)

    @property
    def is_b_graph(self) -> bool:
        return self.cores.tau_core == 0

    @property
    def is_tau_critical(self) -> bool:
        return self.cores.alpha_core == 0


def invariant_suite(g: Graph) -> InvariantReport:
    """Compute every invariant of ``g`` in one report."""
    an = GraphAnalysis(g)
    return InvariantReport(
        n=g.n,
        edge_count=g.edge_count,
        component_count=component_count(g),
        alpha=an.alpha,
        tau=an.tau,
        omega=an.omega,
        sigma_v=an.sigma_v,
        omega_v=an.omega_v,
        omega_e=an.omega_e,
        sigma_e=an.sigma_e,
        has_isolated_vertex=g.has_isolated_vertex(),
    )


def core_decomposition(g: Graph) -> CoreDecomposition:
    """Deletion-based cores: v is in alpha_core iff deleting it drops alpha;
    v is in tau_core iff no maximum stable set contains it."""
    return GraphAnalysis(g).cores


def criticality_profile(g: Graph) -> CriticalityProfile:
    """B-graph / tau-critical / alpha-critical flags plus the edge partition
    behind the necessary condition for edge-minimal graphs."""
    an = GraphAnalysis(g)
    is_tc = an.is_tau_critical
    # Cross-check the vertex-deletion characterization of tau-criticality.
    by_deletion = all(
        (g.n - 1) - an.alpha_of(g.full_mask & ~(1 << v)) < an.tau
        for v in range(g.n))
    if by_deletion != is_tc:
        raise RuntimeError("deletion and core tau-criticality tests disagree")
    edges = list(g.edges())
    critical = frozenset(
        e for e in edges
        if stability_number(g.remove_edge(*e)) == an.alpha + 1)
    bridge_edges = frozenset(bridges(g))
    is_ac = bool(edges) and len(critical) == len(edges)
    q_min = all(e in critical or e in bridge_edges for e in edges)
    return CriticalityProfile(
        is_b_graph=an.is_b_graph,
        is_tau_critical=is_tc,
        is_alpha_critical=is_ac,
        q_minimal_necessary=q_min,
        critical_edges=critical,
        bridge_edges=bridge_edges,
    )


def has_perfect_matching(g: Graph) -> bool:
    """Exact recursive search: match the lowest unmatched vertex, branch on
    its incident edges.  Odd orders are rejected without search."""
    if g.n % 2:
        return False
    adj = g.adj

    def rec(unmatched: int) -> bool:
        if not unmatched:
            return True
        v = (unmatched & -unmatched).bit_length() - 1
        rest = unmatched & (unmatched - 1)
        cand = rest & adj[v]
        while cand:
            u = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            if rec(rest & ~(1 << u)):
                return True
        return False

    return rec(g.full_mask)
