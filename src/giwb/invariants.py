"""Exact graph invariants: stability and covering numbers, the per-vertex and
per-edge covering invariants, core decomposition, and the B-graph and
τ-critical flags.

Everything here is exact combinatorial search.  ``_max_stable_set`` is a
colour-ordered bitmask branch-and-bound that returns a maximum stable set:
one greedy clique cover per search node bounds and orders all of its
branches, and ``stability_number`` is the order of the set it returns.  The
derived invariants ask for α of vertex subsets through one
``GraphAnalysis`` per graph, which searches each distinct subset once and
keeps a maximum stable set inside it.  One Bron–Kerbosch enumerates maximal
cliques and stable sets, and, given α as a size floor, maximum ones alone.

σ_v, ω_v (σ_v of the complement) and the τ-core read m(v), the order of a
largest stable set through v.  These come from α's witness plus one search
per vertex that the maximum stable sets found so far do not settle: a
vertex inside one has m(v) = α, since m(v) <= α always, and so has a vertex
with exactly one neighbour w in one, S, since S - w + v is stable.  The
cores read the same queries: no vertex is deleted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional

from .graphs import Graph, VertexMask, complement, component_count, mask_of


def stability_number(g: Graph, subset: Optional[VertexMask] = None) -> int:
    """Maximum size of a stable set of ``g`` (restricted to ``subset``): the
    order of the set ``_max_stable_set`` finds."""
    return _max_stable_set(g, subset).bit_count()


def _max_stable_set(g: Graph,
                    subset: Optional[VertexMask] = None) -> VertexMask:
    """One stable set of maximum size in ``g`` (restricted to ``subset``).

    Colour-ordered branch-and-bound (Tomita & Seki, DMTCS 2003, run on the
    complement): each node covers its candidates greedily by cliques of
    ``g``, lowest index first.  A stable set meets a clique at most once,
    so a candidate in the k-th clique can grow the current set by at most
    k.  The node branches on its candidates in reverse cover order, stops
    once the current size plus that k cannot beat the best found, and
    drops each tried vertex from the candidates.  One cover per node thus
    both bounds and orders every branch.  The pruning is a pure performance
    choice; correctness is anchored to the subset enumeration oracle and
    to networkx in the test suite.
    """
    adj = g.adj
    cand0 = g.full_mask if subset is None else subset
    if cand0 & ~g.full_mask:
        raise ValueError("subset has bits beyond n")
    best = 0
    best_set = 0

    def expand(cand: int, chosen: int, size: int) -> None:
        nonlocal best, best_set
        cliques = []
        rest = cand
        while rest:
            clique = 0
            grow = rest
            while grow:
                b = grow & -grow
                clique |= b
                grow &= adj[b.bit_length() - 1]
            rest &= ~clique
            cliques.append(clique)
        for k in range(len(cliques), 0, -1):
            clique = cliques[k - 1]
            while clique:
                if size + k <= best:
                    return
                v = clique.bit_length() - 1
                b = 1 << v
                clique ^= b
                cand ^= b
                # The rest of this clique is adjacent to v, and every later
                # clique's vertices are already gone from cand.
                sub = cand & ~adj[v]
                if sub:
                    expand(sub, chosen | b, size + 1)
                elif size >= best:
                    best = size + 1
                    best_set = chosen | b

    expand(cand0, 0, 0)
    return best_set


def maximal_stable_sets(g: Graph) -> list[VertexMask]:
    """All inclusionwise-maximal stable sets, sorted by bit pattern."""
    return sorted(_bron_kerbosch(complement(g).adj, g.full_mask))


def maximal_cliques(g: Graph) -> list[VertexMask]:
    """All inclusionwise-maximal cliques, sorted by bit pattern."""
    return sorted(_bron_kerbosch(g.adj, g.full_mask))


def maximum_stable_sets(g: Graph,
                        subset: Optional[VertexMask] = None) -> list[VertexMask]:
    """All stable sets of size α(subset) inside ``subset`` (all of g by
    default), in g's own numbering, sorted by bit pattern."""
    floor = _max_stable_set(g, subset).bit_count()
    cand = g.full_mask if subset is None else subset
    return sorted(_bron_kerbosch(complement(g).adj, cand, floor))


def _bron_kerbosch(rows: tuple[int, ...], cand: VertexMask,
                   floor: int = 0) -> Iterator[VertexMask]:
    """Maximal cliques of order >= ``floor`` inside ``cand`` of the graph
    given by neighbor rows (Bron & Kerbosch, CACM 1973), with pivoting.  A
    branch whose clique plus candidates is below ``floor`` is cut.  An
    empty ``cand`` yields the empty clique (which is maximal in it)."""

    def rec(clique: int, cand: int, excl: int):
        if (clique | cand).bit_count() < floor:
            return
        if not cand and not excl:
            yield clique
            return
        pivot, best_deg, scan = -1, -1, cand | excl
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

    yield from rec(0, cand, 0)


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


class GraphAnalysis:
    """Cached exact analysis of one graph.

    Each distinct subset that the through-vertex queries behind sigma_v and
    the cores ask α of is searched once, and a maximum stable set inside it
    kept.  The per-vertex orders m(v) come from α's witness plus one search
    per vertex that the maximum stable sets found so far do not settle (see
    ``_through``).  All results are plain values; instances are cheap to
    throw away.
    """

    def __init__(self, g: Graph):
        self.g = g

    @cached_property
    def _table(self) -> dict[VertexMask, VertexMask]:
        """Subset -> one maximum stable set inside it, filled on demand."""
        return {}

    def alpha_of(self, subset: VertexMask) -> int:
        return self._max_set(subset).bit_count()

    def _max_set(self, subset: VertexMask) -> VertexMask:
        """A maximum stable set inside ``subset``, searched once."""
        table = self._table
        found = table.get(subset)
        if found is None:
            found = table[subset] = _max_stable_set(self.g, subset)
        return found

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

    @cached_property
    def _through(self) -> tuple[int, ...]:
        """m(v), the order of a largest stable set through v, for each v:
        1 + α(V - N[v]).  The vertices are walked in index order, keeping
        the maximum stable sets found so far.  v has m(v) = α unsearched
        when it lies in one of them, or when its neighbours meet one, S, in
        a single vertex w; then S - w + v joins the list.  Some neighbour
        of v lies in each S, since S is maximum.  Any other v is searched,
        and when its m(v) = α the set found through it joins the list."""
        g = self.g
        adj, full = g.adj, g.full_mask
        a = self.alpha
        found_sets = [self._max_set(full)]
        covered = found_sets[0]
        through = []
        for v in range(g.n):
            m = a
            b = 1 << v
            if not covered & b:
                for s in found_sets:
                    w = adj[v] & s
                    if not w & (w - 1):
                        found_sets.append(s ^ w | b)
                        covered |= b
                        break
                else:
                    found = self._max_set(full & ~(adj[v] | b))
                    m = 1 + found.bit_count()
                    if m == a:
                        found_sets.append(found | b)
                        covered |= found | b
            through.append(m)
        return tuple(through)

    def max_stable_containing(self, v: int) -> int:
        return self._through[v]

    @cached_property
    def sigma_v(self) -> int:
        return min(self._through, default=0)

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
        """tau_core holds the vertices through which no stable set reaches
        alpha; alpha_core holds those whose neighbours all lie in tau_core,
        which are exactly the vertices of every maximum stable set:
        - if N(v) ⊆ tau_core and a maximum stable set S missed v, then
          S ∪ {v} would be stable;
        - a neighbour that lies in some maximum stable set keeps v out of
          that set.
        Both read only alpha and the per-vertex orders of sigma_v."""
        g = self.g
        a = self.alpha
        through = self._through
        tau_core = mask_of(v for v in range(g.n) if through[v] < a)
        alpha_core = mask_of(v for v in range(g.n)
                             if not g.adj[v] & ~tau_core)
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
    """Cores: v is in tau_core iff no maximum stable set contains it, and in
    alpha_core iff every one does, i.e. iff N(v) lies inside tau_core."""
    return GraphAnalysis(g).cores


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
