"""Hypergraphs, the 2-section reduction, conformality, and the checks that
reduce hypergraph statements to graph invariants.

Edges are vertex bitmasks.  Conformality is decided on subsets of size >= 2:
a hypergraph is conformal when every set of >= 2 pairwise edge-covered
vertices lies inside a single edge, equivalently when every maximal clique
of size >= 2 of the 2-section is contained in an edge.  Singletons are
exempt so that partial vertex coverage (e.g. a single edge on a larger
vertex set) does not break conformality.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .bounds import (NOT_APPLICABLE, Verdict, _bound_verdict,
                     _isolate_free_b_graph)
from .graphs import Graph, MAX_VERTICES, _graph, mask_of
from .invariants import GraphAnalysis, maximal_cliques, maximal_stable_sets


@dataclass(frozen=True)
class HyperGraph:
    """Vertex count plus a list of edge bitmasks (duplicates kept)."""

    n: int
    edges: tuple[int, ...]

    def __post_init__(self):
        # Stored as a tuple, as Graph stores its rows.
        object.__setattr__(self, "edges", tuple(self.edges))
        if not 0 <= self.n <= MAX_VERTICES:
            raise ValueError(f"vertex count {self.n} outside 0..{MAX_VERTICES}")
        full = (1 << self.n) - 1
        for i, e in enumerate(self.edges):
            if e & ~full:
                raise ValueError(f"edge {i} has bits beyond n")

    @property
    def r_max(self) -> int:
        """Maximum edge cardinality (0 for an edgeless hypergraph)."""
        return max((e.bit_count() for e in self.edges), default=0)

    def covered_vertices(self) -> int:
        out = 0
        for e in self.edges:
            out |= e
        return out

    def has_isolated_vertex(self) -> bool:
        """A vertex is isolated when it belongs to no edge."""
        return self.covered_vertices() != (1 << self.n) - 1 if self.n else False

    def is_uniform(self) -> Optional[int]:
        """The common edge size r, or None if edges have mixed sizes."""
        sizes = {e.bit_count() for e in self.edges}
        return sizes.pop() if len(sizes) == 1 else None


def two_section(h: HyperGraph) -> Graph:
    """Graph on the same vertices joining each pair co-occurring in an edge:
    each vertex's row is the union of the edges through it, less itself."""
    adj = []
    for v in range(h.n):
        bit = 1 << v
        row = 0
        for e in h.edges:
            if e & bit:
                row |= e
        adj.append(row & ~bit)
    return _graph(h.n, adj)


def stable_set_hypergraph(g: Graph) -> HyperGraph:
    """The hypergraph whose edges are the maximal stable sets of ``g``."""
    return HyperGraph(g.n, maximal_stable_sets(g))


def is_conformal(h: HyperGraph) -> bool:
    """Every maximal clique of size >= 2 of the 2-section is contained in
    some edge of ``h``.  Some edge holds a clique exactly when some maximal
    edge does, so the edges are tried as given."""
    for clique in maximal_cliques(two_section(h)):
        if clique.bit_count() < 2:
            continue
        if not any(clique & e == clique for e in h.edges):
            return False
    return True


def is_conformal_oracle(h: HyperGraph) -> bool:
    """Definitional check: every vertex subset of size >= 2 whose pairs are
    all edge-covered lies inside an edge.  Exponential; desk scale only."""
    edges = h.edges
    for k in range(2, h.n + 1):
        for combo in itertools.combinations(range(h.n), k):
            if not all(any(e >> u & 1 and e >> v & 1 for e in edges)
                       for u, v in itertools.combinations(combo, 2)):
                continue
            u_mask = mask_of(combo)
            if not any(e & u_mask == u_mask for e in edges):
                return False
    return True


def check_hyper_corollary(g: Graph, an: Optional[GraphAnalysis] = None) -> Verdict:
    """2 * r_max <= |V| for the maximal-stable-set hypergraph of ``g``,
    applicable on a B-graph without isolated vertices.  Both cores of such
    a graph are empty, which makes the edges meet in no vertex and cover
    every vertex (the converse fails on P_3).
    r_max is alpha for every graph, so no hypergraph is built.
    slack = rhs - lhs."""
    an = an or GraphAnalysis(g)
    if not _isolate_free_b_graph(g, an):
        return Verdict(NOT_APPLICABLE)
    lhs = 2 * an.alpha
    return _bound_verdict(lhs, g.n, g.n - lhs)


def check_conjecture2(h: HyperGraph) -> Verdict:
    """r * sigma_v <= n for r-uniform hypergraphs without isolated vertices
    whose 2-section has sigma_v = alpha.  sigma_v and alpha are computed on
    the 2-section, which preserves both.  slack = rhs - lhs."""
    if h.n == 0 or not h.edges or h.has_isolated_vertex():
        return Verdict(NOT_APPLICABLE)
    r = h.is_uniform()
    if r is None:
        return Verdict(NOT_APPLICABLE)
    an = GraphAnalysis(two_section(h))
    if an.sigma_v != an.alpha:
        return Verdict(NOT_APPLICABLE)
    lhs = r * an.sigma_v
    return _bound_verdict(lhs, h.n, h.n - lhs,
                          witness={"r": r, "sigma_v": an.sigma_v})
