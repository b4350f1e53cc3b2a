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

from .bounds import HOLDS, NOT_APPLICABLE, Verdict, _bound_verdict
from .graphs import (Graph, GraphFormatError, MAX_VERTICES, bits, mask_of,
                     parse_counted)
from .invariants import GraphAnalysis, maximal_cliques, maximal_stable_sets


@dataclass(frozen=True)
class HyperGraph:
    """Vertex count plus a list of edge bitmasks (duplicates allowed)."""

    n: int
    edges: tuple[int, ...]

    def __post_init__(self):
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

    def maximal_edges(self) -> tuple[int, ...]:
        """Inclusionwise-maximal edges, sorted by bit pattern."""
        uniq = sorted(set(self.edges))
        return tuple(e for e in uniq
                     if not any(e != f and e & f == e for f in uniq))


def parse_hypergraph(text: str) -> HyperGraph:
    """Parse the text format: first line ``n <count>``, then one edge per
    line as space-separated vertex indices."""
    n, lines = parse_counted(text, "hypergraph")
    edges = []
    for ln_no, ln in lines:
        try:
            vs = [int(tok) for tok in ln.split()]
        except ValueError:
            raise GraphFormatError(f"line {ln_no}: unparsable token in {ln!r}") from None
        if any(not 0 <= v < n for v in vs):
            raise GraphFormatError(f"line {ln_no}: vertex out of range in {ln!r}")
        edges.append(mask_of(vs))
    return HyperGraph(n, tuple(edges))


def incidence_matrix(h: HyperGraph) -> list[list[int]]:
    """0/1 matrix, rows = edges, columns = vertices."""
    return [[e >> v & 1 for v in range(h.n)] for e in h.edges]


def two_section(h: HyperGraph) -> Graph:
    """Graph on the same vertices joining each pair co-occurring in an edge."""
    adj = [0] * h.n
    for e in h.edges:
        for v in bits(e):
            adj[v] |= e & ~(1 << v)
    return Graph(h.n, tuple(adj))


def stable_set_hypergraph(g: Graph) -> HyperGraph:
    """The hypergraph whose edges are the maximal stable sets of ``g``."""
    return HyperGraph(g.n, tuple(maximal_stable_sets(g)))


def is_conformal(h: HyperGraph) -> bool:
    """Every maximal clique of size >= 2 of the 2-section is contained in
    some edge of ``h`` (edges reduced to the inclusionwise-maximal ones)."""
    maxi = h.maximal_edges()
    for clique in maximal_cliques(two_section(h)):
        if clique.bit_count() < 2:
            continue
        if not any(clique & e == clique for e in maxi):
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
    applicable when the edges have empty intersection and full union
    (equivalently: both cores of ``g`` are empty).  slack = rhs - lhs."""
    if g.n == 0:
        return Verdict(NOT_APPLICABLE)
    an = an or GraphAnalysis(g)
    cores = an.cores
    if cores.alpha_core or cores.tau_core:
        return Verdict(NOT_APPLICABLE)
    # Empty cores force the raw edge-family conditions: the edges intersect
    # trivially and cover every vertex.  (The converse is false: the maximal
    # stable sets of P_3 have empty intersection while its alpha_core does
    # not, so applicability is gated on the cores.)
    h = stable_set_hypergraph(g)
    inter = h.edges[0]
    for e in h.edges:
        inter &= e
    if inter:
        raise RuntimeError("empty cores, yet the maximal stable sets share a vertex")
    if h.covered_vertices() != g.full_mask:
        raise RuntimeError("empty cores, yet the maximal stable sets miss a vertex")
    if h.r_max != an.alpha:
        raise RuntimeError("the largest maximal stable set is not of size alpha")
    lhs = 2 * h.r_max
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
