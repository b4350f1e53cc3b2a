"""Checkers for the stability/covering bounds, their equality cases, the
extremal families attaining them, and minimum-edge catalogs.

Every checker returns a ``Verdict`` rather than raising on hypothesis
failure: the harness pipes every enumerated graph through every check, so
inapplicability has to be data, not control flow.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .gamma import gamma_closed
from .graphs import Graph, bits, component_count, from_edges, to_graph6
from .invariants import GraphAnalysis

HOLDS = "holds"
VIOLATED = "violated"
NOT_APPLICABLE = "not-applicable"


@dataclass(frozen=True)
class Verdict:
    """Outcome of one check on one graph.

    ``slack`` is ``rhs - lhs`` for upper-bound checks and ``lhs - rhs`` for
    lower-bound checks, so that slack >= 0 always means the check holds;
    each checker documents its convention.  ``equality`` means the check
    holds with zero slack.  A check's name is its key in
    ``harness.CHECKS``; the verdict does not carry it.
    """

    status: str
    lhs: Optional[int] = None
    rhs: Optional[int] = None
    slack: Optional[int] = None
    equality: bool = False
    witness: Optional[dict] = None

    @property
    def applicable(self) -> bool:
        return self.status in (HOLDS, VIOLATED)


def _bound_verdict(lhs: int, rhs: int, slack: int,
                   witness: Optional[dict] = None) -> Verdict:
    status = HOLDS if slack >= 0 else VIOLATED
    return Verdict(status, lhs=lhs, rhs=rhs, slack=slack,
                   equality=(slack == 0), witness=witness)


def check_theorem1(g: Graph, an: Optional[GraphAnalysis] = None) -> Verdict:
    """alpha <= tau * (1 + alpha - sigma_v) for graphs without isolated
    vertices.  slack = rhs - lhs."""
    if g.n == 0 or g.has_isolated_vertex():
        return Verdict(NOT_APPLICABLE)
    an = an or GraphAnalysis(g)
    lhs = an.alpha
    rhs = an.tau * (1 + an.alpha - an.sigma_v)
    return _bound_verdict(lhs, rhs, rhs - lhs)


def classify_equality_theorem1(g: Graph,
                               an: Optional[GraphAnalysis] = None) -> Verdict:
    """Structure of the equality case of theorem1 when alpha > sigma_v.

    Matches a disjoint union of clique-of-stars blocks sharing one leaf
    count: each component must be a clique K_k whose every vertex carries
    the same number ell >= 1 of pendant leaves.  The connected case is the
    single clique-of-stars family; disconnected equality cases (e.g. two
    disjoint 2-leaf stars) force the union form.  The blocks are recognized
    directly, so the classification is exact at every order: a 2-vertex
    component is (k, ell) = (1, 1); in a larger one the leaves are the
    degree-1 vertices, the other k vertices must form a clique, and each of
    them must carry the same ell >= 1 leaves (a leaf's neighbour is never a
    leaf there).  Components are fitted in ``connected_components`` order;
    the fitted (k, ell) pairs are reported alongside alpha - sigma_v + 1.
    """
    an = an or GraphAnalysis(g)
    base = check_theorem1(g, an)
    if not (base.status == HOLDS and base.equality and an.alpha > an.sigma_v):
        return Verdict(NOT_APPLICABLE)

    from .graphs import connected_components

    fitted: list[tuple[int, int]] = []
    for comp in connected_components(g):
        block = _clique_of_stars_shape(g, comp)
        if block is None:
            return Verdict(VIOLATED,
                           witness={"component_order": comp.bit_count()})
        fitted.append(block)
    leaf_counts = {ell for _, ell in fitted}
    if len(leaf_counts) != 1:
        return Verdict(VIOLATED, witness={"leaf_counts": sorted(leaf_counts)})
    ell = leaf_counts.pop()
    witness = {
        "tau": an.tau,
        "leaves": ell,
        "alpha_minus_sigma_v_plus_1": an.alpha - an.sigma_v + 1,
        "components": fitted,
    }
    return Verdict(HOLDS, equality=True, witness=witness)


def _clique_of_stars_shape(g: Graph, comp: int) -> Optional[tuple[int, int]]:
    """(k, ell) when the component ``comp`` of ``g`` is clique_of_stars(k,
    ell), else None."""
    if comp.bit_count() == 2:
        return 1, 1
    leaves = sum(1 << v for v in bits(comp) if g.degree(v) == 1)
    centers = comp & ~leaves
    carried = {(g.adj[c] & leaves).bit_count() for c in bits(centers)}
    if len(carried) != 1 or 0 in carried or any(
            g.adj[c] & centers != centers & ~(1 << c) for c in bits(centers)):
        return None
    return centers.bit_count(), carried.pop()


def check_cor1(g: Graph, an: Optional[GraphAnalysis] = None) -> Verdict:
    """alpha - |alpha_core| <= tau - |tau_core|.  slack = rhs - lhs."""
    an = an or GraphAnalysis(g)
    cores = an.cores
    lhs = an.alpha - cores.alpha_core.bit_count()
    rhs = an.tau - cores.tau_core.bit_count()
    return _bound_verdict(lhs, rhs, rhs - lhs)


def check_berge(g: Graph, an: Optional[GraphAnalysis] = None) -> Verdict:
    """B-graphs without isolated vertices are tau-critical.  lhs = 1 when
    tau-critical, rhs = 1."""
    an = an or GraphAnalysis(g)
    if g.n == 0 or g.has_isolated_vertex() or not an.is_b_graph:
        return Verdict(NOT_APPLICABLE)
    lhs = int(an.is_tau_critical)
    return _bound_verdict(lhs, 1, lhs - 1)


def check_edge_bound(g: Graph, an: Optional[GraphAnalysis] = None) -> Verdict:
    """|E| >= alpha - c + Gamma(alpha, tau).  slack = lhs - rhs."""
    if g.n == 0:
        return Verdict(NOT_APPLICABLE)
    an = an or GraphAnalysis(g)
    lhs = g.edge_count
    rhs = an.alpha - component_count(g) + gamma_closed(an.alpha, an.tau).value
    return _bound_verdict(lhs, rhs, lhs - rhs)


def check_galvin_goddard(g: Graph, an: Optional[GraphAnalysis] = None) -> Verdict:
    """n >= p + q + sqrt(4pq) with p = sigma_v - 1, q = omega_v - 1, checked
    in pure integer arithmetic: n - p - q >= 0 and (n-p-q)^2 >= 4pq.
    lhs = (n-p-q)^2, rhs = 4pq, slack = lhs - rhs."""
    if g.n == 0:
        return Verdict(NOT_APPLICABLE)
    an = an or GraphAnalysis(g)
    p = an.sigma_v - 1
    q = an.omega_v - 1
    d = g.n - p - q
    lhs, rhs = d * d, 4 * p * q
    if d < 0 or lhs < rhs:
        return Verdict(VIOLATED, lhs=lhs, rhs=rhs, slack=lhs - rhs,
                       witness={"p": p, "q": q})
    return Verdict(HOLDS, lhs=lhs, rhs=rhs, slack=lhs - rhs,
                   equality=(lhs == rhs), witness={"p": p, "q": q})


# Extremal families

@dataclass(frozen=True)
class FamilySpec:
    """Parameters of one generator family.

    clique-of-stars: (tau >= 1, leaves >= 1); star: (leaves >= 1);
    complete: (n >= 1); odd-cycle: (n odd >= 3).
    """

    kind: str
    params: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")


def clique_of_stars(tau: int, leaves: int) -> Graph:
    """Clique K_tau with every clique vertex the center of a star carrying
    ``leaves`` pendant leaves; vertices 0..tau-1 are the clique."""
    if tau < 1 or leaves < 1:
        raise ValueError("clique-of-stars needs tau >= 1 and leaves >= 1")
    n = tau * (leaves + 1)
    edges = list(itertools.combinations(range(tau), 2))
    for i in range(tau):
        for j in range(leaves):
            edges.append((i, tau + i * leaves + j))
    return from_edges(n, edges)


def star(leaves: int) -> Graph:
    """Star with ``leaves`` pendant leaves (vertex 0 is the center)."""
    if leaves < 1:
        raise ValueError("star needs at least one leaf")
    return from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    return from_edges(n, itertools.combinations(range(n), 2))


def odd_cycle(n: int) -> Graph:
    if n < 3 or n % 2 == 0:
        raise ValueError("odd cycle needs odd n >= 3")
    return cycle(n)


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


# kind -> (builder, parameter names)
_FAMILIES = {
    "clique-of-stars": (clique_of_stars, ("tau", "leaves")),
    "star": (star, ("leaves",)),
    "complete": (complete, ("n",)),
    "odd-cycle": (odd_cycle, ("n",)),
}
FAMILY_KINDS = tuple(_FAMILIES)


def generate_family(spec: FamilySpec) -> Graph:
    """Construct the graph described by ``spec``."""
    build, names = _FAMILIES[spec.kind]
    if len(spec.params) != len(names):
        raise ValueError(f"{spec.kind} takes ({', '.join(names)})")
    return build(*spec.params)


# Isomorphism (desk scale)

def are_isomorphic(g: Graph, h: Graph) -> bool:
    """Brute-force vertex-permutation isomorphism with degree pruning.

    A desk helper: no check calls it, and its search is exponential in n.
    """
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    gdeg = [g.degree(v) for v in range(g.n)]
    hdeg = [h.degree(v) for v in range(h.n)]
    if sorted(gdeg) != sorted(hdeg):
        return False
    n = g.n
    mapping = [-1] * n
    used = 0

    def extend(v: int) -> bool:
        nonlocal used
        if v == n:
            return True
        for u in range(n):
            if used >> u & 1 or gdeg[v] != hdeg[u]:
                continue
            ok = True
            for w in range(v):
                if (g.adj[v] >> w & 1) != (h.adj[u] >> mapping[w] & 1):
                    ok = False
                    break
            if not ok:
                continue
            mapping[v] = u
            used |= 1 << u
            if extend(v + 1):
                return True
            used &= ~(1 << u)
        mapping[v] = -1
        return False

    return extend(0)


# Minimum-edge catalogs

@dataclass(frozen=True)
class CatalogResult:
    """Minimum edge count among stream graphs matching (alpha, tau, c)."""

    alpha: int
    tau: int
    components: int
    min_edges: Optional[int]
    witness_graph6: Optional[str]
    lower_bound: Optional[int]  # alpha - c + Gamma(alpha, tau)

    @property
    def empty(self) -> bool:
        return self.min_edges is None


def catalog_min_edges(alpha: int, tau: int, components: int,
                      stream: Iterable[Graph]) -> CatalogResult:
    """Fold a graph stream down to the minimum edge count (and first
    witness) among graphs with the requested (alpha, tau, component count).

    The caller is responsible for stream coverage; an empty match is a
    result, not an error.
    """
    best: Optional[int] = None
    witness: Optional[str] = None
    for g in stream:
        an = GraphAnalysis(g)
        if an.alpha != alpha or an.tau != tau:
            continue
        if component_count(g) != components:
            continue
        q = g.edge_count
        if best is None or q < best:
            best, witness = q, to_graph6(g)
    bound = alpha - components + gamma_closed(alpha, tau).value if alpha >= 1 else None
    return CatalogResult(alpha=alpha, tau=tau, components=components,
                         min_edges=best, witness_graph6=witness,
                         lower_bound=bound)
