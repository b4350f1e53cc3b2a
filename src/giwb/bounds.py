"""Checkers for the stability/covering bounds, their equality cases, the
extremal families attaining them, and minimum-edge catalogs.

Every checker returns a ``Verdict`` rather than raising on hypothesis
failure: the harness pipes every enumerated graph through every check, so
inapplicability has to be data, not control flow.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

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


def _isolate_free_b_graph(g: Graph, an: GraphAnalysis) -> bool:
    """The scope of berge, conj1-bound, omega-v-sub and hyper-cor: a
    B-graph without isolated vertices.  Equivalently both cores are empty:
    with an empty tau_core the neighbour rule leaves exactly the isolated
    vertices in alpha_core."""
    return g.n > 0 and not g.has_isolated_vertex() and an.is_b_graph


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

    Matches the corona H o ellK_1 with ell >= 2: a graph H on tau vertices,
    the centers, each carrying ell pendant leaves.  H may be any graph;
    H = K_tau is clique_of_stars(tau, ell), and a disconnected H gives a
    disjoint union of coronas with one leaf count.  Every such corona is an
    equality case: alpha = tau * ell (the leaves), a center reaches only
    1 + (tau - 1) * ell, so sigma_v = alpha - ell + 1 and
    tau * (1 + alpha - sigma_v) = tau * ell = alpha, with alpha > sigma_v
    iff ell >= 2.  The converse, that every equality case with
    alpha > sigma_v is a corona, has no proof here; the tests verify it on
    every class with n <= 7, and an exhaustive pass over n <= 9 agreed.
    The corona is recognized directly (``_corona_shape``); the witness
    reports tau, ell, alpha - sigma_v + 1 and the vertex mask of H, and a
    violation reports the sorted degree sequence.
    """
    an = an or GraphAnalysis(g)
    base = check_theorem1(g, an)
    if not (base.status == HOLDS and base.equality and an.alpha > an.sigma_v):
        return Verdict(NOT_APPLICABLE)
    shape = _corona_shape(g)
    if shape is None:
        return Verdict(VIOLATED, witness={
            "degrees": sorted(g.degree(v) for v in range(g.n))})
    centers, ell = shape
    witness = {
        "tau": an.tau,
        "leaves": ell,
        "alpha_minus_sigma_v_plus_1": an.alpha - an.sigma_v + 1,
        "centers": centers,
    }
    return Verdict(HOLDS, equality=True, witness=witness)


def _corona_shape(g: Graph) -> Optional[tuple[int, int]]:
    """(centers, ell) when ``g`` is the corona H o ellK_1 with ell >= 2 and
    H the subgraph induced on the vertex mask ``centers``, else None.  The
    leaves are the degree-1 vertices (a center has degree >= ell >= 2), no
    leaf may be adjacent to another, and every other vertex must carry the
    same ell >= 2 leaves."""
    leaves = sum(1 << v for v in range(g.n) if g.degree(v) == 1)
    centers = g.full_mask & ~leaves
    carried = {(g.adj[c] & leaves).bit_count() for c in bits(centers)}
    if (len(carried) != 1 or min(carried) < 2
            or any(g.adj[leaf] & leaves for leaf in bits(leaves))):
        return None
    return centers, carried.pop()


def check_cor1(g: Graph, an: Optional[GraphAnalysis] = None) -> Verdict:
    """alpha - |alpha_core| <= tau - |tau_core|.  slack = rhs - lhs."""
    an = an or GraphAnalysis(g)
    cores = an.cores
    lhs = an.alpha - cores.alpha_core.bit_count()
    rhs = an.tau - cores.tau_core.bit_count()
    return _bound_verdict(lhs, rhs, rhs - lhs)


def check_berge(g: Graph, an: Optional[GraphAnalysis] = None) -> Verdict:
    """B-graphs without isolated vertices are tau-critical.  lhs = 1 when
    tau-critical, rhs = 1.

    This check cannot fail by construction: a B-graph has an empty tau_core,
    and ``GraphAnalysis.cores`` builds alpha_core by the neighbour rule, so
    alpha_core is exactly the isolated vertices, which the scope excludes;
    every graph in scope holds with equality.  Its scan totals therefore
    test no theorem.  The independent evidence for the cores is in the
    tests: criterion 07b compares them with the intersection and union of
    the maximum stable sets, and ``cores_by_deletion`` with vertex
    deletion."""
    an = an or GraphAnalysis(g)
    if not _isolate_free_b_graph(g, an):
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
    in pure integer arithmetic as (n-p-q)^2 >= 4pq.
    lhs = (n-p-q)^2, rhs = 4pq, slack = lhs - rhs.

    A largest stable set and a largest clique through any one vertex share
    only that vertex, so sigma_v + omega_v <= n + 1 and n - p - q >= 1:
    n - p - q >= sqrt(4pq) >= 0 is then the squared form exactly."""
    if g.n == 0:
        return Verdict(NOT_APPLICABLE)
    an = an or GraphAnalysis(g)
    p = an.sigma_v - 1
    q = an.omega_v - 1
    d = g.n - p - q
    lhs, rhs = d * d, 4 * p * q
    return _bound_verdict(lhs, rhs, lhs - rhs, witness={"p": p, "q": q})


# Extremal families

def clique_of_stars(tau: int, leaves: int) -> Graph:
    """Clique K_tau with every clique vertex the center of a star carrying
    ``leaves`` pendant leaves; vertices 0..tau-1 are the clique."""
    if tau < 1 or leaves < 1:
        raise ValueError("clique-of-stars needs tau >= 1 and leaves >= 1")
    spokes = ((i, tau + i * leaves + j)
              for i in range(tau) for j in range(leaves))
    return from_edges(tau * (leaves + 1),
                      itertools.chain(itertools.combinations(range(tau), 2),
                                      spokes))


def star(leaves: int) -> Graph:
    """Star with ``leaves`` pendant leaves (vertex 0 is the center)."""
    if leaves < 1:
        raise ValueError("star needs at least one leaf")
    return from_edges(leaves + 1, ((0, i) for i in range(1, leaves + 1)))


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
    return from_edges(n, ((i, (i + 1) % n) for i in range(n)))


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    return from_edges(n, ((i, i + 1) for i in range(n - 1)))


# kind -> (builder, parameter names)
_FAMILIES = {
    "clique-of-stars": (clique_of_stars, ("tau", "leaves")),
    "star": (star, ("leaves",)),
    "complete": (complete, ("n",)),
    "odd-cycle": (odd_cycle, ("n",)),
}
FAMILY_KINDS = tuple(_FAMILIES)


def generate_family(kind: str, params: Sequence[int]) -> Graph:
    """The member of family ``kind`` with parameters ``params``.

    clique-of-stars: (tau >= 1, leaves >= 1); star: (leaves >= 1);
    complete: (n >= 1); odd-cycle: (n odd >= 3).
    """
    if kind not in _FAMILIES:
        raise ValueError(f"unknown family kind {kind!r}")
    build, names = _FAMILIES[kind]
    if len(params) != len(names):
        raise ValueError(f"{kind} takes ({', '.join(names)})")
    return build(*params)


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
    result, not an error.  A negative alpha, tau or component count is an
    error, raised before the stream is read.
    """
    for name, value in (("alpha", alpha), ("tau", tau), ("c", components)):
        if value < 0:
            raise ValueError(f"{name} must be >= 0, not {value}")
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
