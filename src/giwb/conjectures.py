"""Conjecture checkers: the clique-system covering conjecture, its
hypergraph consequence (in hypergraphs), and the complement-symmetric
variant.

Conjecture violations are first-class findings, never errors: the harness
records them as replayable counterexample artifacts and its statistics keep
"filtered by hypothesis" distinct from "verified".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .bounds import (HOLDS, NOT_APPLICABLE, Verdict, VIOLATED, _bound_verdict,
                     _isolate_free_b_graph)
from .graphs import Graph, VertexMask, bits, connected_components
from .invariants import GraphAnalysis, maximum_stable_sets


@dataclass(frozen=True)
class CliqueSystem:
    """Pairwise-disjoint vertex sets, each inducing a clique of the target
    order and meeting the designated stable set in exactly one vertex."""

    parts: tuple[VertexMask, ...]

    def validate(self, g: Graph, stable: VertexMask, order: int) -> bool:
        """Re-validate: parts within g, one through each vertex of stable."""
        seen = 0
        for part in self.parts:
            if part & seen or part & ~g.full_mask:
                return False
            seen |= part
            if (part.bit_count() != order or (part & stable).bit_count() != 1
                    or any(part & ~g.adj[u] != 1 << u for u in bits(part))):
                return False
        return seen & stable == stable


def clique_system_search(g: Graph, stable: VertexMask,
                         order: int) -> Optional[CliqueSystem]:
    """Exact backtracking search for a disjoint clique system: one clique of
    the given order through each vertex of the stable set ``stable``,
    pairwise disjoint and meeting ``stable`` only in that vertex.

    ``stable`` may be any stable set of g within its n vertices; it need
    not be maximum, so the search decides a system through every vertex of
    any stable set.  One search places next the stable vertex with the
    fewest neighbours not yet used (ties by lowest index), the most
    constrained one, and grows its clique from those neighbours:
    it adds the lowest-index candidate, narrows the candidates to that
    vertex's neighbours, and gives up once fewer candidates remain than the
    clique still needs.  No clique list is built per vertex: a completed
    clique passes the search on to the next stable vertex, and a failure
    there backtracks into the clique growth.  Cliques are tried in growth
    order (lexicographic in their sorted vertices), so the system found is
    deterministic.  Returns None only after exhausting the space, which
    can take time exponential in the number of stable vertices.

    The order matters: on the 64-vertex lexicographic square of
    ``GB]eCK`` index order had not decided its first maximum stable set
    after 20 s, and this order decides all 256 in about 0.2 s.
    """
    if order < 1:
        raise ValueError("clique order must be >= 1")
    if stable & ~g.full_mask or any(g.adj[v] & stable for v in bits(stable)):
        raise ValueError("the designated set is not a stable set")
    adj = g.adj
    chosen: list[int] = []

    def place(rest: int, used: int) -> bool:
        if not rest:
            return True
        free, v, fewest = ~used, -1, g.n
        left = rest
        while left:  # ascending, and only a strictly smaller count wins
            u = (left & -left).bit_length() - 1
            left &= left - 1
            k = (adj[u] & free).bit_count()
            if k < fewest:
                v, fewest = u, k
        # stable is stable, so the clique through v meets it only in v.
        return grow(rest & ~(1 << v), 1 << v, adj[v] & free, order - 1, used)

    def grow(rest: int, clique: int, cand: int, need: int, used: int) -> bool:
        if not need:
            chosen.append(clique)
            if place(rest, used | clique):
                return True
            chosen.pop()
            return False
        while cand.bit_count() >= need:
            u = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            if grow(rest, clique | 1 << u, cand & adj[u], need - 1, used):
                return True
        return False

    if place(stable, 0):
        return CliqueSystem(tuple(chosen))
    return None


def check_conjecture1_bound(g: Graph,
                            an: Optional[GraphAnalysis] = None) -> Verdict:
    """omega_e * sigma_v <= n for B-graphs without isolated vertices.
    slack = rhs - lhs."""
    an = an or GraphAnalysis(g)
    if not _isolate_free_b_graph(g, an):
        return Verdict(NOT_APPLICABLE)
    lhs = an.omega_e * an.sigma_v
    return _bound_verdict(lhs, g.n, g.n - lhs,
                          witness={"omega_e": an.omega_e, "sigma_v": an.sigma_v})


def check_conjecture1_full(g: Graph,
                           an: Optional[GraphAnalysis] = None) -> Verdict:
    """The bound plus the structural clause: every maximum stable set admits
    a disjoint clique system of order omega_e.

    The clause is decided once per connected component.  A clique of order
    omega_e >= 2 lies inside one component, and a maximum stable set of g
    is one maximum stable set of each component, so it has a system
    exactly when each of its parts has one.  Each component's maximum
    stable sets are searched in g in ascending order, up to the first that
    fails, so the searches add up over the components instead of
    multiplying: 63 on 21K_3, not 3^21.  The witness is the smallest
    failing maximum stable set of g read as an integer: components use
    disjoint bits, so it is the sum of every component's smallest maximum
    stable set plus the least (first failing set - smallest set) over the
    failing components.  A connected graph can still have exponentially
    many maximum stable sets, so no bound on the searches is claimed.
    """
    an = an or GraphAnalysis(g)
    bound = check_conjecture1_bound(g, an)
    if bound.status == NOT_APPLICABLE:
        return Verdict(NOT_APPLICABLE)
    if bound.status == VIOLATED:
        return Verdict(VIOLATED, lhs=bound.lhs, rhs=bound.rhs,
                       slack=bound.slack, witness={"failed": "bound"})
    smallest, excesses = 0, []
    for comp in connected_components(g):
        sets = maximum_stable_sets(g, comp)
        smallest += sets[0]
        for stable in sets:
            system = clique_system_search(g, stable, an.omega_e)
            if system is None:
                excesses.append(stable - sets[0])
                break
            if not system.validate(g, stable, an.omega_e):
                raise RuntimeError(
                    "clique_system_search returned an invalid system")
    if excesses:
        failed = smallest + min(excesses)
        return Verdict(VIOLATED, lhs=bound.lhs, rhs=bound.rhs,
                       slack=bound.slack,
                       witness={"failed": "clique-system",
                                "stable_set": list(bits(failed))})
    return Verdict(HOLDS, lhs=bound.lhs, rhs=bound.rhs,
                   slack=bound.slack, equality=bound.equality)


def check_conjecture3(g: Graph, an: Optional[GraphAnalysis] = None) -> Verdict:
    """omega_e * sigma_e <= n under the complement-symmetric hypotheses
    alpha = sigma_e = sigma_v and omega = omega_e = omega_v (plus no
    isolated vertices); the hypotheses are filters, not errors.
    slack = rhs - lhs."""
    an = an or GraphAnalysis(g)
    if g.n == 0 or g.has_isolated_vertex():
        return Verdict(NOT_APPLICABLE)
    # The hypotheses are meant to sit inside the chains
    # sigma_e <= sigma_v <= alpha and omega_e <= omega_v <= omega, under
    # which alpha = sigma_e forces sigma_v = alpha (and dually).  The chains
    # break exactly when a vertex dominates the graph (its complement twin is
    # isolated), and every such graph trivially "refutes" the bound (e.g.
    # P_3: sigma_e = 2 > 1 = sigma_v); requiring the entailed equalities
    # keeps the check on its intended domain.  They are tested first: every
    # filter gives the same verdict, and these need no per-edge search.
    if an.sigma_v != an.alpha or an.omega_v != an.omega:
        return Verdict(NOT_APPLICABLE)
    if an.sigma_e is None or an.omega_e is None:
        return Verdict(NOT_APPLICABLE)
    if an.alpha != an.sigma_e or an.omega != an.omega_e:
        return Verdict(NOT_APPLICABLE)
    lhs = an.omega_e * an.sigma_e
    return _bound_verdict(lhs, g.n, g.n - lhs,
                          witness={"omega_e": an.omega_e, "sigma_e": an.sigma_e})


def check_omega_v_substitution(g: Graph,
                               an: Optional[GraphAnalysis] = None) -> Verdict:
    """Descriptive check of omega_v * sigma_v <= n on B-graphs without
    isolated vertices.  Violations are known from n = 8 on (FINDINGS.md):
    the per-vertex clique invariant cannot replace the per-edge one.  They
    are reported as findings, never failures."""
    an = an or GraphAnalysis(g)
    if not _isolate_free_b_graph(g, an):
        return Verdict(NOT_APPLICABLE)
    lhs = an.omega_v * an.sigma_v
    return _bound_verdict(lhs, g.n, g.n - lhs,
                          witness={"omega_v": an.omega_v, "sigma_v": an.sigma_v})
