"""Conjecture checkers: the clique-system covering conjecture, its
hypergraph consequence (in hypergraphs), and the complement-symmetric
variant.

Conjecture violations are first-class findings, never errors: the harness
records them as replayable counterexample artifacts and its statistics keep
"filtered by hypothesis" distinct from "verified".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .bounds import HOLDS, NOT_APPLICABLE, Verdict, VIOLATED, _bound_verdict
from .graphs import Graph, VertexMask, bits
from .invariants import GraphAnalysis, maximum_stable_sets, stability_number


@dataclass(frozen=True)
class CliqueSystem:
    """Pairwise-disjoint vertex sets, each inducing a clique of the target
    order and meeting the designated stable set in exactly one vertex."""

    parts: tuple[VertexMask, ...]

    def validate(self, g: Graph, stable: VertexMask, order: int) -> bool:
        """Independent re-validation of the type invariants."""
        seen = 0
        for part in self.parts:
            if part & seen:
                return False
            seen |= part
            if part.bit_count() != order or (part & stable).bit_count() != 1:
                return False
            for u, v in itertools.combinations(bits(part), 2):
                if not g.has_edge(u, v):
                    return False
        return True


def _cliques_through(g: Graph, v: int, allowed: VertexMask, order: int) -> list[int]:
    """All cliques of the given order containing ``v`` inside ``allowed``,
    sorted by bit pattern."""
    nbrs = bits(g.adj[v] & allowed)
    out = []
    for combo in itertools.combinations(nbrs, order - 1):
        if all(g.has_edge(a, b) for a, b in itertools.combinations(combo, 2)):
            m = 1 << v
            for u in combo:
                m |= 1 << u
            out.append(m)
    out.sort()
    return out


def clique_system_search(g: Graph, stable: VertexMask, order: int,
                         alpha: Optional[int] = None) -> Optional[CliqueSystem]:
    """Exact backtracking search for a disjoint clique system: one clique of
    the given order through each vertex of the maximum stable set ``stable``,
    pairwise disjoint and meeting ``stable`` only in that vertex.

    ``stable`` must be stable with alpha(g) vertices; pass ``alpha`` when it
    is known, else it is computed.  Candidates per vertex are enumerated
    once and tried in bit-pattern order; stable-set vertices are processed
    in index order, so the witness is deterministic.  Returns None only
    after exhausting the space.
    """
    if order < 1:
        raise ValueError("clique order must be >= 1")
    if alpha is None:
        alpha = stability_number(g)
    if (stable & ~g.full_mask or stable.bit_count() != alpha
            or any(g.adj[v] & stable for v in bits(stable))):
        raise ValueError("the designated set is not a maximum stable set")
    members = bits(stable)
    candidates = []
    for v in members:
        allowed = (g.full_mask & ~stable) | (1 << v)
        candidates.append(_cliques_through(g, v, allowed, order))

    chosen: list[int] = []

    def extend(i: int, used: int) -> bool:
        if i == len(members):
            return True
        for part in candidates[i]:
            if part & used:
                continue
            chosen.append(part)
            if extend(i + 1, used | part):
                return True
            chosen.pop()
        return False

    if extend(0, 0):
        return CliqueSystem(tuple(chosen))
    return None


def check_conjecture1_bound(g: Graph,
                            an: Optional[GraphAnalysis] = None) -> Verdict:
    """omega_e * sigma_v <= n for B-graphs without isolated vertices.
    slack = rhs - lhs."""
    an = an or GraphAnalysis(g)
    if g.n == 0 or g.has_isolated_vertex() or not an.is_b_graph:
        return Verdict(NOT_APPLICABLE)
    lhs = an.omega_e * an.sigma_v
    return _bound_verdict(lhs, g.n, g.n - lhs,
                          witness={"omega_e": an.omega_e, "sigma_v": an.sigma_v})


def check_conjecture1_full(g: Graph,
                           an: Optional[GraphAnalysis] = None) -> Verdict:
    """The bound plus the structural clause: every maximum stable set admits
    a disjoint clique system of order omega_e.  A failing stable set is
    attached as the counterexample witness."""
    an = an or GraphAnalysis(g)
    bound = check_conjecture1_bound(g, an)
    if bound.status == NOT_APPLICABLE:
        return Verdict(NOT_APPLICABLE)
    if bound.status == VIOLATED:
        return Verdict(VIOLATED, lhs=bound.lhs, rhs=bound.rhs,
                       slack=bound.slack, witness={"failed": "bound"})
    for stable in maximum_stable_sets(g):
        system = clique_system_search(g, stable, an.omega_e, an.alpha)
        if system is None:
            return Verdict(VIOLATED, lhs=bound.lhs, rhs=bound.rhs,
                           slack=bound.slack,
                           witness={"failed": "clique-system",
                                    "stable_set": list(bits(stable))})
        if not system.validate(g, stable, an.omega_e):
            raise RuntimeError("clique_system_search returned an invalid system")
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
    if an.sigma_e is None or an.omega_e is None:
        return Verdict(NOT_APPLICABLE)
    if an.alpha != an.sigma_e or an.omega != an.omega_e:
        return Verdict(NOT_APPLICABLE)
    # The hypotheses are meant to sit inside the chains
    # sigma_e <= sigma_v <= alpha and omega_e <= omega_v <= omega, under
    # which alpha = sigma_e forces sigma_v = alpha (and dually).  The chains
    # break exactly when a vertex dominates the graph (its complement twin is
    # isolated), and every such graph trivially "refutes" the bound (e.g.
    # P_3: sigma_e = 2 > 1 = sigma_v); requiring the entailed equalities
    # keeps the check on its intended domain.
    if an.sigma_v != an.alpha or an.omega_v != an.omega:
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
    if g.n == 0 or g.has_isolated_vertex() or not an.is_b_graph:
        return Verdict(NOT_APPLICABLE)
    lhs = an.omega_v * an.sigma_v
    return _bound_verdict(lhs, g.n, g.n - lhs,
                          witness={"omega_v": an.omega_v, "sigma_v": an.sigma_v})
