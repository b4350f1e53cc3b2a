"""Shared construction helpers and independent oracles for the test suite.

The oracles here deliberately avoid the library's fast paths: stability via
raw subset enumeration, cores via explicit maximum-stable-set intersection
and via vertex deletion, hyper-cor via the maximal-stable-set hypergraph
itself, matchings via permutation pairing, 2-sections by pairwise
co-occurrence, clique systems by trying every clique choice, scans by
checking every stream graph without the class walk, the class walk by
visiting every edge mask, and coronas by isomorphism search.  They are the
ground truth the optimized code is measured against.
``check_conjecture3_reference`` tests the conj3 filters with the per-edge
ones first, so that the order the checker uses is shown not to change a
verdict.  ``check_conjecture1_reference`` decides conj1 the whole-graph
way, one clique-system search per maximum stable set of g in ascending
order, which pays a product over the components.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterator

import numpy as np

from giwb.bounds import (HOLDS, NOT_APPLICABLE, VIOLATED, Verdict,
                         _bound_verdict, are_isomorphic)
from giwb.conjectures import check_conjecture1_bound, clique_system_search
from giwb.graphs import (Graph, bits, component_count, from_edges,
                         induced_subgraph, to_graph6)
from giwb.harness import (CheckTotals, ScanConfig, ScanReport, _edge_list,
                          _verdict_record, check_verdicts, enumerate_graphs)
from giwb.hypergraphs import HyperGraph, stable_set_hypergraph
from giwb.invariants import (GraphAnalysis, maximum_stable_sets,
                             stability_number)


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


def maximum_stable_sets_oracle(g: Graph,
                               subset: int | None = None) -> list[int]:
    """All stable sets of size α(subset) inside ``subset`` (default: all of
    g) by raw subset enumeration."""
    avail = g.full_mask if subset is None else subset
    a = alpha_oracle(g, avail)
    return [s for s in range(1 << g.n)
            if s & avail == s and s.bit_count() == a and is_stable(g, s)]


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


def cores_by_deletion(g: Graph) -> tuple[int, int]:
    """(alpha_core, tau_core) by vertex deletion: v is in alpha_core iff
    deleting it drops alpha, and in tau_core iff no stable set through v has
    alpha vertices.  Every alpha is a fresh branch-and-bound search."""
    a = stability_number(g)
    alpha_core = tau_core = 0
    for v in range(g.n):
        vb = 1 << v
        if stability_number(g, g.full_mask & ~vb) == a - 1:
            alpha_core |= vb
        elif 1 + stability_number(g, g.full_mask & ~(g.adj[v] | vb)) < a:
            tau_core |= vb
    return alpha_core, tau_core


def check_hyper_corollary_reference(g: Graph) -> Verdict:
    """hyper-cor from the maximal-stable-set hypergraph: applicable when the
    deletion cores are empty, with r_max read off the hypergraph's edges."""
    if g.n == 0 or any(cores_by_deletion(g)):
        return Verdict(NOT_APPLICABLE)
    lhs = 2 * stable_set_hypergraph(g).r_max
    return _bound_verdict(lhs, g.n, g.n - lhs)


@functools.lru_cache(maxsize=None)
def dedup_classes(n_max: int = 7) -> tuple[Graph, ...]:
    """One representative of every isomorphism class on 1..n_max vertices."""
    return tuple(g for n in range(1, n_max + 1)
                 for g in enumerate_graphs(n, dedup=True))


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


def complement_oracle(g: Graph) -> Graph:
    return Graph(g.n, tuple(g.full_mask & ~(row | 1 << v)
                            for v, row in enumerate(g.adj)))


def sigma_v_oracle(g: Graph) -> int:
    """min over v of the largest stable set through v: 1 + alpha of the
    closed non-neighbourhood V - N[v], by subset enumeration."""
    return min(1 + alpha_oracle(g, g.full_mask & ~(g.adj[v] | 1 << v))
               for v in range(g.n))


def omega_e_oracle(g: Graph) -> int:
    """min over edges uv of the largest clique through uv: 2 + the clique
    number of the common neighbourhood, by subset enumeration."""
    co = complement_oracle(g)
    return min(2 + alpha_oracle(co, g.adj[u] & g.adj[v]) for u, v in g.edges())


def two_section_oracle(h: HyperGraph) -> Graph:
    """The 2-section pair by pair: u and v are adjacent iff some edge holds
    both."""
    return from_edges(h.n, [
        (u, v) for u, v in itertools.combinations(range(h.n), 2)
        if any(e >> u & 1 and e >> v & 1 for e in h.edges)])


def clique_systems_oracle(g: Graph, stable: int, order: int) -> list[tuple]:
    """All valid systems by raw enumeration: one clique per stable vertex,
    pairwise disjoint, each meeting the stable set in that vertex only."""
    members = bits(stable)
    all_cliques = [m for m in range(1 << g.n)
                   if m.bit_count() == order
                   and all(g.has_edge(u, v)
                           for u, v in itertools.combinations(bits(m), 2))]
    per_vertex = [[m for m in all_cliques
                   if m >> v & 1 and (m & stable) == 1 << v]
                  for v in members]
    systems = []
    for combo in itertools.product(*per_vertex):
        used = 0
        for part in combo:
            if part & used:
                break
            used |= part
        else:
            systems.append(combo)
    return systems


def check_conjecture3_reference(g: Graph, an: GraphAnalysis) -> Verdict:
    """conj3 with the per-edge filters (sigma_e, omega_e) tested before
    sigma_v = alpha and omega_v = omega."""
    if g.n == 0 or g.has_isolated_vertex():
        return Verdict(NOT_APPLICABLE)
    if an.sigma_e is None or an.omega_e is None:
        return Verdict(NOT_APPLICABLE)
    if an.alpha != an.sigma_e or an.omega != an.omega_e:
        return Verdict(NOT_APPLICABLE)
    if an.sigma_v != an.alpha or an.omega_v != an.omega:
        return Verdict(NOT_APPLICABLE)
    lhs = an.omega_e * an.sigma_e
    return _bound_verdict(lhs, g.n, g.n - lhs,
                          witness={"omega_e": an.omega_e, "sigma_e": an.sigma_e})


def check_conjecture1_reference(g: Graph, an: GraphAnalysis) -> Verdict:
    """conj1 over the whole graph: search every maximum stable set of g in
    ascending order and report the first that has no clique system."""
    bound = check_conjecture1_bound(g, an)
    if bound.status == NOT_APPLICABLE:
        return Verdict(NOT_APPLICABLE)
    if bound.status == VIOLATED:
        return Verdict(VIOLATED, lhs=bound.lhs, rhs=bound.rhs,
                       slack=bound.slack, witness={"failed": "bound"})
    for stable in maximum_stable_sets(g):
        system = clique_system_search(g, stable, an.omega_e)
        if system is None:
            return Verdict(VIOLATED, lhs=bound.lhs, rhs=bound.rhs,
                           slack=bound.slack,
                           witness={"failed": "clique-system",
                                    "stable_set": list(bits(stable))})
        assert system.validate(g, stable, an.omega_e)
    return Verdict(HOLDS, lhs=bound.lhs, rhs=bound.rhs,
                   slack=bound.slack, equality=bound.equality)


def corona(h: Graph, ell: int) -> Graph:
    """The corona H o ellK_1: ``h`` on vertices 0..k-1, and vertex i's
    ell pendant leaves on k + i * ell .. k + i * ell + ell - 1."""
    k = h.n
    spokes = [(i, k + i * ell + j) for i in range(k) for j in range(ell)]
    return from_edges(k * (ell + 1), list(h.edges()) + spokes)


def corona_fit_reference(g: Graph):
    """(tau, ell) when ``g`` is isomorphic to a corona H o ellK_1 with
    ell >= 2, else None: for every ell with (ell + 1) | n and every set C of
    n / (ell + 1) vertices, build the corona of the subgraph induced on C
    and test isomorphism with a permutation search."""
    for ell in range(2, g.n):
        if g.n % (ell + 1):
            continue
        for combo in itertools.combinations(range(g.n), g.n // (ell + 1)):
            h = induced_subgraph(g, sum(1 << c for c in combo))
            if are_isomorphic(g, corona(h, ell)):
                return h.n, ell
    return None


def brute_force_scan(config: ScanConfig) -> ScanReport:
    """Reference scan: every configured check on every graph of
    ``enumerate_graphs`` (each labeled graph, or each class representative
    with ``dedup``), without the class walk, orbit weighting or shards."""
    report = ScanReport(config=config,
                        totals={c: CheckTotals() for c in config.checks})
    for g in enumerate_graphs(config.n, dedup=config.dedup):
        if config.connected_only and component_count(g) != 1:
            continue
        report.graph_count += 1
        for name, verdict in check_verdicts(g, config.checks):
            report.totals[name].add(verdict)
            if verdict.status == VIOLATED:
                report.violations.append(
                    _verdict_record(to_graph6(g), name, verdict))
    report.violations.sort(key=lambda rec: (rec["graph6"], rec["check"]))
    return report


def orbits_reference(n: int) -> Iterator[tuple[int, np.ndarray]]:
    """Ascending canonical edge masks, one per isomorphism class, each with
    its orbit: the mask's image under every vertex permutation, n! entries
    in which each orbit member appears |Aut| times.  The walk tests every
    edge mask, and each orbit shifts the mask's bits through a
    per-permutation edge map built one Python row per permutation."""
    m = n * (n - 1) // 2
    edge_list = _edge_list(n)
    eidx = {e: i for i, e in enumerate(edge_list)}
    perm_map = np.array(
        [[eidx[tuple(sorted((p[u], p[v])))] for (u, v) in edge_list]
         for p in itertools.permutations(range(n))],
        dtype=np.int64)
    seen = np.zeros(1 << m, dtype=bool)
    shifts = np.arange(m, dtype=np.int64)
    for mask in range(1 << m):
        if seen[mask]:
            continue
        bitvals = (mask >> shifts) & 1
        orbit = (bitvals[np.newaxis, :] << perm_map).sum(axis=1)
        seen[orbit] = True
        yield mask, orbit
