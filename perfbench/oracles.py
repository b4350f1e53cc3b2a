"""Independent checks of giwb's outputs.

None of this imports giwb or compares against a stored copy of an earlier
output: the expected figures come from numpy subset enumeration, networkx,
the graph atlas, and brute force over compositions.  Each ``verify_*``
function returns a list of problems, empty when the output is right.
"""

from __future__ import annotations

import itertools
import json
from collections import defaultdict
from functools import lru_cache
from math import comb
import warnings

import networkx as nx
import numpy as np

import workloads

TOTAL_KEYS = ("applicable", "holds", "equality", "violated",
              "not_applicable", "unchecked")


# Shared pieces

@lru_cache(maxsize=None)
def gamma_brute(a: int, t: int) -> int:
    """min of sum C(z_i, 2) over nonnegative z_1 + ... + z_a = a + t,
    over every composition."""
    total = a + t
    best = None
    for cuts in itertools.combinations_with_replacement(range(total + 1),
                                                        a - 1):
        bounds = (0, *cuts, total)
        value = sum(comb(bounds[i + 1] - bounds[i], 2) for i in range(a))
        best = value if best is None else min(best, value)
    return best


def count_without_isolated(n: int) -> int:
    """Labeled graphs on n vertices with no isolated vertex, by
    inclusion-exclusion over the set of isolated vertices."""
    return sum((-1) ** k * comb(n, k) * 2 ** comb(n - k, 2)
               for k in range(n + 1))


def parse_report(text: str) -> dict:
    lines = text.strip().splitlines()
    if len(lines) != 1:
        raise ValueError(f"expected one JSON record, got {len(lines)} lines")
    return json.loads(lines[0])["report"]


def totals_problems(body: dict, checks) -> list[str]:
    """Every check's totals cover each graph exactly once."""
    out = []
    if list(body.get("checks", ())) != list(checks):
        out.append(f"report checks {body.get('checks')} != {list(checks)}")
    for name in checks:
        t = body["totals"].get(name)
        if t is None or set(t) != set(TOTAL_KEYS):
            out.append(f"{name}: malformed totals {t}")
            continue
        if t["applicable"] + t["not_applicable"] + t["unchecked"] \
                != body["graph_count"]:
            out.append(f"{name}: totals {t} do not add up to "
                       f"{body['graph_count']} graphs")
        if t["holds"] + t["violated"] != t["applicable"]:
            out.append(f"{name}: holds + violated != applicable in {t}")
        if t["equality"] > t["holds"]:
            out.append(f"{name}: equality > holds in {t}")
    return out


def clique_invariants(g: nx.Graph) -> dict:
    """alpha, omega, sigma_v, omega_v, sigma_e, omega_e and the B-graph
    property from the maximal cliques of g and of its complement."""
    n = g.number_of_nodes()
    cliques = [frozenset(c) for c in nx.find_cliques(g)]
    stables = [frozenset(s) for s in nx.find_cliques(nx.complement(g))]

    def best_through(sets, members):
        return max(len(s) for s in sets if members <= s)

    alpha = max(map(len, stables))
    omega = max(map(len, cliques))
    non_edges = [(u, v) for u, v in itertools.combinations(range(n), 2)
                 if not g.has_edge(u, v)]
    return {
        "n": n,
        "alpha": alpha,
        "omega": omega,
        "sigma_v": min(best_through(stables, {v}) for v in range(n)),
        "omega_v": min(best_through(cliques, {v}) for v in range(n)),
        "omega_e": min((best_through(cliques, {u, v}) for u, v in g.edges()),
                       default=None),
        "sigma_e": min((best_through(stables, {u, v}) for u, v in non_edges),
                       default=None),
        "isolated": any(d == 0 for _, d in g.degree()),
        # A B-graph: every vertex lies in some maximum stable set.
        "b_graph": set().union(*(s for s in stables if len(s) == alpha))
        == set(range(n)),
    }


class Tally:
    """Expected applicable/holds/equality/violated counts of one check."""

    def __init__(self):
        self.applicable = self.holds = self.equality = self.violated = 0

    def add(self, lhs: int, rhs: int) -> None:
        """An applicable upper bound lhs <= rhs."""
        self.applicable += 1
        if lhs <= rhs:
            self.holds += 1
            self.equality += lhs == rhs
        else:
            self.violated += 1

    def as_dict(self) -> dict:
        return {"applicable": self.applicable, "holds": self.holds,
                "equality": self.equality, "violated": self.violated}


def compare(name: str, got: dict, want: dict) -> list[str]:
    return [f"{name}.{k}: giwb {got.get(k)} != oracle {v}"
            for k, v in want.items() if got.get(k) != v]


# scan-labeled-n6

def labeled_expectations(n: int = 6) -> dict:
    """theorem1 and edge-bound totals over every labeled graph on n
    vertices, by vectorised subset enumeration over all edge masks."""
    pairs = list(itertools.combinations(range(n), 2))
    masks = np.arange(1 << len(pairs), dtype=np.int64)
    subsets = np.arange(1 << n, dtype=np.int64)
    size = np.array([bin(s).count("1") for s in range(1 << n)])
    inside = np.zeros(1 << n, dtype=np.int64)  # edge mask of pairs within S
    for k, (u, v) in enumerate(pairs):
        inside |= ((subsets >> u & 1) & (subsets >> v & 1)) << k
    stable = (masks[:, None] & inside[None, :]) == 0
    stable_size = np.where(stable, size[None, :], 0)
    alpha = stable_size.max(axis=1)
    sigma_v = np.min([np.where(subsets >> v & 1, stable_size, 0).max(axis=1)
                      for v in range(n)], axis=0)
    edge_count = np.array([bin(m).count("1") for m in range(len(masks))])
    isolated = np.zeros(len(masks), dtype=bool)
    for v in range(n):
        incident = sum(1 << k for k, e in enumerate(pairs) if v in e)
        isolated |= (masks & incident) == 0
    tau = n - alpha

    components = np.empty(len(masks), dtype=np.int64)
    for m in range(len(masks)):
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from(e for k, e in enumerate(pairs) if m >> k & 1)
        components[m] = nx.number_connected_components(g)

    thm1, edge_bound = Tally(), Tally()
    thm1_eq_strict = 0  # equality cases with alpha > sigma_v
    for m in range(len(masks)):
        a, t, s = int(alpha[m]), int(tau[m]), int(sigma_v[m])
        if not isolated[m]:
            rhs = t * (1 + a - s)
            thm1.add(a, rhs)
            thm1_eq_strict += a == rhs and a > s
        # |E| >= alpha - c + Gamma(alpha, tau), as the bound rhs <= lhs.
        edge_bound.add(a - int(components[m]) + gamma_brute(a, t),
                       int(edge_count[m]))
    return {
        "graph_count": len(masks),
        "without_isolated": int((~isolated).sum()),
        "theorem1": thm1.as_dict(),
        "edge-bound": edge_bound.as_dict(),
        "theorem1-equality_in_scope": thm1_eq_strict,
    }


def verify_labeled(body: dict, want: dict) -> list[str]:
    out = totals_problems(body, workloads.LABELED_CHECKS)
    if out:
        return out
    if body["graph_count"] != want["graph_count"]:
        out.append(f"graph_count {body['graph_count']} != {want['graph_count']}")
    if body["violations"]:
        out.append(f"{len(body['violations'])} violations reported")
    for name in ("theorem1", "edge-bound"):
        out += compare(name, body["totals"][name], want[name])
    eq = body["totals"]["theorem1-equality"]
    if eq["applicable"] + eq["unchecked"] != want["theorem1-equality_in_scope"]:
        out.append(f"theorem1-equality covers {eq['applicable']} + "
                   f"{eq['unchecked']} graphs, oracle "
                   f"{want['theorem1-equality_in_scope']}")
    return out


# scan-dedup-n7

def atlas_graphs(n: int) -> list[nx.Graph]:
    return [g for g in nx.graph_atlas_g() if g.number_of_nodes() == n]


def graph_from_rows(rows) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(len(rows)))
    g.add_edges_from((u, v) for u, row in enumerate(rows)
                     for v in range(u + 1, len(rows)) if row >> v & 1)
    return g


def verify_representatives(reps: list[nx.Graph], n: int) -> list[str]:
    """As many representatives as the atlas has n-vertex graphs, pairwise
    non-isomorphic, so one per isomorphism class."""
    out = []
    classes = len(atlas_graphs(n))
    if len(reps) != classes:
        out.append(f"{len(reps)} representatives, atlas has {classes}")
    if any(g.number_of_nodes() != n for g in reps):
        out.append(f"a representative does not have {n} vertices")
    buckets = defaultdict(list)
    with warnings.catch_warnings():
        # networkx warns that its hashes changed in 3.5; only equality
        # within one run matters here.
        warnings.simplefilter("ignore", UserWarning)
        for i, g in enumerate(reps):
            buckets[nx.weisfeiler_lehman_graph_hash(g)].append(i)
    for members in buckets.values():
        for i, j in itertools.combinations(members, 2):
            if nx.is_isomorphic(reps[i], reps[j]):
                out.append(f"representatives {i} and {j} are isomorphic")
    return out


def dedup_expectations(reps: list[nx.Graph]) -> dict:
    conj1_bound, conj3, omega_v_sub = Tally(), Tally(), Tally()
    for g in reps:
        inv = clique_invariants(g)
        n = inv["n"]
        if not inv["isolated"] and inv["b_graph"]:
            conj1_bound.add(inv["omega_e"] * inv["sigma_v"], n)
            omega_v_sub.add(inv["omega_v"] * inv["sigma_v"], n)
        if (not inv["isolated"] and inv["omega_e"] is not None
                and inv["sigma_e"] is not None
                and inv["alpha"] == inv["sigma_e"] == inv["sigma_v"]
                and inv["omega"] == inv["omega_e"] == inv["omega_v"]):
            conj3.add(inv["omega_e"] * inv["sigma_e"], n)
    return {"graph_count": len(reps), "conj1-bound": conj1_bound.as_dict(),
            "conj3": conj3.as_dict(), "omega-v-sub": omega_v_sub.as_dict()}


def verify_dedup(body: dict, want: dict) -> list[str]:
    out = totals_problems(body, workloads.DEDUP_CHECKS)
    if out:
        return out
    if body["graph_count"] != want["graph_count"]:
        out.append(f"graph_count {body['graph_count']} != "
                   f"{want['graph_count']} classes")
    totals = body["totals"]
    out += compare("conj3", totals["conj3"], want["conj3"])
    out += compare("omega-v-sub", totals["omega-v-sub"], want["omega-v-sub"])
    # conj1 is the bound plus a clique-system clause; the oracle decides
    # the bound clause only.
    bound, conj1 = want["conj1-bound"], totals["conj1"]
    failed = defaultdict(int)
    for rec in body["violations"]:
        if rec["check"] == "conj1":
            failed[(rec.get("witness") or {}).get("failed")] += 1
    if conj1["applicable"] != bound["applicable"]:
        out.append(f"conj1.applicable {conj1['applicable']} != oracle "
                   f"{bound['applicable']}")
    if failed["bound"] != bound["violated"]:
        out.append(f"conj1 bound failures {failed['bound']} != oracle "
                   f"{bound['violated']}")
    if conj1["holds"] + failed["clique-system"] != bound["holds"]:
        out.append(f"conj1 holds {conj1['holds']} + clique-system failures "
                   f"{failed['clique-system']} != oracle bound holds "
                   f"{bound['holds']}")
    if not failed["clique-system"] and conj1["equality"] != bound["equality"]:
        out.append(f"conj1.equality {conj1['equality']} != oracle "
                   f"{bound['equality']}")
    return out


# check-graphs

def check_expectations(n: int, edges) -> dict:
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    co = nx.complement(g)
    # Largest maximal stable set through each vertex.
    through = [0] * n
    for s in nx.find_cliques(co):
        for v in s:
            through[v] = max(through[v], len(s))
    return {"n": n, "edges": g.number_of_edges(),
            "alpha": nx.max_weight_clique(co, weight=None)[1],
            "alpha_from_maximal_sets": max(through),
            "sigma_v": min(through),
            "isolated": any(d == 0 for _, d in g.degree())}


def verify_check(text: str, code: int, token: str, want: dict) -> list[str]:
    if code != 0:
        return [f"exit code {code}"]
    if want["alpha"] != want["alpha_from_maximal_sets"]:
        return ["networkx disagrees with itself on alpha"]
    out = []
    try:
        records = {rec["check"]: rec for rec in map(json.loads,
                                                    text.splitlines())}
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable records: {exc!r}"]
    for rec in records.values():
        if rec.get("graph6") != token:
            out.append(f"{rec['check']}: graph6 {rec.get('graph6')} != input")
    if sorted(records) != sorted(workloads.CHECK_ALL):
        return out + [f"checks reported {sorted(records)}"]
    for name in workloads.THEOREM_CHECKS:
        if records[name]["status"] == "violated":
            out.append(f"theorem check {name} violated")
    t1 = records["theorem1"]
    if (t1["status"] == "not-applicable") != want["isolated"]:
        out.append(f"theorem1 status {t1['status']} with isolated vertex "
                   f"{want['isolated']}")
    if not want["isolated"]:
        a, tau = want["alpha"], want["n"] - want["alpha"]
        if t1["lhs"] != a:
            out.append(f"theorem1 lhs {t1['lhs']} != alpha {a}")
        rhs = tau * (1 + a - want["sigma_v"])
        if t1["rhs"] != rhs:
            out.append(f"theorem1 rhs {t1['rhs']} != {rhs}")
    eb = records["edge-bound"]
    if eb["lhs"] != want["edges"]:
        out.append(f"edge-bound lhs {eb['lhs']} != {want['edges']} edges")
    return out


def token_problems(token: str, n: int, edges) -> list[str]:
    """The benchmark's own graph6 encoder against networkx's decoder."""
    g = nx.from_graph6_bytes(token.encode())
    got = sorted(tuple(sorted(e)) for e in g.edges())
    if g.number_of_nodes() != n or got != sorted(edges):
        return [f"graph6 token {token} does not decode to its input graph"]
    return []
