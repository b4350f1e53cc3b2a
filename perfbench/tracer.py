"""Per-layer tracing of giwb from outside the program.

``Tracer.install`` replaces the public functions, classes' methods and
registry entries that each giwb module looks up at call time with wrappers
that time and count the call; ``uninstall`` puts the originals back.  Spans
are aggregated in memory per name (calls, inclusive seconds, self seconds),
where a span's self time is its duration minus the time covered by the spans
it caused.  Everything runs on one thread, so a plain stack of open spans
gives the parent of each span.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

LAYERS = ("cli", "harness", "graphs", "invariants", "bounds", "gamma",
          "hypergraphs", "conjectures")
_DERIVED = ("alpha", "omega", "sigma_v", "omega_v", "omega_e", "sigma_e",
            "cores", "complement_analysis")
_DERIVED_METHODS = ("max_stable_containing", "max_clique_containing_edge")
_APPLICABLE = ("holds", "violated")


class Tracer:
    def __init__(self):
        # name -> [calls, inclusive seconds, self seconds]
        self.spans: dict[str, list] = {}
        self.counts: Counter = Counter()
        self._stack = [0.0]  # time covered by children of each open span
        self._depth: Counter = Counter()  # open spans per name
        self._saved: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def _timed(self, name, fn, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        depth = self._depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            depth[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - start
                children = stack.pop()
                stack[-1] += took
                depth[name] -= 1
                rec = spans.get(name)
                if rec is None:
                    rec = spans[name] = [0, 0.0, 0.0]
                rec[0] += 1
                if not depth[name]:  # a span inside one of its own name
                    rec[1] += took  # is already covered by the outer one
                rec[2] += took - children
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    def _timed_generator(self, name, fn, count):
        """Time each step of the generator ``fn`` returns, not the consumer's
        work between steps."""
        counts = self.counts

        def step(gen):
            return next(gen, _DONE)
        timed_step = self._timed(name, step)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while (item := timed_step(gen)) is not _DONE:
                counts[count] += 1
                yield item
        return wrapper

    def _set(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch(self, owner, attr, name, on_result=None) -> None:
        self._set(owner, attr, self._timed(name, getattr(owner, attr),
                                           on_result))

    def _count(self, key):
        def on_result(_):
            self.counts[key] += 1
        return on_result

    def install(self) -> None:
        from giwb import (bounds, cli, conjectures, graphs, harness,
                          hypergraphs, invariants)

        if self._saved:
            raise RuntimeError("tracer already installed")
        counts = self.counts
        cls = invariants.GraphAnalysis

        self._patch(cli, "main", "cli.main")
        self._patch(cli, "scan", "harness.scan")
        self._set(harness, "enumerate_graphs", self._timed_generator(
            "harness.enum", harness.enumerate_graphs,
            "harness.graphs_enumerated"))
        for meth in ("body_dict", "body_text", "violations_tsv"):
            self._patch(harness.ScanReport, meth, "harness.report")

        for mod in (cli, harness):
            self._patch(mod, "parse_graph6", "graphs.graph6_parse",
                        self._count("graphs.graph6_parsed"))
            self._patch(mod, "to_graph6", "graphs.graph6_encode",
                        self._count("graphs.graph6_encoded"))
        # component_count and the checks' own imports resolve through here.
        self._patch(graphs, "connected_components", "graphs.components")
        self._patch(invariants, "complement", "graphs.complement",
                    self._count("graphs.complements_built"))

        init = cls.__init__

        def counted_init(an, g):
            counts["invariants.analyses"] += 1
            init(an, g)
        self._set(cls, "__init__", counted_init)

        def on_table(table):
            if table is not None:
                counts["invariants.tables_built"] += 1
        self._cached(cls, "_table", "invariants.table", on_table)
        for prop in _DERIVED:
            self._cached(cls, prop, "invariants.derived")
        for meth in _DERIVED_METHODS:
            self._patch(cls, meth, "invariants.derived")
        self._patch(cls, "alpha_of", "invariants.alpha_of",
                    self._count("invariants.alpha_of_calls"))
        self._patch(invariants, "stability_number", "invariants.bb",
                    self._count("invariants.bb_calls"))

        def on_sets(sets):
            counts["invariants.maximal_sets"] += len(sets)
        for mod in (invariants, hypergraphs):
            for fn in ("maximal_stable_sets", "maximal_cliques"):
                self._patch(mod, fn, "invariants.maximal_sets", on_sets)

        self._patch(bounds, "are_isomorphic", "bounds.iso",
                    self._count("bounds.iso_calls"))
        self._patch(bounds, "gamma_closed", "gamma.closed",
                    self._count("gamma.closed_calls"))
        self._patch(hypergraphs, "stable_set_hypergraph", "hypergraphs.build",
                    self._count("hypergraphs.hypergraphs_built"))
        self._patch(conjectures, "clique_system_search",
                    "conjectures.clique_search",
                    self._count("conjectures.clique_searches"))

        def on_hyper(verdict):
            if verdict.status in _APPLICABLE:
                counts["hypergraphs.hyper_cor_applicable"] += 1
        # cli and harness share this dict, so both see the wrapped checks.
        # A check's layer is the module that defines it.
        checks = harness.CHECKS
        for name, fn in list(checks.items()):
            self._saved.append((checks, name, fn))
            layer = fn.__module__.rsplit(".", 1)[-1]
            checks[name] = self._timed(
                f"{layer}.{name}", fn,
                on_hyper if name == "hyper-cor" else None)

    def _cached(self, cls, attr, name, on_result=None) -> None:
        prop = functools.cached_property(
            self._timed(name, cls.__dict__[attr].func, on_result))
        prop.__set_name__(cls, attr)
        self._set(cls, attr, prop)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    def layer_self_seconds(self) -> dict[str, float]:
        """Self time per layer; every span is named ``<layer>.<what>``."""
        out = dict.fromkeys(LAYERS, 0.0)
        for name, (_, _, self_s) in self.spans.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + self_s
        return out


_DONE = object()
