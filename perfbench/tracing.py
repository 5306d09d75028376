"""Outside-in span tracer for the per-layer metrics.

The tracer replaces public ksubmax functions and methods with wrappers at
the names their callers look up (``ksubmax.cli.greedy_solve``,
``ksubmax.solvers.marginal_gain``, ``Assignment.__post_init__``, ...), so
the package itself carries no timing hooks.  Every wrapped call is a span
with a name, start, end, parent span and op id.  A span's self time is its
duration minus the durations of its child spans, accumulated per name as
the span closes.  Per-call layers (validation, evaluation, independence
tests, marginal gains, lattice operations) are only aggregated; the other
spans are also kept in memory and written out as JSON lines at the end.

``remove`` restores every patched attribute and reports whether each one
is back to the original object.
"""

from __future__ import annotations

import itertools
import json
import time
from collections import defaultdict

import ksubmax.cli
import ksubmax.instances
import ksubmax.solvers
import ksubmax.verify
from ksubmax.core import Assignment, KSubFunction
from ksubmax.instances import CoverageFunction, ExplicitTableFunction, ModularFunction
from ksubmax.matroids import ExplicitMatroid, Matroid, PartitionMatroid, UniformMatroid

SOLVER_SPANS = ("solvers.threshold", "solvers.greedy", "solvers.brute")
VERIFY_SPANS = ("verify.k_submodular", "verify.orthant_pairwise", "verify.monotone")

_EVALUATE_NAMES = {
    CoverageFunction: "instances.evaluate.coverage",
    ModularFunction: "instances.evaluate.modular",
    ExplicitTableFunction: "instances.evaluate.explicit",
}
_INDEPENDENT_NAMES = {
    UniformMatroid: "matroids.is_independent.uniform",
    PartitionMatroid: "matroids.is_independent.partition",
    ExplicitMatroid: "matroids.is_independent.explicit",
}


class Tracer:
    """Span bookkeeping: per-name stats, parent edges and event counters.

    ``stats[name]`` is ``[calls, self_s, total_s]``; ``edges[(name,
    parent)]`` counts calls of ``name`` made directly from ``parent``;
    ``events`` holds counters read from return values.  ``reset`` clears
    them between passes; recorded spans are kept for the whole run.
    """

    def __init__(self):
        self.stats: dict[str, list] = {}
        self.edges: defaultdict = defaultdict(int)
        self.events: defaultdict = defaultdict(float)
        self.spans: list[tuple] = []
        self.op_id = 0
        # frame: [name, child seconds, span id, inside a solver span]
        self._stack = [["", 0.0, 0, False]]
        self._ids = itertools.count(1)
        self._patches: list[tuple] = []

    def reset(self) -> None:
        self.stats.clear()
        self.edges.clear()
        self.events.clear()

    def wrap(self, fn, name, *, classify=None, record=True, on_return=None):
        """Return ``fn`` wrapped in a span named ``name`` (or ``classify(args)``)."""
        stack, stats, edges, events, spans = (
            self._stack, self.stats, self.edges, self.events, self.spans)
        ids, clock, tracer = self._ids, time.perf_counter, self
        is_solver = name in SOLVER_SPANS
        is_oracle = classify is not None and name in ("evaluate", "is_independent")

        def wrapper(*args, **kwargs):
            nm = name if classify is None else classify(args)
            parent = stack[-1]
            frame = [nm, 0.0, next(ids), parent[3] or is_solver]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                parent[1] += dur
                st = stats.get(nm)
                if st is None:
                    st = stats[nm] = [0, 0.0, 0.0]
                st[0] += 1
                st[1] += dur - frame[1]
                st[2] += dur
                edges[nm, parent[0]] += 1
                if is_oracle and frame[3]:
                    events["oracle_in_solver_s"] += dur
                if record:
                    spans.append((frame[2], nm, t0, t1, parent[2], tracer.op_id))
            if on_return is not None:
                on_return(result, parent[0])
            return result

        return wrapper

    def patch(self, owner, attr: str, name: str, **kwargs) -> None:
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(self.wrap(raw.__func__, name, **kwargs)))
        else:
            setattr(owner, attr, self.wrap(raw, name, **kwargs))
        self._patches.append((owner, attr, raw))

    def install(self) -> None:
        """Patch every layer boundary the benchmark reports on."""
        cli, solvers, verify, instances = (
            ksubmax.cli, ksubmax.solvers, ksubmax.verify, ksubmax.instances)
        events = self.events

        def count_added(report, key):
            events[key] += sum(1 for v in report.assignment.labels if v)

        def count_checks(verdict, key):
            events[key] += verdict.checked

        def count_drop(independent, parent):
            if not independent and parent == "solvers.threshold":
                events["solvers.threshold.infeasible_drops"] += 1

        self.patch(cli, "main", "cli", classify=lambda a: "cli." + a[0][0])
        self.patch(cli, "parse_instance", "instances.parse")
        for mod in (cli, instances):
            for gen in ("gen_modular", "gen_coverage", "gen_partition_matroid",
                        "gen_explicit_matroid"):
                self.patch(mod, gen, "instances.generate")
        self.patch(ExplicitTableFunction, "tabulate", "instances.generate")
        self.patch(instances, "serialize_instance", "instances.serialize")
        self.patch(cli, "threshold_decreasing_solve", "solvers.threshold",
                   on_return=lambda r, _: count_added(r, "solvers.threshold.added"))
        self.patch(cli, "greedy_solve", "solvers.greedy",
                   on_return=lambda r, _: count_added(r, "solvers.greedy.added"))
        self.patch(cli, "brute_force_solve", "solvers.brute")
        for fn, span in (("verify_k_submodular", "verify.k_submodular"),
                         ("verify_orthant_pairwise", "verify.orthant_pairwise"),
                         ("verify_monotone", "verify.monotone")):
            self.patch(cli, fn, span,
                       on_return=lambda v, _, key=span + ".checks": count_checks(v, key))
        self.patch(cli, "check_matroid_axioms", "matroids.check_axioms")
        self.patch(cli, "rank", "matroids.rank")
        self.patch(solvers, "rank", "matroids.rank")
        self.patch(solvers, "feasible_extensions", "matroids.feasible_extensions")
        self.patch(solvers, "marginal_gain", "core.marginal_gain", record=False)
        for fn in ("join", "meet", "precedes"):
            self.patch(verify, fn, "core.lattice", record=False)
        self.patch(Assignment, "__post_init__", "core.validate", record=False)
        self.patch(Assignment, "assign", "core.assign", record=False)
        self.patch(KSubFunction, "evaluate", "evaluate", record=False,
                   classify=lambda a: _EVALUATE_NAMES.get(
                       type(a[0]), "instances.evaluate.other"))
        self.patch(Matroid, "is_independent", "is_independent", record=False,
                   classify=lambda a: _INDEPENDENT_NAMES.get(
                       type(a[0]), "matroids.is_independent.other"),
                   on_return=count_drop)

    def remove(self) -> bool:
        """Undo every patch; True when each attribute is the original again."""
        patches, self._patches = self._patches, []
        for owner, attr, raw in reversed(patches):
            setattr(owner, attr, raw)
        return all(vars(owner)[attr] is raw for owner, attr, raw in patches)

    def self_total(self) -> float:
        return sum(st[1] for st in self.stats.values())

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op}) + "\n")


def layer_metrics(stats: dict, edges: dict, events: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass (see BENCHMARK.json ``per_layer``)."""

    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0]

    def self_s(name):
        return stats.get(name, (0, 0.0, 0.0))[1]

    def total_s(name):
        return stats.get(name, (0, 0.0, 0.0))[2]

    def ratio(num, den):
        return num / den if den else 0.0

    def edge_sum(prefix, parent):
        return sum(c for (nm, par), c in edges.items()
                   if par == parent and nm.startswith(prefix))

    out: dict[str, float] = {}
    for layer in ("core.validate", "core.assign"):
        out[layer + ".calls"] = calls(layer)
        out[layer + ".self_s"] = self_s(layer)
    out["core.marginal_gain.self_s"] = self_s("core.marginal_gain")
    out["core.lattice.self_s"] = self_s("core.lattice")
    for family in ("coverage", "modular", "explicit"):
        span = "instances.evaluate." + family
        out[span + ".calls"] = calls(span)
        out[span + ".self_s"] = self_s(span)
        out[span + ".us_per_call"] = ratio(self_s(span), calls(span)) * 1e6
    out["instances.parse.self_s"] = self_s("instances.parse")
    for family in ("uniform", "partition", "explicit"):
        span = "matroids.is_independent." + family
        out[span + ".calls"] = calls(span)
        out[span + ".self_s"] = self_s(span)
    for span in ("matroids.rank", "matroids.feasible_extensions", "matroids.check_axioms"):
        out[span + ".self_s"] = self_s(span)
    for span in SOLVER_SPANS:
        out[span + ".self_s"] = self_s(span)
    out["solvers.threshold.accept_ratio"] = ratio(
        events.get("solvers.threshold.added", 0),
        edge_sum("matroids.is_independent.", "solvers.threshold"))
    out["solvers.threshold.infeasible_drops"] = events.get(
        "solvers.threshold.infeasible_drops", 0)
    out["solvers.greedy.accept_ratio"] = ratio(
        events.get("solvers.greedy.added", 0),
        edges.get(("core.marginal_gain", "solvers.greedy"), 0))
    out["solvers.brute.leaves_per_s"] = ratio(
        edge_sum("instances.evaluate.", "solvers.brute"), total_s("solvers.brute"))
    out["solvers.oracle_share"] = ratio(
        events.get("oracle_in_solver_s", 0.0), sum(total_s(s) for s in SOLVER_SPANS))
    for span in VERIFY_SPANS:
        out[span + ".self_s"] = self_s(span)
        out[span + ".checks_per_s"] = ratio(events.get(span + ".checks", 0), total_s(span))
    for command in ("solve", "bench", "verify"):
        out[f"cli.{command}.self_s"] = self_s("cli." + command)
    out["harness.self_s"] = self_s("harness.pass") + self_s("harness.op")
    return out
