"""Seeded inputs, CLI ops and output checks for the three workloads.

``build`` draws every instance from the workload seed, writes it as an
instance file (or bench config) into the work directory and returns the
list of CLI ops one pass runs.  ``check_pass`` checks the parsed outputs
of one pass against the paper's guarantees and against each other.

Instances are generated through module attributes (``ks_instances.gen_*``)
so that a traced set-up sees the same calls the CLI makes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Optional

from ksubmax import instances as ks_instances
from ksubmax.core import Assignment
from ksubmax.instances import InstanceSpec
from ksubmax.matroids import PartitionMatroid, UniformMatroid, rank
from ksubmax.solvers import predicted_round_bound

WORKLOADS = ("coverage-uniform", "modular-partition", "exact-small")
EPSILON = 0.1

# Instance sizes per workload.  "tiny" keeps every op and layer of "full"
# at desk-check sizes, for the smoke test.
SIZES = {
    "full": {"cov_n": 100, "mod_threshold_n": 800, "mod_greedy_n": 120,
             "exact_instances": 24, "exact_bench": 4, "verify_sample": 400},
    "tiny": {"cov_n": 12, "mod_threshold_n": 40, "mod_greedy_n": 16,
             "exact_instances": 6, "exact_bench": 1, "verify_sample": 50},
}

# (n, k) shapes of the exact-small instances; exhaustive verification is
# affordable while (k+1)^n <= EXHAUSTIVE_LIMIT, larger ones are sampled.
EXACT_SHAPES = ((4, 2), (5, 2), (6, 2), (7, 2), (8, 2), (4, 3), (5, 3), (6, 3))
EXHAUSTIVE_LIMIT = 256
FAMILIES = ("modular", "modular-nonmonotone", "coverage", "explicit")
MATROIDS = ("uniform", "partition", "explicit")


@dataclass
class Instance:
    name: str
    path: str
    spec: InstanceSpec
    monotone: bool
    k_submodular: bool = True

    @cached_property
    def rank(self) -> int:
        return rank(self.spec.matroid)


@dataclass
class Op:
    """One CLI invocation: ``kind`` is a solver name, ``bench`` or ``verify``."""

    name: str
    kind: str
    argv: list[str]
    inst: Optional[Instance] = None
    monotone_by_id: dict = field(default_factory=dict)  # bench: instance id -> monotone
    exhaustive: bool = True


class Builder:
    def __init__(self, workdir: Path, rng: random.Random):
        self.workdir = workdir
        self.rng = rng
        self.ops: list[Op] = []

    def seed(self) -> int:
        return self.rng.randrange(2**31)

    def instance(self, name, function, matroid, monotone, k_submodular=True) -> Instance:
        spec = InstanceSpec(n=function.n, k=function.k, function=function, matroid=matroid)
        path = self.workdir / f"{name}.json"
        path.write_text(ks_instances.serialize_instance(spec), encoding="utf-8")
        return Instance(name, str(path), spec, monotone, k_submodular)

    def solve(self, inst: Instance, *solvers: str) -> None:
        for solver in solvers:
            argv = ["solve", inst.path, "--solver", solver, "--format", "json"]
            if solver == "threshold":
                argv += ["--epsilon", str(EPSILON)]
            self.ops.append(Op(f"{inst.name}.{solver}", solver, argv, inst))

    def verify(self, inst: Instance, sample: int) -> None:
        argv = ["verify", inst.path]
        exhaustive = (inst.spec.k + 1) ** inst.spec.n <= EXHAUSTIVE_LIMIT
        if not exhaustive:
            argv += ["--sample", str(sample), "--seed", "0"]
        self.ops.append(Op(f"{inst.name}.verify", "verify", argv, inst,
                           exhaustive=exhaustive))

    def bench(self, name: str, grid: list[dict], seeds: int) -> None:
        for entry in grid:
            entry["seeds"] = [self.seed() for _ in range(seeds)]
        doc = {"grid": grid, "solvers": ["threshold", "greedy", "brute"],
               "epsilons": [EPSILON, 0.3]}
        path = self.workdir / f"{name}.bench.json"
        path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
        monotone = {}
        for entry in grid:
            for s in entry["seeds"]:
                iid = f"{entry['family']}-{entry['matroid']}-n{entry['n']}-k{entry['k']}-s{s}"
                monotone[iid] = entry["family"] == "coverage" or entry.get("monotone", True)
        self.ops.append(Op(name, "bench", ["bench", str(path), "--format", "json"],
                           monotone_by_id=monotone))

    # -- instance families ------------------------------------------------

    def small_function(self, family: str, n: int, k: int):
        """Function of ``family`` and its monotonicity."""
        if family == "coverage":
            return ks_instances.gen_coverage(n, k, 2 * n, 0.4, seed=self.seed()), True
        inner = ks_instances.gen_modular(n, k, monotone=family != "modular-nonmonotone",
                                         seed=self.seed())
        if family == "explicit":
            return ks_instances.ExplicitTableFunction.tabulate(inner), inner.monotone
        return inner, inner.monotone

    def small_matroid(self, kind: str, n: int):
        """A loopless matroid of ``kind`` on ``n`` elements.

        The solvers' guarantees are stated for matroids in which every
        singleton is independent, so generator seeds are drawn until the
        explicit matroid has no loop; partitions have capacities of at
        least 1.
        """
        if kind == "uniform":
            return UniformMatroid(n, n // 2)
        if kind == "partition":
            return capped_partition(self, n, share=2, max_blocks=2)
        while True:
            m = ks_instances.gen_explicit_matroid(n, seed=self.seed())
            if all(m.is_independent([e]) for e in range(n)):
                return m

    def exact_tail(self, name: str, sample: int) -> None:
        """Small ops that reach the enumeration layers from a solve workload:
        one bench sweep with OPT, threshold, greedy and brute-force solves
        of a partition-matroid instance, and one exhaustive verify of a
        tabulated function on an explicit matroid."""
        self.bench(f"{name}.bench", [
            {"family": "coverage", "n": 6, "k": 2, "matroid": "uniform", "budget": 3},
            {"family": "modular", "n": 6, "k": 2, "matroid": "uniform", "budget": 3,
             "monotone": False},
        ], seeds=3)
        f, mono = self.small_function("modular-nonmonotone", 5, 2)
        self.solve(self.instance(f"{name}.part", f, self.small_matroid("partition", 5), mono),
                   "threshold", "greedy", "brute")
        f, mono = self.small_function("explicit", 4, 2)
        self.verify(self.instance(f"{name}.table", f, self.small_matroid("explicit", 4),
                                  mono), sample)


def capped_partition(b: Builder, n: int, share: int, max_blocks: int = 4) -> PartitionMatroid:
    """Partition matroid with the generator's blocks and capacity
    ``|block| // share`` (at least 1) per block.

    The generator draws 1 to ``max_blocks`` blocks and capacities uniform in
    0..|block|; either moves a solver's cost several-fold from one seed to
    the next.  Generator seeds are drawn until one gives ``max_blocks``
    non-empty blocks, and fixed shares replace its capacities, so the rank
    is about ``n / share`` on every seed.
    """
    while True:
        blocks = ks_instances.gen_partition_matroid(n, seed=b.seed(),
                                                    max_blocks=max_blocks).blocks
        if len(blocks) == max_blocks:
            return PartitionMatroid(n, blocks, [max(1, len(bl) // share) for bl in blocks])


def build(workload: str, seed: int, size: str, workdir: Path) -> tuple[list[Op], Instance]:
    """Write the workload's inputs; return one pass's ops and the warm-up instance."""
    sz = SIZES[size]
    b = Builder(workdir, random.Random(f"{workload}/{seed}"))
    warm = b.instance("warmup", ks_instances.gen_modular(3, 2, seed=b.seed()),
                      UniformMatroid(3, 2), True)
    # The solve workloads run an exact tail after each of their four big
    # solve steps, so each short op kind is timed four times per pass.
    if workload == "coverage-uniform":
        n = sz["cov_n"]
        for j in range(2):
            f = ks_instances.gen_coverage(n, 3, 2 * n, 0.25, seed=b.seed())
            inst = b.instance(f"cov{j}", f, UniformMatroid(n, n // 4), True)
            for solver in ("threshold", "greedy"):
                b.solve(inst, solver)
                b.exact_tail(f"tail{j}{solver}", sz["verify_sample"])
    elif workload == "modular-partition":
        # Four steps: threshold alone at the large size twice, then two
        # instances at the greedy size with both solvers, twice.
        steps = ([(sz["mod_threshold_n"], ("threshold",))],) * 2 \
            + ([(sz["mod_greedy_n"], ("threshold", "greedy"))] * 2,) * 2
        for j, step in enumerate(steps):
            for i, (n, solvers) in enumerate(step):
                f = ks_instances.gen_modular(n, 3, monotone=False, seed=b.seed())
                inst = b.instance(f"mod{j}{i}", f, capped_partition(b, n, share=4),
                                  f.monotone)
                b.solve(inst, *solvers)
            b.exact_tail(f"tail{j}", sz["verify_sample"])
    elif workload == "exact-small":
        for j in range(sz["exact_instances"]):
            n, k = EXACT_SHAPES[j % len(EXACT_SHAPES)]
            family = FAMILIES[(j // 2) % len(FAMILIES)]
            f, mono = b.small_function(family, n, k)
            inst = b.instance(f"x{j}", f, b.small_matroid(MATROIDS[j % 3], n), mono)
            b.solve(inst, "threshold", "greedy", "brute")
            b.verify(inst, sz["verify_sample"])
        for j in range(sz["exact_bench"]):
            b.bench(f"bench{j}", [
                {"family": "modular", "n": 6, "k": 2, "matroid": "uniform",
                 "budget": 3, "monotone": j % 2 == 0},
                {"family": "coverage", "n": 5, "k": 2 + j % 2, "matroid": "uniform",
                 "budget": 2},
            ], seeds=8)
        # A tabulated k-submodular table with f(1,1,0,0) raised: the lattice
        # inequality at p=(1,0,0,0), q=(0,1,0,0) and orthant submodularity
        # at element 1 both break, so both verifiers must report "fails".
        f, _ = b.small_function("explicit", 4, 2)
        values = list(f.values)
        values[1 + 3] += 8.0
        bad = ks_instances.ExplicitTableFunction(4, 2, values)
        b.verify(b.instance("corrupted", bad, UniformMatroid(4, 4), False,
                            k_submodular=False), sz["verify_sample"])
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return b.ops, warm


# ---------------------------------------------------------------------------
# Output parsing and checks
# ---------------------------------------------------------------------------

def parse_output(op: Op, text: str):
    """Timing-free summary of an op's stdout; equal outputs give equal summaries."""
    if op.kind == "verify":
        return text.splitlines()
    doc = json.loads(text)
    if op.kind == "bench":
        return [{k: v for k, v in row.items() if k != "elapsed"} for row in doc]
    return {k: v for k, v in doc.items() if k != "elapsed"}


def _verdicts(lines: list[str]) -> dict[str, str]:
    out = {}
    for line in lines:
        label, sep, rest = line.partition(": ")
        if sep and not line.startswith(" "):
            out[label] = rest
    return out


def _floor(monotone: bool) -> float:
    return (0.5 if monotone else 1 / 3) - EPSILON


def _check_solve(op: Op, doc: dict) -> list[str]:
    inst = op.inst
    f, m = inst.spec.function, inst.spec.matroid
    labels = doc["assignment"]
    support = [e for e, v in enumerate(labels) if v]
    problems = []
    if doc["support"] != support:
        problems.append("support does not match the assignment")
    if not m.is_independent(support):
        problems.append("support is not independent")
    if doc["value"] != f.evaluate(Assignment(tuple(labels), f.k)):
        problems.append(f"value {doc['value']} != f(assignment)")
    if op.kind == "threshold":
        n, k, rounds = f.n, f.k, doc["rounds"]
        r = inst.rank
        limit = predicted_round_bound(EPSILON, r) if r else 0
        if rounds > limit:
            problems.append(f"rounds {rounds} > bound {limit}")
        if doc["eo_calls"] > n * k * (rounds + 1):
            problems.append(f"eo {doc['eo_calls']} > n*k*(rounds+1)")
        if doc["io_calls"] > n * (rounds + len(support) + 1):
            problems.append(f"io {doc['io_calls']} > n*(rounds+t+1)")
    return problems


def _check_bench(op: Op, rows: list[dict]) -> list[str]:
    problems = []
    for row in rows:
        where = f"{row['instance']}/{row['solver']}"
        if row["error"]:
            problems.append(f"{where}: {row['error']}")
            continue
        opt = row["opt"]
        if opt is None:
            problems.append(f"{where}: no OPT")
            continue
        if row["value"] > opt:
            problems.append(f"{where}: value {row['value']} above OPT {opt}")
        if row["solver"] == "brute" and row["value"] != opt:
            problems.append(f"{where}: brute value {row['value']} != OPT {opt}")
        if row["solver"] == "threshold":
            eps = row["epsilon"]
            floor = (0.5 if op.monotone_by_id[row["instance"]] else 1 / 3) - eps
            if row["value"] < floor * opt:
                problems.append(f"{where}: value below ({floor:.4f})*OPT")
            n, k, r, rounds = row["n"], row["k"], row["r"], row["rounds"]
            if rounds > (predicted_round_bound(eps, r) if r else 0):
                problems.append(f"{where}: rounds above bound")
            if row["eo_calls"] > n * k * (rounds + 1) or row["io_calls"] > n * (rounds + r + 1):
                problems.append(f"{where}: oracle calls above bound")
    return problems


def _check_verify(op: Op, lines: list[str], opt: Optional[float]) -> list[str]:
    inst = op.inst
    v = _verdicts(lines)
    problems = []
    want = "holds" if inst.k_submodular else "fails"
    for label in ("k-submodularity (lattice inequality)",
                  "k-submodularity (orthant + pairwise)"):
        if not v.get(label, "").startswith(want):
            problems.append(f"{label}: expected {want}, got {v.get(label)!r}")
    if v.get("characterizations agree") != "yes":
        problems.append("characterizations disagree")
    if op.exhaustive:
        want_mono = "holds" if inst.monotone else "fails"
        if not v.get("monotone", "").startswith(want_mono):
            problems.append(f"monotone: expected {want_mono}, got {v.get('monotone')!r}")
    if not v.get("matroid axioms", "").startswith("holds"):
        problems.append("matroid axioms do not hold")
    if v.get("rank") != str(inst.rank):
        problems.append(f"rank {v.get('rank')!r} != {inst.rank}")
    if opt is not None and v.get("OPT") != str(opt):
        problems.append(f"OPT {v.get('OPT')!r} != brute value {opt}")
    return problems


def check_pass(ops: list[Op], codes: list[int], summaries: list) -> dict[str, list[str]]:
    """Problems found per op name; an op with any problem counts as failed."""
    problems: dict[str, list[str]] = {op.name: [] for op in ops}
    values: dict[str, dict[str, float]] = {}
    for op, code, out in zip(ops, codes, summaries):
        if code != 0 or out is None:
            problems[op.name].append(f"exit code {code}")
        elif op.kind in ("threshold", "greedy", "brute"):
            problems[op.name] += _check_solve(op, out)
            values.setdefault(op.inst.name, {})[op.kind] = out["value"]
        elif op.kind == "bench":
            problems[op.name] += _check_bench(op, out)
    for op, code, out in zip(ops, codes, summaries):
        if op.kind == "verify" and code == 0 and out is not None:
            opt = values.get(op.inst.name, {}).get("brute")
            problems[op.name] += _check_verify(op, out, opt)
        if op.kind != "threshold" or op.inst.name not in values:
            continue
        got = values[op.inst.name]
        floor = _floor(op.inst.monotone)
        if "greedy" in got and got["threshold"] < floor * got["greedy"]:
            problems[op.name].append(f"threshold below ({floor:.4f})*greedy")
        if "brute" in got:
            opt = got["brute"]
            if got["threshold"] < floor * opt:
                problems[op.name].append(f"threshold below ({floor:.4f})*OPT")
            if max(got.values()) > opt:
                problems[op.name].append("a solver beat OPT")
    return problems


def pass_counts(ops: list[Op], summaries: list) -> dict[str, float]:
    """Deterministic end-to-end figures of one pass: oracle calls, values, ratios."""
    eo = io = 0
    value_sum = 0.0
    ratios = []
    opt_of = {op.inst.name: out["value"] for op, out in zip(ops, summaries)
              if op.kind == "brute" and out is not None}
    for op, out in zip(ops, summaries):
        if out is None:
            continue
        if op.kind in ("threshold", "greedy"):
            eo += out["eo_calls"]
            io += out["io_calls"]
            value_sum += out["value"]
            opt = opt_of.get(op.inst.name)
            if opt:
                ratios.append(out["value"] / opt)
        elif op.kind == "bench":
            for row in out:
                if row["solver"] in ("threshold", "greedy") and not row["error"]:
                    eo += row["eo_calls"]
                    io += row["io_calls"]
                    value_sum += row["value"]
                    if row["ratio"] is not None:
                        ratios.append(row["ratio"])
    return {"eo_calls": eo, "io_calls": io, "value_sum": value_sum,
            "ratio_min": min(ratios) if ratios else 0.0}
