"""Command-line front end.

Three subcommands: ``solve`` runs one solver on one instance file,
``bench`` sweeps a parameter grid with every configured solver and emits
one row per run, ``verify`` checks an instance's structural properties
and prints verdicts.

Exit codes: 0 success, 1 standard output closed early (the reader of a
pipe went away; nothing is printed), 2 unreadable or malformed input,
3 a cap was exceeded (brute force, or exhaustive verification without
--sample), 4 invalid or missing epsilon.

``solve`` checks its flags against the chosen solver: ``--epsilon`` is
range-checked whenever it is given (exit 4), whichever solver runs, and
``--seed``, which shuffles the threshold solver's visiting order, is
refused with ``greedy`` and ``brute``, which take none (exit 2).
``verify`` draws random checks only with ``--sample``, so it refuses
``--seed`` without it (exit 2); with ``--sample N``, a check whose
exhaustive enumeration fits in N checks runs exhaustively and ignores
``--seed``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import os
import sys
from dataclasses import dataclass, fields
from typing import Optional

from .core import INTS, NUMBERS, Assignment, CapExceededError, KSubFunction, _typed
from .instances import (
    InstanceFormatError,
    InstanceSpec,
    gen_coverage,
    gen_explicit_matroid,
    gen_modular,
    gen_partition_matroid,
    load_json,
    parse_instance,
)
from .matroids import UniformMatroid, check_matroid_axioms, rank
from .solvers import (
    DEFAULT_BRUTE_CAP,
    SolveReport,
    _check_epsilon,
    brute_force_solve,
    greedy_solve,
    threshold_decreasing_solve,
)
from .verify import (
    DEFAULT_PAIR_BUDGET,
    _check_sampling,
    _lattice_pairs,
    verify_k_submodular,
    verify_monotone,
    verify_orthant_pairwise,
)

EXIT_OK = 0
EXIT_PIPE = 1
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_EPSILON = 4

# The bench size rule: a grid entry may generate at most this many cells,
# n*k table entries for modular and n*k*universe_size cover-set bits for
# coverage (universe_size defaults to 2n).  At the cap gen_modular takes
# about 4 s and 21 MB per seed on a 2-core host (15 s and 82 MB at 2^20
# cells); past it a config is refused whole, before anything is generated.
MAX_BENCH_CELLS = 2**18

# Each solver runs on (spec, epsilon, seed, cap) and returns a SolveReport.
# The lambdas look the solver functions up in this module at call time, so
# a solver patched here by name is the one that runs.
SOLVERS = {
    "threshold": lambda spec, epsilon, seed, cap: threshold_decreasing_solve(
        spec.function, spec.matroid, epsilon, order_seed=seed),
    "greedy": lambda spec, epsilon, seed, cap: greedy_solve(spec.function, spec.matroid),
    "brute": lambda spec, epsilon, seed, cap: brute_force_solve(
        spec.function, spec.matroid, cap=cap),
}
SOLVER_NAMES = tuple(SOLVERS)


@dataclass
class BenchRow:
    """One sweep measurement: a single solver run on a single instance.

    ``opt`` and ``ratio`` are filled only when the instance fits the
    brute-force cap and the optimum is positive; ``rounds`` counts the
    threshold solver's executed outer rounds (0 for greedy).  Brute force
    counts no oracle calls, so its ``eo_calls``, ``io_calls`` and
    ``rounds`` stay empty.  A nonempty ``error`` means the run failed and
    the measurement columns are absent.
    """

    instance: str
    solver: str
    n: int
    k: int
    r: Optional[int] = None
    epsilon: Optional[float] = None
    value: Optional[float] = None
    opt: Optional[float] = None
    ratio: Optional[float] = None
    eo_calls: Optional[int] = None
    io_calls: Optional[int] = None
    rounds: Optional[int] = None
    elapsed: Optional[float] = None
    error: str = ""


BENCH_COLUMNS = tuple(column.name for column in fields(BenchRow))


def _fail(message: str, code: int) -> int:
    print(f"ksubmax: {message}", file=sys.stderr)
    return code


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load(path: str, parse) -> tuple:
    """``(parse(text), EXIT_OK)`` for the text of file ``path``, or
    ``(None, EXIT_PARSE)``, the reason reported, when it cannot be read
    (a text that is not UTF-8 included) or ``parse`` refuses it with
    :class:`InstanceFormatError`."""
    try:
        return parse(_read_text(path)), EXIT_OK
    except (OSError, UnicodeDecodeError) as err:
        return None, _fail(f"cannot read {path}: {err}", EXIT_PARSE)
    except InstanceFormatError as err:
        return None, _fail(f"{path}: {err}", EXIT_PARSE)


def _cell(value, column: str) -> str:
    if value is None:
        return ""
    if column == "elapsed":
        return f"{value:.6f}"
    return str(value)


def _measures(rep: SolveReport) -> dict:
    """Value, oracle counts, round count and seconds of one solver run.

    A run that counts no oracle calls (``counters`` is None) has no
    counts and no round count.
    """
    counted = rep.counters is not None
    return {
        "value": rep.value,
        "eo_calls": rep.counters.eo_calls if counted else None,
        "io_calls": rep.counters.io_calls if counted else None,
        "rounds": len(rep.rounds) if counted else None,
        "elapsed": rep.elapsed,
    }


def _emit_rows(rows: list[BenchRow], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps([vars(r) for r in rows]))
        return
    cells = [list(BENCH_COLUMNS)]
    cells += [[_cell(getattr(r, c), c) for c in BENCH_COLUMNS] for r in rows]
    if fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerows(cells)
        return
    widths = [max(len(line[j]) for line in cells) for j in range(len(BENCH_COLUMNS))]
    for line in cells:
        print("  ".join(c.ljust(w) for c, w in zip(line, widths)).rstrip())


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def cmd_solve(args) -> int:
    spec, code = _load(args.instance, parse_instance)
    if code:
        return code

    threshold = args.solver == "threshold"
    if args.epsilon is None:
        if threshold:
            return _fail("the threshold solver requires --epsilon", EXIT_EPSILON)
    else:
        try:
            _check_epsilon(args.epsilon)
        except ValueError as err:
            return _fail(str(err), EXIT_EPSILON)
    if args.seed is not None and not threshold:
        return _fail(f"--seed shuffles the threshold solver's visiting order; "
                     f"the {args.solver} solver takes no seed", EXIT_PARSE)
    try:
        rep = SOLVERS[args.solver](spec, args.epsilon, args.seed, args.cap)
    except CapExceededError as err:
        return _fail(str(err), EXIT_CAP)

    # "value" keeps its place after "k"; the measures only repeat it
    doc = {
        "solver": args.solver,
        "n": spec.n,
        "k": spec.k,
        "value": rep.value,
        "assignment": list(rep.assignment.labels),
        "support": sorted(rep.assignment.support()),
        **_measures(rep),
    }
    if threshold:
        doc["rounds_detail"] = [[w, added] for w, added in rep.rounds]
    if rep.max_opt_support_size is not None:
        doc["max_opt_support_size"] = rep.max_opt_support_size
    if args.format == "json":
        print(json.dumps(doc))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        columns = ["solver", "n", "k", "value", "eo_calls", "io_calls",
                   "rounds", "elapsed", "assignment"]
        writer.writerow(columns)
        writer.writerow(
            [_cell(doc[c], c) for c in columns[:-1]]
            + [" ".join(str(v) for v in doc["assignment"])]
        )
    else:
        for key, val in doc.items():
            if key in ("assignment", "support"):
                val = "[" + ", ".join(str(v) for v in val) + "]"
            elif key == "elapsed":
                val = f"{val:.6f}s"
            print(f"{key}: {val}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def _config_solvers(doc: dict) -> list:
    """The bench config's solver list; threshold and greedy when it names none."""
    return doc.get("solvers", ["threshold", "greedy"])


def _check_config(doc) -> Optional[str]:
    """Return an error message for a malformed bench config, else None.

    This includes the size rule: an entry that would generate more than
    ``MAX_BENCH_CELLS`` cells refuses the whole config, so no row is run.
    The library generators stay unbounded."""
    if not isinstance(doc, dict):
        return "top level: expected an object"
    grid = doc.get("grid")
    if not isinstance(grid, list):
        return "grid: expected a list of sweep entries"
    solvers = _config_solvers(doc)
    if not isinstance(solvers, list) or any(s not in SOLVER_NAMES for s in solvers):
        return f"solvers: expected a list drawn from {SOLVER_NAMES}"
    epsilons = doc.get("epsilons", [])
    if not isinstance(epsilons, list):
        return "epsilons: expected a list"
    if "threshold" in solvers and not epsilons:
        return "epsilons: required when the threshold solver is configured"
    for eps in epsilons:
        try:
            _check_epsilon(eps)
        except ValueError as err:
            return f"epsilons: {err}"
    if "cap" in doc and type(doc["cap"]) is not int:
        return f"cap: expected an integer, got {doc['cap']!r}"
    for idx, entry in enumerate(grid):
        where = f"grid[{idx}]"
        if not isinstance(entry, dict):
            return f"{where}: expected an object"
        for key in ("family", "n", "k", "matroid", "seeds"):
            if key not in entry:
                return f"{where}: missing required field '{key}'"
        if entry["family"] not in ("modular", "coverage"):
            return f"{where}.family: unknown family {entry['family']!r}"
        if entry["matroid"] not in ("uniform", "partition", "explicit"):
            return f"{where}.matroid: unknown matroid family {entry['matroid']!r}"
        if entry["matroid"] == "uniform" and "budget" not in entry:
            return f"{where}: uniform matroid needs a 'budget' field"
        for key in ("n", "k", "budget", "universe_size"):
            if key in entry and type(entry[key]) is not int:
                return f"{where}.{key}: expected an integer, got {entry[key]!r}"
        if "monotone" in entry and type(entry["monotone"]) is not bool:
            return f"{where}.monotone: expected true or false, got {entry['monotone']!r}"
        if "density" in entry and type(entry["density"]) not in NUMBERS:
            return f"{where}.density: expected a number, got {entry['density']!r}"
        if "value_range" in entry and not (
            isinstance(entry["value_range"], list)
            and len(entry["value_range"]) == 2
            and _typed(entry["value_range"], NUMBERS)
        ):
            return (
                f"{where}.value_range: expected a list of two numbers, "
                f"got {entry['value_range']!r}"
            )
        if not isinstance(entry["seeds"], list) or not _typed(entry["seeds"], INTS):
            return f"{where}.seeds: expected a list of integers"
        cells = entry["n"] * entry["k"]
        if entry["family"] == "coverage":
            cells *= entry.get("universe_size", 2 * entry["n"])
        if cells > MAX_BENCH_CELLS:
            unit = "n*k*universe_size" if entry["family"] == "coverage" else "n*k"
            return (f"{where}: generates {cells} cells ({unit}), above the bench "
                    f"limit of {MAX_BENCH_CELLS}")
    return None


def _build_instance(entry: dict, seed: int) -> InstanceSpec:
    family, n, k = entry["family"], entry["n"], entry["k"]
    if family == "modular":
        fn: KSubFunction = gen_modular(
            n, k,
            value_range=tuple(entry.get("value_range", (-2.0, 4.0))),
            monotone=entry.get("monotone", True),
            seed=seed,
        )
    else:
        fn = gen_coverage(
            n, k,
            universe_size=entry.get("universe_size", 2 * n),
            density=entry.get("density", 0.25),
            seed=seed,
        )
    mt = entry["matroid"]
    if mt == "uniform":
        m = UniformMatroid(n, entry["budget"])
    elif mt == "partition":
        m = gen_partition_matroid(n, seed=seed + 1)
    else:
        m = gen_explicit_matroid(n, seed=seed + 1)
    return InstanceSpec(n=n, k=k, function=fn, matroid=m)


def run_bench(config: dict, cap: int) -> list[BenchRow]:
    """Materialize every grid instance and run every configured solver.

    Rows appear in deterministic config order: grid entry, then seed, then
    solver, then epsilon (threshold only).  Brute force runs once per
    instance: its report gives the ``opt`` column and is the brute row.
    Failures are captured in the row's ``error`` field and never abort the
    sweep.
    """
    solvers = _config_solvers(config)
    epsilons = config.get("epsilons", [])
    cap = config.get("cap", cap)
    rows: list[BenchRow] = []
    for entry in config["grid"]:
        n, k = entry["n"], entry["k"]
        for seed in entry["seeds"]:
            instance_id = f"{entry['family']}-{entry['matroid']}-n{n}-k{k}-s{seed}"
            try:
                spec = _build_instance(entry, seed)
            except (ValueError, TypeError) as err:
                rows.append(BenchRow(instance=instance_id, solver="", n=n, k=k,
                                     error=f"instance generation failed: {err}"))
                continue
            r = rank(spec.matroid)
            try:
                brute, brute_error = SOLVERS["brute"](spec, None, seed, cap), ""
            except CapExceededError as err:
                brute, brute_error = None, str(err)
            opt = brute.value if brute is not None else None
            for solver in solvers:
                for epsilon in (epsilons if solver == "threshold" else [None]):
                    row = BenchRow(
                        instance=instance_id, solver=solver, n=n, k=k,
                        r=r, epsilon=epsilon,
                    )
                    if solver == "brute":
                        rep, row.error = brute, brute_error
                    else:
                        rep = SOLVERS[solver](spec, epsilon, seed, cap)
                    if rep is not None:
                        for key, val in _measures(rep).items():
                            setattr(row, key, val)
                        row.opt = opt
                        if opt is not None and opt > 0:
                            row.ratio = row.value / opt
                    rows.append(row)
    return rows


def cmd_bench(args) -> int:
    config, code = _load(args.config, load_json)
    if code:
        return code
    problem = _check_config(config)
    if problem is not None:
        return _fail(f"{args.config}: {problem}", EXIT_PARSE)
    rows = run_bench(config, cap=args.cap)
    _emit_rows(rows, args.format)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _plain(obj):
    """Render counterexample payloads with JSON-friendly primitives."""
    if isinstance(obj, Assignment):
        return list(obj.labels)
    if isinstance(obj, frozenset):
        return sorted(obj)
    if isinstance(obj, tuple):
        return [_plain(v) for v in obj]
    return obj


def _print_verdict(label: str, verdict) -> None:
    mode = "exhaustive" if verdict.exhaustive else "sampled"
    word = "holds" if verdict.holds else "fails"
    print(f"{label}: {word} [{mode}, {verdict.checked} checks]")
    if verdict.counterexample is not None:
        print(f"  counterexample: {_plain(verdict.counterexample)}")


def cmd_verify(args) -> int:
    spec, code = _load(args.instance, parse_instance)
    if code:
        return code

    budget = DEFAULT_PAIR_BUDGET
    seed = args.seed or 0
    if args.sample is not None:
        try:
            _check_sampling(args.sample, seed, "--sample")
        except ValueError as err:
            return _fail(str(err), EXIT_PARSE)
        budget = args.sample
    elif args.seed is not None:
        return _fail("--seed seeds sampled verification; pass --sample N with it", EXIT_PARSE)
    elif _lattice_pairs(spec.n, spec.k) > budget:
        return _fail(
            f"instance needs {_lattice_pairs(spec.n, spec.k)} checks for "
            f"exhaustive verification (budget {budget}); pass --sample N to "
            "verify on N random checks instead",
            EXIT_CAP,
        )

    f, m = spec.function, spec.matroid
    joint = verify_k_submodular(f, pair_budget=budget, seed=seed)
    split = verify_orthant_pairwise(f, pair_budget=budget, seed=seed)
    mono = verify_monotone(f, pair_budget=budget, seed=seed)
    axioms = check_matroid_axioms(m, budget=budget, seed=seed)

    _print_verdict("k-submodularity (lattice inequality)", joint)
    _print_verdict("k-submodularity (orthant + pairwise)", split)
    agree = joint.holds == split.holds
    print(f"characterizations agree: {'yes' if agree else 'NO'}")
    _print_verdict("monotone", mono)
    _print_verdict("matroid axioms", axioms)
    print(f"rank: {rank(m)}")

    try:
        res = brute_force_solve(f, m, cap=args.cap)
    except CapExceededError as err:
        print(f"OPT: skipped ({err})")
    else:
        print(f"OPT: {res.value}")
        print(f"optimal assignment: {list(res.assignment.labels)}")
        print(f"max optimal support size: {res.max_opt_support_size}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ksubmax",
        description="Maximize k-submodular functions under a matroid constraint.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run one solver on one instance file")
    p_solve.add_argument("instance", help="path to a JSON instance file")
    p_solve.add_argument("--solver", choices=SOLVER_NAMES, default="threshold")
    p_solve.add_argument("--epsilon", type=float, default=None,
                         help="threshold decay rate in (0, 1); required for threshold, "
                              "range-checked with every solver")
    p_solve.add_argument("--seed", type=int, default=None,
                         help="shuffle the threshold solver's candidate visiting "
                              "order; refused with other solvers")
    p_solve.add_argument("--format", choices=("json", "csv", "human"), default="human")
    p_solve.add_argument("--cap", type=int, default=DEFAULT_BRUTE_CAP,
                         help="brute-force assignment budget")
    p_solve.set_defaults(func=cmd_solve)

    p_bench = sub.add_parser("bench", help="sweep a parameter grid")
    p_bench.add_argument("config", help="path to a JSON sweep config")
    p_bench.add_argument("--format", choices=("json", "csv", "human"), default="csv")
    p_bench.add_argument("--cap", type=int, default=DEFAULT_BRUTE_CAP,
                         help="brute-force budget for the opt column")
    p_bench.set_defaults(func=cmd_bench)

    p_verify = sub.add_parser("verify", help="check instance properties")
    p_verify.add_argument("instance", help="path to a JSON instance file")
    p_verify.add_argument("--sample", type=int, default=None,
                          help="verify on N random checks instead of exhaustively")
    p_verify.add_argument("--seed", type=int, default=None,
                          help="seed for sampled verification; requires --sample. A "
                               "check whose exhaustive enumeration fits in the --sample "
                               "budget runs exhaustively, ignores the seed and prints "
                               "[exhaustive, ...]")
    p_verify.add_argument("--cap", type=int, default=DEFAULT_BRUTE_CAP,
                          help="brute-force assignment budget for the OPT report")
    p_verify.set_defaults(func=cmd_verify)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses: built on the first call, then reused."""
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: the flush at exit writes what is left to devnull
        with contextlib.suppress(AttributeError, OSError, ValueError):
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
