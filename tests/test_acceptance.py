"""End-to-end acceptance checks for the package's headline guarantees.

One test per criterion; each prints a single PASS/FAIL line (repeated in a
summary section after the run) and asserts it.  Approximation-ratio checks
compare against the brute-force optimum with plain comparisons: generated
values are multiples of 1/64, so the arithmetic carries no rounding error.
"""

import itertools
import math
import random
import time

from ksubmax import (
    ExplicitTableFunction,
    UniformMatroid,
    brute_force_solve,
    check_basis_exchange,
    check_marginal_sum_bound,
    enumerate_assignments,
    gen_coverage,
    gen_explicit_matroid,
    gen_modular,
    gen_partition_matroid,
    greedy_solve,
    predicted_round_bound,
    rank,
    threshold_decreasing_solve,
    verify_k_submodular,
    verify_orthant_pairwise,
)

from conftest import record_acceptance
from helpers import reference_greedy_solve

EPSILON_GRID = (0.1, 0.3, 0.5)

# every threshold run in this module flows through checked_threshold_run,
# so the oracle-count bounds are asserted on all of them
BOUND_CHECKED_RUNS = {"count": 0}


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    line = f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    record_acceptance(line)
    assert ok, line


def checked_threshold_run(f, m, epsilon, seed=None):
    """Run the threshold solver and assert its round and oracle bounds."""
    rep = threshold_decreasing_solve(f, m, epsilon, order_seed=seed)
    r = rank(m)
    rounds = len(rep.rounds)
    t = len(rep.assignment.support())
    n, k = f.n, f.k
    if r == 0:
        assert rounds == 0
    else:
        assert rounds <= predicted_round_bound(epsilon, r)
    assert rep.counters.eo_calls <= n * k * (rounds + 1)
    assert rep.counters.io_calls <= n * (rounds + t + 1)
    BOUND_CHECKED_RUNS["count"] += 1
    return rep


def make_matroid(kind: str, n: int, seed: int):
    if kind == "uniform":
        return UniformMatroid(n, 1 + seed % n)
    if kind == "partition":
        return gen_partition_matroid(n, seed=seed)
    return gen_explicit_matroid(n, seed=seed)


def monotone_instances(seeds, max_n=6):
    """Monotone functions crossed with all three matroid families."""
    for n in range(2, max_n + 1):
        for k in (1, 2, 3):
            for kind in ("uniform", "partition", "explicit"):
                for seed in seeds:
                    if seed % 2 == 0:
                        f = gen_modular(n, k, monotone=True, seed=seed)
                    else:
                        f = gen_coverage(n, k, universe_size=2 * n,
                                         density=0.4, seed=seed)
                    yield f, make_matroid(kind, n, seed + 7)


def nonmonotone_instances(seeds, max_n=6):
    for n in range(2, max_n + 1):
        for k in (1, 2, 3):
            for kind in ("uniform", "partition", "explicit"):
                for seed in seeds:
                    f = gen_modular(n, k, monotone=False, seed=seed)
                    yield f, make_matroid(kind, n, seed + 7)


def test_criterion_01_feasibility():
    sizes = (1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 25, 32, 40, 50)
    started = time.monotonic()
    instances = 0
    violations = 0
    i = 0
    while instances < 1000:
        n = sizes[i % len(sizes)]
        k = 1 + i % 3
        if i % 3 == 0:
            f = gen_modular(n, k, monotone=True, seed=i)
        elif i % 3 == 1:
            f = gen_modular(n, k, monotone=False, seed=i)
        else:
            f = gen_coverage(n, k, universe_size=2 * n, density=0.3, seed=i)
        kind = ("uniform", "partition", "explicit")[i % 3 if n <= 10 else i % 2]
        m = make_matroid(kind, n, i)
        epsilon = EPSILON_GRID[i % 3]
        outputs = [
            checked_threshold_run(f, m, epsilon).assignment,
            greedy_solve(f, m).assignment,
        ]
        if (k + 1) ** n <= 256:
            outputs.append(brute_force_solve(f, m).assignment)
        violations += sum(not m.is_independent(a.support()) for a in outputs)
        instances += 1
        i += 1
    elapsed = time.monotonic() - started
    ok = violations == 0 and elapsed < 60
    _report(1, "feasibility", ok,
            f"{instances} instances, {violations} violations, {elapsed:.1f}s")


def test_criterion_02_monotone_ratio():
    started = time.monotonic()
    instances = 0
    runs = 0
    worst = math.inf
    failures = 0
    for f, m in monotone_instances(seeds=(0, 1, 2, 3, 4)):
        opt = brute_force_solve(f, m).value
        instances += 1
        for epsilon in EPSILON_GRID:
            rep = checked_threshold_run(f, m, epsilon)
            runs += 1
            if opt > 0:
                worst = min(worst, rep.value / opt - (0.5 - epsilon))
            if rep.value < (0.5 - epsilon) * opt:
                failures += 1
    elapsed = time.monotonic() - started
    ok = instances >= 200 and failures == 0 and elapsed < 300
    _report(2, "monotone ratio >= 1/2 - eps", ok,
            f"{instances} instances, {runs} runs, {failures} below bound, "
            f"min slack {worst:.4f}, {elapsed:.1f}s")


def test_criterion_03_nonmonotone_ratio():
    started = time.monotonic()
    instances = 0
    failures = 0
    worst = math.inf
    for f, m in nonmonotone_instances(seeds=(0, 1, 2, 3, 4)):
        opt = brute_force_solve(f, m).value
        instances += 1
        for epsilon in EPSILON_GRID:
            rep = checked_threshold_run(f, m, epsilon)
            if opt > 0:
                worst = min(worst, rep.value / opt - (1 / 3 - epsilon))
            if rep.value < (1 / 3 - epsilon) * opt:
                failures += 1
    elapsed = time.monotonic() - started
    ok = instances >= 200 and failures == 0 and elapsed < 300
    _report(3, "non-monotone ratio >= 1/3 - eps", ok,
            f"{instances} instances, {failures} below bound, "
            f"min slack {worst:.4f}, {elapsed:.1f}s")


def test_criterion_04_oracle_count_bounds():
    # checked_threshold_run asserts the bounds inside every run above;
    # this adds a dedicated sweep so the criterion stands on its own
    runs = 0
    for n, k, kind, epsilon in itertools.product(
        (2, 4, 6), (1, 2, 3), ("uniform", "partition", "explicit"), EPSILON_GRID
    ):
        f = gen_modular(n, k, monotone=(runs % 2 == 0), seed=runs)
        checked_threshold_run(f, make_matroid(kind, n, runs), epsilon, seed=runs)
        runs += 1
    total = BOUND_CHECKED_RUNS["count"]
    _report(4, "rounds/eo/io bounds", total >= runs,
            f"exact bounds asserted on {total} solver runs")


def test_criterion_05_complexity_separation():
    """The paper's separation is against the eager greedy, whose EO bill grows
    as r·n·k; it is kept as ``reference_greedy_solve``.  The shipped
    ``greedy_solve`` is lazy and re-prices about one row per addition on
    this modular objective, so it is not the baseline measured here."""
    started = time.monotonic()
    f = gen_modular(200, 2, value_range=(2.0, 4.0), monotone=True, seed=5)
    greedy_eo = {}
    threshold_eo = {}
    for budget in (2, 4, 8, 16, 32):
        m = UniformMatroid(200, budget)
        greedy_eo[budget] = reference_greedy_solve(f, m).counters.eo_calls
        threshold_eo[budget] = checked_threshold_run(f, m, 0.2).counters.eo_calls
    greedy_growth = greedy_eo[32] / greedy_eo[2]
    threshold_growth = threshold_eo[32] / threshold_eo[2]
    elapsed = time.monotonic() - started
    ok = greedy_growth >= 8 and threshold_growth <= 3 and elapsed < 120
    _report(5, "query-complexity separation", ok,
            f"eager greedy eo x{greedy_growth:.1f}, threshold eo x{threshold_growth:.2f} "
            f"from r=2 to r=32, {elapsed:.1f}s")


def test_criterion_06_characterization_agreement():
    rng = random.Random(2026)
    disagreements = 0
    corrupted = 0
    corrupted_failing = 0
    for idx in range(100):
        n = rng.randint(1, 3)
        k = rng.randint(1, 3)
        f = ExplicitTableFunction.tabulate(
            gen_modular(n, k, monotone=rng.random() < 0.5, seed=idx)
        )
        if idx % 2 == 1:
            corrupted += 1
            values = list(f.values)
            values[rng.randrange(1, len(values))] += rng.choice([-9.5, 9.5])
            f = ExplicitTableFunction(n, k, values)
        a = verify_k_submodular(f)
        b = verify_orthant_pairwise(f)
        assert a.exhaustive and b.exhaustive
        if a.holds != b.holds:
            disagreements += 1
        if idx % 2 == 1 and not a.holds:
            corrupted_failing += 1
    ok = disagreements == 0
    _report(6, "verifier agreement", ok,
            f"100 tables ({corrupted} corrupted, {corrupted_failing} detected "
            f"non-k-submodular), {disagreements} disagreements")


def test_criterion_07_marginal_sum_bound():
    checked_pairs = 0
    instances = 0
    for seed in range(20):
        n = 2 + seed % 3  # up to 4
        k = 1 + seed % 3
        if seed % 4 == 3:
            f = gen_coverage(n, k, universe_size=2 * n, density=0.5, seed=seed)
        else:
            f = gen_modular(n, k, monotone=(seed % 2 == 0), seed=seed)
        assert verify_k_submodular(f).holds
        instances += 1
        for q in enumerate_assignments(n, k):
            supp = sorted(q.support())
            for size in range(len(supp) + 1):
                for keep in itertools.combinations(supp, size):
                    assert check_marginal_sum_bound(f, q.restrict(keep), q)
                    checked_pairs += 1
    _report(7, "marginal-sum bound", True,
            f"{checked_pairs} ordered pairs over {instances} verified instances")


def test_criterion_08_basis_exchange():
    matroids = []
    for n in range(2, 7):
        matroids += [UniformMatroid(n, b) for b in range(1, n + 1)]
        matroids += [gen_partition_matroid(n, seed=s) for s in range(3)]
        matroids += [gen_explicit_matroid(n, seed=s) for s in range(3)]
    triples = 0
    failures = 0
    for m in matroids:
        n = m.ground_size
        r = rank(m)
        subsets = [frozenset(c) for size in range(n + 1)
                   for c in itertools.combinations(range(n), size)]
        indep = [s for s in subsets if m.is_independent(s)]
        bases = [s for s in indep if len(s) == r]
        for b in bases:
            for a in indep:
                if not a < b:
                    continue
                for e in range(n):
                    if e in a or not m.is_independent(a | {e}):
                        continue
                    triples += 1
                    if not check_basis_exchange(m, a, b, e):
                        failures += 1
    ok = failures == 0
    _report(8, "basis exchange", ok,
            f"{triples} (a, b, e) triples over {len(matroids)} matroids, "
            f"{failures} without a valid swap")


def test_criterion_09_max_optimum_support_equals_rank():
    monotone_total = 0
    monotone_mismatches = 0
    for f, m in monotone_instances(seeds=(0, 1)):
        res = brute_force_solve(f, m)
        monotone_total += 1
        if res.max_opt_support_size != rank(m):
            monotone_mismatches += 1
    nonmono_total = 0
    nonmono_matches = 0
    for f, m in nonmonotone_instances(seeds=(0, 1)):
        res = brute_force_solve(f, m)
        nonmono_total += 1
        if res.max_opt_support_size == rank(m):
            nonmono_matches += 1
    rate = nonmono_matches / nonmono_total
    ok = monotone_mismatches == 0
    _report(9, "max optimal support == rank", ok,
            f"monotone {monotone_total - monotone_mismatches}/{monotone_total}, "
            f"non-monotone pass rate {rate:.0%} ({nonmono_matches}/{nonmono_total})")


def test_criterion_10_uniform_matroid_bounds():
    started = time.monotonic()
    runs = 0
    ratio_failures = 0
    eo_failures = 0
    for monotone in (True, False):
        for n in range(2, 7):
            for k in (1, 2, 3):
                for budget in (1, 2, n):
                    for seed in (0, 1):
                        if monotone and seed % 2 == 1:
                            f = gen_coverage(n, k, universe_size=2 * n,
                                             density=0.4, seed=seed)
                        else:
                            f = gen_modular(n, k, monotone=monotone, seed=seed)
                        m = UniformMatroid(n, budget)
                        opt = brute_force_solve(f, m).value
                        floor = 0.5 if monotone else 1 / 3
                        for epsilon in EPSILON_GRID:
                            rep = checked_threshold_run(f, m, epsilon)
                            runs += 1
                            if rep.value < (floor - epsilon) * opt:
                                ratio_failures += 1
                            r = min(budget, n)
                            limit = n * k * (predicted_round_bound(epsilon, r) + 1)
                            if rep.counters.eo_calls > limit:
                                eo_failures += 1
    elapsed = time.monotonic() - started
    ok = ratio_failures == 0 and eo_failures == 0 and elapsed < 300
    _report(10, "uniform-matroid bounds", ok,
            f"{runs} runs, {ratio_failures} ratio / {eo_failures} eo-bound "
            f"failures, {elapsed:.1f}s")
