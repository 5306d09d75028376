"""Solvers for k-submodular maximization under a matroid constraint.

Three routes to a solution:

* :func:`threshold_decreasing_solve` accepts any feasible element whose best
  single-position gain meets a geometrically decaying threshold.  For
  monotone objectives it is a (1/2 - eps)-approximation, for non-monotone
  ones (1/3 - eps), and its value-oracle cost grows only logarithmically
  with the matroid rank.
* :func:`greedy_solve` is the classic baseline: repeatedly add the best
  feasible (element, position) pair.  Its oracle cost grows linearly with
  the rank.
* :func:`brute_force_solve` enumerates every assignment with independent
  support and is the exact ground truth for desk-scale instances.

Oracle accounting is exact and documented per solver so tests can assert
counts as integers.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import Optional

from .core import Assignment, CapExceededError, KSubFunction, OracleCounters
from .matroids import Matroid, greedy_basis

# The solvers call none of these, but perfbench's tracer patches each of
# them by name in this module to time the layers; keep them importable here.
from .core import marginal_gain  # noqa: F401
from .matroids import feasible_extensions, rank  # noqa: F401

DEFAULT_BRUTE_CAP = 4**10


@dataclass
class SolveReport:
    """Result of one solver run.

    ``rounds`` records, for the threshold solver, one (threshold, elements
    added) entry per executed outer round; it is empty for the greedy and
    brute-force solvers.  ``value`` is re-evaluated once at the end outside
    the counters as an audit.  ``elapsed`` is wall-clock seconds and never
    deterministic.  ``counters`` is None for brute force, which counts no
    oracle calls; only brute force sets ``max_opt_support_size``, the
    largest support among optimal assignments.
    """

    assignment: Assignment
    value: float
    counters: Optional[OracleCounters]
    rounds: list[tuple[float, int]]
    elapsed: float
    max_opt_support_size: Optional[int] = None


def _check_inputs(f: KSubFunction, m: Matroid) -> None:
    if f.n != m.ground_size:
        raise ValueError(
            f"function ground set (n={f.n}) does not match matroid "
            f"(n={m.ground_size})"
        )


def predicted_round_bound(epsilon: float, r: int) -> int:
    """Upper bound on executed threshold rounds for accuracy eps and rank r.

    The threshold decays by (1 - eps) per round and the loop stops once it
    falls to (1 - eps) * eps * d / (2r), so the executed rounds are at most
    ceil(log(2r/eps) / log(1/(1-eps))) + 1.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if r < 1:
        raise ValueError(f"rank must be at least 1, got {r}")
    return math.ceil(math.log(2 * r / epsilon) / math.log(1 / (1 - epsilon))) + 1


def threshold_decreasing_solve(
    f: KSubFunction,
    m: Matroid,
    epsilon: float,
    order_seed: Optional[int] = None,
    matroid_rank: Optional[int] = None,
) -> SolveReport:
    """Maximize ``f`` over assignments with independent support.

    The threshold starts at the best value d of an independent singleton
    and decays by a factor (1 - eps) per round; each round walks the
    surviving candidates (ascending index order, or a seeded shuffle when
    ``order_seed`` is given) and accepts an element when its best
    single-position gain meets the threshold.  The loop stops when the
    threshold reaches (1 - eps) * eps * d / (2r), no candidate is left, or
    the support reaches the rank r.

    The walk is lazy.  Each element keeps ``bound[e]``, the last best gain
    computed for it (seeded by the opening singleton scan).  By orthant
    submodularity a gain can only shrink as the assignment grows, so
    ``bound[e]`` is an upper bound on the current gain; a candidate with
    ``bound[e] < w`` cannot be accepted at bar w and is skipped at no
    oracle cost, staying a candidate.  Otherwise it is visited: one IO call
    re-checks feasibility, k EO calls find its best position, ``bound[e]``
    is updated, and it is accepted if the gain meets the bar.  Every
    acceptance is the one a visit-everything loop makes, in the same order
    with the same gain, so the assignment and value are identical to that
    loop's and the recorded rounds are a prefix of its rounds.  This holds for every
    k-submodular ``f``, monotone or not; an unchecked
    :class:`ExplicitTableFunction` that is not k-submodular may come out
    differently.

    Gains are priced against the running state from ``f.gain_state``: a
    table lookup for modular functions, the weight of newly covered points
    for coverage, a full evaluation otherwise.  All three are exact on the
    1/64 value grid, so the run does not depend on which one prices it.
    Independence tests go through ``m.independence_state`` (the rank scan
    through :func:`greedy_basis`): constant time for the shipped matroid
    families, ``is_independent`` otherwise, with the same answers and
    counts either way.

    Exact oracle accounting: n*k EO for the initial single-element scan
    plus k EO per candidate visit that passes its IO test (one gain costs
    one evaluation); n IO for the rank scan, which visits elements by
    descending singleton value (ties by index) so that d is the value of
    its first accepted element, plus one IO per candidate visit.  Skipped
    candidates cost nothing.  With ``matroid_rank`` supplied the rank scan
    is replaced by singleton tests in the same order up to the first
    independent one (1 IO on a matroid without loops); the supplied value
    must be the true rank, because the solver stops once the support has
    that many elements.  If no singleton has a positive value the solver
    stops before any IO.  Candidates found infeasible are dropped
    permanently, which is sound because supersets of a dependent set stay
    dependent.
    """
    _check_inputs(f, m)
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    start = time.perf_counter()
    counters = OracleCounters()
    n, k = f.n, f.k
    state = f.gain_state(counters)
    indep = m.independence_state(counters)
    rounds: list[tuple[float, int]] = []

    def report() -> SolveReport:
        a = state.assignment
        return SolveReport(
            assignment=a,
            value=f.evaluate(a),
            counters=counters,
            rounds=rounds,
            elapsed=time.perf_counter() - start,
        )

    if n == 0:
        return report()

    single = [max(state.gain(e, i) for i in range(1, k + 1)) for e in range(n)]
    if max(single) <= 0.0:
        return report()

    by_value = sorted(range(n), key=lambda e: (-single[e], e))
    if matroid_rank is None:
        basis = greedy_basis(m, by_value, counters)
        r = len(basis)
        first = basis[0] if basis else None
    else:
        r = matroid_rank
        if r <= 0:
            return report()
        first = next((e for e in by_value if indep.can_add(e)), None)
    if first is None or single[first] <= 0.0:
        return report()
    d = single[first]

    order = list(range(n))
    if order_seed is not None:
        random.Random(order_seed).shuffle(order)

    bound = single  # last best gain per element: bounds its current gain
    candidates = order  # unassigned, not yet known infeasible, visit order
    support = indep.support
    stop = (1 - epsilon) * epsilon * d / (2 * r)
    w = d
    while w > stop and candidates and len(support) < r:
        added = 0
        survivors = []
        for e in candidates:
            if bound[e] < w:
                survivors.append(e)
                continue
            if not indep.can_add(e):
                continue
            best_gain = -math.inf
            best_i = 0
            for i in range(1, k + 1):
                gain = state.gain(e, i)
                if gain > best_gain:
                    best_gain = gain
                    best_i = i
            bound[e] = best_gain
            if best_gain >= w:
                state.place(e, best_i, best_gain)
                indep.add(e)
                added += 1
                if len(support) == r:
                    break
            else:
                survivors.append(e)
        candidates = survivors
        rounds.append((w, added))
        w *= 1 - epsilon
    return report()


def greedy_solve(f: KSubFunction, m: Matroid) -> SolveReport:
    """Baseline: repeatedly add the best feasible (element, position) pair.

    The run holds one independence state from ``m.independence_state`` and
    one gain state from ``f.gain_state``.  Each iteration walks the
    elements in ascending order, skips those already placed, and tests
    every other one with a single ``can_add`` (constant time for the
    shipped matroid families, see :func:`threshold_decreasing_solve`).  It
    prices each feasible element at all k positions against the running
    gain state (exact on the 1/64 value grid) and adds the argmax pair,
    lowest element then lowest position on ties.  The run stops after the
    first iteration that finds no feasible element, hence after at most
    rank-many additions.

    Exact oracle accounting: every iteration, the last one included, costs
    one IO call per element outside the support and k EO calls per
    feasible one.  These equal the counts of rebuilding the feasible set
    with :func:`feasible_extensions` every iteration.
    """
    _check_inputs(f, m)
    start = time.perf_counter()
    counters = OracleCounters()
    n, k = f.n, f.k
    state = f.gain_state(counters)
    indep = m.independence_state(counters)
    support = indep.support
    while True:
        best_gain = -math.inf
        best_pair = None
        for e in range(n):
            if e in support or not indep.can_add(e):
                continue
            for i in range(1, k + 1):
                gain = state.gain(e, i)
                if gain > best_gain:
                    best_gain = gain
                    best_pair = (e, i)
        if best_pair is None:
            break
        e, i = best_pair
        state.place(e, i, best_gain)
        indep.add(e)
    a = state.assignment
    return SolveReport(
        assignment=a,
        value=f.evaluate(a),
        counters=counters,
        rounds=[],
        elapsed=time.perf_counter() - start,
    )


def brute_force_solve(
    f: KSubFunction, m: Matroid, cap: int = DEFAULT_BRUTE_CAP
) -> SolveReport:
    """Exact optimum by enumerating assignments with independent support.

    Among all optimal assignments the one with the largest support is
    reported, and its size is ``max_opt_support_size`` (it equals the
    matroid rank whenever the objective is monotone).  Refuses instances
    where (k+1)^n exceeds ``cap`` rather than returning a sampled answer.
    Oracle calls are not counted, so ``counters`` is None.
    """
    _check_inputs(f, m)
    start = time.perf_counter()
    n, k = f.n, f.k
    total = (k + 1) ** n
    if total > cap:
        raise CapExceededError(
            f"(k+1)^n = {total} assignments exceed the brute-force cap {cap}"
        )
    best_value = -math.inf
    best_size = -1
    best_labels: tuple[int, ...] = ()
    labels = [0] * n

    def visit(e: int, support: frozenset[int]) -> None:
        nonlocal best_value, best_size, best_labels
        if e == n:
            a = Assignment._trusted(tuple(labels), k)
            v = f.evaluate(a)
            size = len(support)
            if v > best_value or (v == best_value and size > best_size):
                best_value = v
                best_size = size
                best_labels = a.labels
            return
        labels[e] = 0
        visit(e + 1, support)
        if m.is_independent(support | {e}):
            for i in range(1, k + 1):
                labels[e] = i
                visit(e + 1, support | {e})
            labels[e] = 0

    visit(0, frozenset())
    return SolveReport(
        assignment=Assignment(best_labels, k),
        value=best_value,
        counters=None,
        rounds=[],
        elapsed=time.perf_counter() - start,
        max_opt_support_size=best_size,
    )
