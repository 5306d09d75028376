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
from .matroids import Matroid, feasible_extensions, greedy_basis

# The solvers call neither of these, but perfbench's tracer patches both
# by name in this module to time the layers; keep them importable here.
from .core import marginal_gain  # noqa: F401
from .matroids import rank  # noqa: F401

DEFAULT_BRUTE_CAP = 4**10


@dataclass
class SolveReport:
    """Result of one counted solver run.

    ``rounds`` records, for the threshold solver, one (threshold, elements
    added) entry per executed outer round; it is empty for the greedy
    solver.  ``value`` is re-evaluated once at the end outside the counters
    as an audit.  ``elapsed`` is wall-clock seconds and never deterministic.
    """

    assignment: Assignment
    value: float
    counters: OracleCounters
    rounds: list[tuple[float, int]]
    elapsed: float


@dataclass
class BruteForceResult:
    """Exact optimum: value, largest support size among optima, one witness."""

    value: float
    max_opt_support_size: int
    assignment: Assignment


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
    and decays by a factor (1 - eps) per round; each round visits the
    surviving candidates (ascending index order, or a seeded shuffle when
    ``order_seed`` is given), re-checks feasibility with one IO call, finds
    the best position with k EO calls, and accepts the element if its gain
    meets the threshold.  The loop stops when the threshold reaches
    (1 - eps) * eps * d / (2r) or no candidate is left.

    Gains are priced against the running state from ``f.gain_state``: a
    table lookup for modular functions, the weight of newly covered points
    for coverage, a full evaluation otherwise.  All three are exact on the
    1/64 value grid, so the run does not depend on which one prices it.

    Exact oracle accounting: n*k EO for the initial single-element scan
    plus k EO per feasible candidate visit (one gain costs one evaluation);
    n IO for the rank scan, which visits elements by descending singleton
    value (ties by index) so that d is the value of its first accepted
    element, plus one IO per candidate visit.  With ``matroid_rank``
    supplied the rank scan is replaced by singleton tests in the same order
    up to the first independent one (1 IO on a matroid without loops).  If
    no singleton has a positive value the solver stops before any IO.
    Candidates found infeasible are dropped permanently, which is sound
    because supersets of a dependent set stay dependent.
    """
    _check_inputs(f, m)
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    start = time.perf_counter()
    counters = OracleCounters()
    n, k = f.n, f.k
    state = f.gain_state(counters)
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
        first = next((e for e in by_value if m.is_independent({e}, counters)), None)
    if first is None or single[first] <= 0.0:
        return report()
    d = single[first]

    order = list(range(n))
    if order_seed is not None:
        random.Random(order_seed).shuffle(order)

    candidates = order  # unassigned, not yet known infeasible, visit order
    support: set[int] = set()
    stop = (1 - epsilon) * epsilon * d / (2 * r)
    w = d
    while w > stop and candidates:
        added = 0
        survivors = []
        for e in candidates:
            if not m.is_independent(support | {e}, counters):
                continue
            best_gain = -math.inf
            best_i = 0
            for i in range(1, k + 1):
                gain = state.gain(e, i)
                if gain > best_gain:
                    best_gain = gain
                    best_i = i
            if best_gain >= w:
                state.place(e, best_i, best_gain)
                support.add(e)
                added += 1
            else:
                survivors.append(e)
        candidates = survivors
        rounds.append((w, added))
        w *= 1 - epsilon
    return report()


def greedy_solve(f: KSubFunction, m: Matroid) -> SolveReport:
    """Baseline: repeatedly add the best feasible (element, position) pair.

    Each iteration rebuilds the feasible set (one IO call per element
    outside the support), prices every candidate pair against the running
    state from ``f.gain_state`` (one EO call each; exact on the 1/64 value
    grid, see :func:`threshold_decreasing_solve`), and adds the argmax
    pair, lowest element then lowest position on ties.  Stops when no
    feasible element remains, hence after at most rank-many additions.
    """
    _check_inputs(f, m)
    start = time.perf_counter()
    counters = OracleCounters()
    k = f.k
    state = f.gain_state(counters)
    support: set[int] = set()
    while True:
        extensions = feasible_extensions(m, support, counters)
        if not extensions:
            break
        best_gain = -math.inf
        best_pair = None
        for e in sorted(extensions):
            for i in range(1, k + 1):
                gain = state.gain(e, i)
                if gain > best_gain:
                    best_gain = gain
                    best_pair = (e, i)
        e, i = best_pair
        state.place(e, i, best_gain)
        support.add(e)
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
) -> BruteForceResult:
    """Exact optimum by enumerating assignments with independent support.

    Among all optimal assignments the one with the largest support is
    reported (its size equals the matroid rank whenever the objective is
    monotone).  Refuses instances where (k+1)^n exceeds ``cap`` rather than
    returning a sampled answer.  Oracle calls are not counted.
    """
    _check_inputs(f, m)
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
            a = Assignment(tuple(labels), k)
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
    return BruteForceResult(
        value=best_value,
        max_opt_support_size=best_size,
        assignment=Assignment(best_labels, k),
    )
