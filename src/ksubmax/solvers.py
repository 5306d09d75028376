"""Solvers for k-submodular maximization under a matroid constraint.

Three routes to a solution:

* :func:`threshold_decreasing_solve` accepts any feasible element whose best
  single-position gain meets a geometrically decaying threshold.  For
  monotone objectives it is a (1/2 - eps)-approximation, for non-monotone
  ones (1/3 - eps), and its value-oracle cost grows only logarithmically
  with the matroid rank.
* :func:`greedy_solve` is the classic baseline: repeatedly add the best
  feasible (element, position) pair.  It runs lazily, so it re-prices only
  the candidates that can still win; the eager loop's oracle cost, the
  paper's bound, grows linearly with the rank.
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

from .core import (NUMBERS, Assignment, CapExceededError, GainState, KSubFunction,
                   OracleCounters, _check_ints, _check_seed)
from .matroids import Matroid

# The solvers call none of these, but perfbench's tracer patches each of
# them by name in this module to time the layers; keep them importable here
# until the tracer patches the calls the solvers make (ROADMAP item 1), and
# delete them with it.
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


def _check_epsilon(epsilon) -> None:
    """Refuse with ValueError an epsilon that is not an int or float in (0, 1),
    or one so small that ``1 - epsilon`` rounds to 1 (at most ``2^-54``)."""
    if type(epsilon) not in NUMBERS or not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie strictly between 0 and 1, got {epsilon!r}")
    if 1.0 - epsilon == 1.0:
        raise ValueError(f"epsilon must be large enough that 1 - epsilon is below 1, "
                         f"got {epsilon!r}")


def predicted_round_bound(epsilon: float, r: int) -> int:
    """Upper bound on executed threshold rounds for accuracy eps and rank r.

    The threshold decays by (1 - eps) per round and the loop stops once it
    falls to (1 - eps) * eps * d / (2r), so the executed rounds are at most
    ceil(log(2r/eps) / log(1/(1-eps))) + 1.  ``r`` must be an ``int``
    (TypeError otherwise) of at least 1.
    """
    _check_epsilon(epsilon)
    _check_ints((r,), "rank must be an integer")
    if r < 1:
        raise ValueError(f"rank must be at least 1, got {r}")
    return math.ceil(math.log(2 * r / epsilon) / math.log(1 / (1 - epsilon))) + 1


def _report(f: KSubFunction, state: GainState, counters: OracleCounters,
            rounds: list[tuple[float, int]], start: float) -> SolveReport:
    """The report of a counted run (threshold or greedy) that ends at
    ``state``'s assignment.

    ``value`` is the audit: one evaluation of that assignment by ``f``
    outside ``counters``, so the counts are the run's alone.  ``elapsed``
    is the wall time since ``start`` (a ``time.perf_counter`` reading),
    the audit included.
    """
    a = state.assignment
    return SolveReport(assignment=a, value=f.evaluate(a), counters=counters, rounds=rounds,
                       elapsed=time.perf_counter() - start)


def threshold_decreasing_solve(
    f: KSubFunction,
    m: Matroid,
    epsilon: float,
    order_seed: Optional[int] = None,
) -> SolveReport:
    """Maximize ``f`` over assignments with independent support.

    The threshold starts at the best value d of an independent singleton
    and decays by a factor (1 - eps) per round; each round walks the
    surviving candidates (ascending index order, or a seeded shuffle when
    ``order_seed`` is given) and accepts an element when its best
    single-position gain meets the threshold.  The loop stops when the
    threshold reaches (1 - eps) * eps * d / (2r), no candidate is left, or
    the support reaches the rank r.  Where rounding would hold the
    threshold still, as it can for a subnormal threshold (sum-exact values
    may all be subnormal), it drops by one unit of ``2^-1074`` instead;
    every gain is a whole number of those units there, so a gain below the
    old threshold is below the new one too.

    The walk is lazy, on a bound per (element, position) pair: the gain
    last priced for that pair, seeded by the opening singleton scan.  By
    orthant submodularity a gain can only shrink as the assignment grows,
    so each pair bound caps its pair's current gain, and an element's row
    bound, the largest of its pair bounds, caps its best gain.  A
    candidate whose row bound is below the bar w is skipped at no oracle
    cost and stays a candidate.  Otherwise it is visited with one
    ``state._price(e, w)``: its pairs are priced in descending bound
    order, the lowest position first on ties, at 1 EO call each, until
    the next pair's bound is below w, or below the best fresh gain, or
    equal to it at a higher position.  Only if the best fresh gain clears
    w does the visit make its one IO test, and then it places the element
    (at that gain's lowest best position, the row's as :meth:`GainState.best`
    gives it) or drops it for good.  Otherwise the element stays a
    candidate with its row bound updated, and no IO is spent.  An element
    is placed exactly when a loop that tests and prices every visited
    element at all k positions places it, at the same position with the
    same gain.  On a matroid the candidates run out only once the support
    is a basis, so ``len(support) < r`` ends both loops in the same round:
    the assignment, value and rounds are identical to that loop's, and the
    rounds are a prefix of a visit-everything loop's.  A family that is not
    a matroid may record more rounds here, since an element that no longer
    fits stays a candidate until its gain clears a bar.  This holds for
    every k-submodular ``f``, monotone or not; an unchecked
    :class:`ExplicitTableFunction` that is not k-submodular may come out
    differently.

    Gains are priced against the running state from ``f.gain_state``: the
    opening scan prices all n*k pairs in one batched
    :meth:`GainState._bests` call, which sets the bounds, and each visit
    re-prices through them with ``state._price``: a table lookup for
    modular functions, whose pair bounds are exact so a visit costs 1 EO,
    the weights of newly covered points for coverage, one full evaluation
    per pair otherwise.  All three are exact on the families' sum-exact
    values, so the run and its counts do not depend on which one prices
    it.  Independence tests go through ``m.independence_state``, one
    ``_can_add`` per test; the rank scan is one batched
    :meth:`IndependenceState._extend` on a state of its own, the greedy
    extension of :func:`greedy_basis` without its checks of an order the
    solver builds itself.  Both are constant time per element for the
    shipped matroid families, ``is_independent`` otherwise, with the same
    answers and counts either way.  A batched call charges what its
    per-element loop would: 1 EO per pair priced, 1 IO per element tested.

    Exact oracle accounting: n*k EO for the opening scan plus 1 EO per
    pair a visit prices (at most k per visit); n IO for the rank scan,
    which visits elements by descending singleton value (ties by index)
    so that d is the value of its first accepted element, plus 1 IO per
    visit whose best fresh gain clears the bar.  Skipped candidates cost
    nothing.  So the criterion-4 bounds ``eo <= n*k*(rounds+1)`` and
    ``io <= n*(rounds+t+1)`` still hold.  The IO count is never above the
    test-first loop's; the EO count can be, where a visit prices an
    element that then fails its test, and then even above the eager
    loop's, which drops such an element unpriced.  On a uniform matroid
    no visit fails its test before the run ends, so the EO count is
    above neither.  If no singleton has a positive
    value the solver stops before any IO.  Candidates found infeasible are
    dropped permanently, which is sound because supersets of a dependent
    set stay dependent.
    """
    _check_inputs(f, m)
    _check_epsilon(epsilon)
    if order_seed is not None:
        _check_seed(order_seed)
    start = time.perf_counter()
    counters = OracleCounters()
    n = f.n
    state = f.gain_state(counters)
    indep = m.independence_state(counters)
    rounds: list[tuple[float, int]] = []
    if n == 0:
        return _report(f, state, counters, rounds, start)

    single = state._bests(range(n))
    if max(single) <= 0.0:
        return _report(f, state, counters, rounds, start)

    by_value = sorted(range(n), key=single.__getitem__, reverse=True)  # stable: ties ascend
    basis = m.independence_state(counters)._extend(by_value)  # the rank scan
    if not basis or single[basis[0]] <= 0.0:
        return _report(f, state, counters, rounds, start)
    r = len(basis)
    d = single[basis[0]]

    order = list(range(n))
    if order_seed is not None:
        random.Random(order_seed).shuffle(order)

    bound = state._bound  # row bounds: each caps its element's current best gain
    candidates = order  # unassigned, not found infeasible, visit order
    support = indep.support
    price = state._price  # every element the run walks is an open int in range(n)
    can_add = indep._can_add
    stop = (1 - epsilon) * epsilon * d / (2 * r)
    w = d
    while w > stop and candidates and len(support) < r:
        added = 0
        survivors = []
        for e in candidates:
            if bound[e] < w:
                survivors.append(e)
                continue
            gain, i = price(e, w)
            if not gain >= w:  # a NaN gain clears no bar
                survivors.append(e)
            elif can_add(e):
                state.place(e, i, gain)
                indep.add(e)
                added += 1
                if len(support) == r:
                    break
        candidates = survivors
        rounds.append((w, added))
        # rounding may hold a subnormal bar still; it then drops one unit
        # instead, and the gains, whole units there, clear it as they would
        w = min(w * (1 - epsilon), math.nextafter(w, 0.0))
    return _report(f, state, counters, rounds, start)


def greedy_solve(f: KSubFunction, m: Matroid) -> SolveReport:
    """Baseline: repeatedly add the best feasible (element, position) pair.

    A lazy greedy (Minoux 1978) that adds exactly the pairs the paper's
    eager greedy adds: each iteration takes the argmax pair over every
    feasible element, ties going to the lowest element, then the lowest
    position, and the run stops after the first iteration that finds no
    feasible element, hence after at most rank-many additions.  Negative
    gains are added too.

    The run holds one independence state from ``m.independence_state``
    and one gain state from ``f.gain_state``.  The first iteration tests
    every element with one batched :meth:`IndependenceState._feasible`
    and prices the feasible ones with :meth:`GainState._first_best`,
    which keeps each one's gain as a bound and returns the best.  After
    each placement, :meth:`GainState._next_best` finds the next best
    lazily: it tests and re-prices candidates only while their bound, the
    gain last priced for them, can still beat the fresh gains it has
    found.  By orthant submodularity every bound is at least the current
    gain, so the result is exact for every k-submodular ``f``; an
    unchecked :class:`ExplicitTableFunction` that is not k-submodular may
    come out differently.  A candidate found infeasible is dropped for
    good, which is sound on a matroid: if ``S + e`` is dependent, so is
    every superset, and the support only grows.

    Exact oracle accounting: n IO calls and k EO calls per feasible
    element for the first iteration; after each placement, one IO call
    per candidate :meth:`GainState._next_best` tests and k EO calls per
    one it re-prices, about one of each per addition on a modular
    objective, whose gains never change.  On a k-submodular ``f`` neither
    count is above the eager loop's, whose ``O(r·n·k)`` EO bill is the
    paper's bound.
    """
    _check_inputs(f, m)
    start = time.perf_counter()
    counters = OracleCounters()
    state = f.gain_state(counters)
    indep = m.independence_state(counters)
    can_add = indep._can_add  # every element the run walks is an open int in range(n)
    choice = state._first_best(indep._feasible(range(f.n)))
    while choice is not None:
        e, i, gain = choice
        state.place(e, i, gain)
        indep.add(e)
        choice = state._next_best(can_add)
    return _report(f, state, counters, [], start)


def brute_force_solve(
    f: KSubFunction, m: Matroid, cap: int = DEFAULT_BRUTE_CAP
) -> SolveReport:
    """Exact optimum by enumerating assignments with independent support.

    Refuses instances where (k+1)^n exceeds ``cap`` rather than returning
    a sampled answer; ``cap`` must be an ``int`` (TypeError otherwise).  The enumeration walks the independent supports as
    ascending element tuples, depth first from the empty one, and reaches
    each once: a support ``S`` is extended by each element ``e`` past its
    last one with one uncounted ``m._independent(S + (e,))``, so only sets
    whose every prefix is independent are visited (every independent set,
    for a matroid).  Each support's block, the values of its ``k^|S|``
    labellings and what its family steps on, is built from its parent's
    by one ``f._support_step(block, e)`` (one family-specific pass for the
    shipped families: a modular child adds ``e``'s entry, a coverage child
    weighs only the points ``e`` newly covers); its best labelling is the
    first maximum of the values.  A leaf is kept as its support and its
    index ``j`` in that list, and decoded only to break a tie and to
    report the winner: ``S[t]`` takes base-k digit ``t`` of ``j`` (most
    significant first) plus one, the order of ``_support_step``.

    Tie rule: the reported assignment has the largest value, then the
    largest support, then the lexicographically smallest label tuple
    (unplaced, label 0, sorts first), and ``value`` is its value.  This is
    the first best leaf of a depth-first walk over label vectors that
    tries labels 0, 1, ..., k per element in ascending order.
    ``max_opt_support_size`` is the size of its support (it equals the
    matroid rank whenever the objective is monotone).

    Cost: one independence test per (independent support, later element)
    pair and one ``_support_step`` per independent support.  Memory: the
    blocks on the depth-first path, from the empty support's to the
    current one's, at most ``2 * k^|S|`` labellings for ``k >= 2`` (and
    ``|S| + 1`` for ``k = 1``), with ``k^|S| <= cap``.  Oracle calls are
    not counted, so ``counters`` is None.
    """
    _check_inputs(f, m)
    _check_ints((cap,), "cap must be an integer")
    start = time.perf_counter()
    n, k = f.n, f.k
    total = (k + 1) ** n
    if total > cap:
        raise CapExceededError(
            f"(k+1)^n = {total} assignments exceed the brute-force cap {cap}"
        )
    independent = m._independent
    step = f._support_step
    best_value = -math.inf
    best_size = -1
    best = ((), 0)  # the best leaf: its support and its index in the support's values

    def labels(support: tuple[int, ...], j: int) -> tuple[int, ...]:
        # j's base-k digits, most significant first, each plus one, on support
        out = [0] * n
        for e in reversed(support):
            j, digit = divmod(j, k)
            out[e] = digit + 1
        return tuple(out)

    def visit(support: tuple[int, ...], block: tuple[list, list]) -> None:
        nonlocal best_value, best_size, best
        values = block[1]
        v = max(values)
        size = len(support)
        if v > best_value or (v == best_value and size >= best_size):
            leaf = (support, values.index(v))
            if v > best_value or size > best_size or labels(*leaf) < labels(*best):
                best_value, best_size, best = v, size, leaf
        for e in range(support[-1] + 1 if support else 0, n):
            extended = support + (e,)
            if independent(frozenset(extended)):
                visit(extended, step(block, e))

    visit((), f._support_root())
    return SolveReport(
        assignment=Assignment(labels(*best), k),
        value=best_value,
        counters=None,
        rounds=[],
        elapsed=time.perf_counter() - start,
        max_opt_support_size=best_size,
    )
