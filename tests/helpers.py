"""Shared test utilities."""

import math
import random
import time
from typing import Optional

from ksubmax import Assignment, KSubFunction, Matroid, OracleCounters
from ksubmax.matroids import greedy_basis
from ksubmax.solvers import SolveReport, _check_inputs


class CountingWrapper(KSubFunction):
    """Forwards to another function while counting raw value-oracle hits.

    Comparing ``raw_calls`` against a solver's counted eo_calls proves the
    solver performs no hidden, uncounted evaluations.
    """

    def __init__(self, inner: KSubFunction):
        super().__init__(inner.n, inner.k)
        self.inner = inner
        self.raw_calls = 0

    def _value(self, a: Assignment) -> float:
        self.raw_calls += 1
        return self.inner._value(a)


class ReferenceMatroid(Matroid):
    """Forwards raw independence tests to another matroid.

    It does not override ``independence_state``, so solvers run on it test
    independence through the reference ``IndependenceState``, which calls
    ``is_independent`` on the whole extended support every time.
    """

    def __init__(self, inner: Matroid):
        self.inner = inner
        self.ground_size = inner.ground_size

    def _independent(self, subset: frozenset[int]) -> bool:
        return self.inner._independent(subset)


def eager_threshold_solve(
    f: KSubFunction,
    m: Matroid,
    epsilon: float,
    order_seed: Optional[int] = None,
    matroid_rank: Optional[int] = None,
) -> SolveReport:
    """Reference threshold-decreasing solver: the eager loop.

    Every round visits every surviving candidate, paying 1 IO and k EO per
    visit whether or not its gain can meet the bar, and the loop runs until
    the bar reaches its stop value or no candidate is left.  This is the
    loop ``threshold_decreasing_solve`` shipped before it became lazy, kept
    unchanged so the lazy solver can be checked against it: same
    assignment and value, and no more EO, IO or rounds.

    Oracle accounting: n*k EO for the opening single-element scan plus k
    EO per feasible candidate visit; n IO for the rank scan (or singleton
    tests up to the first independent one when ``matroid_rank`` is given)
    plus one IO per candidate visit.
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

