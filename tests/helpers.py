"""Shared test utilities."""

import heapq
import itertools
import json
import math
import operator
import random
import time
from fractions import Fraction
from typing import Optional

from hypothesis import strategies as st

from ksubmax import (Assignment, CapExceededError, GainState, InstanceSpec, KSubFunction,
                     Matroid, OracleCounters, UniformMatroid, enumerate_assignments, join,
                     marginal_gain, meet, serialize_instance)
from ksubmax.core import _check_open, _code_steps, _decode
from ksubmax.instances import (
    VALUE_GRID,
    CoverageFunction,
    ExplicitTableFunction,
    ModularFunction,
    _CoverageGainState,
    _ModularGainState,
    _rng,
)
from ksubmax.matroids import (ExplicitMatroid, PartitionMatroid, _set_of, feasible_extensions,
                               greedy_basis)
from ksubmax.verify import (Verdict, _check_sampling, _first, _gains, _lattice_pairs,
                            _ordered_pairs_count, _walk)
from ksubmax.solvers import DEFAULT_BRUTE_CAP, SolveReport, _check_inputs


def hex_mask(points):
    """A cover set's points as a lowercase hex bitmask string."""
    return format(sum(1 << u for u in points), "x")


def coverage_text(f, cover_set):
    """An instance file of coverage function ``f`` under ``UniformMatroid(n, 1)``,
    each cover set written by ``cover_set`` from its frozenset of points."""
    doc = json.loads(serialize_instance(InstanceSpec(f.n, f.k, f, UniformMatroid(f.n, 1))))
    doc["function"]["coverage"]["sets"] = [[cover_set(fs) for fs in row] for row in f.sets]
    return json.dumps(doc)


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


def reference_gain(state: GainState, e: int, i: int) -> float:
    """Gain of putting unplaced ``e`` into set ``i`` on top of ``state``; 1 EO call.

    The one-position pricing the gain states made before they priced whole
    rows only, kept so the references below run bit for bit as they did:
    a table entry on the modular state, the weight of the newly covered
    points on the coverage state, and ``marginal_gain`` against the running
    value otherwise.  A placement that is not open is refused with the
    checks and messages of ``Assignment.check_open``, counting nothing.
    """
    if not isinstance(state, (_ModularGainState, _CoverageGainState)):
        return marginal_gain(state.f, state.assignment, e, i, state.counters, base=state.value)
    _check_open(state._labels, state.f.k, e, i)
    if state.counters is not None:
        state.counters.eo_calls += 1
    if isinstance(state, _ModularGainState):
        return state.f.table[e][i - 1]
    return state.f._weight(state.f._masks[e][i - 1] & ~state.covered)


def eager_threshold_solve(
    f: KSubFunction,
    m: Matroid,
    epsilon: float,
    order_seed: Optional[int] = None,
) -> SolveReport:
    """Reference threshold-decreasing solver: the eager loop.

    Every round visits every surviving candidate, paying 1 IO and k EO per
    visit whether or not its gain can meet the bar, and the loop runs until
    the bar reaches its stop value or no candidate is left.  This is the
    loop ``threshold_decreasing_solve`` shipped before it became lazy, kept
    so the lazy solver can be checked against it: same assignment and
    value, and no more EO, IO or rounds.  Its bar falls as the lazy one's
    does, dropping one unit where rounding would hold a subnormal bar still.

    Oracle accounting: n*k EO for the opening single-element scan plus k
    EO per feasible candidate visit; n IO for the rank scan plus one IO per
    candidate visit.
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

    single = [max(reference_gain(state, e, i) for i in range(1, k + 1)) for e in range(n)]
    if max(single) <= 0.0:
        return report()

    basis = greedy_basis(m, sorted(range(n), key=lambda e: (-single[e], e)), counters)
    if not basis or single[basis[0]] <= 0.0:
        return report()
    r = len(basis)
    d = single[basis[0]]

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
                gain = reference_gain(state, e, i)
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
        w = min(w * (1 - epsilon), math.nextafter(w, 0.0))
    return report()



def reference_lazy_threshold_solve(
    f: KSubFunction,
    m: Matroid,
    epsilon: float,
    order_seed: Optional[int] = None,
) -> SolveReport:
    """The lazy threshold loop with one bound per element, step by step: the
    assignments, values and rounds ``threshold_decreasing_solve`` must give,
    and IO counts it must not exceed.

    This is the loop the solver ran before it kept a bound per pair.  Each
    element keeps the last best gain priced for it.  A candidate whose
    bound is below the bar is skipped; otherwise it is visited: tested
    with ``m.is_independent`` (1 IO) and dropped for good if it does not
    fit, else priced at all k positions through ``reference_gain`` (k EO)
    and placed if its best gain clears the bar.  The loop stops when the
    bar reaches its stop value, no candidate is left or the support
    reaches the rank.
    """
    _check_inputs(f, m)
    start = time.perf_counter()
    counters = OracleCounters()
    n, k = f.n, f.k
    state = f.gain_state(counters)
    rounds: list[tuple[float, int]] = []

    def report() -> SolveReport:
        a = state.assignment
        return SolveReport(assignment=a, value=f.evaluate(a), counters=counters,
                           rounds=rounds, elapsed=time.perf_counter() - start)

    def price(e):
        gains = [reference_gain(state, e, i) for i in range(1, k + 1)]
        gain = max(gains)
        return gain, gains.index(gain) + 1

    if n == 0:
        return report()
    bound = [price(e)[0] for e in range(n)]
    if max(bound) <= 0.0:
        return report()
    basis = greedy_basis(m, sorted(range(n), key=lambda e: (-bound[e], e)), counters)
    if not basis or bound[basis[0]] <= 0.0:
        return report()
    r = len(basis)
    d = bound[basis[0]]
    candidates = list(range(n))
    if order_seed is not None:
        random.Random(order_seed).shuffle(candidates)
    support: set[int] = set()
    stop = (1 - epsilon) * epsilon * d / (2 * r)
    w = d
    while w > stop and candidates and len(support) < r:
        added = 0
        survivors = []
        for e in candidates:
            if bound[e] < w:
                survivors.append(e)
                continue
            if not m.is_independent(support | {e}, counters):
                continue
            gain, i = price(e)
            bound[e] = gain
            if gain >= w:
                state.place(e, i, gain)
                support.add(e)
                added += 1
                if len(support) == r:
                    break
            else:
                survivors.append(e)
        candidates = survivors
        rounds.append((w, added))
        w = min(w * (1 - epsilon), math.nextafter(w, 0.0))
    return report()


def reference_pair_walk(bounds: list[float], gains: list[float],
                        bar: float) -> tuple[float, int, float, int, list[float]]:
    """The pair walk of ``GainState._price`` as its rule reads, on one row
    whose pair bounds are ``bounds`` and whose fresh gains are ``gains``.

    The pairs are taken in descending bound order, the lowest position
    first on ties, and the walk stops at the first pair whose bound is
    below ``bar``, or below the best fresh gain, or equal to it at a higher
    position.  Returns the best fresh gain, its position (1-based), the new
    row bound (the largest new pair bound), the number of pairs priced and
    the new pair bounds.
    """
    bounds = list(bounds)
    gain, pos, priced = -math.inf, 0, 0
    for j in sorted(range(len(bounds)), key=lambda j: (-bounds[j], j)):
        b = bounds[j]
        if b < bar or b < gain or (b == gain and j + 1 > pos):
            break
        bounds[j] = gains[j]
        priced += 1
        if gains[j] > gain or (gains[j] == gain and j + 1 < pos):
            gain, pos = gains[j], j + 1
    return gain, pos, max(bounds), priced, bounds


def reference_greedy_solve(f: KSubFunction, m: Matroid) -> SolveReport:
    """The paper's eager greedy: the feasible set rebuilt every iteration.

    Each iteration calls ``feasible_extensions`` (one IO call per element
    outside the support), prices every candidate pair against the running
    gain state (one EO call each), and adds the argmax pair, lowest element
    then lowest position on ties; it stops when no feasible element is
    left.  Its EO bill is the paper's ``O(r·n·k)``.  It is the reference
    for ``greedy_solve``, which adds the same pairs lazily with no more EO
    or IO calls, and the baseline of acceptance criterion 5.
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
                gain = reference_gain(state, e, i)
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


def reference_lazy_greedy_solve(f: KSubFunction, m: Matroid) -> SolveReport:
    """The generic lazy greedy loop, step by step: the counts ``greedy_solve``
    must make on every function and matroid family.

    The opening tests every element (1 IO each) and prices each one that
    fits (k EO each).  Each candidate is kept in a heap keyed by its last
    priced gain and its element, with the number of placements at which
    it was last tested and last priced.  The loop takes the top entry:
    if it has not been tested since the last placement, it is tested and
    dropped for good if it does not fit; else if its gain is stale it is
    re-priced and put back; else it is placed.  Tests go through
    ``m.is_independent`` and gains through ``reference_gain``, one
    position at a time.
    """
    _check_inputs(f, m)
    start = time.perf_counter()
    counters = OracleCounters()
    k = f.k
    state = f.gain_state(counters)
    support: set[int] = set()
    tested: dict[int, int] = {}

    def price(e):
        gains = [reference_gain(state, e, i) for i in range(1, k + 1)]
        gain = max(gains)
        return -gain, e, gains.index(gain) + 1, len(support)

    heap = []
    for e in range(f.n):
        tested[e] = 0
        if m.is_independent({e}, counters):
            heap.append(price(e))
    heapq.heapify(heap)
    while heap:
        key, e, i, priced = heap[0]
        if tested[e] < len(support):
            tested[e] = len(support)
            if not m.is_independent(support | {e}, counters):
                heapq.heappop(heap)
                continue
        if priced < len(support):
            heapq.heapreplace(heap, price(e))
            continue
        heapq.heappop(heap)
        state.place(e, i, -key)
        support.add(e)
    a = state.assignment
    return SolveReport(
        assignment=a,
        value=f.evaluate(a),
        counters=counters,
        rounds=[],
        elapsed=time.perf_counter() - start,
    )


def same_greedy_run(got: SolveReport, f: KSubFunction, m: Matroid) -> SolveReport:
    """A greedy run of ``f`` on ``m`` against both references: the eager
    loop's assignment, value and rounds, and the generic lazy loop's counts,
    which are no higher than the eager loop's.  Returns the eager run."""
    eager, lazy = reference_greedy_solve(f, m), reference_lazy_greedy_solve(f, m)
    for ref in (eager, lazy):
        assert got.assignment == ref.assignment
        assert repr(got.value) == repr(ref.value)
        assert got.rounds == ref.rounds == []
    assert got.counters == lazy.counters
    assert lazy.counters.eo_calls <= eager.counters.eo_calls
    assert lazy.counters.io_calls <= eager.counters.io_calls
    return eager


def reference_brute_force_solve(
    f: KSubFunction, m: Matroid, cap: int = DEFAULT_BRUTE_CAP
) -> SolveReport:
    """Reference brute force: a depth-first walk over label vectors.

    Element ``e`` takes label 0 first, then, if ``m.is_independent`` holds
    for the support so far plus ``e``, labels 1..k; every leaf builds an
    assignment and evaluates it, and a leaf replaces the best one when its
    value is larger or equal with a larger support.  This is the loop
    ``brute_force_solve`` shipped before it enumerated supports and priced
    each in one pass, kept unchanged so the solver can be checked against
    it: same assignment, ``repr(value)`` and ``max_opt_support_size``.
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


def support_codes(support: tuple[int, ...], k: int) -> list[int]:
    """Codes of the ``k^len(support)`` labellings of ascending ``support``, in
    the order of ``KSubFunction._support_step``; prefix sums of the code
    steps from the empty prefix, as ``ksubmax.core`` listed them before it
    stepped codes from a parent's with ``_child_codes``."""
    base = k + 1
    codes = [0]
    for e in support:
        step = base**e
        steps = range(step, base * step, step)  # labels 1..k of e
        codes = [c + s for c in codes for s in steps]
    return codes


def step_fold(f: KSubFunction, support: tuple[int, ...]) -> list[float]:
    """Values of all ``k^len(support)`` labellings of ascending ``support``,
    in the order of ``KSubFunction._support_step``; no counting.

    The fold of ``f._support_step`` from ``f._support_root()``, one step
    per element of the support, as ``KSubFunction._support_values`` gave
    them before it moved here: brute force steps each support from its
    parent's block and ``_code_values`` steps every labelling by element,
    so no code in the package folds a support from the empty one.
    """
    block = f._support_root()
    for e in support:
        block = f._support_step(block, e)
    return block[1]


def reference_support_values(f: KSubFunction, support: tuple[int, ...]) -> list[float]:
    """Values of all labellings of ``support``, each built from the empty prefix.

    These are the per-family ``_support_values`` passes brute force made
    before each support's block was stepped from its parent's, kept
    unchanged: prefix sums from 0.0 for modular tables, prefix ORs of the
    cover masks and one whole weighing per labelling for coverage, lookups
    for explicit tables, and one ``_value`` per decoded labelling
    otherwise.  Families are told apart by their type's ``_support_step``,
    so a subclass that keeps the default step takes the default path.
    """
    step = type(f)._support_step
    if step is ModularFunction._support_step:
        values = [0.0]
        for e in support:
            row = f.table[e]
            values = [v + t for v in values for t in row]
        return values
    if step is CoverageFunction._support_step:
        covered = [0]
        for e in support:
            row = f._masks[e]
            covered = [c | mask for c in covered for mask in row]
        return list(map(f._weight, covered))
    codes = support_codes(support, f.k)
    if step is ExplicitTableFunction._support_step:
        return list(map(f.values.__getitem__, codes))
    return [f._value(_decode(code, f.n, f.k)) for code in codes]


def reference_code_values(f: KSubFunction) -> list[float]:
    """``KSubFunction._code_values`` as it was filled before the walk stepped
    blocks: one :func:`reference_support_values` pass per support, walking
    the ``2^n`` supports by size, each written at its codes."""
    values = [0.0] * (f.k + 1) ** f.n
    for size in range(f.n + 1):
        for support in itertools.combinations(range(f.n), size):
            for code, v in zip(support_codes(support, f.k), reference_support_values(f, support)):
                values[code] = v
    return values


# ---------------------------------------------------------------------------
# Reference instance builders: the loops the set-up ran before it tabulated
# by supports and drew modular rows without per-row checks, kept unchanged
# so the shipped builders can be checked against them.
# ---------------------------------------------------------------------------

def reference_tabulate(f: KSubFunction) -> ExplicitTableFunction:
    """``ExplicitTableFunction.tabulate`` as one ``f.evaluate`` per assignment,
    each written at its file-format index ``sum(labels[e] * (k+1)**e)``."""
    values = [0.0] * (f.k + 1) ** f.n
    for a in enumerate_assignments(f.n, f.k):
        values[sum(lab * (f.k + 1) ** e for e, lab in enumerate(a.labels))] = f.evaluate(a)
    return ExplicitTableFunction(f.n, f.k, values)


def _reference_grid_values(rng: random.Random, lo: float, hi: float, count: int) -> list[float]:
    """``count`` draws on the 1/64 grid in ``[lo, hi]``, checking the range each call."""
    if not math.isfinite(lo * VALUE_GRID) or not math.isfinite(hi * VALUE_GRID):
        raise ValueError(f"value range [{lo}, {hi}] is too wide for the 1/{VALUE_GRID} grid")
    lo64 = math.ceil(lo * VALUE_GRID)
    hi64 = math.floor(hi * VALUE_GRID)
    if hi64 < lo64:
        raise ValueError(f"empty value range [{lo}, {hi}] on the 1/{VALUE_GRID} grid")
    return [rng.randint(lo64, hi64) / VALUE_GRID for _ in range(count)]


def reference_gen_modular(n, k, value_range=(-2.0, 4.0), monotone=True, seed=0):
    """``gen_modular`` with the range checks and a pairwise test on every row."""
    if n < 1 or k < 1:
        raise ValueError("n and k must be at least 1")
    lo, hi = value_range
    if monotone:
        lo = max(lo, 0.0)
    if hi < lo:
        raise ValueError(f"impossible value range for monotone={monotone}: ({lo}, {hi})")
    if not monotone and k >= 2 and 2 * hi < 0:
        raise ValueError("pairwise sums cannot be nonnegative with an all-negative range")
    rng = _rng(seed)
    table = []
    for e in range(n):
        for _ in range(10_000):
            row = _reference_grid_values(rng, lo, hi, k)
            if k == 1 or sorted(row)[0] + sorted(row)[1] >= 0:
                table.append(row)
                break
        else:
            raise ValueError(f"could not sample a valid row for range ({lo}, {hi})")
    return ModularFunction(table)


def reference_gen_partition_matroid(n, seed=0, max_blocks=4):
    """``gen_partition_matroid`` with one ``randrange`` call per element."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if max_blocks < 1:
        raise ValueError(f"max_blocks must be at least 1, got {max_blocks}")
    rng = _rng(seed)
    n_blocks = rng.randint(1, max_blocks)
    blocks = [[] for _ in range(n_blocks)]
    for e in range(n):
        blocks[rng.randrange(n_blocks)].append(e)
    blocks = [b for b in blocks if b]
    caps = [rng.randint(0, len(b)) for b in blocks]
    return PartitionMatroid(n, blocks, caps)


def reference_gen_coverage(n, k, universe_size, density, seed=0):
    """``gen_coverage`` with its weights drawn by ``_reference_grid_values``
    and one ``random()`` call per (element, position, point)."""
    if n < 1 or k < 1 or universe_size < 1:
        raise ValueError("n, k and universe_size must be at least 1")
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must lie in [0, 1], got {density}")
    rng = _rng(seed)
    weights = _reference_grid_values(rng, 0.0, 1.0, universe_size)
    draw = rng.random
    universe = range(universe_size)
    sets = [
        [[u for u in universe if draw() < density] for _ in range(k)]
        for _ in range(n)
    ]
    return CoverageFunction(weights, sets)


# ---------------------------------------------------------------------------
# Reference constructors: the function families as they were built before
# their checks became C-level passes, one Python step per entry or point.
# Each sets the same attributes as the shipped constructor, so the two can
# be compared field by field, or by the error they raise.
# ---------------------------------------------------------------------------

def reference_sum_exact(rows, where, rule, magnitudes):
    """``ksubmax.core._sum_exact`` one value at a time.

    Each value is typed and converted on its own, and its multiple of the
    unit is tested in exact rationals; the checks come in the shipped
    order, so the first bad value it names is the one the shipped rule
    names.
    """
    spots = [(where.format(e, i), v) for e, row in enumerate(rows) for i, v in enumerate(row)]

    def as_float(v):
        try:
            return float(v)
        except OverflowError:
            return math.inf

    def first_bad(exponent=None, magnitude=0.0):
        for spot, v in spots:
            if type(v) not in (int, float):
                raise TypeError(f"{rule}; {spot}: {v!r} is not a number")
            if not math.isfinite(as_float(v)):
                raise ValueError(f"{spot}: value {v} is not finite")
            if exponent is not None and (Fraction(v) * Fraction(2) ** exponent).denominator != 1:
                raise ValueError(
                    f"{spot}: value {v} is not a multiple of 2^{-exponent} (S = {exponent}), "
                    f"the finest unit at which twice the magnitude {magnitude} stays below "
                    "2^53 units; values must be sum-exact")

    for _, v in spots:
        if type(v) not in (int, float) or math.isinf(as_float(v)) and type(v) is int:
            first_bad()
    floats = tuple(tuple(float(v) for v in row) for row in rows)
    try:
        terms = magnitudes(floats)
    except ValueError:
        first_bad()
        raise
    try:
        magnitude = math.fsum(terms)
    except (OverflowError, ValueError):
        magnitude = math.inf
    if not magnitude < 2.0 ** 1023:
        first_bad()
        raise ValueError(f"not sum-exact: twice the magnitude {magnitude} overflows a float")
    exponent = min(52 - math.frexp(magnitude)[1], 1074)
    first_bad(exponent, magnitude)
    return floats, exponent


def dyadics(base: int, bits: int = 15):
    """Values ``c * 2^(base + s)`` with ``0 <= c < 2^bits`` and ``0 <= s <= 30``:
    every one a multiple of ``2^base``, spread over 30 binades."""
    return st.builds(lambda c, s: math.ldexp(c, base + s),
                     st.integers(0, 2 ** bits - 1), st.integers(0, 30))


# unit exponents for ``dyadics`` windows, from the smallest subnormal up
BASES = st.integers(-1074, 920)


def reference_is_sum_exact(values, magnitude) -> bool:
    """The sum-exactness rule from its definition, in exact rationals.

    ``values`` are finite ints or floats and ``magnitude`` is the exact
    largest magnitude the function reaches.  They are sum-exact when some
    unit ``2^-S`` divides every value and twice the magnitude is below
    ``2^53`` units, with ``S >= -971`` so that ``2^53`` units stay below
    the float range.  The coarsest unit that divides every value gives
    the fewest units, so only it is tried.
    """
    exponents = [-_two_adic_valuation(Fraction(v)) for v in values if v]
    if not exponents:
        return True
    unit_exponent = max(max(exponents), -971)
    return 2 * Fraction(magnitude) * Fraction(2) ** unit_exponent < 2 ** 53


def _two_adic_valuation(x: Fraction) -> int:
    """The exponent of 2 in nonzero ``x``."""
    num, den = abs(x.numerator), x.denominator
    return (num & -num).bit_length() - den.bit_length()


def modular_opt(f: ModularFunction, m: Matroid) -> float:
    """OPT of modular ``f`` under ``m`` in closed form.

    A modular function is separable, so its optimum under a matroid is a
    max-weight independent set for the weights ``w_e = max(0, max(row_e))``,
    each element at its best position: the weight of the basis that
    ``greedy_basis`` builds, heaviest element first.  The values are
    sum-exact, so the sum is exact in any order.
    """
    weights = [max(0.0, *row) for row in f.table]
    return sum(weights[e] for e in greedy_basis(m, sorted(range(f.n), key=lambda e: -weights[e])))


def reference_row_magnitudes(rows):
    """The modular shape and pairwise checks, and each row's largest magnitude."""
    if not rows:
        raise ValueError("table must have at least one row")
    k = len(rows[0])
    if k < 1:
        raise ValueError("table rows must have at least one entry")
    terms = []
    for e, row in enumerate(rows):
        if len(row) != k:
            raise ValueError(f"table row {e} has {len(row)} entries, expected {k}")
        ordered = sorted(row)
        if k >= 2 and ordered[0] + ordered[1] < 0:
            raise ValueError(
                f"table row {e} violates the pairwise-sum constraint: "
                f"{ordered[0]} + {ordered[1]} < 0"
            )
        terms.append(max(ordered[-1], -ordered[0]))
    return terms


class ReferenceModularFunction(ModularFunction):
    """``ModularFunction`` with its per-entry constructor."""

    def __init__(self, table):
        rows, _ = reference_sum_exact([list(row) for row in table], "table row {0}",
                                      "table entries must be numbers", reference_row_magnitudes)
        KSubFunction.__init__(self, len(rows), len(rows[0]))
        self.table = rows


HEX_DIGITS = "0123456789abcdef"


def reference_rows(items, where):
    """``items`` as a list of rows; a string or a non-iterable is refused."""
    if type(items) is str:
        raise TypeError(f"{where} must be a list, got {items!r}")
    try:
        return list(items)
    except TypeError:
        raise TypeError(f"{where} must be a list, got {items!r}") from None


class ReferenceCoverageFunction(CoverageFunction):
    """``CoverageFunction`` with its per-point constructor.

    Besides the per-point range test it refuses, point by point, any point
    whose type is not ``int``; the constructor it is kept from converted
    such points with ``int(u)`` instead.  A cover set written as a hex
    bitmask string is read one character at a time, and its points one bit
    at a time.
    """

    def __init__(self, weights, sets):
        def nonnegative(rows):
            if any(w < 0 for w in rows[0]):
                raise ValueError("universe weights must be nonnegative")
            return rows[0]

        (self.weights,), exponent = reference_sum_exact([list(weights)], "weights[{1}]",
                                              "weights must be numbers", nonnegative)
        universe = len(self.weights)
        norm = []
        for e, per_position in enumerate(reference_rows(sets, "sets")):
            row = []
            for i, members in enumerate(reference_rows(per_position, f"sets[{e}]")):
                if type(members) is str:
                    row.append(reference_mask_points(members, universe, e, i))
                    continue
                try:
                    points = list(members)
                except TypeError:
                    raise TypeError(
                        "sets must list integer universe points or be hex bitmask "
                        f"strings; sets[{e}][{i}]: {members!r} is neither"
                    ) from None
                for u in points:
                    if type(u) is not int:
                        raise TypeError(
                            "sets must list integer universe points; "
                            f"sets[{e}][{i}]: universe point {u!r} is not an int"
                        )
                fs = frozenset(int(u) for u in points)
                for u in fs:
                    if not 0 <= u < universe:
                        raise ValueError(
                            f"sets[{e}][{i}]: universe point {u} outside "
                            f"0..{universe - 1}"
                        )
                row.append(fs)
            norm.append(tuple(row))
        self.sets = tuple(norm)
        if not self.sets:
            raise ValueError("sets must cover at least one element")
        k = len(self.sets[0])
        if k < 1 or any(len(row) != k for row in self.sets):
            raise ValueError("every element needs one cover set per position")
        KSubFunction.__init__(self, len(self.sets), k)
        self._masks = tuple(
            tuple(sum(1 << u for u in fs) for fs in row) for row in self.sets
        )
        self._planes, self._unit = reference_weight_planes(self.weights, exponent)


def reference_mask_points(text, universe, e, i):
    """The points of hex bitmask ``text``, read one character at a time."""
    if not text:
        raise ValueError(f"sets[{e}][{i}]: {text!r} is not a lowercase hex bitmask")
    mask = 0
    for c in text:
        if c not in HEX_DIGITS:
            raise ValueError(f"sets[{e}][{i}]: {text!r} is not a lowercase hex bitmask")
        mask = mask * 16 + HEX_DIGITS.index(c)
    top = mask.bit_length() - 1
    if top >= universe:
        raise ValueError(f"sets[{e}][{i}]: universe point {top} outside 0..{universe - 1}")
    return frozenset(u for u in range(top + 1) if mask >> u & 1)


def reference_weight_planes(weights, exponent):
    """The weight bit planes and unit, one Python step per point and plane."""
    nums = [Fraction(w) * 2 ** exponent for w in weights]
    assert all(c.denominator == 1 for c in nums)
    nums = [int(c) for c in nums]
    low = 0  # count from the lowest nonempty plane
    while any(nums) and not any(c >> low & 1 for c in nums):
        low += 1
    planes = []
    for b in range(low, max(nums, default=0).bit_length()):
        plane = sum(1 << u for u, c in enumerate(nums) if c >> b & 1)
        if plane:
            planes.append((b - low, plane))
    return tuple(planes), 2.0 ** (low - exponent)


class ReferenceExplicitTableFunction(ExplicitTableFunction):
    """``ExplicitTableFunction`` with its per-entry constructor."""

    def __init__(self, n, k, values):
        KSubFunction.__init__(self, n, k)
        values = list(values)
        if n >= len(values).bit_length() or len(values) != (k + 1) ** n:
            raise ValueError(
                f"value table has {len(values)} entries, expected (k+1)^n "
                f"for n={n}, k={k}"
            )
        (self.values,), _ = reference_sum_exact([values], "values[{1}]", "values must be numbers",
                                                lambda rows: [max(abs(v) for v in rows[0])])
        if self.values[0] != 0.0:
            raise ValueError(
                f"value at the empty assignment must be 0, got {self.values[0]}"
            )


def reference_check_matroid_axioms(m: Matroid, budget: int = 1_000_000, seed: int = 0) -> Verdict:
    """Reference matroid-axiom checker: the one shipped before axiom (a)
    moved into ``_axiom_violation``.

    Kept unchanged, its (b)/(c) pass included, so that the shipped checker
    can be required to give the same verdicts, counterexamples and
    ``checked`` counts.  Its exhaustive branch asks the oracle about the
    empty set once more after listing all 2^n subsets; the budget is not
    checked, so it must be at least 1.
    """
    n = m.ground_size
    if 2**n <= budget:
        independents = [mask for mask in range(1 << n) if m.is_independent(_set_of(mask))]
        if not m.is_independent(frozenset()):
            return Verdict(False, ("axiom-a",), exhaustive=True, checked=1)
        violation, checks = reference_axiom_violation(independents, set(independents), budget)
        if checks is not None:
            if violation is not None:
                violation = (violation[0], _set_of(violation[1]), _set_of(violation[2]))
            return Verdict(violation is None, violation, exhaustive=True,
                           checked=(1 << n) + checks)

    rng = random.Random(seed)
    if not m.is_independent(frozenset()):
        return Verdict(False, ("axiom-a",), exhaustive=False, checked=1)
    checked = 1
    while checked < budget:
        checked += 1
        subset = frozenset(e for e in range(n) if rng.random() < 0.5)
        if m.is_independent(subset) and subset:
            e = rng.choice(sorted(subset))
            if not m.is_independent(subset - {e}):
                return Verdict(False, ("axiom-b", subset, subset - {e}),
                               exhaustive=False, checked=checked)
        other = frozenset(e for e in range(n) if rng.random() < 0.5)
        small, big = sorted((subset, other), key=len)
        if len(small) < len(big) and m.is_independent(small) and m.is_independent(big):
            if not any(m.is_independent(small | {e}) for e in big - small):
                return Verdict(False, ("axiom-c", small, big),
                               exhaustive=False, checked=checked)
    return Verdict(True, None, exhaustive=False, checked=checked)


def reference_axiom_violation(masks, family, pair_budget=None):
    """``matroids._axiom_violation`` before it recorded extension masks:
    axiom (a), then (b) by membership tests, then (c) by walking every pair
    of sets of adjacent sizes and testing each element of the big set;
    ``family`` answers membership.  Kept unchanged so that the shipped
    check can be required to give the same violations and check counts."""
    if 0 not in family:
        return ("axiom-a",), 1
    checks = 0
    for mask in masks:
        rest = mask
        while rest:
            low = rest & -rest
            checks += 1
            if (mask ^ low) not in family:
                return ("axiom-b", mask, mask ^ low), checks
            rest ^= low
    by_size: dict[int, list[int]] = {}
    for mask in masks:
        by_size.setdefault(mask.bit_count(), []).append(mask)
    if pair_budget is not None and pair_budget < sum(
        len(by_size[s]) * len(by_size.get(s + 1, ())) for s in by_size
    ):
        return None, None
    for s in sorted(by_size):
        for small in by_size[s]:
            for big in by_size.get(s + 1, ()):
                checks += 1
                extra = big & ~small
                while extra:
                    low = extra & -extra
                    if (small | low) in family:
                        break
                    extra ^= low
                else:
                    return ("axiom-c", small, big), checks
    return None, checks


def reference_gen_explicit_matroid(n: int, seed: int = 0) -> ExplicitMatroid:
    """``gen_explicit_matroid`` before it grew forests: the same multigraph
    draws, then a fresh union-find on each of the ``2^n`` edge subsets,
    keeping the acyclic ones in ascending order."""
    if not 1 <= n <= 10:
        raise ValueError("explicit matroid generation supports 1 <= n <= 10")
    rng = _rng(seed)
    n_vertices = rng.randint(2, n + 1)
    edges = [(rng.randrange(n_vertices), rng.randrange(n_vertices)) for _ in range(n)]

    def acyclic(mask: int) -> bool:
        parent = list(range(n_vertices))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        rest = mask
        while rest:
            low = rest & -rest
            u, v = edges[low.bit_length() - 1]
            ru, rv = find(u), find(v)
            if ru == rv:
                return False
            parent[ru] = rv
            rest ^= low
        return True

    family = [mask for mask in range(1 << n) if acyclic(mask)]
    return ExplicitMatroid(n, family)


def reference_random_assignment(rng: random.Random, n: int, k: int) -> Assignment:
    """Reference label draw: n calls of ``randrange(k + 1)``."""
    return Assignment._trusted(tuple(rng.randrange(k + 1) for _ in range(n)), k)


def reference_random_restriction(rng: random.Random, q: Assignment) -> Assignment:
    """Reference restriction draw: one ``rng.random()`` per element of
    ``q.support()``, in that frozenset's iteration order, keeping those
    drawn below 0.5."""
    keep = [e for e in q.support() if rng.random() < 0.5]
    return q.restrict(keep)


def reference_value_table(f: KSubFunction) -> dict[tuple[int, ...], float]:
    """f at every assignment, keyed by labels: one ``f.evaluate`` each."""
    return {a.labels: f.evaluate(a) for a in enumerate_assignments(f.n, f.k)}


def reference_verify_k_submodular(f: KSubFunction, pair_budget: int = 1_000_000,
                                  seed: int = 0) -> Verdict:
    """Reference lattice verifier: the all-pairs loop over a dict of values
    keyed by labels, and a sampled loop drawing labels with ``randrange``."""
    _check_sampling(pair_budget, seed)
    n, k = f.n, f.k
    if _lattice_pairs(n, k) <= pair_budget:
        table = reference_value_table(f)
        checked = 0
        everything = list(enumerate_assignments(n, k))
        for p, q in itertools.combinations_with_replacement(everything, 2):
            checked += 1
            lhs = table[p.labels] + table[q.labels]
            rhs = table[join(p, q).labels] + table[meet(p, q).labels]
            if lhs < rhs:
                return Verdict(False, (p, q), exhaustive=True, checked=checked)
        return Verdict(True, None, exhaustive=True, checked=checked)
    rng = random.Random(seed)
    for checked in range(1, pair_budget + 1):
        p = reference_random_assignment(rng, n, k)
        q = reference_random_assignment(rng, n, k)
        lhs = f.evaluate(p) + f.evaluate(q)
        rhs = f.evaluate(join(p, q)) + f.evaluate(meet(p, q))
        if lhs < rhs:
            return Verdict(False, (p, q), exhaustive=False, checked=checked)
    return Verdict(True, None, exhaustive=False, checked=pair_budget)


def reference_verify_orthant_pairwise(f: KSubFunction, pair_budget: int = 1_000_000,
                                      seed: int = 0) -> Verdict:
    """Reference orthant + pairwise verifier: per-assignment loops over a dict
    of values keyed by labels, with ``randrange`` label draws.  The sampled
    loop draws the element to test first and leaves it unplaced in q."""
    _check_sampling(pair_budget, seed)
    n, k = f.n, f.k
    if _ordered_pairs_count(n, k) <= pair_budget:
        table = reference_value_table(f)
        checked = 0

        def gain(labels, e, i):
            bumped = labels[:e] + (i,) + labels[e + 1:]
            return table[bumped] - table[labels]

        for q in enumerate_assignments(n, k):
            supp_q = sorted(q.support())
            outside = [e for e in range(n) if e not in q.support()]
            for keep_size in range(len(supp_q) + 1):
                for keep in itertools.combinations(supp_q, keep_size):
                    p = q.restrict(keep)
                    checked += 1
                    for e in outside:
                        for i in range(1, k + 1):
                            if gain(p.labels, e, i) < gain(q.labels, e, i):
                                return Verdict(False, ("orthant", p, q, e, i),
                                               exhaustive=True, checked=checked)
        for p in enumerate_assignments(n, k):
            for e in range(n):
                if p.labels[e] != 0:
                    continue
                for i, j in itertools.combinations(range(1, k + 1), 2):
                    if gain(p.labels, e, i) + gain(p.labels, e, j) < 0:
                        return Verdict(False, ("pairwise", p, e, i, j),
                                       exhaustive=True, checked=checked)
        return Verdict(True, None, exhaustive=True, checked=checked)

    rng = random.Random(seed)
    for checked in range(1, pair_budget + 1):
        e = rng.randrange(n)
        rest = reference_random_assignment(rng, n - 1, k).labels
        q = Assignment._trusted(rest[:e] + (0,) + rest[e:], k)
        p = reference_random_restriction(rng, q)
        i = rng.randrange(1, k + 1)
        gp = f.evaluate(p.assign(e, i)) - f.evaluate(p)
        gq = f.evaluate(q.assign(e, i)) - f.evaluate(q)
        if gp < gq:
            return Verdict(False, ("orthant", p, q, e, i), exhaustive=False, checked=checked)
        if k >= 2:
            j = rng.choice([x for x in range(1, k + 1) if x != i])
            gj = f.evaluate(q.assign(e, j)) - f.evaluate(q)
            if gq + gj < 0:
                return Verdict(False, ("pairwise", q, e, i, j),
                               exhaustive=False, checked=checked)
    return Verdict(True, None, exhaustive=False, checked=pair_budget)


def pair_list_orthant_pairwise(f: KSubFunction) -> Verdict:
    """The exhaustive branch of ``verify_orthant_pairwise`` before its
    pairwise test sorted each row: index lists ``firsts`` and ``seconds``
    of ``n * k(k-1)/2`` entries name every pair of gains, and each q sums
    all its pairs.  Its pairwise test is kept unchanged as the reference
    for the verdict, witness and ``checked`` count; its lists grow as
    ``k^2``."""
    n, k = f.n, f.k
    values = f._code_values()
    code_steps = _code_steps(n, k)
    positions = range(1, k + 1)
    pairs = list(itertools.combinations(positions, 2))
    # index of gain (e, i) in a row is t*k + i - 1, e the t-th unplaced element
    firsts = [t * k + i - 1 for t in range(n) for i, _ in pairs]
    seconds = [t * k + j - 1 for t in range(n) for _, j in pairs]
    pairwise = None
    checked = 0
    for cq, kept, outside in _walk(n, k):
        if not outside:  # nothing to test against a full q
            checked += len(kept)
            continue
        steps = [i * code_steps[e] for e in outside for i in positions]
        gq = _gains(values, cq, steps)
        if pairwise is None and pairs:
            width = len(outside) * len(pairs)
            sums = map(operator.add, map(gq.__getitem__, firsts[:width]),
                       map(gq.__getitem__, seconds[:width]))
            hits = list(map(operator.lt, sums, itertools.repeat(0)))
            if any(hits):
                t = _first(hits)
                i, j = pairs[t % len(pairs)]
                pairwise = ("pairwise", _decode(cq, n, k), outside[t // len(pairs)], i, j)
        for checked, cp in enumerate(kept, checked + 1):
            if any(map(operator.lt, _gains(values, cp, steps), gq)):
                t = _first(map(operator.lt, _gains(values, cp, steps), gq))
                return Verdict(False, ("orthant", _decode(cp, n, k), _decode(cq, n, k),
                                       outside[t // k], t % k + 1),
                               exhaustive=True, checked=checked)
    if pairwise is not None:
        return Verdict(False, pairwise, exhaustive=True, checked=checked)
    return Verdict(True, None, exhaustive=True, checked=checked)


def reference_verify_monotone(f: KSubFunction, pair_budget: int = 1_000_000,
                              seed: int = 0) -> Verdict:
    """Reference monotonicity verifier: a loop over every pair p preceding q
    on a dict of values, with ``randrange`` label draws when sampled."""
    _check_sampling(pair_budget, seed)
    n, k = f.n, f.k
    if _ordered_pairs_count(n, k) <= pair_budget:
        table = reference_value_table(f)
        checked = 0
        for q in enumerate_assignments(n, k):
            supp_q = sorted(q.support())
            for keep_size in range(len(supp_q) + 1):
                for keep in itertools.combinations(supp_q, keep_size):
                    p = q.restrict(keep)
                    checked += 1
                    if table[p.labels] > table[q.labels]:
                        return Verdict(False, (p, q), exhaustive=True, checked=checked)
        return Verdict(True, None, exhaustive=True, checked=checked)

    rng = random.Random(seed)
    for checked in range(1, pair_budget + 1):
        q = reference_random_assignment(rng, n, k)
        p = reference_random_restriction(rng, q)
        if f.evaluate(p) > f.evaluate(q):
            return Verdict(False, (p, q), exhaustive=False, checked=checked)
    return Verdict(True, None, exhaustive=False, checked=pair_budget)
