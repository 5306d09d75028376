"""Core domain types for k-submodular optimization.

An n-element ground set is labelled by an assignment vector over
{0, 1, ..., k}: label i > 0 places an element into the i-th of k pairwise
disjoint sets, label 0 leaves the element unplaced.  A k-submodular
objective is exposed through a value oracle; every counted evaluation is
tallied in an :class:`OracleCounters` so solver query complexity can be
asserted exactly in tests.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
import random
import struct
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Iterator, Optional, Sequence


class CapExceededError(Exception):
    """An exhaustive enumeration would exceed its configured cap."""


INTS = frozenset({int})
NUMBERS = frozenset({int, float})
FLOATS = frozenset({float})


def _typed(values: Iterable, types: frozenset) -> bool:
    """Whether each item's type is exactly one of ``types`` (a bool is not an
    int); the one pass runs in C.  Constructors check their lists with this."""
    return set(map(type, values)) <= types


def _sum_exact(rows: tuple[tuple, ...], where: str, rule: str,
               magnitudes: Callable[[tuple], Iterable[float]],
               ) -> tuple[tuple[tuple[float, ...], ...], int]:
    """``rows`` with every value a float, and the unit exponent ``S``;
    refused unless the values are sum-exact.

    This is the exactness rule of every function family.  Values are
    *sum-exact* when each is a multiple of one unit ``2^-S`` and twice the
    largest magnitude the function can reach, ``math.fsum(magnitudes(rows))``,
    is below ``2^53`` units.  Every value the function takes is then a
    whole number of units below ``2^52``, so every sum or difference of
    two values, and every partial sum on the way to one, is a float
    without rounding.  The test takes the finest unit the magnitude
    allows, ``S = 52 - math.frexp(magnitude)[1]``, capped at 1074 since
    every float is a multiple of ``2^-1074``; a magnitude of ``2^1023`` or
    more, whose double overflows, is refused with no unit.

    ``magnitudes`` gets the float rows, makes the family's own checks
    (ValueError) and returns the terms of the magnitude.  The work is
    C-level passes: a type pass (two when some value is not a float), a
    float copy unless every value is a float already, and one pass that
    takes each value's remainder by the unit, which is exact (and NaN for
    NaN and infinities).  Only a refused input is walked again, by
    :func:`_refuse`, to name the first bad value; a value that is not
    finite is named before the family's checks speak.  ``S`` is returned
    so a family can count its values in whole units.
    """
    entries = itertools.chain.from_iterable
    floats = rows
    if not _typed(entries(rows), FLOATS):
        if not _typed(entries(rows), NUMBERS):
            _refuse(rows, where, rule)
        try:
            floats = tuple(map(tuple, map(map, itertools.repeat(float), rows)))
        except OverflowError:
            _refuse(rows, where, rule)
    try:
        terms = magnitudes(floats)
    except ValueError:
        _refuse(rows, where, rule)
        raise
    try:
        magnitude = math.fsum(terms)
    except (OverflowError, ValueError):  # past the float range, or inf - inf
        magnitude = math.inf
    if not magnitude < 2.0 ** 1023:
        _refuse(rows, where, rule)
        raise ValueError(f"not sum-exact: twice the magnitude {magnitude} overflows a float")
    exponent = min(52 - math.frexp(magnitude)[1], 1074)
    if any(map(operator.mod, entries(floats), itertools.repeat(2.0 ** -exponent))) or (
            floats != rows):  # an int may round
        _refuse(rows, where, rule, exponent, magnitude)
    return floats, exponent


def _refuse(rows: tuple[tuple, ...], where: str, rule: str,
            exponent: Optional[int] = None, magnitude: float = 0.0) -> None:
    """The slow path of :func:`_sum_exact`: raise for the first bad value of
    ``rows``, named ``where.format(row, column)``, and return if none is.

    A value is bad when it is not an int or float (TypeError, opening with
    ``rule``; a bool is neither), when it is not finite (ValueError), and,
    given the unit exponent, when it (an int included) is not a multiple
    of ``2^-exponent`` (ValueError naming the exponent and ``magnitude``).
    """
    for e, row in enumerate(rows):
        for i, v in enumerate(row):
            spot = where.format(e, i)
            if type(v) not in NUMBERS:
                raise TypeError(f"{rule}; {spot}: {v!r} is not a number")
            try:
                x = float(v)
            except OverflowError:
                x = math.inf
            if not math.isfinite(x):
                raise ValueError(f"{spot}: value {v} is not finite")
            if exponent is not None and (x != v or x % 2.0 ** -exponent):
                raise ValueError(f"{spot}: value {v} is not a multiple of 2^{-exponent} (S = "
                                 f"{exponent}), the finest unit at which twice the magnitude "
                                 f"{magnitude} stays below 2^53 units; values must be sum-exact")


def _check_ints(values: tuple, rule: str) -> None:
    """Refuse ``values`` with TypeError, after ``rule``, unless each is of type
    ``int`` (a bool is not); the one integer rule of every input check."""
    if not _typed(values, INTS):
        raise TypeError(f"{rule}, got {next(v for v in values if type(v) is not int)!r}")


def _check_ground_size(n) -> None:
    """Refuse a ground-set size unless an ``int`` (TypeError) of at least 0 (ValueError)."""
    _check_ints((n,), "ground_size must be an integer")
    if n < 0:
        raise ValueError(f"ground_size must be nonnegative, got {n}")


def _check_k(k) -> None:
    """Refuse ``k`` unless an ``int`` (TypeError) of at least 1 (ValueError)."""
    _check_ints((k,), "k must be an int")
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")


def _check_element(e, n: int) -> None:
    """Refuse ``e`` unless an ``int`` (TypeError) in ``0..n-1`` (ValueError)."""
    if type(e) is not int:
        raise TypeError(f"element {e!r} is not an int")
    if not 0 <= e < n:
        raise ValueError(f"element {e} outside ground set of size {n}")


def _check_seed(seed) -> None:
    """Refuse a random seed that is not of type ``int`` (a bool or a float
    included) with TypeError; ``random.Random`` would take either."""
    _check_ints((seed,), "seed must be an integer")


def uniform_draws(rng: random.Random, bound: int) -> Iterator[int]:
    """Integers drawn uniformly from ``range(bound)``, lazily, for ``bound >= 1``.

    Each is a ``getrandbits(bound.bit_length())`` draw, redrawn while it is
    ``bound`` or more: the rejection loop of ``rng.randrange(bound)``, so
    every item taken consumes ``rng`` exactly as one ``randrange(bound)``
    call does (and ``lo +`` it is ``rng.randint(lo, lo + bound - 1)``).
    Take items with ``islice``; other draws from ``rng`` may come between
    two takes.  The draws run in C, with no Python frame per item.  A
    ``bound`` that is not an ``int`` (a bool included) is refused with
    TypeError, and one below 1, whose stream would never yield, with
    ValueError, both at the call.
    """
    _check_ints((bound,), "bound must be an int")
    if bound < 1:
        raise ValueError(f"bound must be at least 1, got {bound}")
    return filter(bound.__gt__, iter(partial(rng.getrandbits, bound.bit_length()), None))


_WORD_PAIR = struct.Struct("<II")  # the two words of one random() draw


def _bernoulli_flags(rng: random.Random, p: float, count: int) -> bytearray:
    """``count`` flags, 1 where ``rng.random() < p`` and 0 elsewhere, for
    ``p`` in ``[0, 1]``, drawn in bulk.

    The contract: this consumes ``rng`` exactly as ``count`` ``random()``
    calls do, and for a plain ``random.Random`` flag ``j`` equals, bit for
    bit, ``random() < p`` at the ``j``-th of those calls.  CPython's
    ``random()`` reads two consecutive 32-bit Mersenne Twister words ``a``
    and ``b`` and returns ``N * 2^-53`` with ``N = (a >> 5) * 2^26 +
    (b >> 6)``; ``getrandbits(64 * count)`` returns the same ``2 * count``
    words, the first drawn least significant.  As ``p * 2^53`` is an exact
    double, ``random() < p`` holds exactly when ``N < T`` with ``T =
    ceil(p * 2^53)``, and so when ``a < C = (T >> 26) << 5``, or ``a >> 5
    == T >> 26`` and ``b >> 6`` is below the rest of ``T``.  One
    ``bytes.translate`` of the top bytes of the ``a`` words settles every
    draw whose top byte differs from ``C``'s (``T >> 45``); the about one
    in 256 that tie are settled from ``a`` and ``b`` in full.  It holds the
    ``8 * count`` bytes of the words.
    """
    threshold = math.ceil(p * 2.0 ** 53)
    top = threshold >> 45
    raw = rng.getrandbits(64 * count).to_bytes(8 * count, "little")
    # raw[3::8] is the top byte of each draw's word a: 1 below C's top
    # byte, 0 above it, 2 (undecided) equal to it
    flags = bytearray(raw[3::8].translate((b"\x01" * top + b"\x02" + b"\x00" * 255)[:256]))
    j = flags.find(2)
    while j >= 0:
        a, b = _WORD_PAIR.unpack_from(raw, 8 * j)
        flags[j] = (a >> 5 << 26 | b >> 6) < threshold
        j = flags.find(2, j + 1)
    return flags


@dataclass
class OracleCounters:
    """Oracle-call tally owned by a single solver run.

    ``eo_calls`` counts value-oracle evaluations and ``io_calls`` counts
    independence tests.  Counts only ever increase; a fresh run starts from
    fresh counters.
    """

    eo_calls: int = 0
    io_calls: int = 0


@dataclass(frozen=True)
class Assignment:
    """Immutable placement of ground-set elements into k disjoint sets.

    ``labels[e] == i`` with ``i > 0`` puts element ``e`` into the i-th set;
    ``0`` leaves it unplaced.  The all-zero assignment is the bottom element
    of the partial order (see :func:`precedes`).  Labels and ``k`` must be
    of type ``int``; anything else, a float or a bool included, is refused
    with TypeError rather than truncated.
    """

    labels: tuple[int, ...]
    k: int

    def __post_init__(self):
        labels = tuple(self.labels)
        _check_k(self.k)
        if not _typed(labels, INTS):
            e = next(e for e, lab in enumerate(labels) if type(lab) is not int)
            raise TypeError(f"label {labels[e]!r} at element {e} is not an int")
        object.__setattr__(self, "labels", labels)
        for e, lab in enumerate(self.labels):
            if not 0 <= lab <= self.k:
                raise ValueError(f"label {lab} at element {e} outside {{0,...,{self.k}}}")

    @classmethod
    def _trusted(cls, labels: tuple[int, ...], k: int) -> "Assignment":
        """Build without ``__post_init__``; for labels valid by construction.

        ``labels`` must already be a tuple of ints in ``{0,...,k}`` with
        ``k >= 1``.  Only internal operations whose inputs are themselves
        valid assignments (or whose labels come from ``range(k + 1)``) use
        this; the public constructor checks everything.
        """
        a = object.__new__(cls)
        object.__setattr__(a, "labels", labels)
        object.__setattr__(a, "k", k)
        return a

    @classmethod
    def zero(cls, n: int, k: int) -> "Assignment":
        """The empty assignment on an n-element ground set; ``n`` is checked
        as a ground-set size (see :func:`_check_ground_size`)."""
        _check_ground_size(n)
        return cls((0,) * n, k)

    @property
    def n(self) -> int:
        return len(self.labels)

    def support(self) -> frozenset[int]:
        """Indices of all placed elements."""
        return frozenset(e for e, lab in enumerate(self.labels) if lab != 0)

    def check_open(self, e: int, i: int) -> None:
        """Raise ValueError unless ``e`` is an unplaced element and ``1 <= i <= k``
        (TypeError unless both are ``int``s)."""
        _check_open(self.labels, self.k, e, i)

    def assign(self, e: int, i: int) -> "Assignment":
        """New assignment with unplaced element ``e`` put into set ``i``."""
        self.check_open(e, i)
        labels = self.labels
        return Assignment._trusted(labels[:e] + (i,) + labels[e + 1:], self.k)

    def restrict(self, keep: Iterable[int]) -> "Assignment":
        """Copy with labels kept only on ``keep``; everything else unplaced.

        Each element of ``keep`` is checked as :func:`_check_element` checks
        it (TypeError or ValueError), before anything is built.
        """
        keep = list(keep)
        for e in keep:
            _check_element(e, self.n)
        keep = set(keep)
        return Assignment._trusted(
            tuple(lab if e in keep else 0 for e, lab in enumerate(self.labels)),
            self.k,
        )


def _check_open(labels: Sequence[int], k: int, e: int, i: int) -> None:
    """The checks of :meth:`Assignment.check_open` on a label sequence."""
    _check_element(e, len(labels))
    if type(i) is not int:
        raise TypeError(f"position {i!r} is not an int")
    if not 1 <= i <= k:
        raise ValueError(f"position {i} outside {{1,...,{k}}}")
    if labels[e] != 0:
        raise ValueError(f"element {e} already placed (label {labels[e]})")


def _check_same_shape(a: Assignment, b: Assignment) -> None:
    if a.n != b.n or a.k != b.k:
        raise ValueError(
            f"assignment shape mismatch: (n={a.n}, k={a.k}) vs (n={b.n}, k={b.k})"
        )


def precedes(a: Assignment, b: Assignment) -> bool:
    """Partial order: ``a`` precedes ``b`` iff ``b`` extends ``a``.

    Equivalently, every set of ``a`` is contained in the matching set of
    ``b``: wherever ``a`` places an element, ``b`` places it identically.
    """
    _check_same_shape(a, b)
    return all(la == 0 or la == lb for la, lb in zip(a.labels, b.labels))


def meet(a: Assignment, b: Assignment) -> Assignment:
    """Componentwise intersection: keep a label only where both agree."""
    _check_same_shape(a, b)
    labels = tuple(la if la == lb else 0 for la, lb in zip(a.labels, b.labels))
    return Assignment._trusted(labels, a.k)


def join(a: Assignment, b: Assignment) -> Assignment:
    """Componentwise union with cancellation of conflicting labels.

    An element labelled in only one argument keeps that label; an element
    labelled identically in both keeps it; conflicting nonzero labels
    cancel to 0.
    """
    _check_same_shape(a, b)
    out = []
    for la, lb in zip(a.labels, b.labels):
        if la == 0:
            out.append(lb)
        elif lb == 0 or lb == la:
            out.append(la)
        else:
            out.append(0)
    return Assignment._trusted(tuple(out), a.k)


class KSubFunction(ABC):
    """Value-oracle interface for functions on assignments.

    Subclasses implement ``_value``; callers go through :meth:`evaluate`,
    which tallies one value-oracle call when counters are supplied.  All
    shipped families are normalized so the empty assignment evaluates to 0,
    and evaluation is deterministic.
    """

    def __init__(self, n: int, k: int):
        _check_ground_size(n)
        _check_k(k)
        self.n = n
        self.k = k

    @abstractmethod
    def _value(self, a: Assignment) -> float:
        """Raw objective value; no counting."""

    def evaluate(self, a: Assignment, counters: Optional[OracleCounters] = None) -> float:
        """Objective value of ``a``, counted as one EO call if counters given."""
        if a.n != self.n or a.k != self.k:
            raise ValueError(
                f"function expects (n={self.n}, k={self.k}), "
                f"got assignment with (n={a.n}, k={a.k})"
            )
        if counters is not None:
            counters.eo_calls += 1
        return self._value(a)

    def _support_root(self) -> tuple[list, list]:
        """The block of the empty support: its one labelling, keyed 0 (code
        0, or no point covered), and the value of the empty assignment."""
        return [0], [self._value(Assignment._trusted((0,) * self.n, self.k))]

    def _support_step(self, block: tuple[list, list], e: int) -> tuple[list, list]:
        """The children of a block's labellings with ``e`` placed; no counting.

        A *block* lists labellings of the elements before ``e`` as a pair
        ``(keys, values)``: ``values[j]`` is bit for bit what ``_value``
        gives for labelling ``j``, and ``keys`` is whatever a family needs
        to step on (assignment codes here; ``None`` for modular tables,
        which step on values alone, and a ``None`` key list stays
        ``None``).  Brute force steps the ``k^|S|`` labellings of one
        ascending support ``S``; :meth:`_code_values` steps every
        labelling of the elements before ``e``, unplaced ones included.
        Child ``j * k + i - 1`` is labelling ``j`` with ``e`` at ``i``, so
        the children of a support's block follow
        ``itertools.product(range(1, k + 1), repeat=len(S))``: labelling
        ``j`` puts ``S[t]`` at base-k digit ``t`` of ``j`` (most
        significant first) plus one.

        This default keys the labellings by their codes and reads one
        ``_value`` per child, at the assignment its code decodes to; it is
        the reference path.  The shipped families override it with one
        pass: modular and coverage children add to their parent's value,
        explicit-table children look their codes up.
        """
        n, k = self.n, self.k
        codes = _child_codes(block[0], e, k)
        return codes, [self._value(_decode(code, n, k)) for code in codes]

    def _code_values(self) -> Sequence[float]:
        """``_value`` at every assignment, listed by its code (see
        :func:`_code_steps`); no counting.

        Makes ``n`` :meth:`_support_step` calls, one per element.  Before
        the step of ``e`` the list holds the ``(k+1)^e`` labellings of the
        elements before ``e`` in code order; the step prices their
        ``k * (k+1)^e`` children, and appending them label-major (the
        children ``child[i - 1::k]`` with ``e`` at ``i``, for ``i = 1..k``)
        lists codes ``i * (k+1)^e + j`` in order.  So every entry is bit
        for bit ``_value`` of its assignment.  Memory is the value list and
        one key list, both extended in place, plus one step's children.
        Explicit tables return their own value list.
        """
        k, step = self.k, self._support_step
        keys, values = self._support_root()
        for e in range(self.n):
            child_keys, child_values = step((keys, values), e)
            if child_keys is None:  # modular tables step on values alone
                keys = None
            for i in range(k):
                values += child_values[i::k]
                if keys is not None:
                    keys += child_keys[i::k]
        return values

    def zero(self) -> Assignment:
        """The empty assignment matching this function's shape."""
        return Assignment.zero(self.n, self.k)

    def gain_state(self, counters: Optional[OracleCounters] = None) -> "GainState":
        """A fresh running state at the empty assignment (see :class:`GainState`).

        Families with cheaper incremental gains override this; the default
        computes every gain through :meth:`evaluate`.
        """
        return GainState(self, counters)


def marginal_gain(
    f: KSubFunction,
    a: Assignment,
    e: int,
    i: int,
    counters: Optional[OracleCounters] = None,
    base: Optional[float] = None,
) -> float:
    """Gain of placing unplaced element ``e`` into set ``i`` on top of ``a``.

    Counting policy (fixed so counter assertions can be exact): when ``base``
    is None both f(a) and the extended value are evaluated, costing 2 EO
    calls; when the caller supplies ``base`` (which must equal f(a)), only
    the extended assignment is evaluated, costing 1 EO call.  Solvers pass
    their running objective value as ``base``.
    """
    extended = a.assign(e, i)  # validates e unplaced and 1 <= i <= k
    if base is None:
        base = f.evaluate(a, counters)
    return f.evaluate(extended, counters) - base


class GainState:
    """Running assignment and value of one solver run, with counted gains.

    Starts at the empty assignment with value 0.  A state prices one way:
    a whole row, the gains of one element at all k positions, at k EO
    calls.  :meth:`best` returns the best of one element's row;
    :meth:`place` commits one placement, adding the priced gain to
    ``value``.  The gain of ``e`` at ``i`` is the one
    ``marginal_gain(f, assignment, e, i, counters, base=value)`` gives.

    The labels live in a private mutable list, so :meth:`place` writes one
    label instead of copying an n-tuple.  ``assignment`` is a read-only
    view of them as an :class:`Assignment`, built on first use after each
    placement and reused until the next.  :meth:`best` and :meth:`place`
    make the checks of :meth:`Assignment.check_open` with its messages; a
    refused placement leaves the labels and ``value`` as they were.  The
    solvers price the elements they walk, all open by construction,
    through the unchecked :meth:`_best` and its batched forms:
    :meth:`_bests` (each element's best gain; threshold's opening scan)
    and the lazy greedy pair :meth:`_first_best` and :meth:`_next_best`
    (greedy's opening and each iteration after a placement).  A batched
    call charges what its per-element loop charges, k EO calls per row
    priced.

    This default goes through ``f.evaluate`` and so works for every
    function; it is the reference path, and its batched calls are loops
    over :meth:`_best`.  Function families override
    :meth:`KSubFunction.gain_state` with states that price a row without
    a full evaluation, and a batched call only where one pass measured
    faster on a benchmark workload: the modular :meth:`_bests` (the
    opening scan of the ``n = 800`` modular solves) and the coverage
    :meth:`_first_best` and :meth:`_next_best` (greedy on the coverage
    solves).  The families' values are sum-exact (see
    :func:`_sum_exact`), so the incremental gains are exact and every path
    gives identical gains, values and solver runs.
    """

    def __init__(self, f: KSubFunction, counters: Optional[OracleCounters] = None):
        self.f = f
        self.counters = counters
        self.value = 0.0
        self._labels = [0] * f.n
        self._assignment: Optional[Assignment] = None

    @property
    def assignment(self) -> Assignment:
        """The running assignment; rebuilt at most once per placement."""
        if self._assignment is None:
            self._assignment = Assignment._trusted(tuple(self._labels), self.f.k)
        return self._assignment

    def best(self, e: int) -> tuple[float, int]:
        """Best gain of unplaced ``e`` over positions ``1..k``, and its position.

        Returns ``(gain, i)`` with the lowest ``i`` attaining the maximum,
        which is the first maximum of the row as ``max`` takes it (so of
        ``0.0`` and ``-0.0`` the earlier one wins).  Costs k EO calls.
        Checks ``e`` as :meth:`Assignment.check_open` does, then prices it
        through :meth:`_best`.
        """
        _check_open(self._labels, self.f.k, e, 1)
        return self._best(e)

    def _best(self, e: int) -> tuple[float, int]:
        """:meth:`best` without the check of ``e``, which must be an unplaced
        ``int`` element; the solvers call this on the elements they walk.

        This default evaluates the k extended assignments, one EO call
        each, and subtracts ``value``; overrides count the k EO calls
        through :meth:`_charge_rows` and price the k positions together.
        """
        f, k, counters, value = self.f, self.f.k, self.counters, self.value
        head, tail = tuple(self._labels[:e]), tuple(self._labels[e + 1:])
        gains = [f.evaluate(Assignment._trusted(head + (i,) + tail, k), counters) - value
                 for i in range(1, k + 1)]
        gain = max(gains)
        return gain, gains.index(gain) + 1

    def _bests(self, elements: Sequence[int]) -> list[float]:
        """Each element's best gain, as :meth:`_best` gives it; k EO calls per
        element.  The elements must be unplaced ``int`` elements.

        This default makes one :meth:`_best` call per element (the coverage
        state's opening scan too); the modular override counts through
        :meth:`_charge_rows` and prices the whole list in one pass.
        """
        best = self._best
        return [best(e)[0] for e in elements]

    def _first_best(self, elements: Sequence[int]) -> Optional[tuple[int, int, float]]:
        """Open a lazy greedy run: price each of ``elements`` (k EO calls each),
        keep them as the run's candidates, and take out and return the best.

        The best is ``(e, i, gain)``: the largest best gain, the lowest
        element on ties, ``i`` its lowest best position.  None when
        ``elements``, distinct unplaced ``int`` elements, is empty.  Each
        candidate keeps its gain as a bound for :meth:`_next_best`.  This
        default keeps them in a heap of ``(-bound, e, i)`` entries; each
        row is priced by one :meth:`_best` call.
        """
        best = self._best
        heap = self._heap = []
        for e in elements:
            gain, i = best(e)
            heap.append((-gain, e, i))
        if not heap:
            return None
        heapq.heapify(heap)
        key, e, i = heapq.heappop(heap)
        return e, i, -key

    def _next_best(self, can_add: Callable[[int], bool]) -> Optional[tuple[int, int, float]]:
        """The best candidate after a placement, found lazily (Minoux 1978),
        or None once no candidate is left; as :meth:`_first_best` returns it.

        Call it after placing what the previous call returned.  Every
        candidate's bound, the gain last priced for it, is then stale, but
        it bounds the current gain: by orthant submodularity a gain only
        shrinks as the assignment grows.  The loop takes the candidate with
        the largest bound, the lowest element on ties.  The first time it
        takes one in this call, it tests it with one ``can_add`` (1 IO
        call), drops it for good if it does not fit (supersets of a
        dependent set stay dependent), and otherwise prices it (k EO calls)
        and puts it back with its gain as its bound.  The second time, the
        gain is fresh and beats every other bound, so it is the candidate
        the eager scan over every feasible candidate picks: it is taken out
        and returned.  So each candidate is tested and priced at most once
        per call, and only while its bound can still win.  For a function
        that is not k-submodular, such as an unchecked
        :class:`~ksubmax.instances.ExplicitTableFunction`, the bounds may
        not hold and the pick may differ from the eager scan's.
        """
        heap, best = self._heap, self._best
        visited = set()
        while heap:
            key, e, i = heap[0]
            if e in visited:
                heapq.heappop(heap)
                return e, i, -key
            visited.add(e)
            if can_add(e):
                gain, i = best(e)
                heapq.heapreplace(heap, (-gain, e, i))
            else:
                heapq.heappop(heap)
        return None

    def place(self, e: int, i: int, gain: float) -> None:
        """Put ``e`` into set ``i``; ``gain`` must be its priced gain, as
        :meth:`best` returns it for the best ``i``."""
        _check_open(self._labels, self.f.k, e, i)
        self._labels[e] = i
        self._assignment = None
        self.value += gain

    def _charge_rows(self, count: int) -> None:
        """For the family overrides of :meth:`_best`, :meth:`_bests`,
        :meth:`_first_best` and :meth:`_next_best`: count k EO calls for each
        of ``count`` rows priced."""
        if self.counters is not None:
            self.counters.eo_calls += self.f.k * count


def _code_steps(n: int, k: int) -> list[int]:
    """The code step ``(k+1)**e`` of each element ``e``.

    The code of an assignment is ``sum(labels[e] * (k+1)**e)``, its index
    in an explicit table file; placing unplaced ``e`` at ``i`` adds
    ``i * steps[e]`` to it.
    """
    return [(k + 1) ** e for e in range(n)]


def _child_codes(codes: list[int], e: int, k: int) -> list[int]:
    """The codes of a support's labellings extended by ``e``, past its last
    element, in the order of :meth:`KSubFunction._support_step`: each code
    followed by its ``k`` children, ``e`` at labels ``1..k``."""
    step = (k + 1) ** e
    steps = range(step, (k + 1) * step, step)
    return [c + s for c in codes for s in steps]


def _decode(code: int, n: int, k: int) -> Assignment:
    """The assignment with this code on an n-element ground set."""
    return Assignment._trusted(tuple(code // step % (k + 1) for step in _code_steps(n, k)), k)


def enumerate_assignments(n: int, k: int) -> Iterator[Assignment]:
    """All (k+1)^n assignments on an n-element ground set, in label order,
    as a lazy iterator.

    ``n`` and ``k`` are checked as :class:`KSubFunction` checks them
    (TypeError or ValueError) at the call.
    """
    _check_ground_size(n)
    _check_k(k)
    return (Assignment._trusted(labels, k) for labels in itertools.product(range(k + 1), repeat=n))
