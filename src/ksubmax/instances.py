"""Verified instance families, random generators, and the instance file format.

Two function families are shipped.  Modular functions sum one table entry
per placed element; constraining every row's pairwise entry sums to be
nonnegative makes them k-submodular by construction (marginals are
constant, and the pairwise-sum constraint is exactly pairwise
monotonicity), while still permitting genuinely non-monotone instances.
Weighted coverage functions are monotone and k-submodular; each (element,
position) pair covers a subset of a weighted universe.

Every family takes only sum-exact values (see
:func:`ksubmax.core._sum_exact`), so its arithmetic is exact in double
precision; the generators draw every value as a multiple of 1/64.
Instance files are JSON documents; see ``parse_instance`` for the grammar.
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
import math
import operator
import random
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from .core import (INTS, NUMBERS, Assignment, GainState, KSubFunction, OracleCounters,
                   _bernoulli_flags, _check_ground_size, _check_ints, _check_k, _check_seed,
                   _child_codes, _code_steps, _sum_exact, _typed, uniform_draws)
from .matroids import ExplicitMatroid, Matroid, PartitionMatroid, UniformMatroid

VALUE_GRID = 64  # generated values are integers divided by this


class InstanceFormatError(ValueError):
    """Malformed or inconsistent instance/config document."""


_BIT_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _bitmask(flags: bytes) -> int:
    """The integer whose bit ``u`` is ``flags[u]`` (each 0 or 1), in C-level passes."""
    return int(flags.translate(_BIT_DIGITS)[::-1] or b"0", 2)


def _points_mask(points: Sequence[int], top: int) -> int:
    """Bitmask of ``points``, nonnegative integers none above ``top``."""
    flags = bytearray(top + 1)
    collections.deque(
        map(operator.setitem, itertools.repeat(flags), points, itertools.repeat(1)),
        maxlen=0,
    )
    return _bitmask(flags)


_HEX_MASK = re.compile("[0-9a-f]+")
_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def _mask_points(mask: int) -> frozenset[int]:
    """The points of bitmask ``mask``, in C-level passes over its binary digits."""
    return frozenset(itertools.compress(
        itertools.count(), format(mask, "b")[::-1].encode().translate(_FLAGS)))


def _rows(items, where: str):
    """``items`` to iterate as a list of rows; a string or a non-iterable is
    refused with TypeError naming ``where``."""
    if type(items) is not str:
        try:
            return iter(items)
        except TypeError:
            pass
    raise TypeError(f"{where} must be a list, got {items!r}")


def _cover_mask(members, universe: int, e: int, i: int) -> int:
    """Bitmask of cover set ``sets[e][i]``, a list of points in
    ``0..universe-1`` or a lowercase hex bitmask string of no more than
    ``universe`` bits; refused with TypeError or ValueError naming the set."""
    if type(members) is str:
        if not _HEX_MASK.fullmatch(members):
            raise ValueError(f"sets[{e}][{i}]: {members!r} is not a lowercase hex bitmask")
        mask = int(members, 16)
        if mask.bit_length() > universe:
            raise ValueError(f"sets[{e}][{i}]: universe point {mask.bit_length() - 1} "
                             f"outside 0..{universe - 1}")
        return mask
    try:
        points = tuple(members)
    except TypeError:
        raise TypeError(
            "sets must list integer universe points or be hex bitmask strings; "
            f"sets[{e}][{i}]: {members!r} is neither"
        ) from None
    if not _typed(points, INTS):
        u = next(u for u in points if type(u) is not int)
        raise TypeError(
            "sets must list integer universe points; "
            f"sets[{e}][{i}]: universe point {u!r} is not an int"
        )
    if not points:
        return 0
    top = max(points)
    if min(points) < 0 or top >= universe:
        u = next(u for u in frozenset(points) if not 0 <= u < universe)
        raise ValueError(f"sets[{e}][{i}]: universe point {u} outside 0..{universe - 1}")
    return _points_mask(points, top)


def _row_magnitudes(rows: tuple[tuple[float, ...], ...]) -> list[float]:
    """Each modular row's largest magnitude, after the table's shape and
    pairwise-sum checks."""
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
            raise ValueError(f"table row {e} violates the pairwise-sum constraint: "
                             f"{ordered[0]} + {ordered[1]} < 0")
        terms.append(max(ordered[-1], -ordered[0]))
    return terms


class ModularFunction(KSubFunction):
    """f(p) = sum over placed elements e of table[e][p(e) - 1].

    Every row must satisfy table[e][i] + table[e][j] >= 0 for i != j; this
    is checked at construction and guarantees k-submodularity.  The
    function is monotone iff every entry is nonnegative.  Entries must be
    ints or floats (TypeError otherwise) and sum-exact (see
    :func:`ksubmax.core._sum_exact`) at the magnitude
    ``sum(max(abs(v) for v in row) for row in table)``; they are checked
    in C-level passes over the whole table, and the checks above take
    one Python step per row.
    """

    def __init__(self, table: Sequence[Sequence[float]]):
        self.table, _ = _sum_exact(tuple(map(tuple, table)), "table row {0}",
                                   "table entries must be numbers", _row_magnitudes)
        super().__init__(len(self.table), len(self.table[0]))

    @property
    def monotone(self) -> bool:
        return all(v >= 0 for row in self.table for v in row)

    def _value(self, a: Assignment) -> float:
        total = 0.0
        for e, lab in enumerate(a.labels):
            if lab:
                total += self.table[e][lab - 1]
        return total

    def _support_step(self, block: tuple[list, list], e: int) -> tuple[None, list]:
        # the block is the values alone: each adds e's entry to its prefix
        # sum, in ascending element order as _value adds
        row = self.table[e]
        return None, [v + t for v in block[1] for t in row]

    def gain_state(self, counters: Optional[OracleCounters] = None) -> GainState:
        return _ModularGainState(self, counters)

    def __eq__(self, other):
        return (
            isinstance(other, ModularFunction)
            and self.table == other.table
        )

    def __hash__(self):
        return hash(("modular", self.table))

    def __repr__(self):
        return f"ModularFunction(n={self.n}, k={self.k})"


class CoverageFunction(KSubFunction):
    """Weighted coverage: each (element, position) pair covers universe points.

    f(p) is the total weight of universe points covered by at least one
    placed element at its assigned position.  Monotone and k-submodular.

    Each cover set ``sets[e][i]`` is given either as a list of points or
    as a lowercase hex string of its point bitmask (bit ``u`` is point
    ``u``): ``[0, 2, 5]`` and ``"25"`` are the same set.  Either form is
    turned into a bitmask where it is read, and the bitmasks ``_masks``
    are the only stored form; ``sets``, the cover sets as frozensets, is
    derived from them on first use.  Equality and hashing use the weights
    and the bitmasks.

    Weighing a set of points costs the smaller of its size and the number
    of weight bit planes in Python-level steps.  Every weight is a dyadic
    rational ``c_u / 2^S`` (``2^-S`` the unit of the exactness rule), and
    the weights are sum-exact (see :func:`ksubmax.core._sum_exact`) at
    the magnitude ``sum(weights)``, so ``sum(c_u) < 2^52`` and every
    partial sum of any subset is an exact float.  The sum in ascending
    point order therefore equals ``sum(popcount(points & plane_b) << b) /
    2^S``, where ``plane_b`` holds the points whose numerator has bit
    ``b`` set.  Weights that are multiples of 1/64 in [0, 1] need 7
    planes.  Sets with no more points than planes are summed point by
    point, which gives the same float.

    Weights must be ints or floats and points ints; a bool or string is
    refused with TypeError,
    and so is a cover set that is neither iterable nor a string, or a row
    of ``sets`` that is a string.  A bitmask string must match
    ``[0-9a-f]+`` (no ``0x``, sign, ``_``, whitespace or capitals) and set
    no bit at or past the universe size; else ValueError.  A list is
    checked and turned into a bitmask by C-level passes over its points
    (a type pass, ``min`` and ``max``, a byte per point up to the
    largest), and a string by one ``int(s, 16)``, so construction makes a
    Python step per set, not per point, and its memory stays linear in
    the universe size per set.
    """

    def __init__(
        self,
        weights: Sequence[float],
        sets: Sequence[Sequence[Iterable[int] | str]],
    ):
        (self.weights,), exponent = _sum_exact((tuple(weights),), "weights[{1}]",
                                               "weights must be numbers", _nonnegative)
        universe = len(self.weights)
        masks = []
        for e, per_position in enumerate(_rows(sets, "sets")):
            masks.append(tuple(_cover_mask(members, universe, e, i)
                               for i, members in enumerate(_rows(per_position, f"sets[{e}]"))))
        self._masks = tuple(masks)
        if not self._masks:
            raise ValueError("sets must cover at least one element")
        k = len(self._masks[0])
        if k < 1 or any(len(row) != k for row in self._masks):
            raise ValueError("every element needs one cover set per position")
        super().__init__(len(self._masks), k)
        self._planes, self._unit = _weight_planes(self.weights, exponent)

    @functools.cached_property
    def sets(self) -> tuple[tuple[frozenset[int], ...], ...]:
        """The cover sets as frozensets of points, derived from ``_masks``."""
        return tuple(tuple(map(_mask_points, row)) for row in self._masks)

    @property
    def universe_size(self) -> int:
        return len(self.weights)

    def _value(self, a: Assignment) -> float:
        covered = 0
        for e, lab in enumerate(a.labels):
            if lab:
                covered |= self._masks[e][lab - 1]
        return self._weight(covered)

    def _support_step(self, block: tuple[list, list], e: int) -> tuple[list, list]:
        # keyed by the covered points; a child weighs only the points e
        # newly covers, exact on sum-exact weights
        covered, values = block
        row, weight = self._masks[e], self._weight
        return ([c | mask for c in covered for mask in row],
                [v + weight(mask & free)
                 for free, v in zip(map(operator.invert, covered), values) for mask in row])

    def _weight(self, points: int) -> float:
        """Total weight of the universe points in bitmask ``points``.

        Equals the float sum of their weights in ascending point order, bit
        for bit; the bit planes compute it when the set has more points
        than there are planes.
        """
        planes = self._planes
        if points.bit_count() > len(planes):
            total = 0
            for shift, plane in planes:
                total += (points & plane).bit_count() << shift
            return total * self._unit
        weights = self.weights
        total = 0.0
        while points:
            low = points & -points
            total += weights[low.bit_length() - 1]
            points ^= low
        return total

    def gain_state(self, counters: Optional[OracleCounters] = None) -> GainState:
        return _CoverageGainState(self, counters)

    def __eq__(self, other):
        return (
            isinstance(other, CoverageFunction)
            and self.weights == other.weights
            and self._masks == other._masks
        )

    def __hash__(self):
        return hash(("coverage", self.weights, self._masks))

    def __repr__(self):
        return (
            f"CoverageFunction(n={self.n}, k={self.k}, "
            f"universe={self.universe_size})"
        )


def _nonnegative(rows: tuple[tuple[float, ...]]) -> tuple[float, ...]:
    """The coverage weights, ``rows[0]``, after their sign check."""
    if min(rows[0], default=0.0) < 0:
        raise ValueError("universe weights must be nonnegative")
    return rows[0]


def _weight_planes(weights: tuple[float, ...], exponent: int):
    """Bit planes of the weights counted in units of ``2^-exponent``, the
    unit :func:`ksubmax.core._sum_exact` chose for them.

    Returns ``(planes, unit)``: ``planes`` lists ``(b, plane_b)`` for every
    nonempty plane, at most 52, and ``unit`` is ``2^-exponent`` times
    ``2^low`` for the lowest nonempty plane ``low``, so a set of points
    weighs ``sum(popcount(points & plane_b) << b) * unit``.  Counting from
    that plane keeps the sums small ints, which the weighing loop adds
    faster (weights on the 1/64 grid need bits 0 to 6).
    """
    nums = list(map(int, map(math.ldexp, weights, itertools.repeat(exponent))))
    either = functools.reduce(operator.or_, nums, 0)
    low = max((either & -either).bit_length() - 1, 0)
    planes = []
    for b in range(low, either.bit_length()):
        if either >> b & 1:
            bits = map(operator.and_, map(operator.rshift, nums, itertools.repeat(b)),
                       itertools.repeat(1))
            planes.append((b - low, _bitmask(bytes(bits))))
    return tuple(planes), 2.0 ** (low - exponent)


class _ModularGainState(GainState):
    """Modular gains are table lookups: f(p + (e, i)) - f(p) = table[e][i-1].

    They never change, so every pair bound is exact from a row's first
    pricing on, and the row bounds are the row maxima, taken once per
    state with their first positions.  A first pricing charges k EO calls
    and a re-price 1, the cost of :meth:`GainState._price` on exact bounds
    (its first pair is the row's best, and every later bound is below it
    or equal at a higher position); both are lookups.
    """

    def __init__(self, f: ModularFunction, counters: Optional[OracleCounters] = None):
        super().__init__(f, counters)
        self.row_best = self._bound = list(map(max, f.table))
        self.row_pos = [row.index(gain) + 1 for row, gain in zip(f.table, self.row_best)]

    def _best(self, e: int) -> tuple[float, int]:
        self._charge(self.f.k)
        return self.row_best[e], self.row_pos[e]

    def _price(self, e: int, bar: float) -> tuple[float, int]:
        self._charge(1)
        return self.row_best[e], self.row_pos[e]

    def _bests(self, elements: Sequence[int]) -> list[float]:
        self._charge(self.f.k * len(elements))
        return list(map(self.row_best.__getitem__, elements))


class _CoverageGainState(GainState):
    """Keeps the covered points as a bitmask; a gain weighs only new points.

    :meth:`_gain` weighs one pair's new points, so threshold's visits walk
    the pair bounds as :meth:`GainState._price` does.  Lazy greedy runs as
    a walk instead of the default heap loop.  ``candidates`` lists the
    run's candidates, ascending.  :meth:`_next_best` walks them by
    descending row bound (ascending element among equal bounds), testing
    and weighing each whole row, and stops at the first bound below the
    best gain found, or equal to it at a larger element.  That visits the
    rows the heap loop visits, in the same order, so it picks the same
    candidate and charges the same IO and EO calls.
    """

    def __init__(self, f: CoverageFunction, counters: Optional[OracleCounters] = None):
        super().__init__(f, counters)
        self.covered = 0
        self._free = ~0  # the points not covered
        self._masks, self._weigh = f._masks, f._weight

    def _best(self, e: int) -> tuple[float, int]:
        self._charge(self.f.k)
        weight, free = self.f._weight, self._free
        gains = self._pairs[e] = [weight(mask & free) for mask in self.f._masks[e]]
        gain = self._bound[e] = max(gains)
        return gain, gains.index(gain) + 1

    def _gain(self, e: int, i: int) -> float:
        if self.counters is not None:
            self.counters.eo_calls += 1
        return self._weigh(self._masks[e][i - 1] & self._free)

    def _first_best(self, elements: Sequence[int]) -> Optional[tuple[int, int, float]]:
        self._charge(self.f.k * len(elements))
        weight, masks, free = self.f._weight, self.f._masks, self._free
        pairs, bound = self._pairs, self._bound
        self.candidates = sorted(elements)
        choice = None
        for e in self.candidates:
            gains = pairs[e] = [weight(mask & free) for mask in masks[e]]
            gain = bound[e] = max(gains)
            if choice is None or gain > choice[2]:
                choice = e, gains.index(gain) + 1, gain
        if choice is not None:
            self.candidates.remove(choice[0])
        return choice

    def _next_best(self, can_add: Callable[[int], bool]) -> Optional[tuple[int, int, float]]:
        weight, masks, free = self.f._weight, self.f._masks, self._free
        pairs, bound = self._pairs, self._bound
        candidates = self.candidates
        best_gain, best_e, weighed, dropped = -math.inf, -1, 0, []
        for e in sorted(candidates, key=bound.__getitem__, reverse=True):  # stable
            b = bound[e]
            if b < best_gain or (b == best_gain and e > best_e):
                break
            if not can_add(e):
                dropped.append(e)
                continue
            weighed += 1
            gains = pairs[e] = [weight(mask & free) for mask in masks[e]]
            gain = bound[e] = max(gains)
            if gain > best_gain or (gain == best_gain and e < best_e):
                best_gain, best_e, best_gains = gain, e, gains
        self._charge(self.f.k * weighed)
        for e in dropped:
            candidates.remove(e)
        if best_e < 0:
            return None
        candidates.remove(best_e)
        return best_e, best_gains.index(best_gain) + 1, best_gain

    def place(self, e: int, i: int, gain: float) -> None:
        super().place(e, i, gain)
        self.covered |= self.f._masks[e][i - 1]
        self._free = ~self.covered


class ExplicitTableFunction(KSubFunction):
    """Function given by a full value table over all (k+1)^n assignments.

    The table is indexed by the assignment code sum(labels[e] * (k+1)**e)
    of :func:`ksubmax.core._code_steps`, and is the function's
    :meth:`_code_values` list; the all-zero assignment sits at index 0 and
    must evaluate to 0.  No k-submodularity check is performed at
    construction, so deliberately corrupted tables can be built and fed to
    the verifiers.  Values must be ints or floats (TypeError otherwise)
    and sum-exact (see :func:`ksubmax.core._sum_exact`) at the magnitude
    ``max(abs(v) for v in values)``.
    """

    def __init__(self, n: int, k: int, values: Sequence[float]):
        super().__init__(n, k)
        values = tuple(values)
        # (k+1)^n >= 2^n exceeds the length once n reaches its bit length;
        # checking that first keeps a huge n from building a huge power
        if n >= len(values).bit_length() or len(values) != (k + 1) ** n:
            raise ValueError(f"value table has {len(values)} entries, expected (k+1)^n "
                             f"for n={n}, k={k}")
        (self.values,), _ = _sum_exact((values,), "values[{1}]", "values must be numbers",
                                       lambda rows: (max(max(rows[0]), -min(rows[0])),))
        if self.values[0] != 0.0:
            raise ValueError(f"value at the empty assignment must be 0, got {self.values[0]}")
        self._steps = _code_steps(n, k)

    @classmethod
    def tabulate(cls, f: KSubFunction) -> "ExplicitTableFunction":
        """Materialize any function into an explicit table: ``f._code_values()``,
        so every entry is bit for bit ``f._value`` of its assignment."""
        return cls(f.n, f.k, f._code_values())

    def _value(self, a: Assignment) -> float:
        return self.values[sum(map(operator.mul, a.labels, self._steps))]

    def _support_step(self, block: tuple[list, list], e: int) -> tuple[list, list]:
        codes = _child_codes(block[0], e, self.k)
        return codes, list(map(self.values.__getitem__, codes))

    def _code_values(self) -> Sequence[float]:
        return self.values

    def __eq__(self, other):
        return (
            isinstance(other, ExplicitTableFunction)
            and self.n == other.n
            and self.k == other.k
            and self.values == other.values
        )

    def __hash__(self):
        return hash(("explicit", self.n, self.k, self.values))

    def __repr__(self):
        return f"ExplicitTableFunction(n={self.n}, k={self.k})"


@dataclass
class InstanceSpec:
    """A solvable problem instance: function, matroid, and metadata."""

    n: int
    k: int
    function: KSubFunction
    matroid: Matroid
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.function.n != self.n or self.function.k != self.k:
            raise ValueError(
                f"function shape (n={self.function.n}, k={self.function.k}) "
                f"does not match declared (n={self.n}, k={self.k})"
            )
        if self.matroid.ground_size != self.n:
            raise ValueError(
                f"matroid ground set ({self.matroid.ground_size}) does not "
                f"match declared n={self.n}"
            )


# ---------------------------------------------------------------------------
# Random generators.  Values land on the 1/64 grid.
# ---------------------------------------------------------------------------

def _rng(seed: int) -> random.Random:
    """The generators' random source; seeds are nonnegative integers."""
    _check_seed(seed)
    if seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
    return random.Random(seed)


def _grid_range(lo: float, hi: float) -> tuple[int, int]:
    """The integers ``lo64..hi64`` whose 1/64 multiples lie in ``[lo, hi]``;
    ValueError when the range is too wide for the grid or holds no point."""
    if not math.isfinite(lo * VALUE_GRID) or not math.isfinite(hi * VALUE_GRID):
        raise ValueError(f"value range [{lo}, {hi}] is too wide for the 1/{VALUE_GRID} grid")
    lo64 = math.ceil(lo * VALUE_GRID)
    hi64 = math.floor(hi * VALUE_GRID)
    if hi64 < lo64:
        raise ValueError(f"empty value range [{lo}, {hi}] on the 1/{VALUE_GRID} grid")
    return lo64, hi64


def gen_modular(
    n: int,
    k: int,
    value_range: tuple[float, float] = (-2.0, 4.0),
    monotone: bool = True,
    seed: int = 0,
) -> ModularFunction:
    """Random modular function with certified k-submodularity.

    Monotone instances draw every entry nonnegative.  Non-monotone ones
    draw from the full range and rejection-sample each row until its
    pairwise entry sums are nonnegative, so negative marginals occur while
    k-submodularity is preserved.  The value range is checked once per
    call, each row takes ``k`` grid integers from one
    :func:`ksubmax.core.uniform_draws` stream (the draws of ``k``
    ``randint`` calls), and only a row that can hold a negative pairwise
    sum is sorted and tested.
    ``monotone`` must be a bool and ``value_range`` a pair of ints or
    floats (a bool is neither); anything else is refused with TypeError
    before any draw.
    """
    _check_ground_size(n)
    _check_k(k)
    if type(monotone) is not bool:
        raise TypeError(f"monotone must be a bool, got {monotone!r}")
    if not (isinstance(value_range, (tuple, list)) and len(value_range) == 2
            and _typed(value_range, NUMBERS)):
        raise TypeError(f"value_range must be a pair of numbers, got {value_range!r}")
    if n < 1:
        raise ValueError("n and k must be at least 1")
    lo, hi = value_range
    if monotone:
        lo = max(lo, 0.0)
    if hi < lo:
        raise ValueError(f"impossible value range for monotone={monotone}: ({lo}, {hi})")
    if not monotone and k >= 2 and 2 * hi < 0:
        raise ValueError("pairwise sums cannot be nonnegative with an all-negative range")
    rng = _rng(seed)
    lo64, hi64 = _grid_range(lo, hi)
    draws = map(lo64.__add__, uniform_draws(rng, hi64 - lo64 + 1))  # randint(lo64, hi64)
    grid = itertools.repeat(VALUE_GRID)
    tested = k >= 2 and lo64 < 0  # else no pairwise sum can be negative
    table = []
    for _ in range(n):
        for _ in range(10_000):
            row = list(map(operator.truediv, itertools.islice(draws, k), grid))
            if not tested:
                break
            ordered = sorted(row)
            if ordered[0] + ordered[1] >= 0:
                break
        else:
            raise ValueError(f"could not sample a valid row for range ({lo}, {hi})")
        table.append(row)
    return ModularFunction(table)


def gen_coverage(
    n: int,
    k: int,
    universe_size: int,
    density: float,
    seed: int = 0,
) -> CoverageFunction:
    """Random weighted coverage function (monotone by construction).

    Weights are uniform on the 1/64 grid in [0, 1]; each universe point
    joins each (element, position) cover set independently with the given
    density.  density == 0 yields the all-zero function.

    The draw contract: ``random.Random(seed)`` gives the ``universe_size``
    weights as ``randint(0, 64)`` draws divided by 64, taken from one
    :func:`ksubmax.core.uniform_draws` stream, and then one ``random()``
    per (element, position, point), in that order, the point joining the
    set when the draw is below ``density``.  The memberships are drawn in
    bulk, one element's ``k * universe_size`` draws at a time, by
    :func:`ksubmax.core._bernoulli_flags`, which gives bit for bit the
    flags of those ``random()`` calls; each cover set reaches
    :class:`CoverageFunction` as a hex bitmask string.
    """
    _check_ground_size(n)
    _check_k(k)
    _check_ints((universe_size,), "universe_size must be an integer")
    if type(density) not in NUMBERS:
        raise TypeError(f"density must be a number, got {density!r}")
    if n < 1 or universe_size < 1:
        raise ValueError("n, k and universe_size must be at least 1")
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must lie in [0, 1], got {density}")
    rng = _rng(seed)
    weights = list(map(operator.truediv,  # randint(0, VALUE_GRID) each
                       itertools.islice(uniform_draws(rng, VALUE_GRID + 1), universe_size),
                       itertools.repeat(VALUE_GRID)))
    starts = range(0, k * universe_size, universe_size)
    sets = []
    for _ in range(n):
        flags = _bernoulli_flags(rng, density, k * universe_size)
        sets.append([format(_bitmask(flags[s:s + universe_size]), "x") for s in starts])
    return CoverageFunction(weights, sets)


def gen_partition_matroid(n: int, seed: int = 0, max_blocks: int = 4) -> PartitionMatroid:
    """Random partition matroid: random blocks, random per-block capacities."""
    _check_ground_size(n)
    _check_ints((max_blocks,), "max_blocks must be an integer")
    if n < 1:
        raise ValueError("n must be at least 1")
    if max_blocks < 1:
        raise ValueError(f"max_blocks must be at least 1, got {max_blocks}")
    rng = _rng(seed)
    n_blocks = rng.randint(1, max_blocks)
    blocks: list[list[int]] = [[] for _ in range(n_blocks)]
    # element e's block is the e-th draw, as n randrange(n_blocks) calls give
    for e, j in enumerate(itertools.islice(uniform_draws(rng, n_blocks), n)):
        blocks[j].append(e)
    blocks = [b for b in blocks if b]
    caps = [rng.randint(0, len(b)) for b in blocks]
    return PartitionMatroid(n, blocks, caps)


def gen_explicit_matroid(n: int, seed: int = 0) -> ExplicitMatroid:
    """Random explicit matroid from forests of a random multigraph.

    Ground-set elements are edges; a subset is independent iff it is
    acyclic.  Self-loops (always dependent singletons) occur naturally.
    The forests are grown, not tested: each one extends a smaller forest
    by a later edge that joins two of its components, and its component
    labels are the parent's with one component relabelled, so each forest
    is reached once, from itself less its last edge.  Limited to
    ``n <= 10``: the family can hold all ``2^n`` subsets (when the edges
    form a forest), and ``ExplicitMatroid`` validates augmentation on
    every pair of listed sets of adjacent sizes, ``C(2n, n + 1)`` pairs
    for all subsets, so each further element multiplies that work about
    fourfold.
    """
    _check_ground_size(n)
    if not 1 <= n <= 10:
        raise ValueError("explicit matroid generation supports 1 <= n <= 10")
    rng = _rng(seed)
    n_vertices = rng.randint(2, n + 1)
    edges = [(rng.randrange(n_vertices), rng.randrange(n_vertices)) for _ in range(n)]
    labels = [bytes((v,)) for v in range(n_vertices)]
    family = []
    # (forest mask, first edge it may grow by, each vertex's component label)
    stack = [(0, 0, bytes(range(n_vertices)))]
    while stack:
        mask, first, components = stack.pop()
        family.append(mask)
        for e in range(first, n):
            u, v = edges[e]
            a, b = components[u], components[v]
            if a != b:
                stack.append((mask | 1 << e, e + 1, components.replace(labels[a], labels[b])))
    family.sort()
    return ExplicitMatroid(n, family)


# ---------------------------------------------------------------------------
# Instance file format (JSON).
# ---------------------------------------------------------------------------

def _function_to_doc(f: KSubFunction) -> dict:
    if isinstance(f, ModularFunction):
        return {"modular": {"table": [list(row) for row in f.table]}}
    if isinstance(f, CoverageFunction):
        return {
            "coverage": {
                "weights": list(f.weights),
                "sets": [[format(mask, "x") for mask in row] for row in f._masks],
            }
        }
    if isinstance(f, ExplicitTableFunction):
        return {"explicit": {"values": list(f.values)}}
    raise ValueError(f"cannot serialize function of type {type(f).__name__}")


def _matroid_to_doc(m: Matroid) -> dict:
    if isinstance(m, UniformMatroid):
        return {"uniform": m.budget}
    if isinstance(m, PartitionMatroid):
        return {
            "partition": {
                "blocks": [list(b) for b in m.blocks],
                "caps": list(m.capacities),
            }
        }
    if isinstance(m, ExplicitMatroid):
        return {"explicit": sorted(m.family)}
    raise ValueError(f"cannot serialize matroid of type {type(m).__name__}")


def serialize_instance(spec: InstanceSpec) -> str:
    """Render an instance as a JSON document (inverse of parse_instance).

    The document is one line, written by the C encoder, plus a newline.
    Coverage cover sets are written as lowercase hex bitmask strings.
    """
    doc = {
        "n": spec.n,
        "k": spec.k,
        "function": _function_to_doc(spec.function),
        "matroid": _matroid_to_doc(spec.matroid),
    }
    if spec.metadata:
        doc["metadata"] = spec.metadata
    return json.dumps(doc) + "\n"


def _require(doc: dict, key: str, where: str):
    """``doc[key]``, refusing a ``doc`` that is not an object and a missing key."""
    if not isinstance(doc, dict):
        raise InstanceFormatError(f"{where}: expected an object, got {type(doc).__name__}")
    if key not in doc:
        raise InstanceFormatError(f"{where}: missing required field '{key}'")
    return doc[key]


# The builders of each family, by the tag that names it in the document;
# each makes its object from the tagged body and the declared n and k.
_FUNCTION_BUILDERS = {
    "modular": lambda body, n, k: ModularFunction(_require(body, "table", "function.modular")),
    "coverage": lambda body, n, k: CoverageFunction(_require(body, "weights", "function.coverage"),
                                                    _require(body, "sets", "function.coverage")),
    "explicit": lambda body, n, k: ExplicitTableFunction(
        n, k, _require(body, "values", "function.explicit")),
}
_MATROID_BUILDERS = {
    "uniform": lambda body, n, k: UniformMatroid(n, body),
    "partition": lambda body, n, k: PartitionMatroid(
        n, _require(body, "blocks", "matroid.partition"),
        _require(body, "caps", "matroid.partition")),
    "explicit": lambda body, n, k: ExplicitMatroid(n, body),
}


def _parse_family(doc, what: str, builders: dict, n: int, k: int):
    """Build the ``what`` part of an instance (``"function"`` or
    ``"matroid"``) from its document, a one-key object tagged by family.

    Anything but a one-key object, or a tag missing from ``builders``, is
    refused with :class:`InstanceFormatError` naming ``what``.  The tag's
    builder gets the body with ``n`` and ``k``; a ``TypeError`` or
    ``ValueError`` from the constructor is reported as
    ``"<what>.<tag>: <message>"``, and a missing field, already an
    :class:`InstanceFormatError`, passes through as it is.  The parser
    makes no type test of the body: the constructors make them all.
    """
    if not isinstance(doc, dict) or len(doc) != 1:
        choices = ", ".join(f"'{tag}'" for tag in builders)
        raise InstanceFormatError(f"{what}: expected exactly one of {choices}")
    (tag, body), = doc.items()
    if tag not in builders:
        raise InstanceFormatError(f"{what}: unknown family '{tag}'")
    try:
        return builders[tag](body, n, k)
    except InstanceFormatError:
        raise
    except (TypeError, ValueError) as err:
        raise InstanceFormatError(f"{what}.{tag}: {err}") from err


def load_json(text: str):
    """``json.loads`` that fails only with :class:`InstanceFormatError`.

    Besides malformed JSON (reported with its position) this covers the
    two documents ``json`` refuses with other errors: an integer literal
    past the interpreter's digit limit and nesting deeper than the
    recursion limit.
    """
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise InstanceFormatError(
            f"line {err.lineno} column {err.colno}: {err.msg}"
        ) from err
    except (ValueError, RecursionError) as err:
        raise InstanceFormatError(f"unreadable JSON: {err}") from err


def parse_instance(text: str) -> InstanceSpec:
    """Parse an instance document.

    Grammar (JSON): an object with integer fields ``n`` and ``k``, a
    ``function`` object tagged ``modular`` (row-major n x k ``table``),
    ``coverage`` (``weights`` plus one cover set ``sets[e][i]`` per element
    and position, a list of point indices or a lowercase hex string of the
    point bitmask, bit ``u`` for point ``u``; ``serialize_instance`` writes
    the bitmask) or
    ``explicit`` (flat ``values`` of length (k+1)^n indexed by
    sum(labels[e] * (k+1)**e)), a ``matroid`` object tagged ``uniform``
    (budget), ``partition`` (``blocks``/``caps``) or ``explicit`` (bitmask
    list), and an optional ``metadata`` object.  Malformed JSON yields a
    position-annotated error; inconsistent dimensions name the offending
    field.
    """
    doc = load_json(text)
    if not isinstance(doc, dict):
        raise InstanceFormatError("top level: expected an object")
    n = _require(doc, "n", "top level")
    k = _require(doc, "k", "top level")
    if type(n) is not int or n < 0:
        raise InstanceFormatError(f"n: expected a nonnegative integer, got {n!r}")
    if type(k) is not int or k < 1:
        raise InstanceFormatError(f"k: expected a positive integer, got {k!r}")
    fn = _parse_family(_require(doc, "function", "top level"), "function",
                       _FUNCTION_BUILDERS, n, k)
    matroid = _parse_family(_require(doc, "matroid", "top level"), "matroid",
                            _MATROID_BUILDERS, n, k)
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise InstanceFormatError("metadata: expected an object")
    try:
        return InstanceSpec(n=n, k=k, function=fn, matroid=matroid, metadata=metadata)
    except ValueError as err:
        raise InstanceFormatError(str(err)) from err
