"""Independence oracles for matroid constraints.

Three families are shipped: uniform (cardinality bound), partition
(per-block capacities) and explicit (a literal list of independent sets,
validated against the matroid axioms at construction).  Every counted call
to :meth:`Matroid.is_independent` tallies one IO call, which is the unit
the solvers' query-complexity assertions are written in.

Solvers that grow one independent support test extensions through an
:class:`IndependenceState` from :meth:`Matroid.independence_state`: one
``can_add`` is one counted IO call, answered in constant time by the
shipped families, and the batched ``_feasible`` and ``_extend`` test a
whole list in one pass at one IO call per element.

Subsets are plain Python sets of element indices at the API boundary; the
explicit family stores bitmasks internally.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from functools import partial
from typing import Iterable, Optional, Sequence

from .core import INTS, OracleCounters, _check_element, _check_ground_size, _typed
from .verify import DEFAULT_PAIR_BUDGET, Verdict, _check_sampling


class Matroid(ABC):
    """Independence-oracle interface over the ground set {0, ..., n-1}."""

    ground_size: int

    @abstractmethod
    def _independent(self, subset: frozenset[int]) -> bool:
        """Raw independence test; no counting."""

    def is_independent(
        self, subset: Iterable[int], counters: Optional[OracleCounters] = None
    ) -> bool:
        """Counted independence test (one IO call when counters are given) of
        a set of ``int`` elements of the ground set."""
        fs = frozenset(subset)
        n = self.ground_size
        for e in fs:
            _check_element(e, n)
        if counters is not None:
            counters.io_calls += 1
        return self._independent(fs)

    def independence_state(
        self, counters: Optional[OracleCounters] = None
    ) -> "IndependenceState":
        """A running independent support, starting empty; see :class:`IndependenceState`."""
        return IndependenceState(self, counters)


def _check_ints(values: tuple, rule: str) -> None:
    """Refuse ``values`` with TypeError, after ``rule``, unless each is of type ``int``."""
    if not _typed(values, INTS):
        raise TypeError(f"{rule}, got {next(v for v in values if type(v) is not int)!r}")


class IndependenceState:
    """Running independent support of one solver run, with counted tests.

    Starts at the empty support.  :meth:`can_add` answers
    ``m.is_independent(support | {e})`` at 1 IO call, and :meth:`add`
    commits an element that is new and passes that test; anything else
    raises ``ValueError`` (``TypeError`` for a non-``int`` element) and
    leaves the state as it was.  ``support`` is the set of added
    elements; only :meth:`add` and :meth:`_extend` may change it.  The
    solvers test the elements they walk, all in range by construction,
    through the unchecked :meth:`_can_add` and its batched forms:
    :meth:`_feasible` (the elements of a list that fit; one greedy
    iteration) and :meth:`_extend` (greedy extension along an order; the
    rank scan).  A batched call charges what its per-element loop charges,
    1 IO call per element tested.

    This default tests through :meth:`Matroid.is_independent`, so it works
    for every matroid and costs time linear in the support per test; it is
    the reference path, and its batched calls are the per-element loops.
    The shipped families override :meth:`Matroid.independence_state` with
    states that answer in constant time from a running count, per-block
    room or bitmask, and a whole list in one pass.  Both paths give the
    same answers and the same IO counts.
    """

    def __init__(self, m: Matroid, counters: Optional[OracleCounters] = None):
        self.m = m
        self.counters = counters
        self.support: set[int] = set()

    def can_add(self, e: int) -> bool:
        """Whether ``support | {e}`` is independent; 1 IO call."""
        _check_element(e, self.m.ground_size)
        return self._can_add(e)

    def _can_add(self, e: int) -> bool:
        """:meth:`can_add` without the check of ``e``, which must be an
        ``int`` in the ground set; the solvers call this on the elements
        they walk."""
        if self.counters is not None:
            self.counters.io_calls += 1
        return self._fits(e) or e in self.support

    def _feasible(self, elements: Sequence[int]) -> list[int]:
        """The elements that :meth:`_can_add` accepts, in order; 1 IO call per
        element.  The elements must be ``int`` elements of the ground set.

        This default makes one :meth:`_can_add` call per element and is the
        reference; the families override it with one pass over the list.
        """
        can_add = self._can_add
        return [e for e in elements if can_add(e)]

    def _extend(self, order: Sequence[int]) -> list[int]:
        """Greedy extension: add each element of ``order`` that fits, in
        turn, and return the added elements in order; 1 IO call per element.
        ``order`` must list distinct ``int`` elements of the ground set
        outside the support.

        This default makes one :meth:`_can_add` and, on success, one
        :meth:`add` per element and is the reference; the families override
        it with one pass over the list.
        """
        added = []
        for e in order:
            if self._can_add(e):
                self.add(e)
                added.append(e)
        return added

    def _charge_tests(self, count: int) -> None:
        """For overrides of :meth:`_feasible` and :meth:`_extend`: count
        ``count`` IO calls, one per element tested."""
        if self.counters is not None:
            self.counters.io_calls += count

    def add(self, e: int) -> None:
        """Put ``e`` into the support; it must be new and pass :meth:`can_add`."""
        _check_element(e, self.m.ground_size)
        if e in self.support:
            raise ValueError(f"element {e} is already in the support")
        if not self._fits(e):
            raise ValueError(f"adding element {e} makes the support dependent")
        self.support.add(e)

    def _fits(self, e: int) -> bool:
        """Uncounted test of ``support | {e}`` for ``e`` in range and outside
        the support; families override this and, to keep their running
        state, :meth:`add`."""
        return self.m.is_independent(self.support | {e})


@dataclass(frozen=True)
class UniformMatroid(Matroid):
    """Independent sets are exactly those of size at most ``budget``."""

    ground_size: int
    budget: int

    def __post_init__(self):
        _check_ground_size(self.ground_size)
        _check_ints((self.budget,), "budget must be an integer")
        if self.budget < 0:
            raise ValueError("budget must be nonnegative")

    def _independent(self, subset: frozenset[int]) -> bool:
        return len(subset) <= self.budget

    def independence_state(
        self, counters: Optional[OracleCounters] = None
    ) -> IndependenceState:
        return _UniformIndependenceState(self, counters)


class _UniformIndependenceState(IndependenceState):
    """A support is independent while it has at most ``budget`` elements."""

    def _fits(self, e: int) -> bool:
        return len(self.support) < self.m.budget

    def _feasible(self, elements: Sequence[int]) -> list[int]:
        self._charge_tests(len(elements))
        if len(self.support) < self.m.budget:
            return list(elements)
        return list(filter(self.support.__contains__, elements))

    def _extend(self, order: Sequence[int]) -> list[int]:
        self._charge_tests(len(order))
        added = list(order[:max(0, self.m.budget - len(self.support))])
        self.support.update(added)
        return added


@dataclass(frozen=True)
class PartitionMatroid(Matroid):
    """At most ``capacities[j]`` elements may be chosen from ``blocks[j]``.

    Blocks must partition the ground set.  Block contents are normalized to
    sorted tuples so equal matroids compare equal.  The ground size, block
    elements and capacities must be ``int``s (a bool is not; TypeError).
    """

    ground_size: int
    blocks: tuple[tuple[int, ...], ...]
    capacities: tuple[int, ...]
    _block_of: dict = field(init=False, repr=False, compare=False)

    def __init__(self, ground_size, blocks, capacities):
        _check_ground_size(ground_size)
        blocks = tuple(map(tuple, blocks))
        for block in blocks:
            _check_ints(block, "block elements must be integers")
        capacities = tuple(capacities)
        _check_ints(capacities, "caps must be integers")
        object.__setattr__(self, "ground_size", ground_size)
        object.__setattr__(self, "blocks", tuple(map(tuple, map(sorted, blocks))))
        object.__setattr__(self, "capacities", capacities)
        if len(blocks) != len(capacities):
            raise ValueError(f"{len(blocks)} blocks but {len(capacities)} capacities")
        if any(c < 0 for c in capacities):
            raise ValueError("capacities must be nonnegative")
        block_of = {}
        for j, block in enumerate(self.blocks):
            for e in block:
                _check_element(e, ground_size)
                if e in block_of:
                    raise ValueError(f"element {e} appears in more than one block")
                block_of[e] = j
        if len(block_of) != ground_size:
            missing = sorted(set(range(ground_size)) - set(block_of))
            raise ValueError(f"blocks do not cover the ground set; missing {missing}")
        object.__setattr__(self, "_block_of", block_of)

    def _independent(self, subset: frozenset[int]) -> bool:
        counts = [0] * len(self.blocks)
        for e in subset:
            counts[self._block_of[e]] += 1
        return all(c <= cap for c, cap in zip(counts, self.capacities))

    def independence_state(
        self, counters: Optional[OracleCounters] = None
    ) -> IndependenceState:
        return _PartitionIndependenceState(self, counters)


class _PartitionIndependenceState(IndependenceState):
    """Keeps the room left in each block; ``e`` fits while its block has room."""

    def __init__(self, m: PartitionMatroid, counters: Optional[OracleCounters] = None):
        super().__init__(m, counters)
        self.block_of = m._block_of
        self.room = list(m.capacities)

    def _fits(self, e: int) -> bool:
        return self.room[self.block_of[e]] > 0

    def add(self, e: int) -> None:
        super().add(e)
        self.room[self.block_of[e]] -= 1

    def _feasible(self, elements: Sequence[int]) -> list[int]:
        self._charge_tests(len(elements))
        room, block_of, support = self.room, self.block_of, self.support
        return [e for e in elements if room[block_of[e]] or e in support]

    def _extend(self, order: Sequence[int]) -> list[int]:
        self._charge_tests(len(order))
        room, block_of = self.room, self.block_of
        added = []
        for e in order:
            j = block_of[e]
            if room[j]:
                room[j] -= 1
                added.append(e)
        self.support.update(added)
        return added


def _mask_of(subset: Iterable[int]) -> int:
    mask = 0
    for e in subset:
        mask |= 1 << e
    return mask


def _set_of(mask: int) -> frozenset[int]:
    out = set()
    while mask:
        low = mask & -mask
        out.add(low.bit_length() - 1)
        mask ^= low
    return frozenset(out)


MAX_EXPLICIT_GROUND = 16


@dataclass(frozen=True)
class ExplicitMatroid(Matroid):
    """Matroid given by a literal family of independent sets (as bitmasks).

    The family is validated eagerly against all three axioms (contains the
    empty set, downward closed, augmentation between families of adjacent
    sizes, which implies the general exchange axiom); invalid families are
    rejected.  Limited to ground sets of at most 16 elements.  The ground
    size and the bitmasks must be of type ``int`` (TypeError otherwise).
    """

    ground_size: int
    family: frozenset[int]

    def __init__(self, ground_size, family):
        _check_ground_size(ground_size)
        family = tuple(family)
        _check_ints(family, "bitmasks must be integers")
        if ground_size > MAX_EXPLICIT_GROUND:
            raise ValueError(f"explicit matroid supports 0 <= n <= {MAX_EXPLICIT_GROUND}, "
                             f"got {ground_size}")
        object.__setattr__(self, "ground_size", ground_size)
        object.__setattr__(self, "family", frozenset(family))
        for mask in self.family:
            if mask >> ground_size:
                raise ValueError(f"bitmask {mask} uses elements outside 0..{ground_size - 1}")
        violation, _ = _axiom_violation(sorted(self.family))
        if violation is not None:
            axiom, *masks = violation
            raise ValueError("family violates " + {
                "axiom-a": "axiom (a): empty set missing",
                "axiom-b": "axiom (b): {1} missing although superset {0} is listed",
                "axiom-c": "axiom (c): {0} cannot be augmented from {1}",
            }[axiom].format(*masks))

    @classmethod
    def from_sets(cls, ground_size: int, sets: Iterable[Iterable[int]]) -> "ExplicitMatroid":
        sets = tuple(map(tuple, sets))
        for s in sets:
            _check_ints(s, "set elements must be integers")
        return cls(ground_size, map(_mask_of, sets))

    def _independent(self, subset: frozenset[int]) -> bool:
        return _mask_of(subset) in self.family

    def independence_state(
        self, counters: Optional[OracleCounters] = None
    ) -> IndependenceState:
        return _ExplicitIndependenceState(self, counters)


class _ExplicitIndependenceState(IndependenceState):
    """Keeps the support as a bitmask; ``e`` fits if the extended mask is listed."""

    def __init__(self, m: ExplicitMatroid, counters: Optional[OracleCounters] = None):
        super().__init__(m, counters)
        self.mask = 0

    def _fits(self, e: int) -> bool:
        return (self.mask | 1 << e) in self.m.family

    def add(self, e: int) -> None:
        super().add(e)
        self.mask |= 1 << e

    def _feasible(self, elements: Sequence[int]) -> list[int]:
        self._charge_tests(len(elements))
        family, mask = self.m.family, self.mask
        return [e for e in elements if (mask | 1 << e) in family]

    def _extend(self, order: Sequence[int]) -> list[int]:
        self._charge_tests(len(order))
        family, mask = self.m.family, self.mask
        added = []
        for e in order:
            if (mask | 1 << e) in family:
                mask |= 1 << e
                added.append(e)
        self.mask = mask
        self.support.update(added)
        return added


def greedy_basis(
    m: Matroid,
    order: Iterable[int],
    counters: Optional[OracleCounters] = None,
) -> list[int]:
    """Basis built by greedy extension, visiting elements in ``order``.

    ``order`` must list every element once; an element that is not an
    ``int`` (TypeError), is out of range or is listed twice (ValueError)
    is refused before any test.  One batched
    :meth:`IndependenceState._extend` on a fresh
    :meth:`Matroid.independence_state` tests the elements in turn, so it
    charges exactly n counted independence tests, one per element as the
    per-element loop does (one pass over the list for the shipped
    families), and returns the accepted elements in visit order.  Every
    test before the first acceptance is a singleton test, so the first
    accepted element is the first independent singleton in ``order``.
    """
    order = list(order)
    n = m.ground_size
    if not (_typed(order, INTS) and min(order, default=0) >= 0 and max(order, default=-1) < n):
        for e in order:
            _check_element(e, n)
    if len(set(order)) != len(order):
        seen = set()
        for e in order:
            if e in seen:
                raise ValueError(f"element {e} is listed twice in the order")
            seen.add(e)
    return m.independence_state(counters)._extend(order)


def rank(m: Matroid, counters: Optional[OracleCounters] = None) -> int:
    """Size of a maximal independent set, by greedy extension over 0..n-1.

    The extension of :func:`greedy_basis` in index order, without its
    checks (``range(n)`` needs none): one batched
    :meth:`IndependenceState._extend`, exactly n counted independence
    tests, in time linear in n for the shipped families.
    """
    return len(m.independence_state(counters)._extend(range(m.ground_size)))


def feasible_extensions(
    m: Matroid,
    support: Iterable[int],
    counters: Optional[OracleCounters] = None,
) -> frozenset[int]:
    """Elements outside ``support`` that keep it independent when added.

    Requires ``support`` itself to be independent (checked without touching
    the counters); then issues exactly one counted IO call per element
    outside the support.  The tests are one batched
    :meth:`IndependenceState._feasible` on a
    :meth:`Matroid.independence_state` holding the support, so the shipped
    families take time linear in n plus the support size.
    """
    supp = frozenset(support)
    if not m.is_independent(supp):
        raise ValueError("support is not independent")
    state = m.independence_state(counters)
    for e in supp:
        state.add(e)
    return frozenset(state._feasible([e for e in range(m.ground_size) if e not in supp]))


def check_basis_exchange(m: Matroid, a: Iterable[int], b: Iterable[int], e: int) -> bool:
    """Check the basis-exchange property for one (a, b, e) triple.

    Preconditions: ``a`` independent, ``b`` a basis with ``a`` a proper
    subset, ``e`` outside ``a`` with ``a + {e}`` independent.  Returns
    whether some element of ``b - a`` can be swapped out for ``e`` so the
    result is again a basis.  On a valid matroid this is always true.
    """
    a = frozenset(a)
    b = frozenset(b)
    r = rank(m)
    if not m.is_independent(a):
        raise ValueError("a is not independent")
    if not m.is_independent(b):
        raise ValueError("b is not independent")
    if len(b) != r:
        raise ValueError(f"b is not a basis: size {len(b)} != rank {r}")
    if not a < b:
        raise ValueError("a must be a proper subset of b")
    if e in a:
        raise ValueError(f"element {e} already in a")
    if not m.is_independent(a | {e}):
        raise ValueError(f"a + {{{e}}} is not independent")
    for swapped_out in b - a:
        candidate = (b - {swapped_out}) | {e}
        if len(candidate) == r and m.is_independent(candidate):
            return True
    return False


def _axiom_violation(masks: list[int], pair_budget: Optional[int] = None):
    """First violation of the axioms in a family of bitmasks, and the checks made.

    ``masks`` lists the family ascending, each set once.  Axiom (a) comes
    first: if the empty set is not listed, the violation is
    ``("axiom-a",)`` after 1 check.  Otherwise the checks count those of
    axiom (b), one per set and element, lowest first, then those of axiom
    (c), one per set of size s against one of size s + 1.  The violation
    is then None, ``("axiom-b", mask, mask_without_one)`` or ``("axiom-c",
    small, big)``.  With more than ``pair_budget`` pairs, (c) is left
    untested and the checks are None.

    While it checks (b), each listed set gets its extension mask: the
    elements whose addition gives a listed set.  A small set can be
    augmented from a big one exactly when the two masks meet, so (c) is
    one C-level pass per small set over the bigs; the pairs are walked
    only to name the first big that fails and count its checks.
    """
    extensions = dict.fromkeys(masks, 0)
    if 0 not in extensions:
        return ("axiom-a",), 1
    checks = 0
    for mask in masks:
        rest = mask
        while rest:
            low = rest & -rest
            checks += 1
            sub = mask ^ low
            if sub not in extensions:
                return ("axiom-b", mask, sub), checks
            extensions[sub] |= low
            rest ^= low
    by_size: dict[int, list[int]] = {}
    for mask in masks:
        by_size.setdefault(mask.bit_count(), []).append(mask)
    if pair_budget is not None and pair_budget < sum(
        len(by_size[s]) * len(by_size.get(s + 1, ())) for s in by_size
    ):
        return None, None
    for s in sorted(by_size):
        bigs = by_size.get(s + 1, [])
        for small in by_size[s]:
            meets = extensions[small].__and__
            if not all(map(meets, bigs)):
                t = next(t for t, big in enumerate(bigs) if not meets(big))
                return ("axiom-c", small, bigs[t]), checks + t + 1
            checks += len(bigs)
    return None, checks


def _listed(family: set[int], subset: frozenset[int]) -> bool:
    """Whether ``subset`` is in a family of bitmasks."""
    return _mask_of(subset) in family


def check_matroid_axioms(
    m: Matroid,
    budget: int = DEFAULT_PAIR_BUDGET,
    seed: int = 0,
) -> Verdict:
    """Verify the matroid axioms through the independence oracle.

    Exhaustive when both the subset count 2^n and the number of
    adjacent-size augmentation pairs fit the budget; augmentation between
    sizes s and s+1 suffices because, combined with downward closure, it
    implies the exchange axiom for arbitrary size gaps.  Beyond the budget
    the axioms are spot-checked on random subsets and flagged as sampled.
    Whenever 2^n fits the budget, the 2^n subsets are listed first with the
    uncounted ``m._independent``; if the augmentation pairs then do not
    fit, the sampled tests are answered by bitmask membership in that
    list, so the oracle is asked 2^n times in all.  The samples draw
    subsets and elements as they do without the list, so the verdict is
    the same either way.  The budget must be at least 1 and the seed an
    ``int``, as for the verifiers in :mod:`ksubmax.verify`, so no verdict
    rests on zero checks; it defaults to theirs,
    ``verify.DEFAULT_PAIR_BUDGET``, which is also the budget of ``ksubmax
    verify`` without ``--sample``.
    """
    _check_sampling(budget, seed)
    n = m.ground_size
    independent = m.is_independent
    if 2**n <= budget:
        independents = [mask for mask in range(1 << n) if m._independent(_set_of(mask))]
        violation, checks = _axiom_violation(independents, budget)
        if violation == ("axiom-a",):
            return Verdict(False, violation, exhaustive=True, checked=checks)
        if checks is not None:
            if violation is not None:
                violation = (violation[0], _set_of(violation[1]), _set_of(violation[2]))
            return Verdict(violation is None, violation, exhaustive=True,
                           checked=(1 << n) + checks)
        independent = partial(_listed, set(independents))

    rng = random.Random(seed)
    if not independent(frozenset()):
        return Verdict(False, ("axiom-a",), exhaustive=False, checked=1)
    checked = 1
    while checked < budget:
        checked += 1
        subset = frozenset(e for e in range(n) if rng.random() < 0.5)
        if independent(subset) and subset:
            e = rng.choice(sorted(subset))
            if not independent(subset - {e}):
                return Verdict(
                    False, ("axiom-b", subset, subset - {e}),
                    exhaustive=False, checked=checked,
                )
        other = frozenset(e for e in range(n) if rng.random() < 0.5)
        small, big = sorted((subset, other), key=len)
        if (
            len(small) < len(big)
            and independent(small)
            and independent(big)
        ):
            if not any(independent(small | {e}) for e in big - small):
                return Verdict(
                    False, ("axiom-c", small, big),
                    exhaustive=False, checked=checked,
                )
    return Verdict(True, None, exhaustive=False, checked=checked)
