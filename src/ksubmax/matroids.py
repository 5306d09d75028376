"""Independence oracles for matroid constraints.

Three families are shipped: uniform (cardinality bound), partition
(per-block capacities) and explicit (a literal list of independent sets,
validated against the matroid axioms at construction).  Every counted call
to :meth:`Matroid.is_independent` tallies one IO call, which is the unit
the solvers' query-complexity assertions are written in.

Solvers that grow one independent support test extensions through an
:class:`IndependenceState` from :meth:`Matroid.independence_state`: one
``can_add`` is one counted IO call, answered in constant time by the
shipped families.

Subsets are plain Python sets of element indices at the API boundary; the
explicit family stores bitmasks internally.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .core import OracleCounters
from .verify import Verdict


class Matroid(ABC):
    """Independence-oracle interface over the ground set {0, ..., n-1}."""

    ground_size: int

    @abstractmethod
    def _independent(self, subset: frozenset[int]) -> bool:
        """Raw independence test; no counting."""

    def is_independent(
        self, subset: Iterable[int], counters: Optional[OracleCounters] = None
    ) -> bool:
        """Counted independence test (one IO call when counters are given)."""
        fs = frozenset(subset)
        for e in fs:
            if not 0 <= e < self.ground_size:
                raise _outside(e, self.ground_size)
        if counters is not None:
            counters.io_calls += 1
        return self._independent(fs)

    def independence_state(
        self, counters: Optional[OracleCounters] = None
    ) -> "IndependenceState":
        """A running independent support, starting empty; see :class:`IndependenceState`."""
        return IndependenceState(self, counters)


def _outside(e: int, n: int) -> ValueError:
    return ValueError(f"element {e} outside ground set of size {n}")


class IndependenceState:
    """Running independent support of one solver run, with counted tests.

    Starts at the empty support.  :meth:`can_add` answers
    ``m.is_independent(support | {e})`` at 1 IO call, and :meth:`add`
    commits an element that is new and passes that test; anything else
    raises ``ValueError`` and leaves the state as it was.  ``support`` is
    the set of added elements; only :meth:`add` may change it.

    This default tests through :meth:`Matroid.is_independent`, so it works
    for every matroid and costs time linear in the support per test; it is
    the reference path.  The shipped families override
    :meth:`Matroid.independence_state` with states that answer in constant
    time from a running count, per-block room or bitmask.  Both paths give
    the same answers and the same IO counts.
    """

    def __init__(self, m: Matroid, counters: Optional[OracleCounters] = None):
        self.m = m
        self.counters = counters
        self.support: set[int] = set()

    def can_add(self, e: int) -> bool:
        """Whether ``support | {e}`` is independent; 1 IO call."""
        if not 0 <= e < self.m.ground_size:
            raise _outside(e, self.m.ground_size)
        if self.counters is not None:
            self.counters.io_calls += 1
        return self._fits(e) or e in self.support

    def add(self, e: int) -> None:
        """Put ``e`` into the support; it must be new and pass :meth:`can_add`."""
        if not 0 <= e < self.m.ground_size:
            raise _outside(e, self.m.ground_size)
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
        if self.ground_size < 0:
            raise ValueError("ground_size must be nonnegative")
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


@dataclass(frozen=True)
class PartitionMatroid(Matroid):
    """At most ``capacities[j]`` elements may be chosen from ``blocks[j]``.

    Blocks must partition the ground set.  Block contents are normalized to
    sorted tuples so equal matroids compare equal.
    """

    ground_size: int
    blocks: tuple[tuple[int, ...], ...]
    capacities: tuple[int, ...]
    _block_of: dict = field(init=False, repr=False, compare=False)

    def __init__(self, ground_size, blocks, capacities):
        object.__setattr__(self, "ground_size", int(ground_size))
        object.__setattr__(
            self, "blocks", tuple(tuple(sorted(int(e) for e in b)) for b in blocks)
        )
        object.__setattr__(self, "capacities", tuple(int(c) for c in capacities))
        self.__post_init__()

    def __post_init__(self):
        if len(self.blocks) != len(self.capacities):
            raise ValueError(
                f"{len(self.blocks)} blocks but {len(self.capacities)} capacities"
            )
        if any(c < 0 for c in self.capacities):
            raise ValueError("capacities must be nonnegative")
        block_of = {}
        for j, block in enumerate(self.blocks):
            for e in block:
                if not 0 <= e < self.ground_size:
                    raise ValueError(f"block element {e} outside ground set")
                if e in block_of:
                    raise ValueError(f"element {e} appears in more than one block")
                block_of[e] = j
        if len(block_of) != self.ground_size:
            missing = sorted(set(range(self.ground_size)) - set(block_of))
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
    rejected.  Limited to ground sets of at most 16 elements.
    """

    ground_size: int
    family: frozenset[int]

    def __init__(self, ground_size, family):
        object.__setattr__(self, "ground_size", int(ground_size))
        object.__setattr__(self, "family", frozenset(int(m) for m in family))
        self.__post_init__()

    def __post_init__(self):
        n = self.ground_size
        if not 0 <= n <= MAX_EXPLICIT_GROUND:
            raise ValueError(
                f"explicit matroid supports 0 <= n <= {MAX_EXPLICIT_GROUND}, got {n}"
            )
        full = (1 << n) - 1
        for mask in self.family:
            if mask & ~full:
                raise ValueError(f"bitmask {mask} uses elements outside 0..{n - 1}")
        if 0 not in self.family:
            raise ValueError("family violates axiom (a): empty set missing")
        violation, _ = _axiom_violation(sorted(self.family), self.family)
        if violation is not None:
            axiom, a, b = violation
            if axiom == "axiom-b":
                raise ValueError(
                    f"family violates axiom (b): {b} missing although superset {a} is listed"
                )
            raise ValueError(f"family violates axiom (c): {a} cannot be augmented from {b}")

    @classmethod
    def from_sets(cls, ground_size: int, sets: Iterable[Iterable[int]]) -> "ExplicitMatroid":
        return cls(ground_size, (_mask_of(s) for s in sets))

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


def greedy_basis(
    m: Matroid,
    order: Iterable[int],
    counters: Optional[OracleCounters] = None,
) -> list[int]:
    """Basis built by greedy extension, visiting elements in ``order``.

    ``order`` must list every element once.  Tests each element against
    one :meth:`Matroid.independence_state`, so it issues exactly n counted
    independence tests (constant time each for the shipped families) and
    returns the accepted elements in visit order.  Every test before the
    first acceptance is a singleton test, so the first accepted element is
    the first independent singleton in ``order``.
    """
    state = m.independence_state(counters)
    basis: list[int] = []
    for e in order:
        if state.can_add(e):
            state.add(e)
            basis.append(e)
    return basis


def rank(m: Matroid, counters: Optional[OracleCounters] = None) -> int:
    """Size of a maximal independent set, by greedy extension over 0..n-1.

    Runs :func:`greedy_basis` in index order: exactly n counted
    independence tests, in time linear in n for the shipped families.
    """
    return len(greedy_basis(m, range(m.ground_size), counters))


def feasible_extensions(
    m: Matroid,
    support: Iterable[int],
    counters: Optional[OracleCounters] = None,
) -> frozenset[int]:
    """Elements outside ``support`` that keep it independent when added.

    Requires ``support`` itself to be independent (checked without touching
    the counters); then issues exactly one counted IO call per element
    outside the support.  The tests go through one
    :meth:`Matroid.independence_state` holding the support, so the shipped
    families take time linear in n plus the support size.
    """
    supp = frozenset(support)
    if not m.is_independent(supp):
        raise ValueError("support is not independent")
    state = m.independence_state(counters)
    for e in supp:
        state.add(e)
    return frozenset(
        e for e in range(m.ground_size) if e not in supp and state.can_add(e)
    )


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


def _axiom_violation(
    masks: list[int], family: set[int] | frozenset[int], pair_budget: Optional[int] = None
):
    """First violation of axiom (b) or (c) in a family of bitmasks, and the checks made.

    ``masks`` lists the family ascending; ``family`` answers membership.
    Axiom (b) comes first, one check per set and element, lowest first;
    then axiom (c), one check per set of size s against one of size s + 1.
    The violation is None, ``("axiom-b", mask, mask_without_one)`` or
    ``("axiom-c", small, big)``.  With more than ``pair_budget`` pairs, (c)
    is left untested and the checks are None.
    """
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


def check_matroid_axioms(
    m: Matroid,
    budget: int = 1_000_000,
    seed: int = 0,
) -> Verdict:
    """Verify the matroid axioms through the independence oracle.

    Exhaustive when both the subset count 2^n and the number of
    adjacent-size augmentation pairs fit the budget; augmentation between
    sizes s and s+1 suffices because, combined with downward closure, it
    implies the exchange axiom for arbitrary size gaps.  Beyond the budget
    the axioms are spot-checked on random subsets and flagged as sampled.
    """
    n = m.ground_size
    if 2**n <= budget:
        independents = [
            mask
            for mask in range(1 << n)
            if m.is_independent(_set_of(mask))
        ]
        if not m.is_independent(frozenset()):
            return Verdict(False, ("axiom-a",), exhaustive=True, checked=1)
        violation, checks = _axiom_violation(independents, set(independents), budget)
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
                return Verdict(
                    False, ("axiom-b", subset, subset - {e}),
                    exhaustive=False, checked=checked,
                )
        other = frozenset(e for e in range(n) if rng.random() < 0.5)
        small, big = sorted((subset, other), key=len)
        if (
            len(small) < len(big)
            and m.is_independent(small)
            and m.is_independent(big)
        ):
            if not any(m.is_independent(small | {e}) for e in big - small):
                return Verdict(
                    False, ("axiom-c", small, big),
                    exhaustive=False, checked=checked,
                )
    return Verdict(True, None, exhaustive=False, checked=checked)
