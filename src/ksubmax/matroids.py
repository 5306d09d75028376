"""Independence oracles for matroid constraints.

Three families are shipped: uniform (cardinality bound), partition
(per-block capacities) and explicit (a literal list of independent sets,
validated against the matroid axioms at construction).  Every counted call
to :meth:`Matroid.is_independent` tallies one IO call, which is the unit
the solvers' query-complexity assertions are written in.

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
                raise ValueError(
                    f"element {e} outside ground set of size {self.ground_size}"
                )
        if counters is not None:
            counters.io_calls += 1
        return self._independent(fs)


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
        by_size: dict[int, list[int]] = {}
        for mask in self.family:
            by_size.setdefault(mask.bit_count(), []).append(mask)
        for mask in self.family:
            rest = mask
            while rest:
                low = rest & -rest
                if (mask ^ low) not in self.family:
                    raise ValueError(
                        f"family violates axiom (b): {mask ^ low} missing "
                        f"although superset {mask} is listed"
                    )
                rest ^= low
        sizes = sorted(by_size)
        for s, t in zip(sizes, sizes[1:]):
            if t != s + 1:
                # a size gap already contradicts augmentation
                raise ValueError(
                    f"family violates axiom (c): sets of size {s} and {t} "
                    f"exist but none of size {s + 1}"
                )
            for small in by_size[s]:
                for big in by_size[t]:
                    extra = big & ~small
                    ok = False
                    while extra:
                        low = extra & -extra
                        if (small | low) in self.family:
                            ok = True
                            break
                        extra ^= low
                    if not ok:
                        raise ValueError(
                            f"family violates axiom (c): {small} cannot be "
                            f"augmented from {big}"
                        )

    @classmethod
    def from_sets(cls, ground_size: int, sets: Iterable[Iterable[int]]) -> "ExplicitMatroid":
        return cls(ground_size, (_mask_of(s) for s in sets))

    def _independent(self, subset: frozenset[int]) -> bool:
        return _mask_of(subset) in self.family


def greedy_basis(
    m: Matroid,
    order: Iterable[int],
    counters: Optional[OracleCounters] = None,
) -> list[int]:
    """Basis built by greedy extension, visiting elements in ``order``.

    ``order`` must list every element once.  Issues exactly n counted
    independence tests and returns the accepted elements in visit order.
    Every test before the first acceptance is a singleton test, so the
    first accepted element is the first independent singleton in ``order``.
    """
    current: set[int] = set()
    basis: list[int] = []
    for e in order:
        if m.is_independent(current | {e}, counters):
            current.add(e)
            basis.append(e)
    return basis


def rank(m: Matroid, counters: Optional[OracleCounters] = None) -> int:
    """Size of a maximal independent set, by greedy extension over 0..n-1.

    Issues exactly n counted independence tests.
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
    outside the support.
    """
    supp = frozenset(support)
    if not m.is_independent(supp):
        raise ValueError("support is not independent")
    return frozenset(
        e
        for e in range(m.ground_size)
        if e not in supp and m.is_independent(supp | {e}, counters)
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
        indep_set = set(independents)
        checked = 1 << n
        for mask in independents:
            rest = mask
            while rest:
                low = rest & -rest
                checked += 1
                if (mask ^ low) not in indep_set:
                    return Verdict(
                        False,
                        ("axiom-b", _set_of(mask), _set_of(mask ^ low)),
                        exhaustive=True,
                        checked=checked,
                    )
                rest ^= low
        by_size: dict[int, list[int]] = {}
        for mask in independents:
            by_size.setdefault(mask.bit_count(), []).append(mask)
        sizes = sorted(by_size)
        pair_count = sum(
            len(by_size[s]) * len(by_size.get(s + 1, [])) for s in sizes
        )
        if pair_count <= budget:
            for s in sizes:
                for small in by_size[s]:
                    for big in by_size.get(s + 1, []):
                        extra = big & ~small
                        ok = False
                        while extra:
                            low = extra & -extra
                            if (small | low) in indep_set:
                                ok = True
                                break
                            extra ^= low
                        checked += 1
                        if not ok:
                            return Verdict(
                                False,
                                ("axiom-c", _set_of(small), _set_of(big)),
                                exhaustive=True,
                                checked=checked,
                            )
            return Verdict(True, None, exhaustive=True, checked=checked)

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
