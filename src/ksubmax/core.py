"""Core domain types for k-submodular optimization.

An n-element ground set is labelled by an assignment vector over
{0, 1, ..., k}: label i > 0 places an element into the i-th of k pairwise
disjoint sets, label 0 leaves the element unplaced.  A k-submodular
objective is exposed through a value oracle; every counted evaluation is
tallied in an :class:`OracleCounters` so solver query complexity can be
asserted exactly in tests.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence


class CapExceededError(Exception):
    """An exhaustive enumeration would exceed its configured cap."""


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
    of the partial order (see :func:`precedes`).
    """

    labels: tuple[int, ...]
    k: int

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(int(v) for v in self.labels))
        if self.k < 1:
            raise ValueError(f"k must be a positive integer, got {self.k}")
        for e, lab in enumerate(self.labels):
            if not 0 <= lab <= self.k:
                raise ValueError(
                    f"label {lab} at element {e} outside {{0,...,{self.k}}}"
                )

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
        """The empty assignment on an n-element ground set."""
        return cls((0,) * n, k)

    @property
    def n(self) -> int:
        return len(self.labels)

    def support(self) -> frozenset[int]:
        """Indices of all placed elements."""
        return frozenset(e for e, lab in enumerate(self.labels) if lab != 0)

    def check_open(self, e: int, i: int) -> None:
        """Raise ValueError unless ``e`` is an unplaced element and ``1 <= i <= k``."""
        _check_open(self.labels, self.k, e, i)

    def assign(self, e: int, i: int) -> "Assignment":
        """New assignment with unplaced element ``e`` put into set ``i``."""
        self.check_open(e, i)
        labels = self.labels
        return Assignment._trusted(labels[:e] + (i,) + labels[e + 1:], self.k)

    def restrict(self, keep: Iterable[int]) -> "Assignment":
        """Copy with labels kept only on ``keep``; everything else unplaced."""
        keep = set(keep)
        return Assignment._trusted(
            tuple(lab if e in keep else 0 for e, lab in enumerate(self.labels)),
            self.k,
        )


def _check_open(labels: Sequence[int], k: int, e: int, i: int) -> None:
    """The checks of :meth:`Assignment.check_open` on a label sequence."""
    if not 0 <= e < len(labels):
        raise ValueError(f"element {e} outside ground set of size {len(labels)}")
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
        if n < 0:
            raise ValueError(f"ground-set size must be nonnegative, got {n}")
        if k < 1:
            raise ValueError(f"k must be a positive integer, got {k}")
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

    Starts at the empty assignment with value 0.  :meth:`gain` prices one
    placement against the running assignment at 1 EO call, the same policy
    as ``marginal_gain(f, assignment, e, i, counters, base=value)``, and
    :meth:`place` commits one, adding the priced gain to ``value``.

    The labels live in a private mutable list, so :meth:`place` writes one
    label instead of copying an n-tuple.  ``assignment`` is a read-only
    view of them as an :class:`Assignment`, built on first use after each
    placement and reused until the next.  :meth:`place`, and the gain
    overrides through :meth:`_charge`, make the checks of
    :meth:`Assignment.check_open` with its messages; a refused placement
    leaves the labels and ``value`` as they were.

    This default goes through ``f.evaluate`` and so works for every
    function; it is the reference path.  Function families override
    :meth:`KSubFunction.gain_state` with states that price a gain without
    a full evaluation.  On values from the 1/64 grid the incremental gains
    are exact, so both paths give identical gains, values and solver runs.
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

    def gain(self, e: int, i: int) -> float:
        """Gain of putting unplaced element ``e`` into set ``i``; 1 EO call."""
        return marginal_gain(self.f, self.assignment, e, i, self.counters, base=self.value)

    def place(self, e: int, i: int, gain: float) -> None:
        """Put ``e`` into set ``i``; ``gain`` must be what :meth:`gain` returned."""
        _check_open(self._labels, self.f.k, e, i)
        self._labels[e] = i
        self._assignment = None
        self.value += gain

    def _charge(self, e: int, i: int) -> None:
        """For overrides of :meth:`gain`: check the placement, count 1 EO call."""
        _check_open(self._labels, self.f.k, e, i)
        if self.counters is not None:
            self.counters.eo_calls += 1


def enumerate_assignments(n: int, k: int) -> Iterator[Assignment]:
    """All (k+1)^n assignments on an n-element ground set, in label order."""
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    for labels in itertools.product(range(k + 1), repeat=n):
        yield Assignment._trusted(labels, k)
