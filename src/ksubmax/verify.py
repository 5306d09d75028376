"""Brute-force verifiers for structural properties of assignment functions.

Two independent characterizations of k-submodularity are implemented: the
lattice inequality f(p) + f(q) >= f(p join q) + f(p meet q) over all pairs,
and the conjunction of orthant submodularity (marginal gains never grow as
the assignment extends) with pairwise monotonicity (for an unplaced element,
gains at two distinct positions sum to >= 0).  The two verifiers must agree
on every input; tests exploit this as a cross-check.

Enumeration is capped: verdicts obtained by sampling instead of exhaustive
enumeration are flagged as such, never silently treated as exhaustive.  A
budget below one check is refused with ValueError, so no verdict rests on
zero checks.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional

from .core import (Assignment, KSubFunction, _check_seed, enumerate_assignments, join, meet,
                   precedes)

DEFAULT_PAIR_BUDGET = 1_000_000


@dataclass(frozen=True)
class Verdict:
    """Outcome of a property verification.

    ``exhaustive`` is False when the check was sampled because the full
    enumeration exceeded the pair budget.  ``counterexample`` carries the
    first violating witness found, if any.
    """

    holds: bool
    counterexample: Optional[tuple] = None
    exhaustive: bool = True
    checked: int = 0

    def __bool__(self) -> bool:
        return self.holds


def _check_sampling(budget: int, seed: int, what: str = "sampling budget") -> None:
    """Refuse a non-``int`` seed or budget (TypeError), and a budget below the
    one check a verdict needs; ``what`` names the budget in the message."""
    _check_seed(seed)
    if type(budget) is not int:
        raise TypeError(f"{what} must be an integer, got {budget!r}")
    if budget < 1:
        raise ValueError(f"{what} must be at least 1, got {budget}")


def _lattice_pairs(n: int, k: int) -> int:
    """Unordered pairs of the (k+1)^n assignments; no exhaustive check enumerates
    more, as this bounds the (2k+1)^n ordered pairs and the 2^n matroid subsets."""
    total = (k + 1) ** n
    return total * (total + 1) // 2


def _value_table(f: KSubFunction) -> dict[tuple[int, ...], float]:
    return {a.labels: f.evaluate(a) for a in enumerate_assignments(f.n, f.k)}


def _random_assignment(rng: random.Random, n: int, k: int) -> Assignment:
    return Assignment._trusted(tuple(rng.randrange(k + 1) for _ in range(n)), k)


def _random_restriction(rng: random.Random, q: Assignment) -> Assignment:
    keep = [e for e in q.support() if rng.random() < 0.5]
    return q.restrict(keep)


def verify_k_submodular(
    f: KSubFunction,
    pair_budget: int = DEFAULT_PAIR_BUDGET,
    seed: int = 0,
) -> Verdict:
    """Check f(p) + f(q) >= f(p join q) + f(p meet q) over assignment pairs.

    Exhausts all unordered pairs when their number fits the budget,
    otherwise samples ``pair_budget`` random pairs.  Returns the first
    violating (p, q) as counterexample.
    """
    _check_sampling(pair_budget, seed)
    n, k = f.n, f.k
    if _lattice_pairs(n, k) <= pair_budget:
        table = _value_table(f)
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
        p = _random_assignment(rng, n, k)
        q = _random_assignment(rng, n, k)
        lhs = f.evaluate(p) + f.evaluate(q)
        rhs = f.evaluate(join(p, q)) + f.evaluate(meet(p, q))
        if lhs < rhs:
            return Verdict(False, (p, q), exhaustive=False, checked=checked)
    return Verdict(True, None, exhaustive=False, checked=pair_budget)


def _ordered_pairs_count(n: int, k: int) -> int:
    # Pairs p <= q: choose q and a kept subset of its support, so
    # sum over supports of C(n, s) * k^s * 2^s = (2k+1)^n.
    return (2 * k + 1) ** n


def verify_orthant_pairwise(
    f: KSubFunction,
    pair_budget: int = DEFAULT_PAIR_BUDGET,
    seed: int = 0,
) -> Verdict:
    """Check orthant submodularity plus pairwise monotonicity.

    Orthant submodularity: for every p preceding q, every element outside
    the support of q and every position i, the gain at p is >= the gain at
    q.  Pairwise monotonicity: for every p, unplaced e and positions
    i != j, the two gains sum to >= 0.  Counterexamples are tagged
    ("orthant", p, q, e, i) or ("pairwise", p, e, i, j).
    """
    _check_sampling(pair_budget, seed)
    n, k = f.n, f.k
    if _ordered_pairs_count(n, k) <= pair_budget:
        table = _value_table(f)
        checked = 0

        def gain(labels: tuple[int, ...], e: int, i: int) -> float:
            bumped = labels[:e] + (i,) + labels[e + 1 :]
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
                                return Verdict(
                                    False, ("orthant", p, q, e, i),
                                    exhaustive=True, checked=checked,
                                )
        for p in enumerate_assignments(n, k):
            for e in range(n):
                if p.labels[e] != 0:
                    continue
                for i, j in itertools.combinations(range(1, k + 1), 2):
                    if gain(p.labels, e, i) + gain(p.labels, e, j) < 0:
                        return Verdict(
                            False, ("pairwise", p, e, i, j),
                            exhaustive=True, checked=checked,
                        )
        return Verdict(True, None, exhaustive=True, checked=checked)

    rng = random.Random(seed)
    checked = 0
    while checked < pair_budget:
        checked += 1
        q = _random_assignment(rng, n, k)
        outside = [e for e in range(n) if q.labels[e] == 0]
        if outside:
            p = _random_restriction(rng, q)
            e = rng.choice(outside)
            i = rng.randrange(1, k + 1)
            gp = f.evaluate(p.assign(e, i)) - f.evaluate(p)
            gq = f.evaluate(q.assign(e, i)) - f.evaluate(q)
            if gp < gq:
                return Verdict(False, ("orthant", p, q, e, i),
                               exhaustive=False, checked=checked)
            if k >= 2:
                j = rng.choice([x for x in range(1, k + 1) if x != i])
                gj = f.evaluate(q.assign(e, j)) - f.evaluate(q)
                if gq + gj < 0:
                    return Verdict(False, ("pairwise", q, e, i, j),
                                   exhaustive=False, checked=checked)
    return Verdict(True, None, exhaustive=False, checked=checked)


def verify_monotone(
    f: KSubFunction,
    pair_budget: int = DEFAULT_PAIR_BUDGET,
    seed: int = 0,
) -> Verdict:
    """Check f(p) <= f(q) for all p preceding q (sampled beyond the budget)."""
    _check_sampling(pair_budget, seed)
    n, k = f.n, f.k
    if _ordered_pairs_count(n, k) <= pair_budget:
        table = _value_table(f)
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
        q = _random_assignment(rng, n, k)
        p = _random_restriction(rng, q)
        if f.evaluate(p) > f.evaluate(q):
            return Verdict(False, (p, q), exhaustive=False, checked=checked)
    return Verdict(True, None, exhaustive=False, checked=pair_budget)


def check_marginal_sum_bound(f: KSubFunction, p: Assignment, q: Assignment) -> bool:
    """Check f(q) - f(p) <= sum of single-element gains at p, for p preceding q.

    The sum runs over elements placed in q but not in p, each taken at its
    position in q.  This holds with equality for modular functions and as an
    inequality for every k-submodular function; the property tests rely on
    it never failing on verified instances.
    """
    if not precedes(p, q):
        raise ValueError("bound requires p to precede q")
    fp = f.evaluate(p)
    gain_sum = 0.0
    for e in sorted(q.support() - p.support()):
        gain_sum += f.evaluate(p.assign(e, q.labels[e])) - fp
    return f.evaluate(q) - fp <= gain_sum
