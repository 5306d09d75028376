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
zero checks.  The budget bounds the work, however large ``k`` is: every
verifier's time and memory are ``O(budget * poly(n))`` (times ``log k``
where the pairwise test sorts rows of ``k`` gains), plus the (k+1)^n value
list where it is exhaustive.  Every exhaustive check first reads f at each
of the (k+1)^n assignments from ``f._code_values()``, the list indexed by
the code sum(labels[e] * (k+1)**e) of :func:`ksubmax.core._code_steps` (an
explicit table's own value list; one ``_support_step`` per element for the
other families), so it makes no ``evaluate`` call.  The orthant and
monotonicity checks walk that list, reaching a restriction or a neighbour
of an assignment by integer steps on its code.

Sampled checks take each assignment's labels, uniform on {0,...,k}, in
one C-level pass from a stream of rejection-sampled ``getrandbits`` draws
(:func:`ksubmax.core.uniform_draws`), and draw a random restriction of q
in the iteration order of q's support as a frozenset
(:func:`_random_restriction`), so they consume the seeded generator as
the per-assignment loops in ``tests/helpers.py`` do.  They read each
value with one uncounted ``f._value`` call, making no ``evaluate`` call.
The lattice sampler wraps its two draws as assignments and takes their
:func:`ksubmax.core.join` and :func:`ksubmax.core.meet`, as the
exhaustive loop does.  The orthant and monotonicity samplers work on
label tuples and build an :class:`Assignment` only for a counterexample.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass
from functools import partial
from itertools import chain, combinations, compress, islice, product, repeat, starmap
from typing import Iterable, Iterator, Optional, Sequence

from .core import (Assignment, KSubFunction, _check_ints, _check_seed, _code_steps, _decode,
                   enumerate_assignments, join, meet, precedes, uniform_draws)

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
    _check_ints((budget,), f"{what} must be an integer")
    if budget < 1:
        raise ValueError(f"{what} must be at least 1, got {budget}")


def _lattice_pairs(n: int, k: int) -> int:
    """Unordered pairs of the (k+1)^n assignments; no exhaustive check enumerates
    more, as this bounds the (2k+1)^n ordered pairs and the 2^n matroid subsets."""
    total = (k + 1) ** n
    return total * (total + 1) // 2


def _walk(n: int, k: int) -> Iterator[tuple[int, list[int], list[int]]]:
    """Each q in label order as (its code, the codes of its restrictions, its
    unplaced elements).  The restrictions keep subsets of q's support by
    size and then lexicographically; a restriction's code is the sum of its
    kept digits labels[e] * steps[e]."""
    steps = _code_steps(n, k)
    elements = range(n)
    for labels in product(range(k + 1), repeat=n):
        digits = list(compress(map(operator.mul, labels, steps), labels))
        kept = list(map(sum, chain.from_iterable(
            map(partial(combinations, digits), range(len(digits) + 1)))))
        yield sum(digits), kept, list(compress(elements, map(operator.not_, labels)))


def _gains(values: Sequence[float], code: int, steps: list[int]) -> list[float]:
    """The gains value[code + s] - value[code], one per step s."""
    return list(map(operator.sub, map(values.__getitem__, map(code.__add__, steps)),
                    repeat(values[code])))


def _first(flags: Iterable) -> int:
    """Index of the first true flag (one is known to exist)."""
    return next(t for t, flag in enumerate(flags) if flag)


def _random_restriction(rng: random.Random, q: tuple[int, ...]) -> tuple[int, ...]:
    """q's labels with each placed element kept on ``rng.random() < 0.5``.

    The draws follow the iteration order of q's support as a frozenset, as
    ``Assignment.support`` builds it; that order is ascending only while
    every placed element is below the set's hash-table size, so it is kept
    rather than sorted."""
    labels = list(q)
    for e in frozenset(compress(range(len(q)), q)):
        if not rng.random() < 0.5:
            labels[e] = 0
    return tuple(labels)


def _pairwise(gains: list[float], rows: list[slice],
              positions: range) -> Optional[tuple[int, int, int]]:
    """The first ``(t, i, j)``, ``t`` ascending and then ``i < j`` in
    ``combinations(positions, 2)`` order, whose gains
    ``gains[rows[t]][i - 1] + gains[rows[t]][j - 1]`` sum below 0; None if
    no pair does.

    A row has such a pair exactly when its two smallest gains do, since a
    float sum never falls as a term grows; so each row costs one C-level
    sort, and only a row whose two smallest sum below 0 is scanned for
    its first pair.  A NaN gain is in no such pair but defeats the sort,
    so gains with a NaN scan every row.
    """
    if any(map(math.isnan, gains)):
        candidates = range(len(rows))
    else:
        lows = map(operator.itemgetter(0, 1), map(sorted, map(gains.__getitem__, rows)))
        candidates = compress(range(len(rows)), map(operator.lt, starmap(operator.add, lows),
                                                    repeat(0)))
    for t in candidates:
        row = gains[rows[t]]
        for i, j in combinations(positions, 2):
            if row[i - 1] + row[j - 1] < 0:
                return t, i, j
    return None


def _label_value(f: KSubFunction):
    """``f._value`` at a label tuple of f's shape; no counting, no shape check."""
    value, trusted, k = f._value, Assignment._trusted, f.k
    return lambda labels: value(trusted(labels, k))


def verify_k_submodular(
    f: KSubFunction,
    pair_budget: int = DEFAULT_PAIR_BUDGET,
    seed: int = 0,
) -> Verdict:
    """Check f(p) + f(q) >= f(p join q) + f(p meet q) over assignment pairs.

    Exhausts all unordered pairs when their number fits the budget,
    otherwise samples ``pair_budget`` random pairs.  Returns the first
    violating (p, q) as counterexample.  The exhaustive check keys the
    (k+1)^n values of ``f._code_values()`` by labels, then makes a join, a
    meet and four lookups per pair; ``checked`` counts pairs.  The sampled
    check draws p and q as label tuples and makes the same join and meet
    and four uncounted ``_value`` calls per pair, so its work is ``O(n)``
    per pair plus those calls, whatever ``k``.
    """
    _check_sampling(pair_budget, seed)
    n, k = f.n, f.k
    if _lattice_pairs(n, k) <= pair_budget:
        values, steps = f._code_values(), _code_steps(n, k)
        everything = list(enumerate_assignments(n, k))
        table = {a.labels: values[sum(map(operator.mul, a.labels, steps))] for a in everything}
        checked = 0
        for p, q in itertools.combinations_with_replacement(everything, 2):
            checked += 1
            lhs = table[p.labels] + table[q.labels]
            rhs = table[join(p, q).labels] + table[meet(p, q).labels]
            if lhs < rhs:
                return Verdict(False, (p, q), exhaustive=True, checked=checked)
        return Verdict(True, None, exhaustive=True, checked=checked)

    labels, value = uniform_draws(random.Random(seed), k + 1), f._value
    for checked in range(1, pair_budget + 1):
        p = Assignment._trusted(tuple(islice(labels, n)), k)
        q = Assignment._trusted(tuple(islice(labels, n)), k)
        if value(p) + value(q) < value(join(p, q)) + value(meet(p, q)):
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

    The exhaustive check reads ``f._code_values()`` and then compares, for
    each of the (2k+1)^n pairs p preceding q, the row of gains of p with
    that of q in one pass over q's unplaced elements; its ``checked``
    counts those pairs, not the single gain tests, and the pairwise tests
    add nothing to it.  Orthant violations are reported before pairwise
    ones, each in the order of a walk over q in label order, its kept
    subsets by size and then lexicographically, then (e, i) ascending.
    The pairwise test sorts each unplaced element's row of k gains once
    per q (see :func:`_pairwise`), so it costs ``O(n * k log k)`` per q
    and holds no list of the ``k(k-1)/2`` position pairs.
    The sampled check draws an element e, then q's labels on the other
    n - 1 elements (e is left unplaced), a random restriction p and a
    position i, so every test makes a fixed number of draws; ``checked``
    counts the tests.
    """
    _check_sampling(pair_budget, seed)
    n, k = f.n, f.k
    if _ordered_pairs_count(n, k) <= pair_budget:
        values = f._code_values()
        code_steps = _code_steps(n, k)
        positions = range(1, k + 1)
        rows = [slice(t * k, t * k + k) for t in range(n)]  # gains of the t-th unplaced
        pairwise = None
        checked = 0
        for cq, kept, outside in _walk(n, k):
            if not outside:  # nothing to test against a full q
                checked += len(kept)
                continue
            steps = [i * code_steps[e] for e in outside for i in positions]
            gq = _gains(values, cq, steps)
            if pairwise is None and k >= 2:
                hit = _pairwise(gq, rows[:len(outside)], positions)
                if hit is not None:
                    t, i, j = hit
                    pairwise = ("pairwise", _decode(cq, n, k), outside[t], i, j)
            for checked, cp in enumerate(kept, checked + 1):
                if any(map(operator.lt, map(operator.sub, map(values.__getitem__,
                                                              map(cp.__add__, steps)),
                                            repeat(values[cp])), gq)):
                    t = _first(map(operator.lt, _gains(values, cp, steps), gq))
                    return Verdict(
                        False,
                        ("orthant", _decode(cp, n, k), _decode(cq, n, k),
                         outside[t // k], t % k + 1),
                        exhaustive=True, checked=checked,
                    )
        if pairwise is not None:
            return Verdict(False, pairwise, exhaustive=True, checked=checked)
        return Verdict(True, None, exhaustive=True, checked=checked)

    rng = random.Random(seed)
    labels, value = uniform_draws(rng, k + 1), _label_value(f)
    for checked in range(1, pair_budget + 1):
        e = rng.randrange(n)
        q = tuple(islice(labels, e)) + (0,) + tuple(islice(labels, n - 1 - e))
        p = _random_restriction(rng, q)
        i = rng.randrange(1, k + 1)
        fq = value(q)
        gp = value(p[:e] + (i,) + p[e + 1:]) - value(p)
        gq = value(q[:e] + (i,) + q[e + 1:]) - fq
        if gp < gq:
            return Verdict(False, ("orthant", Assignment._trusted(p, k),
                                   Assignment._trusted(q, k), e, i),
                           exhaustive=False, checked=checked)
        if k >= 2:
            j = rng.randrange(1, k)  # the draw of rng.choice over the positions but i
            j += j >= i
            gj = value(q[:e] + (j,) + q[e + 1:]) - fq
            if gq + gj < 0:
                return Verdict(False, ("pairwise", Assignment._trusted(q, k), e, i, j),
                               exhaustive=False, checked=checked)
    return Verdict(True, None, exhaustive=False, checked=pair_budget)


def verify_monotone(
    f: KSubFunction,
    pair_budget: int = DEFAULT_PAIR_BUDGET,
    seed: int = 0,
) -> Verdict:
    """Check f(p) <= f(q) for all p preceding q (sampled beyond the budget).

    The exhaustive check reads ``f._code_values()`` and then makes one
    comparison per pair, in the walk order of :func:`verify_orthant_pairwise`;
    the sampled one draws q and a random restriction p per check.
    """
    _check_sampling(pair_budget, seed)
    n, k = f.n, f.k
    if _ordered_pairs_count(n, k) <= pair_budget:
        values = f._code_values()
        checked = 0
        for cq, kept, _ in _walk(n, k):
            fq = values[cq]
            fps = list(map(values.__getitem__, kept))
            if any(map(operator.gt, fps, repeat(fq))):
                t = _first(map(operator.gt, fps, repeat(fq)))
                return Verdict(False, (_decode(kept[t], n, k), _decode(cq, n, k)),
                               exhaustive=True, checked=checked + t + 1)
            checked += len(kept)
        return Verdict(True, None, exhaustive=True, checked=checked)

    rng = random.Random(seed)
    labels, value = uniform_draws(rng, k + 1), _label_value(f)
    for checked in range(1, pair_budget + 1):
        q = tuple(islice(labels, n))
        p = _random_restriction(rng, q)
        if value(p) > value(q):
            return Verdict(False, (Assignment._trusted(p, k), Assignment._trusted(q, k)),
                           exhaustive=False, checked=checked)
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
