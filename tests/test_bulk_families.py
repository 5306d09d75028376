"""The explicit families built in bulk against the loops they replaced
(tests/helpers.py).

- ``KSubFunction._code_values`` makes one ``_support_step`` per element and
  must equal ``helpers.reference_code_values``, one from-scratch pass per
  support, bit for bit (``-0.0`` and ``0.0`` count as different), for
  every family and for user subclasses on the default step.
- ``gen_explicit_matroid`` grows each forest from a smaller one and must
  list the family of ``helpers.reference_gen_explicit_matroid``, a fresh
  union-find per subset, in the same order.
- ``matroids._axiom_violation`` tests augmentation through extension masks
  and must return the violation and check count of
  ``helpers.reference_axiom_violation``, the pair loop.
- The exhaustive pairwise test of ``verify_orthant_pairwise`` sorts each
  row instead of summing every pair, and must give the verdict, witness
  and ``checked`` count of ``helpers.pair_list_orthant_pairwise``; its
  memory no longer grows as ``k^2``.
"""

import math
import struct
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (CountingWrapper, pair_list_orthant_pairwise, reference_axiom_violation,
                     reference_code_values, reference_gen_explicit_matroid)
from ksubmax import (Assignment, ExplicitTableFunction, KSubFunction, ModularFunction,
                     gen_coverage, gen_explicit_matroid, gen_modular, verify_orthant_pairwise)
from ksubmax.matroids import _axiom_violation
from test_brute_force import SquareRootCoverage
from test_matroids import down_closure


def _bits(values):
    return [struct.pack("<d", v) for v in values]


class ValueOnly(KSubFunction):
    """A user subclass that defines only ``_value``: a separable sum of
    arbitrary rows, so it takes the default ``_support_step``.  Its rows
    may hold pairs that sum below 0, NaN and infinities, which the
    shipped families refuse."""

    def __init__(self, rows, k):
        super().__init__(len(rows), k)
        self.rows = rows

    def _value(self, a: Assignment) -> float:
        total = 0.0
        for e, lab in enumerate(a.labels):
            if lab:
                total += self.rows[e][lab - 1]
        return total


def shipped_and_user_functions(n, k, seed):
    coverage = gen_coverage(n, k, 2 * n, 0.4, seed=seed)
    modular = gen_modular(n, k, monotone=False, seed=seed)
    return (modular, coverage, ExplicitTableFunction.tabulate(coverage),
            CountingWrapper(modular), CountingWrapper(coverage),
            SquareRootCoverage(coverage),
            ValueOnly([[(-1) ** (e + i) * 2.0 ** -(e + i) for i in range(k)] for e in range(n)], k))


@pytest.mark.parametrize("n, k", [(1, 1), (1, 4), (2, 3), (3, 2), (4, 1), (4, 3), (5, 2), (6, 1)])
@pytest.mark.parametrize("seed", range(3))
def test_code_values_equal_the_per_support_fill_for_every_family(n, k, seed):
    for f in shipped_and_user_functions(n, k, seed):
        assert _bits(f._code_values()) == _bits(reference_code_values(f)), (f, n, k)


def test_code_values_of_an_empty_ground_set():
    f = ValueOnly([], 2)
    assert f._code_values() == reference_code_values(f) == [0.0]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 10), st.integers(0, 2 ** 64))
def test_forests_grown_by_extension_equal_the_subset_scan(n, seed):
    got, reference = gen_explicit_matroid(n, seed=seed), reference_gen_explicit_matroid(n, seed)
    assert got == reference
    assert list(got.family) == list(reference.family)


@pytest.mark.parametrize("n", range(1, 11))
def test_forest_families_on_fixed_seeds(n):
    for seed in range(12):
        assert gen_explicit_matroid(n, seed=seed) == reference_gen_explicit_matroid(n, seed)


def _adjacent_pairs(masks):
    sizes = [0] * 17
    for mask in masks:
        sizes[mask.bit_count()] += 1
    return sum(a * b for a, b in zip(sizes, sizes[1:]))


@st.composite
def axiom_families(draw):
    """Families on n <= 7 elements, listed ascending: downward closed ones;
    one with a set dropped, so axiom (b) or (a) fails; one with every
    proper superset of a listed set dropped, so that set may not be
    augmentable (axiom (c)); and forest matroids, which hold.  Each comes
    with no pair budget or one around its pair count."""
    n = draw(st.integers(1, 7))
    masks = st.integers(0, (1 << n) - 1)
    kind = draw(st.sampled_from(["closed", "drop one", "no augmentation", "forests"]))
    if kind == "forests":
        family = set(gen_explicit_matroid(n, seed=draw(st.integers(0, 10_000))).family)
    else:
        family = down_closure(draw(st.lists(masks, max_size=8)))
    if kind == "drop one":
        family.discard(draw(st.sampled_from(sorted(family))))
    elif kind == "no augmentation":
        small = draw(st.sampled_from(sorted(family)))
        family = {mask for mask in family if mask & small != small or mask == small}
    listed = sorted(family)
    pairs = _adjacent_pairs(listed)
    budget = draw(st.one_of(st.none(), st.integers(max(pairs - 2, 0), pairs + 2)))
    return listed, budget


@settings(max_examples=400, deadline=None)
@given(axiom_families())
def test_extension_masks_give_the_pair_loop_verdict(case):
    masks, budget = case
    assert _axiom_violation(masks, budget) == reference_axiom_violation(masks, set(masks), budget)


AXIOM_C_FAMILIES = [
    # {2} cannot be augmented from {0, 1}: 5 checks of (b), then 3 + 3 of (c)
    ([0b000, 0b001, 0b010, 0b011, 0b100], ("axiom-c", 0b100, 0b011), 11),
    # {0} cannot be augmented from {2, 3}, nor {0, 1} from {2, 3, 4}
    (sorted(down_closure([0b00011, 0b11100])), ("axiom-c", 0b00001, 0b01100), None),
    # the uniform matroid U(4, 2) less {2, 3}: every pair of adjacent sizes
    # still augments
    (sorted(m for m in range(16) if m.bit_count() <= 2 and m != 0b1100), None, None),
]


@pytest.mark.parametrize("masks, violation, checks", AXIOM_C_FAMILIES)
def test_named_augmentation_failures(masks, violation, checks):
    got = _axiom_violation(masks)
    assert got[0] == violation and checks in (None, got[1])
    for budget in (None, _adjacent_pairs(masks), _adjacent_pairs(masks) - 1):
        assert _axiom_violation(masks, budget) == \
            reference_axiom_violation(masks, set(masks), budget)


gain_values = st.sampled_from([-3.0, -2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0, 3.0])


@st.composite
def orthant_functions(draw):
    """Functions with (2k+1)^n small, k up to 6: separable tables with
    arbitrary rows (orthant submodular, pairwise monotone only where no
    row has a pair below 0), explicit tables with any values, and
    separable rows with NaN and infinities."""
    k = draw(st.integers(1, 6))
    n = draw(st.integers(1, 4 if k <= 2 else 3 if k <= 4 else 2))
    kind = draw(st.sampled_from(["separable", "explicit", "specials"]))
    if kind == "explicit":
        size = (k + 1) ** n
        return ExplicitTableFunction(n, k, [0.0] + draw(
            st.lists(gain_values, min_size=size - 1, max_size=size - 1)))
    entries = gain_values
    if kind == "specials":
        entries = st.one_of(gain_values, st.sampled_from([math.nan, math.inf, -math.inf]))
    rows = draw(st.lists(st.lists(entries, min_size=k, max_size=k), min_size=n, max_size=n))
    if kind == "specials":
        return ValueOnly(rows, k)
    return ExplicitTableFunction.tabulate(ValueOnly(rows, k))


@settings(max_examples=400, deadline=None)
@given(orthant_functions())
def test_sorted_rows_give_the_pair_list_verdict(f):
    got = verify_orthant_pairwise(f)
    assert got.exhaustive
    assert repr(got) == repr(pair_list_orthant_pairwise(f))
    if not got.holds and got.counterexample[0] == "pairwise":
        _, p, e, i, j = got.counterexample
        base = f._value(p)
        gains = [f._value(p.assign(e, x)) - base for x in (i, j)]
        assert gains[0] + gains[1] < 0


@pytest.mark.parametrize("rows, witness", [
    # element 1 is the first with a pair below 0, and (2, 3) its first pair
    ([[1.0, 1.0, 1.0], [5.0, -2.0, 1.0]], (1, 2, 3)),
    # the two smallest of element 0 tie: (1, 3) comes before (3, 4)
    ([[-1.0, 4.0, -1.0, -1.0]], (0, 1, 3)),
    # a NaN first in the row: min and sort cannot be trusted there
    ([[math.nan, -1.0, -1.0]], (0, 2, 3)),
    ([[1.0, math.nan, -1.0, 0.5]], (0, 3, 4)),
])
def test_first_pairwise_witness_in_order(rows, witness):
    f = ValueOnly(rows, len(rows[0]))
    got = verify_orthant_pairwise(f)
    t, i, j = witness
    assert got.counterexample == ("pairwise", f.zero(), t, i, j)
    assert repr(got) == repr(pair_list_orthant_pairwise(f))


def test_exhaustive_pairwise_work_does_not_grow_with_k_squared():
    """The pair index lists held n * k(k-1)/2 entries: at n = 1, k = 2000
    the check took 1.0 s and 344 MB, and at k = 10^4 they would hold
    5 * 10^7 entries.  Each row is now sorted once."""
    f = ModularFunction([[1.0] * 10_000])
    tracemalloc.start()
    try:
        started = time.perf_counter()
        verdict = verify_orthant_pairwise(f)
        elapsed = time.perf_counter() - started
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (verdict.holds, verdict.exhaustive, verdict.checked) == (True, True, 20_001)
    assert elapsed < 5.0 and peak < 20 * 2 ** 20, (elapsed, peak)
