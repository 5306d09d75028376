"""Brute force by supports against the label-vector walk it replaced.

``brute_force_solve`` visits each independent support once and prices all
its labellings with one ``_support_step`` from its parent's block.  The gate requires the
same assignment, ``repr(value)`` and ``max_opt_support_size`` as
``helpers.reference_brute_force_solve`` on the criterion-1 grid, on random
instances of every family (non-k-submodular tables with ties and ``-0.0``
included) under every matroid family and a user-defined independence
family, and on user-defined subclasses, which take the default
``_support_step``.  Each family's step, folded by ``helpers.step_fold``,
must give what ``_value`` gives, bit for bit, on sum-exact values spread
over many binades.
"""

import itertools
import math
import struct

import pytest
from hypothesis import given, settings, strategies as st

from ksubmax import (
    Assignment,
    ExplicitTableFunction,
    KSubFunction,
    Matroid,
    ModularFunction,
    UniformMatroid,
    brute_force_solve,
    gen_coverage,
    gen_explicit_matroid,
    gen_modular,
    gen_partition_matroid,
)
from ksubmax.instances import CoverageFunction

from helpers import CountingWrapper, ReferenceMatroid, reference_brute_force_solve, step_fold
from test_gain_state import feasibility_instances


def assert_same_optimum(f, m):
    fast = brute_force_solve(f, m)
    ref = reference_brute_force_solve(f, m)
    assert fast.assignment == ref.assignment
    assert repr(fast.value) == repr(ref.value)
    assert fast.max_opt_support_size == ref.max_opt_support_size
    assert fast.counters is None and fast.rounds == []
    return fast


def test_equals_reference_on_criterion_1_grid():
    """Every criterion-1 instance small enough for that criterion's brute force."""
    runs = 0
    for f, m, _ in feasibility_instances(count=1000):
        if (f.k + 1) ** f.n <= 256:
            assert_same_optimum(f, m)
            runs += 1
    assert runs > 300


def _matroid(draw, n, seed):
    kind = draw(st.sampled_from(("uniform", "partition", "explicit", "even")))
    if kind == "uniform":
        return UniformMatroid(n, draw(st.integers(0, n)))
    if kind == "partition":
        return gen_partition_matroid(n, seed=seed)
    if kind == "even":
        return EvenSizeMatroid(n, draw(st.integers(0, n)))
    return gen_explicit_matroid(n, seed=seed)


@st.composite
def instances(draw):
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 10_000))
    family = draw(st.sampled_from(("monotone", "nonmonotone", "coverage", "table")))
    if family == "coverage":
        f = gen_coverage(n, k, universe_size=2 * n, density=0.4, seed=seed)
    elif family == "table":
        # few distinct values, so ties abound; not k-submodular in general
        tail = draw(st.lists(st.sampled_from((0.0, -0.0, 1.0, -1.0, 0.5, 0.125, 0.375)),
                             min_size=(k + 1) ** n - 1, max_size=(k + 1) ** n - 1))
        f = ExplicitTableFunction(n, k, [draw(st.sampled_from((0.0, -0.0)))] + tail)
    else:
        f = gen_modular(n, k, monotone=family == "monotone", seed=seed)
    return f, _matroid(draw, n, seed + 1)


@settings(max_examples=300, deadline=None)
@given(instances())
def test_equals_reference_property(instance):
    assert_same_optimum(*instance)


class SquareRootCoverage(KSubFunction):
    """A user-defined function with only ``_value``: the square root of a
    weighted coverage value, off the 1/64 grid."""

    def __init__(self, inner: CoverageFunction):
        super().__init__(inner.n, inner.k)
        self.inner = inner

    def _value(self, a: Assignment) -> float:
        return math.sqrt(self.inner._value(a))


class EvenSizeMatroid(Matroid):
    """A user-defined independence family (not a matroid): sets of at most
    ``budget`` elements with an even sum."""

    def __init__(self, ground_size: int, budget: int):
        self.ground_size = ground_size
        self.budget = budget

    def _independent(self, subset: frozenset[int]) -> bool:
        return len(subset) <= self.budget and sum(subset) % 2 == 0


@pytest.mark.parametrize("seed", range(12))
def test_equals_reference_on_user_subclasses(seed):
    n, k = 3 + seed % 4, 1 + seed % 3
    coverage = gen_coverage(n, k, universe_size=2 * n, density=0.4, seed=seed)
    functions = (CountingWrapper(gen_modular(n, k, monotone=seed % 2 == 0, seed=seed)),
                 SquareRootCoverage(coverage))
    matroids = (ReferenceMatroid(gen_partition_matroid(n, seed=seed)),
                EvenSizeMatroid(n, 1 + seed % n))
    for f in functions:
        assert type(f)._support_step is KSubFunction._support_step
        for m in matroids:
            assert_same_optimum(f, m)


def test_ties_break_by_size_then_labels():
    """All-zero values: the optimum is the largest independent support with
    the lexicographically smallest labels, which leaves the first elements
    unplaced; -0.0 and 0.0 tie and the reported value is the winner's."""
    f = ExplicitTableFunction(3, 2, [0.0] + [-0.0, 0.0] * 13)
    res = assert_same_optimum(f, UniformMatroid(3, 2))
    assert res.assignment.labels == (0, 1, 1)
    assert res.max_opt_support_size == 2
    assert repr(res.value) == repr(f._value(res.assignment))


def test_ties_at_support_size_three_decode_each_leaf():
    """Three labellings worth 1.0 on three supports of size 3, everything
    else 0: the walk meets (3, 2, 1, 0) first, then (1, 0, 3, 2) and
    (0, 2, 3, 1), and each tie goes to the smaller label tuple.  Decoding a
    leaf with its digits in the wrong order would report another one."""
    n, k = 4, 3
    values = [0.0] * (k + 1) ** n
    for labels in ((3, 2, 1, 0), (1, 0, 3, 2), (0, 2, 3, 1)):
        values[sum(lab * (k + 1) ** e for e, lab in enumerate(labels))] = 1.0
    res = assert_same_optimum(ExplicitTableFunction(n, k, values), UniformMatroid(n, 3))
    assert res.assignment.labels == (0, 2, 3, 1)
    assert (res.value, res.max_opt_support_size) == (1.0, 3)


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _all_supports(n):
    return itertools.chain.from_iterable(
        itertools.combinations(range(n), size) for size in range(n + 1))


def assert_support_values_exact(f):
    k = f.k
    for support in _all_supports(f.n):
        values = step_fold(f, support)
        assert len(values) == k ** len(support)
        for value, positions in zip(values, itertools.product(range(1, k + 1),
                                                              repeat=len(support))):
            labels = [0] * f.n
            for e, i in zip(support, positions):
                labels[e] = i
            assert _bits(value) == _bits(f._value(Assignment(labels, k)))


@pytest.mark.parametrize("seed", range(6))
def test_support_values_match_value_bit_for_bit(seed):
    """Values off the 1/64 grid and about 2^40 apart, where the order of
    float additions would show if the rule let any sum round."""
    n, k = 4 + seed % 2, 1 + seed % 3
    scales = [0.1875, 2.0 ** 30, 0.3125, 2.0 ** -10, 0.6875]
    # row e is [-x, 2x, 3x, ...] for odd e, [x, 2x, 3x, ...] for even e
    table = [[(-x if i == 0 and e % 2 else x * (1 + i)) for i in range(k)]
             for e, x in enumerate(scales[(e + seed) % 5] for e in range(n))]
    coverage = gen_coverage(n, k, universe_size=2 * n, density=0.5, seed=seed)
    weights = [(1 + u % 3) * 2.0 ** (30 * (u % 2) - 10) for u in range(coverage.universe_size)]
    table_values = [0.0] + [(j % 7) * 2.0 ** -(j % 5) - 0.375 for j in range(1, (k + 1) ** n)]
    families = (
        ModularFunction(table),
        CoverageFunction(weights, [[format(mask, "x") for mask in row]
                                   for row in coverage._masks]),
        ExplicitTableFunction(n, k, table_values),
        CountingWrapper(gen_modular(n, k, monotone=False, seed=seed)),
    )
    for f in families:
        assert_support_values_exact(f)
