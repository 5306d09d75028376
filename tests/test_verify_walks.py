"""The verifiers' code-indexed walks and one-pass label draw against the
per-assignment loops and ``randrange`` draws they replaced (tests/helpers.py).

Verdicts must match field for field: holds, counterexample, exhaustive and
checked, on exhaustive and sampled runs alike.
"""

import random
import time
from itertools import islice

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    CountingWrapper,
    reference_random_assignment,
    reference_verify_k_submodular,
    reference_verify_monotone,
    reference_verify_orthant_pairwise,
)
from ksubmax import (
    Assignment,
    ExplicitTableFunction,
    KSubFunction,
    ModularFunction,
    gen_coverage,
    gen_modular,
    verify_k_submodular,
    verify_monotone,
    verify_orthant_pairwise,
)
from ksubmax.core import uniform_draws
from ksubmax.verify import _lattice_pairs, _ordered_pairs_count

VERIFIERS = (
    (verify_k_submodular, reference_verify_k_submodular),
    (verify_orthant_pairwise, reference_verify_orthant_pairwise),
    (verify_monotone, reference_verify_monotone),
)

# entries with ties, signed zeros and both signs
TIED = (-0.0, 0.0, 0.0, 0.5, 1.0, 1.0, -0.5)


class TruncatedSum(KSubFunction):
    """A user function outside the shipped families: min(cap, sum of int
    row entries), returned as an int."""

    def __init__(self, rows, cap):
        super().__init__(len(rows), len(rows[0]) if rows else 1)
        self.rows, self.cap = rows, cap

    def _value(self, a: Assignment) -> int:
        return min(self.cap, sum(self.rows[e][i - 1] for e, i in enumerate(a.labels) if i))


@st.composite
def functions(draw):
    n = draw(st.integers(0, 5))
    k = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**16))
    kind = draw(st.sampled_from(["submodular", "up", "down", "nonmonotone", "tied",
                                 "modular", "coverage", "user"]))
    if kind == "user":
        rows = [[draw(st.integers(-1, 3)) for _ in range(k)] for _ in range(n)]
        return TruncatedSum(rows, draw(st.integers(0, 6))) if n else TruncatedSum([], 0)
    if kind == "tied":
        pick = random.Random(seed).choice
        values = [pick(TIED) for _ in range((k + 1) ** n)]
        return ExplicitTableFunction(n, k, [pick((0.0, -0.0))] + values[1:])
    if n == 0:
        return ExplicitTableFunction(0, k, [-0.0 if seed % 2 else 0.0])
    if kind == "modular":
        if draw(st.booleans()):
            # no negative entry: a row must keep its pairwise sums nonnegative
            return ModularFunction([[draw(st.sampled_from(TIED[:-1])) for _ in range(k)]
                                    for _ in range(n)])
        return gen_modular(n, k, monotone=draw(st.booleans()), seed=seed)
    if kind == "coverage":
        return gen_coverage(n, k, draw(st.integers(1, 6)), draw(st.sampled_from((0.25, 0.5))),
                            seed=seed)
    if kind == "nonmonotone":
        return ExplicitTableFunction.tabulate(gen_modular(n, k, monotone=False, seed=seed))
    base = gen_coverage(n, k, 4, 0.5, seed=seed) if seed % 2 else gen_modular(n, k, seed=seed)
    values = list(ExplicitTableFunction.tabulate(base).values)
    if kind != "submodular":
        at = draw(st.integers(1, len(values) - 1))
        values[at] += draw(st.sampled_from((0.25, 1.0, 3.0, 7.25))) * (1 if kind == "up" else -1)
    return ExplicitTableFunction(n, k, values)


@st.composite
def budgets(draw, f):
    """A budget below, at or above (2k+1)^n, or at the lattice pair count
    when that stays small enough to run both lattice loops."""
    ordered = _ordered_pairs_count(f.n, f.k)
    lattice = _lattice_pairs(f.n, f.k)
    choices = [1, 2, ordered - 1, ordered, ordered + 1, 2 * ordered]
    if lattice <= 5_000:
        choices += [lattice - 1, lattice]
    budget = draw(st.sampled_from(choices) | st.integers(1, ordered + 1))
    return max(budget, 1)


@st.composite
def cases(draw):
    f = draw(functions())
    return f, draw(budgets(f)), draw(st.integers(0, 5))


def assert_walks_match(f, budget, seed):
    for verifier, reference in VERIFIERS:
        got = verifier(f, budget, seed)
        want = reference(f, budget, seed)
        assert (got.holds, got.counterexample, got.exhaustive, got.checked) == (
            want.holds, want.counterexample, want.exhaustive, want.checked), verifier.__name__
        assert type(got.checked) is int


@settings(max_examples=300, deadline=None)
@given(cases())
@example((ModularFunction([[1.0]]), 1, 0))
@example((ModularFunction([[1.0]]), 1, 5))
@example((ExplicitTableFunction(1, 2, [0.0, 1.0, -2.0]), 5, 0))
@example((ExplicitTableFunction(2, 1, [-0.0, -0.0, 0.0, -0.0]), 9, 0))
@example((ExplicitTableFunction(0, 3, [-0.0]), 1, 0))
@example((TruncatedSum([[2, 1], [1, 2], [3, 0]], 3), 125, 1))
def test_walks_give_the_reference_verdicts(case):
    assert_walks_match(*case)


class Bumped(KSubFunction):
    """Another function plus ``bump`` wherever its labels match ``pattern``
    (a tuple of (element, label) pairs): a positive bump on two placed
    elements breaks the lattice inequality, a negative one monotonicity."""

    def __init__(self, inner, pattern, bump):
        super().__init__(inner.n, inner.k)
        self.inner, self.pattern, self.bump = inner, pattern, bump

    def _value(self, a: Assignment) -> float:
        hit = all(a.labels[e] == i for e, i in self.pattern)
        return self.inner._value(a) + (self.bump if hit else 0.0)


@st.composite
def wide_cases(draw):
    """Functions on 9 to 14 elements with budgets far below (2k+1)^n, so
    every verifier samples.  Past 8 elements, a support of at most 4
    elements iterates as a frozenset out of ascending order when one of
    them is 8 or more (its hash-table slot wraps around)."""
    n = draw(st.integers(9, 14))
    k = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**16))
    kind = draw(st.sampled_from(["modular", "coverage", "bumped", "user", "table"]))
    if kind == "table" and (k + 1) ** n > 20_000:
        kind = "modular"
    if kind == "modular":
        f = gen_modular(n, k, monotone=draw(st.booleans()), seed=seed)
    elif kind == "coverage":
        f = gen_coverage(n, k, 2 * n, draw(st.sampled_from((0.25, 0.5))), seed=seed)
    elif kind == "user":
        rows = [[draw(st.integers(-1, 3)) for _ in range(k)] for _ in range(n)]
        f = TruncatedSum(rows, draw(st.integers(0, 12)))
    elif kind == "table":
        pick = random.Random(seed).choice
        f = ExplicitTableFunction(n, k, [0.0] + [pick(TIED) for _ in range((k + 1) ** n - 1)])
    else:
        elements = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True))
        pattern = tuple((e, draw(st.integers(1, k))) for e in elements)
        f = Bumped(gen_modular(n, k, seed=seed), pattern,
                   draw(st.sampled_from((-3.0, -0.25, 0.25, 3.0))))
    return f, draw(st.integers(1, 40)), draw(st.integers(0, 5))


@settings(max_examples=150, deadline=None)
@given(wide_cases())
@example((Bumped(gen_modular(12, 2, seed=1), ((8, 1), (1, 2)), 3.0), 40, 0))
@example((gen_modular(14, 3, monotone=False, seed=4), 40, 2))
# restrictions drawn in ascending order would change these two verdicts
@example((gen_modular(10, 1, monotone=False, seed=1), 40, 0))
@example((Bumped(gen_modular(10, 1, seed=0), ((8, 1), (1, 1)), 3.0), 40, 1))
def test_sampled_draws_match_the_reference_past_eight_elements(case):
    f, budget, seed = case
    assert budget < _lattice_pairs(f.n, f.k) and budget < _ordered_pairs_count(f.n, f.k)
    assert_walks_match(f, budget, seed)


def test_supports_past_eight_elements_iterate_out_of_order():
    """The property above reaches supports whose frozenset order is not
    ascending, the order in which restrictions draw."""
    labels = uniform_draws(random.Random(0), 2)
    supports = [Assignment(tuple(islice(labels, 10)), 1).support() for _ in range(50)]
    assert any(list(s) != sorted(s) for s in supports)


@pytest.mark.parametrize("k", range(1, 9))
def test_one_pass_draw_consumes_like_randrange(k):
    # two takes from one stream with a draw of another kind between them
    for n in range(13):
        for seed in range(200):
            ours, theirs = random.Random(seed), random.Random(seed)
            labels = uniform_draws(ours, k + 1)
            assert tuple(islice(labels, n)) == reference_random_assignment(theirs, n, k).labels
            assert ours.getstate() == theirs.getstate()
            assert ours.random() == theirs.random()
            assert tuple(islice(labels, n)) == reference_random_assignment(theirs, n, k).labels
            assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("budget", range(1, 9))
def test_sampled_orthant_counts_only_tests_made(seed, budget):
    # k = 1: each test evaluates p, p + (e, 1), q and q + (e, 1), and no
    # pairwise test runs; e is drawn first and left unplaced in q, so every
    # draw makes a test.  Budgets below 3^2 sample.
    f = CountingWrapper(ModularFunction([[1.0], [0.5]]))
    v = verify_orthant_pairwise(f, budget, seed)
    assert (v.holds, v.exhaustive, v.checked) == (True, False, budget)
    assert f.raw_calls == 4 * budget


@pytest.mark.parametrize("seed", [0, 5])
def test_sampled_orthant_holds_only_after_a_test(seed):
    # these seeds once drew q = (1,), which has no unplaced element, and the
    # verdict said holds with checked=1 after zero tests; q now leaves its
    # drawn element unplaced
    f = CountingWrapper(ModularFunction([[1.0]]))
    v = verify_orthant_pairwise(f, 1, seed)
    assert (v.holds, v.exhaustive, v.checked) == (True, False, 1)
    assert f.raw_calls == 4


def test_sampled_orthant_draws_are_bounded():
    """With n = 1 a uniform q is unplaced with chance 1/(k+1), so drawing q
    until it had an unplaced element took about k+1 draws per test: over a
    second here at k = 1000.  Each test now makes a fixed number of draws
    and five evaluations (the pairwise test adds one)."""
    f = CountingWrapper(ModularFunction([[1.0] * 1000]))
    started = time.perf_counter()
    v = verify_orthant_pairwise(f, 1000, 0)
    assert time.perf_counter() - started < 0.5
    assert (v.holds, v.exhaustive, v.checked) == (True, False, 1000)
    assert f.raw_calls == 5 * 1000
