import itertools
import re
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from ksubmax import (
    ExplicitMatroid,
    Matroid,
    OracleCounters,
    PartitionMatroid,
    UniformMatroid,
    Verdict,
    check_basis_exchange,
    check_matroid_axioms,
    feasible_extensions,
    gen_explicit_matroid,
    gen_partition_matroid,
    rank,
)

from helpers import ReferenceMatroid, reference_check_matroid_axioms


class TestUniform:
    def test_independence(self):
        m = UniformMatroid(4, 2)
        assert m.is_independent(set())
        assert m.is_independent({0, 3})
        assert not m.is_independent({0, 1, 2})

    def test_rank_capped_by_ground_set(self):
        assert rank(UniformMatroid(3, 5)) == 3
        assert rank(UniformMatroid(5, 3)) == 3
        assert rank(UniformMatroid(4, 0)) == 0

    def test_element_range_checked(self):
        with pytest.raises(ValueError):
            UniformMatroid(3, 1).is_independent({4})

    def test_negative_budget(self):
        with pytest.raises(ValueError):
            UniformMatroid(3, -1)


class TestPartition:
    def test_independence(self):
        m = PartitionMatroid(5, blocks=[[0, 1, 2], [3, 4]], capacities=[2, 1])
        assert m.is_independent({0, 1, 3})
        assert not m.is_independent({0, 1, 2})
        assert not m.is_independent({3, 4})
        assert rank(m) == 3

    def test_blocks_must_cover(self):
        with pytest.raises(ValueError, match="missing"):
            PartitionMatroid(4, blocks=[[0, 1]], capacities=[1])

    def test_blocks_must_be_disjoint(self):
        with pytest.raises(ValueError):
            PartitionMatroid(3, blocks=[[0, 1], [1, 2]], capacities=[1, 1])

    def test_mismatched_capacities(self):
        with pytest.raises(ValueError):
            PartitionMatroid(2, blocks=[[0], [1]], capacities=[1])

    def test_negative_capacity(self):
        with pytest.raises(ValueError):
            PartitionMatroid(1, blocks=[[0]], capacities=[-1])


class TestExplicit:
    def test_from_sets(self):
        m = ExplicitMatroid.from_sets(3, [[], [0], [1], [2], [0, 1], [1, 2]])
        assert m.is_independent({0, 1})
        assert not m.is_independent({0, 2})
        assert rank(m) == 2

    def test_requires_empty_set(self):
        with pytest.raises(ValueError):
            ExplicitMatroid.from_sets(2, [[0], [1]])

    def test_rejects_downward_closure_violation(self):
        with pytest.raises(ValueError):
            ExplicitMatroid.from_sets(2, [[], [0, 1]])

    def test_rejects_augmentation_violation(self):
        # {0} cannot grow, yet {1, 2} has two elements
        with pytest.raises(ValueError):
            ExplicitMatroid.from_sets(3, [[], [0], [1], [2], [1, 2]])

    def test_ground_set_size_limit(self):
        with pytest.raises(ValueError):
            ExplicitMatroid(17, [0])

    @pytest.mark.parametrize("n, sets, message", [
        (4, [[-1]], "element -1 outside ground set of size 4"),
        (4, [[], [0], [10**8]], "element 100000000 outside ground set of size 4"),
        (4, [[0, 4], [5]], "element 4 outside ground set of size 4"),
        (10**8, [[10**8 - 1]], "explicit matroid supports 0 <= n <= 16, got 100000000"),
    ])
    def test_from_sets_checks_before_any_shift(self, n, sets, message):
        """The ground size, then each element, is checked before a bitmask is
        built.  ``-1`` used to fail with "negative shift count", and
        ``10**8`` built a 10^8-bit mask (a 26.7 MB traced peak) and then
        failed at the int-to-string digit limit."""
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                ExplicitMatroid.from_sets(n, sets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize("family, element", [
        ([0, 1, 16], 4),
        ([0, -1], 4),
        ([0, 1, 3 << 6, 1 << 4], 6),
        ([0, 1 << 10**8], 10**8),
    ])
    def test_bitmask_outside_names_its_first_element(self, family, element):
        """The first bitmask with a bit at or above the ground size is refused
        by the element rule, naming its lowest such element; the refusal
        used to print the mask, which fails past the int-to-string digit
        limit."""
        with pytest.raises(ValueError, match=f"^element {element} outside ground set of size 4$"):
            ExplicitMatroid(4, family)


class TestRankAndExtensions:
    def test_rank_issues_exactly_n_io_calls(self):
        c = OracleCounters()
        rank(PartitionMatroid(6, blocks=[[0, 1, 2], [3, 4, 5]], capacities=[1, 2]), c)
        assert c.io_calls == 6
        assert c.eo_calls == 0

    def test_feasible_extensions(self):
        m = PartitionMatroid(5, blocks=[[0, 1, 2], [3, 4]], capacities=[2, 1])
        assert feasible_extensions(m, {0, 1}) == {3, 4}
        assert feasible_extensions(m, set()) == {0, 1, 2, 3, 4}
        assert feasible_extensions(m, {0, 1, 3}) == frozenset()

    def test_feasible_extensions_counting(self):
        m = UniformMatroid(6, 3)
        c = OracleCounters()
        feasible_extensions(m, {0, 5}, c)
        assert c.io_calls == 4  # one per element outside the support

    def test_feasible_extensions_rejects_dependent_support(self):
        with pytest.raises(ValueError, match="not independent"):
            feasible_extensions(UniformMatroid(4, 1), {0, 1})


class TestBasisExchange:
    def test_swap_exists(self):
        m = PartitionMatroid(4, blocks=[[0, 1], [2, 3]], capacities=[1, 1])
        assert check_basis_exchange(m, a={0}, b={0, 2}, e=3)

    def test_trivial_swap_when_e_in_b(self):
        m = UniformMatroid(3, 2)
        assert check_basis_exchange(m, a={0}, b={0, 1}, e=1)

    def test_precondition_errors(self):
        m = UniformMatroid(4, 2)
        with pytest.raises(ValueError, match="not a basis"):
            check_basis_exchange(m, a=set(), b={0}, e=1)
        with pytest.raises(ValueError, match="proper subset"):
            check_basis_exchange(m, a={0, 1}, b={0, 1}, e=2)
        with pytest.raises(ValueError, match="already in a"):
            check_basis_exchange(m, a={0}, b={0, 1}, e=0)
        with pytest.raises(ValueError, match="b is not independent"):
            check_basis_exchange(UniformMatroid(4, 1), a=set(), b={0, 1}, e=2)

    def test_exhaustive_small_partition(self):
        m = PartitionMatroid(4, blocks=[[0, 1], [2, 3]], capacities=[1, 1])
        r = rank(m)
        subsets = [frozenset(s) for size in range(5)
                   for s in itertools.combinations(range(4), size)]
        bases = [b for b in subsets if len(b) == r and m.is_independent(b)]
        for b in bases:
            for a in subsets:
                if not (a < b):
                    continue
                for e in range(4):
                    if e in a or not m.is_independent(a | {e}):
                        continue
                    assert check_basis_exchange(m, a, b, e)


class BrokenMatroid(Matroid):
    """Violates downward closure: independent iff size is 0 or 2."""

    def __init__(self, n):
        self.ground_size = n

    def _independent(self, subset):
        return len(subset) != 1


class TestAxiomChecker:
    @pytest.mark.parametrize("m", [
        UniformMatroid(6, 3),
        UniformMatroid(5, 0),
        PartitionMatroid(6, blocks=[[0, 2, 4], [1, 3, 5]], capacities=[2, 1]),
        ExplicitMatroid.from_sets(3, [[], [0], [1], [2], [0, 1], [1, 2], [0, 2]]),
    ])
    def test_shipped_families_pass(self, m):
        v = check_matroid_axioms(m)
        assert v.holds and v.exhaustive

    def test_detects_downward_closure_violation(self):
        v = check_matroid_axioms(BrokenMatroid(3))
        assert not v.holds
        assert v.counterexample[0] == "axiom-b"

    def test_sampled_beyond_budget(self):
        v = check_matroid_axioms(UniformMatroid(25, 4), budget=2000)
        assert v.holds
        assert not v.exhaustive

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 7))
    def test_generated_partition_matroids_pass(self, seed, n):
        assert check_matroid_axioms(gen_partition_matroid(n, seed=seed)).holds

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 6))
    def test_generated_explicit_matroids_pass(self, seed, n):
        assert check_matroid_axioms(gen_explicit_matroid(n, seed=seed)).holds


class FamilyMatroid(Matroid):
    """Independent iff the subset's bitmask is listed; no axiom is checked."""

    def __init__(self, n, family):
        self.ground_size = n
        self.family = frozenset(family)

    def _independent(self, subset):
        return sum(1 << e for e in subset) in self.family


def down_closure(generators):
    """Every subset of every generator, as bitmasks; always holds 0."""
    closed = {0}
    for g in generators:
        sub = g
        while True:
            closed.add(sub)
            if sub == 0:
                break
            sub = (sub - 1) & g
    return closed


@st.composite
def bitmask_families(draw):
    """A family on n <= 5 elements: arbitrary, downward closed, or
    downward closed with a nonempty set A that cannot be augmented from a
    disjoint larger set B (no generator contains all of A and a point of
    B, so no A + b is listed)."""
    kind = draw(st.sampled_from(["arbitrary", "closed", "not augmenting"]))
    n = draw(st.integers(3 if kind == "not augmenting" else 1, 5))
    masks = st.integers(0, (1 << n) - 1)
    if kind == "arbitrary":
        return n, draw(st.sets(masks))
    if kind == "closed":
        return n, down_closure(draw(st.lists(masks, max_size=6)))
    order = draw(st.permutations(range(n)))
    a_size = draw(st.integers(1, (n - 1) // 2))
    b_size = draw(st.integers(a_size + 1, n - a_size))
    a = sum(1 << e for e in order[:a_size])
    b = sum(1 << e for e in order[a_size:a_size + b_size])
    extras = draw(st.lists(masks.filter(lambda c: c & a != a), max_size=4))
    return n, down_closure([a, b, *extras])


def axiom_named(message):
    return next(f"axiom-{x}" for x in "abc" if f"axiom ({x})" in message)


class TestAxiomViolations:
    @settings(max_examples=300, deadline=None)
    @given(bitmask_families())
    def test_explicit_matroid_rejects_what_the_checker_fails(self, case):
        """The constructor and the checker agree on every family, down to
        the axiom they name."""
        n, family = case
        verdict = check_matroid_axioms(FamilyMatroid(n, family))
        assert verdict.exhaustive
        try:
            ExplicitMatroid(n, family)
        except ValueError as err:
            assert not verdict.holds
            assert axiom_named(str(err)) == verdict.counterexample[0]
        else:
            assert verdict.holds

    def test_uniform_rank_one_holds(self):
        """{}, {0}, {1} on n = 2: 4 subsets are tested, then axiom (b) makes
        one check per element of each listed set (1 + 1) and axiom (c) one
        per pair of sizes 0 and 1 (1 * 2) and 1 and 2 (2 * 0): 4 + 2 + 2."""
        v = check_matroid_axioms(FamilyMatroid(2, {0b00, 0b01, 0b10}))
        assert (v.holds, v.counterexample, v.checked) == (True, None, 8)
        ExplicitMatroid(2, {0b00, 0b01, 0b10})

    def test_missing_subset_breaks_b(self):
        """{}, {0, 1} on n = 2: after the 4 subsets, the first check drops
        element 0 from {0, 1} and finds {1} missing: 4 + 1."""
        v = check_matroid_axioms(FamilyMatroid(2, {0b00, 0b11}))
        assert (v.holds, v.counterexample, v.checked) == (
            False, ("axiom-b", frozenset({0, 1}), frozenset({1})), 5)
        with pytest.raises(ValueError, match=r"axiom \(b\)"):
            ExplicitMatroid(2, {0b00, 0b11})

    def test_unaugmentable_set_breaks_c(self):
        """{}, {0}, {1}, {0, 1}, {2} on n = 3: 8 subsets; axiom (b) holds
        after one check per element of each listed set (0 + 1 + 1 + 2 + 1
        = 5); axiom (c) passes the 3 pairs of {} with a singleton, then
        {0} and {1} against {0, 1}, and fails on {2} against {0, 1}, the
        6th pair: 8 + 5 + 6."""
        family = {0b000, 0b001, 0b010, 0b011, 0b100}
        v = check_matroid_axioms(FamilyMatroid(3, family))
        assert (v.holds, v.counterexample, v.checked) == (
            False, ("axiom-c", frozenset({2}), frozenset({0, 1})), 19)
        with pytest.raises(ValueError, match=r"axiom \(c\)"):
            ExplicitMatroid(3, family)


class CountedMatroid(ReferenceMatroid):
    """A :class:`ReferenceMatroid` that counts the raw tests it forwards."""

    tests = 0

    def _independent(self, subset):
        self.tests += 1
        return super()._independent(subset)


NO_EMPTY_SET = [(1, set()), (1, {0b1}), (2, {0b01, 0b10, 0b11}), (3, {0b001, 0b011, 0b111})]


@pytest.mark.parametrize("n, family", NO_EMPTY_SET)
def test_axiom_a_rule(n, family):
    """Axiom (a), the empty set is independent, is tested once, by
    ``_axiom_violation``: both constructors refuse with one message, and
    the exhaustive checker reads it off the 2^n subsets it lists instead of
    asking the oracle about the empty set again."""
    message = "family violates axiom (a): empty set missing"
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        ExplicitMatroid(n, family)
    sets = [[e for e in range(n) if mask >> e & 1] for mask in family]
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        ExplicitMatroid.from_sets(n, sets)
    m = CountedMatroid(FamilyMatroid(n, family))
    assert check_matroid_axioms(m) == Verdict(False, ("axiom-a",), exhaustive=True, checked=1)
    assert m.tests == 2 ** n
    m = CountedMatroid(FamilyMatroid(n, family))
    assert check_matroid_axioms(m, budget=1) == Verdict(
        False, ("axiom-a",), exhaustive=False, checked=1)
    assert m.tests == 1


AXIOM_CASES = [
    *((f"explicit n={n} seed={seed}", gen_explicit_matroid(n, seed=seed))
      for n in range(1, 7) for seed in range(4)),
    ("no empty set", FamilyMatroid(3, {0b001, 0b011, 0b111})),
    ("broken (b)", BrokenMatroid(3)),
    ("unaugmentable (c)", FamilyMatroid(3, {0b000, 0b001, 0b010, 0b011, 0b100})),
]


@pytest.mark.parametrize("budget", [1_000_000, 40, 9, 1])
@pytest.mark.parametrize("name, m", AXIOM_CASES, ids=[name for name, _ in AXIOM_CASES])
def test_axiom_verdicts_match_the_reference(name, m, budget):
    """Verdicts, counterexamples and ``checked`` counts are those of the
    checker that asked the oracle about the empty set a second time; only
    that one test is saved, whenever the 2^n subsets are listed."""
    shipped, reference = CountedMatroid(m), CountedMatroid(m)
    assert check_matroid_axioms(shipped, budget=budget, seed=3) == \
        reference_check_matroid_axioms(reference, budget=budget, seed=3)
    listed = 2 ** m.ground_size <= budget
    assert shipped.tests == reference.tests - listed


@settings(max_examples=200, deadline=None)
@given(bitmask_families())
def test_axiom_verdicts_match_the_reference_on_any_family(case):
    n, family = case
    assert check_matroid_axioms(FamilyMatroid(n, family)) == \
        reference_check_matroid_axioms(FamilyMatroid(n, family))


LISTED_THEN_SAMPLED = [
    ("uniform 8, 4", UniformMatroid(8, 4), 400),
    *((f"explicit n=8 seed={seed}", gen_explicit_matroid(8, seed=seed), 400)
      for seed in (0, 3, 7)),
    *((f"partition n=8 seed={seed}", gen_partition_matroid(8, seed=seed), 400)
      for seed in (3, 4)),
    ("partition n=7 seed=5", gen_partition_matroid(7, seed=5), 128),
    # downward closed, but {0, 1} cannot be augmented from {2, ..., 7}
    ("not augmenting", FamilyMatroid(8, down_closure([0b00000011, 0b11111100])), 256),
    ("not augmenting, one", FamilyMatroid(8, down_closure([0b00000001, 0b11111110])), 300),
    ("closed", FamilyMatroid(8, down_closure([0b00111111, 0b11001111, 0b11110011])), 400),
]


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("name, m, budget", LISTED_THEN_SAMPLED,
                         ids=[name for name, *_ in LISTED_THEN_SAMPLED])
def test_sampled_axioms_are_answered_from_the_listed_family(name, m, budget, seed):
    """With ``2^n <= budget`` but more augmentation pairs than the budget,
    the checker lists the 2^n subsets and then samples; its sampled tests
    are answered from that list, so the oracle is asked 2^n times in all,
    and the verdict is the reference's, which asks the oracle again."""
    shipped, reference = CountedMatroid(m), CountedMatroid(m)
    got = check_matroid_axioms(shipped, budget=budget, seed=seed)
    assert got == reference_check_matroid_axioms(reference, budget=budget, seed=seed)
    assert 2 ** m.ground_size <= budget and not got.exhaustive
    assert shipped.tests == 2 ** m.ground_size < reference.tests


def test_listed_then_sampled_cases_break_and_hold():
    """The cases above include sampled failures of axiom (c) as well as passes."""
    verdicts = [check_matroid_axioms(m, budget=budget, seed=0)
                for _, m, budget in LISTED_THEN_SAMPLED]
    assert {v.counterexample[0] for v in verdicts if not v.holds} == {"axiom-c"}
    assert sum(v.holds for v in verdicts) >= 5
