import itertools
import random

import pytest
from hypothesis import given, strategies as st

from ksubmax import (
    Assignment,
    OracleCounters,
    enumerate_assignments,
    join,
    marginal_gain,
    meet,
    precedes,
    uniform_draws,
)
from ksubmax.instances import ModularFunction, gen_modular

from helpers import CountingWrapper


def assignments(max_n=5, max_k=3):
    """Strategy producing a pair of same-shape assignments."""
    return st.integers(1, max_n).flatmap(
        lambda n: st.integers(1, max_k).flatmap(
            lambda k: st.tuples(
                st.lists(st.integers(0, k), min_size=n, max_size=n),
                st.lists(st.integers(0, k), min_size=n, max_size=n),
            ).map(lambda pair: (
                Assignment(tuple(pair[0]), k),
                Assignment(tuple(pair[1]), k),
            ))
        )
    )


class TestAssignment:
    def test_zero(self):
        a = Assignment.zero(3, 2)
        assert a.labels == (0, 0, 0)
        assert a.n == 3 and a.k == 2
        assert a.support() == frozenset()

    def test_support(self):
        a = Assignment((1, 0, 2, 0), 2)
        assert a.support() == {0, 2}

    def test_assign(self):
        a = Assignment((1, 0), 2).assign(1, 2)
        assert a.labels == (1, 2)

    def test_assign_rejects_placed_element(self):
        with pytest.raises(ValueError, match="already placed"):
            Assignment((1, 0), 2).assign(0, 2)

    def test_assign_rejects_bad_position(self):
        with pytest.raises(ValueError):
            Assignment((0,), 2).assign(0, 3)
        with pytest.raises(ValueError):
            Assignment((0,), 2).assign(0, 0)

    def test_assign_rejects_bad_element(self):
        with pytest.raises(ValueError):
            Assignment((0,), 2).assign(1, 1)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            Assignment((3,), 2)
        with pytest.raises(ValueError):
            Assignment((-1,), 2)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            Assignment((0,), 0)

    def test_restrict(self):
        a = Assignment((1, 2, 1), 2)
        assert a.restrict([0, 2]).labels == (1, 0, 1)
        assert a.restrict([]).labels == (0, 0, 0)

    @pytest.mark.parametrize("keep, error, message", [
        ([5, -1, "x"], ValueError, "element 5 outside ground set of size 2"),
        ([0, -1], ValueError, "element -1 outside ground set of size 2"),
        ([1, "x"], TypeError, "element 'x' is not an int"),
        ([1, True], TypeError, "element True is not an int"),
        ((e for e in [0, 1.0]), TypeError, "element 1.0 is not an int"),
    ])
    def test_restrict_checks_each_element(self, keep, error, message):
        """``restrict([5, -1, 'x'])`` used to return the all-zero assignment;
        a bool, which a set would merge with 1, is refused too."""
        with pytest.raises(error, match=f"^{message}$"):
            Assignment((1, 2), 2).restrict(keep)

    def test_immutable(self):
        a = Assignment((1, 0), 2)
        with pytest.raises(Exception):
            a.labels = (2, 0)


class TestLattice:
    def test_precedes_examples(self):
        p = Assignment((1, 0, 0), 2)
        q = Assignment((1, 2, 0), 2)
        assert precedes(p, q)
        assert not precedes(q, p)
        assert precedes(p, p)
        # changing a placed label breaks the order
        assert not precedes(Assignment((2, 0, 0), 2), q)

    def test_join_cancels_conflicts(self):
        a = Assignment((1, 1, 0), 2)
        b = Assignment((2, 1, 2), 2)
        assert join(a, b).labels == (0, 1, 2)

    def test_meet_keeps_agreements(self):
        a = Assignment((1, 1, 0), 2)
        b = Assignment((2, 1, 2), 2)
        assert meet(a, b).labels == (0, 1, 0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            join(Assignment((0,), 2), Assignment((0, 0), 2))
        with pytest.raises(ValueError, match="shape mismatch"):
            meet(Assignment((0,), 1), Assignment((0,), 2))
        with pytest.raises(ValueError, match="shape mismatch"):
            precedes(Assignment((0,), 1), Assignment((0,), 2))

    @given(assignments())
    def test_join_meet_commute(self, pair):
        a, b = pair
        assert join(a, b) == join(b, a)
        assert meet(a, b) == meet(b, a)

    @given(assignments())
    def test_idempotence(self, pair):
        a, _ = pair
        assert join(a, a) == a
        assert meet(a, a) == a

    @given(assignments())
    def test_meet_precedes_everything(self, pair):
        a, b = pair
        lo = meet(a, b)
        assert precedes(lo, a)
        assert precedes(lo, b)
        assert precedes(lo, join(a, b))

    @given(assignments())
    def test_zero_is_bottom(self, pair):
        a, _ = pair
        zero = Assignment.zero(a.n, a.k)
        assert precedes(zero, a)
        assert join(a, zero) == a
        assert meet(a, zero) == zero

    @given(assignments())
    def test_precedes_iff_meet_is_smaller(self, pair):
        a, b = pair
        assert precedes(a, b) == (meet(a, b) == a)


class TestEvaluation:
    def test_counts_only_with_counters(self):
        f = ModularFunction([[1.0, 2.0]])
        c = OracleCounters()
        f.evaluate(f.zero())
        assert c.eo_calls == 0
        f.evaluate(f.zero(), c)
        f.evaluate(f.zero(), c)
        assert c.eo_calls == 2
        assert c.io_calls == 0

    def test_shape_check(self):
        f = ModularFunction([[1.0], [2.0]])
        with pytest.raises(ValueError):
            f.evaluate(Assignment((0,), 1))

    def test_empty_assignment_is_zero(self):
        f = gen_modular(4, 3, monotone=False, seed=7)
        assert f.evaluate(f.zero()) == 0.0

    def test_marginal_gain_matches_difference(self):
        for seed in range(100):
            f = gen_modular(4, 2, monotone=(seed % 2 == 0), seed=seed)
            a = Assignment((0, 1, 0, 2), 2)
            for e in (0, 2):
                for i in (1, 2):
                    expected = f.evaluate(a.assign(e, i)) - f.evaluate(a)
                    assert marginal_gain(f, a, e, i) == expected

    def test_marginal_gain_counting_policy(self):
        f = ModularFunction([[1.0, 2.0], [3.0, 0.5]])
        a = f.zero()
        c = OracleCounters()
        marginal_gain(f, a, 0, 1, c)
        assert c.eo_calls == 2  # base not supplied
        marginal_gain(f, a, 0, 1, c, base=0.0)
        assert c.eo_calls == 3  # cached base costs a single call

    def test_marginal_gain_base_consistency(self):
        f = ModularFunction([[1.0, 2.0], [3.0, 0.5]])
        a = f.zero().assign(1, 2)
        with_base = marginal_gain(f, a, 0, 2, base=f.evaluate(a))
        without = marginal_gain(f, a, 0, 2)
        assert with_base == without

    def test_marginal_gain_rejects_placed(self):
        f = ModularFunction([[1.0]])
        with pytest.raises(ValueError):
            marginal_gain(f, Assignment((1,), 1), 0, 1)

    def test_counting_wrapper_sees_every_call(self):
        inner = gen_modular(3, 2, seed=1)
        f = CountingWrapper(inner)
        c = OracleCounters()
        for a in enumerate_assignments(3, 2):
            f.evaluate(a, c)
        assert f.raw_calls == c.eo_calls == 27


def test_enumerate_assignments_complete():
    everything = list(enumerate_assignments(3, 2))
    assert len(everything) == 27
    assert len(set(everything)) == 27
    assert all(a.n == 3 and a.k == 2 for a in everything)


def test_enumerate_assignments_trivial_ground_set():
    assert [a.labels for a in enumerate_assignments(0, 2)] == [()]


def test_enumerate_assignments_is_lazy_in_label_order():
    """A lazy iterator, checked at the call: the labels follow
    ``itertools.product`` (the last element fastest)."""
    assignments = enumerate_assignments(2, 2)
    assert iter(assignments) is assignments
    assert [a.labels for a in assignments] == list(itertools.product(range(3), repeat=2))
    with pytest.raises(ValueError, match="ground_size must be nonnegative, got -1"):
        enumerate_assignments(-1, 2)


@pytest.mark.parametrize("bound, error", [
    (0, ValueError), (-1, ValueError), (-(2 ** 70), ValueError),
    (True, TypeError), (False, TypeError), (2.0, TypeError), (0.5, TypeError),
    ("3", TypeError), (None, TypeError),
])
def test_uniform_draws_refuses_a_bound_at_the_call(bound, error):
    """Below 1 the first take never returned: ``getrandbits(0)`` is always
    0, and no draw is below the bound.  A bool was taken as an int and a
    float failed with AttributeError.  Each is refused before any draw."""
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(error, match="^bound must be"):
        uniform_draws(rng, bound)
    assert rng.getstate() == state
