import math

import pytest

from ksubmax import (
    CapExceededError,
    ExplicitTableFunction,
    ModularFunction,
    PartitionMatroid,
    UniformMatroid,
    brute_force_solve,
    enumerate_assignments,
    gen_coverage,
    gen_explicit_matroid,
    gen_modular,
    gen_partition_matroid,
    greedy_solve,
    predicted_round_bound,
    rank,
    threshold_decreasing_solve,
)

from helpers import CountingWrapper, eager_threshold_solve


def naive_optimum(f, m):
    """Unpruned reference enumeration; returns (value, max optimal support)."""
    best = -math.inf
    size = -1
    for a in enumerate_assignments(f.n, f.k):
        if not m.is_independent(a.support()):
            continue
        v = f.evaluate(a)
        if v > best or (v == best and len(a.support()) > size):
            best = v
            size = len(a.support())
    return best, size


class TestThresholdSolver:
    def test_hand_worked_example(self):
        """Two elements, budget one: picks the 5 and leaves the pair worth 4.

        Eager reference arithmetic: the opening scan of single-element
        values costs n*k = 4 EO; round one visits both candidates (2 IO,
        2*k = 4 EO) and accepts element 0 at threshold 5; round two starts
        below the stop value.  Rank costs 2 IO.
        """
        f = ModularFunction([[5.0, -3.0], [2.0, 2.0]])
        m = UniformMatroid(2, 1)
        rep = eager_threshold_solve(f, m, epsilon=0.5)
        assert rep.value == 5.0
        assert rep.assignment.labels == (1, 0)
        assert rep.counters.eo_calls == 6
        assert rep.counters.io_calls == 4
        assert rep.rounds == [(5.0, 1)]

    def test_hand_worked_example_lazy(self):
        """The same instance through the lazy solver.

        Opening scan 4 EO, rank scan 2 IO (r = 1, d = 5).  Round one at
        bar 5 visits element 0 (bound 5 >= 5: 1 IO, 2 EO), accepts it, and
        the support now has r elements, so the run ends before element 1
        is visited: 6 EO, 3 IO.
        """
        f = ModularFunction([[5.0, -3.0], [2.0, 2.0]])
        m = UniformMatroid(2, 1)
        rep = threshold_decreasing_solve(f, m, epsilon=0.5)
        assert rep.value == 5.0
        assert rep.assignment.labels == (1, 0)
        assert rep.counters.eo_calls == 6
        assert rep.counters.io_calls == 3
        assert rep.rounds == [(5.0, 1)]

    def test_threshold_schedule(self):
        """d=10, eps=0.5, r=2: thresholds 10, 5, 2.5, 1.25, then stop at 0.625."""
        f = ModularFunction([[10.0], [0.125], [0.125], [0.125]])
        m = UniformMatroid(4, 2)
        rep = eager_threshold_solve(f, m, epsilon=0.5)
        assert [w for w, _ in rep.rounds] == [10.0, 5.0, 2.5, 1.25]
        assert [added for _, added in rep.rounds] == [1, 0, 0, 0]
        assert rep.counters.eo_calls == 4 + (4 + 3 + 3 + 3)
        assert rep.counters.io_calls == 4 + (4 + 3 + 3 + 3)
        assert len(rep.rounds) == predicted_round_bound(0.5, 2)

    def test_threshold_schedule_lazy(self):
        """Same schedule; only element 0 ever meets its bar.

        Opening scan 4 EO, rank scan 4 IO.  At bar 10 element 0 (bound 10)
        is visited (1 IO, 1 EO) and accepted; the others keep bound 0.125,
        below every bar down to 1.25, so all later visits are skipped:
        5 EO, 5 IO over the same four rounds.
        """
        f = ModularFunction([[10.0], [0.125], [0.125], [0.125]])
        m = UniformMatroid(4, 2)
        rep = threshold_decreasing_solve(f, m, epsilon=0.5)
        assert rep.rounds == [(10.0, 1), (5.0, 0), (2.5, 0), (1.25, 0)]
        assert rep.counters.eo_calls == 4 + 1
        assert rep.counters.io_calls == 4 + 1
    def test_epsilon_validation(self):
        f = ModularFunction([[1.0]])
        m = UniformMatroid(1, 1)
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError, match="epsilon"):
                threshold_decreasing_solve(f, m, epsilon=bad)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            threshold_decreasing_solve(ModularFunction([[1.0]]), UniformMatroid(2, 1), 0.5)

    def test_empty_ground_set(self):
        f = ExplicitTableFunction(0, 2, [0.0])
        rep = threshold_decreasing_solve(f, UniformMatroid(0, 0), 0.3)
        assert rep.value == 0.0
        assert rep.assignment.labels == ()
        assert rep.counters.eo_calls == 0
        assert rep.counters.io_calls == 0
        assert rep.rounds == []

    def test_zero_budget(self):
        f = ModularFunction([[2.0], [3.0]])
        rep = threshold_decreasing_solve(f, UniformMatroid(2, 0), 0.5)
        assert rep.value == 0.0
        assert rep.counters.eo_calls == 2  # the opening scan still runs
        assert rep.counters.io_calls == 2  # rank scan, then nothing
        assert rep.rounds == []

    def test_nonpositive_best_single_value(self):
        f = ModularFunction([[-1.0], [-2.0]])
        rep = threshold_decreasing_solve(f, UniformMatroid(2, 2), 0.5)
        assert rep.value == 0.0
        assert rep.counters.eo_calls == 2
        assert rep.counters.io_calls == 0  # bails before the rank scan
        assert rep.rounds == []

    def test_start_threshold_skips_loops(self):
        """d comes from independent singletons only.

        Element 0 is a loop (its block has capacity 0) worth 64; taking d
        from it would start the bar at 64 and stop at
        0.9 * 0.1 * 64 / 2 = 2.88 before the bar ever reaches element 1's
        value 1, returning 0 against OPT 1.
        """
        f = ModularFunction([[64.0], [1.0]])
        m = PartitionMatroid(2, [[0], [1]], [0, 1])
        assert brute_force_solve(f, m).value == 1.0
        rep = threshold_decreasing_solve(f, m, 0.1)
        assert rep.value == 1.0
        assert rep.assignment.labels == (0, 1)
        assert rep.rounds[0] == (1.0, 1)
        assert rep.counters.io_calls == 2 + 2  # rank scan, then both visits

    def test_deterministic(self):
        f = gen_modular(8, 2, monotone=False, seed=11)
        m = gen_partition_matroid(8, seed=12)
        a = threshold_decreasing_solve(f, m, 0.3, order_seed=42)
        b = threshold_decreasing_solve(f, m, 0.3, order_seed=42)
        assert a.assignment == b.assignment
        assert a.value == b.value
        assert a.counters == b.counters
        assert a.rounds == b.rounds

    def test_order_seed_output_stays_feasible(self):
        f = gen_modular(8, 2, seed=3)
        m = gen_partition_matroid(8, seed=4)
        for seed in (None, 0, 1, 99):
            rep = threshold_decreasing_solve(f, m, 0.4, order_seed=seed)
            assert m.is_independent(rep.assignment.support())

    def test_no_uncounted_evaluations(self):
        inner = gen_modular(6, 3, monotone=False, seed=5)
        f = CountingWrapper(inner)
        rep = threshold_decreasing_solve(f, UniformMatroid(6, 3), 0.2)
        # the only uncounted call is the final report audit
        assert f.raw_calls == rep.counters.eo_calls + 1


class TestGreedySolver:
    def test_hand_worked_example(self):
        """Same table, budget two: greedy takes both elements for 5 + 2.

        Iteration one checks both elements (2 IO) and all four pairs (4 EO);
        iteration two checks the remaining element (1 IO, 2 EO); the third
        feasibility rebuild finds nothing outside the support (0 IO).
        """
        f = ModularFunction([[5.0, -3.0], [2.0, 2.0]])
        rep = greedy_solve(f, UniformMatroid(2, 2))
        assert rep.value == 7.0
        assert rep.assignment.labels == (1, 1)
        assert rep.counters.eo_calls == 6
        assert rep.counters.io_calls == 3
        assert rep.rounds == []

    def test_adds_even_when_gains_are_negative(self):
        f = ModularFunction([[-1.0], [-2.0]])
        rep = greedy_solve(f, UniformMatroid(2, 2))
        assert rep.value == -3.0
        assert rep.counters.eo_calls == 3
        assert rep.counters.io_calls == 3

    def test_threshold_skips_what_greedy_takes(self):
        f = ModularFunction([[-1.0], [-2.0]])
        m = UniformMatroid(2, 2)
        assert greedy_solve(f, m).value == -3.0
        assert threshold_decreasing_solve(f, m, 0.5).value == 0.0

    def test_stops_at_rank_many_additions(self):
        f = gen_modular(7, 2, seed=0)
        m = gen_partition_matroid(7, seed=2)
        rep = greedy_solve(f, m)
        assert len(rep.assignment.support()) == rank(m)

    def test_no_uncounted_evaluations(self):
        inner = gen_coverage(5, 2, universe_size=9, density=0.4, seed=8)
        f = CountingWrapper(inner)
        rep = greedy_solve(f, UniformMatroid(5, 3))
        assert f.raw_calls == rep.counters.eo_calls + 1

    def test_empty_ground_set(self):
        f = ExplicitTableFunction(0, 1, [0.0])
        rep = greedy_solve(f, UniformMatroid(0, 0))
        assert rep.value == 0.0
        assert rep.counters.eo_calls == 0
        assert rep.counters.io_calls == 0


class TestBruteForce:
    def test_hand_example(self):
        f = ModularFunction([[5.0, -3.0], [2.0, 2.0]])
        res = brute_force_solve(f, UniformMatroid(2, 2))
        assert res.value == 7.0
        assert res.max_opt_support_size == 2
        assert res.assignment.labels == (1, 1)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_unpruned_enumeration(self, seed):
        f = gen_modular(4, 2, monotone=(seed % 2 == 0), seed=seed)
        m = gen_partition_matroid(4, seed=seed + 100)
        res = brute_force_solve(f, m)
        value, size = naive_optimum(f, m)
        assert res.value == value
        assert res.max_opt_support_size == size
        assert m.is_independent(res.assignment.support())
        assert f.evaluate(res.assignment) == res.value

    def test_cap_enforced(self):
        f = gen_modular(25, 3, seed=0)
        with pytest.raises(CapExceededError, match="exceed"):
            brute_force_solve(f, UniformMatroid(25, 3))

    def test_custom_cap(self):
        f = ModularFunction([[1.0], [1.0]])
        with pytest.raises(CapExceededError):
            brute_force_solve(f, UniformMatroid(2, 1), cap=3)


class TestRoundBound:
    def test_validation(self):
        with pytest.raises(ValueError):
            predicted_round_bound(0.0, 3)
        with pytest.raises(ValueError):
            predicted_round_bound(1.0, 3)
        with pytest.raises(ValueError):
            predicted_round_bound(0.5, 0)

    def test_refuses_an_epsilon_whose_complement_rounds_to_one(self):
        """``1 - eps`` is 1.0 for every eps up to ``2^-54``: the bar would
        never fall and the bound would divide by ``log(1) = 0``."""
        message = "epsilon must be large enough that 1 - epsilon is below 1"
        f, m = ModularFunction([[4.0], [1.0], [2.0]]), UniformMatroid(3, 2)
        for tiny in (2.0 ** -54, 1e-20, 5e-324):
            with pytest.raises(ValueError, match=message):
                predicted_round_bound(tiny, 2)
            with pytest.raises(ValueError, match=message):
                threshold_decreasing_solve(f, m, tiny)
        assert predicted_round_bound(2.0 ** -53, 2) > 2 ** 56

    def test_grows_with_rank_and_precision(self):
        assert predicted_round_bound(0.2, 4) <= predicted_round_bound(0.2, 16)
        assert predicted_round_bound(0.3, 8) <= predicted_round_bound(0.1, 8)

    @pytest.mark.parametrize("epsilon", [0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9])
    @pytest.mark.parametrize("r", [1, 2, 3, 5, 10, 50, 400])
    def test_dominates_simulated_schedule(self, epsilon, r):
        """Count decay steps of the actual while-loop condition directly."""
        w = 1.0
        stop = (1 - epsilon) * epsilon / (2 * r)
        steps = 0
        while w > stop:
            steps += 1
            w *= 1 - epsilon
        assert steps <= predicted_round_bound(epsilon, r)


class TestApproximationSpotChecks:
    @pytest.mark.parametrize("epsilon", [0.1, 0.3, 0.5])
    def test_monotone_ratio(self, epsilon):
        for seed in range(10):
            f = gen_modular(5, 2, monotone=True, seed=seed)
            m = gen_partition_matroid(5, seed=seed + 50)
            opt = brute_force_solve(f, m).value
            rep = threshold_decreasing_solve(f, m, epsilon)
            assert rep.value >= (0.5 - epsilon) * opt

    @pytest.mark.parametrize("epsilon", [0.1, 0.3, 0.5])
    def test_nonmonotone_ratio(self, epsilon):
        for seed in range(10):
            f = gen_modular(5, 3, monotone=False, seed=seed)
            m = gen_explicit_matroid(5, seed=seed + 50)
            opt = brute_force_solve(f, m).value
            rep = threshold_decreasing_solve(f, m, epsilon)
            assert rep.value >= (1 / 3 - epsilon) * opt
