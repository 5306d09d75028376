import itertools

import pytest

from ksubmax import (
    Assignment,
    ExplicitTableFunction,
    ModularFunction,
    check_marginal_sum_bound,
    enumerate_assignments,
    gen_coverage,
    gen_modular,
    join,
    meet,
    precedes,
    verify_k_submodular,
    verify_monotone,
    verify_orthant_pairwise,
)


def support_squared(n, k):
    """f(p) = |supp(p)|^2, strictly supermodular, so not k-submodular."""
    values = [0.0] * (k + 1) ** n
    for a in enumerate_assignments(n, k):
        idx = 0
        for e in reversed(range(n)):
            idx = idx * (k + 1) + a.labels[e]
        values[idx] = float(len(a.support()) ** 2)
    return ExplicitTableFunction(n, k, values)


class TestLatticeVerifier:
    def test_modular_holds(self):
        f = gen_modular(3, 2, monotone=False, seed=4)
        v = verify_k_submodular(f)
        assert v.holds and v.exhaustive
        assert v.counterexample is None
        assert bool(v) is True

    def test_coverage_holds(self):
        f = gen_coverage(3, 2, universe_size=6, density=0.5, seed=1)
        assert verify_k_submodular(f).holds

    def test_supermodular_fails_with_real_counterexample(self):
        f = support_squared(2, 2)
        v = verify_k_submodular(f)
        assert not v.holds and v.exhaustive
        p, q = v.counterexample
        lhs = f.evaluate(p) + f.evaluate(q)
        rhs = f.evaluate(join(p, q)) + f.evaluate(meet(p, q))
        assert lhs < rhs

    def test_sampled_verdict_flagged(self):
        f = gen_modular(10, 2, seed=0)
        v = verify_k_submodular(f, pair_budget=300)
        assert v.holds
        assert not v.exhaustive
        assert v.checked == 300

    def test_sampling_finds_dense_violations(self):
        f = support_squared(6, 1)
        v = verify_k_submodular(f, pair_budget=500, seed=0)
        assert not v.holds
        assert not v.exhaustive
        p, q = v.counterexample
        lhs = f.evaluate(p) + f.evaluate(q)
        assert lhs < f.evaluate(join(p, q)) + f.evaluate(meet(p, q))


class TestOrthantPairwiseVerifier:
    def test_modular_holds(self):
        f = gen_modular(3, 2, monotone=False, seed=4)
        v = verify_orthant_pairwise(f)
        assert v.holds and v.exhaustive

    def test_orthant_violation_tagged(self):
        f = support_squared(2, 2)
        v = verify_orthant_pairwise(f)
        assert not v.holds
        tag, p, q, e, i = v.counterexample
        assert tag == "orthant"
        gain_p = f.evaluate(p.assign(e, i)) - f.evaluate(p)
        gain_q = f.evaluate(q.assign(e, i)) - f.evaluate(q)
        assert gain_p < gain_q

    def test_pairwise_violation_tagged(self):
        # one element, gains 1 and -2 at the two positions: sums to -1
        f = ExplicitTableFunction(1, 2, [0.0, 1.0, -2.0])
        v = verify_orthant_pairwise(f)
        assert not v.holds
        assert v.counterexample[0] == "pairwise"
        _, p, e, i, j = v.counterexample
        gi = f.evaluate(p.assign(e, i)) - f.evaluate(p)
        gj = f.evaluate(p.assign(e, j)) - f.evaluate(p)
        assert gi + gj < 0

    def test_sampled_path(self):
        f = gen_modular(9, 2, seed=3)  # 5^9 ordered pairs, over any small budget
        v = verify_orthant_pairwise(f, pair_budget=400)
        assert v.holds and not v.exhaustive


class TestCharacterizationsAgree:
    """The two k-submodularity verifiers must return identical verdicts."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_tables(self, seed):
        import random

        rng = random.Random(seed)
        n = rng.randint(1, 3)
        k = rng.randint(1, 3)
        f = ExplicitTableFunction.tabulate(gen_modular(n, k, monotone=False, seed=seed))
        if seed % 2:
            values = list(f.values)
            values[rng.randrange(1, len(values))] += rng.choice([-7.25, 7.25])
            f = ExplicitTableFunction(n, k, values)
        assert verify_k_submodular(f).holds == verify_orthant_pairwise(f).holds


class TestMonotoneVerifier:
    def test_nonnegative_table_is_monotone(self):
        f = gen_modular(3, 2, monotone=True, seed=2)
        v = verify_monotone(f)
        assert v.holds and v.exhaustive

    def test_coverage_is_monotone(self):
        f = gen_coverage(3, 2, universe_size=5, density=0.6, seed=0)
        assert verify_monotone(f).holds

    def test_negative_entry_detected(self):
        # every row meets the pairwise-sum rule, and two entries are negative
        f = ModularFunction([[-1.0, 2.0], [0.5, 0.25], [3.0, -3.0]])
        v = verify_monotone(f)
        assert not v.holds
        p, q = v.counterexample
        assert precedes(p, q)
        assert f.evaluate(p) > f.evaluate(q)

    def test_sampled_path(self):
        f = gen_modular(9, 2, monotone=True, seed=1)
        v = verify_monotone(f, pair_budget=200)
        assert v.holds and not v.exhaustive


class TestMarginalSumBound:
    def test_requires_order(self):
        f = gen_modular(2, 2, seed=0)
        with pytest.raises(ValueError, match="precede"):
            check_marginal_sum_bound(f, Assignment((1, 0), 2), Assignment((2, 1), 2))

    def test_equality_for_modular(self):
        f = gen_modular(4, 2, monotone=False, seed=9)
        p = Assignment((1, 0, 0, 2), 2)
        q = Assignment((1, 2, 1, 2), 2)
        assert check_marginal_sum_bound(f, p, q)
        # modular means the bound is tight
        gain_sum = sum(
            f.evaluate(p.assign(e, q.labels[e])) - f.evaluate(p)
            for e in q.support() - p.support()
        )
        assert f.evaluate(q) - f.evaluate(p) == gain_sum

    def test_inequality_for_coverage(self):
        f = gen_coverage(4, 2, universe_size=7, density=0.5, seed=3)
        for q in enumerate_assignments(4, 2):
            supp = sorted(q.support())
            for size in range(len(supp) + 1):
                for keep in itertools.combinations(supp, size):
                    assert check_marginal_sum_bound(f, q.restrict(keep), q)
