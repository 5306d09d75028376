"""The lazy threshold solver against the eager reference loop.

``threshold_decreasing_solve`` skips a candidate whose last computed best
gain is below the bar and stops once the support reaches the rank.  On a
k-submodular function both shortcuts are exact: every acceptance is the
one the eager loop (``helpers.eager_threshold_solve``) makes.  The gate
requires the same assignment and value, and no more EO, IO or rounds, on
the acceptance-criteria grids and on random instances.
"""

from hypothesis import given, settings, strategies as st

from ksubmax import (
    ModularFunction,
    gen_coverage,
    gen_explicit_matroid,
    gen_modular,
    gen_partition_matroid,
    threshold_decreasing_solve,
    UniformMatroid,
)

from helpers import eager_threshold_solve, modular_opt
from test_gain_state import feasibility_instances, ratio_instances


def assert_lazy_matches_eager(f, m, epsilon, order_seed=None):
    lazy = threshold_decreasing_solve(f, m, epsilon, order_seed=order_seed)
    eager = eager_threshold_solve(f, m, epsilon, order_seed=order_seed)
    assert lazy.assignment == eager.assignment
    assert lazy.value == eager.value
    assert lazy.counters.eo_calls <= eager.counters.eo_calls
    assert lazy.counters.io_calls <= eager.counters.io_calls
    # the lazy run stops early at most, and only once eager adds nothing more
    assert lazy.rounds == eager.rounds[: len(lazy.rounds)]
    assert all(added == 0 for _, added in eager.rounds[len(lazy.rounds):])
    return lazy, eager


def test_lazy_equals_eager_on_criteria_grids():
    """Criterion 1 (all 1000 instances) and criteria 2-3 (every epsilon),
    each with and without a visit-order seed."""
    runs = 0
    saved_eo = 0
    grids = (feasibility_instances(count=1000), ratio_instances())
    for grid in grids:
        for f, m, epsilons in grid:
            for epsilon in epsilons:
                for order_seed in (None, 7):
                    lazy, eager = assert_lazy_matches_eager(f, m, epsilon, order_seed)
                    saved_eo += eager.counters.eo_calls - lazy.counters.eo_calls
                    runs += 1
    assert runs == 2 * (1000 + 3 * 450)
    assert saved_eo > 0


def test_lazy_equals_eager_where_a_subnormal_bar_stalls():
    """Rounding holds these bars still at a few units of 2^-1074, where both
    loops drop them one unit a round."""
    unit = 5e-324
    for f, m, epsilon in (
        (ModularFunction([[6 * unit], [unit], [2 * unit]]), UniformMatroid(3, 3), 0.1),
        (ModularFunction([[60 * unit]] + [[48 * unit]] * 10), UniformMatroid(11, 11), 0.01),
    ):
        lazy, _ = assert_lazy_matches_eager(f, m, epsilon)
        bars = [w for w, _ in lazy.rounds]
        assert bars == sorted(set(bars), reverse=True) and lazy.value == modular_opt(f, m)


@st.composite
def instances(draw):
    n = draw(st.integers(1, 10))
    k = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 10_000))
    family = draw(st.sampled_from(("monotone", "nonmonotone", "coverage")))
    if family == "coverage":
        f = gen_coverage(n, k, universe_size=2 * n, density=0.4, seed=seed)
    else:
        f = gen_modular(n, k, monotone=family == "monotone", seed=seed)
    kind = draw(st.sampled_from(("uniform", "partition", "explicit")))
    if kind == "uniform":
        m = UniformMatroid(n, draw(st.integers(0, n)))
    elif kind == "partition":
        m = gen_partition_matroid(n, seed=seed + 1)
    else:
        m = gen_explicit_matroid(n, seed=seed + 1)
    return f, m


@settings(max_examples=300, deadline=None)
@given(
    instances(),
    st.sampled_from((0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9)),
    st.one_of(st.none(), st.integers(0, 1000)),
)
def test_lazy_equals_eager_property(instance, epsilon, order_seed):
    f, m = instance
    assert_lazy_matches_eager(f, m, epsilon, order_seed)
