"""The lazy threshold solver against the eager loop and the per-element
lazy loop.

``threshold_decreasing_solve`` keeps a bound per (element, position) pair:
a visit prices pairs only while they can clear the bar, and tests
independence only for an element whose best fresh gain clears it.  Two
references check it (``tests/helpers``): ``eager_threshold_solve``, which
visits every candidate every round, and
``reference_lazy_threshold_solve``, the loop with one bound per element
that tests before it prices all k positions.  The gate requires the
per-element loop's assignment, ``repr(value)`` and rounds, no more IO than
it; the eager loop's assignment and value with no more IO and rounds; and
no more EO than either loop on uniform matroids, where no visit fails on
independence.  On other matroids a visit prices an element before its
test can drop it, so the EO count can pass the eager loop's (pinned on a
partition matroid below); there it is held to criterion 4's
``n*k*(rounds+1)``.  It runs on the acceptance-criteria grids and on
random instances, over the modular, coverage, explicit-table and
``CountingWrapper`` functions and the uniform, partition, explicit and
``ReferenceMatroid`` matroids.
"""

import math
import random

from hypothesis import given, settings, strategies as st

from ksubmax import (
    ExplicitTableFunction,
    GainState,
    KSubFunction,
    ModularFunction,
    OracleCounters,
    PartitionMatroid,
    UniformMatroid,
    gen_coverage,
    gen_explicit_matroid,
    gen_modular,
    gen_partition_matroid,
    greedy_solve,
    threshold_decreasing_solve,
)

from helpers import (CountingWrapper, ReferenceMatroid, eager_threshold_solve, modular_opt,
                     reference_lazy_threshold_solve, reference_pair_walk)
from test_gain_state import feasibility_instances, ratio_instances


def assert_lazy_matches_eager(f, m, epsilon, order_seed=None):
    lazy = threshold_decreasing_solve(f, m, epsilon, order_seed=order_seed)
    ref = reference_lazy_threshold_solve(f, m, epsilon, order_seed=order_seed)
    eager = eager_threshold_solve(f, m, epsilon, order_seed=order_seed)
    assert lazy.assignment == ref.assignment == eager.assignment
    assert repr(lazy.value) == repr(ref.value) == repr(eager.value)
    assert lazy.rounds == ref.rounds
    assert lazy.counters.io_calls <= ref.counters.io_calls <= eager.counters.io_calls
    assert ref.counters.eo_calls <= eager.counters.eo_calls
    if isinstance(m.inner if isinstance(m, ReferenceMatroid) else m, UniformMatroid):
        assert lazy.counters.eo_calls <= ref.counters.eo_calls
        assert lazy.counters.eo_calls <= eager.counters.eo_calls
    # a visit prices at most k pairs, so criterion 4 holds on every matroid
    assert lazy.counters.eo_calls <= f.n * f.k * (len(lazy.rounds) + 1)
    # the lazy run stops early at most, and only once eager adds nothing more
    assert lazy.rounds == eager.rounds[: len(lazy.rounds)]
    assert all(added == 0 for _, added in eager.rounds[len(lazy.rounds):])
    return lazy, eager


def assert_every_path_matches(f, m, epsilon, order_seed=None):
    """``assert_lazy_matches_eager`` on ``f`` and ``m``, on the reference
    matroid and on a counting wrapper of ``f``, whose raw evaluations are
    its EO calls plus the audit; returns the plain run's pair."""
    wrapped = CountingWrapper(f)
    got = threshold_decreasing_solve(wrapped, m, epsilon, order_seed=order_seed)
    assert wrapped.raw_calls == got.counters.eo_calls + 1
    assert_lazy_matches_eager(wrapped, m, epsilon, order_seed)
    assert_lazy_matches_eager(f, ReferenceMatroid(m), epsilon, order_seed)
    return assert_lazy_matches_eager(f, m, epsilon, order_seed)


def test_lazy_equals_eager_on_criteria_grids():
    """Criterion 1 (all 1000 instances) and criteria 2-3 (every epsilon),
    each with and without a visit-order seed."""
    runs = 0
    saved_eo = 0
    grids = (feasibility_instances(count=1000), ratio_instances())
    for grid in grids:
        for j, (f, m, epsilons) in enumerate(grid):
            # every fifth instance also on the wrapped paths
            check = assert_every_path_matches if j % 5 == 0 else assert_lazy_matches_eager
            for epsilon in epsilons:
                for order_seed in (None, 7):
                    lazy, eager = check(f, m, epsilon, order_seed)
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
    family = draw(st.sampled_from(("monotone", "nonmonotone", "coverage", "table")))
    if family == "coverage":
        f = gen_coverage(n, k, universe_size=2 * n, density=0.4, seed=seed)
    else:
        f = gen_modular(n, k, monotone=family != "nonmonotone", seed=seed)
        if family == "table" and (k + 1) ** n <= 4096:
            f = ExplicitTableFunction.tabulate(f)
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
    assert_every_path_matches(f, m, epsilon, order_seed)


def test_lazy_threshold_counts_on_the_readme_instance():
    """Elements 0 and 1 at k = 2 under budget 1.  The opening prices four
    pairs and the rank scan tests both elements.  At bar 5.0, element 0's
    top pair (bound 5.0 at position 1) is priced; its other bound, -3.0, is
    below the bar, so the walk stops, and the gain clears the bar: one
    test places it.  So 4 + 1 EO and 2 + 1 IO; the per-element loop
    priced both positions, 6 EO."""
    f = ModularFunction([[5.0, -3.0], [2.0, 2.0]])
    m = UniformMatroid(2, 1)
    report = threshold_decreasing_solve(f, m, 0.5)
    assert (report.assignment.labels, report.value) == ((1, 0), 5.0)
    assert report.counters == OracleCounters(eo_calls=5, io_calls=3)
    ref = reference_lazy_threshold_solve(f, m, 0.5)
    assert ref.counters == OracleCounters(eo_calls=6, io_calls=3)


def test_lazy_threshold_counts_on_the_blocks_instance():
    """Block {0, 1} takes one element, block {2} one; k = 1.  The opening
    prices 3 pairs and the rank scan tests 3 elements.  Bar 5.0: element 0
    is priced (1 EO), clears the bar and is placed (1 IO); element 1's
    bound 4.0 is below.  Bar 2.5: element 1 is priced before it is tested
    (1 EO), clears the bar and is dropped (1 IO).  Bars 1.25 and 0.625:
    nothing clears until element 2 (1 EO, 1 IO) at 0.625.  So 3 + 3 EO and
    3 + 3 IO; the per-element loop tested element 1 first and never priced
    it, 5 EO."""
    f = ModularFunction([[5.0], [4.0], [1.0]])
    m = PartitionMatroid(3, [[0, 1], [2]], [1, 1])
    report = threshold_decreasing_solve(f, m, 0.5)
    assert (report.assignment.labels, report.value) == ((1, 0, 1), 6.0)
    assert report.counters == OracleCounters(eo_calls=6, io_calls=6)
    ref = reference_lazy_threshold_solve(f, m, 0.5)
    assert ref.counters == OracleCounters(eo_calls=5, io_calls=6)


def test_lazy_threshold_can_price_more_than_the_eager_loop():
    """Block {0..9} takes one element, block {10} one; k = 1, eps = 0.5.
    The opening prices 11 pairs and the rank scan tests 11 elements.  Bar
    8: element 0 is priced and placed (1 EO, 1 IO).  Bar 4: elements 1-9
    no longer fit, but each is priced before its test drops it (9 EO, 9
    IO).  Bars 2 and 1: element 10 is skipped, then priced and placed at 1
    (1 EO, 1 IO).  So 22 EO and 22 IO.  The eager loop tests elements 1-9
    at bar 8 and drops them unpriced, then prices element 10 at each of
    the four bars: 16 EO and 25 IO.  The per-element loop: 13 EO, 22 IO."""
    f = ModularFunction([[8.0]] + [[7.0]] * 9 + [[1.0]])
    m = PartitionMatroid(11, [list(range(10)), [10]], [1, 1])
    report = threshold_decreasing_solve(f, m, 0.5)
    assert (report.assignment.labels, report.value) == ((1,) + (0,) * 9 + (1,), 9.0)
    assert report.rounds == [(8.0, 1), (4.0, 0), (2.0, 0), (1.0, 1)]
    assert report.counters == OracleCounters(eo_calls=22, io_calls=22)
    assert eager_threshold_solve(f, m, 0.5).counters == OracleCounters(eo_calls=16, io_calls=25)
    assert reference_lazy_threshold_solve(f, m, 0.5).counters == OracleCounters(eo_calls=13,
                                                                                io_calls=22)


def test_price_stops_on_the_bar_and_on_ties():
    """``_price`` on hand-set stale pair bounds of the default state, over a
    modular row whose gains are all 3.0 (k = 3).  Bounds 5, 4, 1 at bar
    4.5: the first pair prices to 3.0 and the next bound, 4, is below the
    bar, so 1 EO, and 4 stays the row bound.  Bounds 5, 3, 3 at bar 1: the
    first pair prices to 3.0, and the other two bounds equal that gain at
    higher positions, so 1 EO.
    Bounds 3, 5, 3 at bar 1: position 2 prices to 3.0, and position 1's
    equal bound sits lower, so it is priced too and wins the tie; then
    position 3's equal bound sits higher, so 2 EO."""
    f = ModularFunction([[3.0, 3.0, 3.0]])
    for bounds, bar, expected in (([5.0, 4.0, 1.0], 4.5, (3.0, 1, 4.0, 1)),
                                  ([5.0, 3.0, 3.0], 1.0, (3.0, 1, 3.0, 1)),
                                  ([3.0, 5.0, 3.0], 1.0, (3.0, 1, 3.0, 2))):
        state = GainState(f, OracleCounters())
        state._pairs[0] = list(bounds)
        gain, i = state._price(0, bar)
        assert (gain, i, state._bound[0], state.counters.eo_calls) == expected
        assert expected == reference_pair_walk(bounds, [3.0] * 3, bar)[:4]


class _NaNGain(KSubFunction):
    """A modular table, except that next to a placed element 0, element 1
    gives a NaN value at position 1 and loses 2.0 at position 2.
    Evaluations are capped, so a solver that repeats a pricing fails
    instead of hanging."""

    def __init__(self, table):
        super().__init__(3, 2)
        self.table = table
        self.calls = 0

    def _value(self, a):
        self.calls += 1
        assert self.calls < 10_000, "a pricing repeats"
        labels = a.labels
        if labels[0] and labels[1] == 1:
            return math.nan
        value = sum(self.table[e][i - 1] for e, i in enumerate(labels) if i)
        return value - 2.0 if labels[0] and labels[1] == 2 else value


def test_a_nan_gain_ends_the_pair_walk():
    """After element 0 is placed, element 1's pair bounds are 4.0 and 5.0.
    Position 2 prices to 3.0, then position 1 to NaN, which ``max`` then
    keeps picking.  ``_price`` prices each pair at most once per call, so
    the walk stops at 2 EO with 3.0 at position 2.  The next call finds
    the NaN bound first, prices it once more (1 EO) and returns it as the
    row's best, as ``best`` gives it; a NaN clears no bar.  Both solvers
    end: threshold, where the NaN is element 1's first pair, as the
    per-element loop does; greedy, which re-prices whole rows, too."""
    f = _NaNGain([[6.0, 0.0], [4.0, 5.0], [1.0, 1.0]])
    state = f.gain_state(OracleCounters())
    state._bests(range(3))
    state.place(0, 1, 6.0)
    before = state.counters.eo_calls
    assert state._price(1, 2.0) == (3.0, 2)
    assert state.counters.eo_calls - before == 2
    assert math.isnan(state._bound[1]) and state._pairs[1][1] == 3.0
    gain, i = state._price(1, 2.0)
    assert (math.isnan(gain), i, state.counters.eo_calls - before) == (True, 1, 3)

    m = UniformMatroid(3, 2)
    table = [[5.0, 0.0], [4.0, 3.0], [1.0, 1.0]]
    report = threshold_decreasing_solve(_NaNGain(table), m, 0.5)
    ref = reference_lazy_threshold_solve(_NaNGain(table), m, 0.5)
    assert (report.assignment.labels, report.value) == ((1, 0, 1), 6.0)
    assert report.rounds == ref.rounds == [(5.0, 1), (2.5, 0), (1.25, 0), (0.625, 1)]
    assert report.counters.io_calls <= ref.counters.io_calls
    for table in ([[5.0, 0.0], [4.0, 3.0], [1.0, 1.0]], [[6.0, 0.0], [4.0, 5.0], [1.0, 1.0]]):
        threshold_decreasing_solve(_NaNGain(table), m, 0.5)
        greedy_solve(_NaNGain(table), m)


def test_twin_states_charge_the_default_states_counts():
    """The modular and coverage states charge, on every threshold and greedy
    run, what the default state charges on the tabulated function, whose pair bounds it keeps
    the same way; the gains are the same floats, so the runs are too."""
    runs = 0
    for seed in range(12):
        for f in (gen_modular(5, 3, monotone=seed % 2 == 0, seed=seed),
                  gen_coverage(5, 3, 10, 0.4, seed=seed)):
            table = ExplicitTableFunction.tabulate(f)
            for m in (UniformMatroid(5, 1 + seed % 5), gen_partition_matroid(5, seed=seed),
                      gen_explicit_matroid(5, seed=seed)):
                for epsilon in (0.1, 0.5):
                    got = threshold_decreasing_solve(f, m, epsilon)
                    twin = threshold_decreasing_solve(table, m, epsilon)
                    assert (got.assignment, got.counters, got.rounds) == (
                        twin.assignment, twin.counters, twin.rounds)
                    runs += 1
                got, twin = greedy_solve(f, m), greedy_solve(table, m)
                assert (got.assignment, got.counters) == (twin.assignment, twin.counters)
    assert runs == 12 * 2 * 3 * 2


def test_price_matches_a_full_row_and_the_default_state():
    """``_price(e, bar)`` on the modular, coverage and default states, after
    random placements and at random bars no higher than the row bound:
    the same gain, position, pair bounds, row bound and EO on every state
    as the walk's rule gives them (``helpers.reference_pair_walk``), and,
    where the gain clears the bar, the row's best as ``best`` gives it.  A
    bar of ``-inf`` always gives the row's best."""
    rng = random.Random(5)
    checked = 0
    for seed in range(30):
        n, k = rng.randint(2, 6), rng.randint(1, 4)
        f = (gen_modular(n, k, monotone=seed % 3 == 0, seed=seed) if seed % 2
             else gen_coverage(n, k, 2 * n, 0.4, seed=seed))
        states = [f.gain_state(OracleCounters()),
                  GainState(ExplicitTableFunction.tabulate(f), OracleCounters())]
        for state in states:
            state._bests(range(n))
        open_ = list(range(n))
        rng.shuffle(open_)
        while open_:
            e = open_.pop()
            row = states[1]._bound[e]
            bar = rng.choice([-math.inf, row, row - abs(row) / 2, row - 1.0])
            fresh = GainState(states[1].f)
            fresh._labels, fresh.value = list(states[1]._labels), states[1].value
            fresh._best(e)
            expected = reference_pair_walk(states[1]._pairs[e], fresh._pairs[e], bar)
            results = []
            for state in states:
                before = state.counters.eo_calls
                gain, i = state._price(e, bar)
                results.append((gain, i, state._bound[e], state.counters.eo_calls - before))
            assert results[0] == results[1] == expected[:4]
            assert states[1]._pairs[e] == expected[4]
            gain, i = results[0][:2]
            if gain >= bar:
                assert (gain, i) == fresh._best(e)
            if open_ and gain > -math.inf and gain >= bar:
                for state in states:
                    state.place(e, i, gain)
            checked += 1
    assert checked > 100
