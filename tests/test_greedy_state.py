"""The lazy greedy solver against the eager greedy and the generic lazy loop.

``greedy_solve`` is a lazy greedy (Minoux 1978): after each placement it
tests and re-prices only the candidates whose last priced gain can still
win.  Two references check it (``tests/helpers``):
``reference_greedy_solve``, the paper's eager loop that rebuilds the
feasible set and prices every feasible element every iteration, and
``reference_lazy_greedy_solve``, the generic lazy loop written out step by
step with explicit stamps.  Greedy must give the eager loop's assignment
and value and the lazy loop's EO and IO counts exactly, and those counts
are no higher than the eager loop's.  This is checked on the
acceptance-criteria grids and on random instances, on the shipped
function and matroid families, on ``ReferenceMatroid`` (the
``is_independent`` path) and on ``CountingWrapper`` (the default gain
state).  Hand-worked instances pin the counts.

A guard also requires that the solvers never fall back to
``Matroid.is_independent`` (time linear in the support per test) or
``Assignment.assign`` (an n-tuple copy per placement) on the shipped
function and matroid families.  A second guard requires that the rank
scan (``greedy_basis``, ``rank``) makes only batched oracle calls there,
and counts greedy's per-element calls: one ``_can_add`` per IO call past
its batched opening test, and one ``_best`` per row priced by the default
heap loop; the coverage walk prices its rows inline and makes no
``_best`` call.
"""

from hypothesis import given, settings


from ksubmax import (
    Assignment,
    CoverageFunction,
    ExplicitMatroid,
    GainState,
    Matroid,
    ModularFunction,
    OracleCounters,
    PartitionMatroid,
    UniformMatroid,
    gen_coverage,
    gen_explicit_matroid,
    gen_modular,
    gen_partition_matroid,
    greedy_solve,
    marginal_gain,
    rank,
    threshold_decreasing_solve,
)
from ksubmax.instances import _CoverageGainState, _ModularGainState
from ksubmax.matroids import (_PartitionIndependenceState, _UniformIndependenceState,
                              greedy_basis)

from helpers import CountingWrapper, ReferenceMatroid, reference_greedy_solve, same_greedy_run
from test_gain_state import feasibility_instances, ratio_instances
from test_lazy_threshold import instances


def assert_greedy_matches_reference(f, m):
    """Greedy on ``m``, on its reference wrapper and on a counting wrapper of
    ``f`` against both reference loops; a wrapped run makes one raw
    evaluation per EO call it is charged, plus the audit.  Returns the
    eager run."""
    wrapped = CountingWrapper(f)
    for f_, m_ in ((f, m), (f, ReferenceMatroid(m)), (wrapped, m)):
        wrapped.raw_calls = 0
        got = greedy_solve(f_, m_)
        if f_ is wrapped:
            assert wrapped.raw_calls == got.counters.eo_calls + 1
        expected = same_greedy_run(got, f_, m_)
    return expected


def test_greedy_equals_reference_on_criteria_grids():
    """Criterion 1 (all 1000 instances) and criteria 2-3 (every instance)."""
    runs = 0
    placed = 0
    for grid in (feasibility_instances(count=1000), ratio_instances()):
        for f, m, _ in grid:
            placed += len(assert_greedy_matches_reference(f, m).assignment.support())
            runs += 1
    assert runs == 1000 + 450
    assert placed > runs


@settings(max_examples=300, deadline=None)
@given(instances())
def test_greedy_equals_reference_property(instance):
    f, m = instance
    assert_greedy_matches_reference(f, m)


def test_greedy_counts_on_a_hand_worked_partition():
    """Block {0, 1} takes one element, block {2} one.  The opening tests and
    prices all three and adds 0.  Then element 1, the largest bound, is
    tested and found infeasible, and element 2 is tested, re-priced and
    added; nothing is left.  So 3 + 2 IO and 3 + 1 EO.  The eager loop
    tests element 1 again in its third iteration: 6 IO."""
    f = ModularFunction([[5.0], [4.0], [1.0]])
    m = PartitionMatroid(3, [[0, 1], [2]], [1, 1])
    report = greedy_solve(f, m)
    assert report.assignment.labels == (1, 0, 1)
    assert (report.value, report.counters) == (6.0, OracleCounters(eo_calls=4, io_calls=5))
    assert reference_greedy_solve(f, m).counters == OracleCounters(eo_calls=4, io_calls=6)


def test_greedy_counts_on_a_hand_worked_uniform():
    """Budget 2.  The opening tests and prices all three and adds 0.  Then
    element 1, the largest bound, is tested and re-priced (its gain stays
    4.0, still the largest bound) and added; element 2 is tested and does
    not fit.  So 3 + 1 + 1 IO and 3 + 1 EO.  The eager loop prices 1 and 2
    in its second iteration and tests 2 again in its third: 5 EO, 6 IO."""
    f = ModularFunction([[5.0], [4.0], [1.0]])
    m = UniformMatroid(3, 2)
    report = greedy_solve(f, m)
    assert report.assignment.labels == (1, 1, 0)
    assert (report.value, report.counters) == (9.0, OracleCounters(eo_calls=4, io_calls=5))
    assert reference_greedy_solve(f, m).counters == OracleCounters(eo_calls=5, io_calls=6)


def test_coverage_greedy_weighs_only_the_rows_it_charges():
    """The coverage walk weighs each row it charges once, and nothing else:
    on the benchmark's n=100 coverage shape, one weighing per EO call
    charged, under a third of the eager loop's EO calls."""
    f = gen_coverage(100, 3, 200, 0.25, seed=0)
    m = UniformMatroid(100, 25)
    calls = []
    weight = f._weight
    f._weight = lambda points: calls.append(points) or weight(points)
    report = greedy_solve(f, m)
    weighed = len(calls) - 1  # the report's audit evaluation weighs once
    assert weighed == report.counters.eo_calls
    assert 0 < 3 * weighed < reference_greedy_solve(f, m).counters.eo_calls


def _counted(calls, name, method):
    """``method`` with each call tallied in ``calls[name]``."""

    def counted(*args, **kwargs):
        calls[name] += 1
        return method(*args, **kwargs)

    return counted


def _guard_instances():
    for n in (1, 5, 10):
        for seed in range(3):
            for f in (gen_modular(n, 3, monotone=True, seed=seed),
                      gen_modular(n, 2, monotone=False, seed=seed),
                      gen_coverage(n, 3, 2 * n, 0.4, seed=seed)):
                for m in (UniformMatroid(n, 1 + seed % n),
                          gen_partition_matroid(n, seed=seed),
                          gen_explicit_matroid(n, seed=seed)):
                    yield f, m


def test_solvers_make_no_is_independent_or_assign_calls(monkeypatch):
    calls = {"is_independent": 0, "assign": 0}
    for owner, name in ((Matroid, "is_independent"), (Assignment, "assign")):
        monkeypatch.setattr(owner, name, _counted(calls, name, getattr(owner, name)))
    runs = 0
    for f, m in _guard_instances():
        greedy_solve(f, m)
        for order_seed in (None, 7):
            threshold_decreasing_solve(f, m, 0.1, order_seed=order_seed)
        runs += 3
    assert runs == 3 * 3 * 3 * 3 * 3
    assert calls == {"is_independent": 0, "assign": 0}

    # the tallies are live: the reference matroid path tests through
    # is_independent, and marginal_gain places through assign
    f, m = gen_modular(5, 2, seed=1), gen_partition_matroid(5, seed=1)
    greedy_solve(CountingWrapper(f), ReferenceMatroid(m))
    marginal_gain(f, f.zero(), 0, 1)
    assert calls["is_independent"] > 0 and calls["assign"] > 0


def test_greedy_and_rank_scan_per_element_calls(monkeypatch):
    """The rank scan never reaches a per-element ``_best`` of any gain state
    or ``_can_add`` of the uniform and partition states.  Greedy tests its
    opening in one batch and then makes one ``_can_add`` per IO call past
    the opening's ``n``.  It prices every row through ``_best`` on the
    modular state, whose greedy runs the default loops, and none on the
    coverage state, whose walk prices its rows inline."""
    calls = {"_best": 0, "_can_add": 0}
    for owner, name in ((GainState, "_best"), (_ModularGainState, "_best"),
                        (_CoverageGainState, "_best"), (_UniformIndependenceState, "_can_add"),
                        (_PartitionIndependenceState, "_can_add")):
        monkeypatch.setattr(owner, name, _counted(calls, name, getattr(owner, name)))
    runs = 0
    for f, m in _guard_instances():
        order = sorted(range(m.ground_size), key=lambda e: (e % 3, -e))
        basis = []
        for e in order:
            if m.is_independent(basis + [e]):
                basis.append(e)
        assert greedy_basis(m, order) == basis
        assert rank(m) == len(basis)
        assert calls == {"_best": 0, "_can_add": 0}

        report = greedy_solve(f, m)
        rows = report.counters.eo_calls // f.k
        assert calls["_best"] == (0 if isinstance(f, CoverageFunction) else rows)
        if not isinstance(m, ExplicitMatroid):  # its states loop over _can_add
            assert calls["_can_add"] == report.counters.io_calls - f.n
        calls.update(_best=0, _can_add=0)
        runs += 1
    assert runs == 3 * 3 * 3 * 3
