"""The greedy solver on one running independence state against the reference loop.

``greedy_solve`` holds one ``m.independence_state`` for the whole run and
tests each candidate (an element outside the support not yet found
infeasible) once per iteration.  The reference loop
(``helpers.reference_greedy_solve``) rebuilds the feasible set with
``feasible_extensions`` every iteration, so it re-tests the elements an
earlier iteration found infeasible.  Both must give the same assignment,
value and EO calls, and greedy's IO calls must be the reference's less
those re-tests (none on a uniform matroid), on the acceptance-criteria
grids and on random instances, on the shipped matroid families and on
``ReferenceMatroid`` (the ``is_independent`` path).  A hand-worked
partition instance pins the counts.

A guard also requires that the solvers never fall back to
``Matroid.is_independent`` (time linear in the support per test) or
``Assignment.assign`` (an n-tuple copy per placement) on the shipped
function and matroid families.  A second guard requires that greedy, and
the rank scan (``greedy_basis``, ``rank``), make only batched oracle calls
there: they never reach the per-element ``GainState._best`` or
``IndependenceState._can_add``, which raise in that test.
"""

from hypothesis import given, settings

import pytest

from ksubmax import (
    Assignment,
    GainState,
    IndependenceState,
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
from ksubmax.matroids import greedy_basis

from helpers import (CountingWrapper, ReferenceMatroid, reference_greedy_retests,
                     reference_greedy_solve, same_greedy_run)
from test_gain_state import feasibility_instances, ratio_instances, same_run
from test_lazy_threshold import instances


def assert_greedy_matches_reference(f, m):
    """Greedy on ``m`` and on its reference wrapper match the reference loop
    on the wrapper less its re-tests, and the reference loop on ``m``
    equals it."""
    ref = ReferenceMatroid(m)
    expected, retests = reference_greedy_retests(f, ref)
    same_run(reference_greedy_solve(f, m), expected)
    for got in (greedy_solve(f, m), greedy_solve(f, ref)):
        same_greedy_run(got, expected, retests)
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
    """Block {0, 1} takes one element, block {2} one.  Iteration 1 tests and
    prices all three and adds 0; iteration 2 tests 1 and 2, finds 1
    infeasible, prices 2 and adds it; iteration 3 has no candidate left.
    So 3 + 2 IO and 3 + 1 EO; the reference tests element 1 a third time."""
    f = ModularFunction([[5.0], [4.0], [1.0]])
    m = PartitionMatroid(3, [[0, 1], [2]], [1, 1])
    report = greedy_solve(f, m)
    assert report.assignment.labels == (1, 0, 1)
    assert (report.value, report.counters) == (6.0, OracleCounters(eo_calls=4, io_calls=5))
    expected, retests = reference_greedy_retests(f, m)
    assert (expected.counters.io_calls, retests) == (6, 1)


def test_coverage_greedy_weighs_fewer_rows_than_it_charges():
    """The coverage state's bounds let most rows go unweighed: on the
    benchmark's n=100 coverage shape, greedy makes fewer than half the
    weighings the loop makes (one per EO call charged), at the loop's EO
    count."""
    f = gen_coverage(100, 3, 200, 0.25, seed=0)
    m = UniformMatroid(100, 25)
    calls = []
    weight = f._weight
    f._weight = lambda points: calls.append(points) or weight(points)
    report = greedy_solve(f, m)
    weighed = len(calls) - 1  # the report's audit evaluation weighs once
    assert report.counters.eo_calls == reference_greedy_solve(f, m).counters.eo_calls
    assert 0 < 2 * weighed < report.counters.eo_calls


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


class PerElementCall(Exception):
    """Raised by a per-element oracle method where only batched calls may run."""


def _refuse(name):
    def refuse(*args, **kwargs):
        raise PerElementCall(name)

    return refuse


def test_greedy_and_rank_scan_make_only_batched_calls(monkeypatch):
    for owner, name in ((GainState, "_best"), (_ModularGainState, "_best"),
                        (_CoverageGainState, "_best"), (IndependenceState, "_can_add")):
        monkeypatch.setattr(owner, name, _refuse(f"{owner.__name__}.{name}"))
    runs = 0
    for f, m in _guard_instances():
        report = greedy_solve(f, m)
        assert report.counters.io_calls >= f.n
        order = sorted(range(m.ground_size), key=lambda e: (e % 3, -e))
        basis = []
        for e in order:
            if m.is_independent(basis + [e]):
                basis.append(e)
        assert greedy_basis(m, order) == basis
        assert rank(m) == len(basis)
        runs += 1
    assert runs == 3 * 3 * 3 * 3

    # the guard is live: threshold's round visits, and the default states,
    # still take the per-element path
    f, m = gen_modular(5, 2, seed=1), gen_partition_matroid(5, seed=1)
    for run in (lambda: threshold_decreasing_solve(f, m, 0.1),
                lambda: greedy_solve(CountingWrapper(f), m),
                lambda: greedy_solve(f, ReferenceMatroid(m))):
        with pytest.raises(PerElementCall):
            run()
