"""The greedy solver on one running independence state against the reference loop.

``greedy_solve`` holds one ``m.independence_state`` for the whole run and
tests each element outside the support with one ``can_add`` per
iteration.  The reference loop (``helpers.reference_greedy_solve``)
rebuilds the feasible set with ``feasible_extensions`` every iteration.
Both must give the same assignment, value and EO/IO counts on the
acceptance-criteria grids and on random instances, on the shipped matroid
families and on ``ReferenceMatroid`` (the ``is_independent`` path).

A guard also requires that the solvers never fall back to
``Matroid.is_independent`` (time linear in the support per test) or
``Assignment.assign`` (an n-tuple copy per placement) on the shipped
function and matroid families.
"""

from hypothesis import given, settings

from ksubmax import (
    Assignment,
    Matroid,
    UniformMatroid,
    gen_coverage,
    gen_explicit_matroid,
    gen_modular,
    gen_partition_matroid,
    greedy_solve,
    rank,
    threshold_decreasing_solve,
)

from helpers import CountingWrapper, ReferenceMatroid, reference_greedy_solve
from test_gain_state import feasibility_instances, ratio_instances, same_run
from test_lazy_threshold import instances


def assert_greedy_matches_reference(f, m):
    """Greedy on ``m`` and on its reference wrapper, and the reference loop
    on ``m``, all equal the reference loop on the wrapper."""
    ref = ReferenceMatroid(m)
    expected = reference_greedy_solve(f, ref)
    for got in (greedy_solve(f, m), greedy_solve(f, ref), reference_greedy_solve(f, m)):
        same_run(got, expected)
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
            for supplied in (None, rank(m)):
                threshold_decreasing_solve(f, m, 0.1, order_seed=order_seed,
                                           matroid_rank=supplied)
        runs += 5
    assert runs == 5 * 3 * 3 * 3 * 3
    assert calls == {"is_independent": 0, "assign": 0}

    # the tallies are live: the reference paths go through both methods
    f, m = gen_modular(5, 2, seed=1), gen_partition_matroid(5, seed=1)
    greedy_solve(CountingWrapper(f), ReferenceMatroid(m))
    assert calls["is_independent"] > 0 and calls["assign"] > 0
