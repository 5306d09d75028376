"""Incremental gain states against the evaluate-based reference path.

Modular and coverage functions price a gain from running state instead of
a full evaluation.  Wrapping a function in ``CountingWrapper`` (which only
forwards ``_value``) gives it the default ``GainState``, which goes through
``evaluate``; every solver run must come out identical on both paths, on
the same instance grids the acceptance criteria use.
"""

import pytest
from hypothesis import given, settings, strategies as st

from ksubmax import (
    Assignment,
    GainState,
    ModularFunction,
    OracleCounters,
    enumerate_assignments,
    gen_coverage,
    gen_modular,
    greedy_solve,
    join,
    meet,
    threshold_decreasing_solve,
)
from ksubmax.instances import CoverageFunction

from helpers import CountingWrapper
from test_acceptance import (
    EPSILON_GRID,
    make_matroid,
    monotone_instances,
    nonmonotone_instances,
)


def feasibility_instances(count=150):
    """The first ``count`` instances of the criterion-1 grid (sizes up to 50,
    ten per size), each with the epsilon that criterion gives it."""
    sizes = (1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 25, 32, 40, 50)
    for i in range(count):
        n = sizes[i % len(sizes)]
        k = 1 + i % 3
        if i % 3 == 0:
            f = gen_modular(n, k, monotone=True, seed=i)
        elif i % 3 == 1:
            f = gen_modular(n, k, monotone=False, seed=i)
        else:
            f = gen_coverage(n, k, universe_size=2 * n, density=0.3, seed=i)
        kind = ("uniform", "partition", "explicit")[i % 3 if n <= 10 else i % 2]
        yield f, make_matroid(kind, n, i), (EPSILON_GRID[i % 3],)


def ratio_instances():
    for f, m in monotone_instances(seeds=(0, 1, 2, 3, 4)):
        yield f, m, EPSILON_GRID
    for f, m in nonmonotone_instances(seeds=(0, 1, 2, 3, 4)):
        yield f, m, EPSILON_GRID


def same_run(fast, ref):
    assert fast.assignment == ref.assignment
    assert fast.value == ref.value
    assert fast.rounds == ref.rounds
    assert fast.counters == ref.counters


@pytest.mark.parametrize("grid", [ratio_instances, feasibility_instances])
def test_fast_path_equals_reference_path(grid):
    runs = 0
    for f, m, epsilons in grid():
        ref = CountingWrapper(f)
        assert type(ref.gain_state()) is GainState
        assert type(f.gain_state()) is not GainState
        for epsilon in epsilons:
            for seed in (None, 7):
                same_run(threshold_decreasing_solve(f, m, epsilon, order_seed=seed),
                         threshold_decreasing_solve(ref, m, epsilon, order_seed=seed))
                runs += 1
        ref.raw_calls = 0
        ref_greedy = greedy_solve(ref, m)
        # the reference path evaluates once per counted call, plus the audit
        assert ref.raw_calls == ref_greedy.counters.eo_calls + 1
        same_run(greedy_solve(f, m), ref_greedy)
        runs += 1
    assert runs >= 450


@st.composite
def grid_states(draw):
    """A grid instance and an assignment reached through its gain state."""
    n = draw(st.integers(1, 7))
    k = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 10_000))
    family = draw(st.sampled_from(("modular", "nonmonotone", "coverage")))
    if family == "coverage":
        f = gen_coverage(n, k, universe_size=2 * n, density=0.4, seed=seed)
    else:
        f = gen_modular(n, k, monotone=family == "modular", seed=seed)
    state = f.gain_state(OracleCounters())
    for e in draw(st.permutations(range(n)))[: draw(st.integers(0, n))]:
        i = draw(st.integers(1, k))
        state.place(e, i, state.gain(e, i))
    return f, state


@settings(max_examples=200, deadline=None)
@given(grid_states())
def test_incremental_gain_is_exact(case):
    f, state = case
    a = state.assignment
    assert state.value == f.evaluate(a)
    for e in range(f.n):
        if a.labels[e]:
            continue
        for i in range(1, f.k + 1):
            before = state.counters.eo_calls
            assert state.gain(e, i) == f.evaluate(a.assign(e, i)) - f.evaluate(a)
            assert state.counters.eo_calls == before + 1


def test_gain_checks_its_arguments():
    for f in (ModularFunction([[1.0, 2.0], [3.0, 0.5]]),
              CoverageFunction([1.0, 0.5], [[[0], [1]], [[1], [0, 1]]])):
        state = f.gain_state(OracleCounters())
        state.place(0, 1, state.gain(0, 1))
        for e, i in ((0, 1), (1, 0), (1, 3), (2, 1), (-1, 1)):
            with pytest.raises(ValueError):
                state.gain(e, i)
        assert state.counters.eo_calls == 1


pairs = st.integers(1, 6).flatmap(
    lambda n: st.integers(1, 3).flatmap(
        lambda k: st.tuples(
            st.lists(st.integers(0, k), min_size=n, max_size=n),
            st.lists(st.integers(0, k), min_size=n, max_size=n),
            st.just(k),
        )
    )
)


@settings(max_examples=300, deadline=None)
@given(pairs)
def test_lattice_results_equal_validated_construction(pair):
    p_labels, q_labels, k = pair
    p, q = Assignment(tuple(p_labels), k), Assignment(tuple(q_labels), k)
    for got in (join(p, q), meet(p, q)):
        validated = Assignment(got.labels, k)
        assert got == validated and hash(got) == hash(validated)
        assert all(type(v) is int for v in got.labels)
    for e in range(len(p_labels)):
        if p.labels[e] == 0:
            assert p.assign(e, k) == Assignment(p.labels[:e] + (k,) + p.labels[e + 1:], k)


def test_enumerated_assignments_equal_validated_construction():
    for a in enumerate_assignments(3, 2):
        assert a == Assignment(a.labels, 2)
    with pytest.raises(ValueError):
        list(enumerate_assignments(2, 0))
