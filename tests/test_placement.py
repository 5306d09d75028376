"""The placement contract of gain states.

A gain state keeps its labels in a private list and shows them as the
read-only ``assignment``.  Along any sequence of placements, that view must
equal the validated ``Assignment`` built by successive ``assign`` calls,
and ``value`` must equal its evaluation.  A refused placement (an element
already placed, or an element or position out of range) raises the
``ValueError`` of ``Assignment.check_open`` and changes nothing.  This
holds for the default state (``CountingWrapper`` forwards only
``_value``) and for the modular and coverage overrides.
"""

import pytest
from hypothesis import given, settings, strategies as st

from ksubmax import Assignment, GainState, OracleCounters, gen_coverage, gen_modular

from helpers import CountingWrapper, reference_gain


@st.composite
def placement_runs(draw):
    """A function, whether to use the default gain state, and placements
    that may be refused."""
    n = draw(st.integers(1, 7))
    k = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 10_000))
    family = draw(st.sampled_from(("modular", "nonmonotone", "coverage")))
    if family == "coverage":
        f = gen_coverage(n, k, universe_size=2 * n, density=0.4, seed=seed)
    else:
        f = gen_modular(n, k, monotone=family == "modular", seed=seed)
    placements = draw(st.lists(
        st.tuples(st.integers(-2, n + 1), st.integers(-1, k + 1)), max_size=3 * n))
    return f, draw(st.booleans()), placements


def refusal(a, e, i):
    """The message ``check_open`` gives for placing ``e`` into ``i`` on ``a``,
    or None if the placement is open."""
    try:
        a.check_open(e, i)
    except ValueError as err:
        return str(err)
    return None


@settings(max_examples=300, deadline=None)
@given(placement_runs())
def test_place_matches_successive_assign(run):
    f, default, placements = run
    g = CountingWrapper(f) if default else f
    state = g.gain_state(OracleCounters())
    assert (type(state) is GainState) == default
    expected = Assignment.zero(f.n, f.k)
    for e, i in placements:
        before, was = state.assignment, expected
        value, eo = state.value, state.counters.eo_calls
        message = refusal(expected, e, i)
        if message is None:
            gain = reference_gain(state, e, i)
            state.place(e, i, gain)
            expected = Assignment(expected.assign(e, i).labels, f.k)
        else:
            for attempt in (lambda: reference_gain(state, e, i), lambda: state.place(e, i, 1.0)):
                with pytest.raises(ValueError) as err:
                    attempt()
                assert str(err.value) == message
            assert state.assignment is before
            assert state.value == value and state.counters.eo_calls == eo
        # an earlier view is a snapshot, untouched by later placements
        assert before == was
        assert state.assignment == expected
        assert state.assignment is state.assignment
        assert all(type(v) is int for v in state.assignment.labels)
        assert state.value == f.evaluate(expected)


def test_assignment_is_read_only():
    state = gen_modular(3, 2, seed=0).gain_state()
    with pytest.raises(AttributeError):
        state.assignment = Assignment.zero(3, 2)
