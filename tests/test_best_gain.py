"""``GainState.best``: one element priced at all k positions in one call.

Along random placements on the default gain state (``CountingWrapper``
forwards only ``_value``) and the modular and coverage overrides,
``best(e)`` must return what the per-position loop over
``helpers.reference_gain`` returns: the first maximum in position order,
its sign of zero included, and the lowest position attaining it.  It
costs exactly k EO calls, and refuses a placed or out-of-range element
with the message of ``check_open``, counting nothing.
"""

from hypothesis import example, given, settings, strategies as st

from ksubmax import CoverageFunction, GainState, ModularFunction, OracleCounters

from helpers import CountingWrapper, reference_gain

ENTRIES = (0.0, -0.0, 0.25, 0.5, 1.0)


@st.composite
def modular_rows(draw, k):
    """A row meeting the pairwise-sum constraint, with many ties (and
    ties between ``0.0`` and ``-0.0``) and sometimes one negative entry."""
    row = draw(st.lists(st.sampled_from(ENTRIES), min_size=k, max_size=k))
    if draw(st.booleans()) and (k == 1 or min(row) > 0):
        row[draw(st.integers(0, k - 1))] = -min(row) if k > 1 else -0.5
    return row


@st.composite
def walks(draw):
    """A function, whether to price it on the default gain state, and a
    walk of (element to price, whether to place it) steps."""
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, 4))
    if draw(st.booleans()):
        f = ModularFunction([draw(modular_rows(k)) for _ in range(n)])
    else:
        universe = draw(st.integers(1, 8))
        weights = draw(st.lists(st.sampled_from((0.0, 0.25, 0.5, 1.0)),
                                min_size=universe, max_size=universe))
        points = st.lists(st.integers(0, universe - 1), max_size=universe)
        f = CoverageFunction(weights, [[draw(points) for _ in range(k)] for _ in range(n)])
    steps = draw(st.lists(st.tuples(st.integers(-2, n + 1), st.booleans()), max_size=3 * n))
    return f, draw(st.booleans()), steps


def per_position(state, e, k):
    """The loop ``best`` replaces: the first strict maximum over positions."""
    best_gain, best_i = reference_gain(state, e, 1), 1
    for i in range(2, k + 1):
        gain = reference_gain(state, e, i)
        if gain > best_gain:
            best_gain, best_i = gain, i
    return best_gain, best_i


def refusal(state, e):
    """The message ``check_open`` gives for ``e`` on the running assignment."""
    try:
        state.assignment.check_open(e, 1)
    except ValueError as err:
        return str(err)
    return None


@settings(max_examples=400, deadline=None)
@given(walks())
@example((ModularFunction([[0.0, -0.0, 0.0]]), False, [(0, False)]))
@example((ModularFunction([[-0.0, 0.0]]), True, [(0, False)]))
@example((ModularFunction([[0.5, 1.0, 1.0], [1.0, -0.0, 0.0]]), False,
          [(0, True), (0, False), (1, False), (2, False)]))
def test_best_equals_the_per_position_loop(case):
    f, default, steps = case
    k = f.k
    counters = OracleCounters()
    state = (CountingWrapper(f) if default else f).gain_state(counters)
    assert (type(state) is GainState) == default
    for e, place in steps:
        before = counters.eo_calls
        message = refusal(state, e)
        try:
            got = state.best(e)
        except ValueError as err:
            assert str(err) == message is not None
            assert counters.eo_calls == before
            continue
        assert message is None
        assert counters.eo_calls - before == k
        gain, i = per_position(state, e, k)
        assert (got[0].hex(), got[1]) == (gain.hex(), i)
        if place:
            state.place(e, i, gain)
