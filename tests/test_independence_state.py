"""Incremental independence states against the is_independent reference.

Uniform, partition and explicit matroids answer ``can_add`` in constant
time from a running count, per-block room or bitmask.  Wrapping a matroid
in ``ReferenceMatroid`` (which only forwards ``_independent``) gives it the
default ``IndependenceState``, which calls ``is_independent`` on the whole
extended support.  Every answer and every count must agree, and so must
every threshold run on the acceptance-criteria grids.
"""

import pytest
from hypothesis import given, settings, strategies as st

from ksubmax import (
    IndependenceState,
    OracleCounters,
    PartitionMatroid,
    UniformMatroid,
    feasible_extensions,
    gen_explicit_matroid,
    threshold_decreasing_solve,
)

from helpers import ReferenceMatroid
from test_gain_state import feasibility_instances, ratio_instances, same_run


@st.composite
def matroids(draw):
    n = draw(st.integers(0, 8))
    kind = draw(st.sampled_from(("uniform", "partition", "explicit")))
    if kind == "uniform":
        return UniformMatroid(n, draw(st.integers(0, n + 1)))
    if kind == "partition":
        if n == 0:
            return PartitionMatroid(0, [], [])
        block = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        blocks = [[e for e in range(n) if block[e] == j] for j in sorted(set(block))]
        caps = [draw(st.integers(0, len(b))) for b in blocks]
        return PartitionMatroid(n, blocks, caps)
    return gen_explicit_matroid(max(n, 1), seed=draw(st.integers(0, 10_000)))


def answers(state, m):
    """Check ``can_add`` for every element against ``is_independent``, one
    counted IO call each, and return the answers."""
    out = []
    for e in range(m.ground_size):
        before = state.counters.io_calls
        got = state.can_add(e)
        assert state.counters.io_calls == before + 1
        assert got == m.is_independent(state.support | {e})
        out.append(got)
    return out


@settings(max_examples=300, deadline=None)
@given(matroids(), st.data())
def test_state_answers_like_is_independent(m, data):
    fast = m.independence_state(OracleCounters())
    ref = ReferenceMatroid(m).independence_state(OracleCounters())
    assert type(fast) is not IndependenceState
    assert type(ref) is IndependenceState
    n = m.ground_size
    for e in data.draw(st.lists(st.integers(-2, n + 1), max_size=2 * n + 2)):
        if not 0 <= e < n:
            for state in (fast, ref):
                with pytest.raises(ValueError):
                    state.can_add(e)
                with pytest.raises(ValueError):
                    state.add(e)
            assert fast.counters == ref.counters
            continue
        fits = fast.can_add(e)
        assert ref.can_add(e) == fits == m.is_independent(fast.support | {e})
        if fits and e not in fast.support:
            fast.add(e)
            ref.add(e)
        else:
            # an element already placed, or one that failed can_add
            before = set(fast.support)
            for state in (fast, ref):
                with pytest.raises(ValueError):
                    state.add(e)
                assert state.support == before
        assert fast.support == ref.support
        assert m.is_independent(fast.support)
        assert answers(fast, m) == answers(ref, m)
        assert fast.counters == ref.counters


def test_threshold_on_shipped_states_equals_reference_state():
    """Criterion 1 (all 1000 instances) and criteria 2-3 (every epsilon),
    each with and without a visit-order seed."""
    runs = 0
    for grid in (feasibility_instances(count=1000), ratio_instances()):
        for f, m, epsilons in grid:
            ref = ReferenceMatroid(m)
            for epsilon in epsilons:
                for order_seed in (None, 7):
                    same_run(
                        threshold_decreasing_solve(f, m, epsilon, order_seed=order_seed),
                        threshold_decreasing_solve(f, ref, epsilon, order_seed=order_seed),
                    )
                    runs += 1
    assert runs == 2 * (1000 + 3 * 450)


@settings(max_examples=300, deadline=None)
@given(matroids(), st.data())
def test_feasible_extensions_answers_like_is_independent(m, data):
    """On random supports, independent or not: the elements whose addition
    ``is_independent`` accepts, one counted IO call per element outside
    the support, and ``ValueError`` for a dependent support."""
    n = m.ground_size
    support = frozenset(data.draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=n)))
    if n == 0:
        support = frozenset()
    for matroid in (m, ReferenceMatroid(m)):
        counters = OracleCounters()
        if not m.is_independent(support):
            with pytest.raises(ValueError, match="support is not independent"):
                feasible_extensions(matroid, support, counters)
            assert counters.io_calls == 0
            continue
        got = feasible_extensions(matroid, support, counters)
        assert got == {e for e in range(n)
                       if e not in support and m.is_independent(support | {e})}
        assert counters.io_calls == n - len(support)
    with pytest.raises(ValueError, match="outside ground set"):
        feasible_extensions(m, support | {n})
