"""Batched oracle calls against the per-element loops they replace.

``GainState._bests`` prices a whole list of elements in one call and
``GainState._first_best`` prices one and picks its best,
``IndependenceState._feasible`` tests one, and
``IndependenceState._extend`` extends the support greedily along one.
Each must give what the per-element loop over ``_best`` / ``_can_add``
gives on a twin state: the same gains bit for bit (by ``float.hex``, so
``-0.0`` and ``0.0`` differ), the same positions and chosen element, the
same EO/IO charged, and the same state left behind.  This holds for the
modular and coverage gain states, the uniform, partition and explicit
independence states, and the defaults (``CountingWrapper``, explicit
tables and ``ReferenceMatroid``), on the acceptance-criteria grids and in
Hypothesis properties.  Lazy greedy's ``GainState._next_best`` keeps a
bound per candidate from one call to the next; the coverage state runs
it as a walk instead of the default heap loop, so whole lazy runs of the
family states are checked call by call against the default states.  The
solvers built on them must still equal their reference loops.
"""

import math
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from ksubmax import (
    CoverageFunction,
    GainState,
    IndependenceState,
    ModularFunction,
    OracleCounters,
    PartitionMatroid,
    UniformMatroid,
    gen_coverage,
    gen_explicit_matroid,
    gen_modular,
    gen_partition_matroid,
    greedy_solve,
    rank,
)
from ksubmax.instances import _CoverageGainState, _ModularGainState, ExplicitTableFunction
from ksubmax.matroids import (_ExplicitIndependenceState, _PartitionIndependenceState,
                              _UniformIndependenceState, greedy_basis)

from helpers import CountingWrapper, ReferenceMatroid, reference_gain, same_greedy_run
from test_best_gain import modular_rows
from test_gain_state import feasibility_instances, ratio_instances
from test_independence_state import matroids
from test_lazy_threshold import assert_lazy_matches_eager


# ---------------------------------------------------------------------------
# The per-element loops
# ---------------------------------------------------------------------------

def loop_bests(state, elements):
    return [state._best(e)[0] for e in elements]


def loop_first_best(state, elements):
    """The scan greedy's opening makes: the element with the strictly largest
    best gain, the lowest one on ties."""
    best_gain, choice = -math.inf, None
    for e in sorted(elements):
        gain, i = state._best(e)
        if gain > best_gain:
            best_gain, choice = gain, (e, i, gain)
    return choice


def loop_feasible(state, elements):
    return [e for e in elements if state._can_add(e)]


def loop_extend(state, order):
    """The loop ``greedy_basis`` ran before the batched call."""
    added = []
    for e in order:
        if state.can_add(e):
            state.add(e)
            added.append(e)
    return added


def hexes(gains):
    return [gain.hex() for gain in gains]


def same_choice(got, want):
    if want is None:
        assert got is None
    else:
        e, i, gain = got
        assert (e, i, gain.hex()) == (want[0], want[1], want[2].hex())


# ---------------------------------------------------------------------------
# Twin states
# ---------------------------------------------------------------------------

def gain_state_at(f, placements, default=False):
    """A fresh gain state on new counters, after ``placements``; the family's
    state, or the default ``GainState`` if ``default``."""
    state = GainState(f, OracleCounters()) if default else f.gain_state(OracleCounters())
    for e, i in placements:
        state.place(e, i, reference_gain(state, e, i))
    state.counters.eo_calls = 0
    return state


def gain_snapshot(state):
    return (list(state._labels), state.value.hex(), state.assignment,
            getattr(state, "covered", None), state.counters)


def independence_state_at(m, added):
    """A fresh independence state on new counters, holding ``added``."""
    state = m.independence_state(OracleCounters())
    for e in added:
        state.add(e)
    return state


def independence_snapshot(state):
    n = state.m.ground_size
    answers = [state._fits(e) or e in state.support for e in range(n)]  # uncounted
    return (set(state.support), list(getattr(state, "room", ())),
            getattr(state, "mask", None), answers, state.counters)


def assert_gain_batches_match(f, placements, elements):
    """``_bests`` on ``elements`` and ``_first_best`` on its distinct
    elements against their loops."""
    batched, loop = gain_state_at(f, placements), gain_state_at(f, placements)
    assert hexes(batched._bests(elements)) == hexes(loop_bests(loop, elements))
    assert batched.counters.eo_calls == f.k * len(elements)
    assert gain_snapshot(batched) == gain_snapshot(loop)
    distinct = list(dict.fromkeys(elements))
    batched, loop = gain_state_at(f, placements), gain_state_at(f, placements)
    same_choice(batched._first_best(distinct), loop_first_best(loop, distinct))
    assert batched.counters.eo_calls == f.k * len(distinct)
    assert gain_snapshot(batched) == gain_snapshot(loop)


def lazy_steps(f, m, default=False):
    """Greedy's lazy loop on a fresh gain and independence state sharing one
    pair of counters, the family's or, if ``default``, the base classes':
    the choice of each ``_first_best`` / ``_next_best`` call, gains by
    ``float.hex``, with the counts after it."""
    counters = OracleCounters()
    state = GainState(f, counters) if default else f.gain_state(counters)
    indep = IndependenceState(m, counters) if default else m.independence_state(counters)
    steps = []
    choice = state._first_best(indep._feasible(range(f.n)))
    while True:
        steps.append((choice and (choice[0], choice[1], choice[2].hex()), replace(counters)))
        if choice is None:
            return steps
        e, i, gain = choice
        state.place(e, i, gain)
        indep.add(e)
        choice = state._next_best(indep._can_add)


def assert_independence_batches_match(m, added, elements, order):
    """``_feasible`` on ``elements`` and ``_extend`` along ``order`` against
    their loops."""
    batched, loop = independence_state_at(m, added), independence_state_at(m, added)
    assert batched._feasible(elements) == loop_feasible(loop, elements)
    assert batched.counters.io_calls == len(elements)
    assert independence_snapshot(batched) == independence_snapshot(loop)
    batched, loop = independence_state_at(m, added), independence_state_at(m, added)
    assert batched._extend(order) == loop_extend(loop, order)
    assert batched.counters.io_calls == len(order)
    assert independence_snapshot(batched) == independence_snapshot(loop)
    assert m.is_independent(batched.support)


# ---------------------------------------------------------------------------
# Hypothesis properties
# ---------------------------------------------------------------------------

@st.composite
def functions(draw):
    """Every shipped function family and the default gain state: modular
    rows with ties and ``-0.0``, generated modular and coverage functions,
    an explicit table and a ``CountingWrapper``."""
    kind = draw(st.sampled_from(("rows", "modular", "coverage", "table", "wrapper")))
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 10_000))
    if kind == "rows":
        return ModularFunction([draw(modular_rows(k)) for _ in range(n)])
    if kind == "coverage":
        return gen_coverage(n, k, universe_size=2 * n, density=0.4, seed=seed)
    f = gen_modular(n, k, monotone=draw(st.booleans()), seed=seed)
    if kind == "table":
        return ExplicitTableFunction.tabulate(f)
    if kind == "wrapper":
        return CountingWrapper(f)
    return f


@st.composite
def gain_cases(draw):
    """A function, placements reaching a state, and a list of open elements
    (any order, repeats allowed, possibly empty) to price against it."""
    f = draw(functions())
    placed = draw(st.permutations(range(f.n)))[: draw(st.integers(0, f.n))]
    placements = [(e, draw(st.integers(1, f.k))) for e in placed]
    open_ = [e for e in range(f.n) if e not in placed]
    elements = draw(st.lists(st.sampled_from(open_), max_size=2 * f.n)) if open_ else []
    return f, placements, elements


@settings(max_examples=400, deadline=None)
@given(gain_cases())
@example((ModularFunction([[-0.0, 0.0], [0.0, -0.0]]), [], [0, 1]))
@example((ModularFunction([[0.0, -0.0], [-0.0, 0.0]]), [], [1, 0]))
@example((ModularFunction([[0.5, 1.0], [1.0, 0.5], [1.0, 1.0]]), [], [2, 1, 0]))
@example((ModularFunction([[1.0, 2.0]]), [], []))
@example((CoverageFunction([1.0, 1.0, 0.5], [[[0], [1]], [[1], [0]], [[2], [0]]]), [(2, 1)],
          [1, 0, 1]))
def test_gain_batches_equal_their_loops(case):
    f, placements, elements = case
    assert_gain_batches_match(f, placements, elements)


@st.composite
def coverage_runs(draw):
    """A coverage function with many tied gains and a matroid on its
    elements: a uniform one of any budget, a partition or an explicit one."""
    n, k, universe = draw(st.integers(1, 6)), draw(st.integers(1, 3)), draw(st.integers(1, 6))
    weights = draw(st.lists(st.sampled_from((0.0, 0.5, 1.0, 2.0)),
                            min_size=universe, max_size=universe))
    points = st.lists(st.integers(0, universe - 1), max_size=universe)
    f = CoverageFunction(weights, [[draw(points) for _ in range(k)] for _ in range(n)])
    seed = draw(st.integers(0, 10_000))
    m = draw(st.sampled_from((UniformMatroid(n, seed % (n + 1)),
                              gen_partition_matroid(n, seed=seed),
                              gen_explicit_matroid(n, seed=seed))))
    return f, m


@settings(max_examples=300, deadline=None)
@given(coverage_runs())
@example((CoverageFunction([1.0, 2.0, 1.0], [[[1]], [[0]], [[1, 2]]]), UniformMatroid(3, 3)))
@example((CoverageFunction([1.0, 1.0], [[[0]], [[0]], [[1]]]),
          PartitionMatroid(3, [[0, 1], [2]], [1, 1])))
def test_coverage_walk_carries_its_bounds(case):
    """The coverage walk, its bounds stale after each placement, picks what
    the default heap loop picks on the default states, call by call, and
    has charged the same EO and IO calls after each."""
    f, m = case
    assert lazy_steps(f, m) == lazy_steps(f, m, default=True)


@st.composite
def independence_cases(draw):
    """A matroid, an independent support, a list of ground-set elements to
    test (the support's included) and an order of distinct elements
    outside the support to extend along."""
    m = draw(matroids())
    if draw(st.booleans()):
        m = ReferenceMatroid(m)
    n = m.ground_size
    added = []
    state = m.independence_state()
    for e in draw(st.permutations(range(n)))[: draw(st.integers(0, n))]:
        if state.can_add(e):
            state.add(e)
            added.append(e)
    elements = draw(st.lists(st.integers(0, n - 1), max_size=2 * n)) if n else []
    outside = [e for e in range(n) if e not in added]
    order = draw(st.permutations(outside))[: draw(st.integers(0, len(outside)))]
    return m, added, elements, order


@settings(max_examples=400, deadline=None)
@given(independence_cases())
@example((UniformMatroid(0, 0), [], [], []))
@example((UniformMatroid(3, 1), [1], [0, 1, 2, 1], [2, 0]))
@example((PartitionMatroid(4, [[0, 1], [2, 3]], [1, 0]), [1], [3, 1, 0, 2], [0, 2, 3]))
def test_independence_batches_equal_their_loops(case):
    m, added, elements, order = case
    assert_independence_batches_match(m, added, elements, order)


def test_default_states_run_the_loops():
    """The defaults are the per-element loops: ``_bests`` and ``_first_best``
    reach ``_best``, ``_feasible`` and ``_extend`` reach ``_can_add``, once
    per element.  The family overrides do not, except where a family keeps
    a default loop: the modular state's ``_first_best`` (greedy's opening)
    and the coverage state's ``_bests`` (threshold's opening scan) loop
    over their ``_best``, and the explicit matroid state's ``_feasible``
    and ``_extend`` loop over ``_can_add``."""
    f = gen_modular(4, 2, seed=3)
    m = gen_partition_matroid(4, seed=3)
    elements = [0, 1, 2, 3]
    # loops: how many of _bests and _first_best run the loop over _best
    for g, default, loops in ((CountingWrapper(f), True, 2),
                              (ExplicitTableFunction.tabulate(f), True, 2),
                              (f, False, 1), (gen_coverage(4, 2, 8, 0.4, seed=3), False, 1)):
        state = g.gain_state()
        assert (type(state) is GainState) == default
        calls = []
        best = state._best
        state._best = lambda e: calls.append(e) or best(e)
        state._bests(elements)
        state._first_best(elements)
        assert calls == elements * loops
    for matroid, default, loops in ((ReferenceMatroid(m), True, 2), (m, False, 0),
                                    (gen_explicit_matroid(4, seed=3), False, 2)):
        state = matroid.independence_state()
        assert (type(state) is IndependenceState) == default
        calls = []
        can_add = state._can_add
        state._can_add = lambda e: calls.append(e) or can_add(e)
        state._feasible(elements)
        state._extend(elements)
        assert calls == elements * loops


def test_shipped_states_define_only_the_batched_hooks_that_pay():
    """Which batched hooks each shipped state class defines in its own
    ``vars()``.  A family override stays where it measured faster than the
    default loop on a benchmark workload: the modular ``_bests``
    (threshold's opening scan at n = 800), the coverage ``_first_best``
    and ``_next_best`` (greedy at n = 100, a walk that keeps its bounds in
    a list), and the uniform and partition ``_feasible`` and ``_extend``.
    The modular greedy (about one row re-priced per placement), the
    coverage opening scan of threshold (once per solve) and the explicit
    matroid state (at most 16 elements) run the default loops, so a copy
    of a loop that buys no speed cannot come back unnoticed."""
    hooks = {"_best", "_bests", "_first_best", "_next_best", "_feasible", "_extend"}
    defined = {
        GainState: {"_best", "_bests", "_first_best", "_next_best"},
        _ModularGainState: {"_best", "_bests"},
        _CoverageGainState: {"_best", "_first_best", "_next_best"},
        IndependenceState: {"_feasible", "_extend"},
        _UniformIndependenceState: {"_feasible", "_extend"},
        _PartitionIndependenceState: {"_feasible", "_extend"},
        _ExplicitIndependenceState: set(),
    }
    shipped = {cls for base in (GainState, IndependenceState) for cls in base.__subclasses__()
               if cls.__module__.startswith("ksubmax.")}
    assert shipped == set(defined) - {GainState, IndependenceState}
    for cls, expected in defined.items():
        assert hooks & vars(cls).keys() == expected, cls.__name__
    methods = {name for name, v in vars(_ExplicitIndependenceState).items() if callable(v)}
    assert methods == {"__init__", "_fits", "add"}


@pytest.mark.parametrize("f", [
    gen_modular(3, 2, seed=1),
    gen_coverage(3, 2, 6, 0.4, seed=1),
    CountingWrapper(gen_modular(3, 2, seed=1)),
    ExplicitTableFunction(0, 2, [0.0]),
])
def test_empty_lists_cost_nothing(f):
    state = f.gain_state(OracleCounters())
    assert state._bests([]) == []
    assert state._first_best([]) is None
    assert state._next_best(None) is None
    assert state.counters.eo_calls == 0


@pytest.mark.parametrize("m", [UniformMatroid(0, 0), ReferenceMatroid(UniformMatroid(0, 0)),
                               PartitionMatroid(0, [], [])])
def test_empty_ground_set(m):
    counters = OracleCounters()
    state = m.independence_state(counters)
    assert state._feasible([]) == [] and state._extend([]) == []
    assert greedy_basis(m, [], counters) == [] and rank(m, counters) == 0
    assert counters.io_calls == 0
    report = greedy_solve(ExplicitTableFunction(0, 2, [0.0]), m)
    assert report.counters == OracleCounters() and report.assignment.labels == ()


# ---------------------------------------------------------------------------
# The acceptance-criteria grids
# ---------------------------------------------------------------------------

def test_batches_equal_loops_on_criteria_grids():
    """Criterion 1 (all 1000 instances) and criteria 2-3 (every instance),
    on the family states and on the default ones: the opening scan and
    rank scan of the threshold solver, greedy's opening, and every lazy
    greedy call against the default states."""
    runs = 0
    for grid in (feasibility_instances(count=1000), ratio_instances()):
        for f, m, _ in grid:
            n = f.n
            single = f.gain_state()._bests(range(n))
            by_value = sorted(range(n), key=lambda e: (-single[e], e))
            for f_, m_ in ((f, m), (CountingWrapper(f), ReferenceMatroid(m))):
                assert_gain_batches_match(f_, [], list(range(n)))
                assert_independence_batches_match(m_, [], list(range(n)), by_value)
                steps = lazy_steps(f_, m_)
                assert steps == lazy_steps(f_, m_, default=True)
                assert steps[-1][1] == greedy_solve(f_, m_).counters
                runs += 1
    assert runs == 2 * (1000 + 450)


@settings(max_examples=200, deadline=None)
@given(functions(), st.data())
def test_solvers_equal_their_reference_loops(f, data):
    """On every function family, the default states included, greedy adds
    what the eager loop adds at the generic lazy loop's counts, and
    threshold equals the eager loop."""
    seed = data.draw(st.integers(0, 10_000))
    m = data.draw(st.sampled_from((
        UniformMatroid(f.n, seed % (f.n + 1)),
        gen_partition_matroid(f.n, seed=seed),
        gen_explicit_matroid(f.n, seed=seed),
    )))
    if data.draw(st.booleans()):
        m = ReferenceMatroid(m)
    same_greedy_run(greedy_solve(f, m), f, m)
    epsilon = data.draw(st.sampled_from((0.1, 0.3, 0.5)))
    assert_lazy_matches_eager(f, m, epsilon, data.draw(st.one_of(st.none(), st.integers(0, 99))))


# ---------------------------------------------------------------------------
# greedy_basis refuses a bad order before any test
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("order, error, message", [
    ([0, 1, 3], ValueError, "element 3 outside ground set of size 3"),
    ([0, -1], ValueError, "element -1 outside ground set of size 3"),
    ([0, 1.0], TypeError, "element 1.0 is not an int"),
    ([0, True], TypeError, "element True is not an int"),
    ([2, 0, 2], ValueError, "element 2 is listed twice in the order"),
    ([1, 0, 1, 0], ValueError, "element 1 is listed twice in the order"),
])
def test_greedy_basis_refuses_a_bad_order(order, error, message):
    for m in (UniformMatroid(3, 1), ReferenceMatroid(UniformMatroid(3, 1))):
        counters = OracleCounters()
        with pytest.raises(error, match=message):
            greedy_basis(m, order, counters)
        assert counters.io_calls == 0
