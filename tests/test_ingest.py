"""Instance construction in C-level passes, against the per-entry references.

The three function constructors convert and check their entries in passes
over whole lists, and build coverage bitmasks without a Python step per
point; only a refused input is walked again entry by entry to name the
first bad one.  ``tests/helpers.py`` keeps the per-entry constructors as
references: on valid and malformed inputs alike, both must build the same
fields or raise the same exception with the same message.
"""

import collections
import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from ksubmax import (
    Assignment,
    GainState,
    InstanceSpec,
    PartitionMatroid,
    UniformMatroid,
    gen_coverage,
    gen_explicit_matroid,
    gen_modular,
    greedy_solve,
    parse_instance,
    serialize_instance,
    threshold_decreasing_solve,
)
from ksubmax import core, instances
from ksubmax.instances import (
    CoverageFunction,
    ExplicitTableFunction,
    InstanceFormatError,
    ModularFunction,
)

from helpers import (
    ReferenceCoverageFunction,
    ReferenceExplicitTableFunction,
    ReferenceModularFunction,
)

FIELDS = {
    ModularFunction: ("n", "k", "table"),
    CoverageFunction: ("n", "k", "weights", "sets", "_masks", "_planes", "_unit"),
    ExplicitTableFunction: ("n", "k", "values"),
}


def exact(value):
    """``value`` in a form whose equality tells ``0.0`` from ``-0.0``."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, tuple):
        return tuple(map(exact, value))
    return value


def outcome(cls, *args):
    """The fields ``cls(*args)`` builds, or its exception type and message."""
    try:
        f = cls(*args)
    except Exception as err:  # the error itself is what gets compared
        return type(err), str(err)
    family = next(base for base in FIELDS if isinstance(f, base))
    return {name: exact(getattr(f, name)) for name in FIELDS[family]}


grid = st.integers(-64, 128).map(lambda c: c / 64)
malformed = st.sampled_from([
    math.nan, math.inf, -math.inf, 1.7e308, -1.7e308, 9e307, 10 ** 400, -(10 ** 400),
    -0.0, 0.0, True, False, 3, -2, "1.5", "x", None,
])
values = st.one_of(grid, grid, grid, malformed)


@st.composite
def modular_tables(draw):
    n = draw(st.integers(0, 5))
    k = draw(st.integers(0, 4))
    if draw(st.booleans()):  # mostly valid: nonnegative grid entries
        entry = st.one_of(st.integers(0, 128).map(lambda c: c / 64), values)
    else:
        entry = values
    rows = [draw(st.lists(entry, min_size=k, max_size=k)) for _ in range(n)]
    if rows and draw(st.booleans()):  # a ragged row
        e = draw(st.integers(0, n - 1))
        rows[e] = draw(st.lists(entry, max_size=5))
    return rows


# strings that int(s, 16) reads but a cover-set bitmask must not be, and
# strings it refuses too
MALFORMED_MASKS = ["0x1f", "-1", "+1", "1_0", " 1f", "1f ", "1f\n", "1F", "", "g", "\u0663"]


@st.composite
def coverage_inputs(draw):
    universe = draw(st.sampled_from([0, 1, 2, 5, 9, 40, 300]))
    weight = st.one_of(st.integers(0, 64).map(lambda c: c / 64), values)
    weights = draw(st.lists(
        st.integers(0, 64).map(lambda c: c / 64), min_size=universe, max_size=universe))
    if weights and draw(st.integers(0, 3)) == 0:
        weights[draw(st.integers(0, universe - 1))] = draw(weight)
    in_range = st.integers(0, max(universe - 1, 0))
    point = st.one_of(in_range, in_range, in_range, st.sampled_from(
        [-1, -2, universe, universe + 1, universe + 300, 0.0, 1.0, 0.7, True, False, "1"]))
    n = draw(st.integers(0, 4))
    k = draw(st.integers(0, 3))
    clean = draw(st.booleans())
    points = st.lists(in_range if clean else point, max_size=12)
    # the same cover set as a hex bitmask, sometimes with leading zeros
    masks = st.builds(lambda ps, zeros: "0" * zeros + format(sum(1 << u for u in set(ps)), "x"),
                      st.lists(in_range, max_size=12), st.sampled_from([0, 0, 0, 1, 3]))
    members = st.one_of(points, masks)
    if not clean:
        members = st.one_of(points, masks, st.sampled_from([
            *MALFORMED_MASKS, format(1 << universe, "x"), format(1 << universe + 7, "x"),
            5, None, 1.5, True]))
    sets = [[draw(members) for _ in range(k)] for _ in range(n)]
    if sets and draw(st.integers(0, 4)) == 0:  # a ragged row
        sets[draw(st.integers(0, n - 1))] = [draw(members) for _ in range(draw(st.integers(0, 4)))]
    if sets and not clean and draw(st.integers(0, 4)) == 0:  # a row that is no list
        sets[draw(st.integers(0, n - 1))] = draw(st.sampled_from(["1f", "", 3, None]))
    return weights, sets


@st.composite
def explicit_inputs(draw):
    n = draw(st.integers(0, 3))
    k = draw(st.integers(1, 3))
    size = (k + 1) ** n + draw(st.sampled_from([0, 0, 0, -1, 1]))
    vals = draw(st.lists(values, min_size=max(size, 0), max_size=max(size, 0)))
    if vals and draw(st.booleans()):
        vals[0] = 0.0
    return n, k, vals


@settings(max_examples=400, deadline=None)
@given(modular_tables())
@example([[1.0, 0.5], [math.nan, 1.0]])
@example([[1.7e308], [1.7e308]])
@example([[1.0], [10 ** 400]])
@example([[1.0, "x"], [2.0]])
@example([[0.5, -0.25, 0.25], [1.0, 2.0]])
def test_modular_constructor_matches_reference(table):
    assert outcome(ModularFunction, table) == outcome(ReferenceModularFunction, table)


@settings(max_examples=400, deadline=None)
@given(coverage_inputs())
@example(([1.0, 1.0], [[[0.7]], [["1"]]]))
@example(([1.0, 1.0], [[[0, True]]]))
@example(([1.0], [[[0], [1]]]))
@example(([1.0, 2.0], [[[-1, 1]]]))
@example(([1.0, math.nan], [[[0]]]))
@example(([1.7e308, 1.7e308], [[[0]], [[1]]]))
@example(([1.0] + [2.0 ** -53] * 4, [[[0, 1, 2, 3, 4]]]))
@example(([1.0] * 6, [[[0, 2, 5], "25"], ["0", "0025"]]))
@example(([1.0] * 6, [["40"]]))
@example(([1.0] * 6, [["3f", "1F"]]))
@example(([1.0] * 6, [[[1], 5]]))
@example(([1.0] * 6, [[[1], None]]))
@example(([1.0] * 6, [[[1]], "1f"]))
@example(([1.0] * 6, "1f"))
@example(([1.0] * 6, 5))
@example(([], [["0"]]))
def test_coverage_constructor_matches_reference(case):
    weights, sets = case
    assert (outcome(CoverageFunction, weights, sets)
            == outcome(ReferenceCoverageFunction, weights, sets))


@settings(max_examples=400, deadline=None)
@given(explicit_inputs())
@example((1, 1, [0.0, math.inf]))
@example((1, 2, [0.0, 1.0, 10 ** 400]))
@example((2, 1, [0.0, 1.0, 1.0]))
def test_explicit_constructor_matches_reference(case):
    n, k, vals = case
    assert (outcome(ExplicitTableFunction, n, k, vals)
            == outcome(ReferenceExplicitTableFunction, n, k, vals))


def test_generated_instances_match_reference():
    """Instance sizes of the benchmark's coverage workload and beyond."""
    for n, universe in ((100, 200), (300, 600)):
        f = gen_coverage(n, 3, universe, 0.25, seed=n)
        sets = [[sorted(fs) for fs in row] for row in f.sets]
        assert (outcome(CoverageFunction, f.weights, sets)
                == outcome(ReferenceCoverageFunction, f.weights, sets))
    table = gen_modular(800, 3, monotone=False, seed=1).table
    assert outcome(ModularFunction, table) == outcome(ReferenceModularFunction, table)


class TestIntegerTypes:
    """Library inputs that index something must be ``int``: floats and
    bools used to be truncated through ``int``."""

    @pytest.mark.parametrize("sets, bad", [
        ([[[0.7]], [["1"]]], "0.7"),
        ([[[0]], [["1"]]], "'1'"),
        ([[[0, True]], [[1]]], "True"),
        ([[[0]], [[1.0]]], "1.0"),
    ])
    def test_coverage_points(self, sets, bad):
        with pytest.raises(TypeError, match=rf"universe point {bad} is not an int"):
            CoverageFunction([1.0, 1.0], sets)

    def test_coverage_points_from_any_iterable(self):
        f = CoverageFunction((w for w in [1.0, 1.0, 1.0]), [[iter([2, 0]), (u for u in [1])]])
        assert f.weights == (1.0, 1.0, 1.0)
        assert f.sets == ((frozenset({0, 2}), frozenset({1})),)
        assert f._masks == ((0b101, 0b010),)
        assert ExplicitTableFunction(1, 1, iter([0, 1.5])).values == (0.0, 1.5)

    def test_parser_message_unchanged(self):
        with pytest.raises(InstanceFormatError,
                           match="function.coverage: sets must list integer universe points"):
            parse_instance('{"n": 2, "k": 1, "function": {"coverage": {"weights": [1.0, 1.0], '
                           '"sets": [[[0]], [[1.0]]]}}, "matroid": {"uniform": 1}}')

    @pytest.mark.parametrize("labels, k, message", [
        ((1.7, True), 2, "label 1.7 at element 0 is not an int"),
        ((1, True), 2, "label True at element 1 is not an int"),
        ((0, 1), 2.0, "k must be an int, got 2.0"),
        ((0, 1), True, "k must be an int, got True"),
    ])
    def test_assignment_labels_and_k(self, labels, k, message):
        with pytest.raises(TypeError, match=message):
            Assignment(labels, k)

    def test_assignment_takes_any_int_sequence(self):
        assert Assignment([1, 0, 2], 2).labels == (1, 0, 2)
        with pytest.raises(ValueError, match="outside"):
            Assignment((3,), 2)


def valid_specs():
    yield InstanceSpec(40, 3, gen_modular(40, 3, monotone=False, seed=2),
                       PartitionMatroid(40, [range(0, 20), range(20, 40)], [5, 5]))
    yield InstanceSpec(30, 3, gen_coverage(30, 3, 60, 0.25, seed=2), UniformMatroid(30, 8))
    yield InstanceSpec(4, 2, ExplicitTableFunction.tabulate(gen_modular(4, 2, seed=3)),
                       gen_explicit_matroid(4, seed=3))


def test_no_per_entry_checks_and_no_per_position_gains(monkeypatch):
    """Parsing valid files, and solving them, calls no ``_refuse``, the
    exactness rule's per-entry slow path: entries are checked in passes.
    The gain states have no per-position ``gain`` left to call; an element
    is priced at all positions at once."""
    calls = collections.Counter()

    def tally(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(core, "_refuse", tally("_refuse", core._refuse))

    texts = [serialize_instance(spec) for spec in valid_specs()]
    for text in texts:
        parse_instance(text)
    assert not calls
    for text in texts[:2]:
        spec = parse_instance(text)
        threshold_decreasing_solve(spec.function, spec.matroid, 0.1)
        threshold_decreasing_solve(spec.function, spec.matroid, 0.1, order_seed=3)
        greedy_solve(spec.function, spec.matroid)
    assert not calls

    for cls in (GainState, instances._ModularGainState, instances._CoverageGainState):
        assert "gain" not in vars(cls)

    # the tally does see the calls it counts
    doc = json.loads(texts[0])
    doc["function"]["modular"]["table"][3][1] = 10 ** 400
    with pytest.raises(InstanceFormatError, match="table row 3"):
        parse_instance(json.dumps(doc))
    assert set(calls) == {"_refuse"}
