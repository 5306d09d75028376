"""The exactness rule: every function family takes only sum-exact values.

``ksubmax.core._sum_exact`` states the rule once and the three function
constructors apply it.  These tests hold it to its definition
(``helpers.reference_is_sum_exact``, in exact rationals) and to its
boundaries, and check what it buys: on accepted values the family gain
states run exactly as the default state does, no modular or coverage
function is reported not k-submodular, exhaustive or sampled, and the
modular optimum has a closed form (``helpers.modular_opt``) that brute
force meets exactly and greedy meets exactly wherever it is optimal.
Refused inputs leave the command line with exit 2 and no traceback.
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import ksubmax.cli
from ksubmax import (
    Assignment,
    CoverageFunction,
    ExplicitTableFunction,
    ModularFunction,
    UniformMatroid,
    brute_force_solve,
    gen_explicit_matroid,
    gen_partition_matroid,
    greedy_solve,
    threshold_decreasing_solve,
    verify_k_submodular,
    verify_monotone,
    verify_orthant_pairwise,
)
from ksubmax.cli import main

from helpers import BASES, CountingWrapper, dyadics, modular_opt, reference_is_sum_exact
from test_gain_state import feasibility_instances, ratio_instances, same_run

DECIMAL_TABLE = [[0.1], [0.2], [0.3]]


# what a hand-written file may hold besides one window of dyadics
LOOSE = st.one_of(
    st.floats(min_value=0.0, allow_infinity=False),
    st.integers(0, 2 ** 60),
    st.sampled_from([0.1, 0.2, 0.3, 1 / 3, 1.0, 0.5, 5e-324, 2.0 ** 52 - 1, 2.0 ** 52,
                     2.0 ** 53 + 2, 2 ** 53 + 1, 2.0 ** 1022, 1.7e308]),
)


def build(family, n, k, values):
    """A constructor call of the family on nonnegative ``values`` (some of
    them negated), the values it passes, and the exact magnitude they
    reach; the family's own checks always pass."""
    if family == "modular":
        rows = [values[e * k:(e + 1) * k] for e in range(n)]
        for row in rows[::2]:
            if k >= 2:  # a negative entry no larger than the rest
                row[0] = -min(row[1:])
        magnitude = sum(max(abs(Fraction(v)) for v in row) for row in rows)
        return (lambda: ModularFunction(rows)), sum(rows, []), magnitude
    if family == "coverage":
        sets = [[[u for u in range(len(values)) if (u + e + i) % 3] for i in range(k)]
                for e in range(n)]
        return (lambda: CoverageFunction(values, sets)), values, sum(map(Fraction, values))
    table = [0.0] + [(-v if j % 2 else v) for j, v in enumerate(values[1:])]
    return ((lambda: ExplicitTableFunction(n, k, table)), table,
            max(abs(Fraction(v)) for v in table))


@st.composite
def family_inputs(draw):
    family = draw(st.sampled_from(["modular", "coverage", "explicit"]))
    n, k = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    window = dyadics(draw(BASES))
    value = st.one_of(window, window, window, LOOSE)
    count = {"modular": n * k, "coverage": draw(st.integers(1, 6))}.get(family, (k + 1) ** n)
    values = draw(st.lists(value, min_size=count, max_size=count))
    return family, n, k, values


@settings(max_examples=600, deadline=None)
@given(family_inputs())
@example(("modular", 3, 1, [0.1, 0.2, 0.3]))
@example(("coverage", 1, 1, [2.0 ** 52 - 1, 1.0]))
@example(("explicit", 1, 1, [0.0, 2 ** 53 + 1]))
def test_constructors_refuse_exactly_what_is_not_sum_exact(case):
    """Accepted iff sum-exact by the definition; a refusal says why."""
    make, values, magnitude = build(*case)
    try:
        make()
    except ValueError as err:
        assert "sum-exact" in str(err)
        assert not reference_is_sum_exact(values, magnitude)
        return
    assert reference_is_sum_exact(values, magnitude)


# Multiples of one unit 2^-S, from the smallest subnormal to the largest
# unit that still holds 2^52 - 1 of them within the float range.
UNITS = [2.0 ** -1074, 2.0 ** -1000, 2.0 ** -20, 1.0, 2.0 ** 900, 2.0 ** 971]
BELOW = 2 ** 52 - 1


@pytest.mark.parametrize("unit", UNITS, ids=lambda u: f"2^{math.frexp(u)[1] - 1}")
def test_boundary_is_two_to_the_52_units(unit):
    """``2^52 - 1`` units of magnitude are accepted and ``2^52`` refused, in
    each family; the modular and coverage magnitudes are sums, so a second
    unit-sized entry crosses the line (a coverage weight counts even where
    no set covers its point)."""
    top = BELOW * unit
    assert ModularFunction([[top]]).table == ((top,),)
    assert ModularFunction([[2 ** 51 * unit, -unit], [(2 ** 51 - 2) * unit, 0.0]]).n == 2
    assert CoverageFunction([top], [[[0]]]).weights == (top,)
    assert ExplicitTableFunction(1, 2, [0.0, top, -unit]).values == (0.0, top, -unit)
    for make in (lambda: ModularFunction([[top], [unit]]),
                 lambda: ModularFunction([[top, -unit], [unit, unit]]),
                 lambda: CoverageFunction([top, unit], [[[0]]]),
                 lambda: ExplicitTableFunction(1, 2, [0.0, 2 ** 52 * unit, -unit])):
        with pytest.raises(ValueError, match="sum-exact"):
            make()


def test_subnormal_and_zero_tables_are_accepted():
    tiny = [5e-324, 2.0 ** -1060, 3 * 5e-324, 2.0 ** -1030]
    f = ModularFunction([[tiny[0], tiny[1]], [tiny[2], tiny[3]]])
    assert f.evaluate(f.zero().assign(0, 2).assign(1, 1)) == tiny[1] + tiny[2]
    assert CoverageFunction(tiny, [[[0, 1, 2, 3]]]).evaluate(Assignment((1,), 1)) == sum(tiny)
    assert ExplicitTableFunction(1, 1, [0.0, -5e-324]).values == (0.0, -5e-324)
    for zero in (ModularFunction([[0.0, -0.0]] * 3), CoverageFunction([0.0] * 4, [[[0, 3]]]),
                 ExplicitTableFunction(2, 1, [0.0, -0.0, 0, 0.0])):
        assert verify_k_submodular(zero).holds and verify_orthant_pairwise(zero).holds


def test_a_stalled_subnormal_bar_drops_one_unit():
    """An all-subnormal table is sum-exact.  Its bar falls from 6 units of
    2^-1074 to 5, and 0.9 times 5 units rounds back to 5, above the stop
    value (which rounds to 0): the bar then drops one unit a round, and
    the gains, whole units, are taken as soon as they clear it.  The loop
    used to run the round at 5 units forever."""
    unit = 5e-324
    f = ModularFunction([[6 * unit], [unit], [2 * unit]])
    run = threshold_decreasing_solve(f, UniformMatroid(3, 3), 0.1)
    assert run.rounds == [(6 * unit, 1), (5 * unit, 0), (4 * unit, 0), (3 * unit, 0),
                          (2 * unit, 1), (unit, 1)]
    assert run.value == 9 * unit


def test_decimal_table_is_refused_with_its_unit_and_magnitude():
    """The table that used to get two ``fails`` verdicts and OPT
    0.6000000000000001."""
    with pytest.raises(ValueError) as info:
        ModularFunction(DECIMAL_TABLE)
    assert str(info.value) == (
        "table row 0: value 0.1 is not a multiple of 2^-52 (S = 52), the finest unit at "
        "which twice the magnitude 0.6 stays below 2^53 units; values must be sum-exact")


@st.composite
def accepted_instances(draw, max_n=8):
    """A modular or coverage function on one window of dyadics, and a matroid."""
    n, k = draw(st.integers(1, max_n)), draw(st.integers(1, 3))
    window = dyadics(draw(st.integers(-1074, 900)), bits=12)
    family = draw(st.sampled_from(["modular", "coverage"]))
    if family == "modular":
        rows = [draw(st.lists(window, min_size=k, max_size=k)) for _ in range(n)]
        for row in rows:
            if k >= 2 and draw(st.booleans()):
                row[0] = -min(row[1:])
            elif k == 1 and draw(st.booleans()):
                row[0] = -row[0]
        f = ModularFunction(rows)
    else:
        universe = draw(st.integers(1, 2 * n))
        weights = draw(st.lists(window, min_size=universe, max_size=universe))
        cover = st.lists(st.integers(0, universe - 1), max_size=universe)
        f = CoverageFunction(weights, [[draw(cover) for _ in range(k)] for _ in range(n)])
    kind = draw(st.sampled_from(["uniform", "partition", "explicit"]))
    seed = draw(st.integers(0, 1000))
    if kind == "uniform":
        m = UniformMatroid(n, draw(st.integers(0, n)))
    elif kind == "partition":
        m = gen_partition_matroid(n, seed=seed)
    else:
        m = gen_explicit_matroid(n, seed=seed)
    return f, m


@settings(max_examples=300, deadline=None)
@given(accepted_instances())
def test_family_states_run_as_the_default_state(case):
    """Both solvers, on the family state and on the evaluate-based one."""
    f, m = case
    ref = CountingWrapper(f)
    for epsilon in (0.1, 0.5):
        for seed in (None, 3):
            same_run(threshold_decreasing_solve(f, m, epsilon, order_seed=seed),
                     threshold_decreasing_solve(ref, m, epsilon, order_seed=seed))
    same_run(greedy_solve(f, m), greedy_solve(ref, m))


@settings(max_examples=200, deadline=None)
@given(accepted_instances(max_n=4))
def test_modular_and_coverage_never_fail_verification(case):
    """Exhaustive where the shape allows, and sampled at a budget of 40."""
    f, _ = case
    budgets = (40, 10 ** 6) if (f.k + 1) ** f.n <= 81 else (40,)
    for budget in budgets:
        for check in (verify_k_submodular, verify_orthant_pairwise):
            assert check(f, budget, seed=budget).holds
    if isinstance(f, CoverageFunction):
        assert verify_monotone(f, 40, seed=1).holds


@settings(max_examples=300, deadline=None)
@given(accepted_instances(max_n=6))
def test_closed_form_modular_opt_equals_brute_force(case):
    f, m = case
    if isinstance(f, ModularFunction):
        assert brute_force_solve(f, m).value == modular_opt(f, m)


def test_greedy_meets_the_closed_form_opt_on_the_criteria_grids():
    """Wherever pairwise monotonicity holds (``k >= 2``) or the table is
    monotone, greedy is optimal on a modular function, exactly."""
    runs = 0
    for grid in (feasibility_instances(count=1000), ratio_instances()):
        for f, m, _ in grid:
            if isinstance(f, ModularFunction) and (f.k >= 2 or f.monotone):
                assert greedy_solve(f, m).value == modular_opt(f, m)
                runs += 1
    assert runs > 900


@settings(max_examples=300, deadline=None)
@given(accepted_instances(max_n=5), st.sampled_from([0.01, 0.1, 0.3]))
@example((ModularFunction([[60 * 5e-324]] + [[48 * 5e-324]] * 10), UniformMatroid(11, 11)),
         0.01)
def test_threshold_meets_its_ratio_on_accepted_values(case, epsilon):
    """``(1/2 - eps) * OPT`` when monotone and ``(1/3 - eps) * OPT``
    otherwise, compared in exact rationals, at every unit the rule allows.
    In the example the bar stalls at 49 units of 2^-1074, far above the
    stop value (about 0.03 units, which rounds to 0); a run that ended
    there took 60 of the 540 units."""
    f, m = case
    opt = Fraction(brute_force_solve(f, m).value)
    monotone = isinstance(f, CoverageFunction) or f.monotone
    ratio = Fraction(1, 2 if monotone else 3) - Fraction(epsilon)
    assert Fraction(threshold_decreasing_solve(f, m, epsilon).value) >= ratio * opt


def write_instance(tmp_path, function, n, k):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"n": n, "k": k, "function": function,
                                "matroid": {"uniform": n}}))
    return str(path)


REFUSED_FUNCTIONS = st.one_of(
    st.builds(lambda rows: ({"modular": {"table": rows}}, len(rows), 1),
              st.lists(st.sampled_from([[0.1], [0.7], [1.0], [2.0 ** 52]]), min_size=2,
                       max_size=4).filter(lambda rows: not reference_is_sum_exact(
                           [v for row in rows for v in row],
                           sum(Fraction(abs(row[0])) for row in rows)))),
    st.sampled_from([
        ({"coverage": {"weights": [0.1, 0.2], "sets": [[[0, 1]]]}}, 1, 1),
        ({"coverage": {"weights": [2 ** 52 - 1, 1], "sets": [[[0]]]}}, 1, 1),
        ({"explicit": {"values": [0, 2 ** 53 + 1]}}, 1, 1),
        ({"explicit": {"values": [0, 1.0, 2.0 ** 52, 1]}}, 2, 1),
    ]),
)


@settings(max_examples=40, deadline=None)
@given(REFUSED_FUNCTIONS)
def test_refused_inputs_exit_2_without_a_traceback(tmp_path_factory, case):
    function, n, k = case
    path = write_instance(tmp_path_factory.mktemp("refused"), function, n, k)
    (tag,) = function
    for argv in (["verify", path], ["solve", path, "--solver", "greedy"]):
        captured = run_main(argv)
        assert captured[0] == 2
        assert captured[1] == ""
        assert f"function.{tag}: " in captured[2] and "sum-exact" in captured[2]
        assert "Traceback" not in captured[2]


def run_main(argv):
    """``main(argv)`` with its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_decimal_table_exits_2_from_the_installed_program(tmp_path):
    path = write_instance(tmp_path, {"modular": {"table": DECIMAL_TABLE}}, 3, 1)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(ksubmax.cli.__file__)), env.get("PYTHONPATH", "")])
    child = subprocess.run([sys.executable, "-m", "ksubmax.cli", "verify", path],
                           capture_output=True, text=True, env=env, timeout=120)
    assert child.returncode == 2
    assert child.stdout == ""
    assert "function.modular: table row 0: value 0.1 is not a multiple of 2^-52" in child.stderr
    assert "Traceback" not in child.stderr
