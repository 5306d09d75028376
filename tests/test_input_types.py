"""Each constructor is the one place that checks the types of its inputs.

Counts and indices must be of type ``int`` and values ``int`` or
``float``; a bool, a string, ``None`` or (for an index) a float is refused
with TypeError, never converted; so is a seed that is not an ``int``.
The instance parser makes no type test of its own on function or matroid
bodies: it hands them to the constructors and reports their refusals as
format errors (exit 2), under the field's prefix.

Each input rule (an element index, ``k``, a ground-set size, epsilon, a
sampling budget and seed, a function's shape against the declared
``n``/``k``, the cost of exhaustive verification) has one implementation,
so every public entry point that enforces it refuses a bad value with the
same exception type and message.
"""

import ast
import collections
import inspect
import json
import math

import pytest

from ksubmax import (
    Assignment,
    InstanceFormatError,
    brute_force_solve,
    enumerate_assignments,
    feasible_extensions,
    marginal_gain,
    predicted_round_bound,
    ExplicitMatroid,
    PartitionMatroid,
    UniformMatroid,
    gen_coverage,
    gen_explicit_matroid,
    gen_modular,
    gen_partition_matroid,
    check_matroid_axioms,
    parse_instance,
    serialize_instance,
    InstanceSpec,
    threshold_decreasing_solve,
    verify_k_submodular,
    verify_monotone,
    verify_orthant_pairwise,
)
from ksubmax import core, instances
from ksubmax.cli import main
from ksubmax.verify import DEFAULT_PAIR_BUDGET, _lattice_pairs
from ksubmax.instances import CoverageFunction, ExplicitTableFunction, ModularFunction

from helpers import CountingWrapper, coverage_text, hex_mask

NOT_INTS = (True, "1", None, 1.0)
NOT_NUMBERS = (True, "1.5", None)


def instance(**parts):
    """A valid n=2, k=2 instance document with ``parts`` replaced."""
    doc = {"n": 2, "k": 2,
           "function": {"modular": {"table": [[1.0, 1.0], [1.0, 1.0]]}},
           "matroid": {"uniform": 1}}
    doc.update(parts)
    return doc


def coverage(weights=(1.0, 1.0), point=1):
    return {"coverage": {"weights": list(weights), "sets": [[[0], [point]], [[0], [1]]]}}


# field: (bad values, a good value, library call with the value, instance
# document with the value or None where a file has no such field, prefix of
# the CLI's message)
FIELDS = {
    "KSubFunction.n": (NOT_INTS, 2, lambda v: ExplicitTableFunction(v, 1, [0.0, 1.0, 1.0, 2.0]),
                       lambda v: instance(n=v), "n:"),
    "KSubFunction.k": (NOT_INTS, 2, lambda v: ExplicitTableFunction(1, v, [0.0, 1.0, 1.0]),
                       lambda v: instance(k=v), "k:"),
    "ModularFunction.table": (
        NOT_NUMBERS, 0.5, lambda v: ModularFunction([[1.0, v], [1.0, 1.0]]),
        lambda v: instance(function={"modular": {"table": [[1.0, v], [1.0, 1.0]]}}),
        "function.modular:"),
    "CoverageFunction.weights": (
        NOT_NUMBERS, 0.5, lambda v: CoverageFunction([1.0, v], [[[0], [1]]]),
        lambda v: instance(function=coverage(weights=(1.0, v))), "function.coverage:"),
    "CoverageFunction.sets": (
        NOT_INTS, 1, lambda v: CoverageFunction([1.0, 1.0], [[[0], [v]]]),
        lambda v: instance(function=coverage(point=v)), "function.coverage:"),
    "ExplicitTableFunction.values": (
        NOT_NUMBERS, 0.5, lambda v: ExplicitTableFunction(1, 2, [0.0, v, 1.0]),
        lambda v: instance(function={"explicit": {"values": [0.0, v] + [1.0] * 7}}),
        "function.explicit:"),
    "UniformMatroid.ground_size": (NOT_INTS, 2, lambda v: UniformMatroid(v, 1), None, None),
    "UniformMatroid.budget": (NOT_INTS, 1, lambda v: UniformMatroid(2, v),
                              lambda v: instance(matroid={"uniform": v}), "matroid.uniform:"),
    "PartitionMatroid.ground_size": (
        NOT_INTS, 2, lambda v: PartitionMatroid(v, [[0, 1]], [1]), None, None),
    "PartitionMatroid.blocks": (
        NOT_INTS, 1, lambda v: PartitionMatroid(2, [[0, v]], [1]),
        lambda v: instance(matroid={"partition": {"blocks": [[0, v]], "caps": [1]}}),
        "matroid.partition:"),
    "PartitionMatroid.capacities": (
        NOT_INTS, 1, lambda v: PartitionMatroid(2, [[0, 1]], [v]),
        lambda v: instance(matroid={"partition": {"blocks": [[0, 1]], "caps": [v]}}),
        "matroid.partition:"),
    "ExplicitMatroid.ground_size": (
        NOT_INTS, 2, lambda v: ExplicitMatroid(v, [0, 1]), None, None),
    "ExplicitMatroid.from_sets": (
        NOT_INTS, 1, lambda v: ExplicitMatroid.from_sets(2, [[], [0], [v]]), None, None),
    "ExplicitMatroid.family": (
        NOT_INTS, 3, lambda v: ExplicitMatroid(2, [0, 1, 2, v]),
        lambda v: instance(matroid={"explicit": [0, 1, 2, v]}), "matroid.explicit:"),
}

CASES = [(field, bad) for field, (bads, *_) in FIELDS.items() for bad in bads]


@pytest.mark.parametrize("field, bad", CASES, ids=[f"{f}={b!r}" for f, b in CASES])
def test_every_field_refuses_bad_types(field, bad, tmp_path, capsys):
    """The library raises TypeError, and the same value in an instance file
    makes ``ksubmax solve`` exit 2 naming the field, with no traceback.
    With the good value in its place, the call and the document are valid."""
    _, good, build, document, prefix = FIELDS[field]
    build(good)
    with pytest.raises(TypeError):
        build(bad)
    if document is None:
        return
    parse_instance(json.dumps(document(good)))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(document(bad)))
    assert main(["solve", str(path), "--solver", "greedy"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"ksubmax: {path}: {prefix}")
    assert "Traceback" not in err


class TestIndexArguments:
    """Element and position arguments must be ints: a float position used
    to be stored as a label, ``True`` placed element 1, and a float element
    reached a ``KeyError`` inside the partition matroid."""

    def test_assign_refuses_float_position(self):
        with pytest.raises(TypeError, match="position 1.0 is not an int"):
            Assignment((0, 0, 0), 2).assign(0, 1.0)

    def test_assign_refuses_bool_element(self):
        with pytest.raises(TypeError, match="element True is not an int"):
            Assignment((0, 0, 0), 2).assign(True, 2)

    @pytest.mark.parametrize("f", [gen_modular(3, 2, seed=1), gen_coverage(3, 2, 6, 0.5, seed=1),
                                   CountingWrapper(gen_modular(3, 2, seed=1))])
    def test_gain_state_refuses_bool_element(self, f):
        state = f.gain_state()
        for call in (lambda: state.place(True, 1, 1.0), lambda: state.best(True),
                     lambda: state.place(0, 1.0, 1.0)):
            with pytest.raises(TypeError, match="is not an int"):
                call()
        assert state.assignment == f.zero() and state.value == 0.0

    @pytest.mark.parametrize("m", [UniformMatroid(3, 2), gen_partition_matroid(3, seed=1),
                                   gen_explicit_matroid(3, seed=1)])
    def test_is_independent_refuses_float_element(self, m):
        for subset in ([1.5], [0, True], {None}):
            with pytest.raises(TypeError, match="is not an int"):
                m.is_independent(subset)

    @pytest.mark.parametrize("m", [UniformMatroid(3, 2), gen_partition_matroid(3, seed=1),
                                   gen_explicit_matroid(3, seed=1)])
    def test_independence_state_refuses_float_element(self, m):
        state = m.independence_state()
        for bad in (1.5, True, "0"):
            with pytest.raises(TypeError, match="is not an int"):
                state.can_add(bad)
            with pytest.raises(TypeError, match="is not an int"):
                state.add(bad)
        assert state.support == set()


NOT_SEEDS = NOT_INTS + (False, 1.5)
SEED_F = gen_modular(3, 2, seed=1)
SEED_M = UniformMatroid(3, 2)
# seeded call: (bad seeds, call with the seed); None means "no shuffle" to
# the threshold solver, so only there is it a good value
SEEDED = {
    "gen_modular": (NOT_SEEDS, lambda s: gen_modular(3, 2, seed=s)),
    "gen_coverage": (NOT_SEEDS, lambda s: gen_coverage(3, 2, 6, 0.5, seed=s)),
    "gen_partition_matroid": (NOT_SEEDS, lambda s: gen_partition_matroid(3, seed=s)),
    "gen_explicit_matroid": (NOT_SEEDS, lambda s: gen_explicit_matroid(3, seed=s)),
    "threshold_decreasing_solve": (
        tuple(s for s in NOT_SEEDS if s is not None), lambda s: threshold_decreasing_solve(
            SEED_F, SEED_M, 0.5, order_seed=s)),
    "verify_k_submodular": (NOT_SEEDS, lambda s: verify_k_submodular(SEED_F, seed=s)),
    "verify_orthant_pairwise": (NOT_SEEDS, lambda s: verify_orthant_pairwise(SEED_F, seed=s)),
    "verify_monotone": (NOT_SEEDS, lambda s: verify_monotone(SEED_F, seed=s)),
    "check_matroid_axioms": (NOT_SEEDS, lambda s: check_matroid_axioms(SEED_M, seed=s)),
}
SEED_CASES = [(name, bad) for name, (bads, _) in SEEDED.items() for bad in bads]


@pytest.mark.parametrize("name, bad", SEED_CASES, ids=[f"{n}={b!r}" for n, b in SEED_CASES])
def test_every_seed_refuses_bad_types(name, bad):
    """A seed must be of type ``int``: ``True`` used to draw what seed 1
    draws and a float seeded the generator from its hash."""
    _, call = SEEDED[name]
    call(1)
    with pytest.raises(TypeError, match="seed must be an integer"):
        call(bad)


def tally_typed(monkeypatch):
    """Count each ``_typed`` call the parser's module and ``core`` make, by
    its types and values.  The integer rule, ``core._check_ints``, makes its
    one-value passes there too, for the matroid's checks as well."""
    calls = collections.Counter()
    typed = core._typed

    def tally(values, types):
        values = tuple(values)
        calls[types, values] += 1
        return typed(values, types)

    for module in (core, instances):
        monkeypatch.setattr(module, "_typed", tally)
    return calls


# The integer rule's one-value passes in parsing these files: the ground
# size of the function and of the matroid, k, and the uniform budget
SCALAR_PASSES = collections.Counter({(core.INTS, (12,)): 2, (core.INTS, (3,)): 1,
                                     (core.INTS, (1,)): 1})


def test_parse_type_checks_each_cover_set_once(monkeypatch):
    """Parsing a valid coverage file whose cover sets are point lists makes
    one type pass over each cover set and one over the weights, all
    through the shared helper, besides the one-value passes of the
    integer rule."""
    f = gen_coverage(12, 3, 24, 0.3, seed=4)
    text = coverage_text(f, sorted)
    calls = tally_typed(monkeypatch)
    doc = json.loads(text)["function"]["coverage"]
    assert parse_instance(text).function == f
    cover_sets = collections.Counter(
        (core.INTS, tuple(points)) for row in doc["sets"] for points in row)
    assert calls == cover_sets + collections.Counter(
        {(core.FLOATS, tuple(doc["weights"])): 1}) + SCALAR_PASSES


def test_parse_makes_no_type_pass_over_mask_cover_sets(monkeypatch):
    """Cover sets written as hex bitmasks, the form ``serialize_instance``
    writes, are read without a type pass over points: the one pass over a
    list is over the weights."""
    f = gen_coverage(12, 3, 24, 0.3, seed=4)
    text = coverage_text(f, hex_mask)
    assert text == json.dumps(json.loads(serialize_instance(
        InstanceSpec(12, 3, f, UniformMatroid(12, 1)))))
    calls = tally_typed(monkeypatch)
    doc = json.loads(text)["function"]["coverage"]
    assert parse_instance(text).function == f
    assert calls == collections.Counter({(core.FLOATS, tuple(doc["weights"])): 1}) + SCALAR_PASSES


def test_parser_makes_no_type_test_of_its_own():
    """The function and matroid envelope and their per-tag builders call
    only the constructors, the required-field lookup and the envelope's own
    checks on the tagged object."""
    allowed = {"isinstance", "len", "InstanceFormatError", "_require",
               "ModularFunction", "CoverageFunction", "ExplicitTableFunction",
               "UniformMatroid", "PartitionMatroid", "ExplicitMatroid"}
    module = ast.parse(inspect.getsource(instances))
    tables = {"_FUNCTION_BUILDERS", "_MATROID_BUILDERS"}
    parts = [node for node in module.body
             if isinstance(node, ast.FunctionDef) and node.name == "_parse_family"
             or isinstance(node, ast.Assign) and {ast.unparse(t) for t in node.targets} & tables]
    assert len(parts) == 3
    assert set(instances._FUNCTION_BUILDERS) == {"modular", "coverage", "explicit"}
    assert set(instances._MATROID_BUILDERS) == {"uniform", "partition", "explicit"}
    for tree in parts:
        calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
        names = {node.func.id for node in calls if isinstance(node.func, ast.Name)}
        assert names <= allowed, names - allowed
        for node in calls:
            if isinstance(node.func, ast.Name) and node.func.id in ("isinstance", "len"):
                assert ast.unparse(node.args[0]) == "doc"  # the tagged object, not its body


def refusal(call):
    """The type and message of the exception ``call()`` raises."""
    try:
        call()
    except Exception as err:  # the test compares what it caught
        return type(err), str(err)
    raise AssertionError("the call was accepted")


def rule_cases(bads):
    return pytest.mark.parametrize("bad", bads, ids=[repr(b) for b in bads])


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance()))
    return str(path)


RULE_F = gen_modular(3, 2, seed=1)
ELEMENT_CALLS = {
    "Assignment.assign": lambda e: Assignment((0, 0, 0), 2).assign(e, 1),
    "Assignment.check_open": lambda e: Assignment((0, 0, 0), 2).check_open(e, 1),
    "marginal_gain": lambda e: marginal_gain(RULE_F, RULE_F.zero(), e, 1),
    **{f"{type(f).__name__}.gain_state().{name}": call
       for f in (RULE_F, gen_coverage(3, 2, 6, 0.5, seed=1), CountingWrapper(RULE_F))
       for name, call in (("best", lambda e, f=f: f.gain_state().best(e)),
                          ("place", lambda e, f=f: f.gain_state().place(e, 1, 0.0)))},
    **{f"{type(m).__name__}.{name}": call
       for m in (UniformMatroid(3, 2), gen_partition_matroid(3, seed=1),
                 gen_explicit_matroid(3, seed=1))
       for name, call in (("is_independent", lambda e, m=m: m.is_independent([0, e])),
                          ("can_add", lambda e, m=m: m.independence_state().can_add(e)),
                          ("add", lambda e, m=m: m.independence_state().add(e)),
                          ("feasible_extensions", lambda e, m=m: feasible_extensions(m, [e])))},
}


@rule_cases([1.5, True, None, "0", 3, -1])
def test_element_index_rule(bad):
    """An element must be an ``int`` in ``0..n-1``.  A partition block's
    elements pass its own type check first, so only the range reaches it."""
    if type(bad) is int:
        expected = (ValueError, f"element {bad} outside ground set of size 3")
    else:
        expected = (TypeError, f"element {bad!r} is not an int")
    for name, call in ELEMENT_CALLS.items():
        assert refusal(lambda: call(bad)) == expected, name
    if type(bad) is int:
        assert refusal(lambda: PartitionMatroid(3, [[0, 1, 2, bad]], [1])) == expected


@rule_cases([True, 1.0, "2", None, 0, -1])
def test_k_rule(bad):
    """``enumerate_assignments(2, True)`` used to yield assignments whose
    ``k`` was the bool, which ``Assignment`` itself refuses."""
    if type(bad) is int:
        expected = (ValueError, f"k must be a positive integer, got {bad}")
    else:
        expected = (TypeError, f"k must be an int, got {bad!r}")
    for call in (lambda: Assignment((0, 0), bad), lambda: Assignment.zero(2, bad),
                 lambda: list(enumerate_assignments(2, bad)),
                 lambda: ExplicitTableFunction(0, bad, [0.0]),
                 lambda: gen_modular(2, bad), lambda: gen_coverage(2, bad, 4, 0.5)):
        assert refusal(call) == expected


@rule_cases([-1, True, 2.0, None, "2"])
def test_ground_size_rule(bad):
    """The matroid families, the functions and the assignment builders share
    the rule.  ``PartitionMatroid(-1, [], [])`` used to fail with "blocks do
    not cover the ground set; missing []"; ``Assignment.zero(-1, 2)`` used
    to return an empty assignment, ``enumerate_assignments(True, 2)`` to
    enumerate n = 1, and a float size to raise itertools' own error."""
    if type(bad) is int:
        expected = (ValueError, f"ground_size must be nonnegative, got {bad}")
    else:
        expected = (TypeError, f"ground_size must be an integer, got {bad!r}")
    for call in (lambda: UniformMatroid(bad, 0), lambda: PartitionMatroid(bad, [], []),
                 lambda: ExplicitMatroid(bad, [0]), lambda: ExplicitMatroid.from_sets(bad, [[]]),
                 lambda: ExplicitTableFunction(bad, 1, [0.0]),
                 lambda: gen_modular(bad, 2), lambda: gen_coverage(bad, 2, 4, 0.5),
                 lambda: gen_partition_matroid(bad), lambda: gen_explicit_matroid(bad),
                 lambda: Assignment.zero(bad, 2), lambda: list(enumerate_assignments(bad, 2))):
        assert refusal(call) == expected


@rule_cases([0, 1, 0.0, 1.0, -0.5, 7, math.nan, math.inf, True, False, "0.5", None])
def test_epsilon_rule(bad, instance_file, tmp_path, capsys):
    """The library, ``solve --epsilon`` (exit 4, whichever solver) and a
    bench config's ``epsilons`` (exit 2) refuse with one message."""
    message = f"epsilon must lie strictly between 0 and 1, got {bad!r}"
    assert refusal(lambda: predicted_round_bound(bad, 2)) == (ValueError, message)
    assert refusal(lambda: threshold_decreasing_solve(SEED_F, SEED_M, bad)) == (
        ValueError, message)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"grid": [], "epsilons": [bad]}))
    assert main(["bench", str(config)]) == 2
    assert capsys.readouterr().err == f"ksubmax: {config}: epsilons: {message}\n"
    if type(bad) in (int, float):
        flag = float(bad)  # what argparse makes of the flag
        _, flag_message = refusal(lambda: predicted_round_bound(flag, 2))
        for solver in ("threshold", "greedy"):
            assert main(["solve", instance_file, "--solver", solver,
                         "--epsilon", str(flag)]) == 4
            assert capsys.readouterr().err == f"ksubmax: {flag_message}\n"


@rule_cases([0, -3, True, 1.5, None])
def test_sampling_rule(bad):
    """A budget below 1, or a seed that is not an ``int``, is refused alike
    by the three verifiers and the matroid-axiom checker.
    ``check_matroid_axioms(m, budget=0)`` used to say "holds" after
    testing only the empty set."""
    verifiers = (verify_k_submodular, verify_orthant_pairwise, verify_monotone)
    if type(bad) is int:
        expected = (ValueError, f"sampling budget must be at least 1, got {bad}")
        calls = [lambda v=v: v(SEED_F, pair_budget=bad) for v in verifiers]
        calls.append(lambda: check_matroid_axioms(SEED_M, budget=bad))
    else:
        expected = (TypeError, f"seed must be an integer, got {bad!r}")
        calls = [lambda v=v: v(SEED_F, seed=bad) for v in verifiers]
        calls.append(lambda: check_matroid_axioms(SEED_M, seed=bad))
    for call in calls:
        assert refusal(call) == expected


@rule_cases([True, False, 2.5, "9", None])
def test_count_rule(bad):
    """A sampling budget, a brute-force cap and a rank must be ``int``s.
    ``verify_k_submodular(f, pair_budget=True)`` used to report
    ``checked=True``, ``pair_budget=2.5`` ran 3 checks, ``cap=1.5`` was
    taken, ``cap="9"`` failed on ``>``, and ``predicted_round_bound(0.1,
    2.5)`` returned 39."""
    budget = (TypeError, f"sampling budget must be an integer, got {bad!r}")
    for verifier in (verify_k_submodular, verify_orthant_pairwise, verify_monotone):
        assert refusal(lambda: verifier(SEED_F, pair_budget=bad)) == budget
    assert refusal(lambda: check_matroid_axioms(SEED_M, budget=bad)) == budget
    assert refusal(lambda: brute_force_solve(SEED_F, SEED_M, cap=bad)) == (
        TypeError, f"cap must be an integer, got {bad!r}")
    assert refusal(lambda: predicted_round_bound(0.1, bad)) == (
        TypeError, f"rank must be an integer, got {bad!r}")
    assert refusal(lambda: gen_coverage(2, 2, bad, 0.5)) == (
        TypeError, f"universe_size must be an integer, got {bad!r}")
    assert refusal(lambda: gen_partition_matroid(3, max_blocks=bad)) == (
        TypeError, f"max_blocks must be an integer, got {bad!r}")


@pytest.mark.parametrize("call, expected", [
    # each used to build an instance of n = 1, a 1-point universe and
    # density 1.0, or to fail with a raw error of ``range`` or ``randrange``
    (lambda: gen_modular(True, 2), (TypeError, "ground_size must be an integer, got True")),
    (lambda: gen_coverage(2, 2, True, 0.5),
     (TypeError, "universe_size must be an integer, got True")),
    (lambda: gen_coverage(2, 2, 4, True), (TypeError, "density must be a number, got True")),
    (lambda: gen_coverage(2, 2, 4, "0.5"), (TypeError, "density must be a number, got '0.5'")),
    (lambda: gen_coverage(2, 2, 4, None), (TypeError, "density must be a number, got None")),
    (lambda: gen_coverage(2.0, 2, 4, 0.5), (TypeError, "ground_size must be an integer, got 2.0")),
    (lambda: gen_partition_matroid(3, max_blocks=2.5),
     (TypeError, "max_blocks must be an integer, got 2.5")),
    (lambda: gen_partition_matroid(3, max_blocks=0),
     (ValueError, "max_blocks must be at least 1, got 0")),
    (lambda: gen_partition_matroid(3, max_blocks=-2),
     (ValueError, "max_blocks must be at least 1, got -2")),
    # "no" built a monotone table, True was read as 1, "a" failed on ``>``
    # and three values on unpacking
    (lambda: gen_modular(2, 2, monotone="no"),
     (TypeError, "monotone must be a bool, got 'no'")),
    (lambda: gen_modular(2, 2, value_range=(True, 4.0)),
     (TypeError, "value_range must be a pair of numbers, got (True, 4.0)")),
    (lambda: gen_modular(2, 2, value_range=("a", 4.0)),
     (TypeError, "value_range must be a pair of numbers, got ('a', 4.0)")),
    (lambda: gen_modular(2, 2, value_range=(-1.0, 2.0, 4.0)),
     (TypeError, "value_range must be a pair of numbers, got (-1.0, 2.0, 4.0)")),
], ids=["modular n=True", "coverage universe=True", "coverage density=True",
        "coverage density='0.5'", "coverage density=None", "coverage n=2.0",
        "partition max_blocks=2.5", "partition max_blocks=0", "partition max_blocks=-2",
        "modular monotone='no'", "modular range (True, 4.0)", "modular range ('a', 4.0)",
        "modular range of three"])
def test_generator_sizes_rule(call, expected, monkeypatch):
    """The generators check their sizes, ``density``, ``monotone`` and
    ``value_range`` before drawing."""
    monkeypatch.setattr(instances, "_rng", lambda seed: pytest.fail("drew before refusing"))
    assert refusal(call) == expected


def test_gen_modular_takes_a_list_pair():
    """A ``value_range`` may be a list, as a bench config's is."""
    assert gen_modular(2, 2, value_range=[-1, 2.5], monotone=False, seed=3) == gen_modular(
        2, 2, value_range=(-1.0, 2.5), monotone=False, seed=3)


SHAPES = {
    "modular n": (ModularFunction([[1.0, 1.0]]), {"modular": {"table": [[1.0, 1.0]]}}),
    "modular k": (ModularFunction([[1.0], [1.0]]), {"modular": {"table": [[1.0], [1.0]]}}),
    "coverage k": (CoverageFunction([1.0], [[[0], [0], [0]]] * 2),
                   {"coverage": {"weights": [1.0], "sets": [["1", "1", "1"]] * 2}}),
}


@pytest.mark.parametrize("shape", list(SHAPES))
def test_function_shape_rule(shape, tmp_path, capsys):
    """``InstanceSpec`` compares a function's shape with the declared
    ``n``/``k``; the parser and the CLI report its message as it is."""
    function, doc = SHAPES[shape]
    message = (f"function shape (n={function.n}, k={function.k}) "
               f"does not match declared (n=2, k=2)")
    assert refusal(lambda: InstanceSpec(2, 2, function, UniformMatroid(2, 1))) == (
        ValueError, message)
    text = json.dumps(instance(function=doc))
    assert refusal(lambda: parse_instance(text)) == (InstanceFormatError, message)
    path = tmp_path / "shape.json"
    path.write_text(text)
    assert main(["solve", str(path), "--solver", "greedy"]) == 2
    assert capsys.readouterr().err == f"ksubmax: {path}: {message}\n"


def test_bad_matroid_is_reported_before_a_bad_function_shape():
    """The matroid is built before ``InstanceSpec`` compares shapes."""
    text = json.dumps(instance(function={"modular": {"table": [[1.0, 1.0]]}},
                               matroid={"partition": {"blocks": [[0]], "caps": [1]}}))
    with pytest.raises(InstanceFormatError, match="^matroid.partition: blocks do not cover"):
        parse_instance(text)


def test_lattice_pairs_bound_every_exhaustive_enumeration():
    """``(k+1)^2 >= 2k + 1`` and ``(k+1)^n >= 2^n``, so the lattice pairs
    bound the ordered pairs and the matroid subsets: they alone decide
    whether ``ksubmax verify`` may run without ``--sample``."""
    for n in range(40):
        for k in range(1, 12):
            assert _lattice_pairs(n, k) >= max((2 * k + 1) ** n, 2 ** n)


@pytest.mark.parametrize("n, k", [(2, 2), (3, 1), (4, 2), (7, 2), (11, 1)])
def test_verification_cost_rule(n, k, tmp_path, capsys):
    """The CLI's cap and the lattice verifier count the same pairs."""
    pairs = _lattice_pairs(n, k)
    table = [[1.0] * k] * n
    path = tmp_path / "cost.json"
    path.write_text(json.dumps(instance(n=n, k=k, function={"modular": {"table": table}})))
    if pairs > DEFAULT_PAIR_BUDGET:
        assert main(["verify", str(path)]) == 3
        assert f"instance needs {pairs} checks" in capsys.readouterr().err
    else:
        assert main(["verify", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"(lattice inequality): holds [exhaustive, {pairs} checks]" in out
        assert verify_k_submodular(ModularFunction(table)).checked == pairs
