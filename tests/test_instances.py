import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from ksubmax import (
    Assignment,
    CoverageFunction,
    ExplicitTableFunction,
    InstanceFormatError,
    InstanceSpec,
    ModularFunction,
    PartitionMatroid,
    UniformMatroid,
    check_matroid_axioms,
    enumerate_assignments,
    gen_coverage,
    gen_explicit_matroid,
    gen_modular,
    gen_partition_matroid,
    parse_instance,
    serialize_instance,
    verify_k_submodular,
    verify_monotone,
)

from helpers import coverage_text, dyadics, hex_mask, reference_is_sum_exact

GRID = 64  # generators only emit multiples of 1/64


def on_grid(x):
    return x * GRID == int(x * GRID)


class TestModularFunction:
    def test_evaluation(self):
        f = ModularFunction([[5.0, -3.0], [2.0, 2.0]])
        assert f.evaluate(Assignment((1, 2), 2)) == 7.0
        assert f.evaluate(Assignment((2, 0), 2)) == -3.0
        assert f.evaluate(f.zero()) == 0.0

    def test_rejects_bad_row_and_names_it(self):
        with pytest.raises(ValueError, match="row 1"):
            ModularFunction([[1.0, 1.0], [1.0, -2.0]])

    def test_k1_rows_unconstrained(self):
        f = ModularFunction([[-5.0], [-1.0]])
        assert f.evaluate(Assignment((1, 1), 1)) == -6.0

    def test_monotone_property(self):
        assert ModularFunction([[1.0, 0.0]]).monotone
        assert not ModularFunction([[3.0, -1.0]]).monotone

    def test_rejects_ragged_table(self):
        with pytest.raises(ValueError):
            ModularFunction([[1.0, 2.0], [1.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            ModularFunction([[float("nan"), 1.0]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ModularFunction([])


class TestCoverageFunction:
    def test_evaluation(self):
        f = CoverageFunction(
            weights=[1.0, 0.5, 0.25],
            sets=[[[0, 1], [2]], [[1], [0, 2]]],
        )
        assert f.evaluate(Assignment((1, 0), 2)) == 1.5
        assert f.evaluate(Assignment((1, 2), 2)) == 1.75  # overlap on point 0
        assert f.evaluate(Assignment((2, 1), 2)) == 0.75
        assert f.evaluate(f.zero()) == 0.0

    def test_rejects_out_of_universe(self):
        with pytest.raises(ValueError, match=r"sets\[0\]\[1\]"):
            CoverageFunction(weights=[1.0], sets=[[[0], [3]]])

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            CoverageFunction(weights=[-1.0], sets=[[[0]]])

    def test_is_k_submodular_and_monotone(self):
        f = gen_coverage(3, 3, universe_size=6, density=0.5, seed=2)
        assert verify_k_submodular(f).holds
        assert verify_monotone(f).holds


def sequential_weight(weights, points):
    """The reference: the float sum of the set bits' weights, lowest bit first."""
    total = 0.0
    for u, w in enumerate(weights):
        if points >> u & 1:
            total += w
    return total


def dyadic_weights(draw, numerators, exponents):
    """c / 2^s with exponents spread over 64 above a common base, so the
    numerators over the largest denominator fall on both sides of 2^53."""
    base = draw(st.integers(0, 1010))
    return st.builds(lambda c, s: c * 2.0 ** -(base + s), numerators, exponents)


@st.composite
def weights_and_masks(draw):
    kind = draw(st.sampled_from(["grid", "dyadic", "sparse", "any"]))
    if kind == "grid":
        weight = st.integers(0, GRID).map(lambda c: c / GRID)
    elif kind == "dyadic":
        weight = dyadic_weights(draw, st.integers(0, 2 ** 24), st.integers(0, 64))
    elif kind == "sparse":
        # big and tiny weights about 2^-53 apart with few numerator bits:
        # fewer planes than points, and sums that round past 2^53
        gap = draw(st.integers(48, 60))
        weight = dyadic_weights(draw, st.integers(0, 3), st.sampled_from([0, gap]))
    else:
        weight = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
    weights = draw(st.lists(weight, min_size=8 if kind == "sparse" else 1, max_size=80))
    full = (1 << len(weights)) - 1
    few = draw(st.sets(st.integers(0, len(weights) - 1), max_size=3))
    few_mask = sum(1 << u for u in few)
    points = draw(st.sampled_from([few_mask, full, full ^ few_mask,
                                   draw(st.integers(0, full))]))
    return weights, points


@settings(max_examples=500, deadline=None)
@given(weights_and_masks())
@example(([1.0] + [2.0 ** -53] * 4, 0b11111))
@example(([i / GRID for i in range(GRID + 1)], (1 << (GRID + 1)) - 1))
def test_weight_equals_the_sequential_sum(case):
    """Both sides of the per-call choice (bit planes for many points, the
    point loop for few) return the ascending-order float sum bit for bit.
    Weights that are not sum-exact, where partial sums would round, are
    refused, and only those: the first example's exact sum, 1 + 2^-51,
    differs from the sequential 1.0."""
    weights, points = case
    try:
        f = CoverageFunction(weights, [[[]]])
    except ValueError as err:
        assert "sum-exact" in str(err)
        assert not reference_is_sum_exact(weights, sum(map(Fraction, weights)))
        return
    assert f._weight(points).hex() == sequential_weight(weights, points).hex()


def test_weight_planes_exist_for_grid_weights():
    f = CoverageFunction([i / GRID for i in range(GRID + 1)], [[[]]])
    assert [b for b, _ in f._planes] == list(range(7)) and f._unit == 2.0 ** -6
    with pytest.raises(ValueError, match="sum-exact"):
        CoverageFunction([1.0] + [2.0 ** -53] * 4, [[[]]])


# the largest magnitude the rule accepts: 2^52 - 1 units of 2^971
LARGEST = 2.0 ** 1023 - 2.0 ** 971


class TestOverflow:
    """A magnitude whose double overflows a float is refused; each accepted
    case sits just inside the rule."""

    def test_modular(self):
        with pytest.raises(ValueError, match="overflows a float"):
            ModularFunction([[1.7e308], [1.7e308]])
        with pytest.raises(ValueError, match="overflows a float"):
            ModularFunction([[-2.0 ** 1021, 2.0 ** 1023]])
        with pytest.raises(ValueError, match="overflows a float"):
            ModularFunction([[-2.0 ** 1022], [-2.0 ** 1022]])
        f = ModularFunction([[2.0 ** 1021, -2.0 ** 1021], [2.0 ** 1021, 2.0 ** 1021]])
        assert f.evaluate(Assignment((1, 1), 2)) == 2.0 ** 1022
        assert ModularFunction([[LARGEST - 2.0 ** 1021], [2.0 ** 1021]]).n == 2

    def test_coverage(self):
        with pytest.raises(ValueError, match="overflows a float"):
            CoverageFunction([1.7e308, 1.7e308], [[[0]], [[1]]])
        # every weight counts, covered or not
        with pytest.raises(ValueError, match="overflows a float"):
            CoverageFunction([2.0 ** 1022, 2.0 ** 1022], [[[0]]])
        f = CoverageFunction([2.0 ** 1021, 2.0 ** 1021], [[[0], [0, 1]]])
        assert f.evaluate(Assignment((2,), 2)) == 2.0 ** 1022

    def test_explicit(self):
        with pytest.raises(ValueError, match="overflows a float"):
            ExplicitTableFunction(3, 1, [0.0] + [1.7e308] * 6 + [1.75e308])
        with pytest.raises(ValueError, match="overflows a float"):
            ExplicitTableFunction(1, 1, [0.0, -2.0 ** 1023])
        assert ExplicitTableFunction(1, 1, [0.0, -LARGEST]).values == (0.0, -LARGEST)


class TestExplicitTableFunction:
    def test_index_order(self):
        # index = sum labels[e] * (k+1)^e, element 0 is the fastest digit
        f = ExplicitTableFunction(2, 1, [0.0, 1.25, 2.5, 4.0])
        assert f.evaluate(Assignment((1, 0), 1)) == 1.25
        assert f.evaluate(Assignment((0, 1), 1)) == 2.5
        assert f.evaluate(Assignment((1, 1), 1)) == 4.0

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="expected"):
            ExplicitTableFunction(2, 2, [0.0] * 8)

    def test_rejects_nonzero_origin(self):
        with pytest.raises(ValueError, match="empty assignment"):
            ExplicitTableFunction(1, 1, [1.0, 2.0])

    def test_tabulate_agrees_everywhere(self):
        g = gen_modular(3, 2, monotone=False, seed=6)
        f = ExplicitTableFunction.tabulate(g)
        for a in enumerate_assignments(3, 2):
            assert f.evaluate(a) == g.evaluate(a)


class TestGenerators:
    @pytest.mark.parametrize("seed", range(8))
    def test_modular_verified_and_on_grid(self, seed):
        f = gen_modular(3, 2, monotone=False, seed=seed)
        assert verify_k_submodular(f).holds
        assert all(on_grid(v) for row in f.table for v in row)

    def test_monotone_flag(self):
        assert gen_modular(6, 3, monotone=True, seed=0).monotone

    def test_nonmonotone_produces_negative_entries(self):
        hits = sum(
            any(v < 0 for row in gen_modular(6, 2, monotone=False, seed=s).table
                for v in row)
            for s in range(10)
        )
        assert hits >= 1

    def test_value_range_respected(self):
        f = gen_modular(20, 2, value_range=(1.0, 2.0), seed=3)
        assert all(1.0 <= v <= 2.0 for row in f.table for v in row)

    def test_impossible_ranges(self):
        with pytest.raises(ValueError):
            gen_modular(2, 2, value_range=(-3.0, -1.0), monotone=True)
        with pytest.raises(ValueError):
            gen_modular(2, 2, value_range=(-3.0, -1.0), monotone=False)

    def test_k1_all_negative_is_fine(self):
        f = gen_modular(4, 1, value_range=(-3.0, -1.0), monotone=False, seed=0)
        assert all(v < 0 for row in f.table for v in row)
        assert verify_k_submodular(f).holds

    def test_coverage_density_extremes(self):
        empty = gen_coverage(3, 2, universe_size=5, density=0.0, seed=0)
        assert all(empty.evaluate(a) == 0.0 for a in enumerate_assignments(3, 2))
        full = gen_coverage(3, 2, universe_size=5, density=1.0, seed=0)
        total = sum(full.weights)
        assert full.evaluate(Assignment((1, 0, 0), 2)) == total

    def test_coverage_validation(self):
        with pytest.raises(ValueError):
            gen_coverage(3, 2, universe_size=5, density=1.5)
        with pytest.raises(ValueError):
            gen_coverage(3, 2, universe_size=0, density=0.5)

    def test_partition_matroids_cover_ground_set(self):
        m = gen_partition_matroid(9, seed=17)
        assert sorted(e for b in m.blocks for e in b) == list(range(9))
        assert check_matroid_axioms(m).holds

    def test_explicit_matroid_size_limit(self):
        with pytest.raises(ValueError):
            gen_explicit_matroid(11, seed=0)

    def test_generators_deterministic(self):
        assert gen_modular(5, 2, seed=9).table == gen_modular(5, 2, seed=9).table
        assert gen_explicit_matroid(5, seed=9) == gen_explicit_matroid(5, seed=9)


class TestInstanceSpec:
    def test_shape_mismatch_rejected(self):
        f = ModularFunction([[1.0]])
        with pytest.raises(ValueError, match="does not match"):
            InstanceSpec(n=2, k=1, function=f, matroid=UniformMatroid(2, 1))
        with pytest.raises(ValueError, match="ground set"):
            InstanceSpec(n=1, k=1, function=f, matroid=UniformMatroid(2, 1))


def random_spec(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    k = rng.randint(1, 3)
    family = rng.choice(["modular", "coverage", "explicit"])
    if family == "modular":
        f = gen_modular(n, k, monotone=rng.random() < 0.5, seed=seed)
    elif family == "coverage":
        f = gen_coverage(n, k, universe_size=rng.randint(1, 8),
                         density=rng.random(), seed=seed)
    else:
        f = ExplicitTableFunction.tabulate(gen_modular(n, k, seed=seed))
    kind = rng.choice(["uniform", "partition", "explicit"])
    if kind == "uniform":
        m = UniformMatroid(n, rng.randint(0, n))
    elif kind == "partition":
        m = gen_partition_matroid(n, seed=seed)
    else:
        m = gen_explicit_matroid(n, seed=seed)
    meta = {"seed": seed, "note": "round-trip probe"} if rng.random() < 0.5 else {}
    return InstanceSpec(n=n, k=k, function=f, matroid=m, metadata=meta)


class TestSerialization:
    @settings(max_examples=500, deadline=None)
    @given(st.integers(0, 10_000_000))
    def test_round_trip_identity(self, seed):
        spec = random_spec(seed)
        assert parse_instance(serialize_instance(spec)) == spec

    def test_document_layout(self):
        spec = InstanceSpec(
            n=2, k=2,
            function=ModularFunction([[5.0, -3.0], [2.0, 2.0]]),
            matroid=UniformMatroid(2, 1),
        )
        doc = json.loads(serialize_instance(spec))
        assert doc["n"] == 2 and doc["k"] == 2
        assert doc["function"]["modular"]["table"] == [[5.0, -3.0], [2.0, 2.0]]
        assert doc["matroid"]["uniform"] == 1
        assert "metadata" not in doc

    def test_partition_and_explicit_matroid_docs(self):
        spec = InstanceSpec(
            n=3, k=1,
            function=ModularFunction([[1.0], [2.0], [3.0]]),
            matroid=PartitionMatroid(3, blocks=[[0, 2], [1]], capacities=[1, 1]),
        )
        doc = json.loads(serialize_instance(spec))
        assert doc["matroid"]["partition"] == {"blocks": [[0, 2], [1]], "caps": [1, 1]}


class TestCoverageMasks:
    """A cover set is a list of points or a lowercase hex string of its
    point bitmask; ``serialize_instance`` writes the bitmask."""

    def test_serialize_writes_masks(self):
        f = CoverageFunction([1.0] * 6, [[[0, 2, 5], []], [[1], [5, 4]]])
        doc = json.loads(serialize_instance(InstanceSpec(2, 2, f, UniformMatroid(2, 1))))
        assert doc["function"]["coverage"]["sets"] == [["25", "0"], ["2", "30"]]

    @pytest.mark.parametrize("n, k, universe, density, seed", [
        (1, 1, 1, 1.0, 0), (4, 2, 8, 0.4, 9), (12, 3, 24, 0.3, 4), (30, 3, 64, 0.25, 2),
        (100, 3, 200, 0.25, 0), (5, 2, 300, 0.5, 1), (6, 2, 10, 0.0, 3),
    ])
    def test_list_and_mask_forms_parse_equal(self, n, k, universe, density, seed):
        f = gen_coverage(n, k, universe, density, seed=seed)
        from_lists = parse_instance(coverage_text(f, sorted)).function
        from_masks = parse_instance(coverage_text(f, hex_mask)).function
        assert from_lists == from_masks == f
        assert hash(from_lists) == hash(from_masks) == hash(f)
        assert from_lists._masks == from_masks._masks == f._masks
        assert from_lists.sets == from_masks.sets == f.sets

    def test_forms_mix_within_one_instance(self):
        f = CoverageFunction([0.5] * 6, [[[0, 2, 5], "25"], ["0", []], ["0003", [1, 0, 1]]])
        assert f.sets == ((frozenset({0, 2, 5}),) * 2, (frozenset(),) * 2,
                          (frozenset({0, 1}),) * 2)
        assert f._masks == ((0x25, 0x25), (0, 0), (3, 3))

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([1, 5, 64, 300]), st.integers(1, 5), st.integers(1, 3),
           st.sampled_from([0.0, 0.05, 0.3, 0.9, 1.0]), st.integers(0, 10_000))
    def test_round_trip(self, universe, n, k, density, seed):
        spec = InstanceSpec(n, k, gen_coverage(n, k, universe, density, seed=seed),
                            UniformMatroid(n, (n + 1) // 2))
        parsed = parse_instance(serialize_instance(spec))
        assert parsed == spec
        assert parsed.function.sets == spec.function.sets

    def test_universe_past_the_integer_digit_limit(self):
        """``int(s, 16)`` has no digit limit: 16 is a power of two."""
        universe = 20_000
        text = coverage_text(CoverageFunction([1.0] * universe, [[[universe - 1, 3]]]), hex_mask)
        assert len(json.loads(text)["function"]["coverage"]["sets"][0][0]) == universe // 4
        f = parse_instance(text).function
        assert f.sets == ((frozenset({3, universe - 1}),),)
        assert f.evaluate(Assignment((1,), 1)) == 2.0

    def test_readme_instances_parse(self):
        """The README's instance examples parse; in its coverage example the
        list and bitmask forms of one set give the same set."""
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        blocks = [b for b in re.findall(r"```json\n(.*?)```", readme, re.S) if '"function"' in b]
        specs = [parse_instance(b) for b in blocks]
        coverage = [s.function for s in specs if isinstance(s.function, CoverageFunction)]
        assert len(specs) >= 2 and len(coverage) == 1
        (first, _), (second, _) = coverage[0].sets
        assert first == second == frozenset({0, 2, 5})

    @pytest.mark.parametrize("cover_set, message", [
        ("0x1f", "sets[1][0]: '0x1f' is not a lowercase hex bitmask"),
        ("-1", "sets[1][0]: '-1' is not a lowercase hex bitmask"),
        ("1_0", "sets[1][0]: '1_0' is not a lowercase hex bitmask"),
        (" 1f", "sets[1][0]: ' 1f' is not a lowercase hex bitmask"),
        ("1F", "sets[1][0]: '1F' is not a lowercase hex bitmask"),
        ("", "sets[1][0]: '' is not a lowercase hex bitmask"),
        ("40", "sets[1][0]: universe point 6 outside 0..5"),
    ])
    def test_malformed_masks_refused(self, cover_set, message):
        with pytest.raises(ValueError) as info:
            CoverageFunction([1.0] * 6, [["1"], [cover_set]])
        assert str(info.value) == message

    @pytest.mark.parametrize("cover_set", [5, None, 2.5])
    def test_non_iterable_cover_set_refused(self, cover_set):
        """Used to leak ``'int' object is not iterable``."""
        with pytest.raises(TypeError, match=r"sets\[1\]\[0\]: .* is neither"):
            CoverageFunction([1.0] * 6, [["1"], [cover_set]])

    @pytest.mark.parametrize("sets, where", [
        ("1f", "sets must be a list"), (7, "sets must be a list"),
        ([["1"], "1f"], r"sets\[1\] must be a list"), ([["1"], None], r"sets\[1\] must be a list"),
    ])
    def test_string_or_non_iterable_rows_refused(self, sets, where):
        """A string row would otherwise read as one bitmask per character."""
        with pytest.raises(TypeError, match=where):
            CoverageFunction([1.0] * 6, sets)


class TestParseErrors:
    def err(self, text):
        with pytest.raises(InstanceFormatError) as info:
            parse_instance(text)
        return str(info.value)

    def test_malformed_json_positions(self):
        msg = self.err('{"n": 1,\n  "k": }')
        assert "line 2" in msg and "column" in msg

    def test_top_level_not_object(self):
        assert "expected an object" in self.err("[1, 2]")

    def test_missing_fields(self):
        assert "missing required field 'k'" in self.err('{"n": 1}')
        assert "'function'" in self.err('{"n": 1, "k": 1}')

    def test_bad_n_k_types(self):
        assert "nonnegative integer" in self.err(
            '{"n": -1, "k": 1, "function": {}, "matroid": {}}'
        )
        assert "positive integer" in self.err(
            '{"n": 1, "k": 0, "function": {}, "matroid": {}}'
        )

    def test_unknown_function_family(self):
        msg = self.err(
            '{"n": 1, "k": 1, "function": {"mystery": {}}, '
            '"matroid": {"uniform": 1}}'
        )
        assert "unknown family 'mystery'" in msg

    def test_function_shape_mismatch(self):
        msg = self.err(
            '{"n": 2, "k": 1, "function": {"modular": {"table": [[1.0]]}}, '
            '"matroid": {"uniform": 1}}'
        )
        assert "does not match" in msg

    def test_explicit_values_wrong_length(self):
        msg = self.err(
            '{"n": 1, "k": 1, "function": {"explicit": {"values": [0.0]}}, '
            '"matroid": {"uniform": 1}}'
        )
        assert "function.explicit" in msg

    def test_bad_matroid(self):
        msg = self.err(
            '{"n": 1, "k": 1, "function": {"modular": {"table": [[1.0]]}}, '
            '"matroid": {"mystery": 1}}'
        )
        assert "matroid" in msg

    def test_invalid_partition_blocks(self):
        msg = self.err(
            '{"n": 2, "k": 1, "function": {"modular": {"table": [[1.0], [1.0]]}}, '
            '"matroid": {"partition": {"blocks": [[0]], "caps": [1]}}}'
        )
        assert "matroid.partition" in msg

    def test_bool_n_k_rejected(self):
        """``true`` is an int in Python; it must not pass as n=1 or k=1."""
        table = '"function": {"modular": {"table": [[1.0]]}}, "matroid": {"uniform": 1}'
        assert "nonnegative integer, got True" in self.err('{"n": true, "k": 1, ' + table + "}")
        assert "positive integer, got True" in self.err('{"n": 1, "k": true, ' + table + "}")

    def test_non_integer_uniform_budget_rejected(self):
        """A budget of 1.9 was truncated to 1 and solved."""
        for budget in ("1.9", "2.0", "true", '"1"'):
            msg = self.err(
                '{"n": 2, "k": 1, "function": {"modular": {"table": [[1.0], [1.0]]}}, '
                '"matroid": {"uniform": ' + budget + "}}"
            )
            assert "matroid.uniform: budget must be an integer" in msg

    def test_non_integer_partition_caps_rejected(self):
        """Caps of 1.7 were truncated to 1."""
        msg = self.err(
            '{"n": 2, "k": 1, "function": {"modular": {"table": [[1.0], [1.0]]}}, '
            '"matroid": {"partition": {"blocks": [[0, 1]], "caps": [1.7]}}}'
        )
        assert "matroid.partition: caps must be integers" in msg

    @pytest.mark.parametrize("matroid, function, where", [
        ('{"partition": {"blocks": [[0, 1.0]], "caps": [1]}}', None,
         "matroid.partition: block elements"),
        ('{"explicit": [0, 1, 2.5]}', None, "matroid.explicit: bitmasks"),
        ('{"uniform": 1}', '{"coverage": {"weights": [1.0, 1.0], "sets": [[[0.5]], [[1]]]}}',
         "function.coverage: sets must list integer"),
    ])
    def test_other_non_integer_indices_rejected(self, matroid, function, where):
        function = function or '{"modular": {"table": [[1.0], [1.0]]}}'
        msg = self.err(f'{{"n": 2, "k": 1, "function": {function}, "matroid": {matroid}}}')
        assert where in msg

    def test_metadata_must_be_object(self):
        msg = self.err(
            '{"n": 1, "k": 1, "function": {"modular": {"table": [[1.0]]}}, '
            '"matroid": {"uniform": 1}, "metadata": [1]}'
        )
        assert "metadata" in msg

    def test_corrupted_table_still_parses(self):
        """Tables violating k-submodularity load fine; verification is separate."""
        spec = parse_instance(
            '{"n": 1, "k": 2, "function": {"explicit": {"values": [0.0, 1.0, -2.0]}}, '
            '"matroid": {"uniform": 1}}'
        )
        assert not verify_k_submodular(spec.function).holds


class TestParseNonNumbers:
    """Value lists take JSON numbers only: a string or ``true`` used to be
    converted by ``float``, so ``"table": "12"`` parsed as two rows."""

    def err(self, function):
        with pytest.raises(InstanceFormatError) as info:
            parse_instance(f'{{"n": 2, "k": 1, "function": {function}, '
                           '"matroid": {"uniform": 1}}')
        return str(info.value)

    @pytest.mark.parametrize("function, where", [
        ('{"modular": {"table": "12"}}', "function.modular: table entries"),
        ('{"modular": {"table": [["1"], [2.0]]}}', "function.modular: table entries"),
        ('{"modular": {"table": [[true], [2.0]]}}', "function.modular: table entries"),
        ('{"coverage": {"weights": [1.0, "2"], "sets": [[[0]], [[1]]]}}',
         "function.coverage: weights"),
        ('{"explicit": {"values": [0.0, "1", 2.0, 3.0]}}', "function.explicit: values"),
    ])
    def test_non_numbers_rejected(self, function, where):
        assert where in self.err(function)

    def test_integer_too_large_for_a_float_rejected(self):
        """``float(10**400)`` raised OverflowError past the format check."""
        assert "not finite" in self.err('{"modular": {"table": [[1.0], [' + "9" * 400 + "]]}}")

    def test_huge_n_with_explicit_table_rejected_at_once(self):
        """The length check used to build (k+1)^n first, which for this n
        does not finish."""
        with pytest.raises(InstanceFormatError, match="entries"):
            parse_instance('{"n": 1000000000000, "k": 2, '
                           '"function": {"explicit": {"values": [0.0, 1.0, 2.0]}}, '
                           '"matroid": {"uniform": 1}}')


@pytest.mark.parametrize("text", [
    '{"n": ' + "9" * 5000 + "}",  # past the interpreter's integer digit limit
    "[" * 100_000 + "]" * 100_000,  # past the recursion limit
])
def test_json_that_json_refuses_without_a_decode_error(text):
    """Both used to escape parse_instance as ValueError / RecursionError."""
    with pytest.raises(InstanceFormatError, match="unreadable JSON"):
        parse_instance(text)


FUNCTION_CHOICES = "function: expected exactly one of 'modular', 'coverage', 'explicit'"
MATROID_CHOICES = "matroid: expected exactly one of 'uniform', 'partition', 'explicit'"
# (part, document, full message, type of the constructor's error or None);
# a body that is not an object reaches the field lookup, which finds no field
ENVELOPE_REFUSALS = [
    ("function", [1], FUNCTION_CHOICES, None),
    ("function", {}, FUNCTION_CHOICES, None),
    ("function", {"modular": {"table": [[1.0]]}, "explicit": {"values": []}},
     FUNCTION_CHOICES, None),
    ("function", {"cubic": {}}, "function: unknown family 'cubic'", None),
    ("function", {"coverage": {"weights": [1.0]}},
     "function.coverage: missing required field 'sets'", None),
    ("function", {"modular": [1]}, "function.modular: expected an object, got list", None),
    ("function", {"modular": 5}, "function.modular: expected an object, got int", None),
    ("function", {"modular": "table"}, "function.modular: expected an object, got str", None),
    ("function", {"coverage": None}, "function.coverage: expected an object, got NoneType",
     None),
    ("function", {"explicit": "values"}, "function.explicit: expected an object, got str",
     None),
    ("function", {"modular": {"table": [[1.0, "x"], [1.0, 1.0]]}},
     "function.modular: table entries must be numbers; table row 0: 'x' is not a number",
     TypeError),
    ("function", {"explicit": {"values": [0.0]}},
     "function.explicit: value table has 1 entries, expected (k+1)^n for n=2, k=2",
     ValueError),
    ("matroid", None, MATROID_CHOICES, None),
    ("matroid", {}, MATROID_CHOICES, None),
    ("matroid", {"uniform": 1, "explicit": [0]}, MATROID_CHOICES, None),
    ("matroid", {"graphic": 1}, "matroid: unknown family 'graphic'", None),
    ("matroid", {"partition": {"blocks": [[0, 1]]}},
     "matroid.partition: missing required field 'caps'", None),
    ("matroid", {"partition": []}, "matroid.partition: expected an object, got list", None),
    ("matroid", {"partition": 3}, "matroid.partition: expected an object, got int", None),
    ("matroid", {"partition": "blocks"}, "matroid.partition: expected an object, got str",
     None),
    ("matroid", {"partition": None}, "matroid.partition: expected an object, got NoneType",
     None),
    ("matroid", {"uniform": 1.5}, "matroid.uniform: budget must be an integer, got 1.5",
     TypeError),
    ("matroid", {"partition": {"blocks": [[0]], "caps": [1]}},
     "matroid.partition: blocks do not cover the ground set; missing [1]", ValueError),
]


@pytest.mark.parametrize("part, body, message, cause", ENVELOPE_REFUSALS,
                         ids=[f"{part}={json.dumps(body)}" for part, body, *_ in ENVELOPE_REFUSALS])
def test_envelope_refusals_are_pinned(part, body, message, cause):
    """The function and matroid documents share one envelope: a one-key
    object whose key names a known family; a constructor's TypeError or
    ValueError is reported under ``<part>.<tag>:`` and chained as the cause."""
    doc = {"n": 2, "k": 2, "function": {"modular": {"table": [[1.0, 1.0], [1.0, 1.0]]}},
           "matroid": {"uniform": 1}, part: body}
    with pytest.raises(InstanceFormatError) as info:
        parse_instance(json.dumps(doc))
    assert str(info.value) == message
    if cause is None:
        assert info.value.__cause__ is None
    else:
        assert type(info.value.__cause__) is cause


# Strict JSON values (no NaN or infinities), with the awkward scalars a
# hand-edited file may hold.
json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=4),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0, -1, 1.5, 10**400, 2**64, "", "1"]),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner,
                                                                max_size=3),
    max_leaves=10,
)
@st.composite
def drawn_specs(draw):
    """Valid instances with values drawn from one window of 30 binades
    anywhere in the float range, not only on the 1/64 grid."""
    n, k = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    family = draw(st.sampled_from(["modular", "coverage", "explicit"]))
    value = dyadics(draw(st.integers(-1074, 900)))
    if family == "modular":
        table = []
        for _ in range(n):
            row = draw(st.lists(value, min_size=k, max_size=k))
            if k >= 2 and draw(st.booleans()):
                # one negative entry no larger than the rest keeps every
                # pairwise sum nonnegative
                row[0] = -draw(st.sampled_from([0.0, min(row[1:])]))
            table.append(row)
        f = ModularFunction(table)
    elif family == "coverage":
        universe = draw(st.integers(1, 5))
        weights = draw(st.lists(value, min_size=universe, max_size=universe))
        members = st.lists(st.integers(0, universe - 1), max_size=universe)
        sets = draw(st.lists(st.lists(members, min_size=k, max_size=k), min_size=n, max_size=n))
        f = CoverageFunction(weights, sets)
    else:
        n = min(n, 3)
        size = (k + 1) ** n
        signed = st.builds(lambda v, negative: -v if negative else v, value, st.booleans())
        f = ExplicitTableFunction(n, k, [0.0] + draw(st.lists(signed, min_size=size - 1,
                                                              max_size=size - 1)))
    kind = draw(st.sampled_from(["uniform", "partition", "explicit"]))
    if kind == "uniform":
        m = UniformMatroid(n, draw(st.integers(0, 10**30)))
    elif kind == "partition":
        block = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        used = sorted(set(block))
        m = PartitionMatroid(n, [[e for e in range(n) if block[e] == j] for j in used],
                             draw(st.lists(st.integers(0, 10**30), min_size=len(used),
                                           max_size=len(used))))
    else:
        m = gen_explicit_matroid(n, seed=draw(st.integers(0, 1000)))
    meta = draw(st.dictionaries(st.text(max_size=5), json_values, max_size=3))
    return InstanceSpec(n=n, k=k, function=f, matroid=m, metadata=meta)


@settings(max_examples=300, deadline=None)
@given(drawn_specs())
def test_drawn_instances_round_trip(spec):
    assert parse_instance(serialize_instance(spec)) == spec


@settings(max_examples=300, deadline=None)
@given(drawn_specs())
def test_drawn_instances_serialize_to_one_line(spec):
    """Files are the C encoder's compact form: one line, then a newline."""
    text = serialize_instance(spec)
    assert text == json.dumps(json.loads(text)) + "\n"


@st.composite
def mutated_documents(draw):
    """A valid instance document with one to three subtrees replaced by
    arbitrary JSON or removed, so the parser is reached at every depth."""
    doc = json.loads(serialize_instance(draw(drawn_specs())))
    for _ in range(draw(st.integers(1, 3))):
        node = doc
        while True:
            key = draw(st.sampled_from(list(node) if isinstance(node, dict)
                                       else range(len(node))))
            child = node[key]
            if isinstance(child, (dict, list)) and child and draw(st.booleans()):
                node = child
                continue
            if isinstance(node, dict) and len(node) > 1 and draw(st.booleans()):
                del node[key]
            else:
                node[key] = draw(json_values)
            break
    return doc


HAND_DOC = {"n": 2, "k": 1, "function": {"modular": {"table": [[1.0], [2.0]]}},
            "matroid": {"uniform": 1}}


@settings(max_examples=500, deadline=None)
@given(st.one_of(json_values.map(json.dumps), mutated_documents().map(json.dumps),
                 st.text(max_size=20)))
@example(json.dumps(dict(HAND_DOC, function={"modular": {"table": [[1.0], [10**400]]}})))
@example(json.dumps(dict(HAND_DOC, n=10**12, k=2,
                         function={"explicit": {"values": [0.0, 1.0, 2.0]}})))
def test_parse_returns_a_valid_instance_or_a_format_error(text):
    """Nothing but InstanceFormatError escapes, and whatever parses can be
    written back and read again unchanged."""
    try:
        spec = parse_instance(text)
    except InstanceFormatError:
        return
    assert isinstance(spec, InstanceSpec)
    assert parse_instance(serialize_instance(spec)) == spec
