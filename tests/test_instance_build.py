"""The instance builders against the loops they replaced.

``ExplicitTableFunction.tabulate`` fills its table by walking supports
depth first, one ``_support_step`` per support;
``tests/helpers.reference_tabulate`` calls ``f.evaluate`` once per
assignment.  Tables are compared entry by entry
with ``float.hex``, so ``-0.0`` and ``0.0`` count as different.

``gen_modular`` checks its value range once per call, tests a row's
pairwise sums only where they can be negative and takes its grid integers
from one ``uniform_draws`` stream; ``tests/helpers.reference_gen_modular``
checks and tests every row and calls ``randint`` per entry.
``gen_partition_matroid`` takes its block draws from the same kind of
stream, ``tests/helpers.reference_gen_partition_matroid`` from
``randrange``.  ``gen_coverage`` draws each element's memberships in bulk,
through ``core._bernoulli_flags``; ``tests/helpers.reference_gen_coverage``
makes one ``random()`` call per membership.  The random stream must not
move: the same seed gives the same instance, and the same refused input
the same error.
"""

import hashlib
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from ksubmax import (CoverageFunction, ExplicitTableFunction, InstanceSpec, KSubFunction,
                     ModularFunction, UniformMatroid, gen_coverage, gen_modular,
                     gen_partition_matroid, serialize_instance)
from ksubmax.core import _bernoulli_flags
from ksubmax.instances import VALUE_GRID

from helpers import (CountingWrapper, dyadics, reference_gen_coverage, reference_gen_modular,
                     reference_gen_partition_matroid, reference_tabulate)


def hexes(f: ExplicitTableFunction) -> list[str]:
    return [v.hex() for v in f.values]


def assert_same_table(f: KSubFunction) -> None:
    assert hexes(ExplicitTableFunction.tabulate(f)) == hexes(reference_tabulate(f))


class SquareOfSum(KSubFunction):
    """Not modular, off the 1/64 grid, ``-0.0`` at the empty assignment; it
    keeps the default ``_support_step``, which calls ``_value``."""

    def _value(self, a):
        total = sum(lab * (e + 1) for e, lab in enumerate(a.labels))
        return math.ldexp(total * total, -(total % 11)) if total else -0.0


def grid_function(family: str, n: int, k: int, seed: int) -> KSubFunction:
    if family == "modular":
        return gen_modular(n, k, seed=seed)
    if family == "modular-nonmonotone":
        return gen_modular(n, k, value_range=(-3.0, 2.0), monotone=False, seed=seed)
    if family == "coverage-planes":
        f = gen_coverage(n, k, 3 * n, 0.5, seed=seed)
        assert len(f._planes) <= 7
        return f
    if family == "coverage-wide":
        # weights over 40 binades, with a plane at each end
        g = gen_coverage(n, k, 3 * n, 0.5, seed=seed)
        f = CoverageFunction([w * 2.0 ** 30 + 2.0 ** -10 for w in g.weights], g.sets)
        assert f._planes[0][0] == 0 and f._planes[-1][0] >= 34
        return f
    if family == "explicit":
        values = [(-1) ** i * i * 2.0 ** -(i % 40) for i in range((k + 1) ** n)]
        values[0] = -0.0
        values[-1] = -0.0
        return ExplicitTableFunction(n, k, values)
    if family == "default-path":
        return SquareOfSum(n, k)
    return CountingWrapper(gen_modular(n, k, monotone=False, seed=seed))


FAMILIES = ("modular", "modular-nonmonotone", "coverage-planes", "coverage-wide",
            "explicit", "default-path", "wrapped")


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_tabulate_matches_reference_on_grid(family, k):
    for n in range(1, 7):
        assert_same_table(grid_function(family, n, k, seed=10 * n + k))


@st.composite
def drawn_functions(draw):
    """Functions of every family with values drawn from one window of 30
    binades anywhere in the float range, n <= 6, k <= 3."""
    n, k = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    family = draw(st.sampled_from(["modular", "coverage", "explicit"]))
    value = dyadics(draw(st.integers(-1074, 900)))
    if family == "modular":
        table = []
        for _ in range(n):
            row = draw(st.lists(value, min_size=k, max_size=k))
            if k >= 2 and draw(st.booleans()):
                row[0] = -draw(st.sampled_from([0.0, min(row[1:])]))
            table.append(row)
        f = ModularFunction(table)
    elif family == "coverage":
        universe = draw(st.integers(1, 8))
        weights = draw(st.lists(value, min_size=universe, max_size=universe))
        members = st.lists(st.integers(0, universe - 1), max_size=universe)
        sets = draw(st.lists(st.lists(members, min_size=k, max_size=k),
                             min_size=n, max_size=n))
        f = CoverageFunction(weights, sets)
    else:
        size = (k + 1) ** n
        signed = st.builds(lambda v, negative: -v if negative else v, value, st.booleans())
        f = ExplicitTableFunction(n, k, [draw(st.sampled_from([0.0, -0.0]))]
                                  + draw(st.lists(signed, min_size=size - 1,
                                                  max_size=size - 1)))
    return CountingWrapper(f) if draw(st.booleans()) else f


@settings(max_examples=200, deadline=None)
@given(drawn_functions())
def test_tabulate_matches_reference_property(f):
    assert_same_table(f)


def outcome(build):
    """The table a generator call builds, or the type and text of its error."""
    try:
        f = build()
    except (TypeError, ValueError) as err:
        return type(err), str(err)
    return f.table if isinstance(f, ModularFunction) else (f.weights, f._masks)


RANGES = [(-2.0, 4.0), (-4.0, 1.0), (-0.5, 2.0), (0.5, 0.75), (-1 / 64, 1 / 64),
          (-3.3, 2.71)]


@pytest.mark.parametrize("monotone", [True, False])
@pytest.mark.parametrize("value_range", RANGES)
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_gen_modular_stream_is_pinned(k, value_range, monotone):
    for n in (1, 2, 9):
        for seed in range(6):
            args = (n, k, value_range, monotone, seed)
            got = outcome(lambda: gen_modular(*args))
            assert got == outcome(lambda: reference_gen_modular(*args))
            assert not isinstance(got[0], type)


@pytest.mark.parametrize("args", [
    (3, 2, (-3.0, -1.0), True, 0),  # impossible for a monotone function
    (3, 2, (-3.0, -1.0), False, 0),  # all-negative pairwise sums
    (3, 2, (-1e308, 1e308), False, 0),  # too wide for the grid
    (3, 2, (0.001, 0.01), True, 0),  # no grid point in the range
    (3, 3, (-1e6, 1 / 64), False, 0),  # rejection loop exhausted
    (3, 2, (-1e308, 1e308), False, -1),  # seed refused first
    (3, 2, (0.001, 0.01), True, True),
    (0, 2, (-2.0, 4.0), True, 0),
])
def test_gen_modular_refuses_as_reference(args):
    got = outcome(lambda: gen_modular(*args))
    assert isinstance(got[0], type)
    assert got == outcome(lambda: reference_gen_modular(*args))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n, k, universe, density", [(1, 1, 1, 0.5), (5, 3, 9, 0.3),
                                                     (8, 2, 16, 0.0)])
def test_gen_coverage_stream_is_pinned(n, k, universe, density, seed):
    assert (outcome(lambda: gen_coverage(n, k, universe, density, seed))
            == outcome(lambda: reference_gen_coverage(n, k, universe, density, seed)))


# int 0 and 1, the densities one step inside either end, values with
# fractional p * 2^53, and j/256, whose bound has a top byte of j and
# nothing below it, so every tie settles out
DENSITIES = [0, 1, 0.0, 1.0, 1 - 2 ** -53, 5e-324, 0.4, 1 / 3, 0.123, 0.25, 0.5, 0.99]
TIED_DENSITIES = [j / 256 for j in range(257)]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6), st.integers(1, 3), st.integers(1, 70),
       st.one_of(st.sampled_from(DENSITIES), st.sampled_from(TIED_DENSITIES),
                 st.floats(0.0, 1.0)),
       st.integers(0, 2 ** 64))
def test_gen_coverage_draws_as_its_per_draw_reference(n, k, universe, density, seed):
    assert (outcome(lambda: gen_coverage(n, k, universe, density, seed))
            == outcome(lambda: reference_gen_coverage(n, k, universe, density, seed)))


@pytest.mark.parametrize("p", DENSITIES + TIED_DENSITIES[::15])
def test_bulk_flags_are_the_random_calls(p):
    """The contract of ``_bernoulli_flags``: the flags of ``random() < p``,
    with the generator left as those calls leave it."""
    for seed in range(3):
        ours, theirs = random.Random(seed), random.Random(seed)
        for count in (1, 5, 2000):
            assert _bernoulli_flags(ours, p, count) == bytes(
                theirs.random() < p for _ in range(count))
            assert ours.getstate() == theirs.getstate()


def test_bulk_flags_at_a_drawn_value():
    """Densities at a draw and one step either side of it: the top bytes
    tie, so only the full comparison settles them.  Below 0.5 the step up
    makes ``p * 2^53`` fractional, where only its ceiling keeps the draw."""
    fractional = 0
    for seed in range(200):
        x = random.Random(seed).random()
        for p in (math.nextafter(x, 0.0), x, math.nextafter(x, 1.0)):
            assert _bernoulli_flags(random.Random(seed), p, 1) == bytes([x < p])
            fractional += not (p * 2.0 ** 53).is_integer()
    assert fractional >= 50


# SHA-256 of serialize_instance, captured when every membership was its
# own random() call
SERIALIZED = [
    ((100, 3, 200, 0.25, 0), "eae6328bf19ac23941f07ebb38ee3b637f0e831bbd7304fb4d8692b84d2075f6"),
    ((6, 2, 12, 0.25, 1), "f0d777ab485bc59b7704066cda1bcdaf3b5876fc55d83d04071ad97af44735d5"),
    ((5, 3, 9, 0.4, 2), "21b05d224294152fbd88a2dde181e8ed412cf4c49c0beecf67984625819c8bba"),
    ((7, 1, 13, 1 / 3, 3), "bf46cffae83c427a20eac6561a956ea67b76649f3aaa59cbda37e191927456c0"),
    ((3, 2, 5, 1, 4), "80d8549d03385d5398b67ec919e2fc0fe5a11f022f5f15c687cbbe89881c2115"),
    ((4, 3, 21, 0.5, 5), "ef773c6d19ed4c549481402f81e71207fb208aaefae3fe4371edd500b038ba6b"),
]


@pytest.mark.parametrize("args, digest", SERIALIZED)
def test_gen_coverage_serializes_as_before(args, digest):
    n = args[0]
    spec = InstanceSpec(n, args[1], gen_coverage(*args), UniformMatroid(n, max(1, n // 4)))
    assert hashlib.sha256(serialize_instance(spec).encode()).hexdigest() == digest


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12), st.integers(1, 4), st.integers(-300, 300),
       st.one_of(st.integers(0, 400), st.integers(0, 2 ** 40)), st.booleans(),
       st.integers(0, 2 ** 64), st.integers(1, 6))
def test_generators_draw_as_their_randint_references(n, k, lo64, width, monotone, seed,
                                                     max_blocks):
    """Grid ranges of every width from one point up, monotone or not; a
    non-monotone range with negative entries rejects rows."""
    args = (n, k, (lo64 / VALUE_GRID, (lo64 + width) / VALUE_GRID), monotone, seed)
    assert outcome(lambda: gen_modular(*args)) == outcome(lambda: reference_gen_modular(*args))
    m = gen_partition_matroid(n, seed, max_blocks)
    ref = reference_gen_partition_matroid(n, seed, max_blocks)
    assert (m.blocks, m.capacities) == (ref.blocks, ref.capacities)


def test_a_rejected_row_is_redrawn_from_the_stream():
    rng = random.Random(0)
    first = [rng.randint(-256, 64) / VALUE_GRID for _ in range(3)]
    assert sorted(first)[0] + sorted(first)[1] < 0  # seed 0's first row is rejected
    args = (4, 3, (-4.0, 1.0), False, 0)
    assert gen_modular(*args).table[0] != tuple(first)
    assert outcome(lambda: gen_modular(*args)) == outcome(lambda: reference_gen_modular(*args))
