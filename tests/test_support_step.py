"""Each family's support step against the from-scratch passes it replaced.

Brute force walks supports depth first and builds each child's block
from its parent's with one ``_support_step``; the ``_code_values`` fill
steps every labelling of the elements before ``e`` with one
``_support_step`` per element ``e``; ``helpers.step_fold`` folds that
step from the empty support.  The gate
requires, bit for bit (``-0.0`` and ``0.0`` count as different):

- the fold equals ``_value`` at every labelling, and
  ``helpers.reference_support_values``, which builds every labelling from
  the empty prefix, for modular tables, coverage with ``helpers.dyadics``
  weights and with weights on the 1/64 grid, explicit tables and a user
  subclass on the default step;
- ``_code_values`` equals ``helpers.reference_code_values``, the fill that
  made one from-scratch pass per support, for every family, the user
  subclasses on the default step (``CountingWrapper`` and
  ``SquareRootCoverage``, which define only ``_value``) included;
- brute force equals ``helpers.reference_brute_force_solve``,
  ``max_opt_support_size`` included, under a user-defined independence
  family that is not a matroid too.

A coverage step that weighs a child's whole cover mask, the points its
parent already covers included, fails the first check.
"""

import pytest
from hypothesis import given, settings, strategies as st

from ksubmax import CoverageFunction, gen_coverage

from helpers import reference_code_values, reference_support_values, step_fold
from test_brute_force import (SquareRootCoverage, _all_supports, _bits, _matroid,
                              assert_same_optimum, assert_support_values_exact)
from test_instance_build import drawn_functions


@st.composite
def grid_coverage(draw):
    """Coverage on the 1/64 grid with sets wider than its few weight planes,
    so the plane count weighs most sets."""
    n, k = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    return gen_coverage(n, k, 3 * n, 0.5, seed=draw(st.integers(0, 10_000)))


def functions():
    """Every family the walkers step: dyadic modular, coverage and explicit
    functions (some wrapped in a user subclass), grid coverage, and the
    square root of a coverage value on the default step."""
    return st.one_of(drawn_functions(), grid_coverage(), grid_coverage().map(SquareRootCoverage))


def assert_fold_exact(f):
    assert_support_values_exact(f)
    for support in _all_supports(f.n):
        assert (list(map(_bits, step_fold(f, support)))
                == list(map(_bits, reference_support_values(f, support))))


@settings(max_examples=300, deadline=None)
@given(functions())
def test_step_fold_equals_value_and_the_from_scratch_pass(f):
    assert_fold_exact(f)


@settings(max_examples=200, deadline=None)
@given(functions())
def test_code_values_equal_the_per_support_fill(f):
    assert list(map(_bits, f._code_values())) == list(map(_bits, reference_code_values(f)))


@st.composite
def instances(draw):
    f = draw(functions())
    return f, _matroid(draw, f.n, draw(st.integers(0, 10_000)))


@settings(max_examples=200, deadline=None)
@given(instances())
def test_brute_force_equals_the_label_walk(instance):
    assert_same_optimum(*instance)


class WholeMaskCoverage(CoverageFunction):
    """A wrong step: a child adds the weight of e's whole cover mask, so a
    point its parent already covers is counted twice."""

    def _support_step(self, block, e):
        covered, values = block
        row, weight = self._masks[e], self._weight
        return ([c | mask for c in covered for mask in row],
                [v + weight(mask) for v in values for mask in row])


def test_a_step_that_weighs_covered_points_again_fails():
    f = WholeMaskCoverage([1.0, 2.0], [[[0], [1]], [[0, 1], [1]]])
    with pytest.raises(AssertionError):
        assert_fold_exact(f)
    # labellings (1, 1), (2, 1) and (2, 2) cover a point twice; (1, 2) does not
    assert step_fold(f, (0, 1)) == [4.0, 3.0, 5.0, 4.0]
    assert reference_support_values(f, (0, 1)) == [3.0, 3.0, 3.0, 2.0]
