"""The one assignment code, ``sum(labels[e] * (k+1)**e)``, and the value list
indexed by it.

``ksubmax.core`` states the code once: ``_code_steps`` gives the steps,
``_child_codes`` steps a support's labelling codes to a child's and
``_decode`` is the inverse, and ``KSubFunction._code_values`` lists
``_value`` at every code.  ``helpers.support_codes`` lists a support's
codes from the empty prefix.
Explicit table files, ``tabulate``, brute force and the exhaustive
verifiers all index values through these.  The code is written out here a
second time, by Horner's rule, so that a caller stepping the other way
(``(k+1)**(n-1-e)``) fails these tests.  Values are compared by type and
``float.hex``, so ``-0.0`` and ``0.0`` count as different.
"""

import itertools
import json

import pytest

from helpers import (CountingWrapper, reference_brute_force_solve, reference_verify_k_submodular,
                     reference_verify_monotone, reference_verify_orthant_pairwise,
                     step_fold, support_codes)
from ksubmax import (Assignment, ExplicitTableFunction, KSubFunction, UniformMatroid,
                     brute_force_solve, enumerate_assignments, gen_coverage, gen_modular,
                     parse_instance, verify_k_submodular, verify_monotone,
                     verify_orthant_pairwise)
from ksubmax.core import _code_steps, _decode
from ksubmax.verify import Verdict

SHAPES = [(n, k) for n in range(5) for k in (1, 2, 3)]


def code(labels, k):
    """The file-format index of ``labels``: element 0 is the lowest digit."""
    c = 0
    for lab in reversed(labels):
        c = c * (k + 1) + lab
    return c


def bits(v):
    return type(v), v.hex() if type(v) is float else v


class LabelCode(KSubFunction):
    """A user function returning ints: the Horner code of its argument,
    so every assignment has its own value.  It keeps the default
    ``_support_step``, which calls ``_value`` in product order."""

    def _value(self, a: Assignment) -> int:
        return code(a.labels, self.k)


def asymmetric_table(n, k):
    """An explicit table with a distinct value at every code, ``-0.0`` at the
    empty assignment, and values not symmetric under reversing the labels."""
    values = [(-1) ** c * c / 8 for c in range((k + 1) ** n)]
    values[0] = -0.0
    return ExplicitTableFunction(n, k, values)


def functions(n, k):
    """Every kind of function the value list must serve at this shape."""
    fs = [asymmetric_table(n, k), LabelCode(n, k), CountingWrapper(LabelCode(n, k))]
    if n >= 1:
        fs += [gen_modular(n, k, seed=n + k),
               gen_modular(n, k, value_range=(-3.0, 2.0), monotone=False, seed=n + k),
               gen_coverage(n, k, 2 * n, 0.5, seed=n + k),
               CountingWrapper(gen_coverage(n, k, 2 * n, 0.5, seed=n))]
    return fs


@pytest.mark.parametrize("n, k", SHAPES)
def test_decode_inverts_the_code(n, k):
    steps = _code_steps(n, k)
    codes = []
    for labels in itertools.product(range(k + 1), repeat=n):
        c = sum(lab * step for lab, step in zip(labels, steps))
        assert c == code(labels, k)
        assert _decode(c, n, k) == Assignment(labels, k)
        codes.append(c)
    assert sorted(codes) == list(range((k + 1) ** n))


@pytest.mark.parametrize("n, k", SHAPES)
def test_code_values_list_value_at_every_code(n, k):
    for f in functions(n, k):
        values = f._code_values()
        assert len(values) == (k + 1) ** n
        for a in enumerate_assignments(n, k):
            assert bits(values[code(a.labels, k)]) == bits(f._value(a)), (f, a)


@pytest.mark.parametrize("n, k", SHAPES)
def test_support_codes_decode_to_the_labellings_priced(n, k):
    for f in functions(n, k):
        for size in range(n + 1):
            for support in itertools.combinations(range(n), size):
                codes = support_codes(support, k)
                values = step_fold(f, support)
                labellings = list(itertools.product(range(1, k + 1), repeat=size))
                assert len(codes) == len(values) == len(labellings)
                for c, v, positions in zip(codes, values, labellings):
                    a = _decode(c, n, k)
                    assert [a.labels[e] for e in support] == list(positions)
                    assert a.support() == set(support)
                    assert bits(v) == bits(f._value(a)), (f, support)


@pytest.mark.parametrize("n, k", SHAPES)
def test_the_file_format_index_is_the_code(n, k):
    doc = {"n": n, "k": k, "function": {"explicit": {"values": list(range((k + 1) ** n))}},
           "matroid": {"uniform": n}}
    f = parse_instance(json.dumps(doc)).function
    for a in enumerate_assignments(n, k):
        assert f.evaluate(a) == code(a.labels, k)
    g = ExplicitTableFunction.tabulate(LabelCode(n, k))
    assert list(g.values) == list(range((k + 1) ** n))


@pytest.mark.parametrize("n, k", SHAPES)
def test_exhaustive_verifiers_make_no_evaluate_call_on_a_table(n, k, monkeypatch):
    calls = []
    evaluate = KSubFunction.evaluate

    def counted(self, a, counters=None):
        calls.append(a)
        return evaluate(self, a, counters)

    monkeypatch.setattr(KSubFunction, "evaluate", counted)
    f = asymmetric_table(n, k)
    for verify in (verify_k_submodular, verify_orthant_pairwise, verify_monotone):
        assert verify(f).exhaustive
    assert calls == []


def corrupted(n, k, seed):
    """A tabulated non-monotone modular function with one entry raised, so the
    first violations and their witnesses depend on the digit order."""
    values = list(ExplicitTableFunction.tabulate(
        gen_modular(n, k, value_range=(-3.0, 2.0), monotone=False, seed=seed)).values)
    if n >= 2:
        values[1 + (k + 1)] += 8.0  # labels (1, 1, 0, ...)
    return ExplicitTableFunction(n, k, values)


@pytest.mark.parametrize("n, k", [(n, k) for n, k in SHAPES if n >= 1])
@pytest.mark.parametrize("seed", range(3))
def test_callers_of_the_code_agree_with_references(n, k, seed):
    """Verdicts, witnesses, checked counts and brute-force optima on
    asymmetric tables match the references, which key values by labels."""
    tables = [asymmetric_table(n, k), corrupted(n, k, seed),
              ExplicitTableFunction.tabulate(gen_modular(n, k, seed=seed))]
    for f in tables:
        for verify, reference in ((verify_k_submodular, reference_verify_k_submodular),
                                  (verify_orthant_pairwise, reference_verify_orthant_pairwise),
                                  (verify_monotone, reference_verify_monotone)):
            assert verify(f) == reference(f)
        for budget in range(n + 1):
            got = brute_force_solve(f, UniformMatroid(n, budget))
            want = reference_brute_force_solve(f, UniformMatroid(n, budget))
            assert (got.assignment, repr(got.value), got.max_opt_support_size) == (
                want.assignment, repr(want.value), want.max_opt_support_size)


def test_a_corrupted_table_reports_witnesses_in_file_order():
    """The corrupted table of the CI entry-point step: on ``n = 2``, ``k = 2``
    file index 1 is labels ``(1, 0)`` and index 3 is ``(0, 1)``, so every
    witness below would mirror under the other digit order."""
    f = ExplicitTableFunction(2, 2, [0, 5, 1, 1, 6, 2, 2, 3, 3])
    a = lambda *labels: Assignment(labels, 2)  # noqa: E731
    assert (f.evaluate(a(1, 0)), f.evaluate(a(0, 1))) == (5, 1)
    assert verify_k_submodular(f) == Verdict(False, (a(0, 1), a(1, 2)), True, 14)
    assert verify_orthant_pairwise(f) == Verdict(False, ("pairwise", a(1, 0), 1, 1, 2), True, 25)
    assert verify_monotone(f) == Verdict(False, (a(1, 0), a(1, 2)), True, 13)
    best = brute_force_solve(f, UniformMatroid(2, 1))
    assert (best.assignment, best.value) == (a(1, 0), 5.0)
