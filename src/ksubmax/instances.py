"""Verified instance families, random generators, and the instance file format.

Two function families are shipped.  Modular functions sum one table entry
per placed element; constraining every row's pairwise entry sums to be
nonnegative makes them k-submodular by construction (marginals are
constant, and the pairwise-sum constraint is exactly pairwise
monotonicity), while still permitting genuinely non-monotone instances.
Weighted coverage functions are monotone and k-submodular; each (element,
position) pair covers a subset of a weighted universe.

Generators draw every value as a multiple of 1/64 so all test arithmetic
is exact in double precision.  Instance files are JSON documents; see
``parse_instance`` for the grammar.
"""

from __future__ import annotations

import json
import math
import operator
import random
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .core import Assignment, GainState, KSubFunction, OracleCounters, enumerate_assignments
from .matroids import ExplicitMatroid, Matroid, PartitionMatroid, UniformMatroid

VALUE_GRID = 64  # generated values are integers divided by this


class InstanceFormatError(ValueError):
    """Malformed or inconsistent instance/config document."""


def _check_finite(value: float, where: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{where}: value {value} is not finite")
    return value


class ModularFunction(KSubFunction):
    """f(p) = sum over placed elements e of table[e][p(e) - 1].

    Every row must satisfy table[e][i] + table[e][j] >= 0 for i != j; this
    is checked at construction and guarantees k-submodularity.  The
    function is monotone iff every entry is nonnegative.
    """

    def __init__(self, table: Sequence[Sequence[float]]):
        rows = tuple(tuple(_check_finite(v, f"table row {e}") for v in row)
                     for e, row in enumerate(table))
        if not rows:
            raise ValueError("table must have at least one row")
        k = len(rows[0])
        if k < 1:
            raise ValueError("table rows must have at least one entry")
        for e, row in enumerate(rows):
            if len(row) != k:
                raise ValueError(f"table row {e} has {len(row)} entries, expected {k}")
            if k >= 2:
                ordered = sorted(row)
                if ordered[0] + ordered[1] < 0:
                    raise ValueError(
                        f"table row {e} violates the pairwise-sum constraint: "
                        f"{ordered[0]} + {ordered[1]} < 0"
                    )
        super().__init__(len(rows), k)
        self.table = rows

    @property
    def monotone(self) -> bool:
        return all(v >= 0 for row in self.table for v in row)

    def _value(self, a: Assignment) -> float:
        total = 0.0
        for e, lab in enumerate(a.labels):
            if lab:
                total += self.table[e][lab - 1]
        return total

    def gain_state(self, counters: Optional[OracleCounters] = None) -> GainState:
        return _ModularGainState(self, counters)

    def __eq__(self, other):
        return (
            isinstance(other, ModularFunction)
            and self.table == other.table
        )

    def __hash__(self):
        return hash(("modular", self.table))

    def __repr__(self):
        return f"ModularFunction(n={self.n}, k={self.k})"


class CoverageFunction(KSubFunction):
    """Weighted coverage: each (element, position) pair covers universe points.

    f(p) is the total weight of universe points covered by at least one
    placed element at its assigned position.  Monotone and k-submodular.
    """

    def __init__(
        self,
        weights: Sequence[float],
        sets: Sequence[Sequence[Iterable[int]]],
    ):
        self.weights = tuple(_check_finite(w, f"weights[{u}]") for u, w in enumerate(weights))
        if any(w < 0 for w in self.weights):
            raise ValueError("universe weights must be nonnegative")
        universe = len(self.weights)
        norm = []
        for e, per_position in enumerate(sets):
            row = []
            for i, members in enumerate(per_position):
                fs = frozenset(int(u) for u in members)
                for u in fs:
                    if not 0 <= u < universe:
                        raise ValueError(
                            f"sets[{e}][{i}]: universe point {u} outside "
                            f"0..{universe - 1}"
                        )
                row.append(fs)
            norm.append(tuple(row))
        self.sets = tuple(norm)
        if not self.sets:
            raise ValueError("sets must cover at least one element")
        k = len(self.sets[0])
        if k < 1 or any(len(row) != k for row in self.sets):
            raise ValueError("every element needs one cover set per position")
        super().__init__(len(self.sets), k)
        self._masks = tuple(
            tuple(sum(1 << u for u in fs) for fs in row) for row in self.sets
        )

    @property
    def universe_size(self) -> int:
        return len(self.weights)

    def _value(self, a: Assignment) -> float:
        covered = 0
        for e, lab in enumerate(a.labels):
            if lab:
                covered |= self._masks[e][lab - 1]
        return self._weight(covered)

    def _weight(self, points: int) -> float:
        """Total weight of the universe points in bitmask ``points``."""
        weights = self.weights
        total = 0.0
        while points:
            low = points & -points
            total += weights[low.bit_length() - 1]
            points ^= low
        return total

    def gain_state(self, counters: Optional[OracleCounters] = None) -> GainState:
        return _CoverageGainState(self, counters)

    def __eq__(self, other):
        return (
            isinstance(other, CoverageFunction)
            and self.weights == other.weights
            and self.sets == other.sets
        )

    def __hash__(self):
        return hash(("coverage", self.weights, self.sets))

    def __repr__(self):
        return (
            f"CoverageFunction(n={self.n}, k={self.k}, "
            f"universe={self.universe_size})"
        )


class _ModularGainState(GainState):
    """Modular gains are table lookups: f(p + (e, i)) - f(p) = table[e][i-1]."""

    def gain(self, e: int, i: int) -> float:
        self._charge(e, i)
        return self.f.table[e][i - 1]


class _CoverageGainState(GainState):
    """Keeps the covered points as a bitmask; a gain weighs only new points."""

    def __init__(self, f: CoverageFunction, counters: Optional[OracleCounters] = None):
        super().__init__(f, counters)
        self.covered = 0

    def gain(self, e: int, i: int) -> float:
        self._charge(e, i)
        return self.f._weight(self.f._masks[e][i - 1] & ~self.covered)

    def place(self, e: int, i: int, gain: float) -> None:
        super().place(e, i, gain)
        self.covered |= self.f._masks[e][i - 1]


class ExplicitTableFunction(KSubFunction):
    """Function given by a full value table over all (k+1)^n assignments.

    The table is indexed by sum(labels[e] * (k+1)**e); the all-zero
    assignment sits at index 0 and must evaluate to 0.  No k-submodularity
    check is performed at construction, so deliberately corrupted tables
    can be built and fed to the verifiers.
    """

    def __init__(self, n: int, k: int, values: Sequence[float]):
        super().__init__(n, k)
        expected = (k + 1) ** n
        vals = tuple(_check_finite(v, f"values[{i}]") for i, v in enumerate(values))
        if len(vals) != expected:
            raise ValueError(
                f"value table has {len(vals)} entries, expected (k+1)^n = {expected}"
            )
        if vals[0] != 0.0:
            raise ValueError(
                f"value at the empty assignment must be 0, got {vals[0]}"
            )
        self.values = vals

    @classmethod
    def tabulate(cls, f: KSubFunction) -> "ExplicitTableFunction":
        """Materialize any function into an explicit table."""
        values = [0.0] * (f.k + 1) ** f.n
        for a in enumerate_assignments(f.n, f.k):
            values[_table_index(a.labels, f.k)] = f.evaluate(a)
        return cls(f.n, f.k, values)

    def _value(self, a: Assignment) -> float:
        return self.values[_table_index(a.labels, self.k)]

    def __eq__(self, other):
        return (
            isinstance(other, ExplicitTableFunction)
            and self.n == other.n
            and self.k == other.k
            and self.values == other.values
        )

    def __hash__(self):
        return hash(("explicit", self.n, self.k, self.values))

    def __repr__(self):
        return f"ExplicitTableFunction(n={self.n}, k={self.k})"


def _table_index(labels: Sequence[int], k: int) -> int:
    idx = 0
    for e in reversed(range(len(labels))):
        idx = idx * (k + 1) + labels[e]
    return idx


@dataclass
class InstanceSpec:
    """A solvable problem instance: function, matroid, and metadata."""

    n: int
    k: int
    function: KSubFunction
    matroid: Matroid
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.function.n != self.n or self.function.k != self.k:
            raise ValueError(
                f"function shape (n={self.function.n}, k={self.function.k}) "
                f"does not match declared (n={self.n}, k={self.k})"
            )
        if self.matroid.ground_size != self.n:
            raise ValueError(
                f"matroid ground set ({self.matroid.ground_size}) does not "
                f"match declared n={self.n}"
            )


# ---------------------------------------------------------------------------
# Random generators.  Values land on the 1/64 grid for exact test arithmetic.
# ---------------------------------------------------------------------------

def _rng(seed: int) -> random.Random:
    """The generators' random source; seeds are nonnegative integers."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
    return random.Random(seed)


def _grid_values(rng: random.Random, lo: float, hi: float, count: int) -> list[float]:
    lo64 = math.ceil(lo * VALUE_GRID)
    hi64 = math.floor(hi * VALUE_GRID)
    if hi64 < lo64:
        raise ValueError(f"empty value range [{lo}, {hi}] on the 1/{VALUE_GRID} grid")
    return [rng.randint(lo64, hi64) / VALUE_GRID for _ in range(count)]


def gen_modular(
    n: int,
    k: int,
    value_range: tuple[float, float] = (-2.0, 4.0),
    monotone: bool = True,
    seed: int = 0,
) -> ModularFunction:
    """Random modular function with certified k-submodularity.

    Monotone instances draw every entry nonnegative.  Non-monotone ones
    draw from the full range and rejection-sample each row until its
    pairwise entry sums are nonnegative, so negative marginals occur while
    k-submodularity is preserved.
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be at least 1")
    lo, hi = value_range
    if monotone:
        lo = max(lo, 0.0)
    if hi < lo:
        raise ValueError(f"impossible value range for monotone={monotone}: ({lo}, {hi})")
    if not monotone and k >= 2 and 2 * hi < 0:
        raise ValueError("pairwise sums cannot be nonnegative with an all-negative range")
    rng = _rng(seed)
    table = []
    for e in range(n):
        for _ in range(10_000):
            row = _grid_values(rng, lo, hi, k)
            if k == 1 or sorted(row)[0] + sorted(row)[1] >= 0:
                table.append(row)
                break
        else:
            raise ValueError(f"could not sample a valid row for range ({lo}, {hi})")
    return ModularFunction(table)


def gen_coverage(
    n: int,
    k: int,
    universe_size: int,
    density: float,
    seed: int = 0,
) -> CoverageFunction:
    """Random weighted coverage function (monotone by construction).

    Weights are uniform on the 1/64 grid in [0, 1]; each universe point
    joins each (element, position) cover set independently with the given
    density.  density == 0 yields the all-zero function.
    """
    if n < 1 or k < 1 or universe_size < 1:
        raise ValueError("n, k and universe_size must be at least 1")
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must lie in [0, 1], got {density}")
    rng = _rng(seed)
    weights = _grid_values(rng, 0.0, 1.0, universe_size)
    draw = rng.random
    universe = range(universe_size)
    sets = [
        [[u for u in universe if draw() < density] for _ in range(k)]
        for _ in range(n)
    ]
    return CoverageFunction(weights, sets)


def gen_partition_matroid(n: int, seed: int = 0, max_blocks: int = 4) -> PartitionMatroid:
    """Random partition matroid: random blocks, random per-block capacities."""
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = _rng(seed)
    n_blocks = rng.randint(1, max_blocks)
    blocks: list[list[int]] = [[] for _ in range(n_blocks)]
    for e in range(n):
        blocks[rng.randrange(n_blocks)].append(e)
    blocks = [b for b in blocks if b]
    caps = [rng.randint(0, len(b)) for b in blocks]
    return PartitionMatroid(n, blocks, caps)


def gen_explicit_matroid(n: int, seed: int = 0) -> ExplicitMatroid:
    """Random explicit matroid from forests of a random multigraph.

    Ground-set elements are edges; a subset is independent iff it is
    acyclic.  Self-loops (always dependent singletons) occur naturally.
    Limited to n <= 10 since the family is materialized from all subsets.
    """
    if not 1 <= n <= 10:
        raise ValueError("explicit matroid generation supports 1 <= n <= 10")
    rng = _rng(seed)
    n_vertices = rng.randint(2, n + 1)
    edges = [(rng.randrange(n_vertices), rng.randrange(n_vertices)) for _ in range(n)]

    def acyclic(mask: int) -> bool:
        parent = list(range(n_vertices))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        rest = mask
        while rest:
            low = rest & -rest
            u, v = edges[low.bit_length() - 1]
            ru, rv = find(u), find(v)
            if ru == rv:
                return False
            parent[ru] = rv
            rest ^= low
        return True

    family = [mask for mask in range(1 << n) if acyclic(mask)]
    return ExplicitMatroid(n, family)


# ---------------------------------------------------------------------------
# Instance file format (JSON).
# ---------------------------------------------------------------------------

def _function_to_doc(f: KSubFunction) -> dict:
    if isinstance(f, ModularFunction):
        return {"modular": {"table": [list(row) for row in f.table]}}
    if isinstance(f, CoverageFunction):
        return {
            "coverage": {
                "weights": list(f.weights),
                "sets": [[sorted(fs) for fs in row] for row in f.sets],
            }
        }
    if isinstance(f, ExplicitTableFunction):
        return {"explicit": {"values": list(f.values)}}
    raise ValueError(f"cannot serialize function of type {type(f).__name__}")


def _matroid_to_doc(m: Matroid) -> dict:
    if isinstance(m, UniformMatroid):
        return {"uniform": m.budget}
    if isinstance(m, PartitionMatroid):
        return {
            "partition": {
                "blocks": [list(b) for b in m.blocks],
                "caps": list(m.capacities),
            }
        }
    if isinstance(m, ExplicitMatroid):
        return {"explicit": sorted(m.family)}
    raise ValueError(f"cannot serialize matroid of type {type(m).__name__}")


def serialize_instance(spec: InstanceSpec) -> str:
    """Render an instance as a JSON document (inverse of parse_instance)."""
    doc = {
        "n": spec.n,
        "k": spec.k,
        "function": _function_to_doc(spec.function),
        "matroid": _matroid_to_doc(spec.matroid),
    }
    if spec.metadata:
        doc["metadata"] = spec.metadata
    return json.dumps(doc, indent=2) + "\n"


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise InstanceFormatError(f"{where}: missing required field '{key}'")
    return doc[key]


def _parse_function(doc, n: int, k: int) -> KSubFunction:
    if not isinstance(doc, dict) or len(doc) != 1:
        raise InstanceFormatError(
            "function: expected exactly one of 'modular', 'coverage', 'explicit'"
        )
    (tag, body), = doc.items()
    try:
        if tag == "modular":
            table = _require(body, "table", "function.modular")
            fn = ModularFunction(table)
        elif tag == "coverage":
            weights = _require(body, "weights", "function.coverage")
            sets = _require(body, "sets", "function.coverage")
            fn = CoverageFunction(weights, sets)
        elif tag == "explicit":
            values = _require(body, "values", "function.explicit")
            fn = ExplicitTableFunction(n, k, values)
        else:
            raise InstanceFormatError(f"function: unknown family '{tag}'")
    except InstanceFormatError:
        raise
    except (TypeError, ValueError) as err:
        raise InstanceFormatError(f"function.{tag}: {err}") from err
    if fn.n != n or fn.k != k:
        raise InstanceFormatError(
            f"function.{tag}: shape (n={fn.n}, k={fn.k}) does not match "
            f"declared (n={n}, k={k})"
        )
    return fn


def _parse_matroid(doc, n: int) -> Matroid:
    if not isinstance(doc, dict) or len(doc) != 1:
        raise InstanceFormatError(
            "matroid: expected exactly one of 'uniform', 'partition', 'explicit'"
        )
    (tag, body), = doc.items()
    try:
        if tag == "uniform":
            return UniformMatroid(n, int(body))
        if tag == "partition":
            blocks = _require(body, "blocks", "matroid.partition")
            caps = _require(body, "caps", "matroid.partition")
            return PartitionMatroid(n, blocks, caps)
        if tag == "explicit":
            return ExplicitMatroid(n, body)
    except InstanceFormatError:
        raise
    except (TypeError, ValueError) as err:
        raise InstanceFormatError(f"matroid.{tag}: {err}") from err
    raise InstanceFormatError(f"matroid: unknown family '{tag}'")


def parse_instance(text: str) -> InstanceSpec:
    """Parse an instance document.

    Grammar (JSON): an object with integer fields ``n`` and ``k``, a
    ``function`` object tagged ``modular`` (row-major n x k ``table``),
    ``coverage`` (``weights`` plus ``sets[e][i]`` index lists) or
    ``explicit`` (flat ``values`` of length (k+1)^n indexed by
    sum(labels[e] * (k+1)**e)), a ``matroid`` object tagged ``uniform``
    (budget), ``partition`` (``blocks``/``caps``) or ``explicit`` (bitmask
    list), and an optional ``metadata`` object.  Malformed JSON yields a
    position-annotated error; inconsistent dimensions name the offending
    field.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise InstanceFormatError(
            f"line {err.lineno} column {err.colno}: {err.msg}"
        ) from err
    if not isinstance(doc, dict):
        raise InstanceFormatError("top level: expected an object")
    n = _require(doc, "n", "top level")
    k = _require(doc, "k", "top level")
    if not isinstance(n, int) or n < 0:
        raise InstanceFormatError(f"n: expected a nonnegative integer, got {n!r}")
    if not isinstance(k, int) or k < 1:
        raise InstanceFormatError(f"k: expected a positive integer, got {k!r}")
    fn = _parse_function(_require(doc, "function", "top level"), n, k)
    matroid = _parse_matroid(_require(doc, "matroid", "top level"), n)
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise InstanceFormatError("metadata: expected an object")
    try:
        return InstanceSpec(n=n, k=k, function=fn, matroid=matroid, metadata=metadata)
    except ValueError as err:
        raise InstanceFormatError(str(err)) from err
