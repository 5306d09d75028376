"""Maximizing k-submodular functions under matroid constraints.

A k-submodular function assigns a value to every labeling of n elements
with one of k positions (or none); the objective here is to maximize such
a function subject to the set of labeled elements being independent in a
matroid.  The package ships a threshold-decreasing solver with a
(1/2 - eps) guarantee for monotone objectives and (1/3 - eps) otherwise,
a greedy baseline, a brute-force reference, verifiers for the defining
inequalities, instance generators, and a small CLI.
"""

from .core import (
    Assignment,
    CapExceededError,
    GainState,
    KSubFunction,
    OracleCounters,
    enumerate_assignments,
    join,
    marginal_gain,
    meet,
    precedes,
    uniform_draws,
)
from .instances import (
    CoverageFunction,
    ExplicitTableFunction,
    InstanceFormatError,
    InstanceSpec,
    ModularFunction,
    gen_coverage,
    gen_explicit_matroid,
    gen_modular,
    gen_partition_matroid,
    parse_instance,
    serialize_instance,
)
from .matroids import (
    ExplicitMatroid,
    IndependenceState,
    Matroid,
    PartitionMatroid,
    UniformMatroid,
    check_basis_exchange,
    check_matroid_axioms,
    feasible_extensions,
    rank,
)
from .solvers import (
    SolveReport,
    brute_force_solve,
    greedy_solve,
    predicted_round_bound,
    threshold_decreasing_solve,
)
from .verify import (
    Verdict,
    check_marginal_sum_bound,
    verify_k_submodular,
    verify_monotone,
    verify_orthant_pairwise,
)

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "CapExceededError",
    "CoverageFunction",
    "ExplicitMatroid",
    "ExplicitTableFunction",
    "GainState",
    "IndependenceState",
    "InstanceFormatError",
    "InstanceSpec",
    "KSubFunction",
    "Matroid",
    "ModularFunction",
    "OracleCounters",
    "PartitionMatroid",
    "SolveReport",
    "UniformMatroid",
    "Verdict",
    "brute_force_solve",
    "check_basis_exchange",
    "check_marginal_sum_bound",
    "check_matroid_axioms",
    "enumerate_assignments",
    "feasible_extensions",
    "gen_coverage",
    "gen_explicit_matroid",
    "gen_modular",
    "gen_partition_matroid",
    "greedy_solve",
    "join",
    "marginal_gain",
    "meet",
    "parse_instance",
    "precedes",
    "predicted_round_bound",
    "rank",
    "serialize_instance",
    "threshold_decreasing_solve",
    "uniform_draws",
    "verify_k_submodular",
    "verify_monotone",
    "verify_orthant_pairwise",
]
