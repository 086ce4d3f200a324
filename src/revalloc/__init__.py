"""Fair common-revenue allocation from DEA cross-efficiency peer appraisal.

Pipeline: normalize input/output data, score every DMU with the ratio
model, resolve weight ambiguity with an ally/adversary tie-break model,
build the peer-appraisal matrix, turn coalition appraisal bounds into
per-DMU shares with optimistic/pessimistic brackets, and split a fixed
revenue proportionally.
"""

from .allocation import (
    AllocationError,
    AllocationPlan,
    allocate,
    optimistic_allocation,
    pessimistic_allocation,
)
from .dataset import (
    CrossEfficiencyMatrix,
    DataError,
    Dataset,
    GroupAssignment,
    ParseError,
    ValidationError,
    load_dataset,
    load_groups,
    load_matrix,
    load_reference,
    normalize,
    write_dataset,
    write_matrix,
)
from .dea import (
    CcrResult,
    SolverFailure,
    ccr_all,
    ccr_efficiency,
    cluster_groups,
    cross_efficiency_matrix,
    secondary_goal_weights,
)
from .game import (
    CoalitionTable,
    DegenerateDenominatorError,
    ShapleyTriple,
    build_coalition_table,
    characteristic_value,
    coalition_bounds,
    shapley_triples,
)
from .report import TOOL_VERSION as __version__
from .simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, LinearProgram, LpSolution, solve

__all__ = [
    "AllocationError",
    "AllocationPlan",
    "CcrResult",
    "CoalitionTable",
    "CrossEfficiencyMatrix",
    "DataError",
    "Dataset",
    "DegenerateDenominatorError",
    "GroupAssignment",
    "INFEASIBLE",
    "LinearProgram",
    "LpSolution",
    "OPTIMAL",
    "ParseError",
    "ShapleyTriple",
    "SolverFailure",
    "UNBOUNDED",
    "ValidationError",
    "allocate",
    "build_coalition_table",
    "ccr_all",
    "ccr_efficiency",
    "characteristic_value",
    "cluster_groups",
    "coalition_bounds",
    "cross_efficiency_matrix",
    "load_dataset",
    "load_groups",
    "load_matrix",
    "load_reference",
    "normalize",
    "optimistic_allocation",
    "pessimistic_allocation",
    "secondary_goal_weights",
    "shapley_triples",
    "solve",
    "write_dataset",
    "write_matrix",
    "__version__",
]
