"""ucbench — unit commitment models, start-up cost formulations, and
integrality-gap benchmarking on a bundled exact LP/MIP solver."""

from .domain import (
    CostBreakdown,
    Instance,
    InstanceFormatError,
    Line,
    Network,
    Schedule,
    Unit,
    load_instance,
    offline_runs,
    save_instance,
    validate_instance,
)
from .milp import (
    Model,
    ModelError,
    ModelStats,
    MpsParseError,
    Variable,
    fix_variables,
    model_stats,
    read_mps,
    write_mps,
)
from .startup import (
    Step,
    StepFunction,
    approximate_steps,
    minimal_steps_oracle,
    startup_cost,
)
from .solver import (
    SolveConfig,
    Solution,
    solve_lp,
    solve_mip,
)
from .formulations import (
    BASES,
    STARTUPS,
    FormulationChoice,
    VarIndex,
    add_startup_1bin,
    add_startup_3bin,
    add_startup_temp,
    build_base,
    build_model,
)
from .oracle import (
    OracleResult,
    brute_force_optimum,
    certify_equivalence,
    enumerate_schedules,
    exact_total_cost,
    optimal_dispatch,
)
from .bench import (
    BenchConfig,
    GapRow,
    generate_instance,
    measure_gap,
    run_benchmark,
)

__version__ = "0.1.0"

__all__ = [
    "CostBreakdown", "Instance", "InstanceFormatError", "Line", "Network",
    "Schedule", "Unit", "load_instance", "offline_runs", "save_instance",
    "validate_instance",
    "Model", "ModelError", "ModelStats", "MpsParseError",
    "Variable", "fix_variables", "model_stats", "read_mps", "write_mps",
    "Step", "StepFunction", "approximate_steps", "minimal_steps_oracle",
    "startup_cost",
    "SolveConfig", "Solution", "solve_lp", "solve_mip",
    "BASES", "STARTUPS", "FormulationChoice", "VarIndex",
    "add_startup_1bin", "add_startup_3bin", "add_startup_temp",
    "build_base", "build_model",
    "OracleResult", "brute_force_optimum", "certify_equivalence",
    "enumerate_schedules", "exact_total_cost", "optimal_dispatch",
    "BenchConfig", "GapRow", "generate_instance", "measure_gap",
    "run_benchmark",
    "__version__",
]
