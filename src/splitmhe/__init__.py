"""Time-splitting distributed solvers for nonlinear moving horizon estimation."""

from .errors import (
    DimensionMismatchError,
    FactorizationError,
    LocalSolveError,
    NonFiniteDataError,
    NotPositiveDefiniteError,
    OriginSingularityError,
    PartitionError,
    RankDeficientConstraintsError,
    ScenarioError,
    SingularKktError,
    SplitMheError,
)
from .model import (
    SystemModel,
    fd_check,
    gaussian_draws,
    make_linear_model,
    robot_model,
    rollout,
)
from .problem import (
    MheInstance,
    SubProblem,
    build_partition,
    centralized_kkt_residual,
    centralized_objective,
    coupling_residual,
    eval_constraints,
    eval_residual_stack,
    extract_trajectory,
    lift_initial_guess,
    split_instance,
)
from .qp_core import (
    QpBlock,
    QpSolution,
    StageStack,
    dense_kkt_oracle,
    solve_coupled_qp,
)
from .local_nlp import (
    LocalSolveConfig,
    LocalSolveResult,
    SensitivityPair,
    lagrangian_hessian,
    sensitivity_matrices,
    solve_local_subproblem,
    tangent_predictor,
)
from .solvers import (
    ConvergenceRecord,
    IterateState,
    SolveResult,
    SolverConfig,
    run_centralized,
    run_distributed_sqp,
    run_gauss_newton_aladin,
    run_sensitivity_aladin,
    solve,
)
from .harness import (
    Scenario,
    SweepRow,
    WindowOutcome,
    generate_scenario,
    load_scenario,
    run_receding_horizon,
    solve_window,
    sweep_subwindows,
    window_instance,
    write_scenario,
)

__version__ = "0.1.0"
