"""Bayesian social learning over time-varying networks with a truth agent.

Simulates the noisy belief dynamics and its deterministic expectation,
and numerically verifies the contraction bounds, convergence rates, and
the alternating counterexample schedule that the model supports.
"""

from types import ModuleType as _ModuleType

from .analysis import (
    TOL,
    BoundCheck,
    CounterexampleVerdict,
    MomentReport,
    RateFit,
    burn_in_threshold,
    check_contraction,
    check_diagonal_bound,
    check_norm_inequalities,
    check_product_decay,
    check_transition_identities,
    check_truth_pull_accumulation,
    counterexample_check,
    estimate_deviation_moments,
    fit_rate,
    norm_inf,
    sweep_window_checks,
)
from .config import (
    ConfigError,
    ExperimentConfig,
    RatefitSpec,
    ScheduleSpec,
    VerifySpec,
    build_schedule,
    load_config,
    parse_config,
)
from .dynamics import (
    BeliefState,
    EnsembleResult,
    SignalBatch,
    SystemParams,
    Trajectory,
    emit_signals,
    initial_state,
    run_ensemble,
    run_simulation,
    run_stream,
    step_per_agent,
    update_agent,
)
from .expected import (
    ExpectedTrajectory,
    TransitionBundle,
    bundle_at,
    run_expected,
    transition_bundle,
)
from .schedules import (
    CounterexampleSchedule,
    GraphSchedule,
    PeriodicSchedule,
    RandomSchedule,
    ScheduleConstructionError,
    ScheduleHorizonError,
    SwitchRecord,
    TableSchedule,
    TruthHearingVerdict,
    default_pull_tolerance,
    make_counterexample_schedule,
    make_periodic_schedule,
    make_random_schedule,
    make_table_schedule,
    max_degree,
    verify_truth_hearing,
)
from .tables import (
    check_report_text,
    files_match,
    read_table,
    trajectory_norms,
    write_check_report,
    write_table,
    write_trajectory,
)

__version__ = "0.1.0"

# Every public name imported above, and nothing else.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_")
                 and not isinstance(value, _ModuleType))
