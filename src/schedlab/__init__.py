"""schedlab: a desk-scale lab for diffusion noise schedules and inversion stability.

Analytic data models with exact noise predictors stand in for trained
networks, so deterministic-sampler behaviour (inversion error accumulation,
schedule singularities, guidance and input-scale effects) is exactly
testable.
"""

__version__ = "0.1.0"

from .calculus import (
    DerivativeCoefficients,
    dx_dt_coefficients,
    logsnr_linearity_fit,
    singularity_scan,
)
from .errors import DomainError, SchedLabError, ValidationError
from .harness import (
    ScenarioConfig,
    paired_comparison,
    run_edit_scenario,
    run_roundtrip_scenario,
    run_sweep,
    sign_test_pvalue,
)
from .metrics import RunReport, convergence_order_fit, edit_drift, mse, psnr
from .models import (
    AnalyticModel,
    Component,
    LevelConstants,
    ModelKind,
    data_range,
    data_variance,
    exact_eps,
    guided_eps,
    level_constants,
    model_from_dict,
    sample_x0,
)
from .sampler import (
    OdeResult,
    SamplerConfig,
    StepPlan,
    Trajectory,
    Walk,
    ddim_invert_step,
    ddim_reverse_step,
    forward_closed_form,
    ode_reference_solve,
    ode_solve,
    pinned_reconstruction,
    run_inversion,
    run_reverse,
    step_plan,
    time_grid,
    walk_inversion,
    walk_pinned,
    walk_reverse,
)
from .schedules import (
    ALPHA_BAR_MIN,
    AffineNormalization,
    Family,
    ScheduleSpec,
    ScheduleTable,
    alpha_bar_and_derivative,
    alpha_bar_continuous,
    build_table,
    d_alpha_bar_dt,
    eval_alpha_bar,
    scaled_linear_alpha_bar_product,
    scaled_linear_beta,
    terminal_snr,
)

__all__ = [name for name in dir() if not name.startswith("_")]
