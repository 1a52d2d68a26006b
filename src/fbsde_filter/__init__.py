"""Minimum-variance estimators for continuous-time nonlinear filtering.

The library cross-validates four estimators of conditional expectations
(observation-based, innovation-based, observation-based for the normalized
filter, and observation-error-based) built from forward weighted ensembles
and backward PDE solutions, with Kalman-Bucy closed forms as exact
linear-Gaussian oracles and a partially observed optimal-control application.
"""

__version__ = "0.1.0"

from .model import (  # noqa: F401
    GaussianMixturePrior,
    LinearGaussianModelSpec,
    NamedFunction,
    ScalarModelSpec,
    SpaceGrid,
    TimeGrid,
    build_model,
    registry_eval,
    serialize_model,
)
from .sde_sim import (  # noqa: F401
    ObservationRecord,
    PathEnsemble,
    compute_innovation,
    compute_observation_error,
    simulate_girsanov_ensemble,
    simulate_innovation_ensemble,
    simulate_truth_and_obs,
)
from .pde_backward import (  # noqa: F401
    GridFunction,
    solve_backward_kolmogorov,
    solve_backward_with_source,
    solve_feynman_kac,
    solve_hjb_quadratic,
)
from .kalman import (  # noqa: F401
    ControlRiccati,
    GaussianState,
    kalman_bucy_mean,
    lq_control_riccati,
    riccati_filter,
)
from .particle import (  # noqa: F401
    ConditionalEstimate,
    pi_estimate,
    resample_multinomial,
    run_particle_filter,
    sigma_estimate,
)
from .estimators import (  # noqa: F401
    EstimatorReport,
    VarianceDecayReport,
    cost_functional,
    estimate_pi_innovation,
    estimate_pi_obs,
    estimate_sigma_obs,
    estimate_sigma_obs_error,
    variance_decay,
)
from .control import (  # noqa: F401
    ControlRunReport,
    PolicyField,
    certainty_equivalence_run,
    full_information_lq_cost,
    hjb_policy,
    lqg_alternating_iteration,
    lqg_optimal_cost,
    remark_consistency_check,
    separated_cost_estimate,
)
