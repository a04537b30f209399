"""Joint sensing/communication pilot design and evaluation toolkit."""

from .channel import (
    ArrayGeometry,
    GmmUserModel,
    PilotMatrix,
    SensingScene,
    build_user_model,
    laplacian_weights,
    region_covariance,
    sample_channel,
    sample_channels,
    simulate_pilot_rx,
    steering_vector,
)
from .errors import (
    DimensionError,
    InvalidParameterError,
    InvalidRegionError,
    IsacPilotError,
    NumericError,
    ObjectiveDomainError,
    SingularMatrixError,
    UnsupportedModelError,
)
from .evaluation import (
    DetectionTrial,
    RocCurve,
    detector_statistic,
    dft_pilot,
    eigen_pilot,
    gmm_mmse_batch,
    gmm_mmse_estimate,
    nmse_experiment,
    paired_detection_trial,
    qam64_demap,
    qam64_map,
    roc_curve,
    ser_experiment,
    simulate_detection_trials,
    simulate_radar_frame,
    zf_precode,
)
from .gradients import (
    GradientMatrix,
    finite_diff_check,
    grad_comm_mi_user,
    grad_isac,
    grad_sensing_mi,
)
from .metrics import (
    IsacObjective,
    SensingVectors,
    c_worst_estimate,
    comm_mi_lower_bound_gaussian,
    effective_training_snr,
    comm_mi_user,
    comm_mi_weighted,
    isac_objective,
    sense_kl_and_g,
    sense_kl_direct,
    sensing_mi,
    sensing_mi_approx,
    sensing_mi_exact,
    sensing_mu,
    sensing_vectors,
)
from .optimizer import (
    OptimizationTrace,
    OptimizerConfig,
    SweepPoint,
    optimize_pgd,
    pareto_filter,
    project_stiefel,
    random_stiefel,
    rho_sweep,
    sample_feasible_cloud,
)
from .streams import complex_normal, substream

__version__ = "0.1.0"
