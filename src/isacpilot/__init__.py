"""Joint sensing/communication pilot design and evaluation toolkit."""

from .channel import (
    ArrayGeometry,
    GmmUserModel,
    PilotMatrix,
    SensingScene,
    laplacian_weights,
    sample_channels,
)
from .errors import (
    DimensionError,
    InvalidParameterError,
    IsacPilotError,
    NonFiniteError,
    NumericError,
    ObjectiveDomainError,
    SingularMatrixError,
)
from .evaluation import (
    RocCurve,
    c_worst_estimate,
    dft_pilot,
    effective_training_snr,
    eigen_pilot,
    gmm_mmse_batch,
    nmse_experiment,
    roc_curve,
    ser_experiment,
    simulate_detection_trials,
    zf_precode,
)
from .gradients import finite_diff_check
from .metrics import (
    IsacObjective,
    comm_mi_weighted,
    isac_objective,
    sensing_mi,
)
from .optimizer import (
    OptimizationTrace,
    OptimizerConfig,
    optimize_pgd,
    pareto_filter,
    project_stiefel,
    random_stiefel,
    sample_feasible_cloud,
)
from .streams import complex_normal, substream

__version__ = "0.1.0"
