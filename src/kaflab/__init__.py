"""Kernel adaptive filtering lab.

Online Gram-preconditioned kernel LMS filtering over a fixed dictionary,
its transient/steady-state MSE theory with mean and mean-square stability
tests, closed-form Gaussian kernel moments with Monte-Carlo oracles, and a
seeded simulation harness that checks theory against experiment.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DimensionMismatchError,
    DivergenceError,
    EigenSolverError,
    KaflabError,
    NotPositiveDefiniteError,
    NotStableError,
)
from .kernel import (
    Dictionary,
    GaussianKernel,
    GramFactor,
    coherence_select,
    coherence_threshold_for_size,
    gram,
    grid_dictionary,
    kappa,
    kernelized_input,
)
from .moments import (
    CrossStats,
    InputModel,
    MomentModel,
    build_model,
    estimate_cross_stats,
    fourth_tensor,
    load_moment_model,
    multi_point_moment,
    save_moment_model,
    second_moment,
)
from .filters import (
    FilterState,
    StepRecord,
    knlms_step,
    natural_klms_step,
    predict,
    selective_step,
)
from .analysis import (
    KSpectrum,
    build_k,
    complexity_report,
    mean_recursion,
    mean_square_stable,
    mean_stability_bound,
    steady_state_mse,
    transient_mse,
)
from .sim import (
    CurveKind,
    ExperimentSetup,
    FilterKind,
    InputGenerator,
    LearningCurve,
    SystemKind,
    SystemSimulator,
    ar1_stream,
    embed_input,
    experiment_stream,
    mc_learning_curve,
    stationary_covariance,
)
