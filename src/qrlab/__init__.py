"""qrlab: numerics for inner-product kernel matrices and kernel ridge
regression in the quadratic sample regime n ~ d^2/(2 alpha)."""

from .datagen import (
    CovarianceSpec,
    Dataset,
    MomentMatchedSampler,
    gauss_hermite_rule,
    reduced_tensor_features,
    sample_dataset,
    sigma2_diagonal,
)
from .errors import (
    AssumptionViolationError,
    AssumptionWarning,
    CapacityError,
    InvalidArgumentError,
    NumericalFailureError,
    QrlabError,
    SingularSystemError,
)
from .kernels import (
    KernelFunction,
    QuadCoeffs,
    cross_kernel,
    kernel_matrix,
    quad_coeffs,
    quad_kernel_matrix,
    spectral_norm_gap,
)
from .krr import (
    RiskPrediction,
    TeacherModel,
    asymptotic_risk,
    asymptotic_training_error,
    empirical_risk,
    empirical_training_error,
    krr_fit,
    make_labels,
    training_error,
)
from .spectra import (
    DiscreteLaw,
    SpectralLaw,
    companion_stieltjes,
    deformed_mp_law,
    esd,
    ks_distance,
    law_integrals,
    mp_density,
)

__version__ = "0.1.0"
