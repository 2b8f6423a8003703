"""Desk-scale numerics for Gaussian rough paths: covariance kernels and
their diagnostics, exact sampling, level-2 lifts, flow and sensitivity
solvers, Monte-Carlo density tails and small-noise rate functions."""

__version__ = "0.1.0"

from .kernels import (            # noqa: F401
    BiFractionalBrownian,
    CovKernel,
    FourierKernel,
    FractionalBrownian,
    FractionalOU,
    StationaryKernel,
    SumFractionalBrownian,
    TimeGrid,
    brownian,
    kernel_from_spec,
)
from .diagnostics import (        # noqa: F401
    HypothesisReport,
    check_hypotheses,
    eta,
    kappa,
    mixed_variation,
    q_embedding,
)
from .paths import (              # noqa: F401
    CMElement,
    PathEnsemble,
    cm_eval,
    cm_inner,
    cm_norm_sq,
    sample,
    step_inner,
    wiener_integral,
)
from .lift import RoughPath2, lift, p_variation, rough_norm   # noqa: F401
from .fields import VectorFieldSystem, ellipticity_scan, field_from_spec  # noqa: F401
from .rde import FlowState, solve, solve_batch, solve_skeleton  # noqa: F401
from .malliavin import (          # noqa: F401
    derivative_kernel,
    deterministic_malliavin_matrix,
    directional_derivative,
    interpolation_audit,
    malliavin_matrix,
)
from .density import (            # noqa: F401
    DensityEstimate,
    estimate_density,
    first_variation_samples,
    rate_function,
    tail_fit,
    tail_probability_check,
    varadhan_sweep,
)
