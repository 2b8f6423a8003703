"""Desk-scale numerics for Gaussian rough paths: covariance kernels and
their diagnostics, exact sampling, level-2 lifts, flow and sensitivity
solvers, Monte-Carlo density tails and small-noise rate functions.

The public names below are loaded on first use (PEP 562), so importing
the package, or its command line, loads no numpy."""

import sys as _sys
from types import ModuleType as _ModuleType

__version__ = "0.1.0"

_EXPORTS = {
    "kernels": ("BiFractionalBrownian", "CovKernel", "FourierKernel",
                "FractionalBrownian", "FractionalOU", "StationaryKernel",
                "SumFractionalBrownian", "TimeGrid", "brownian",
                "kernel_from_spec"),
    "diagnostics": ("HypothesisReport", "check_hypotheses", "eta", "kappa",
                    "mixed_variation", "q_embedding"),
    "paths": ("CMElement", "PathEnsemble", "cm_eval", "cm_inner",
              "cm_norm_sq", "sample", "sample_increments", "step_inner",
              "wiener_integral"),
    "lift": ("RoughPath2", "lift", "p_variation", "rough_norm"),
    "fields": ("VectorFieldSystem", "ellipticity_scan", "field_from_spec"),
    "rde": ("FlowState", "solve", "solve_batch", "solve_skeleton"),
    "malliavin": ("derivative_kernel", "deterministic_malliavin_matrix",
                  "directional_derivative", "interpolation_audit",
                  "malliavin_matrix"),
    "density": ("DensityEstimate", "estimate_density",
                "first_variation_samples", "rate_function", "tail_fit",
                "tail_probability_check", "varadhan_check",
                "varadhan_sweep"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib
    module = importlib.import_module(f".{_MODULE_OF[name]}", __name__)
    return getattr(module, name)


class _Package(_ModuleType):
    """The package's ``lift`` stays the function, as with eager imports:
    loading the submodule ``roughdensity.lift`` does not rebind it."""

    def __setattr__(self, name, value):
        if name != "lift" or not isinstance(value, _ModuleType):
            super().__setattr__(name, value)


_sys.modules[__name__].__class__ = _Package
