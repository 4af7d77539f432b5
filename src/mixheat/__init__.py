"""Simulation and verification toolkit for diffusion with a mixed
local/fractional operator, a degenerate time weight, and power absorption,
on a truncated periodic box in one or two dimensions.

The quadrature oracles (`mixheat.oracles`) are imported on first use, so
importing the package leaves SciPy's quadrature and root finders unloaded.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .config import (ExperimentConfig, build_absorption, build_initial,
                     build_problem, capacity_radii, config_from_mapping,
                     kernel_times, load_config, parse_config_text,
                     snapshot_times)
from .errors import ConfigurationError, NumericalFailureError
from .fractional import (bracket_frac_laplacian, bracket_laplacian,
                         bracket_profile, capacity_integral, frac_constant)
from .grid import (Field, GridSpec, SpectralSymbol, apply_symbol, convolve,
                   delta_field, frac_laplacian_spectral, integral, make_symbol,
                   read_field, write_field)
from .kernels import (gaussian_kernel, half_width_for_tail, kernel_lq_norm,
                      mixed_kernel, mixed_kernel_norms, stable_kernel,
                      stable_tail_constant, taylor_contraction_error)
from .observers import (MassClassification, classify_mass_limit,
                        condition_h_check, critical_exponent,
                        decay_rate_exponent, profile_error, read_mass_csv,
                        write_mass_csv)
from .solver import (MassTrace, PowerAbsorption, ProblemSpec, SolveResult,
                     StepSchedule, TableAbsorption, comparison_check,
                     default_snapshot_times, duhamel_residual,
                     geometric_times, make_step_schedule, mass_identity_defect,
                     solve, tau_to_time, time_to_tau)

_ORACLES = ("frac_laplacian_pointwise", "scaling_check",
            "stable_kernel_quadrature", "mixed_kernel_quadrature")

# the names imported above, less the submodules they bind, and the oracles
__all__ = [name for name, value in globals().items() if not name.startswith("_")
           and not isinstance(value, _ModuleType)] + list(_ORACLES)


def __getattr__(name):
    if name in _ORACLES:
        from . import oracles
        return getattr(oracles, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
