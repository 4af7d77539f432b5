"""Simulation and verification toolkit for diffusion with a mixed
local/fractional operator, a degenerate time weight, and power absorption,
on a truncated periodic box in one or two dimensions.

The quadrature oracles (`mixheat.oracles`) are imported on first use, so
importing the package leaves SciPy's quadrature and root finders unloaded.
"""

__version__ = "0.1.0"

from .config import (ExperimentConfig, build_absorption, build_grid,
                     build_initial, build_problem, capacity_radii,
                     config_from_mapping, kernel_times, load_config,
                     parse_config_text, snapshot_times)
from .errors import ConfigurationError, NumericalFailureError
from .fractional import (TestFunctionSpec, bracket_frac_laplacian,
                         bracket_laplacian, bracket_profile,
                         bracket_second_derivative, capacity_integral,
                         frac_constant, make_test_function_spec, psi_ramp,
                         psi_ramp_derivative, time_factor_integral)
from .grid import (Field, GridSpec, SpectralSymbol, apply_symbol, convolve,
                   delta_field, frac_laplacian_spectral, integral, make_field,
                   make_grid, make_symbol, read_field, write_field)
from .kernels import (gaussian_kernel, half_width_for_tail, kernel_lq_norm,
                      mixed_kernel, stable_kernel, stable_tail_constant,
                      stable_tail_mass, taylor_contraction_error)
from .observers import (MassClassification, MassTrace,
                        absorbed_integral_tail_ratio, classify_mass_limit,
                        condition_h_check, critical_exponent,
                        decay_rate_exponent, h_bound_H, mass_trace,
                        profile_error, read_mass_csv, write_mass_csv)
from .solver import (ConstantAbsorption, NoAbsorption, PowerAbsorption,
                     ProblemSpec, SolveResult, StepSchedule, TableAbsorption,
                     absorption_step, comparison_check, default_snapshot_times,
                     duhamel_residual, geometric_times, linear_step,
                     make_absorption, make_step_schedule, mass_identity_defect,
                     solve, tau_to_time, time_to_tau)

__all__ = [
    "ConfigurationError", "NumericalFailureError",
    "GridSpec", "Field", "SpectralSymbol",
    "make_grid", "make_field", "delta_field", "integral", "make_symbol",
    "apply_symbol", "frac_laplacian_spectral", "convolve", "write_field",
    "read_field",
    "gaussian_kernel", "stable_kernel", "mixed_kernel", "kernel_lq_norm",
    "taylor_contraction_error", "stable_tail_constant", "stable_tail_mass",
    "half_width_for_tail", "stable_kernel_quadrature", "mixed_kernel_quadrature",
    "frac_constant", "bracket_profile", "bracket_second_derivative",
    "bracket_laplacian", "bracket_frac_laplacian", "psi_ramp",
    "psi_ramp_derivative",
    "frac_laplacian_pointwise", "scaling_check", "TestFunctionSpec",
    "make_test_function_spec", "capacity_integral", "time_factor_integral",
    "NoAbsorption", "ConstantAbsorption", "PowerAbsorption", "TableAbsorption",
    "make_absorption", "ProblemSpec", "time_to_tau", "tau_to_time",
    "geometric_times", "default_snapshot_times", "StepSchedule",
    "make_step_schedule", "absorption_step", "linear_step",
    "SolveResult", "solve", "mass_identity_defect", "comparison_check",
    "duhamel_residual",
    "MassTrace", "mass_trace", "write_mass_csv", "read_mass_csv",
    "critical_exponent", "decay_rate_exponent", "absorbed_integral_tail_ratio",
    "condition_h_check", "MassClassification", "classify_mass_limit",
    "profile_error", "h_bound_H",
    "ExperimentConfig", "parse_config_text", "config_from_mapping",
    "load_config", "build_grid", "build_absorption", "build_problem",
    "build_initial", "snapshot_times", "kernel_times", "capacity_radii",
]

_ORACLES = ("frac_laplacian_pointwise", "scaling_check",
            "stable_kernel_quadrature", "mixed_kernel_quadrature")


def __getattr__(name):
    if name in _ORACLES:
        from . import oracles
        return getattr(oracles, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
