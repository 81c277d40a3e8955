"""Ultra-weak discontinuous Galerkin method for the 1D periodic linear
Schrodinger equation i u_t + u_xx = 0, with a superconvergence laboratory:
flux-matching projections, correction functions, superconvergence point
sets, error metrics, and SIAC post-processing.

Importing the package loads no submodule: each public name below is
imported from its module on first access (PEP 562), so ``python -m
uwdg.harness`` runs the harness module once, and importing one
submodule loads only what that submodule imports."""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("ConfigurationError", "InstabilityError",
               "ProjectionUndefinedError", "ResidualUndefinedError",
               "SingularSymbolError", "UnsupportedOperationError",
               "UwdgError"),
    "basis": ("QuadratureRule", "antiderivative_map", "bspline_eval",
              "gauss_rule", "reference_matrices"),
    "mesh": ("Mesh1D", "make_mesh"),
    "flux": ("ALTERNATING", "CENTRAL", "AssumptionClass", "FluxConfig",
             "ScaledFlux", "classify_assumption", "gamma_lambda",
             "interface_matrices", "scale_flux", "solve_block_circulant"),
    "projection": ("AnalyticField", "DGFunction", "LeadingResidual",
                   "SpecialPoints", "l2_norm", "leading_residual",
                   "plane_wave", "project_l2", "project_star",
                   "special_points", "time_derivative_field"),
    "solver": ("DGOperator", "integrate", "rk4_step"),
    "correction": ("build_correction", "max_correction_levels",
                   "reference_interpolant", "zeta_diagnostics"),
    "diagnostics": ("DNE", "ErrorReport", "broken_l2_error",
                    "cell_average_error", "flux_errors", "numerical_fluxes",
                    "observed_orders", "point_errors", "projection_error"),
    "siac": ("KernelSpec", "kernel_coeffs", "postprocessed_error"),
    "harness": ("StudyConfig", "emit_report", "run_case", "run_study"),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME) | set(_EXPORTS))
