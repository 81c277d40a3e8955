"""Ultra-weak discontinuous Galerkin method for the 1D periodic linear
Schrodinger equation i u_t + u_xx = 0, with a superconvergence laboratory:
flux-matching projections, correction functions, superconvergence point
sets, error metrics, and SIAC post-processing."""

from .errors import (ConfigurationError, InstabilityError,
                     ProjectionUndefinedError, ResidualUndefinedError,
                     SingularSymbolError, UnsupportedOperationError,
                     UwdgError)
from .basis import (QuadratureRule, ReferenceMatrices, antiderivative_map,
                    bspline_eval, gauss_rule, legendre_eval,
                    reference_matrices)
from .mesh import Mesh1D, make_mesh
from .flux import (ALTERNATING, CENTRAL, AssumptionClass, FluxConfig,
                   InterfaceMatrices, ScaledFlux, classify_assumption,
                   gamma_lambda, interface_matrices, scale_flux,
                   solve_block_circulant)
from .projection import (AnalyticField, DGFunction, LeadingResidual,
                         SpecialPoints, l2_norm, leading_residual, plane_wave,
                         project_dagger, project_l2, project_star,
                         special_points, time_derivative_field)
from .solver import (DGOperator, TimeScheme, default_dt_constant, integrate,
                     rk4_step)
from .correction import (build_correction, max_correction_levels,
                         reference_interpolant, zeta_diagnostics)
from .diagnostics import (DNE, ErrorReport, broken_l2_error,
                          cell_average_error, flux_errors, numerical_fluxes,
                          observed_orders, point_errors, projection_error)
from .siac import KernelSpec, kernel_coeffs, postprocess_value, postprocessed_error
from .harness import StudyConfig, emit_report, run_case, run_study

__version__ = "0.1.0"
