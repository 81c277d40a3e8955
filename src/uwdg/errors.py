"""Exception types shared across the package."""

import math


class UwdgError(Exception):
    """Base class for all package errors."""


class ConfigurationError(UwdgError):
    """Invalid user-supplied configuration (mesh parameters, CLI flags, ...)."""


class ProjectionUndefinedError(UwdgError):
    """The flux-matching projection does not exist for this flux/mesh/degree."""


class SingularSymbolError(UwdgError):
    """A frequency block of the block-circulant system is (near) singular."""

    def __init__(self, frequency: int, cond: float):
        self.frequency = frequency
        self.cond = cond
        super().__init__(
            f"block-circulant symbol A + omega^l B is singular at frequency "
            f"l={frequency} (cond ~ {cond:.3e}); the global projection "
            f"solvability assumption is violated"
        )


class ResidualUndefinedError(UwdgError):
    """Leading residual polynomial has a vanishing denominator."""


class InstabilityError(UwdgError):
    """RK4 time integration is unstable at this step size.

    Found before any step: the stability margin dt*rho(S)/(2*sqrt(2)) is
    above 1, and c_stable = c / margin is the largest stable step
    constant.  Or, as a backstop that a correct margin rules out, the
    march ended with its L2 norm grown by norm_ratio."""

    def __init__(self, dt: float, margin: float | None = None,
                 c_stable: float | None = None,
                 norm_ratio: float | None = None):
        self.dt = dt
        self.margin = margin
        self.c_stable = c_stable
        self.norm_ratio = norm_ratio
        if margin is not None:
            what = (f"stability margin dt*rho/(2*sqrt(2)) = {margin:.6g} > 1"
                    f" at dt={dt:.6e}; largest stable c = "
                    f"{_round_down(c_stable)}")
        elif math.isfinite(norm_ratio):
            what = f"L2 norm grew by {norm_ratio:.3e}x with dt={dt:.6e}"
        else:
            what = f"L2 norm became non-finite with dt={dt:.6e}"
        super().__init__(f"time integration unstable: {what}")


def _round_down(x: float, digits: int = 4) -> str:
    """x to `digits` significant digits, rounded toward zero, so that the
    printed stable c is itself stable."""
    e = 10.0 ** (math.floor(math.log10(x)) - digits + 1)
    return f"{math.floor(x / e) * e:.{digits}g}"


class UnsupportedOperationError(UwdgError):
    """Operation not available for this configuration (e.g. SIAC on nonuniform mesh)."""
