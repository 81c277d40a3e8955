"""Flux parameter algebra and the block-circulant interface solver.

The scheme's numerical fluxes at an interface act on the trace pairs
[u, u_x] from the two sides through the 2x2 matrices G and H = I - G.
Everything the projections, corrections and the operator need at cell
boundaries is collected here: the endpoint trace map of the Legendre
basis, the Gamma/Lambda quantities, the A1/A2/A3 classification that
decides whether the flux-matching projection is cell-local or a global
periodic solve, and the DFT solver for the latter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .errors import SingularSymbolError

if TYPE_CHECKING:
    from .mesh import Mesh1D

A1_TOL = 1e-12          # detection of alpha1^2 + beta1*beta2 == 1/4
RESONANCE_TOL = 1e-9    # |(.)^N - 1| threshold for the A3 non-resonance checks
SYMBOL_COND_MAX = 1e12  # condition number cutoff for circulant symbol blocks
# det(A_j+B_j) = 2((-1)^k Gamma_j + Lambda_j): the two tests below are
# relative to its scale, so they read as "singular to within a few
# hundred ulps"
LOCAL_DET_TOL = 1e-13   # |det(A_j+B_j)| below this: no cell-local projection
RESIDUAL_DEN_TOL = 1e-13  # |Gamma + (-1)^k Lambda| below this: no residual
GAMMA_ZERO_TOL = 1e-12  # |Gamma_j| below this on a cell: A1 is unsupported
LAMBDA_ZERO_TOL = 1e-14  # |Lambda| below this: Gamma/Lambda is undefined
# companion-matrix roots of the monomial form carry roundoff: a relative
# perturbation eps of the coefficients splits a double root x0 into a
# pair sqrt(2 eps |p| / |p''(x0)|) apart, real or complex conjugate.
# Over k = 2..6 and |x0| < 0.999 the split measured up to 56 sqrt(eps)
ROOT_IMAG_TOL = 64 * np.sqrt(np.finfo(float).eps)  # |imag| above: complex
# roots nearer than this are one root; a longer Newton step is not taken,
# since at a double root f/f' is roundoff over roundoff
ROOT_MERGE_TOL = ROOT_IMAG_TOL
# a double root near a third root (p'' small there) splits wider: up to
# 300 sqrt(eps) over 20000 double roots at k = 2..6, |x0| < 0.999, with
# the third root 7e-5 away.  Two roots nearer than ROOT_CLUSTER_TOL are
# one double root when |p| at their mean is below ROOT_VALUE_TOL * sum|c_m|
# (a bound of |p| on [-1, 1]): roundoff of the Legendre evaluation, where
# two distinct roots g apart give |p''| g^2 / 8
ROOT_CLUSTER_TOL = 1024 * np.sqrt(np.finfo(float).eps)
ROOT_VALUE_TOL = 64 * np.finfo(float).eps
ROOT_EDGE_TOL = 1e-12   # Newton may leave an endpoint root just outside
# node x_j = a + j*h is rounded to within ~1 ulp of max|x|, so a uniform
# mesh has |h_j - h_0| of a few ulps of max(|a|, |b|), whatever N is
UNIFORM_TOL = 16 * np.finfo(float).eps  # |h_j - h_0| / max(|a|, |b|)
STEP_ROUND_TOL = 1e-12  # t_end/dt this near an integer: no remainder step
# rho(S) off a uniform mesh is bisected from an inertia count only to
# report an unstable run; its margin and stable c carry this relative error
RHO_BISECT_TOL = 1e-10
# basis.STIFF2_ZERO_TOL sits in basis.py, which does not import this module


@dataclass(frozen=True)
class FluxConfig:
    """Dimensionless tilde parameters of a scale-invariant flux."""

    alpha1_t: float = 0.0
    beta1_t: float = 0.0
    beta2_t: float = 0.0

    def label(self) -> str:
        return f"({self.alpha1_t:g},{self.beta1_t:g},{self.beta2_t:g})"


#: commonly used parameter choices
CENTRAL = FluxConfig(0.0, 0.0, 0.0)
ALTERNATING = FluxConfig(0.5, 0.0, 0.0)


class ScaledFlux:
    """Flux parameters instantiated at mesh scale h:
    alpha1 = alpha1~, beta1 = beta1~/h, beta2 = beta2~*h."""

    __slots__ = ("alpha1", "beta1", "beta2")

    def __init__(self, alpha1: float, beta1: float, beta2: float):
        self.alpha1, self.beta1, self.beta2 = alpha1, beta1, beta2


class AssumptionClass:
    """Solvability classification of the flux-matching projection; the
    tag is "A1", "A2", "A3" or "Unsupported"."""

    __slots__ = ("tag", "diagnostics", "warning")

    def __init__(self, tag: str, diagnostics: dict,
                 warning: str | None = None):
        self.tag, self.diagnostics, self.warning = tag, diagnostics, warning

    @property
    def supported(self) -> bool:
        return self.tag in ("A1", "A2", "A3")


def scale_flux(cfg: FluxConfig, h: float) -> ScaledFlux:
    if not h > 0:
        raise ValueError("mesh scale h must be positive")
    return ScaledFlux(alpha1=cfg.alpha1_t, beta1=cfg.beta1_t / h,
                      beta2=cfg.beta2_t * h)


def interface_matrices(sf: ScaledFlux) -> tuple[np.ndarray, np.ndarray]:
    """The flux matrices (G, H = I - G) of the interface traces."""
    G = np.array([[0.5 + sf.alpha1, -sf.beta2],
                  [-sf.beta1, 0.5 - sf.alpha1]])
    H = np.eye(2) - G
    G.setflags(write=False)
    H.setflags(write=False)
    return G, H


def trace_maps(k: int, h_sizes) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint traces of the scaled Legendre basis on every cell.

    Returns (R, L), each of shape (N, 2, k+1): R[j, :, m] is [v, v_x] of
    L_{j,m} at the right endpoint of cell j (trace from inside), L[j, :, m]
    the same at its left endpoint.  v_x is the physical derivative
    (2/h_j) L'_m(+-1), with L'_m(1) = m(m+1)/2 and L_m(-1) = (-1)^m.
    A scalar h_sizes gives N = 1.
    """
    m = np.arange(k + 1)
    h = np.atleast_1d(np.asarray(h_sizes, dtype=float))[:, None]
    sgn = (-1.0) ** m
    R = np.empty((len(h), 2, k + 1))
    L = np.empty_like(R)
    R[:, 0] = 1.0
    np.divide(m * (m + 1), h, out=R[:, 1])
    L[:, 0] = sgn
    np.multiply(-sgn, R[:, 1], out=L[:, 1])
    return R, L


def gamma_lambda(sf: ScaledFlux, k: int, h_j):
    """Gamma_j and Lambda_j at the cell width h_j, a float or an array of
    widths (then one entry per width)."""
    s = sf.alpha1 ** 2 + sf.beta1 * sf.beta2
    gamma = (sf.beta1 + sf.beta2 / (h_j * h_j) * k ** 2 * (k ** 2 - 1)
             - 2 * k ** 2 / h_j * (s + 0.25))
    lam = -2 * k / h_j * (s - 0.25)
    return gamma, lam


@lru_cache(maxsize=1)
def classify_assumption(cfg: FluxConfig, mesh: Mesh1D, k: int) -> AssumptionClass:
    """Decide A1 / A2 / A3 / Unsupported for this flux, mesh and degree.

    A1 (local): alpha1^2 + beta1*beta2 = 1/4 and Gamma_j != 0 on every
    cell.  A2 (global): uniform mesh, != 1/4, |Gamma/Lambda| > 1.
    A3 (global): uniform mesh, != 1/4, and the non-resonance conditions
    hold: |Gamma/Lambda| = 1 with odd N and ((-1)^{k+1} Gamma/Lambda)^N
    != 1, or |Gamma/Lambda| < 1 with
    ((-1)^{k+1} Gamma/Lambda + sqrt((Gamma/Lambda)^2 - 1))^N != 1 in
    complex arithmetic.  Near-resonant configurations are reported
    Unsupported with a warning rather than silently solved, and so is a
    Gamma or Lambda past float64.

    One result is cached: a case classifies its flux on its mesh once
    for the row, once per projection and once per correction, and a
    Mesh1D hashes by identity and does not change.
    """
    if k < 2:
        raise ValueError("classification needs k >= 2")
    sf = scale_flux(cfg, mesh.h)
    s = cfg.alpha1_t ** 2 + cfg.beta1_t * cfg.beta2_t
    diag: dict = {"alpha1^2+beta1*beta2": s, "N": mesh.N, "k": k}

    if abs(s - 0.25) <= A1_TOL:
        # a Gamma_j past float64 is refused below, by its scale
        with np.errstate(over="ignore", invalid="ignore"):
            gammas = gamma_lambda(sf, k, mesh.h_sizes)[0]
        scale = np.abs(gammas).max() + 1.0 / mesh.h
        diag["min|Gamma_j|*h"] = float(np.abs(gammas).min() * mesh.h)
        if not math.isfinite(scale):
            return AssumptionClass("Unsupported", diag,
                                   warning="Gamma_j is past float64 on "
                                           "some cell")
        if np.all(np.abs(gammas) > GAMMA_ZERO_TOL * scale):
            return AssumptionClass("A1", diag)
        return AssumptionClass("Unsupported", diag,
                               warning="Gamma_j = 0 on some cell")

    if not mesh.is_uniform:
        return AssumptionClass(
            "Unsupported", diag,
            warning="global projection requires a uniform mesh")

    gamma, lam = gamma_lambda(sf, k, mesh.h)
    diag["Gamma*h"], diag["Lambda*h"] = gamma * mesh.h, lam * mesh.h
    if not (math.isfinite(gamma) and math.isfinite(lam)):
        return AssumptionClass("Unsupported", diag,
                               warning="Gamma or Lambda is past float64: "
                                       "Gamma/Lambda undefined")
    if abs(lam) <= LAMBDA_ZERO_TOL * (abs(gamma) + 1.0 / mesh.h):
        return AssumptionClass("Unsupported", diag,
                               warning="Lambda = 0: Gamma/Lambda undefined")
    rho = gamma / lam
    diag["Gamma/Lambda"] = rho
    sign = (-1.0) ** (k + 1)
    # eigenvalues of Q = -A^{-1}B: sign*(rho +- sqrt(rho^2 - 1))
    eig = sign * (rho + np.sqrt(complex(rho * rho - 1.0)))
    diag["eig(Q)"] = (eig, sign * (rho - np.sqrt(complex(rho * rho - 1.0))))

    if abs(rho) > 1.0 + RESONANCE_TOL:
        return AssumptionClass("A2", diag)

    if abs(abs(rho) - 1.0) <= RESONANCE_TOL:
        val = (sign * rho) ** mesh.N
        diag["resonance"] = abs(val - 1.0)
        if mesh.N % 2 == 1 and abs(val - 1.0) > RESONANCE_TOL:
            return AssumptionClass("A3", diag)
        return AssumptionClass(
            "Unsupported", diag,
            warning="|Gamma/Lambda| = 1 resonance (needs odd N and "
                    "((-1)^(k+1) Gamma/Lambda)^N != 1)")

    val = eig ** mesh.N
    diag["resonance"] = abs(val - 1.0)
    if abs(val - 1.0) > RESONANCE_TOL:
        return AssumptionClass("A3", diag)
    return AssumptionClass(
        "Unsupported", diag,
        warning="near-resonant A3 configuration: |eig(Q)^N - 1| = "
                f"{abs(val - 1.0):.3e}")


def symbol_conds(a, b, c, d) -> np.ndarray:
    """||M||_F^2 / |det M| of the 2x2 blocks M = [[a, b], [c, d]], one per
    entry of the four equal-shape arrays: (sigma1^2 + sigma2^2) /
    (sigma1 sigma2) = cond + 1/cond, with cond = sigma1/sigma2 the 2-norm
    condition number, so at least cond and at most cond + 1.  Each block is
    first divided by its largest entry, so the squares cannot overflow.  A
    zero or non-finite det gives inf or nan."""
    with np.errstate(divide="ignore", invalid="ignore"):
        top = np.maximum(np.maximum(np.abs(a), np.abs(b)),
                         np.maximum(np.abs(c), np.abs(d)))
        a, b, c, d = a / top, b / top, c / top, d / top
        return ((a.real ** 2 + a.imag ** 2 + b.real ** 2 + b.imag ** 2
                 + c.real ** 2 + c.imag ** 2 + d.real ** 2 + d.imag ** 2)
                / np.abs(a * d - b * c))


@lru_cache(maxsize=1)
def _symbol_inverse(a: tuple, b: tuple, N: int) -> np.ndarray:
    """Inverses of the symbols A + omega^l B, l = 0..N-1, as a read-only
    (2, 2, N) array of their entries; a and b are A.ravel(), B.ravel().

    Closed form: the inverse of [[s00, s01], [s10, s11]] is
    [[s11, -s01], [-s10, s00]] / (s00 s11 - s01 s10), with the four entry
    vectors s = a + omega b that the conditioning check also reads.  (The
    expansion det A + w (a00 b11 + a11 b00 - a01 b10 - a10 b01) + w^2 det B
    cancels terms of size |A|^2 where the symbol is smaller than the
    blocks, and then errs up to ~100x more.)  Both blocks are first scaled
    by a power of two near their largest entry, which is exact and keeps
    det from overflowing.  One entry is cached: a uniform mesh's interface
    system is the same in every solve of a case.  A raise is not cached,
    so a singular system raises on every call.
    """
    top = max(map(abs, a + b))
    scale = 2.0 ** -np.frexp(top)[1] if np.isfinite(top) else 1.0
    omega = np.exp(2j * np.pi * np.arange(N) / N)
    s00, s01, s10, s11 = (scale * x + omega * (scale * y)
                          for x, y in zip(a, b))
    conds = symbol_conds(s00, s01, s10, s11)
    bad = np.flatnonzero(~(conds <= SYMBOL_COND_MAX))
    if bad.size:
        l = int(bad[0])
        raise SingularSymbolError(l, float(conds[l]))
    inv = (np.array([[s11, -s01], [-s10, s00]])
           * (scale / (s00 * s11 - s01 * s10)))
    inv.setflags(write=False)
    return inv


def solve_block_circulant(A: np.ndarray, B: np.ndarray,
                          rhs: np.ndarray) -> np.ndarray:
    """Solve the periodic interface system with rows A x_j + B x_{j+1} = r_j.

    The coefficient matrix is block-circulant with first block row
    (A, B, 0, ..., 0); the DFT over the cell index block-diagonalizes it
    into N independent 2x2 systems with symbol A + omega^l B,
    omega = exp(2 pi i / N), whose inverses are taken in closed form
    (_symbol_inverse).  rhs has shape (N, 2); the solution has the same
    shape.  A (near) singular symbol raises SingularSymbolError naming the
    offending frequency.
    """
    rhs = np.asarray(rhs, dtype=complex)
    inv = _symbol_inverse(tuple(np.ravel(A).tolist()),
                          tuple(np.ravel(B).tolist()), rhs.shape[0])
    rhat = np.fft.fft(rhs.T)
    return np.fft.ifft(inv[:, 0] * rhat[0] + inv[:, 1] * rhat[1]).T
