"""Correction functions, the superconvergent reference interpolant, and
the deviation diagnostics.

w_0 = u - Pstar u.  Each w_q (q >= 1) is the DG field whose volume
moments against second antiderivatives cancel the time derivative of
w_{q-1} and whose numerical fluxes vanish at every interface, so its
Legendre support starts at degree k-1-2q and its size shrinks by two
orders per level.  The reference interpolant u_I = Pstar u - sum w_q is
what the DG solution actually tracks; zeta_h = u_I - u_h and its jumps
superconverge well beyond the plain error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import basis
from .flux import AssumptionClass, FluxConfig, classify_assumption, scale_flux
from .mesh import Mesh1D
from .projection import (AnalyticField, DGFunction, _resolve_class,
                         _top_two, project_l2, project_star,
                         time_derivative_field)


def max_correction_levels(k: int) -> int:
    return (k - 1) // 2


def _d2_table(k: int) -> np.ndarray:
    """tab[m, n] = n-th Legendre coefficient of the double antiderivative
    of L_m, for m <= k-2 (degree m+2 <= k, so it fits in k+1 slots)."""
    tab = np.zeros((max(k - 1, 0), k + 1))
    for m in range(k - 1):
        e = np.zeros(m + 1)
        e[m] = 1.0
        tab[m, : m + 3] = basis.antiderivative_map(2, e)
    return tab


@dataclass
class CorrectionSet:
    """Correction fields w_1..w_q_max at one time, with the time-derivative
    cache (q, r) -> coefficient array used by the recursion."""

    mesh: Mesh1D
    k: int
    cfg: FluxConfig
    q_max: int
    t: float
    w: list[DGFunction]
    _cache: dict


def build_correction(f: AnalyticField, t: float, mesh: Mesh1D, k: int,
                     cfg: FluxConfig, q_max: int | None = None,
                     cls: AssumptionClass | None = None) -> CorrectionSet:
    """Construct w_q for q = 1..q_max (default floor((k-1)/2)).

    The recursion w(q, r) <- w(q-1, r+1) is memoized; time derivatives of
    the exact field enter through d_t^r u = i^r d_x^{2r} u, so only
    spatial derivatives of f are required.  All volume integrals are
    evaluated exactly as Legendre coefficient products: for q = 1 only
    the degree k-1, k components of d_t u - Pstar d_t u contribute, and
    for q >= 2 the integrand is already polynomial.
    """
    if q_max is None:
        q_max = max_correction_levels(k)
    q_max = min(q_max, max_correction_levels(k))
    if q_max > 0:
        cls = _resolve_class(cfg, mesh, k, cls)
        if f.d_max < 2 * q_max + 1:
            raise ValueError("field does not supply enough derivatives "
                             "for the requested correction depth")
    sf = scale_flux(cfg, mesh.h)
    d2tab = _d2_table(k)
    inv_odd = 1.0 / (2 * np.arange(k + 1) + 1)
    cache: dict = {}

    def w0_trunc(r: int) -> np.ndarray:
        # degree <= k part of d_t^r w_0; only modes k-1, k are nonzero
        key = (0, r)
        if key not in cache:
            fr = time_derivative_field(f, r)
            p0 = project_l2(fr, t, mesh, k)
            ps = project_star(fr, t, mesh, k, cfg, cls=cls)
            cache[key] = p0.coeffs - ps.coeffs
        return cache[key]

    def wq(q: int, r: int) -> np.ndarray:
        if q == 0:
            return w0_trunc(r)
        key = (q, r)
        if key in cache:
            return cache[key]
        prev = wq(q - 1, r + 1)
        coeffs = np.zeros((mesh.N, k + 1), dtype=complex)
        # low modes from the exact antiderivative inner products
        inner = (prev * inv_odd) @ d2tab.T              # (N, k-1)
        fac = -1j * (2 * np.arange(k - 1) + 1) / 4.0
        coeffs[:, : k - 1] = inner * fac * mesh.h_sizes[:, None] ** 2
        # the numerical fluxes of w_q vanish at every interface
        coeffs[:, k - 1:] = _top_two(cls, mesh, k, sf, coeffs,
                                     np.zeros((mesh.N, 2)))
        cache[key] = coeffs
        return coeffs

    w = [DGFunction(mesh, k, wq(q, 0)) for q in range(1, q_max + 1)]
    return CorrectionSet(mesh=mesh, k=k, cfg=cfg, q_max=q_max, t=t,
                         w=w, _cache=cache)


def reference_interpolant(f: AnalyticField, t: float, mesh: Mesh1D, k: int,
                          cfg: FluxConfig, q_max: int | None = None,
                          cls: AssumptionClass | None = None) -> DGFunction:
    """u_I = Pstar u - sum_q w_q (u_I = Pstar u when k = 2)."""
    if cls is None:
        cls = classify_assumption(cfg, mesh, k)
    out = project_star(f, t, mesh, k, cfg, cls=cls)
    cset = build_correction(f, t, mesh, k, cfg, q_max=q_max, cls=cls)
    for wq_ in cset.w:
        out = out - wq_
    return out


def second_derivative_norm(u: DGFunction) -> float:
    """Broken L2 norm of the second derivative via coefficient algebra."""
    d = basis.legendre_derivative_matrix(u.k)
    dd = (d @ d).T
    c2 = u.coeffs @ dd * (2.0 / u.mesh.h_sizes[:, None]) ** 2
    w = u.mesh.h_sizes[:, None] / (2 * np.arange(u.k + 1) + 1)
    return float(np.sqrt(np.sum(np.abs(c2) ** 2 * w).real))


def interface_jumps(u: DGFunction) -> tuple[np.ndarray, np.ndarray]:
    """Jumps [u] and [u_x] at the N interfaces (plus minus minus trace)."""
    right, left = u.traces()
    jump = np.roll(left, -1, axis=0) - right
    return jump[:, 0], jump[:, 1]


def zeta_diagnostics(u_h: DGFunction, f: AnalyticField, t: float,
                     cfg: FluxConfig, q_max: int | None = None,
                     cls: AssumptionClass | None = None) -> dict:
    """Norms and interface jumps of zeta_h = u_I - u_h:
    returns {"zeta", "zeta_xx", "zeta_jump", "zeta_x_jump"} with the jump
    metrics as RMS over interfaces (1/N normalization)."""
    from .solver import l2_norm
    u_i = reference_interpolant(f, t, u_h.mesh, u_h.k, cfg,
                                q_max=q_max, cls=cls)
    zeta = u_i - u_h
    jump, djump = interface_jumps(zeta)
    n = u_h.mesh.N
    return {
        "zeta": l2_norm(zeta),
        "zeta_xx": second_derivative_norm(zeta),
        "zeta_jump": float(np.sqrt(np.sum(np.abs(jump) ** 2) / n)),
        "zeta_x_jump": float(np.sqrt(np.sum(np.abs(djump) ** 2) / n)),
    }
