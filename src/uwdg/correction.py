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

from functools import lru_cache

import numpy as np

from . import basis
from .flux import FluxConfig, classify_assumption  # tracer.py patches it
from .mesh import Mesh1D, _is_integer
from .projection import (AnalyticField, DGFunction, _resolve_class,
                         _top_two, interface_data, l2_norm, project_l2,
                         project_star, time_derivative_field)


def max_correction_levels(k: int) -> int:
    return (k - 1) // 2


@lru_cache(maxsize=8)
def _d2_table(k: int) -> np.ndarray:
    """tab[m, n] = n-th Legendre coefficient of the double antiderivative
    of L_m, for m <= k-2 (degree m+2 <= k, so it fits in k+1 slots);
    cached per k, read-only."""
    tab = np.zeros((max(k - 1, 0), k + 1))
    for m in range(k - 1):
        e = np.zeros(m + 1)
        e[m] = 1.0
        tab[m, : m + 3] = basis.antiderivative_map(2, e)
    tab.setflags(write=False)
    return tab


def build_correction(f: AnalyticField, t: float, mesh: Mesh1D, k: int,
                     cfg: FluxConfig,
                     q_max: int | None = None) -> list[DGFunction]:
    """The correction fields [w_1, .., w_q_max] at time t; q_max, an
    integer in 0..floor((k-1)/2), defaults to floor((k-1)/2), and any
    other value raises ValueError.

    w_q is reached from d_t^q w_0 in q steps d_t^r w_p -> d_t^{r-1} w_{p+1};
    the chains of different q share no term.  Time derivatives of the
    exact field enter through d_t^r u = i^r d_x^{2r} u, so only spatial
    derivatives of f are required.  All volume integrals are evaluated
    exactly as Legendre coefficient products: the degree <= k part of
    d_t^q w_0 = d_t^q u - Pstar d_t^q u has only the modes k-1, k (below
    them Pstar is the L2 projection), and for p >= 1 the integrand is
    already polynomial.
    """
    levels = max_correction_levels(k)
    if q_max is None:
        q_max = levels
    elif not (_is_integer(q_max) and 0 <= q_max <= levels):
        raise ValueError(f"q_max = {q_max!r} is not an integer in "
                         f"0..{levels} at k = {k}")
    if q_max > 0:
        cls = _resolve_class(cfg, mesh, k)
        if f.d_max < 2 * q_max + 1:
            raise ValueError("field does not supply enough derivatives "
                             "for the requested correction depth")
    d2tab = _d2_table(k)
    inv_odd = 1.0 / (2 * np.arange(k + 1) + 1)
    fac = -1j * (2 * np.arange(k - 1) + 1) / 4.0
    h2 = mesh.h_sizes[:, None] ** 2
    no_flux = np.zeros((mesh.N, 2))
    w = []
    for q in range(1, q_max + 1):
        fq = time_derivative_field(f, q)
        p0 = project_l2(fq, t, mesh, k)
        prev = np.zeros_like(p0.coeffs)
        prev[:, k - 1:] = p0.coeffs[:, k - 1:] - _top_two(
            cls, mesh, k, cfg, p0.coeffs, interface_data(fq, t, mesh))
        for _ in range(q):
            coeffs = np.zeros((mesh.N, k + 1), dtype=complex)
            # low modes from the exact antiderivative inner products
            coeffs[:, : k - 1] = (prev * inv_odd) @ d2tab.T * fac * h2
            # the numerical fluxes of the next level vanish at every
            # interface
            coeffs[:, k - 1:] = _top_two(cls, mesh, k, cfg, coeffs, no_flux)
            prev = coeffs
        w.append(DGFunction(mesh, k, prev))
    return w


def reference_interpolant(f: AnalyticField, t: float, mesh: Mesh1D, k: int,
                          cfg: FluxConfig, q_max: int | None = None,
                          ps: DGFunction | None = None) -> DGFunction:
    """u_I = Pstar u - sum_q w_q (u_I = Pstar u when k = 2); ps is
    project_star(f, t) on this mesh, built here when not given."""
    out = ps if ps is not None else project_star(f, t, mesh, k, cfg)
    for wq in build_correction(f, t, mesh, k, cfg, q_max=q_max):
        out = out - wq
    return out


def second_derivative_norm(u: DGFunction) -> float:
    """Broken L2 norm of the second derivative via coefficient algebra."""
    d = basis.legendre_derivative_matrix(u.k)
    dd = (d @ d).T
    c2 = u.coeffs @ dd * (2.0 / u.mesh.h_sizes[:, None]) ** 2
    w = u.mesh.parseval_weights(u.k)
    return float(np.sqrt(np.sum(np.abs(c2) ** 2 * w).real))


def interface_jumps(u: DGFunction) -> tuple[np.ndarray, np.ndarray]:
    """Jumps [u] and [u_x] at the N interfaces (plus minus minus trace)."""
    right, left = u.traces()
    jump = np.roll(left, -1, axis=0) - right
    return jump[:, 0], jump[:, 1]


def zeta_diagnostics(u_h: DGFunction, f: AnalyticField, t: float,
                     cfg: FluxConfig, q_max: int | None = None,
                     ps: DGFunction | None = None) -> dict:
    """Norms and interface jumps of zeta_h = u_I - u_h:
    returns {"zeta", "zeta_xx", "zeta_jump", "zeta_x_jump"} with the jump
    metrics as RMS over interfaces (1/N normalization).  ps is
    project_star(f, t) on u_h's mesh, built here when not given."""
    u_i = reference_interpolant(f, t, u_h.mesh, u_h.k, cfg,
                                q_max=q_max, ps=ps)
    zeta = u_i - u_h
    jump, djump = interface_jumps(zeta)
    n = u_h.mesh.N
    return {
        "zeta": l2_norm(zeta),
        "zeta_xx": second_derivative_norm(zeta),
        "zeta_jump": float(np.sqrt(np.sum(np.abs(jump) ** 2) / n)),
        "zeta_x_jump": float(np.sqrt(np.sum(np.abs(djump) ** 2) / n)),
    }
