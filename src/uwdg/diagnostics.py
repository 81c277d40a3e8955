"""Error metrics of the superconvergence study.

Flux errors, cell-average error, distance to the flux-matching
projection, point errors at the superconvergence sets, broken L2 errors,
and the observed-order bookkeeping for refinement sweeps.  Integrals use
the over-integration rule of the basis module so reported numbers are
quadrature converged at table scales.  Metrics whose point sets are
empty are reported as the DNE sentinel, never as NaN.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import basis
from .errors import ResidualUndefinedError
from .flux import FluxConfig, ScaledFlux, interface_matrices, scale_flux
from .projection import (AnalyticField, DGFunction, l2_norm, project_star,
                         special_points)

DNE = "DNE"


def numerical_fluxes(u: DGFunction, cfg: FluxConfig):
    """(uhat, uxtilde) of a DG field at its N interfaces x_{j+1/2}."""
    G, H = interface_matrices(scale_flux(cfg, u.mesh.h))
    right, left = u.traces()
    # the interface is the right end of cell j and the left end of j+1
    flux = right @ G.T + np.roll(left, -1, axis=0) @ H.T
    return flux[:, 0], flux[:, 1]


def flux_errors(u_h: DGFunction, f: AnalyticField, t: float,
                cfg: FluxConfig) -> tuple[float, float]:
    """RMS interface errors of the two numerical fluxes against (u, u_x)."""
    uhat, uxt = numerical_fluxes(u_h, cfg)
    xs = u_h.mesh.interfaces
    n = u_h.mesh.N
    e_f = np.sqrt(np.sum(np.abs(f.eval(xs, t, 0) - uhat) ** 2) / n)
    e_fx = np.sqrt(np.sum(np.abs(f.eval(xs, t, 1) - uxt) ** 2) / n)
    return float(e_f), float(e_fx)


def cell_average_error(u_h: DGFunction, f: AnalyticField, t: float) -> float:
    """RMS over cells of the mean-value error |h_j^-1 int (u - u_h)|."""
    mesh = u_h.mesh
    rule = basis.gauss_rule(basis.default_quad_points(u_h.k))
    fv = f.eval(mesh.quad_points(rule.nodes), t, 0)
    mean_exact = 0.5 * (fv @ rule.weights)      # h_j^-1 int u = mean on ref
    mean_h = u_h.coeffs[:, 0]
    return float(np.sqrt(np.sum(np.abs(mean_exact - mean_h) ** 2) / mesh.N))


def broken_l2_error(u_h: DGFunction, f: AnalyticField, t: float) -> float:
    """|| u - u_h || over the mesh by per-cell quadrature."""
    mesh = u_h.mesh
    rule = basis.gauss_rule(basis.default_quad_points(u_h.k))
    diff = f.eval(mesh.quad_points(rule.nodes), t, 0) - u_h.eval_ref(rule.nodes)
    cell = 0.5 * mesh.h_sizes * (np.abs(diff) ** 2 @ rule.weights)
    return float(np.sqrt(np.sum(cell)))


def projection_error(u_h: DGFunction, f: AnalyticField, t: float,
                     cfg: FluxConfig,
                     ps: DGFunction | None = None) -> float:
    """|| u_h - Pstar u || at time t; ps is project_star(f, t) on u_h's
    mesh, built here when not given."""
    if ps is None:
        ps = project_star(f, t, u_h.mesh, u_h.k, cfg)
    return l2_norm(u_h - ps)


def _point_tables(k: int, h_j, sf: ScaledFlux):
    """The three root sets of special_points(k, h_j, sf), their owners,
    and the Legendre table of each set: (n_s, k+1) values of the s-th
    derivative of L_0..L_k at the n_s roots of set s."""
    pts = special_points(k, h_j, sf)
    sets = pts.sets()
    table = basis.legendre_table(k, np.concatenate(sets), ders=2)
    table.setflags(write=False)
    starts = np.cumsum([0] + [xi.size for xi in sets])
    tabs = tuple(table[starts[s]:starts[s + 1], s, :] for s in range(3))
    return sets, pts.owners, tabs


@lru_cache(maxsize=16)
def _unit_point_tables(k: int, cfg: FluxConfig):
    """_point_tables of one cell at unit width, read-only.  Under the tilde
    scaling of FluxConfig every term of Gamma, Lambda and of the
    numerators of the residual's b and c goes as 1/h, so b and c, and
    with them the sets, are those of any one uniform width.  A
    ResidualUndefinedError is raised again on every call: lru_cache keeps
    only returned values."""
    sets, _, tabs = _point_tables(k, 1.0, scale_flux(cfg, 1.0))
    for xi in sets:
        xi.setflags(write=False)
    return sets, tabs


def point_errors(u_h: DGFunction, f: AnalyticField, t: float,
                 cfg: FluxConfig):
    """Average point-value errors (E_u, E_ux, E_uxx) at the root sets of
    the leading residual and its first two derivatives.

    Points are per-cell reference roots (one-sided evaluation at cell
    endpoints when those are roots); an empty set yields the DNE
    sentinel for that metric.  The point sets depend on a cell only
    through the residual's b and c at h_j.  For the tilde-scaled fluxes
    every term of Gamma, Lambda and of the numerators of b and c goes as
    1/h_j, so b and c do not depend on h_j on a uniform mesh: one set
    serves every cell, taken at unit width with its Legendre table once
    per (k, flux) and cached.  Any other mesh has one set per cell, all
    from one special_points call at its widths and one Legendre table.
    Positions and chain-rule factors use each cell's own h_j.
    """
    mesh, k = u_h.mesh, u_h.k
    uniform = mesh.is_uniform
    if uniform:
        try:
            sets, tabs = _unit_point_tables(k, cfg)
        except ResidualUndefinedError:
            # raised again at the mesh's width, so that the row note names
            # Gamma + (-1)^k Lambda there
            sets, _, tabs = _point_tables(k, mesh.h, scale_flux(cfg, mesh.h))
        owners = (None,) * 3
    else:
        sets, owners, tabs = _point_tables(k, mesh.h_sizes,
                                           scale_flux(cfg, mesh.h))
    sums = np.zeros(3)
    counts = np.zeros(3, dtype=int)
    for s, (xi, owner, tab) in enumerate(zip(sets, owners, tabs)):
        if xi.size == 0:
            continue
        # cell j of point i: every cell takes the whole set on a uniform
        # mesh (a (N, 1) column against the row of points)
        j = np.arange(mesh.N)[:, None] if uniform else owner
        hj = mesh.h_sizes[j]
        x = mesh.centers[j] + 0.5 * hj * xi
        uh = (u_h.coeffs @ tab.T if uniform
              else np.sum(u_h.coeffs[j] * tab, axis=1))
        uh_vals = uh * (2.0 / hj) ** s
        sums[s] += np.sum(np.abs(f.eval(x, t, s) - uh_vals) ** 2)
        counts[s] += x.size
    return tuple(
        float(np.sqrt(sums[s] / counts[s])) if counts[s] else DNE
        for s in range(3)
    )


def observed_orders(errors, Ns) -> list:
    """Pairwise dyadic orders log2(e_N / e_2N); entries where either error
    is non-positive/non-finite are None."""
    Ns = list(Ns)
    for a, b in zip(Ns, Ns[1:]):
        if b != 2 * a:
            raise ValueError("observed orders need a strictly doubling N list")
    out = []
    for e0, e1 in zip(errors, errors[1:]):
        ok = (isinstance(e0, (int, float)) and isinstance(e1, (int, float))
              and np.isfinite(e0) and np.isfinite(e1) and e0 > 0 and e1 > 0)
        out.append(float(np.log2(e0 / e1)) if ok else None)
    return out


class ErrorReport:
    """Rows of per-N metrics plus run metadata; the study runner attaches
    orders, each metric's list aligned with rows[1:]."""

    __slots__ = ("meta", "metric_names", "rows", "orders")

    def __init__(self, meta: dict, metric_names: list[str],
                 rows: list[dict] | None = None, orders: dict | None = None):
        self.meta, self.metric_names = meta, metric_names
        self.rows = [] if rows is None else rows
        self.orders = {} if orders is None else orders
