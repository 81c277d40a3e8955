"""DG fields, exact-solution providers, and the flux-matching projections.

P0 is the cellwise L2 projection.  The flux-matching projection Pstar
keeps the L2 moments up to degree k-2 and replaces the top two Legendre
coefficients per cell so that the numerical fluxes of the projection
reproduce (u, u_x) exactly at every interface; depending on the flux
class this is a per-cell 2x2 solve (A1) or one periodic block-circulant
solve (A2/A3).  The leading residual polynomial L_{k+1} + b L_k
+ c L_{k-1} and the root sets D0/D1/D2 of its first three derivative
orders mark where the DG error superconverges.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

from . import basis
from .errors import ProjectionUndefinedError, ResidualUndefinedError
from .flux import (LOCAL_DET_TOL, RESIDUAL_DEN_TOL, ROOT_CLUSTER_TOL,
                   ROOT_EDGE_TOL, ROOT_IMAG_TOL, ROOT_MERGE_TOL,
                   ROOT_VALUE_TOL, AssumptionClass, FluxConfig,
                   ScaledFlux, classify_assumption, gamma_lambda,
                   interface_matrices, scale_flux, solve_block_circulant,
                   trace_maps)
from .mesh import Mesh1D


class DGFunction:
    """Complex piecewise polynomial stored as per-cell Legendre coefficients.

    coeffs[j, m] multiplies L_{j,m}(x) = L_m(2(x - x_j)/h_j); shape (N, k+1).
    """

    __slots__ = ("mesh", "k", "coeffs")

    def __init__(self, mesh: Mesh1D, k: int, coeffs: np.ndarray):
        self.mesh = mesh
        self.k = k
        self.coeffs = np.asarray(coeffs, dtype=complex)
        if self.coeffs.shape != (mesh.N, k + 1):
            raise ValueError("coefficient array has wrong shape")

    def copy(self) -> "DGFunction":
        return DGFunction(self.mesh, self.k, self.coeffs.copy())

    def __sub__(self, other: "DGFunction") -> "DGFunction":
        return DGFunction(self.mesh, self.k, self.coeffs - other.coeffs)

    def eval_ref(self, xi, s: int = 0) -> np.ndarray:
        """Evaluate the s-th x-derivative at reference points xi in every
        cell; returns shape (N, len(xi)).  Chain rule factors (2/h_j)^s
        are applied."""
        xi = np.atleast_1d(xi)
        tab = basis.legendre_table(self.k, xi, ders=s)[:, s, :]  # (nq, k+1)
        vals = self.coeffs @ tab.T
        if s:
            vals = vals * (2.0 / self.mesh.h_sizes[:, None]) ** s
        return vals

    def traces(self) -> tuple[np.ndarray, np.ndarray]:
        """One-sided [value, physical derivative] at the right and left
        endpoint of every cell: (right, left), each of shape (N, 2)."""
        R, L = trace_maps(self.k, self.mesh.h_sizes)
        c = self.coeffs[:, :, None]
        return (R @ c)[:, :, 0], (L @ c)[:, :, 0]


def l2_norm(u: DGFunction) -> float:
    """Parseval: ||u||^2 = sum |c_{j,m}|^2 h_j/(2m+1)."""
    w = u.mesh.parseval_weights(u.k)
    return float(np.sqrt(np.sum(np.sum(np.abs(u.coeffs) ** 2 * w,
                                       axis=1)).real))


class AnalyticField:
    """Exact-solution provider: eval(x, t, d) returns the d-th spatial
    derivative of u(x, t).  Time derivatives are obtained by callers via
    the evolution identity d_t^r u = i^r d_x^{2r} u."""

    __slots__ = ("eval", "d_max")

    def __init__(self, eval: Callable[[np.ndarray, float, int], np.ndarray],
                 d_max: int):
        self.eval, self.d_max = eval, d_max


def plane_wave(kappa: float = 3.0) -> AnalyticField:
    """Periodic plane wave exp(i kappa (x - kappa t)) on [0, 2 pi]."""

    def _eval(x, t, d=0):
        x = np.asarray(x, dtype=float)
        return (1j * kappa) ** d * np.exp(1j * kappa * (x - kappa * t))

    return AnalyticField(eval=_eval, d_max=10 ** 6)


def time_derivative_field(f: AnalyticField, r: int) -> AnalyticField:
    """The r-th time derivative of an evolution field, as a spatial field:
    d_t^r u = i^r d_x^{2r} u."""

    def _eval(x, t, d=0):
        return (1j ** r) * f.eval(x, t, d + 2 * r)

    return AnalyticField(eval=_eval, d_max=f.d_max - 2 * r)


def project_l2(f: AnalyticField, t: float, mesh: Mesh1D,
               k: int) -> DGFunction:
    """Cellwise L2 projection onto degree <= k via over-integrated Gauss
    quadrature: coeffs[j, m] = (2m+1)/h_j * int_{I_j} f L_{j,m}."""
    n_quad = basis.default_quad_points(k)
    fv = f.eval(mesh.quad_points(basis.gauss_rule(n_quad).nodes), t, 0)
    coeffs = ((fv @ basis.weighted_legendre_table(k, n_quad))
              * ((2 * np.arange(k + 1) + 1) / 2.0))
    return DGFunction(mesh, k, coeffs)


def interface_data(f: AnalyticField, t: float, mesh: Mesh1D) -> np.ndarray:
    """Exact [u, u_x] at the N interfaces x_{j+1/2}, shape (N, 2)."""
    xs = mesh.interfaces
    return np.column_stack([f.eval(xs, t, 0), f.eval(xs, t, 1)])


def _resolve_class(cfg: FluxConfig, mesh: Mesh1D, k: int) -> AssumptionClass:
    """The class that solves the projection; refuses an unsupported one."""
    cls = classify_assumption(cfg, mesh, k)
    if not cls.supported:
        raise ProjectionUndefinedError(
            f"flux {cfg.label()} on this mesh is {cls.tag}: {cls.warning}")
    return cls


def _footprints(k: int, sf: ScaledFlux,
                h_sizes) -> tuple[np.ndarray, np.ndarray]:
    """Interface footprints G R and H L of every mode, each (N, 2, k+1):
    what mode m of cell j adds to the fluxes at its right and left
    endpoint.

    Columns k-1, k are the boundary blocks A_j = G [L^-_{k-1}, L^-_k] and
    B_j = H [L^+_{k-1}, L^+_k], with L^-_m and L^+_m the right and left
    endpoint traces [v, v_x] of L_{j,m}.  They satisfy
    det(A_j + B_j) = 2((-1)^k Gamma_j + Lambda_j), which is 2(-1)^k Gamma_j
    in the local class A1 (Lambda = 0).  On a uniform mesh the
    eigenvalues of Q = -A^{-1} B are (-1)^{k+1} (rho +- sqrt(rho^2 - 1)),
    rho = Gamma/Lambda; they decide A2/A3 (classify_assumption)."""
    G, H = interface_matrices(sf)
    R, L = trace_maps(k, h_sizes)
    return G @ R, H @ L


def _top_two_local(mesh: Mesh1D, k: int, cfg: FluxConfig,
                   low_coeffs: np.ndarray, iface: np.ndarray) -> np.ndarray:
    """Per-cell 2x2 solves (A_j + B_j) y_j = data_j - footprint(low modes).

    Cell j sees its own endpoints: data_j = G [u,u_x](x_{j+1/2})
    + H [u,u_x](x_{j-1/2}) from the interface data iface (zero for
    correction functions).  Returns (N, 2).
    """
    sf = scale_flux(cfg, mesh.h)
    F = sum(_footprints(k, sf, mesh.h_sizes))
    G, H = interface_matrices(sf)
    data = iface @ G.T + np.roll(iface, 1, axis=0) @ H.T
    AB = F[:, :, k - 1:]
    det = AB[:, 0, 0] * AB[:, 1, 1] - AB[:, 0, 1] * AB[:, 1, 0]
    bad = np.flatnonzero(np.abs(det) <= LOCAL_DET_TOL
                         * (np.abs(AB).max(axis=(1, 2)) ** 2 + 1e-300))
    if bad.size:
        j = int(bad[0])
        raise ProjectionUndefinedError(
            f"cell-local projection undefined on cell {j}: "
            f"(-1)**(k+1) * Gamma_j/Lambda_j == 1 "
            f"(det(A_j+B_j) = {det[j]:.3e})")
    r = data - (F[:, :, : k - 1] @ low_coeffs[:, : k - 1, None])[:, :, 0]
    return np.linalg.solve(AB, r[:, :, None])[:, :, 0]


@lru_cache(maxsize=1)
def _uniform_footprints(k: int, cfg: FluxConfig, h: float) -> tuple:
    """_footprints of one cell of the uniform width h, read-only: those
    of the low modes as one (k-1, 4) matrix, columns G R then H L, and the
    boundary blocks A and B.  One entry is cached: the projections and
    corrections of a case share (k, cfg, h), so it serves every global
    solve of the case."""
    GR, HL = _footprints(k, scale_flux(cfg, h), h)
    low = np.concatenate([GR[0, :, :k - 1], HL[0, :, :k - 1]]).T
    A, B = GR[0, :, k - 1:], HL[0, :, k - 1:]
    for a in (low, A, B):
        a.setflags(write=False)
    return low, A, B


def _top_two_global(mesh: Mesh1D, k: int, cfg: FluxConfig,
                    low_coeffs: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Coupled interface rows A y_j + B y_{j+1} = data_j - footprints,
    solved by the block-circulant DFT factorization (uniform mesh of
    width mesh.h)."""
    low, A, B = _uniform_footprints(k, cfg, mesh.h)
    # the known low modes reach interface j+1/2 from cell j (through G)
    # and from cell j+1 (through H)
    fp = low_coeffs[:, : k - 1] @ low
    rhs = data - fp[:, :2]
    rhs[:-1] -= fp[1:, 2:]
    rhs[-1] -= fp[0, 2:]
    return solve_block_circulant(A, B, rhs)


def _top_two(cls: AssumptionClass, mesh: Mesh1D, k: int, cfg: FluxConfig,
             low_coeffs: np.ndarray, iface: np.ndarray) -> np.ndarray:
    """Top two coefficients per cell matching the interface data iface,
    (N, 2) at x_{j+1/2}: cell-local under A1, one periodic solve else."""
    solve = _top_two_local if cls.tag == "A1" else _top_two_global
    return solve(mesh, k, cfg, low_coeffs, iface)


def project_star(f: AnalyticField, t: float, mesh: Mesh1D, k: int,
                 cfg: FluxConfig) -> DGFunction:
    """Flux-matching projection: L2 moments up to k-2, and the scheme's
    numerical fluxes evaluated on the result equal (u, u_x) at every
    interface.  Right-hand data uses the exact interface values of f."""
    if k < 2:
        raise ValueError("projection needs k >= 2")
    if f.d_max < 1:
        raise ValueError("field must supply first derivatives")
    cls = _resolve_class(cfg, mesh, k)
    out = project_l2(f, t, mesh, k)
    iface = interface_data(f, t, mesh)
    out.coeffs[:, k - 1:] = _top_two(cls, mesh, k, cfg, out.coeffs, iface)
    return out


class LeadingResidual:
    """R_{k+1} = L_{k+1} + b L_k + c L_{k-1} on the reference interval;
    b and c are floats, or arrays with one entry per cell width."""

    __slots__ = ("k", "b", "c")

    def __init__(self, k: int, b: float | np.ndarray, c: float | np.ndarray):
        self.k, self.b, self.c = k, b, c

    def legendre_coeffs(self, s: int = 0) -> np.ndarray:
        """Legendre coefficients of the s-th derivative, shape
        shape(b) + (k+2,)."""
        coef = np.zeros(np.shape(self.b) + (self.k + 2,))
        coef[..., self.k + 1] = 1.0
        coef[..., self.k] = self.b
        coef[..., self.k - 1] = self.c
        d = basis.legendre_derivative_matrix(self.k + 1)
        for _ in range(s):
            coef = (d @ coef[..., None])[..., 0]
        return coef


class SpecialPoints:
    """Reference-interval superconvergence point sets.

    sets = (D0, D1, D2): sets[s] holds the real roots in [-1, 1] of the
    s-th derivative of the leading residual; an empty array means the set
    does not exist (DNE).  For an array of cell widths the sets of every
    width are laid end to end, and owners[s][i] is the index of the width
    that root i of set s belongs to.  Each width's roots are sorted.
    """

    __slots__ = ("residual", "sets", "owners")

    def __init__(self, residual: LeadingResidual, sets: tuple, owners: tuple):
        self.residual, self.sets, self.owners = residual, sets, owners


def leading_residual(k: int, h_j, sf: ScaledFlux) -> LeadingResidual:
    """Coefficients b, c of the leading projection-error polynomial at the
    cell width h_j, a float or an array of widths.

    Evaluated directly from the scaled parameters at the given cell width
    (the h-dependent terms cancel for scale-invariant fluxes on uniform
    meshes; no symbolic simplification is attempted)."""
    s = sf.alpha1 ** 2 + sf.beta1 * sf.beta2
    gamma, lam = gamma_lambda(sf, k, h_j)
    den = gamma + (-1.0) ** k * lam
    scale = np.abs(gamma) + np.abs(lam) + 1.0 / h_j
    bad = np.flatnonzero(np.abs(den) <= RESIDUAL_DEN_TOL * scale)
    if bad.size:
        raise ResidualUndefinedError(
            "leading residual undefined: Gamma + (-1)^k Lambda = "
            f"{np.ravel(den)[bad[0]]:.3e}")
    b = -(2 * sf.alpha1 * (2 * k + 1) / h_j) / den
    c_num = (sf.beta1
             - 2 * (k + 1) ** 2 / h_j * (s + 0.25)
             - (-1.0) ** (k + 1) * 2 * (k + 1) / h_j * (s - 0.25)
             + sf.beta2 / (h_j * h_j) * k * (k + 2) * (k + 1) ** 2)
    c = -c_num / den
    if not (np.isfinite(b).all() and np.isfinite(c).all()):
        raise ResidualUndefinedError(
            "leading residual undefined: its b or c is not finite")
    return LeadingResidual(k=k, b=b, c=c)


def _leg2poly_rows(c: np.ndarray) -> np.ndarray:
    """Monomial coefficients of every row of a (G, n) stack of Legendre
    series, by numpy's leg2poly recurrence, step for step."""
    G, n = c.shape
    if n < 3:
        return c.copy()
    c0, c1 = c[:, -2:-1], c[:, -1:]
    for i in range(n - 1, 1, -1):
        t = (c1 * (i - 1)) / i
        x_c1 = np.zeros((G, c1.shape[1] + 1))
        x_c1[:, 1:] = c1
        x_c1 = (x_c1 * (2 * i - 1)) / i
        x_c1[:, :c0.shape[1]] += c0
        c0 = -t
        c0[:, 0] = c[:, i - 2] - t[:, 0]
        c1 = x_c1
    out = np.zeros((G, n))
    out[:, 1:] = c1
    out[:, :c0.shape[1]] += c0
    return out


def legendre_roots(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real roots inside [-1, 1] of every row of a stack of Legendre
    series, coeffs of shape (G, deg+1) with deg >= 1 and a nonzero top
    coefficient in each row.

    The roots are the eigenvalues of the companion matrices of the
    monomial form, one batched eigvals for the stack, sorted by real part.
    Each gets one Newton step on the (stable) Legendre evaluation, unless
    the step is longer than ROOT_MERGE_TOL: at a double root, split by
    roundoff into a pair ~sqrt(eps) apart, f/f' is roundoff over roundoff.
    Two neighbours less than ROOT_CLUSTER_TOL apart whose mean is a root to
    roundoff (|p| <= ROOT_VALUE_TOL * sum|c_m|) are one double root at
    that mean, whatever their imaginary parts; this catches a double root
    next to a third root, which roundoff splits wider.  Then, for all at
    once: |imag| <= ROOT_IMAG_TOL, |xi| <= 1 + ROOT_EDGE_TOL (roots at cell
    endpoints are genuine members of the sets), and within a row a root
    less than ROOT_MERGE_TOL above the last one kept is its duplicate.
    Each step is the arithmetic of numpy's polyroots on one row, so each
    row's roots are those of the one-row stack, bit for bit.  Returns
    (row, root) as flat arrays, ordered by row and then by root.
    """
    G, n = coeffs.shape[0], coeffs.shape[1] - 1
    mono = _leg2poly_rows(coeffs)
    mat = np.zeros((G, n, n))
    mat[:, np.arange(1, n), np.arange(n - 1)] = 1.0
    mat[:, :, -1] -= mono[:, :-1] / mono[:, -1:]
    roots = np.sort(np.linalg.eigvals(mat), axis=1)
    x = roots.real
    tab = basis.legendre_table(n, x)[..., 0, None, :]    # (G, n, 1, n+1)
    dcoef = basis.legendre_derivative_matrix(n) @ coeffs[:, :, None]
    # (1, n+1) @ (n+1, 1) products: dot products, as in the one-row case
    val = (tab @ coeffs[:, None, :, None])[..., 0, 0]
    der = (tab @ dcoef[:, None])[..., 0, 0]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        step = val / der
    x = np.where(np.abs(step) <= ROOT_MERGE_TOL, x - step, x)
    keep = np.abs(roots.imag) <= ROOT_IMAG_TOL
    pair = np.abs(np.diff(roots, axis=1)) <= ROOT_CLUSTER_TOL
    if pair.any():
        mean = 0.5 * (roots.real[:, :-1] + roots.real[:, 1:])
        tab = basis.legendre_table(n, mean)[..., 0, None, :]
        pval = (tab @ coeffs[:, None, :, None])[..., 0, 0]
        pair &= (np.abs(pval) <= ROOT_VALUE_TOL
                 * np.abs(coeffs).sum(axis=1, keepdims=True))
        for side in (slice(None, -1), slice(1, None)):   # both of a pair
            x[:, side] = np.where(pair, mean, x[:, side])
            keep[:, side] |= pair
    keep &= np.abs(x) <= 1.0 + ROOT_EDGE_TOL
    x = np.sort(np.where(keep, np.clip(x, -1.0, 1.0), np.inf), axis=1)
    keep = np.isfinite(x)
    last = x[:, 0]
    with np.errstate(invalid="ignore"):        # inf - inf past the roots
        for i in range(1, n):   # at most deg columns, each over all rows
            keep[:, i] &= x[:, i] - last > ROOT_MERGE_TOL
            last = np.where(keep[:, i], x[:, i], last)
    return np.nonzero(keep)[0], x[keep]


def special_points(k: int, h_j, sf: ScaledFlux) -> SpecialPoints:
    """Root sets of the leading residual and its derivatives at the cell
    width h_j, or at every width of an array h_j (see SpecialPoints).

    Empty sets are a valid outcome (reported as DNE by the diagnostics).
    """
    res = leading_residual(k, h_j, sf)
    G = np.size(h_j)
    # the s-th derivative has degree k+1-s, with a top coefficient of
    # 1, 2k+1 or (2k+1)(2k-1), and exact zeros above it
    owners, sets = zip(*(
        legendre_roots(res.legendre_coeffs(s).reshape(G, -1)[:, :k + 2 - s])
        for s in range(3)))
    return SpecialPoints(res, sets, owners)
