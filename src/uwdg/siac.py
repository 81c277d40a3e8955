"""Smoothness-increasing accuracy-conserving post-processing.

The kernel is a symmetric combination of 2k+1 central B-splines of order
k+1 shifted to the integers -k..k.  Its weights solve the discrete
moment conditions int K(x) x^m dx = delta_{m0} for m = 0..2k, which
(with evenness supplying the odd moments) makes convolution against the
kernel reproduce polynomials through degree 2k+1.  The moment system is
assembled and solved in exact rational arithmetic, so the weights are
correct to the last bit.

Post-processing convolves the DG solution with the h-scaled kernel on a
uniform mesh.  For a point at reference offset xi0 in cell j this is a
stencil product u* = sum_off W[off] . c_{j+off}, whose weights depend
only on the kernel, k, xi0 and the Gauss rule, not on u_h, h or N: the
integral is split at every B-spline knot and every cell boundary so each
piece is a polynomial integrated exactly by a small Gauss rule.  This is
the matrix form of Cockburn, Luskin, Shu & Suli (Math. Comp. 2003).
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

import numpy as np

from . import basis
from .errors import UnsupportedOperationError
from .flux import SIAC_PIECE_TOL, SIAC_SUPPORT_TOL
from .projection import AnalyticField, DGFunction


class KernelSpec:
    """SIAC kernel for DG degree k: B-spline order ell = k+1, integer
    shifts gamma in [-k, k] with symmetric weights summing to 1, support
    half-width (3k+1)/2 in units of h."""

    __slots__ = ("k", "order", "shifts", "weights")

    def __init__(self, k: int, order: int, shifts: np.ndarray,
                 weights: np.ndarray):
        self.k, self.order = k, order
        self.shifts, self.weights = shifts, weights

    @property
    def support_halfwidth(self) -> float:
        return (3 * self.k + 1) / 2.0

    def eval(self, x) -> np.ndarray:
        """Kernel value K(x) = sum_g w_g psi^(order)(x - g)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return basis.bspline_eval(self.order, x[..., None] - self.shifts) \
            @ self.weights

    def knots(self) -> np.ndarray:
        """Breakpoints of the kernel's piecewise-polynomial structure: the
        unit-spaced knots of the shifted B-splines fill the support."""
        return np.arange(3 * self.k + 2) - self.support_halfwidth


@lru_cache(maxsize=16)
def _bspline_moments(order: int, p_max: int) -> tuple:
    """Exact moments int psi^(order)(x) x^p dx for p = 0..p_max.

    psi^(1) has moments 1/(2^p (p+1)) for even p; convolution adds
    moments binomially."""
    from fractions import Fraction      # on the first kernel only
    mom = [Fraction(1, (p + 1) * 2 ** p) if p % 2 == 0 else Fraction(0)
           for p in range(p_max + 1)]
    base = list(mom)
    for _ in range(order - 1):
        nxt = []
        for p in range(p_max + 1):
            acc = Fraction(0)
            for i in range(p + 1):
                acc += comb(p, i) * mom[i] * base[p - i]
            nxt.append(acc)
        mom = nxt
    return tuple(mom)


def _solve_fraction_system(A: list[list], b: list):
    """Gaussian elimination with partial pivoting over the rationals
    (Fraction entries)."""
    n = len(b)
    M = [row[:] + [b[i]] for i, row in enumerate(A)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(M[r][col]))
        if M[piv][col] == 0:
            raise ArithmeticError("singular moment system")
        M[col], M[piv] = M[piv], M[col]
        inv = M[col][col]
        for r in range(n):
            if r == col or M[r][col] == 0:
                continue
            fac = M[r][col] / inv
            M[r] = [a - fac * c for a, c in zip(M[r], M[col])]
    return [M[i][n] / M[i][i] for i in range(n)]


@lru_cache(maxsize=16)
def kernel_coeffs(k: int) -> KernelSpec:
    """The post-processing kernel for DG degree k >= 1, built once per k;
    its arrays are read-only."""
    if k < 1:
        raise ValueError("kernel needs k >= 1")
    from fractions import Fraction      # on the first kernel only
    order = k + 1
    shifts = np.arange(-k, k + 1)
    mu = _bspline_moments(order, 2 * k)
    rows = []
    rhs = []
    for m in range(2 * k + 1):
        row = []
        for g in shifts:
            # int psi(x-g) x^m dx = sum_i C(m,i) g^(m-i) mu_i
            acc = Fraction(0)
            for i in range(m + 1):
                acc += comb(m, i) * Fraction(int(g)) ** (m - i) * mu[i]
            row.append(acc)
        rows.append(row)
        rhs.append(Fraction(1) if m == 0 else Fraction(0))
    try:
        w = _solve_fraction_system(rows, rhs)
    except ArithmeticError as exc:
        raise ArithmeticError(f"kernel moment system singular for k={k}") from exc
    weights = np.array([float(x) for x in w])
    weights.setflags(write=False)
    shifts.setflags(write=False)
    return KernelSpec(k=k, order=order, shifts=shifts, weights=weights)


def _stencil(spec: KernelSpec, xi0: float, n_gauss: int) -> np.ndarray:
    """Weights W of shape (2R+1, k+1), k = spec.k and R = ceil(support
    half-width), with u*(x) = sum_{off=-R..R} W[off + R] . c_{j+off} for
    every point x at reference offset xi0 in a cell j of a uniform mesh.

    In the scaled variable z = (y - x)/h the kernel knots and the cell
    crossings are the same for every such point, so the integral splits
    into the same polynomial pieces in every cell.
    """
    half, k = spec.support_halfwidth, spec.k
    # breakpoints: kernel knots plus cell-boundary crossings at
    # z = m + (1 - xi0)/2, m integer
    shift = (1.0 - xi0) / 2.0
    cross = shift + np.arange(np.ceil(-half - shift), np.floor(half - shift) + 1)
    # a duplicate break leaves a zero-width piece, which is skipped below
    breaks = np.sort(np.concatenate([spec.knots(), cross]))
    breaks = breaks[(breaks > -half - SIAC_SUPPORT_TOL)
                    & (breaks < half + SIAC_SUPPORT_TOL)]
    z0, z1 = breaks[:-1], breaks[1:]
    keep = z1 - z0 >= SIAC_PIECE_TOL
    z0, z1 = z0[keep, None], z1[keep, None]
    rule = basis.gauss_rule(n_gauss)
    zg = 0.5 * (z0 + z1) + 0.5 * (z1 - z0) * rule.nodes
    kw = spec.eval(zg) * (0.5 * (z1 - z0) * rule.weights)
    # evaluation point y = x + h z sits `off` cells to the right
    off = np.floor((xi0 + 2.0 * zg + 1.0) / 2.0)
    xi = xi0 + 2.0 * zg - 2.0 * off
    tab = basis.legendre_table(k, xi)[..., 0, :]
    reach = int(np.ceil(half))
    W = np.zeros((2 * reach + 1, k + 1))
    np.add.at(W, off.astype(int).ravel() + reach,
              (kw[..., None] * tab).reshape(-1, k + 1))
    return W


@lru_cache(maxsize=32)
def _error_stencils(k: int) -> np.ndarray:
    """Read-only stencils (n_quad, 2R+1, k+1) of the degree-k kernel, one
    per node of the n_quad-point Gauss rule of the error quadrature, each
    integrated by the (k+1)-point rule."""
    W = np.stack([_stencil(kernel_coeffs(k), float(xi0), k + 1) for xi0 in
                  basis.gauss_rule(basis.default_quad_points(k)).nodes])
    W.setflags(write=False)
    return W


def _apply(u_h: DGFunction, cells: np.ndarray, W: np.ndarray) -> np.ndarray:
    """sum_off c_{j+off} . W[..., off + R, :] for each cell j, as one
    product of the gathered (2R+1)-cell windows, laid end to end, with
    the flattened stencils; the result has shape
    len(cells) + W.shape[:-2]."""
    reach = W.shape[-2] // 2
    near = np.take(u_h.coeffs, cells[:, None] + np.arange(-reach, reach + 1),
                   axis=0, mode="wrap")
    return (near.reshape(len(cells), -1)
            @ W.reshape(W.shape[:-2] + (-1,)).T)


def postprocessed_error(u_h: DGFunction, f: AnalyticField, t: float) -> float:
    """E* = || u - u* || by per-cell quadrature on a uniform mesh, with
    u*(x) = int K_h(y - x) u_h(y) dy over the periodic extension of u_h;
    K is kernel_coeffs(u_h.k), K_h(x) = K(x/h)/h, and the kernel is even,
    so orientation is immaterial."""
    mesh = u_h.mesh
    if not mesh.is_uniform:
        raise UnsupportedOperationError(
            "post-processing is defined on uniform meshes only")
    rule = basis.gauss_rule(basis.default_quad_points(u_h.k))
    star = _apply(u_h, np.arange(mesh.N), _error_stencils(u_h.k))
    diff2 = np.abs(f.eval(mesh.quad_points(rule.nodes), t, 0) - star) ** 2
    return float(np.sqrt(np.sum(0.5 * mesh.h_sizes[:, None] * rule.weights
                                * diff2)))
