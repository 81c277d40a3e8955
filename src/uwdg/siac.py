"""Smoothness-increasing accuracy-conserving post-processing.

The kernel is a symmetric combination of 2k+1 central B-splines of order
k+1 shifted to the integers -k..k.  Its weights solve the discrete
moment conditions int K(x) x^m dx = delta_{m0} for m = 0..2k, which
(with evenness supplying the odd moments) makes convolution against the
kernel reproduce polynomials through degree 2k+1.  The weights for
k = 1..6 are pinned here as the doubles nearest the exact rational
solution of the moment system, so they are correct to the last bit.

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

import numpy as np

from . import basis
from .errors import UnsupportedOperationError
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


# the kernel's weights at the shifts 0..k, for k = 1..6, the CLI's range;
# the weight at -g is that at g.  Each is the double nearest the exact
# rational solution of the moment system, as tests/oracles.py solves it.
_KERNEL_HALVES = (
    (1.1666666666666667, -0.08333333333333333),
    (1.365625, -0.20208333333333334, 0.019270833333333334),
    (1.616798941798942, -0.36468253968253966, 0.06170634920634921,
     -0.005423280423280424),
    (1.939558940799989, -0.5858909109071869, 0.13580414840994268,
     -0.021346330054012347, 0.0016536221512621252),
    (2.358731661856662, -0.8865808381433381, 0.2547799422799423,
     -0.05474800084175084, 0.00770928531345198, -0.0005262195366362033),
    (2.907645690241952, -1.2956386610104922, 0.43787851851228277,
     -0.11593314102498904, 0.022532872902646342, -0.002834351372046515,
     0.00017191687162270195),
)


@lru_cache(maxsize=16)
def kernel_coeffs(k: int) -> KernelSpec:
    """The post-processing kernel for DG degree k = 1..6, from the pinned
    weights, built once per k; its arrays are read-only."""
    if not 1 <= k <= len(_KERNEL_HALVES):
        raise ValueError("kernel needs 1 <= k <= 6")
    half = _KERNEL_HALVES[k - 1]
    weights = np.array(half[:0:-1] + half)
    shifts = np.arange(-k, k + 1)
    weights.setflags(write=False)
    shifts.setflags(write=False)
    return KernelSpec(k=k, order=k + 1, shifts=shifts, weights=weights)


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
    # a crossing meets a knot only where shift is 0, 1/2 or 1; both are
    # then exact, so the set merges them (np.unique would import numpy.ma)
    breaks = np.array(sorted({*spec.knots(), *cross}))
    z0, z1 = breaks[:-1, None], breaks[1:, None]
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
