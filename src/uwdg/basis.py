"""Shared numerical substrate on the reference interval [-1, 1].

Legendre polynomial evaluation (values and first two derivatives),
Gauss-Legendre quadrature, the coefficient maps of the antiderivative
operators used throughout the superconvergence machinery, the reference
second-derivative stiffness of the ultra-weak volume term, and central
B-splines for the post-processing kernel.

All operations here are pure functions of their inputs; returned arrays
are freshly allocated, or read-only where a function caches its tables,
and safe to share between threads.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial

import numpy as np

# the other named tolerances are in flux.py, which basis does not import
STIFF2_ZERO_TOL = 1e-13  # Gauss roundoff of a stiff2 entry that is exactly 0


class QuadratureRule:
    """Gauss-Legendre rule on [-1, 1].

    An n-point rule integrates polynomials up to degree 2n-1 exactly
    (values @ weights); weights are positive and sum to 2.
    """

    __slots__ = ("nodes", "weights")

    def __init__(self, nodes: np.ndarray, weights: np.ndarray):
        self.nodes, self.weights = nodes, weights


def legendre_table(max_degree: int, xi, ders: int = 0) -> np.ndarray:
    """Table of L_0..L_max (and derivatives) at the points xi.

    Returns an array of shape xi.shape + (ders+1, max_degree+1); entry
    [..., s, m] holds d^s L_m / dxi^s.  This is the vectorized workhorse
    behind projections, error norms and point evaluation.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    out = np.zeros(xi.shape + (ders + 1, max_degree + 1))
    out[..., 0, 0] = 1.0
    if max_degree >= 1:
        out[..., 0, 1] = xi
        if ders >= 1:
            out[..., 1, 1] = 1.0
    for m in range(2, max_degree + 1):
        a = (2 * m - 1) / m
        b = (m - 1) / m
        out[..., 0, m] = a * xi * out[..., 0, m - 1] - b * out[..., 0, m - 2]
        if ders >= 1:
            out[..., 1, m] = (
                a * (out[..., 0, m - 1] + xi * out[..., 1, m - 1])
                - b * out[..., 1, m - 2]
            )
        if ders >= 2:
            out[..., 2, m] = (
                a * (2 * out[..., 1, m - 1] + xi * out[..., 2, m - 1])
                - b * out[..., 2, m - 2]
            )
    return out


def _clenshaw(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """numpy's legval(x, c) for a 1-D Legendre series c, step for step:
    numpy 2.4 scales c1 by the ratio (nd-1)/nd, not by nd-1 then 1/nd."""
    if len(c) == 1:
        return c[0] + 0 * x
    c0, c1 = c[-2], c[-1]
    for nd in range(len(c) - 1, 1, -1):
        c0, c1 = (c[nd - 2] - c1 * ((nd - 1) / nd),
                  c0 + c1 * x * ((2 * nd - 1) / nd))
    return c0 + c1 * x


@lru_cache(maxsize=64)
def gauss_rule(n: int) -> QuadratureRule:
    """n-point Gauss-Legendre rule on [-1, 1], read-only: numpy 2.4's
    leggauss(n) bit for bit, from a copy of its steps pinned here, so
    numpy.polynomial is never imported and the rule does not follow a
    change of numpy.  The eigenvalues of the symmetric companion matrix of
    L_n (Golub & Welsch, Math. Comp. 23, 1969), one Newton step, weights
    1/(L_{n-1} L_n') scaled to sum to 2, and symmetrisation about 0."""
    if n < 1:
        raise ValueError("quadrature point count must be >= 1")
    m = np.arange(n)
    c = np.eye(n + 1)[n]                                # L_n
    dc = np.where((n - m) % 2, 2.0 * m + 1, 0.0)        # L_n'
    scl = 1.0 / np.sqrt(2 * m + 1)
    off = m[1:] * scl[:-1] * scl[1:]
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    df = _clenshaw(x, dc)
    x = x - _clenshaw(x, c) / df
    fm = _clenshaw(x, c[1:])
    w = 1 / ((fm / np.abs(fm).max()) * (df / np.abs(df).max()))
    w = (w + w[::-1]) / 2
    nodes = (x - x[::-1]) / 2
    weights = w * (2.0 / w.sum())
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(nodes=nodes, weights=weights)


@lru_cache(maxsize=32)
def weighted_legendre_table(k: int, n: int) -> np.ndarray:
    """Read-only (n, k+1) table of L_m at the nodes of the n-point Gauss
    rule times the node's weight: the quadrature of project_l2."""
    rule = gauss_rule(n)
    wtab = legendre_table(k, rule.nodes)[:, 0, :] * rule.weights[:, None]
    wtab.setflags(write=False)
    return wtab


def default_quad_points(k: int) -> int:
    """Point count for smooth-function integrals: over-integration so that
    projection and error numbers are quadrature-noise-free at table scales."""
    return max(k + 3, 10)


def antiderivative_map(order: int, coeffs: np.ndarray) -> np.ndarray:
    """Legendre coefficients of the running antiderivative from xi = -1.

    Maps the coefficients of p to those of q(xi) = int_{-1}^{xi} p, applied
    `order` times (order 1 or 2).  Degrees m >= 1 use the telescoping
    identity (L_{m+1} - L_{m-1})/(2m+1); the constant mode is integrated
    explicitly to 1 + xi so the lower limit is honored.  Output length is
    len(coeffs) + order.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    c = np.asarray(coeffs)
    for _ in range(order):
        out = np.zeros(len(c) + 1, dtype=np.result_type(c, float))
        out[0] += c[0]
        out[1] += c[0]
        for m in range(1, len(c)):
            out[m + 1] += c[m] / (2 * m + 1)
            out[m - 1] -= c[m] / (2 * m + 1)
        c = out
    return c


@lru_cache(maxsize=32)
def reference_matrices(k: int) -> np.ndarray:
    """The exact second-derivative stiffness stiff2 for degrees 0..k
    (k >= 2), read-only.

    stiff2[m][n] = integral of L_n * L_m'' ; zero unless n <= m-2 and
    n+m even, because L_m'' has degree m-2 and parity (-1)^m.  The
    integrand has degree <= 2k-2, so a (k+1)-point Gauss rule evaluates
    it exactly.
    """
    if k < 2:
        raise ValueError("reference matrices need k >= 2")
    rule = gauss_rule(k + 1)
    tab = legendre_table(k, rule.nodes, ders=2)
    vals = tab[:, 0, :]    # (nq, k+1)
    dd = tab[:, 2, :]
    stiff2 = np.einsum("q,qm,qn->mn", rule.weights, dd, vals)
    stiff2[np.abs(stiff2) < STIFF2_ZERO_TOL] = 0.0
    stiff2.setflags(write=False)
    return stiff2


@lru_cache(maxsize=32)
def legendre_derivative_matrix(k: int) -> np.ndarray:
    """Matrix D with (D c) the Legendre coefficients of d/dxi of c.

    Built from L'_m = sum over j < m, j+m odd of (2j+1) L_j.
    """
    d = np.zeros((k + 1, k + 1))
    for m in range(1, k + 1):
        for j in range(m - 1, -1, -2):
            d[j, m] = 2 * j + 1
    d.setflags(write=False)
    return d


@lru_cache(maxsize=16)
def _bspline_table(order: int) -> np.ndarray:
    """Coefficients of psi^(order) on its unit pieces: entry [i, p]
    multiplies t^p on [-ell/2 + i, -ell/2 + i + 1), where t in [0, 1) is
    the distance from the piece's left knot.

    Exact from the truncated-power form of the cardinal B-spline,
    M(s) = sum_{j <= s} (-1)^j C(ell, j) (s - j)^(ell-1) / (ell-1)!
    with s = x + ell/2 = i + t: each coefficient is an integer over
    (ell-1)!, divided once in floating point.
    """
    n = order - 1
    table = np.empty((order, order))
    for i in range(order):
        for p in range(order):
            num = sum((-1) ** j * comb(order, j) * comb(n, p)
                      * (i - j) ** (n - p) for j in range(i + 1))
            table[i, p] = num / factorial(n)    # correctly rounded
    table.setflags(write=False)
    return table


def bspline_eval(order: int, x) -> np.ndarray | float:
    """Central B-spline of order ell at x (scalar or array).

    psi^(1) is the indicator of [-1/2, 1/2); psi^(ell) is its ell-fold
    self-convolution, a piecewise polynomial of degree ell-1 on the unit
    pieces between the knots -ell/2 .. ell/2, with unit integral.  Each
    point is located by comparison with the knots, so the support is the
    half-open [-ell/2, ell/2), and its piece of the exact table is
    evaluated by Horner.
    """
    if order < 1:
        raise ValueError("B-spline order must be >= 1")
    x = np.asarray(x, dtype=float)
    table = _bspline_table(order)
    knots = np.arange(order + 1) - order / 2.0
    piece = np.searchsorted(knots, x, side="right") - 1
    inside = (piece >= 0) & (piece < order)
    piece = np.clip(piece, 0, order - 1)
    t = x - knots[piece]
    out = table[piece, order - 1]
    for p in range(order - 2, -1, -1):
        out = out * t + table[piece, p]
    out = np.where(inside, out, 0.0)
    return out if out.ndim else float(out)
