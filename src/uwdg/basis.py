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


# float.hex of the nodes >= 0 of the n-point rule, ascending, and of their
# weights, for n = 1..10: every rule the studies use.  They are numpy 2.4's
# leggauss(n), the Golub-Welsch eigenvalues (Math. Comp. 23, 1969), one
# Newton step and symmetrisation about 0; tests/oracles.py derives them.
_GAUSS_HALVES = (
    (("0x0.0p+0",), ("0x1.0000000000000p+1",)),
    (("0x1.279a74590331cp-1",), ("0x1.0000000000000p+0",)),
    (("0x0.0p+0", "0x1.8c97ef43f7248p-1"),
     ("0x1.c71c71c71c71cp-1", "0x1.1c71c71c71c73p-1")),
    (("0x1.5c23fd9dd3dfcp-2", "0x1.b8e6dbcf63985p-1"),
     ("0x1.4de5f840c24cdp-1", "0x1.64340f7e7b666p-2")),
    (("0x0.0p+0", "0x1.13b23fd99b705p-1", "0x1.cff6ce0533a69p-1"),
     ("0x1.23456789abcddp-1", "0x1.ea1da25ae4158p-2", "0x1.e539ec36e0393p-3")),
    (("0x1.e8b12d03675c5p-3", "0x1.528a09655c95ep-1", "0x1.dd6ca4e80a01dp-1"),
     ("0x1.df24d499545e8p-2", "0x1.716b7b5794c1ep-2", "0x1.5edf601e2dbf5p-3")),
    (("0x0.0p+0", "0x1.9f95df119fd62p-2", "0x1.7ba9f9be3a1d6p-1",
      "0x1.e5f178e7c622ap-1"),
     ("0x1.abfd7e03c2fa4p-2", "0x1.86fe74ee32b39p-2", "0x1.1e6b1713d8648p-2",
      "0x1.092f69f826d58p-3")),
    (("0x1.77ac94f3c7344p-3", "0x1.0d129583284b4p-1", "0x1.97e4ab249f41ep-1",
      "0x1.ebab1cb0acc66p-1"),
     ("0x1.736360b19933dp-2", "0x1.413c50a25560ep-2", "0x1.c76fb531d2b94p-3",
      "0x1.9ea1d04ca03aep-4")),
    (("0x0.0p+0", "0x1.4c0916e48aa66p-2", "0x1.3a0bd2077fd8cp-1",
      "0x1.ac0c44f0d0298p-1", "0x1.efb2b2ebf2106p-1"),
     ("0x1.522a43f65486bp-2", "0x1.3fd7e9838d513p-2", "0x1.0add87c827509p-2",
      "0x1.71f7a9b222be9p-3", "0x1.4ce65f803eee6p-4")),
    (("0x1.30e507891e27ap-3", "0x1.bbcc009016adcp-2", "0x1.5bdb9228de198p-1",
      "0x1.bae995e9cb2f3p-1", "0x1.f2a3e062af2d8p-1"),
     ("0x1.2e9de7014d6eep-2", "0x1.13baa7a559c01p-2", "0x1.c0b059d00bc30p-3",
      "0x1.32138c878efdep-3", "0x1.1115f8b62dc1fp-4")),
)


@lru_cache(maxsize=16)
def gauss_rule(n: int) -> QuadratureRule:
    """n-point Gauss-Legendre rule on [-1, 1] for n = 1..10, read-only,
    from the pinned table: the nodes are antisymmetric, with +0.0 in the
    middle for odd n, and the weights symmetric."""
    if not 1 <= n <= len(_GAUSS_HALVES):
        raise ValueError("quadrature point count must be 1..10")
    upper, half = (np.array([float.fromhex(x) for x in col])
                   for col in _GAUSS_HALVES[n - 1])
    nodes = np.concatenate([-upper[n % 2:][::-1], upper])
    weights = np.concatenate([half[n % 2:][::-1], half])
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
