"""Reference implementations that the tests compare the library against.

Each is a direct, slow form of something uwdg computes another way:
Legendre values by the three-term recurrence, the operator as a dense
matrix, a uniform-mesh march as the one-cell march of its Bloch symbol,
the leading residual by its Legendre table, and the derivations
of the constants uwdg pins: Gauss-Legendre rules by Golub-Welsch, and the
SIAC kernel's weights by an exact rational solve of its moment system.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np

from uwdg import basis


def legendre_eval(m: int, s: int, xi):
    """Evaluate d^s L_m / dxi^s at xi for s in {0, 1, 2}.

    Uses the value recurrence (2i-1)/i * xi * L_{i-1} - (i-1)/i * L_{i-2}
    differentiated through, which is stable on all of [-1, 1] (the
    (1-xi^2) derivative identity is not used, so endpoints are exact).
    Accepts scalar or array xi.
    """
    if m < 0:
        raise ValueError("degree m must be >= 0")
    if s not in (0, 1, 2):
        raise ValueError("derivative order s must be 0, 1 or 2")
    xi = np.asarray(xi, dtype=float)
    l0 = np.ones_like(xi)
    d0 = np.zeros_like(xi)
    dd0 = np.zeros_like(xi)
    l1 = np.zeros_like(xi)
    d1 = np.zeros_like(xi)
    dd1 = np.zeros_like(xi)
    for i in range(1, m + 1):
        a = (2 * i - 1) / i
        b = (i - 1) / i
        l2, d2, dd2 = l1, d1, dd1
        l1, d1, dd1 = l0, d0, dd0
        l0 = a * xi * l1 - b * l2
        d0 = a * (l1 + xi * d1) - b * d2
        dd0 = a * (2 * d1 + xi * dd1) - b * dd2
    out = (l0, d0, dd0)[s]
    return out if out.ndim else float(out)


def as_matrix(op) -> np.ndarray:
    """Dense matrix of op.apply() on flattened coefficients."""
    N, kp1 = op.mesh.N, op.k + 1
    M = np.zeros((N, kp1, N, kp1), dtype=complex)
    j = np.arange(N)
    for off, C in zip((-1, 0, 1), op.coupling_blocks()):
        M[j, :, (j + off) % N] += C
    return M.reshape(N * kp1, N * kp1)


def bloch_march(blocks, c0, theta, dt: float, t_end: float, dps: int = 30):
    """Cell 0 of RK4 at dt to t_end, the last step truncated, of a field
    whose cell j holds exp(i j theta) c0, in mpmath at dps digits.

    blocks is (C_m, C_0, C_p), row 0 of coupling_blocks() on a uniform
    mesh.  On such a field apply() acts on cell 0 as the symbol
    K = C_0 + w C_p + conj(w) C_m, w = exp(i theta), so the march is
    R4(dt K)^n R4(rem K) c0, with n = floor(t_end / dt) and
    rem = t_end - n dt, the power taken by repeated squaring.  Returns
    cell 0 at t_end and the step count, rem > 0 counting one."""
    import mpmath

    with mpmath.workdps(dps):
        def mat(a):
            return mpmath.matrix([[mpmath.mpc(complex(x)) for x in row]
                                  for row in np.asarray(a)])

        Cm, C0, Cp = map(mat, blocks)
        w = mpmath.expj(theta)
        K = C0 + w * Cp + mpmath.conj(w) * Cm
        eye = mpmath.eye(K.rows)

        def r4(step):
            Z = mpmath.mpf(step) * K
            return eye + Z * (eye + Z / 2 * (eye + Z / 3 * (eye + Z / 4)))

        n = int(mpmath.floor(mpmath.mpf(t_end) / mpmath.mpf(dt)))
        rem = mpmath.mpf(t_end) - n * mpmath.mpf(dt)
        out, A = r4(rem) * mat(np.reshape(c0, (-1, 1))), r4(dt)
        for bit in bin(n)[:1:-1]:
            if bit == "1":
                out = A * out
            A = A * A
        return (np.array([complex(x) for x in out], dtype=complex),
                n + (rem > 0))


def residual_eval(res, xi, s: int = 0) -> np.ndarray:
    """The s-th derivative of the leading residual res at reference
    points xi."""
    tab = basis.legendre_table(res.k + 1, xi, ders=s)[..., s, :]
    return tab @ res.legendre_coeffs()


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
def golub_welsch_rule(n: int) -> basis.QuadratureRule:
    """n-point Gauss-Legendre rule on [-1, 1], read-only, for any n >= 1:
    numpy 2.4's leggauss(n) bit for bit, from a copy of its steps.  The
    eigenvalues of the symmetric companion matrix of L_n (Golub & Welsch,
    Math. Comp. 23, 1969), one Newton step, weights 1/(L_{n-1} L_n')
    scaled to sum to 2, and symmetrisation about 0.  Its last bit follows
    LAPACK's eigvalsh."""
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
    return basis.QuadratureRule(nodes=nodes, weights=weights)


@lru_cache(maxsize=16)
def _bspline_moments(order: int, p_max: int) -> tuple:
    """Exact moments int psi^(order)(x) x^p dx for p = 0..p_max.

    psi^(1) has moments 1/(2^p (p+1)) for even p; convolution adds
    moments binomially."""
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


def rational_kernel_weights(k: int) -> list:
    """The exact (Fraction) weights of the SIAC kernel for DG degree k >= 1
    at the shifts -k..k: the solution of its moment conditions
    int K(x) x^m dx = delta_{m0}, m = 0..2k, with K the sum of the
    weighted B-splines of order k+1 (Cockburn, Luskin, Shu & Suli, Math.
    Comp. 72, 2003)."""
    if k < 1:
        raise ValueError("kernel needs k >= 1")
    shifts = range(-k, k + 1)
    mu = _bspline_moments(k + 1, 2 * k)
    rows = []
    rhs = []
    for m in range(2 * k + 1):
        row = []
        for g in shifts:
            # int psi(x-g) x^m dx = sum_i C(m,i) g^(m-i) mu_i
            acc = Fraction(0)
            for i in range(m + 1):
                acc += comb(m, i) * Fraction(g) ** (m - i) * mu[i]
            row.append(acc)
        rows.append(row)
        rhs.append(Fraction(1) if m == 0 else Fraction(0))
    return _solve_fraction_system(rows, rhs)
