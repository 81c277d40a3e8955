"""Reference implementations that the tests compare the library against.

Each is a direct, slow form of something uwdg computes another way:
Legendre values by the three-term recurrence, the operator as a dense
matrix, and the leading residual by its Legendre table.
"""

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


def residual_eval(res, xi, s: int = 0) -> np.ndarray:
    """The s-th derivative of the leading residual res at reference
    points xi."""
    tab = basis.legendre_table(res.k + 1, xi, ders=s)[..., s, :]
    return tab @ res.legendre_coeffs()
