"""Semi-discrete ultra-weak DG operator and RK4 time marching.

The weak form tested against L_{j,m} gives, per cell, a volume term
through the exact reference stiffness stiff2 and interface terms through
the numerical fluxes; inverting the diagonal Legendre mass matrix yields
the coefficient ODE du/dt = i M^{-1} A u.  The operator is linear and
time independent, assembled once per (mesh, flux, degree) and reused
across all RK4 stages.

Time marching is classical RK4 with the step rule dt = c h^{2.5}
(c = 0.05 for k = 2, 0.01 for k = 3, 4 by default), final step truncated
to land exactly on the end time.  On uniform meshes the operator is
block-circulant, so the RK4 update can equivalently be applied in DFT
space where each frequency carries a small dense update matrix; raising
that matrix to the step count reproduces the stepping result to roundoff
at a tiny fraction of the cost, which is what makes the finest table
rows affordable.  Both paths are exposed and tested against each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import basis
from .errors import InstabilityError
from .flux import FluxConfig, interface_matrices, scale_flux, trace_maps
from .mesh import Mesh1D
from .projection import DGFunction

DEFAULT_DT_CONSTANTS = {2: 0.05, 3: 0.01, 4: 0.01}
BLOWUP_FACTOR = 10.0


def default_dt_constant(k: int) -> float:
    return DEFAULT_DT_CONSTANTS.get(k, 0.01)


@dataclass(frozen=True)
class TimeScheme:
    """Step constant and end time; dt = c * h^2.5 unless overridden."""

    c: float
    t_end: float
    dt_override: float | None = None

    def dt(self, h: float) -> float:
        dt = self.dt_override if self.dt_override is not None else self.c * h ** 2.5
        if not dt > 0:
            raise ValueError("time step must be positive")
        return dt


class DGOperator:
    """The spatial discretization as per-cell neighbour blocks.

    The weak form of the field against the test function L_{j,m} is
    weak_action(c)_j = Cm[j] c_{j-1} + C0[j] c_j + Cp[j] c_{j+1}, a
    periodic block-tridiagonal product with blocks of shape (k+1, k+1):
    the volume term through the exact reference stiffness stiff2, and
    the numerical fluxes (uhat, uxt) = G [u, u_x]^- + H [u, u_x]^+ at
    each endpoint, paired with the test function as + uxt v - uhat v_x
    at the right endpoint and - (uxt v - uhat v_x) at the left.
    apply(c) is the time derivative i * (2m+1)/h_j * weak_action.
    """

    def __init__(self, mesh: Mesh1D, cfg: FluxConfig, k: int):
        if k < 2:
            raise ValueError("solver needs k >= 2")
        self.mesh = mesh
        self.cfg = cfg
        self.k = k
        gh = interface_matrices(scale_flux(cfg, mesh.h))
        hj = mesh.h_sizes
        R, L = trace_maps(k, hj)
        # test-side pairings of (uhat, uxt): R^T J at the right endpoint,
        # -L^T J at the left, with J = [[0, 1], [-1, 0]]
        J = np.array([[0.0, 1.0], [-1.0, 0.0]])
        pair_r = R.transpose(0, 2, 1) @ J
        pair_l = -L.transpose(0, 2, 1) @ J
        stiff2 = basis.reference_matrices(k).stiff2
        C0 = ((2.0 / hj)[:, None, None] * stiff2
              + pair_r @ gh.G @ R + pair_l @ gh.H @ L)
        Cp = pair_r @ gh.H @ np.roll(L, -1, axis=0)
        Cm = pair_l @ gh.G @ np.roll(R, 1, axis=0)
        self.blocks = (Cm, C0, Cp)
        self._inv_mass = (2 * np.arange(k + 1) + 1) / hj[:, None]

    def weak_action(self, coeffs: np.ndarray) -> np.ndarray:
        Cm, C0, Cp = self.blocks
        c = coeffs[:, :, None]
        w = C0 @ c + Cm @ np.roll(c, 1, axis=0) + Cp @ np.roll(c, -1, axis=0)
        return w[:, :, 0]

    def apply(self, coeffs: np.ndarray) -> np.ndarray:
        return 1j * self._inv_mass * self.weak_action(coeffs)

    def coupling_blocks(self):
        """The blocks of apply(), each of shape (N, k+1, k+1):
        apply(c)_j = C_m[j] c_{j-1} + C_0[j] c_j + C_p[j] c_{j+1}."""
        scale = 1j * self._inv_mass[:, :, None]
        return tuple(scale * C for C in self.blocks)

    def _sparse_matrix(self):
        """apply() as a CSR matrix on flattened coefficients."""
        import scipy.sparse as sp
        N, kp1 = self.mesh.N, self.k + 1
        j = np.arange(N)
        cols = np.stack([(j - 1) % N, j, (j + 1) % N], axis=1)
        order = np.argsort(cols, axis=1)
        indices = np.take_along_axis(cols, order, axis=1).ravel()
        data = np.take_along_axis(np.stack(self.coupling_blocks(), axis=1),
                                  order[:, :, None, None], axis=1)
        return sp.bsr_matrix((data.reshape(3 * N, kp1, kp1), indices,
                              np.arange(N + 1) * 3),
                             shape=(N * kp1, N * kp1)).tocsr()

    def as_matrix(self) -> np.ndarray:
        """Dense matrix of apply() on flattened coefficients (tests only)."""
        return self._sparse_matrix().toarray()

    def rk4_sparse_update(self, dt: float):
        """One-step RK4 update matrix I + sum_{p<=4} (dt L)^p / p! in CSR
        form, for stepping on arbitrary (nonuniform) meshes."""
        import scipy.sparse as sp
        L = self._sparse_matrix()
        n = L.shape[0]
        S = sp.identity(n, dtype=complex, format="csr")
        # Horner form of the RK4 stability polynomial
        for p in (4, 3, 2, 1):
            S = sp.identity(n, dtype=complex, format="csr") \
                + (dt / p) * (L @ S)
        S.sort_indices()
        return S


def apply_bilinear(op: DGOperator, u: DGFunction, v: DGFunction) -> complex:
    """A(u, v) summed over cells; bilinear, no conjugation.

    Pass the conjugate field explicitly for sesquilinear uses, e.g.
    realness of A(v, conj(v))."""
    w = op.weak_action(u.coeffs)
    return complex(np.sum(v.coeffs * w))


def time_derivative(op: DGOperator, u: DGFunction) -> DGFunction:
    return DGFunction(u.mesh, u.k, op.apply(u.coeffs))


def l2_norm(u: DGFunction) -> float:
    """Parseval: ||u||^2 = sum |c_{j,m}|^2 h_j/(2m+1)."""
    return float(np.sqrt(np.sum(u.cell_norms_sq()).real))


def rk4_step(op, u: DGFunction, dt: float) -> DGFunction:
    """One classical RK4 step of du/dt = op.apply(u)."""
    c = u.coeffs
    k1 = op.apply(c)
    k2 = op.apply(c + 0.5 * dt * k1)
    k3 = op.apply(c + 0.5 * dt * k2)
    k4 = op.apply(c + dt * k3)
    return DGFunction(u.mesh, u.k, c + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4))


@dataclass
class IntegrationResult:
    u: DGFunction
    dt: float
    n_steps: int
    norm_history: list = field(default_factory=list)   # (t, ||u||) samples


def _step_counts(t_end: float, dt: float) -> tuple[int, float]:
    if t_end <= 0:
        return 0, 0.0
    n_full = int(np.floor(t_end / dt + 1e-12))
    rem = t_end - n_full * dt
    if rem < 1e-12 * dt:
        rem = 0.0
    return n_full, rem


def _rk4_update_matrices(blocks, N: int, dt: float) -> np.ndarray:
    """Per-frequency RK4 update matrices S_l = sum (dt T_l)^p / p!, p<=4,
    with T_l the DFT symbol of the operator."""
    Cm, C0, Cp = blocks
    omega = np.exp(2j * np.pi * np.arange(N) / N)
    T = (C0[None, :, :]
         + omega[:, None, None] * Cp[None, :, :]
         + omega[:, None, None].conj() * Cm[None, :, :])
    Z = dt * T
    kp1 = C0.shape[0]
    S = np.broadcast_to(np.eye(kp1, dtype=complex), Z.shape).copy()
    term = np.broadcast_to(np.eye(kp1, dtype=complex), Z.shape).copy()
    for p in range(1, 5):
        term = np.matmul(Z, term) / p
        S += term
    return S


def _matrix_power_batched(S: np.ndarray, n: int) -> np.ndarray:
    out = np.broadcast_to(np.eye(S.shape[-1], dtype=complex), S.shape).copy()
    base = S.copy()
    while n:
        if n & 1:
            out = np.matmul(base, out)
        n >>= 1
        if n:
            base = np.matmul(base, base)
    return out


def integrate(op: DGOperator, u0: DGFunction, scheme: TimeScheme,
              method: str = "auto", history_samples: int = 33) -> IntegrationResult:
    """March u0 to t_end with RK4 at dt = c h^2.5 (truncated final step).

    Three equivalent realizations of the same linear update:
    "stepping" calls rk4_step stage by stage (any mesh; reference path);
    "sparse" precomputes the one-step RK4 update matrix and applies it
    per step (any mesh); "circulant" block-diagonalizes the update by
    DFT on uniform meshes and raises the per-frequency matrix to the
    step count.  "auto" picks circulant on uniform meshes and sparse
    otherwise.  The L2 norm history is sampled at a bounded number of
    times; growth beyond 10x the initial norm raises InstabilityError
    reporting the dt used.
    """
    dt = scheme.dt(op.mesh.h)
    n_full, rem = _step_counts(scheme.t_end, dt)
    if n_full == 0 and rem == 0.0:
        return IntegrationResult(u=u0.copy(), dt=dt, n_steps=0,
                                 norm_history=[(0.0, l2_norm(u0))])
    if method == "auto":
        method = "circulant" if op.mesh.is_uniform else "sparse"
    if method not in ("stepping", "sparse", "circulant"):
        raise ValueError(f"unknown integration method {method!r}")
    if method == "circulant" and not op.mesh.is_uniform:
        raise ValueError("circulant integration needs a uniform mesh")

    norm0 = l2_norm(u0)
    history = [(0.0, norm0)]
    limit = BLOWUP_FACTOR * max(norm0, 1e-300)

    def check(t, u):
        nrm = l2_norm(u)
        history.append((t, nrm))
        if not np.isfinite(nrm) or nrm > limit:
            raise InstabilityError(dt, nrm / max(norm0, 1e-300))
        return nrm

    every = max(1, n_full // max(1, history_samples - 1))
    # divergent runs overflow between norm checkpoints; the checkpoints
    # turn that into InstabilityError, so the transient warnings are noise
    overflow_ok = np.errstate(over="ignore", invalid="ignore")

    if method == "stepping":
        u = u0.copy()
        with overflow_ok:
            for s in range(n_full):
                u = rk4_step(op, u, dt)
                if (s + 1) % every == 0 or s + 1 == n_full:
                    check((s + 1) * dt, u)
            if rem > 0.0:
                u = rk4_step(op, u, rem)
                check(scheme.t_end, u)
        return IntegrationResult(u=u, dt=dt, n_steps=n_full + (rem > 0),
                                 norm_history=history)

    if method == "sparse":
        shape = u0.coeffs.shape
        x = u0.coeffs.ravel().copy()
        S = op.rk4_sparse_update(dt) if n_full > 0 else None
        with overflow_ok:
            for s in range(n_full):
                x = S @ x
                if (s + 1) % every == 0 or s + 1 == n_full:
                    check((s + 1) * dt,
                          DGFunction(op.mesh, op.k, x.reshape(shape)))
            if rem > 0.0:
                x = op.rk4_sparse_update(rem) @ x
                check(scheme.t_end,
                      DGFunction(op.mesh, op.k, x.reshape(shape)))
        return IntegrationResult(u=DGFunction(op.mesh, op.k, x.reshape(shape)),
                                 dt=dt, n_steps=n_full + (rem > 0),
                                 norm_history=history)

    Cm, C0, Cp = op.coupling_blocks()
    blocks = (Cm[0], C0[0], Cp[0])
    N = op.mesh.N
    chat = np.fft.fft(u0.coeffs, axis=0)
    with overflow_ok:
        if n_full > 0:
            S = _rk4_update_matrices(blocks, N, dt)
            n_chunks = min(8, n_full)
            done = 0
            for i in range(n_chunks):
                target = (i + 1) * n_full // n_chunks
                take = target - done
                if take == 0:
                    continue
                Spow = _matrix_power_batched(S, take)
                chat = np.matmul(Spow, chat[:, :, None])[:, :, 0]
                done = target
                u_now = DGFunction(op.mesh, op.k, np.fft.ifft(chat, axis=0))
                check(done * dt, u_now)
        if rem > 0.0:
            Srem = _rk4_update_matrices(blocks, N, rem)
            chat = np.matmul(Srem, chat[:, :, None])[:, :, 0]
    u = DGFunction(op.mesh, op.k, np.fft.ifft(chat, axis=0))
    if rem > 0.0:
        check(scheme.t_end, u)
    return IntegrationResult(u=u, dt=dt, n_steps=n_full + (rem > 0),
                             norm_history=history)
