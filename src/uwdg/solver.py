"""Semi-discrete ultra-weak DG operator and RK4 time marching.

The weak form tested against L_{j,m} gives, per cell, a volume term
through the exact reference stiffness stiff2 and interface terms through
the numerical fluxes; inverting the diagonal Legendre mass matrix yields
the coefficient ODE du/dt = i M^{-1} A u.  The operator is linear and
time independent, assembled once per (mesh, flux, degree) and reused
across all RK4 stages.

Time marching is classical RK4 at dt = c h^{2.5} (c by default from
DEFAULT_DT_CONSTANTS), the final step truncated to land on the end time.
integrate proves the march stable from rho(S), S = D A D, before any
step.  Two propagators answer rho(S) and march: _EigenMarch in the
eigenbasis of the DFT symbols on uniform meshes, and _BandMarch, two
steps per block-banded product, on any other.  rk4_step, the literal
stage-by-stage step, is the reference the tests compare both against.
"""

from __future__ import annotations

import os
import threading

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from . import basis
from .errors import ConfigurationError, InstabilityError
from .flux import (RHO_BISECT_TOL, STEP_ROUND_TOL, FluxConfig,
                   interface_matrices, scale_flux, trace_maps)
from .mesh import Mesh1D
from .projection import DGFunction, l2_norm

# k = 4..6: 0.9 times the largest stable c on the uniform N=10 mesh of
# [0, 2 pi] under the central and the alternating flux, whichever is
# smaller (0.005763, 0.002758, 0.001486, all alternating), rounded down;
# the largest stable c grows about as h^-1/2, so finer meshes keep a margin
DEFAULT_DT_CONSTANTS = {2: 0.05, 3: 0.01, 4: 0.0051, 5: 0.0024, 6: 0.0013}
BLOWUP_FACTOR = 10.0    # final-norm growth that the backstop reports
RK4_LIMIT = 2.0 * np.sqrt(2.0)   # |R4(iy)| <= 1 iff |y| <= RK4_LIMIT
# a longer march is a mistyped t_end or c, not a study: 1e8 band steps
# take about half an hour at k=3, N=160 (Table 2's 213k take 3.7 s), and
# the eigen march's phase n * angle(R4) carries about n * 2 sqrt(2) eps
# of error, 6e-8 at 1e8 steps and every digit by 1e15; _rk4_power also
# needs n < 2^27 for its exact phase product
MAX_STEPS = 10 ** 8


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

    A uniform mesh makes the operator block-circulant: blocks and
    _inv_mass then keep row 0 alone, of shapes (1, k+1, k+1) and
    (1, k+1), built from cells N-1, 0 and 1, and every product
    broadcasts it over the N cells.
    """

    def __init__(self, mesh: Mesh1D, cfg: FluxConfig, k: int):
        if k < 2:
            raise ValueError("solver needs k >= 2")
        self.mesh = mesh
        self.k = k
        sf = scale_flux(cfg, mesh.h)
        G, H = interface_matrices(sf)
        # the kept rows, and the rows of their left and right neighbours
        if mesh.is_uniform:
            hj = mesh.h_sizes[[-1, 0, 1]]
            rows, prev, nxt = slice(1, 2), [0], [2]
        else:
            hj = mesh.h_sizes
            rows, prev = slice(None), np.arange(-1, mesh.N - 1)
            nxt = np.arange(1, mesh.N + 1) % mesh.N
        R, L = trace_maps(k, hj)
        Rj, Lj, hj = R[rows], L[rows], hj[rows]
        # test-side pairings of (uhat, uxt): R^T J at the right endpoint,
        # -L^T J at the left, with J = [[0, 1], [-1, 0]]
        J = np.array([[0.0, 1.0], [-1.0, 0.0]])
        pair_r = Rj.transpose(0, 2, 1) @ J
        pair_l = -Lj.transpose(0, 2, 1) @ J
        stiff2 = basis.reference_matrices(k)
        # a flux past float64 may overflow the blocks: the row names the
        # fault in words
        with np.errstate(over="ignore", invalid="ignore"):
            C0 = ((2.0 / hj)[:, None, None] * stiff2
                  + pair_r @ G @ Rj + pair_l @ H @ Lj)
            self.blocks = pair_l @ G @ R[prev], C0, pair_r @ H @ L[nxt]
        self._inv_mass = (2 * np.arange(k + 1) + 1) / hj[:, None]

    def _cells(self, a: np.ndarray) -> np.ndarray:
        """A per-cell array with one row for each of the N cells: on a
        uniform mesh a read-only broadcast of row 0."""
        return np.broadcast_to(a, (self.mesh.N,) + a.shape[1:])

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
        return tuple(self._cells(scale * C) for C in self.blocks)

    def rk4_sparse_update(self, dt: float) -> np.ndarray:
        """One-step RK4 update I + sum_{p<=4} (dt L)^p / p! as block bands.

        Row block j, of shape (k+1, 9(k+1)), multiplies the coefficients
        of cells j-4 .. j+4 laid end to end; the result has shape
        (N, k+1, 9(k+1)).  Built by Horner from the blocks of apply(),
        each product with L widening the band by one cell per side.

        Two arrays of the result's size are live at once, S and the sum
        L S, and one buffer of 8/9 of that size for each product."""
        N, kp1 = self.mesh.N, self.k + 1
        Lm, L0, Lp = self.coupling_blocks()
        eye, w = np.eye(kp1), 8 * kp1
        S = np.zeros((N, kp1, 9 * kp1), dtype=complex)
        S[:, :, 4 * kp1:5 * kp1] = eye
        LS, prod = np.empty_like(S), np.empty((N, kp1, w), dtype=complex)
        for p in (4, 3, 2, 1):
            # (L S)[j] = sum_a La[j] S[j+a], with the bands of S[j+a] moved
            # a cells over, summed from 0 in the order a = -1, 0, 1.  S
            # spans at most cells j-3..j+3 here, so each product skips a
            # zero cell of S at one end (the first for a = -1 and 0, the
            # last for a = 1); row j+a wraps from N-1 to 0
            LS.fill(0)
            np.matmul(Lm[1:], S[:-1, :, kp1:], out=prod[1:])
            np.matmul(Lm[:1], S[-1:, :, kp1:], out=prod[:1])
            LS[:, :, :w] += prod
            LS[:, :, kp1:] += np.matmul(L0, S[:, :, kp1:], out=prod)
            np.matmul(Lp[:-1], S[1:, :, :w], out=prod[:-1])
            np.matmul(Lp[-1:], S[:1, :, :w], out=prod[-1:])
            LS[:, :, kp1:] += prod
            LS *= dt / p
            LS[:, :, 4 * kp1:5 * kp1] += eye
            S, LS = LS, S
        return S


def rk4_step(op, u: DGFunction, dt: float) -> DGFunction:
    """One classical RK4 step of du/dt = op.apply(u)."""
    c = u.coeffs
    k1 = op.apply(c)
    k2 = op.apply(c + 0.5 * dt * k1)
    k3 = op.apply(c + 0.5 * dt * k2)
    k4 = op.apply(c + dt * k3)
    return DGFunction(u.mesh, u.k, c + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4))


class IntegrationResult:
    """The solution at t_end, the step and the number of steps taken."""

    __slots__ = ("u", "dt", "n_steps")

    def __init__(self, u: DGFunction, dt: float, n_steps: int):
        self.u, self.dt, self.n_steps = u, dt, n_steps


def _step_counts(t_end: float, dt: float) -> tuple[int, float]:
    if t_end < 0:
        raise ConfigurationError(f"final time t_end = {t_end:g} is negative")
    if t_end == 0:
        return 0, 0.0
    if not np.isfinite(t_end / dt):
        raise ConfigurationError(
            f"step count t_end/dt = {t_end:g}/{dt:g} is not finite")
    n_full = int(np.floor(t_end / dt + STEP_ROUND_TOL))
    rem = t_end - n_full * dt
    if n_full and rem < STEP_ROUND_TOL * dt:   # t_end < dt: one step
        rem = 0.0
    return n_full, rem


def _rk4_power(y: np.ndarray, n: int) -> np.ndarray:
    """R4(iy)^n for real y.  n = 1, the truncated final step of a march,
    is the polynomial R4(iy) = 1 - y^2/2 + y^4/24 + i (y - y^3/6) itself.
    For other n the modulus comes from the exact identity
    |R4(iy)|^2 = 1 + y^6 (y^2 - 8) / 576 through log1p, not from |.|
    of a number within roundoff of 1, so n ~ 1e6 does not amplify it.
    The phase n * arg R4 is taken without rounding the product: arg R4
    splits into a 26-bit head, whose product with n < 2^27 (MAX_STEPS
    is below it) is exact, and a tail."""
    y2 = y * y
    if n == 1:
        out = np.empty(y.shape, dtype=complex)
        out.real = 1.0 - y2 / 2.0 + y2 * y2 / 24.0
        out.imag = y - y * y2 / 6.0
        return out
    log_mod = 0.5 * np.log1p(y2 ** 3 * (y2 - 8.0) / 576.0)
    phase = np.arctan2(y - y * y2 / 6.0, 1.0 - y2 / 2.0 + y2 * y2 / 24.0)
    split = 134217729.0 * phase          # (2^27 + 1) phase: Veltkamp
    head = split - (split - phase)
    return (np.exp(n * (log_mod + 1j * (phase - head)))
            * np.exp(1j * (n * head)))


class _EigenMarch:
    """Uniform mesh: RK4 in the eigenbasis of the scaled DFT symbol.

    At frequency l the symbol of apply() is i D^2 K_l with
    K_l = C0 + w Cp + conj(w) Cm, w = exp(2 pi i l / N) and
    D = diag(sqrt((2m+1)/h)).  C0 is symmetric and Cm = Cp^T, so
    D K_l D = V diag(lam) V^H is Hermitian, and n RK4 steps multiply the
    eigen-coordinates z = V^H D^-1 chat_l by R4(i dt lam)^n, one
    _rk4_power call.  The blocks are real, so K_{N-l} = conj(K_l): eigh
    runs on l = 0..N/2 only, l > N/2 takes conj(V) of N - l, and lam and
    the power are kept for l = 0..N/2 and read at min(l, N - l)."""

    def __init__(self, op: DGOperator, coeffs: np.ndarray):
        Cm, C0, Cp = (C[0] for C in op.blocks)
        N, d = op.mesh.N, np.sqrt(op._inv_mass[0])
        w = np.exp(2j * np.pi * np.arange(N // 2 + 1) / N)[:, None, None]
        sym = d[:, None] * (C0 + w * Cp + w.conj() * Cm) * d
        self.lam_half, V = np.linalg.eigh(  # clamped past float64: rho inf/nan
            sym if np.isfinite(sym).all() else np.nan_to_num(sym))
        self.V = np.concatenate([V, V[N - np.arange(N // 2 + 1, N)].conj()])
        self.fold = np.minimum(np.arange(N), N - np.arange(N))
        self.d = d
        chat = np.fft.fft(coeffs, axis=0) / d
        self.state = (chat[:, None, :] @ self.V.conj())[:, 0, :]

    def rho(self, sigma: float) -> float:
        """rho(S), the largest |lam|, whatever sigma."""
        return float(np.abs(self.lam_half).max())

    def advance(self, n: int, step: float):
        self.state *= _rk4_power(step * self.lam_half, n)[self.fold]

    def coeffs(self) -> np.ndarray:
        chat = (self.V @ self.state[:, :, None])[:, :, 0] * self.d
        return np.fft.ifft(chat, axis=0)


def _symmetric_bands(op: DGOperator) -> tuple[np.ndarray, np.ndarray]:
    """The real symmetric form S = D A D of the operator, apply = i D^2 A
    with D = diag(sqrt((2m+1)/h_j)), as its diagonal blocks
    S_jj = D_j C0_j D_j and upper blocks S_{j,j+1} = D_j Cp_j D_{j+1}
    (periodic in j); the lower blocks are their transposes, since
    Cm[j+1] = Cp[j]^T."""
    _, C0, Cp = map(op._cells, op.blocks)
    d = np.sqrt(op._cells(op._inv_mass))
    return (d[:, :, None] * C0 * d[:, None, :],
            d[:, :, None] * Cp * np.roll(d, -1, axis=0)[:, None, :])


def _count_outside(bands: tuple[np.ndarray, np.ndarray], sigma: float) -> int:
    """The number of eigenvalues of S outside [-sigma, sigma].

    By Sylvester's law it is the negative inertia of T = sigma I - S plus
    that of T = sigma I + S; both are counted at once, stacked, by
    odd-even block cyclic reduction of the periodic block-tridiagonal T.
    Each level takes out the odd cells, which no two neighbour: their blocks
    D_e add their own inertia, and the Schur complement on the even cells
    (Haynsworth) is again periodic block-tridiagonal, with half as many
    cells.  On an odd count of cells the last even cell keeps its direct
    coupling to cell 0.  A single cell coupled to itself by E is
    D + E + E^T.  When the verdict is stable both T are positive
    definite, and so is every pivot block."""
    S0, Sp = bands
    sign = np.array([-1.0, 1.0])[:, None, None, None]
    D = sigma * np.eye(S0.shape[-1]) + sign * S0   # (2, M, b, b) diagonal
    E = sign * Sp                                  # block (j, j+1)
    count = 0
    while D.shape[1] > 1:
        M, n_odd = D.shape[1], D.shape[1] // 2
        left, right = E[:, 0:2 * n_odd:2], E[:, 1::2]   # (e-1, e), (e, e+1)
        count += np.count_nonzero(np.linalg.eigvalsh(D[:, 1::2]) < 0)
        inv = np.linalg.inv(D[:, 1::2])
        X = left @ inv
        Y = right.swapaxes(-1, -2) @ inv
        D, E = D[:, 0::2].copy(), E[:, 0::2].copy()
        D[:, :n_odd] -= X @ left.swapaxes(-1, -2)
        D[:, (np.arange(n_odd) + 1) % (M - n_odd)] -= Y @ right
        E[:, :n_odd] = -X @ right
    last = D[:, 0] + E[:, 0] + E[:, 0].swapaxes(-1, -2)
    return count + np.count_nonzero(np.linalg.eigvalsh(last) < 0)


def _spectral_radius(bands: tuple[np.ndarray, np.ndarray],
                     lo: float) -> float:
    """rho(S), for rho(S) > lo >= 0, by bisecting _count_outside between
    lo and the Gershgorin bound to relative width RHO_BISECT_TOL.  The
    upper end is returned, so c * 2 sqrt(2) / (dt rho) is a stable c."""
    S0, Sp = bands
    hi = float(np.max(np.abs(S0).sum(-1) + np.abs(Sp).sum(-1)
                      + np.abs(np.roll(Sp, 1, axis=0)).sum(-2)))
    while hi - lo > RHO_BISECT_TOL * hi:
        mid = 0.5 * (lo + hi)
        if _count_outside(bands, mid):
            lo = mid
        else:
            hi = mid
    return hi


STEPS_PER_PRODUCT = 2   # RK4 steps per banded product: the update squared
GROUP = 4               # cells per row block of the two-step update
REACH = 4 * STEPS_PER_PRODUCT   # cells the two-step update reaches per side
HALO = REACH // GROUP   # row blocks a product reads past its own, per side
ROUND = 4               # products per barrier of a march in several parts
# a march runs in the most parts, at most the cores, in which each part
# owns more than GIL_OUTPUTS output rows (numpy 2.4's matmul holds the
# GIL for 500 outputs or fewer) and takes at least MIN_PART_MACS complex
# multiply-adds a product (800 KB of band) to pay for its barrier: in two
# timing sets on 2 vCPUs (256 products) two parts over one won from 57.6k
# (k=2 N=640, k=4 N=240, k=6 N=160: 0.70-0.90, 0.77-0.84), and at 40k-46k
# (k=3 N=256, 288, k=2 N=448) read 1.04-1.15 and 0.85-0.96; k=5 N=160 1.11
GIL_OUTPUTS = 500
MIN_PART_MACS = 50_000
# an advance of at most SHORT_ADVANCE products takes one part: the halo
# rows of its band and the threads cost more than the parts gain.  Timed
# on 2 vCPUs (advance alone, min of 8 alternating runs, three rounds) at
# k=3 N=256, k=4 N=240 and k=6 N=160, two parts lost to one in all 99
# readings at 1, 4-8, 10, 12, 16, 24 and 32 products (k=3 N=256: 9.8-12.6
# against 8.3-10.7 ms at 1, 12.4-13.8 against 10.4-13.2 ms at 32); two
# parts won 1 of 9 readings at 40 products and 2 of 9 at 64
SHORT_ADVANCE = 8 * ROUND
# row blocks of the two-step band built from one window of the one-step
# band, through a scratch of as many row blocks.  A two-part k=2, N=640
# build and 8 steps took 0.93-0.97 the time of building each part in one
# call with 40 gathers; 8 row blocks took 0.99-1.08, and 32 took
# 1.05-1.11 at k=4, N=240 (min of 80 alternating runs, 2 vCPUs)
BUILD_BLOCKS = 16


def _part_count(N: int, kp1: int, products: int) -> int:
    """The parts an advance of a band march on N cells of degree kp1-1
    takes for its products: one if N is not a multiple of GROUP or the
    advance is short."""
    if N % GROUP or products <= SHORT_ADVANCE:
        return 1
    rows = GROUP * kp1                          # a row block's outputs
    macs = rows * (GROUP + 2 * REACH) * kp1     # and its multiply-adds
    min_blocks = max(GIL_OUTPUTS // rows + 1, -(-MIN_PART_MACS // macs))
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)      # no affinity on macOS, Windows
    return max(1, min(cores, N // GROUP // min_blocks))


def _two_step_rows(P: np.ndarray, pad: int) -> np.ndarray:
    """The two-step update P^2 from the one-step bands P of
    rk4_sparse_update, as the ring's ceil(N/4) row blocks of GROUP
    consecutive cells and pad more on each side, taken around the ring,
    on a 64-byte line.  A pad needs N a multiple of GROUP.

    Row block b, of shape (4(k+1), 20(k+1)), holds cells 4b .. 4b+3
    (slot i = j - 4b) and multiplies the coefficients of cells
    4b-8 .. 4b+11 laid end to end; rows of cells past N-1 are zero.
    (P^2)_j = sum_a P_j[band a] P_{j+a}, and the nine bands of cell j+a
    start a - 4 cells from j, i + a + 4 cells into the window.  Each entry
    is 0 plus its terms in the order of a.

    The rows are built in pieces of at most BUILD_BLOCKS row blocks, cut
    every BUILD_BLOCKS from -pad.  A piece of n row blocks from c reads
    one window W of P, cells 4c-4 .. 4(c+n)+3 around the ring, gathered
    into one buffer: its cells are W[4:4n+4] and their neighbours at a
    W[4+a:4n+4+a], views.  For each a, one matmul writes the products into
    a skewed view of the scratch S at the columns of a = -4 (slot i from i
    cells in), and S is added to the rows, flat, (a + 4)(k+1) entries on,
    where the columns of a lie in every row.  Both operands of the sum are
    contiguous, so numpy allocates no buffer for it.  S is -0.0 but in
    those columns: x + -0.0 is x, bit for bit."""
    N, kp1 = P.shape[:2]
    if pad and N % GROUP:
        raise ValueError(f"a pad needs N a multiple of {GROUP}, not {N}")
    n_blocks = -(-N // GROUP)
    shape = (n_blocks + 2 * pad, GROUP * kp1, (GROUP + 2 * REACH) * kp1)
    # Q on a 64-byte line: 16 bytes off one, the k=3 N=160 march took 1.15x
    raw = np.empty(np.prod(shape) + 3, dtype=complex)
    Q = raw[(-raw.ctypes.data // 16) % 4:][:np.prod(shape)].reshape(shape)
    S = np.full((min(BUILD_BLOCKS, shape[0]),) + shape[1:],
                complex(-0.0, -0.0))
    window = np.empty((GROUP * (len(S) + 2),) + P.shape[1:], dtype=complex)
    s0, srow, sc = S.strides
    band = as_strided(S, shape=(len(S), GROUP, kp1, 9 * kp1),
                      strides=(s0, kp1 * (srow + sc), srow, sc))
    for c in range(-pad, n_blocks + pad, BUILD_BLOCKS):
        n = min(BUILD_BLOCKS, n_blocks + pad - c)
        W = P.take(np.arange(GROUP * (c - 1), GROUP * (c + n + 1)), axis=0,
                   out=window[:GROUP * (n + 2)], mode="wrap")
        own = W[GROUP:GROUP * (n + 1)].reshape(n, GROUP, kp1, -1)
        q, s = Q[c + pad:c + pad + n].reshape(-1), S[:n].reshape(-1)
        for a in range(9):
            np.matmul(own[..., a * kp1:(a + 1) * kp1],
                      W[a:a + GROUP * n].reshape(n, GROUP, kp1, -1),
                      out=band[:n])
            lead = a * kp1
            np.add(q[lead:] if a else 0.0, s[:len(s) - lead], out=q[lead:])
    Q[pad:pad + n_blocks].reshape(-1, kp1, shape[2])[N:] = 0
    return Q


def _march_part(b0: int, b1: int, s: int, Q: np.ndarray, cells: np.ndarray,
                bufs: list[np.ndarray], states: list[np.ndarray],
                products: int, barrier):
    """Take the products of row blocks [b0, b1) of the ring of a band
    march in its band rows Q, s a round, a short round first.

    Round r gathers the part's cells, with s * REACH cells of periodic
    halo on each side, from states[r % 2] into bufs, then takes s products
    on ranges that shrink by HALO row blocks per side each time; the last
    is the part's own row blocks, written into the other state, and a
    barrier, if any, is met.  Product i reads bufs[i % 2] and, but for the
    last, writes bufs[(i + 1) % 2].  Q is the view of the advance's one
    two-step band at the row blocks of the first product,
    [b0 - HALO (s-1), b1 + HALO (s-1)) around the ring; product i takes
    rows i HALO .. len - i HALO of it.  steps holds the (band, window,
    out) triples of the s - 1 products into bufs; outs holds the last
    product's output in each state.  A part allocates only views."""
    m, blk, width = Q.shape
    windows = [sliding_window_view(b.ravel(), width)[::blk, :, None]
               for b in bufs]
    rows = [slice(i * HALO, m - i * HALO) for i in range(s)]
    steps = [(Q[rows[i]], windows[i % 2][rows[i]],
              bufs[(i + 1) % 2].reshape(-1, blk, 1)[
                  (i + 1) * HALO:m - (i - 1) * HALO])
             for i in range(s - 1)]
    last_band, last_window = Q[rows[-1]], windows[(s - 1) % 2][rows[-1]]
    outs = [x.reshape(-1, blk, 1)[b0:b1] for x in states]
    first, x = -products % s, 0
    for _ in range(-(-products // s)):
        states[x].take(cells, axis=0, out=bufs[first % 2], mode="wrap")
        for band, window, out in steps[first:]:
            np.matmul(band, window, out=out)
        np.matmul(last_band, last_window, out=outs[1 - x])
        if barrier is not None:
            barrier.wait()
        x, first = 1 - x, 0


class _BandMarch:
    """Any mesh: two RK4 steps per banded matrix-vector product.

    The ring of ceil(N/4) row blocks is cut into contiguous parts.  Each
    product is one batched matmul of (4(k+1), 20(k+1)) rows of the
    two-step update against strided views of their twenty-cell windows.
    Each advance makes, in the calling thread, one rk4_sparse_update,
    from it one two-step band of every part's row blocks and halos
    (_two_step_rows), and every part's gather buffers; then each part,
    _march_part, takes its products on its view of that band in its own
    thread, the first in the calling one.  A part's thread allocates no
    array, so its malloc arena stays small.  One part takes
    one product a round, on its cells with eight cells of periodic wrap at
    each end; several parts take ROUND products a round each on their
    halos and meet at one barrier a round.  The rounds alternate between
    the two states, so no part overwrites cells that another is still
    gathering; an advance starts from states[0] and leaves its result
    there.  Every output row block is the matmul of the same band rows
    and window values however the ring is cut, so the result is bitwise
    that of one part.  _part_count chooses each advance's parts from the
    cores, the work of each and the products; parts need N a multiple
    of 4.

    An advance of n steps is n // 2 products and, for odd n, one literal
    rk4_step; the truncated final step is such an advance, so no update
    is built for it."""

    def __init__(self, op: DGOperator, coeffs: np.ndarray):
        N, kp1 = op.mesh.N, op.k + 1
        self.op, self.N = op, N
        self.states = list(np.zeros((2, -(-N // GROUP) * GROUP, kp1),
                                    dtype=complex))
        self.states[0][:N] = coeffs

    def advance(self, n: int, step: float):
        products = n // STEPS_PER_PRODUCT
        if products:
            self._run(self.op.rk4_sparse_update(step), products)
        u = self.states[0][:self.N]
        for _ in range(n % STEPS_PER_PRODUCT):
            u[:] = rk4_step(self.op, DGFunction(self.op.mesh, self.op.k, u),
                            step).coeffs

    def _run(self, P: np.ndarray, products: int):
        """Take the products in every part, each in its own thread, the
        first in this one, and leave the result in states[0].  An error in
        any part is raised here once every thread has ended."""
        N, kp1 = P.shape[:2]
        T, n_blocks = _part_count(N, kp1, products), -(-N // GROUP)
        s = ROUND if T > 1 else 1
        pad = HALO * (s - 1)
        ends = [n_blocks * t // T for t in range(T + 1)]
        Q = _two_step_rows(P, pad)
        parts = []
        for b0, b1 in zip(ends, ends[1:]):
            cells = np.arange(GROUP * (b0 - pad - HALO),
                              GROUP * (b1 + pad + HALO)) % N
            bufs = [np.empty((len(cells), kp1), dtype=complex)
                    for _ in range(min(s, 2))]
            parts.append((b0, b1, s, Q[b0:b1 + 2 * pad], cells, bufs))
        barrier = threading.Barrier(T) if T > 1 else None
        failed = []

        def run(t):
            try:
                _march_part(*parts[t], self.states, products, barrier)
            except BaseException as exc:    # release the other parts
                failed.append(exc)
                if barrier is not None:
                    barrier.abort()

        threads = []
        try:
            for t in range(1, T):
                thread = threading.Thread(target=run, args=(t,))
                thread.start()
                threads.append(thread)
            run(0)
        finally:
            if len(threads) < T - 1:    # one did not start
                barrier.abort()
            for thread in threads:
                thread.join()
        if failed:
            raise failed[0]
        if -(-products // s) % 2:       # the last round wrote states[1]
            self.states.reverse()

    def rho(self, sigma: float) -> float:
        """rho(S) if some eigenvalue of S lies outside [-sigma, sigma], else
        sigma, which bounds it.  rho(S) = ||S||_2 is at least every |S_ij|,
        so an entry past sigma settles it without the inertia count, in
        which sigma I -+ S would lose sigma to roundoff."""
        bands = _symmetric_bands(self.op)
        if (max(np.abs(B).max() for B in bands) <= sigma
                and not _count_outside(bands, sigma)):
            return sigma
        return _spectral_radius(bands, sigma)

    def coeffs(self) -> np.ndarray:
        return self.states[0][:self.N].copy()


def integrate(op: DGOperator, u0: DGFunction, c: float,
              t_end: float) -> IntegrationResult:
    """March u0 to t_end with RK4 at dt = c h^2.5 (truncated final step).

    Stability of the step dt is decided before any step, from the one
    number the propagator the mesh selects gives: rho(S), exact from the
    symbol eigenvalues on a uniform mesh; on any other mesh an inertia
    count proves whether any eigenvalue of S lies past 2 sqrt(2) / dt,
    and only then is rho bisected.  An unstable run raises
    InstabilityError with its margin dt rho(S) / (2 sqrt 2) and the
    largest stable c, c / margin (dt is linear in c).  A run with
    t_end < dt takes no step of size dt and is not judged by it.  A
    stable run is one advance of the n_full steps and one of the
    truncated step, by eigen-space powers on uniform meshes and two steps
    per banded product on any other, in as many threads as _part_count
    decides from the cores, the work of each and the advance's products;
    every thread has ended when integrate returns or raises, and an error
    in one is raised here.
    As a backstop, a final l2_norm that is not finite or beyond 10x the
    initial one raises InstabilityError too.  A dt that is not positive, a
    negative t_end, a step count that is not finite, or more than
    MAX_STEPS steps raise ConfigurationError before any step.
    """
    dt = c * op.mesh.h ** 2.5
    if not dt > 0:
        raise ConfigurationError(
            f"time step c*h^2.5 = {c:g}*{op.mesh.h:g}^2.5 is not positive")
    n_full, rem = _step_counts(t_end, dt)
    if n_full > MAX_STEPS:
        raise ConfigurationError(
            f"{n_full:.3e} RK4 steps of dt = {dt:.3e} exceed the "
            f"{MAX_STEPS:.0e} a march may take")
    n_steps = n_full + (rem > 0.0)
    if not n_steps:
        return IntegrationResult(u=u0.copy(), dt=dt, n_steps=0)
    # the verdict is on the repeated step dt: a run shorter than one step
    # takes only the truncated step, one bounded multiplication by R4.  An
    # operator past float64 overflows its spectrum, and rho is inf or nan
    sigma = RK4_LIMIT / dt
    with np.errstate(over="ignore", invalid="ignore"):
        march = (_EigenMarch if op.mesh.is_uniform
                 else _BandMarch)(op, u0.coeffs)
        rho = march.rho(sigma) if n_full else 0.0
    if not rho <= sigma:        # nan: a spectrum past float64
        raise InstabilityError(dt, rho / sigma, c * sigma / rho)
    scale = max(l2_norm(u0), 1e-300)
    if n_full:
        march.advance(n_full, dt)
    if rem > 0.0:
        # the verdict on dt bounds this step, except in a run shorter than
        # dt: there it is not judged, so rem * lam may overflow, and the
        # backstop below says so
        with np.errstate(over="ignore", invalid="ignore"):
            march.advance(1, rem)
    u = DGFunction(op.mesh, op.k, march.coeffs())
    nrm = l2_norm(u)
    if not nrm <= BLOWUP_FACTOR * scale:
        raise InstabilityError(dt, norm_ratio=nrm / scale)
    return IntegrationResult(u=u, dt=dt, n_steps=n_steps)
