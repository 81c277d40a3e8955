"""Semi-discrete ultra-weak DG operator and RK4 time marching.

The weak form tested against L_{j,m} gives, per cell, a volume term
through the exact reference stiffness stiff2 and interface terms through
the numerical fluxes; inverting the diagonal Legendre mass matrix yields
the coefficient ODE du/dt = i M^{-1} A u.  The operator is linear and
time independent, assembled once per (mesh, flux, degree) and reused
across all RK4 stages.

Time marching is classical RK4 with the step rule dt = c h^{2.5} (a
study's c by default from DEFAULT_DT_CONSTANTS), final step truncated
to land exactly on the end time.  A step is the linear map R4(dt L),
R4(z) = 1 + z + z^2/2 + z^3/6 + z^4/24.  L = i D^2 A is similar to
i S with S = D A D real symmetric, and |R4(iy)| <= 1 iff
|y| <= 2 sqrt(2), so a march is stable iff dt rho(S) <= 2 sqrt(2).
integrate decides that before any step, from the rho(S) of the
propagator the mesh selects: the eigenvalues of the Hermitian scaled DFT
symbols on uniform meshes, where the operator is block-circulant, and a
Sylvester inertia count of S -+ sigma I on other meshes.  A stable march
is then one power of R4 per eigenvector on uniform meshes; on other
meshes the square of the banded one-step update applied two steps per
block-banded product, with an odd step left over and the truncated
final step taken by the literal rk4_step, the stage-by-stage step that
is also the reference the tests compare both propagators against.  A
band too large for one core's L2 cache is marched in contiguous parts of
its ring of row blocks, one thread per core, each on its own halo for
four products between barriers; the result is bitwise that of one part.
"""

from __future__ import annotations

import functools
import os
import threading

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import basis
from .errors import ConfigurationError, InstabilityError
from .flux import (RHO_BISECT_TOL, STEP_ROUND_TOL, FluxConfig,
                   interface_matrices, scale_flux, trace_maps)
from .mesh import Mesh1D
from .projection import DGFunction

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
        G, H = interface_matrices(scale_flux(cfg, mesh.h))
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
        C0 = ((2.0 / hj)[:, None, None] * stiff2
              + pair_r @ G @ Rj + pair_l @ H @ Lj)
        self.blocks = (pair_l @ G @ R[prev], C0, pair_r @ H @ L[nxt])
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

    def as_matrix(self) -> np.ndarray:
        """Dense matrix of apply() on flattened coefficients (tests only)."""
        N, kp1 = self.mesh.N, self.k + 1
        M = np.zeros((N, kp1, N, kp1), dtype=complex)
        j = np.arange(N)
        for off, C in zip((-1, 0, 1), self.coupling_blocks()):
            M[j, :, (j + off) % N] += C
        return M.reshape(N * kp1, N * kp1)

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
    if rem < STEP_ROUND_TOL * dt:
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
    the power are kept for l = 0..N/2 and read at min(l, N - l).
    V is unitary and ||u||^2 = sum_j |D^-1 c_j|^2, so by Parseval
    ||u||^2 = sum |z|^2 / N, which norm() takes."""

    def __init__(self, op: DGOperator, coeffs: np.ndarray):
        Cm, C0, Cp = (C[0] for C in op.blocks)
        N, d = op.mesh.N, np.sqrt(op._inv_mass[0])
        w = np.exp(2j * np.pi * np.arange(N // 2 + 1) / N)[:, None, None]
        self.lam_half, V = np.linalg.eigh(
            d[:, None] * (C0 + w * Cp + w.conj() * Cm) * d)
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

    def norm(self) -> float:
        return float(np.sqrt(np.vdot(self.state, self.state).real
                             / len(self.state)))

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
# a march runs in parts only when its band fills at least L2_SHARE of a
# core's L2 cache, and in no more parts than keep MIN_PART_BLOCKS row
# blocks each.  On 2 cores with 2 MB of L2 each, per product: k=2 at
# N=640 and 1280, k=3 and k=4 at N=320 took 0.56-0.81 of the serial time
# in two parts; k=2 at N=320, and k=3 and k=4 at N=160 (40 row blocks),
# took 1.1-2.2 of it
L2_SHARE = 0.75
MIN_PART_BLOCKS = 40


@functools.cache
def _l2_bytes() -> int:
    """The L2 cache of one core in bytes, or 0 where it cannot be read."""
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index2/size") as f:
            size = f.read().strip()
        return int(size.rstrip("KM")) * {"K": 1 << 10, "M": 1 << 20}.get(
            size[-1:], 1)
    except (OSError, ValueError):
        return 0


def _host() -> tuple[int, int]:
    """(the cores this process may run on, _l2_bytes())."""
    l2 = _l2_bytes()
    return (len(os.sched_getaffinity(0)) if l2 else 1), l2


def _part_count(n_blocks: int, band_bytes: int, cpus: int, l2: int) -> int:
    """The parts a band march of n_blocks row blocks, whose two-step band
    takes band_bytes, runs in on cpus cores of l2 bytes of L2 each (0:
    unknown)."""
    if not l2 or band_bytes < L2_SHARE * l2:
        return 1
    return max(1, min(cpus, n_blocks // MIN_PART_BLOCKS))


def _two_step_rows(P: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """The two-step update P^2 from the one-step bands P of
    rk4_sparse_update, as the row blocks of GROUP consecutive cells that
    blocks lists, in its order; a list may wrap and repeat row blocks.

    Row block b, of shape (4(k+1), 20(k+1)), holds cells 4b .. 4b+3
    (slot i = j - 4b) and multiplies the coefficients of cells
    4b-8 .. 4b+11 laid end to end; rows of cells past N are zero.
    (P^2)_j = sum_a P_j[band a] P_{j+a}, and the nine bands of cell j+a
    start a - 4 cells from j, i + a + 4 cells into the window."""
    N, kp1 = P.shape[0], P.shape[1]
    Q = np.zeros((len(blocks), GROUP * kp1, (GROUP + 2 * REACH) * kp1),
                 dtype=complex)
    for i in range(GROUP):
        cells = (GROUP * blocks + i) % N
        Pi = P[cells]
        for a in range(-4, 5):
            col = (i + a - 4 + REACH) * kp1
            Q[:, i * kp1:(i + 1) * kp1, col:col + 9 * kp1] += (
                Pi[..., (a + 4) * kp1:(a + 5) * kp1] @ P[(cells + a) % N])
    cells = GROUP * blocks[:, None] + np.arange(GROUP)
    Q.reshape(-1, kp1, Q.shape[2])[cells.ravel() >= N] = 0
    return Q


class _Part:
    """Row blocks [b0, b1) of the ring of a band march, advanced s
    two-step products a round.

    A round gathers the part's cells, with s * REACH cells of periodic
    halo on each side, from one march state into bufs.  It then takes s
    products on ranges that shrink by HALO row blocks per side each time;
    the last is the part's own row blocks, written into the other state.
    Product i reads bufs[i % 2] and, but for the last, writes
    bufs[(i + 1) % 2].  The part's band rows, blocks, are those of its
    first product, [b0 - HALO (s-1), b1 + HALO (s-1)) around the ring;
    product i takes rows i HALO .. len - i HALO of them."""

    def __init__(self, b0: int, b1: int, s: int, N: int, kp1: int):
        pad = HALO * (s - 1)
        self.own, self.s = slice(b0, b1), s
        self.blocks = np.arange(b0 - pad, b1 + pad) % -(-N // GROUP)
        self.cells = np.arange(GROUP * (b0 - pad - HALO),
                               GROUP * (b1 + pad + HALO)) % N
        self.bufs = [np.empty((len(self.cells), kp1), dtype=complex)
                     for _ in range(min(s, 2))]
        self.windows = [sliding_window_view(
            b.ravel(), (GROUP + 2 * REACH) * kp1)[::GROUP * kp1, :, None]
            for b in self.bufs]

    def set_band(self, band: np.ndarray, states: list[np.ndarray]):
        """Set steps[x], the s (band, window, out) triples of a round that
        writes states[x], from band, the part's rows of the band."""
        m, blk = len(band), band.shape[1]
        self.steps = ([], [])
        for x, steps in enumerate(self.steps):
            for i in range(self.s):
                rows = slice(i * HALO, m - i * HALO)
                out = (states[x].reshape(-1, blk, 1)[self.own]
                       if i == self.s - 1 else
                       self.bufs[(i + 1) % 2].reshape(-1, blk, 1)[
                           (i + 1) * HALO:m - (i - 1) * HALO])
                steps.append((band[rows], self.windows[i % 2][rows], out))


class _BandMarch:
    """Any mesh: two RK4 steps per banded matrix-vector product.

    The two-step update, the square of rk4_sparse_update, is built by
    _two_step_rows once per advance, so each product is one batched
    matmul of (4(k+1), 20(k+1)) row blocks, each against a strided view
    of its twenty-cell window.  The ring of ceil(N/4) row blocks is cut
    into contiguous _Parts, each marched in its own thread, the first in
    the calling one.  A single part takes one product a round, on a
    buffer of its cells with eight cells of periodic wrap at each end.
    Several parts take ROUND products a round each and meet at one
    barrier a round; the halo each gathers lets it take them alone.  The
    state is two buffers that the rounds alternate between, so a part
    writing the next state never overwrites cells that another part is
    still gathering.  Every output row block is the matmul of the same
    band rows and the same window values however the ring is cut, so the
    result is bitwise the same.  _part_count decides the parts from the
    cores, the band's bytes and the per-core L2 cache, so that each part
    keeps its share of a band too large for one core's cache in its own
    core's; parts need N a multiple of 4.

    An advance of n steps is n // 2 products and, for odd n, one literal
    rk4_step; the truncated final step is such an advance, so no update
    is built for it.  norm() takes, by Parseval,
    ||u||^2 = sum |c_{j,m}|^2 h_j / (2m+1)."""

    def __init__(self, op: DGOperator, coeffs: np.ndarray):
        N, kp1 = op.mesh.N, op.k + 1
        n_blocks = -(-N // GROUP)
        band_bytes = 16 * n_blocks * GROUP * (GROUP + 2 * REACH) * kp1 ** 2
        T = (_part_count(n_blocks, band_bytes, *_host())
             if N % GROUP == 0 else 1)
        self.op, self.N, self.cur = op, N, 0
        self.states = list(np.zeros((2, n_blocks * GROUP, kp1),
                                    dtype=complex))
        self.states[0][:N] = coeffs
        ends = [n_blocks * t // T for t in range(T + 1)]
        self.parts = [_Part(b0, b1, ROUND if T > 1 else 1, N, kp1)
                      for b0, b1 in zip(ends, ends[1:])]

    @property
    def state(self) -> np.ndarray:
        return self.states[self.cur][:self.N]

    def advance(self, n: int, step: float):
        products = n // STEPS_PER_PRODUCT
        if products:
            band = _two_step_rows(self.op.rk4_sparse_update(step),
                                  np.concatenate([p.blocks
                                                  for p in self.parts]))
            start = 0
            for part in self.parts:
                part.set_band(band[start:start + len(part.blocks)],
                              self.states)
                start += len(part.blocks)
            self._run(products)
        for _ in range(n % STEPS_PER_PRODUCT):
            u = DGFunction(self.op.mesh, self.op.k, self.state)
            self.state[:] = rk4_step(self.op, u, step).coeffs

    def _run(self, products: int):
        """Take the products in every part, each in its own thread, the
        first in this one.  An error in any part is raised here once every
        thread has ended."""
        if len(self.parts) == 1:
            self._march(self.parts[0], products, None)
        else:
            barrier = threading.Barrier(len(self.parts))
            failed = []

            def run(part):
                try:
                    self._march(part, products, barrier)
                except BaseException as exc:    # release the other parts
                    failed.append(exc)
                    barrier.abort()

            threads = []
            try:
                for part in self.parts[1:]:
                    thread = threading.Thread(target=run, args=(part,))
                    thread.start()
                    threads.append(thread)
                run(self.parts[0])
            finally:
                if len(threads) < len(self.parts) - 1:  # one did not start
                    barrier.abort()
                for thread in threads:
                    thread.join()
            if failed:
                raise failed[0]
        self.cur ^= -(-products // self.parts[0].s) % 2

    def _march(self, part: _Part, products: int, barrier):
        """Take the products in one part, a short round first."""
        states, cells, bufs, steps = (self.states, part.cells, part.bufs,
                                      part.steps)
        first, x = -products % part.s, self.cur
        for _ in range(-(-products // part.s)):
            states[x].take(cells, axis=0, out=bufs[first % 2], mode="wrap")
            for band, window, out in steps[1 - x][first:]:
                np.matmul(band, window, out=out)
            if barrier is not None:
                barrier.wait()
            x, first = 1 - x, 0

    def rho(self, sigma: float) -> float:
        """rho(S) if some eigenvalue of S lies outside [-sigma, sigma] (by
        the inertia count), else sigma, which bounds it."""
        bands = _symmetric_bands(self.op)
        if not _count_outside(bands, sigma):
            return sigma
        return _spectral_radius(bands, sigma)

    def coeffs(self) -> np.ndarray:
        return self.state.copy()

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.state) ** 2
                                    / self.op._inv_mass)))


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
    decides from the cores and the per-core L2 cache; every thread has
    ended when integrate returns or raises, and an error in one is raised
    here.  As a backstop, a final L2 norm that is not finite or beyond
    10x the initial one raises InstabilityError too; both are the norm()
    of the march state, by Parseval.  A dt that is not positive, a
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
    march = (_EigenMarch if op.mesh.is_uniform else _BandMarch)(op, u0.coeffs)
    # the verdict is on the repeated step dt: a run shorter than one step
    # takes only the truncated step, one bounded multiplication by R4
    sigma = RK4_LIMIT / dt
    rho = march.rho(sigma) if n_full else 0.0
    if rho > sigma:
        raise InstabilityError(dt, rho / sigma, c * sigma / rho)
    scale = max(march.norm(), 1e-300)
    march.advance(n_full, dt)
    if rem > 0.0:
        march.advance(1, rem)
    nrm = march.norm()
    if not nrm <= BLOWUP_FACTOR * scale:
        raise InstabilityError(dt, norm_ratio=nrm / scale)
    return IntegrationResult(u=DGFunction(op.mesh, op.k, march.coeffs()),
                             dt=dt, n_steps=n_steps)
