"""Periodic 1D meshes, uniform or randomly perturbed."""

from __future__ import annotations

import operator

import numpy as np

from .errors import ConfigurationError
from .flux import UNIFORM_TOL


class Mesh1D:
    """Periodic partition a = x_{1/2} < ... < x_{N+1/2} = b by its nodes.

    Cell j (0-based) spans nodes[j] .. nodes[j+1], and cell N-1 meets cell
    0 at x = b, identified with x = a.  The mesh keeps a read-only copy of
    the nodes and computes the rest from it once: the widths h_sizes, the
    largest width h, the cell centers, the N interfaces x_{j+1/2} =
    nodes[1:], and is_uniform: every width equals h_sizes[0] to node
    roundoff.  Every array it holds or returns is read-only.
    """

    def __init__(self, nodes: np.ndarray):
        self.nodes = _read_only(np.array(nodes, dtype=float))
        self.a, self.b = float(self.nodes[0]), float(self.nodes[-1])
        self.N = len(self.nodes) - 1
        self.h_sizes = _read_only(np.diff(self.nodes))
        self.h = float(np.max(self.h_sizes))
        self.centers = _read_only(0.5 * (self.nodes[:-1] + self.nodes[1:]))
        self.interfaces = self.nodes[1:]
        self.is_uniform = bool(np.max(np.abs(self.h_sizes - self.h_sizes[0]))
                               <= UNIFORM_TOL * max(abs(self.a), abs(self.b)))
        self._quad_points, self._parseval_weights = {}, {}

    def quad_points(self, nodes_ref: np.ndarray) -> np.ndarray:
        """Physical points of shape (N, len(nodes_ref)) for reference nodes,
        read-only; computed once per mesh and set of nodes."""
        key = np.asarray(nodes_ref, dtype=float).tobytes()
        pts = self._quad_points.get(key)
        if pts is None:
            mid = self.centers[:, None]
            pts = self._quad_points[key] = _read_only(
                mid + 0.5 * self.h_sizes[:, None] * nodes_ref[None, :])
        return pts

    def parseval_weights(self, k: int) -> np.ndarray:
        """The (N, k+1) weights h_j/(2m+1) of the Parseval norm of a
        degree-k function, read-only; computed once per mesh and k."""
        w = self._parseval_weights.get(k)
        if w is None:
            w = self._parseval_weights[k] = _read_only(
                self.h_sizes[:, None] / (2 * np.arange(k + 1) + 1))
        return w


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


_M32, _M64, _M128 = 2 ** 32 - 1, 2 ** 64 - 1, 2 ** 128 - 1
# SeedSequence hash constants (numpy, bit_generator.pyx)
_INIT_A, _MULT_A = 0x43b0d7e5, 0x931e8875
_INIT_B, _MULT_B = 0x8b51f9dd, 0x58f38ded
_MIX_L, _MIX_R = 0xca01f9dd, 0x4973f715
_POOL = 4
# PCG64: the default 128-bit LCG multiplier (O'Neill, "PCG: A Family of
# Simple Fast Space-Efficient Statistically Good Algorithms for Random
# Number Generation", 2014)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(seed: int) -> list[int]:
    """SeedSequence(seed).generate_state(4, uint64): the seed's 32-bit
    words, least significant first, hashed into a 4-word pool."""
    entropy = [0] if seed == 0 else []
    while seed:
        entropy.append(seed & _M32)
        seed >>= 32
    hash_a = _INIT_A

    def hashmix(value):
        nonlocal hash_a
        value ^= hash_a
        hash_a = (hash_a * _MULT_A) & _M32
        value = (value * hash_a) & _M32
        return value ^ (value >> 16)

    def mix(x, y):
        r = (_MIX_L * x - _MIX_R * y) & _M32
        return r ^ (r >> 16)

    pool = [hashmix(word) for word in (entropy + [0] * _POOL)[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_b, out = _INIT_B, []
    for word in pool + pool:                # 8 words, cycling the pool
        word ^= hash_b
        hash_b = (hash_b * _MULT_B) & _M32
        word = (word * hash_b) & _M32
        out.append(word ^ (word >> 16))
    return [lo | hi << 32 for lo, hi in zip(out[::2], out[1::2])]


def _uniform_draws(seed: int, lo: float, hi: float, n: int) -> np.ndarray:
    """numpy's default_rng(seed).uniform(lo, hi, n), bit for bit: PCG64
    (XSL-RR output, 128-bit LCG) seeded by SeedSequence, each draw
    lo + (hi - lo) * (53 high bits / 2**53).  Pinned here so the meshes
    do not follow a change of numpy's default generator."""
    s0, s1, s2, s3 = _seed_words(seed)
    inc = (((s2 << 64) | s3) << 1 | 1) & _M128
    state = (inc + ((s0 << 64) | s1)) & _M128      # a step from state 0
    state = (state * _PCG_MULT + inc) & _M128
    span, out = hi - lo, []
    for _ in range(n):
        state = (state * _PCG_MULT + inc) & _M128
        x = ((state >> 64) ^ state) & _M64
        rot = state >> 122
        x = ((x >> rot) | (x << (64 - rot))) & _M64
        out.append(lo + span * ((x >> 11) * 2.0 ** -53))
    return np.array(out, dtype=float)


def _is_integer(x) -> bool:
    """An int or a numpy integer (operator.index takes it), not a bool."""
    try:
        operator.index(x)
    except TypeError:
        return False
    return not isinstance(x, bool)


def make_mesh(a: float, b: float, N: int, kind: str = "uniform",
              fraction: float = 0.0, seed: int = 0) -> Mesh1D:
    """Build a periodic mesh of N cells on [a, b].

    kind="uniform" gives h_j = (b-a)/N.  kind="perturbed" moves every
    interior node of the uniform mesh by an independent uniform random
    offset in [-fraction*h, fraction*h] (endpoints fixed), deterministic
    for a fixed seed.  The offsets are numpy's
    ``default_rng(seed).uniform(-fraction*h, fraction*h, N-1)`` as of
    numpy >= 1.17 (PCG64 seeded by SeedSequence), bit for bit, drawn from
    a copy of that stream pinned in this module (`_uniform_draws`), so a
    seed's mesh does not change with numpy's default generator and
    numpy's random package is never imported.  Requires an integer
    4 <= N < 2^53, so that float64 holds the node indices exactly, and
    0 <= fraction < 0.5 so that cells keep positive width and
    max h_j / min h_j <= (1+2f)/(1-2f); a perturbed mesh requires a seed
    that is an integer >= 0.
    """
    if not (_is_integer(N) and 4 <= N < 2 ** 53):
        raise ConfigurationError(
            f"need an integer 4 <= N < 2^53 cells, got N={N!r}")
    N = operator.index(N)                   # numpy integers too
    if not b > a:
        raise ConfigurationError(f"empty interval [{a}, {b}]")
    if kind not in ("uniform", "perturbed"):
        raise ConfigurationError(f"unknown mesh kind {kind!r}")
    if not 0.0 <= fraction < 0.5:
        raise ConfigurationError(
            f"perturbation fraction must be in [0, 0.5), got {fraction}")
    if kind == "perturbed":
        if not (_is_integer(seed) and seed >= 0):
            raise ConfigurationError(
                f"mesh seed must be an integer >= 0, got {seed!r}")
        seed = operator.index(seed)

    h_unif = (b - a) / N
    nodes = a + h_unif * np.arange(N + 1, dtype=float)
    if kind == "perturbed" and fraction > 0.0:
        nodes[1:-1] += _uniform_draws(seed, -fraction * h_unif,
                                      fraction * h_unif, N - 1)
    nodes[0] = a
    nodes[-1] = b
    return Mesh1D(nodes)
