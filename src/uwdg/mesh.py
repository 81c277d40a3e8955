"""Periodic 1D meshes, uniform or randomly perturbed."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigurationError
from .flux import UNIFORM_TOL


@dataclass(frozen=True)
class Mesh1D:
    """Periodic partition a = x_{1/2} < ... < x_{N+1/2} = b.

    h is the largest cell size, sigma = h / min h_j the regularity ratio.
    Cell j (0-based) spans nodes[j] .. nodes[j+1]; index arithmetic wraps
    modulo N so downstream code never re-implements periodic wrapping.
    """

    a: float
    b: float
    N: int
    nodes: np.ndarray
    h_sizes: np.ndarray = field(repr=False)
    h: float
    sigma: float
    kind: str = "uniform"
    fraction: float = 0.0
    seed: int | None = None

    @property
    def length(self) -> float:
        return self.b - self.a

    @cached_property
    def centers(self) -> np.ndarray:
        """Cell midpoints, read-only; computed once per mesh."""
        return _read_only(0.5 * (self.nodes[:-1] + self.nodes[1:]))

    @cached_property
    def interfaces(self) -> np.ndarray:
        """The N interfaces x_{j+1/2} = nodes[1:], one read-only view per
        mesh."""
        return self.nodes[1:]

    @cached_property
    def is_uniform(self) -> bool:
        """Every width equal to h_sizes[0] to node roundoff; decided once
        per mesh (the fields are frozen and the arrays read-only)."""
        return bool(np.max(np.abs(self.h_sizes - self.h_sizes[0]))
                    <= UNIFORM_TOL * max(abs(self.a), abs(self.b)))

    def wrap(self, j) -> np.ndarray:
        """Periodic cell index: j modulo N."""
        return np.asarray(j) % self.N

    def cell_of(self, x) -> np.ndarray:
        """Cell index containing x, after periodic reduction into [a, b)."""
        xr = np.mod(np.asarray(x, dtype=float) - self.a, self.length) + self.a
        j = np.searchsorted(self.nodes, xr, side="right") - 1
        return np.clip(j, 0, self.N - 1)

    def reference_coord(self, x, j=None):
        """Map x to (cell index, reference coordinate in [-1, 1])."""
        xr = np.mod(np.asarray(x, dtype=float) - self.a, self.length) + self.a
        if j is None:
            j = self.cell_of(xr)
        xi = 2.0 * (xr - self.nodes[j]) / self.h_sizes[j] - 1.0
        return j, xi

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

    @cached_property
    def _quad_points(self) -> dict:
        """quad_points by the bytes of its reference nodes."""
        return {}


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def make_mesh(a: float, b: float, N: int, kind: str = "uniform",
              fraction: float = 0.0, seed: int = 0) -> Mesh1D:
    """Build a periodic mesh of N cells on [a, b].

    kind="uniform" gives h_j = (b-a)/N.  kind="perturbed" moves every
    interior node of the uniform mesh by an independent uniform random
    offset in [-fraction*h, fraction*h] (endpoints fixed), deterministic
    for a fixed seed.  Requires N >= 4 and 0 <= fraction < 0.5 so that
    cells keep positive width and sigma <= (1+2f)/(1-2f).
    """
    if N < 4:
        raise ConfigurationError(f"need at least 4 cells, got N={N}")
    if not b > a:
        raise ConfigurationError(f"empty interval [{a}, {b}]")
    if kind not in ("uniform", "perturbed"):
        raise ConfigurationError(f"unknown mesh kind {kind!r}")
    if not 0.0 <= fraction < 0.5:
        raise ConfigurationError(
            f"perturbation fraction must be in [0, 0.5), got {fraction}")

    h_unif = (b - a) / N
    nodes = a + h_unif * np.arange(N + 1, dtype=float)
    if kind == "perturbed" and fraction > 0.0:
        rng = np.random.default_rng(seed)
        offsets = rng.uniform(-fraction * h_unif, fraction * h_unif, size=N - 1)
        nodes[1:-1] += offsets
    nodes[0] = a
    nodes[-1] = b

    h_sizes = np.diff(nodes)
    nodes.setflags(write=False)
    h_sizes.setflags(write=False)
    h = float(np.max(h_sizes))
    sigma = h / float(np.min(h_sizes))
    return Mesh1D(a=float(a), b=float(b), N=int(N), nodes=nodes,
                  h_sizes=h_sizes, h=h, sigma=sigma, kind=kind,
                  fraction=float(fraction),
                  seed=int(seed) if kind == "perturbed" else None)
