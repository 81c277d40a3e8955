"""The rows of the benchmark's reference studies, pinned bit for bit.

SHA256 is the sha256 of the full-precision ``repr`` of every row, order
and meta item of the four workloads' studies at seed 42 (147 items, see
``digest``; the studies of perfbench/workloads.py in BENCHMARK.json's
order), as computed on the numpy build BUILD.  The rows follow numpy's
LAPACK (``eigh``, ``eigvals``) and the SIMD kernels numpy and OpenBLAS
pick for the CPU, so on another build they may move in the last bits,
and test_acceptance.py::test_row_digest skips there.  A change that
means to move rows updates SHA256 and says why.

BAND_SHA256 pins the bytes of the band march's two-step band,
``solver._two_step_rows``, at BAND_CASES on the same build (see
``band_digest``), so that a rewrite of the band build is checked byte for
byte.  Print this host's build with

    PYTHONPATH=tests python -c "import row_digest; print(row_digest.build())"
"""

import hashlib
import platform

import numpy as np

SHA256 = "cffe213f3f6d07bb65dcd9dec7d0af73a8e06ba09d8f6c3586ddba13932016df"
BUILD = {"numpy": "2.4.6", "blas": "scipy-openblas 0.3.31.188.0",
         "machine": "x86_64",
         "cpu features": ["X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"]}
# (k, N, pad): pad 6 is a march in parts, on N a multiple of 4 (N < 17
# aliases the band offsets); pad 0 is a march in one part
BAND_CASES = ((2, 640, 6), (4, 240, 6), (6, 160, 6), (3, 64, 6), (2, 80, 6),
              (3, 4, 6), (3, 8, 6), (3, 16, 6),
              (3, 160, 0), (2, 80, 0), (3, 161, 0), (2, 18, 0), (3, 5, 0),
              (3, 9, 0))
BAND_SHA256 = "b6e2ff3f2f1cfc2378c14b4f4d1a08cd3284df4f0f18c45323c6f5e53edd213a"


def build() -> dict:
    """The numpy version, its BLAS, and the CPU features numpy dispatches
    on (its SIMD targets that this CPU has)."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:       # numpy < 1.26 only prints its build
        return {"numpy": np.__version__}
    blas = config["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "machine": platform.machine(),
            "cpu features": config.get("SIMD Extensions", {}).get("found")}


def differs() -> dict:
    """The items of this host's build that differ from BUILD's."""
    here = build()
    return {key: here.get(key) for key, value in BUILD.items()
            if here.get(key) != value}


def digest(reports) -> str:
    """sha256 of each report's rows, then its orders' and its meta's
    items, one ``repr`` each, in the order given."""
    h = hashlib.sha256()
    for rep in reports:
        for item in (*rep.rows, *rep.orders.items(), *rep.meta.items()):
            h.update(repr(item).encode())
    return h.hexdigest()


def band_digest() -> str:
    """sha256 of the bytes of solver._two_step_rows at each of BAND_CASES,
    in order, on the perturbed:0.1:42 mesh under the alternating flux at
    dt = DEFAULT_DT_CONSTANTS[k] h^2.5."""
    # imported here, so that build() runs with tests/ alone on the path
    import uwdg
    from uwdg.flux import ALTERNATING
    from uwdg.solver import DEFAULT_DT_CONSTANTS, DGOperator, _two_step_rows
    h = hashlib.sha256()
    for k, N, pad in BAND_CASES:
        mesh = uwdg.make_mesh(0, 2 * np.pi, N, "perturbed", 0.1, 42)
        dt = DEFAULT_DT_CONSTANTS[k] * mesh.h ** 2.5
        P = DGOperator(mesh, ALTERNATING, k).rk4_sparse_update(dt)
        h.update(_two_step_rows(P, pad).tobytes())
    return h.hexdigest()
