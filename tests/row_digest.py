"""The rows of the benchmark's reference studies, pinned bit for bit.

SHA256 is the sha256 of the full-precision ``repr`` of every row, order
and meta item of the four workloads' studies at seed 42 (147 items, see
``digest``; the studies of perfbench/workloads.py in BENCHMARK.json's
order), as computed on the numpy build BUILD.  The rows follow numpy's
LAPACK (``eigh``, ``eigvals``) and the SIMD kernels numpy and OpenBLAS
pick for the CPU, so on another build they may move in the last bits,
and test_acceptance.py::test_row_digest skips there.  A change that
means to move rows updates SHA256 and says why.  Print this host's build
with

    PYTHONPATH=tests python -c "import row_digest; print(row_digest.build())"
"""

import hashlib
import platform

import numpy as np

SHA256 = "cffe213f3f6d07bb65dcd9dec7d0af73a8e06ba09d8f6c3586ddba13932016df"
BUILD = {"numpy": "2.4.6", "blas": "scipy-openblas 0.3.31.188.0",
         "machine": "x86_64",
         "cpu features": ["X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"]}


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


def digest(reports) -> str:
    """sha256 of each report's rows, then its orders' and its meta's
    items, one ``repr`` each, in the order given."""
    h = hashlib.sha256()
    for rep in reports:
        for item in (*rep.rows, *rep.orders.items(), *rep.meta.items()):
            h.update(repr(item).encode())
    return h.hexdigest()
