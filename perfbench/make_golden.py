"""Write the golden records the correctness gate compares against.

    PYTHONPATH=src python3 perfbench/make_golden.py [workload ...]

Run it at the commit whose results are the reference.  Uniform-mesh
workloads do not depend on the seed and get one record, keyed "any";
the perturbed-mesh workloads get one record per seed in GOLDEN_SEEDS.
Seeds without a record are gated by their acceptance bands only.
"""

from __future__ import annotations

import json
import sys

from gate import GOLDEN_DIR
from worker import run_tables
from workloads import DEFAULT_SEED, studies

GOLDEN_SEEDS = sorted(set(range(32)) | {DEFAULT_SEED, 2026})


def main(names) -> int:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for workload in names:
        if any(cfg.mesh_kind == "perturbed"
               for _, cfg in studies(workload, DEFAULT_SEED)):
            record = {str(s): run_tables(studies(workload, s))
                      for s in GOLDEN_SEEDS}
        else:
            record = {"any": run_tables(studies(workload, DEFAULT_SEED))}
        path = GOLDEN_DIR / f"{workload}.json"
        path.write_text(json.dumps(record, indent=1) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or ["perturbed_march", "uniform_tables",
                                   "siac_post", "perturbed_short"]))
