"""uwdg benchmark: the time a user waits for a correct convergence table.

    python3 perfbench/run.py --workload NAME [--seed 42] [--seconds 20]
                             [--trace 0|1]

Run it from the root of a checkout; it imports uwdg from that checkout's
src/.  Load comes from one process in a closed loop: each pass over the
workload's studies starts when the previous pass has ended.  BLAS threads
are capped at the number of CPUs this process may run on.  Every pass is
checked by the correctness gate (gate.py).

--trace 0 measures the end-to-end metrics:
  study_s      median wall seconds of one pass (a whole convergence table),
               rescaled to a reference host speed (CALIBRATION_REF_S)
  setup_s      median wall seconds of a fresh interpreter that imports
               uwdg and runs the workload's smallest case once, cold,
               rescaled the same way by a calibration in that process
  peak_rss_mb  peak resident memory of the process running the passes
--trace 1 alternates untraced and traced passes in one process and
reports per-layer self times and exact counts from the traced passes
(tracer.py), with the tracing overhead.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; attempted and failed count (k, N) cases.
A run record with every result and the environment goes to
perfbench/out/, and the traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from gate import check_pass, load_golden

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("perturbed_march", "uniform_tables", "siac_post",
             "perturbed_short")
SETUP_REPEATS = 7
# The speed of this shared host drifts by 20% and more over minutes, in
# CPU and wall time alike, and every pass time drifts with it.  study_s
# therefore rescales the wall time of each pass by the host speed measured
# just before and after it, and setup_s each cold start by a calibration
# in the same process: both are seconds on a host on which the calibration
# kernel (worker.calibrate) takes CALIBRATION_REF_S.  The raw wall times
# are in the run record and the printed summary.
CALIBRATION_REF_S = 0.017
DEADLINE_S = 170.0           # every child has ended by then
NPROC = len(os.sched_getaffinity(0))

# per-layer metric -> traced span names whose self times it sums; each of
# these layers runs on every workload (layers that only some workloads
# enter are in the run record's self-time table)
LAYER_TIMES = {
    "harness.self_s": ("harness.run_study", "harness.run_case"),
    "mesh.make_mesh_s": ("mesh.make_mesh",),
    "flux.classify_s": ("flux.classify",),
    "projection.project_l2_s": ("projection.project_l2",),
    "solver.integrate_s": ("solver.integrate",),
    "solver.operator_build_s": ("solver.operator_build",),
    "diagnostics.other_s": ("diagnostics.broken_l2_error",
                            "diagnostics.flux_errors",
                            "diagnostics.cell_average_error",
                            "diagnostics.observed_orders"),
}
# per-layer count metric -> counter or span name it reads per traced pass
LAYER_COUNTS = {
    "cases": "harness.run_case",
    "solver.steps": "solver.steps",
    "solver.cell_steps": "solver.cell_steps",
    "siac.points": "siac.points",
    "projection.project_star_calls": "projection.project_star",
    "flux.solve_block_circulant_calls": "flux.solve_block_circulant",
    "basis.bspline_eval_calls": "basis.bspline_eval_calls",
    "basis.legendre_table_calls": "basis.legendre_table_calls",
}


class BenchmarkError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = str(NPROC)
    return env


def run_child(args, deadline: float) -> dict:
    """Run worker.py with args and return its JSON result."""
    timeout = deadline - perf_counter()
    if timeout <= 0:
        raise BenchmarkError("out of time before " + " ".join(args[:2]))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *map(str, args)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker {args[0]} timed out") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"worker {args[0]} exited {proc.returncode}:\n"
                             + proc.stderr[-2000:])
    return json.loads(proc.stdout.splitlines()[-1])


def summary(values: list) -> dict:
    """Median and quartiles (statistics.quantiles, n=4) of the samples."""
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "samples": values}


class Gate:
    """Accumulates the correctness gate over every table a run produces."""

    def __init__(self, golden):
        self.golden = golden
        self.attempted = 0
        self.failures: dict = {}

    def add(self, tables: dict, partial: bool = False, label: str = ""):
        attempted, failures = check_pass(tables, self.golden, partial)
        self.attempted += attempted
        for case, reasons in failures.items():
            self.failures[f"{label}{case}"] = reasons


def git_commit() -> str | None:
    """HEAD of the checkout's own repository, if it is one."""
    try:
        proc = subprocess.run(["git", f"--git-dir={ROOT / '.git'}",
                               "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "uwdg").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def end_to_end(args, gate: Gate, record: dict, deadline: float) -> dict:
    w, seed = args.workload, args.seed
    setup, setup_wall = [], []
    # start 0 is untimed: it compiles the bytecode the later starts reuse
    for i in range(SETUP_REPEATS + 1):
        out = run_child(["setup", w, seed, f"{perf_counter():.9f}"],
                        deadline)
        gate.add(out["tables"], partial=True, label=f"setup{i}:")
        if i:
            setup_wall.append(out["seconds"])
            setup.append(out["seconds"] * CALIBRATION_REF_S
                         / out["calibration"])
    out = run_child(["measure", w, seed, args.seconds], deadline)
    gate.add(out["warmup"], partial=True, label="warmup:")
    for i, p in enumerate(out["passes"]):
        gate.add(p["tables"], label=f"pass{i}:")
    wall = summary([p["seconds"] for p in out["passes"]])
    cal = out["calibration"]
    # each pass is rescaled by the mean of the calibrations around it
    rescaled = summary([p["seconds"] * 2 * CALIBRATION_REF_S / (a + b)
                        for p, a, b in zip(out["passes"], cal, cal[1:])])
    speed = rescaled["median"] / wall["median"]
    calibration = summary(cal)
    setup, setup_wall = summary(setup), summary(setup_wall)
    rss = out["env"].pop("peak_rss_mb")
    record.update(env=out["env"], passes=wall["n"], study_wall_s=wall,
                  calibration_s=calibration, host_speed=speed,
                  study_s=rescaled, setup_s=setup, setup_wall_s=setup_wall,
                  peak_rss_mb=rss, tables=out["passes"][0]["tables"])
    print(f"# study_s     {rescaled['median']:.4f} s  (median wall time "
          f"{wall['median']:.4f} s of {wall['n']} passes, quartiles "
          f"{wall['q1']:.4f} .. {wall['q3']:.4f}; host speed {speed:.3f} "
          f"from {calibration['n']} calibrations)")
    print(f"# setup_s     {setup['median']:.4f} s  (median wall time "
          f"{setup_wall['median']:.4f} s of {setup['n']} cold starts, "
          f"quartiles {setup_wall['q1']:.4f} .. {setup_wall['q3']:.4f}, "
          f"each rescaled by its own calibration)")
    print(f"# peak_rss_mb {rss:.1f} MB")
    return {"study_s": {"value": rescaled["median"], "unit": "s"},
            "setup_s": {"value": setup["median"], "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"}}


def traced(args, gate: Gate, record: dict, deadline: float) -> dict:
    w, seed = args.workload, args.seed
    spans_path = OUT / f"spans-{w}-seed{seed}.jsonl"
    out = run_child(["trace", w, seed, args.seconds, spans_path], deadline)
    gate.add(out["warmup"], partial=True, label="warmup:")
    for i, p in enumerate(out["passes"]):
        gate.add(p["tables"], label=f"pass{i}:")
    plain = [p["seconds"] for p in out["passes"] if not p["traced"]]
    passes = [p for p in out["passes"] if p["traced"]]
    first = passes[0]
    steady = all(p["counts"] == first["counts"] and p["calls"] == first["calls"]
                 for p in passes)

    def med(f):
        return statistics.median(f(p) for p in passes)

    names = sorted({n for p in passes for n in p["self_s"]})
    self_s = {n: med(lambda p: p["self_s"].get(n, 0.0)) for n in names}
    counted = {**first["calls"], **first["counts"]}
    metrics = {m: {"value": med(lambda p: sum(p["self_s"].get(n, 0.0)
                                              for n in spans)), "unit": "s"}
               for m, spans in LAYER_TIMES.items()}
    metrics["solver.cell_steps_per_s"] = {
        "value": med(lambda p: p["counts"].get("solver.cell_steps", 0)
                     / p["self_s"]["solver.integrate"]),
        "unit": "1/s"}
    for m, key in LAYER_COUNTS.items():
        metrics[m] = {"value": counted.get(key, 0), "unit": "count"}
    on, off = med(lambda p: p["seconds"]), statistics.median(plain)
    metrics["trace.traced_study_s"] = {"value": on, "unit": "s"}
    metrics["trace.untraced_study_s"] = {"value": off, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": on - off, "unit": "s"}
    metrics["trace.self_share"] = {
        "value": med(lambda p: sum(p["self_s"].values()) / p["seconds"]),
        "unit": "ratio"}
    record.update(env=out["env"], passes=len(out["passes"]),
                  traced_passes=len(passes), counts_identical=steady,
                  self_s=self_s, counts=counted, spans=str(spans_path),
                  tables=passes[0]["tables"])
    record["env"].pop("peak_rss_mb")
    total = sum(self_s.values())
    print(f"# traced pass {on:.4f} s, untraced {off:.4f} s, overhead "
          f"{on - off:+.4f} s; self times (median of {len(passes)} traced "
          f"passes):")
    for n, v in sorted(self_s.items(), key=lambda kv: -kv[1]):
        print(f"#   {n:34s} {v:10.5f} s  {100 * v / total:5.1f}%")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42,
                        help="perturbed-mesh RNG seed (default 42)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "uwdg" / "__init__.py").is_file():
        print(f"perfbench: no uwdg sources under {ROOT / 'src'}; run from "
              f"a checkout of the repository", file=sys.stderr)
        return 2
    deadline = perf_counter() + DEADLINE_S
    golden = load_golden(args.workload, args.seed)
    gate = Gate(golden)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "git_commit": git_commit(), "src_sha256": src_sha256(),
              "nproc": NPROC, "blas_threads": NPROC,
              "load": "closed loop, one process",
              "golden": ("none for this seed; bands only" if golden is None
                         else "seed-commit record")}
    OUT.mkdir(exist_ok=True)
    print(f"# uwdg perfbench: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}, BLAS threads {NPROC}")
    try:
        if args.trace:
            metrics = traced(args, gate, record, deadline)
        else:
            metrics = end_to_end(args, gate, record, deadline)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    failed = len(gate.failures)
    correct = failed == 0 and record.get("counts_identical", True)
    record.update(correct=correct, attempted=gate.attempted, failed=failed,
                  failed_frac=failed / max(gate.attempted, 1),
                  failures=dict(list(gate.failures.items())[:20]),
                  metrics=metrics)
    path = OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"# gate: {gate.attempted} cases attempted, {failed} failed "
          f"(failed_frac {record['failed_frac']:.4f}; golden: "
          f"{record['golden']}); record in {path.relative_to(ROOT)}")
    for case, reasons in list(gate.failures.items())[:5]:
        print(f"#   FAIL {case}: {'; '.join(reasons)}")
    if not correct and failed == 0:
        print("#   FAIL counts differ between traced passes")
    print(json.dumps({"correct": correct, "attempted": gate.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
