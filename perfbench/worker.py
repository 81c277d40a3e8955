"""Child process of the benchmark: runs one workload and reports raw tables.

    python3 perfbench/worker.py setup   <workload> <seed> <spawn time>
    python3 perfbench/worker.py measure <workload> <seed> <seconds>
    python3 perfbench/worker.py trace   <workload> <seed> <seconds> <spans>

``setup`` imports uwdg and runs the workload's smallest case once, cold,
reports the seconds since the parent spawned it, then calibrates.  ``measure`` warms up on the smallest
case of every study, then runs whole passes over the workload in a closed
loop until ``seconds`` have passed, timing a fixed calibration kernel
before the first pass and after each one (``calibrate``).  ``trace`` warms up the same way, then
alternates untraced and traced passes and writes the spans of the traced
passes to ``<spans>`` at the end.  The last line of stdout is one JSON
object; the parent gates it.  The uwdg package comes from PYTHONPATH,
which the parent points at the checkout's src/.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter

import uwdg.harness
from workloads import smallest_cases, studies


def run_tables(named_configs, tracer=None) -> dict:
    """Run each study; a study that raises keeps its error and no rows."""
    out = {}
    for name, cfg in named_configs:
        if tracer is not None:
            tracer.study = name
        table = {"k": cfg.k, "length": cfg.b - cfg.a, "Ns": list(cfg.Ns),
                 "metrics": list(cfg.metrics), "rows": [], "orders": {}}
        try:
            report = uwdg.harness.run_study(cfg)
        except Exception as exc:        # a raising case is a failed case
            table["error"] = f"{type(exc).__name__}: {exc}"
        else:
            table.update(rows=report.rows, orders=report.orders)
        out[name] = table
    return out


def calibrate(reps: int) -> float:
    """Median seconds of a fixed kernel: interpreter arithmetic plus small
    batched numpy solves, the two kinds of work a pass does.  It does not
    touch uwdg, so its time tracks only how fast the host runs now."""
    import numpy as np
    a = np.arange(128.0).reshape(8, 4, 4) / 128.0 + 4 * np.eye(4)
    v = np.ones((200, 4))
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        acc = 0
        for i in range(60000):
            acc += i * i
        for _ in range(400):
            b = np.linalg.solve(a, a)
            acc += float(np.sum(np.abs(v @ b[0]) ** 2))
        times.append(perf_counter() - t0)
    return sorted(times)[reps // 2]


def timed_pass(named_configs, tracer=None) -> dict:
    t0 = perf_counter()
    tables = run_tables(named_configs, tracer)
    return {"seconds": perf_counter() - t0, "tables": tables}


def environment() -> dict:
    """Peak RSS so far, and the versions of what ran (scipy is read from
    its metadata, so asking does not import it)."""
    import platform
    import resource
    from importlib.metadata import version

    import numpy
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = "unknown"
    return {"peak_rss_mb": rss_mb, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": version("scipy"),
            "openblas": openblas, "uwdg": uwdg.__file__}


def main(argv) -> int:
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    if mode == "setup":
        # argv[3] is the parent's perf_counter() at spawn; the monotonic
        # clock is shared by all processes, so this counts the cold start
        tables = run_tables(smallest_cases(workload, seed)[:1])
        result = {"tables": tables, "seconds": perf_counter() - float(argv[3]),
                  "calibration": calibrate(3)}
    elif mode in ("measure", "trace"):
        seconds = float(argv[3])
        named = studies(workload, seed)
        warmup = run_tables(smallest_cases(workload, seed))
        passes = []
        tracer = None
        if mode == "trace":
            from tracer import Tracer, self_times, write_spans
            tracer = Tracer()
            traced_spans = []
        # calibrations bracket every untraced pass; each lasts about 5% of
        # the pass, and at least three kernel runs
        calibration = [calibrate(3)]
        start = perf_counter()
        while (len(passes) < (2 if tracer else 1)
               or perf_counter() - start < seconds):
            if tracer is None or len(passes) % 2 == 0:
                p = timed_pass(named)
                passes.append(dict(p, traced=False))
                if tracer is None:
                    reps = max(3, int(0.05 * p["seconds"] / calibration[0]))
                    calibration.append(calibrate(reps))
                continue
            tracer.install()
            try:
                p = timed_pass(named, tracer)
            finally:
                tracer.uninstall()
            spans, counts = tracer.take()
            traced_spans.append(spans)
            calls = Counter(span[0] for span in spans)
            passes.append(dict(p, traced=True, self_s=self_times(spans),
                               calls=calls, counts=counts))
        if tracer is not None:
            write_spans(argv[4], traced_spans)
        result = {"warmup": warmup, "passes": passes,
                  "calibration": calibration, "env": environment()}
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
