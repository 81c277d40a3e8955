"""Tests of the benchmark's correctness gate, span accounting and layout.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import uwdg.harness

import gate
import run
from tracer import Tracer, self_times
from worker import run_tables
from workloads import smallest_cases

HERE = Path(__file__).resolve().parent


def golden_tables(workload, seed=42):
    return copy.deepcopy(gate.load_golden(workload, seed))


def row(tables, study, N):
    return next(r for r in tables[study]["rows"] if r["N"] == N)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_golden_record_passes_the_gate(workload):
    tables = golden_tables(workload)
    attempted, failures = gate.check_pass(tables, gate.load_golden(workload,
                                                                    42))
    assert failures == {}
    assert attempted == sum(len(t["Ns"]) for t in tables.values())


@pytest.mark.parametrize("workload", ["perturbed_march", "perturbed_short"])
def test_seed_without_golden_record_is_gated_by_bands(workload):
    assert gate.load_golden(workload, 123456) is None
    _, failures = gate.check_pass(golden_tables(workload), None)
    assert failures == {}


def _drift(t):
    row(t, "table5_k2", 160)["ep"] *= 1 + 1e-3


def _status(t):
    row(t, "table7_a3", 40)["status"] = "error: grew 11x"


def _class(t):
    row(t, "table7_a3", 80)["class"] = "A2"


def _order(t):
    t["table5_k3"]["orders"]["ef"][-1] = 5.0


def _nan(t):
    row(t, "table5_k3", 160)["zetajump"] = float("nan")


def _missing(t):
    t["table6_zeta"]["rows"].pop(1)
    t["table6_zeta"]["error"] = "InstabilityError: grew"


@pytest.mark.parametrize("corrupt,case", [
    (_drift, "table5_k2:N=160"),
    (_status, "table7_a3:N=40"),
    (_class, "table7_a3:N=80"),
    (_order, "table5_k3:N=160"),
    (_nan, "table5_k3:N=160"),
    (_missing, "table6_zeta:N=40"),
])
def test_corrupted_row_is_flagged(corrupt, case):
    tables = golden_tables("uniform_tables")
    corrupt(tables)
    _, failures = gate.check_pass(tables, gate.load_golden("uniform_tables",
                                                            42))
    assert list(failures) == [case]


def test_pinned_magnitude_is_checked_without_golden():
    tables = golden_tables("siac_post")
    row(tables, "table8_k2", 160)["estar"] *= 4.0
    _, failures = gate.check_pass(tables, None)
    assert "table8_k2:N=160" in failures
    assert any("1.44e-05" in r for r in failures["table8_k2:N=160"])


@pytest.mark.parametrize("share,passes", [(0.5, True), (1.5, False)])
def test_golden_tolerance_admits_a_coefficient_level_change(share, passes):
    """A shift of half the tolerance in every value passes; 1.5x fails."""
    golden = gate.load_golden("perturbed_march", 42)
    tables = golden_tables("perturbed_march")
    table = tables["table2_k3_perturbed"]
    for r in table["rows"]:
        for m in table["metrics"]:
            r[m] += share * gate.golden_tolerance(m, r[m], table["k"], r["N"],
                                                  table["length"])
    _, failures = gate.check_pass(tables, golden)
    assert (failures == {}) == passes


def test_tolerance_scales_with_derivative_order():
    k, length = 3, 2 * math.pi
    a0 = gate.amplification("ef", k, 160, length)
    a1 = gate.amplification("efx", k, 160, length)
    a2 = gate.amplification("euxx", k, 160, length)
    assert a0 == k + 1
    assert a1 == pytest.approx(10 * 320 / length)
    assert a2 == pytest.approx(18 * (320 / length) ** 2)


def test_self_times_subtract_children():
    spans = [("run_study", 0.0, 10.0, -1, "s"),
             ("run_case", 1.0, 9.0, 0, "c"),
             ("integrate", 2.0, 7.0, 1, "c"),
             ("operator_build", 2.5, 3.5, 2, "c"),
             ("operator_build", 2.6, 3.0, 3, "c"),
             ("operator_build", 4.0, 4.5, 2, "c")]
    got = self_times(spans)
    assert got == pytest.approx({"run_study": 2.0, "run_case": 3.0,
                                 "integrate": 3.5, "operator_build": 1.5})
    assert sum(got.values()) == pytest.approx(10.0)


def test_traced_case_spans_account_for_the_run_and_uninstall():
    originals = (uwdg.harness.run_study, uwdg.harness.integrate)
    tracer = Tracer()
    tracer.install()
    try:
        run_tables(smallest_cases("uniform_tables", 42), tracer)
    finally:
        tracer.uninstall()
    assert (uwdg.harness.run_study, uwdg.harness.integrate) == originals
    spans, counts = tracer.take()
    roots = [s for s in spans if s[3] == -1]
    assert [s[0] for s in roots] == ["harness.run_study"] * 4
    assert {s[4] for s in spans if s[0] == "solver.integrate"} == {
        "table5_k2:k=2:N=40", "table5_k3:k=3:N=20", "table6_zeta:k=3:N=20",
        "table7_a3:k=3:N=20"}
    assert sum(self_times(spans).values()) == pytest.approx(
        sum(s[2] - s[1] for s in roots), rel=1e-9)
    assert counts["solver.steps"] > 0 and counts["basis.legendre_table_calls"]


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "study_s", "setup_s", "peak_rss_mb"}
    assert {m["name"] for m in spec["per_layer"]} == (
        set(run.LAYER_TIMES) | set(run.LAYER_COUNTS)
        | {"solver.cell_steps_per_s", "trace.traced_study_s",
           "trace.untraced_study_s", "trace.overhead_s", "trace.self_share"})


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "siac_post",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
