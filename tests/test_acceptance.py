"""Acceptance suite: one test per criterion, each printing a pass/fail
line (run with -s to see them).  Desk scale: k <= 4, N <= 640."""

import dataclasses
import importlib.util
import time
from pathlib import Path

import numpy as np
import pytest

import uwdg
from oracles import legendre_eval
from uwdg.flux import (ALTERNATING, CENTRAL, FluxConfig, gamma_lambda,
                       scale_flux)
from uwdg.harness import MAIN_METRICS, ZETA_METRICS, StudyConfig, run_study
from uwdg.projection import (DGFunction, _footprints, plane_wave, project_l2,
                             project_star)
from uwdg.siac import kernel_coeffs
from uwdg.solver import DGOperator

FLUX_FAMILIES = [CENTRAL, ALTERNATING, FluxConfig(0.3, 0.4, 0.4),
                 FluxConfig(0.25, 5, 0)]

# Published central-flux rows.  The harness reproduces the error
# magnitudes to a fraction of a percent column by column (the point-value
# error E_u differs by ~4% from the endpoint-counting convention, and the
# reported cell-average error is half the published one, which carries a
# factor 2 relative to its own defining formula).  These frozen rows pin
# the whole pipeline: projection, initialization, time marching, and
# every metric.
TABLE_K2_N320 = {"l2": 5.99e-6, "ep": 9.01e-7, "euxx": 8.57e-3,
                 "eux": 7.14e-5, "eu": 9.10e-7, "ef": 9.01e-7,
                 "efx": 3.00e-6, "ec": 0.5 * 1.80e-6}
TABLE_K3_N40 = {"l2": 1.71e-5, "ep": 1.02e-6, "euxx": 5.49e-3,
                "eux": 2.04e-4, "eu": 5.17e-6, "ef": 1.02e-6,
                "efx": 3.07e-6, "ec": 0.5 * 2.03e-6}


# the benchmark's correctness gate, pure Python: each reference study
# below is also checked against the benchmark's golden rows at seed 42
_spec = importlib.util.spec_from_file_location(
    "gate", Path(__file__).resolve().parents[1] / "perfbench" / "gate.py")
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)


def _report(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _check_golden(workload, study, cfg, rep):
    """The report, in the benchmark worker's table layout, passes the
    gate against the golden rows of the workload at seed 42."""
    table = {"k": cfg.k, "length": cfg.b - cfg.a, "Ns": list(cfg.Ns),
             "metrics": list(cfg.metrics), "rows": rep.rows,
             "orders": rep.orders}
    golden = gate.load_golden(workload, 42)
    assert golden is not None
    assert gate.check_table(study, table, golden) == {}


def _finest(report, metric):
    return report.orders[metric][-1]


CENTRAL_K2 = StudyConfig(k=2, Ns=(40, 80, 160, 320, 640), flux=CENTRAL,
                         metrics=tuple(MAIN_METRICS))
CENTRAL_K3 = StudyConfig(k=3, Ns=(20, 40, 80, 160), flux=CENTRAL,
                         metrics=tuple(MAIN_METRICS) + tuple(ZETA_METRICS))


@pytest.fixture(scope="module")
def central_k2():
    t0 = time.perf_counter()
    rep = run_study(CENTRAL_K2)
    rep.meta["elapsed"] = time.perf_counter() - t0
    return rep


@pytest.fixture(scope="module")
def central_k3():
    return run_study(CENTRAL_K3)


def test_criterion_1_table5_k2(central_k2):
    rep = central_k2
    bands = {"l2": (2.8, 3.2), "ep": (3.7, 4.3), "ef": (3.7, 4.3),
             "ec": (3.7, 4.3), "eu": (3.7, 4.3), "eux": (2.7, 3.3),
             "euxx": (1.7, 2.3)}
    details = []
    ok = True
    for metric, (lo, hi) in bands.items():
        o = _finest(rep, metric)
        ok &= lo <= o <= hi
        details.append(f"{metric}={o:.2f}")
    ep320 = rep.rows[3]["ep"]
    ratio = ep320 / TABLE_K2_N320["ep"]
    ok &= 0.5 <= ratio <= 2.0
    elapsed = rep.meta["elapsed"]
    ok &= elapsed < 180.0
    _report(1, ok, "central k=2 finest orders " + " ".join(details)
            + f"; E_P(320)={ep320:.3e} ({ratio:.2f}x of {TABLE_K2_N320['ep']:.2e}); "
            f"runtime {elapsed:.1f}s < 180s")
    _check_golden("uniform_tables", "table5_k2", CENTRAL_K2, rep)


def test_criterion_2_table5_k3(central_k3):
    rep = central_k3
    bands = {"l2": (3.8, 4.2), "ep": (5.7, 6.3), "ef": (5.7, 6.3),
             "eu": (4.7, 5.3), "euxx": (2.7, 3.3)}
    details = []
    ok = True
    for metric, (lo, hi) in bands.items():
        o = _finest(rep, metric)
        ok &= lo <= o <= hi
        details.append(f"{metric}={o:.2f}")
    ef40 = rep.rows[1]["ef"]
    ratio = ef40 / TABLE_K3_N40["ef"]
    ok &= 0.5 <= ratio <= 2.0
    _report(2, ok, "central k=3 finest orders " + " ".join(details)
            + f"; E_f(40)={ef40:.3e} ({ratio:.2f}x of {TABLE_K3_N40['ef']:.2e})")
    _check_golden("uniform_tables", "table5_k3", CENTRAL_K3, rep)


@pytest.mark.parametrize("study, N, expected", [
    ("central_k2", 320, TABLE_K2_N320),
    ("central_k3", 40, TABLE_K3_N40),
], ids=["k2-N320", "k3-N40"])
def test_central_flux_row_magnitudes(study, N, expected, request):
    row, = (r for r in request.getfixturevalue(study).rows if r["N"] == N)
    for metric, ref in expected.items():
        tol = 0.15 if metric == "eu" else 0.10
        assert row[metric] == pytest.approx(ref, rel=tol), metric


def test_criterion_3_table2_perturbed():
    cfg = StudyConfig(k=3, Ns=(20, 40, 80, 160), flux=ALTERNATING,
                      mesh_kind="perturbed", fraction=0.1, seed=42,
                      metrics=("ef", "ep"))
    rep = run_study(cfg)
    o_ef, o_ep = _finest(rep, "ef"), _finest(rep, "ep")
    ok = 5.5 <= o_ef <= 6.5 and 5.5 <= o_ep <= 6.5
    _report(3, ok, f"alternating perturbed k=3: E_f order {o_ef:.2f}, "
                   f"E_P order {o_ep:.2f} (bands [5.5, 6.5], seed 42)")
    _check_golden("perturbed_march", "table2_k3_perturbed", cfg, rep)


def test_criterion_4_table6_zeta():
    # orders checked at the finest pair of {20,40,80}: the reference
    # table's own jump columns hit roundoff beyond N = 80
    cfg = StudyConfig(k=3, Ns=(20, 40, 80), flux=CENTRAL,
                      metrics=tuple(ZETA_METRICS))
    rep = run_study(cfg)
    o_xx = _finest(rep, "zetaxx")
    o_j = _finest(rep, "zetajump")
    o_jx = _finest(rep, "zetaxjump")
    ok = (5.6 <= o_xx <= 6.4 and 7.2 <= o_j <= 9.2 and 6.2 <= o_jx <= 8.5)
    _report(4, ok, f"central k=3 zeta orders: ||zeta_xx|| {o_xx:.2f} "
                   f"[5.6,6.4], Ejump {o_j:.2f} [7.2,9.2], "
                   f"Ejump_x {o_jx:.2f} [6.2,8.5]")
    _check_golden("uniform_tables", "table6_zeta", cfg, rep)


def test_criterion_5_table7_a3():
    cfg = StudyConfig(k=3, Ns=(20, 40, 80, 160), flux=FluxConfig(0.25, 5, 0),
                      metrics=("l2", "ef"))
    rep = run_study(cfg)
    classes = {r["class"] for r in rep.rows}
    o_ef, o_l2 = _finest(rep, "ef"), _finest(rep, "l2")
    ok = classes == {"A3"} and 5.6 <= o_ef <= 6.4 and 3.8 <= o_l2 <= 4.4
    _report(5, ok, f"A3 flux (0.25, 5/h, 0) k=3: classes {sorted(classes)}, "
                   f"E_f order {o_ef:.2f} [5.6,6.4], L2 order {o_l2:.2f} "
                   f"[3.8,4.4]")
    _check_golden("uniform_tables", "table7_a3", cfg, rep)


def test_criterion_6_table8_siac():
    cfg2 = StudyConfig(k=2, Ns=(20, 40, 80, 160), flux=CENTRAL, init="l2",
                       metrics=("estar",))
    cfg3 = dataclasses.replace(cfg2, k=3)
    rep2, rep3 = run_study(cfg2), run_study(cfg3)
    o2, o3 = _finest(rep2, "estar"), _finest(rep3, "estar")
    e2 = rep2.rows[-1]["estar"]
    ratio = e2 / 1.44e-05
    ok = o2 >= 3.7 and o3 >= 6.0 and (1 / 3 <= ratio <= 3)
    _report(6, ok, f"SIAC init=P0: k=2 E* order {o2:.2f} >= 3.7, "
                   f"k=3 E* order {o3:.2f} >= 6.0, "
                   f"E*(k=2,160)={e2:.3e} ({ratio:.2f}x of 1.44e-05)")
    _check_golden("siac_post", "table8_k2", cfg2, rep2)
    _check_golden("siac_post", "table8_k3", cfg3, rep3)


def test_criterion_7_property_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    f = plane_wave(3.0)
    lines = []

    # (a) bilinear form symmetry and realness, 100 fields per flux family
    worst_sym = worst_imag = 0.0
    for cfg in FLUX_FAMILIES:
        mesh = uwdg.make_mesh(0, 2 * np.pi, 10, "perturbed", 0.05, 3)
        op = DGOperator(mesh, cfg, 3)
        for _ in range(100):
            u = DGFunction(mesh, 3, rng.normal(size=(10, 4))
                           + 1j * rng.normal(size=(10, 4)))
            v = DGFunction(mesh, 3, rng.normal(size=(10, 4))
                           + 1j * rng.normal(size=(10, 4)))
            # A(u, v) = sum v . weak_action(u): bilinear, no conjugation
            auv = np.sum(v.coeffs * op.weak_action(u.coeffs))
            avu = np.sum(u.coeffs * op.weak_action(v.coeffs))
            worst_sym = max(worst_sym, abs(auv - avu) / abs(auv))
            avvb = np.sum(v.coeffs.conj() * op.weak_action(v.coeffs))
            worst_imag = max(worst_imag, abs(avvb.imag) / abs(avvb))
    ok_a = worst_sym <= 1e-12 and worst_imag <= 1e-12
    lines.append(("a", ok_a, f"symmetry {worst_sym:.1e}, realness "
                             f"{worst_imag:.1e} <= 1e-12"))

    # (b) semi-discrete conservation residual, relative to the
    # Cauchy-Schwarz scale of the inner product
    worst_cons = 0.0
    for cfg in FLUX_FAMILIES:
        mesh = uwdg.make_mesh(0, 2 * np.pi, 10, "perturbed", 0.05, 5)
        op = DGOperator(mesh, cfg, 3)
        w = mesh.h_sizes[:, None] / (2 * np.arange(4) + 1)
        for _ in range(100):
            v = DGFunction(mesh, 3, rng.normal(size=(10, 4))
                           + 1j * rng.normal(size=(10, 4)))
            td = DGFunction(mesh, 3, op.apply(v.coeffs))
            ip = complex(np.sum(td.coeffs * v.coeffs.conj() * w))
            scale = uwdg.l2_norm(td) * uwdg.l2_norm(v)
            worst_cons = max(worst_cons, abs(2 * ip.real) / scale)
    ok_b = worst_cons <= 1e-12
    lines.append(("b", ok_b, f"conservation residual {worst_cons:.1e} <= 1e-12"))

    # (c) flux matching of the projection at every interface
    worst_match = 0.0
    for cfg in FLUX_FAMILIES:
        kind = ("perturbed" if cfg.alpha1_t ** 2 + cfg.beta1_t * cfg.beta2_t
                == 0.25 else "uniform")
        mesh = uwdg.make_mesh(0, 2 * np.pi, 16, kind, 0.1, 7)
        for k in (2, 3, 4):
            ps = project_star(f, 0.3, mesh, k, cfg)
            uhat, uxt = uwdg.numerical_fluxes(ps, cfg)
            xs = mesh.nodes[1:]
            worst_match = max(worst_match,
                              np.abs(uhat - f.eval(xs, 0.3, 0)).max(),
                              np.abs(uxt - f.eval(xs, 0.3, 1)).max())
    ok_c = worst_match <= 1e-10
    lines.append(("c", ok_c, f"flux matching defect {worst_match:.1e} <= 1e-10"))

    # (d) local class: Pstar keeps the L2 moments below k-1 and solves
    # one 2x2 system per cell, G [u, u_x](x_{j+1/2}) + H [u, u_x](x_{j-1/2})
    # = G tr+(u_j) + H tr-(u_j), written out here from the endpoint values
    # of the Legendre polynomials
    worst_pd = 0.0
    for cfg in (ALTERNATING, FluxConfig(0.3, 0.4, 0.4)):
        mesh = uwdg.make_mesh(0, 2 * np.pi, 12, "perturbed", 0.1, 9)
        G, H = uwdg.interface_matrices(scale_flux(cfg, mesh.h))
        iface = np.column_stack([f.eval(mesh.nodes[1:], 0.1, d)
                                 for d in (0, 1)])
        for k in (2, 3, 4):
            ps = project_star(f, 0.1, mesh, k, cfg).coeffs
            want = project_l2(f, 0.1, mesh, k).coeffs
            for j, h in enumerate(mesh.h_sizes):
                # [v, v_x] of L_{j,0..k} at the right and left endpoint
                right, left = (
                    np.array([[legendre_eval(m, s, xi) * (2.0 / h) ** s
                               for m in range(k + 1)] for s in (0, 1)])
                    for xi in (1.0, -1.0))
                M = G @ right + H @ left
                data = G @ iface[j] + H @ iface[j - 1]
                want[j, k - 1:] = np.linalg.solve(
                    M[:, k - 1:], data - M[:, :k - 1] @ want[j, :k - 1])
            worst_pd = max(worst_pd, np.abs(ps - want).max())
    ok_d = worst_pd <= 1e-11
    lines.append(("d", ok_d, f"Pstar vs per-cell 2x2 solve {worst_pd:.1e} "
                             f"<= 1e-11"))

    # (e) corrections: homogeneous fluxes and minimal support
    worst_flux = worst_supp = 0.0
    for cfg in FLUX_FAMILIES:
        kind = ("perturbed" if cfg.alpha1_t ** 2 + cfg.beta1_t * cfg.beta2_t
                == 0.25 else "uniform")
        mesh = uwdg.make_mesh(0, 2 * np.pi, 12, kind, 0.1, 4)
        for k in (3, 4):
            w = uwdg.build_correction(f, 0.2, mesh, k, cfg)
            for q, wq in enumerate(w, start=1):
                uhat, uxt = uwdg.numerical_fluxes(wq, cfg)
                worst_flux = max(worst_flux, np.abs(uhat).max(),
                                 np.abs(uxt).max() * mesh.h)
                lo = k - 1 - 2 * q
                if lo > 0:
                    worst_supp = max(worst_supp,
                                     np.abs(wq.coeffs[:, :lo]).max())
    ok_e = worst_flux <= 1e-10 and worst_supp <= 1e-10
    lines.append(("e", ok_e, f"correction fluxes {worst_flux:.1e}, "
                             f"support leak {worst_supp:.1e} <= 1e-10"))

    # (f) block-circulant solver against a dense solve
    worst_circ = 0.0
    for n in (4, 8, 16):
        A = rng.normal(size=(2, 2)) + 3 * np.eye(2)
        B = rng.normal(size=(2, 2))
        rhs = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
        x = uwdg.solve_block_circulant(A, B, rhs)
        M = np.zeros((2 * n, 2 * n))
        for j in range(n):
            M[2 * j: 2 * j + 2, 2 * j: 2 * j + 2] = A
            jp = (j + 1) % n
            M[2 * j: 2 * j + 2, 2 * jp: 2 * jp + 2] = B
        ref = np.linalg.solve(M, rhs.ravel()).reshape(n, 2)
        worst_circ = max(worst_circ,
                         np.abs(x - ref).max() / np.abs(ref).max())
    ok_f = worst_circ <= 1e-12
    lines.append(("f", ok_f, f"circulant vs dense {worst_circ:.1e} <= 1e-12"))

    # (g) kernel reproduces monomials through degree 2k+1
    from test_siac import kernel_convolve_monomial
    worst_ker = 0.0
    samples = np.linspace(-1.3, 1.9, 50)
    for k in (1, 2, 3, 4):
        spec = kernel_coeffs(k)
        for m in range(2 * k + 2):
            worst_ker = max(worst_ker,
                            np.abs(kernel_convolve_monomial(spec, m, samples)
                                   - samples ** m).max())
    ok_g = worst_ker <= 1e-9
    lines.append(("g", ok_g, f"kernel reproduction defect {worst_ker:.1e} "
                             f"<= 1e-9 (k <= 4, degree <= 2k+1)"))

    # (h) determinant identity of the local class
    worst_det = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 7))
        h = float(rng.uniform(0.05, 2.0))
        a1 = rng.uniform(-0.6, 0.6)
        b1 = rng.uniform(0.2, 3.0)
        sf = scale_flux(FluxConfig(a1, b1, (0.25 - a1 * a1) / b1), h)
        det = np.linalg.det(sum(_footprints(k, sf, h))[0, :, k - 1:])
        ref = 2 * (-1) ** k * gamma_lambda(sf, k, h)[0]
        worst_det = max(worst_det, abs(det - ref) / abs(ref))
    ok_h = worst_det <= 1e-12
    lines.append(("h", ok_h, f"det(A+B) identity {worst_det:.1e} <= 1e-12"))

    elapsed = time.perf_counter() - t0
    ok = all(item[1] for item in lines) and elapsed < 30.0
    detail = "; ".join(f"({tag}) {'ok' if good else 'FAIL'} {msg}"
                       for tag, good, msg in lines)
    _report(7, ok, f"property suite in {elapsed:.1f}s < 30s: {detail}")


def test_criterion_8_exclusions_documented():
    # asymptotic constants, exact nonuniform-mesh magnitudes and negative
    # norms are excluded from quantitative acceptance by design; the
    # property suite (criterion 7) covers the corresponding structure
    _report(8, True, "excluded quantities (asymptotic constants, "
                     "nonuniform-mesh magnitudes, negative norms) are "
                     "covered structurally by the property suite")
