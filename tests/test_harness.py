import contextlib
import dataclasses
import importlib
import io
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uwdg
from uwdg.correction import build_correction
from uwdg.diagnostics import ErrorReport
from uwdg.errors import ConfigurationError
from uwdg.flux import ALTERNATING, CENTRAL, FluxConfig
from uwdg.harness import (ALL_METRICS, COMMANDS, FIELDS, MAIN_METRICS,
                          OPTIONS, ZETA_METRICS, StudyConfig, _check,
                          _parse_flux, _parse_mesh, emit_report, main,
                          run_case, run_study)
from uwdg.projection import AnalyticField, plane_wave


def smoke_config(**kw):
    base = dict(k=2, Ns=(8, 16), flux=CENTRAL, t_end=0.05,
                field_name="wave1", metrics=tuple(MAIN_METRICS))
    base.update(kw)
    return StudyConfig(**base)


class TestConfig:
    def test_parse_flux(self):
        cfg = _parse_flux("0.3,0.4,0.4")
        assert (cfg.alpha1_t, cfg.beta1_t, cfg.beta2_t) == (0.3, 0.4, 0.4)

    def test_parse_flux_errors(self):
        with pytest.raises(ConfigurationError):
            _parse_flux("1,2")
        with pytest.raises(ConfigurationError):
            _parse_flux("a,b,c")

    def test_parse_mesh(self):
        assert _parse_mesh("uniform") == ("uniform", 0.0, 0)
        assert _parse_mesh("perturbed:0.1:42") == ("perturbed", 0.1, 42)
        with pytest.raises(ConfigurationError):
            _parse_mesh("adaptive")

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            StudyConfig(k=7).validate()
        with pytest.raises(ConfigurationError):
            StudyConfig(init="bogus").validate()
        with pytest.raises(ConfigurationError):
            StudyConfig(metrics=("nope",)).validate()

    @pytest.mark.parametrize("seed", [True, 1.5], ids=["bool", "float"])
    def test_non_integer_seed_rejected(self, seed):
        # a bool is an int to operator.index, but printed as seed=True
        cfg = smoke_config(mesh_kind="perturbed", fraction=0.1, seed=seed)
        with pytest.raises(ConfigurationError, match="integer seed"):
            cfg.validate()
        with pytest.raises(ConfigurationError, match="integer seed"):
            run_study(cfg)
        smoke_config(mesh_kind="perturbed", fraction=0.1,
                     seed=np.int64(3)).validate()

    @pytest.mark.parametrize("settings", [
        dict(Ns=(20.5,)), dict(Ns=(20, 40.0)), dict(k=3.0),
        dict(k=3, q_max=0.5), dict(k=3, q_max=1.0),
    ], ids=["N-half", "N-float", "k-float", "qmax-half", "qmax-float"])
    def test_non_integer_settings_rejected(self, settings):
        cfg = smoke_config(**settings)
        with pytest.raises(ConfigurationError, match="integer"):
            cfg.validate()
        with pytest.raises(ConfigurationError, match="integer"):
            run_study(cfg)

    def test_numpy_integer_settings_pass(self):
        cfg = smoke_config(k=np.int64(3), Ns=(np.int64(8), np.int32(16)),
                           q_max=np.int64(1), t_end=0.0, metrics=("l2",))
        assert [r["status"] for r in run_study(cfg).rows] == ["ok", "ok"]

    @pytest.mark.parametrize("command, settings", [
        ("kernel", {}), ("points", {"flux": CENTRAL, "h": 1.0})])
    def test_degree_must_be_an_integer(self, command, settings):
        with pytest.raises(ConfigurationError, match="integer"):
            _check({**settings, "k": 3.0}, command)
        _check({**settings, "k": np.int64(3)}, command)

    def test_domain_is_the_fields_period(self):
        # perfbench/worker.py reads b - a as a table's length, and
        # perfbench/workloads.py calls dataclasses.replace
        names = {f.name for f in dataclasses.fields(StudyConfig)}
        assert not names & {"a", "b"}
        assert StudyConfig().b - StudyConfig().a == 2.0 * math.pi
        dataclasses.replace(StudyConfig(), Ns=(20,)).validate()
        with pytest.raises(TypeError):
            StudyConfig(a=0.0, b=1.0)
        report = run_study(smoke_config(Ns=(8,), t_end=0.0, metrics=("l2",)))
        assert report.meta["interval"] == "[0, 6.28319]"

    def test_replace_then_validate(self):
        # perfbench/workloads.py cuts each study to its smallest N so
        cfg = StudyConfig(k=3, Ns=(20, 40, 80), flux=ALTERNATING)
        small = dataclasses.replace(cfg, Ns=(20,))
        assert small.validate() is small
        assert (small.k, small.Ns, small.flux) == (3, (20,), ALTERNATING)
        assert cfg.Ns == (20, 40, 80)
        with pytest.raises(ConfigurationError, match="cell counts"):
            dataclasses.replace(cfg, Ns=(2,)).validate()

    def test_default_dt_constants(self):
        assert StudyConfig(k=2).dt_constant() == 0.05
        assert StudyConfig(k=3).dt_constant() == 0.01
        assert StudyConfig(k=3, c=0.2).dt_constant() == 0.2
        # k = 4..6 at their defaults: every row of the default N list is
        # stable under the central and the alternating flux
        for k in (4, 5, 6):
            for flux in (CENTRAL, ALTERNATING):
                report = run_study(StudyConfig(k=k, flux=flux,
                                               metrics=("l2",)))
                assert [r["status"] for r in report.rows] == ["ok"] * 3


class TestRunCase:
    def test_t_zero_metrics_are_initialization_errors(self):
        cfg = smoke_config(k=3, t_end=0.0, field_name="wave3",
                           metrics=("l2", "ep"))
        row = run_case(cfg, 12)
        f = uwdg.plane_wave(3.0)
        mesh = uwdg.make_mesh(cfg.a, cfg.b, 12)
        u_i = uwdg.reference_interpolant(f, 0.0, mesh, 3, CENTRAL)
        rms = 1.0 / np.sqrt(cfg.b - cfg.a)
        assert row["l2"] == pytest.approx(
            rms * uwdg.broken_l2_error(u_i, f, 0.0), rel=1e-12)
        # E_P at t = 0 with interpolant initialization is ||w(0)||
        w1 = build_correction(f, 0.0, mesh, 3, CENTRAL)[0]
        assert row["ep"] == pytest.approx(rms * uwdg.l2_norm(w1), rel=1e-10)

    def test_unsupported_rows_annotate(self):
        cfg = smoke_config(mesh_kind="perturbed", fraction=0.1, seed=1)
        report = run_study(cfg)       # central flux on nonuniform mesh
        assert all(r["status"].startswith("unsupported") for r in report.rows)
        text = emit_report(report, fmt="csv", out=None)
        assert "unsupported" in text

    def test_instability_annotates_row(self):
        # the step rule is beyond the RK4 stability limit at this
        # resolution for the alternating flux; the sweep keeps going
        cfg = smoke_config(flux=ALTERNATING, Ns=(8, 64), t_end=1.0,
                           field_name="wave3", metrics=("l2",))
        rep = run_study(cfg)
        assert "unstable" in rep.rows[0]["status"]
        assert rep.rows[1]["status"] == "ok"
        assert emit_report(rep, fmt="csv", out=None).count("unstable") == 1

    def test_uniform_alternating_flux_error_magnitude(self):
        # deterministic cross-check of a published-scale value: the
        # uniform-mesh E_f lands within a factor 2 of the perturbed-mesh
        # reference 2.02e-06 at k=3, N=40
        cfg = smoke_config(k=3, Ns=(40,), flux=ALTERNATING, t_end=1.0,
                           field_name="wave3", metrics=("ef",))
        row = run_case(cfg, 40)
        assert 0.5 <= row["ef"] / 2.02e-06 <= 2.0

    @pytest.mark.parametrize("k, metrics, samples, distinct", [
        # Table 5 at k=2: u0 3, E_L2 1, E_P 3, E_f 2, E_c 1, points 3 = 13
        (2, tuple(MAIN_METRICS), 13, 9),
        # k=3 with zeta: u0 6 (P* and w_1), the metrics 10, zeta's w_1 3 = 19
        (3, tuple(MAIN_METRICS) + tuple(ZETA_METRICS), 19, 15),
    ])
    def test_case_samples_the_named_field(self, k, metrics, samples,
                                          distinct, monkeypatch):
        # P*u(T)'s quadrature and interface samples repeat E_L2's, E_c's
        # and E_f's, and zeta reuses E_P's P*u(T); the case builds its
        # field, which takes one exponential per points array and t: the
        # quadrature points and interfaces at 0 and T, and the three
        # point sets
        seen, built, exps = [], [], []

        def counted_wave(kappa):
            built.append(kappa)
            wave = plane_wave(kappa)

            def counted(x, t, d=0):
                seen.append((t, d, np.shape(x),
                             np.asarray(x, float).tobytes()))
                return wave.eval(x, t, d)

            return AnalyticField(eval=counted, d_max=wave.d_max)

        class CountedNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def exp(self, z):
                exps.append(z)
                return np.exp(z)

        monkeypatch.setattr(uwdg.harness, "plane_wave", counted_wave)
        monkeypatch.setattr(uwdg.projection, "np", CountedNumpy())
        cfg = StudyConfig(k=k, Ns=(20,), flux=CENTRAL, metrics=metrics)
        row = run_case(cfg.validate(), 20)
        assert row["status"] == "ok"
        assert built == [3.0]
        assert (len(seen), len(set(seen))) == (samples, distinct)
        assert len(exps) == 7

    def test_fields_are_the_plane_waves(self):
        # each name maps to the wavenumber of the plane wave a case builds
        assert list(FIELDS.items()) == [("wave3", 3.0), ("wave1", 1.0)]
        x = np.linspace(0.0, 2 * np.pi, 9)
        for kappa in FIELDS.values():
            for d in range(3):
                assert plane_wave(kappa).eval(x, 0.7, d).tobytes() == (
                    (1j * kappa) ** d * np.exp(1j * kappa * (x - kappa * 0.7))
                ).tobytes()

    def test_case_builds_the_final_projection_once(self, monkeypatch):
        # E_P and zeta share one P*u(T); the initial data has its own
        times = []
        for module in (uwdg.harness, uwdg.correction, uwdg.diagnostics):
            build = module.project_star
            monkeypatch.setattr(
                module, "project_star",
                lambda f, t, *a, _b=build, **kw: times.append(t)
                or _b(f, t, *a, **kw))
        cfg = smoke_config(k=3, Ns=(8,), metrics=("ep", "zeta"))
        row = run_case(cfg.validate(), 8)
        assert row["status"] == "ok"
        assert times == [0.0, cfg.t_end]

    def test_metrics_are_python_floats(self):
        # the domain-RMS factor is a float, so no metric is a numpy scalar
        report = run_study(smoke_config(k=3, metrics=tuple(ALL_METRICS)))
        assert report.metric_names == ALL_METRICS
        for row in report.rows:
            assert row["status"] == "ok"
            for m in ALL_METRICS:
                assert type(row[m]) is float, m

    def test_dne_metric_in_row(self):
        cfg = smoke_config(flux=FluxConfig(0.3, 0.4, 0.4),
                           mesh_kind="perturbed", fraction=0.1, seed=2,
                           metrics=("eux",), t_end=0.01)
        row = run_case(cfg, 8)
        assert row["eux"] == "DNE"


class TestReports:
    def test_csv_shape_main_metrics(self, tmp_path):
        cfg = smoke_config(out=str(tmp_path / "r.csv"))
        report = run_study(cfg)
        text = emit_report(report, fmt="csv", out=cfg.out)
        rows = [l for l in text.splitlines() if not l.startswith("#")]
        header = rows[0].split(",")
        assert len(header) == 17          # N + 8 metric/order pairs
        assert header[0] == "N"
        data = rows[1].split(",")
        assert len(data) == 17
        assert (tmp_path / "r.csv").read_text() == text

    def test_orders_in_report(self):
        # c = 0.04: at the default 0.05, N=8 is past the RK4 limit
        cfg = smoke_config(Ns=(8, 16), metrics=("l2",), c=0.04)
        report = run_study(cfg)
        assert report.orders["l2"][0] == pytest.approx(3.0, abs=0.8)

    def test_fresh_rows_and_orders(self):
        a = ErrorReport(meta={}, metric_names=["l2"])
        b = ErrorReport(meta={}, metric_names=["l2"])
        a.rows.append({"N": 8})
        a.orders["l2"] = [None]
        assert (b.rows, b.orders) == ([], {})
        assert a.rows is not b.rows and a.orders is not b.orders

    def test_single_n_no_orders(self):
        report = run_study(smoke_config(Ns=(8,), metrics=("l2",), c=0.04))
        assert report.orders == {}
        text = emit_report(report, fmt="csv", out=None)
        assert text.splitlines()[-1].endswith("-")

    def test_non_doubling_skips_orders(self):
        report = run_study(smoke_config(Ns=(8, 24), metrics=("l2",)))
        assert report.orders == {}

    def test_determinism_byte_identical(self, tmp_path):
        cfg = smoke_config(flux=ALTERNATING, mesh_kind="perturbed",
                           fraction=0.1, seed=77, metrics=("l2", "ef"))
        a = emit_report(run_study(cfg), fmt="csv", out=None)
        b = emit_report(run_study(cfg), fmt="csv", out=None)
        assert a == b

    def test_pretty_format(self):
        report = run_study(smoke_config(metrics=("l2", "ef")))
        text = emit_report(report, fmt="pretty", out=None)
        assert "E_f" in text
        # 3 significant digits in pretty mode
        assert any(".  " not in line and "E-0" in line
                   for line in text.splitlines())

    def test_empty_report_is_header_only(self):
        from uwdg.diagnostics import ErrorReport
        rep = ErrorReport(meta={"k": 2}, metric_names=["l2"])
        text = emit_report(rep, fmt="csv", out=None)
        body = [l for l in text.splitlines() if not l.startswith("#")]
        assert body == ["N,L2,order"]

    def test_dne_cells_in_csv(self):
        cfg = smoke_config(flux=FluxConfig(0.3, 0.4, 0.4),
                           mesh_kind="perturbed", fraction=0.1, seed=2,
                           metrics=("eux",), t_end=0.01)
        text = emit_report(run_study(cfg), fmt="csv", out=None)
        assert "DNE" in text


def _python_m(*args):
    src = os.path.dirname(os.path.dirname(uwdg.__file__))
    return subprocess.run([sys.executable, *args],
                          env=dict(os.environ, PYTHONPATH=src), check=True,
                          capture_output=True, text=True)


def test_every_export_resolves_and_is_listed():
    listed = dir(uwdg)
    for name in uwdg.__all__:
        home = importlib.import_module(f"uwdg.{uwdg._HOME[name]}")
        assert getattr(uwdg, name) is getattr(home, name), name
        assert name in listed, name


class TestCLI:
    def test_module_entry_points(self):
        # python -m uwdg.harness runs the module once, so it warns about
        # nothing; python -m uwdg prints what the console script prints
        # (uwdg = uwdg.harness:main, called as below)
        for argv in (["kernel", "--k", "2"],
                     ["points", "--k", "3", "--flux", "0,0,0"]):
            run = _python_m("-m", "uwdg.harness", *argv)
            assert run.stdout and run.stderr == ""
        script = _python_m("-c", "import sys; from uwdg.harness import main;"
                           " sys.argv[0] = 'uwdg'; sys.exit(main())",
                           "kernel", "--k", "2")
        package = _python_m("-m", "uwdg", "kernel", "--k", "2")
        assert package.stdout == script.stdout != ""
        assert package.stderr == script.stderr == ""

    def test_cold_start_loads_only_what_its_case_runs(self):
        # argparse (the CLI), fractions and decimal (never: the SIAC kernel
        # weights are pinned), numpy.polynomial (never) and numpy.ma (np.unique
        # loads it, ~1.3 MB) are not loaded by a study, here uniform_tables'
        # set-up case, nor by an E* study
        code = (
            "import sys\n"
            "import uwdg.harness as h\n"
            "h.run_study(h.StudyConfig(k=2, Ns=(40,), flux=h.FluxConfig(),\n"
            "                          metrics=tuple(h.MAIN_METRICS)))\n"
            "lazy = ('argparse', 'fractions', 'decimal', 'numpy.polynomial',\n"
            "        'numpy.ma')\n"
            "print([m for m in lazy if m in sys.modules])\n"
            "h.run_study(h.StudyConfig(k=2, Ns=(20,), init='l2',\n"
            "                          metrics=('estar',)))\n"
            "print([m for m in lazy if m in sys.modules])\n"
            "h.main(['kernel', '--k', '2'])\n")
        assert _python_m("-c", code).stdout.splitlines() == [
            "[]", "[]",
            "k = 2, spline order = 3, support half-width = 3.5 h",
            "gamma = -2: +0.0192708333333333",
            "gamma = -1: -0.202083333333333",
            "gamma = +0: +1.365625",
            "gamma = +1: -0.202083333333333",
            "gamma = +2: +0.0192708333333333",
            "sum = 1"]

    def test_uniform_estar_study_needs_no_eigvalsh_and_no_fractions(self):
        # the Gauss rules and the kernel weights are pinned tables, so a
        # uniform E* study and the k=6 kernel run with eigvalsh refused and
        # load neither fractions nor decimal; the study's row is the one
        # made in this process
        code = (
            "import sys\n"
            "import numpy as np\n"
            "def refused(*args, **kwargs):\n"
            "    raise AssertionError('eigvalsh called')\n"
            "np.linalg.eigvalsh = refused\n"
            "import uwdg.harness as h\n"
            "row, = h.run_study(h.StudyConfig(k=3, Ns=(20,), init='l2',\n"
            "                                 metrics=('estar',))).rows\n"
            "print(row['status'], row['estar'].hex())\n"
            "h.main(['kernel', '--k', '6'])\n"
            "print([m for m in ('fractions', 'decimal') if m in sys.modules])\n")
        row, = run_study(StudyConfig(k=3, Ns=(20,), init="l2",
                                     metrics=("estar",))).rows
        lines = _python_m("-c", code).stdout.splitlines()
        assert lines[0] == f"ok {row['estar'].hex()}"
        assert lines[1].startswith("k = 6, ") and lines[-2] == "sum = 1"
        assert lines[-1] == "[]"

    def test_points_central_k3(self, capsys):
        assert main(["points", "--k", "3", "--flux", "0,0,0"]) == 0
        out = capsys.readouterr().out
        assert "b = 0" in out
        assert "c = -1" in out
        assert "D0 =" in out and "D1 =" in out

    def test_points_dne(self, capsys):
        assert main(["points", "--k", "2", "--flux", "0.3,0.4,0.4"]) == 0
        assert "D1 = DNE" in capsys.readouterr().out

    def test_kernel_k1(self, capsys):
        assert main(["kernel", "--k", "1"]) == 0
        out = capsys.readouterr().out
        assert "sum = 1" in out

    def test_run_subcommand(self, capsys, tmp_path):
        out = tmp_path / "run.csv"
        rc = main(["run", "--k", "2", "--N", "8", "--flux", "0,0,0",
                   "--tend", "0.02", "--field", "wave1", "--metrics", "l2",
                   "--out", str(out)])
        assert rc == 0
        assert out.exists()

    def test_unwritable_out_file_exit_code(self, capsys, tmp_path):
        # the directory exists, but the file name is too long to create
        out = tmp_path / ("x" * 300 + ".csv")
        assert main(["study", "--k", "2", "--N", "8", "--tend", "0",
                     "--metrics", "l2", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("configuration error: ")
        assert list(tmp_path.iterdir()) == []

    def test_bad_flux_exit_code(self):
        assert main(["study", "--k", "2", "--N", "8", "--flux", "bad"]) == 2

    def test_bad_k_exit_code(self):
        assert main(["run", "--k", "9", "--N", "8", "--tend", "0.01"]) == 2

    def test_non_integer_n_exit_code(self, capsys):
        assert main(["study", "--k", "2", "--N", "10,abc"]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_non_integer_config_value_exit_code(self, capsys, tmp_path):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("k = two\n")
        assert main(["study", "--config", str(cfgfile)]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_points_nonpositive_h_exit_code(self, capsys):
        assert main(["points", "--k", "2", "--h", "0"]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_points_h_range_ends_print_the_unit_sets(self, capsys):
        # b, c and the point sets are those of h = 1 across the range
        out = []
        for h in ("1", "1e-100", "1e100"):
            assert main(["points", "--k", "3", "--flux", "0.3,0.4,0.5",
                         "--h", h]) == 0
            out.append(capsys.readouterr().out.split("\n", 1))
        assert out[0][1] == out[1][1] == out[2][1]

    @pytest.mark.parametrize("argv", [
        ["run", "--k", "2", "--N", "10", "--tend", "nan"],
        ["run", "--k", "2", "--N", "10", "--tend", "-1"],
        ["run", "--k", "2", "--N", "10", "--c", "-1"],
        ["run", "--k", "2", "--N", "10", "--c", "inf"],
        ["run", "--k", "2", "--N", "10", "--flux", "nan,0,0"],
        ["kernel", "--k", "0"],
        ["points", "--k", "1"],
        ["study", "--flux", "1e300,0,0"],
        ["study", "--config", "/nonexistent/uwdg.cfg"],
        ["study", "--k", "3", "--qmax", "-1"],
        ["study", "--k", "3", "--qmax", "50"],
        ["study", "--metrics", ","],
        ["kernel", "--k", "7"],
        ["points", "--k", "7"],
        ["points", "--k", "2", "--flux", "0,1,0"],
        ["points", "--k", "3", "--flux", "0.3,0.4,0.5", "--h", "1e-170"],
        ["points", "--k", "3", "--flux", "0.3,0.4,0.5", "--h", "1e160"],
        ["run", "--k", "2", "--N", "8,16", "--tend", "0.01"],
        ["study", "--N", "8", "--mesh", "perturbed:0.1:-1"],
        ["study", "--N", "8", "--out", "."],
        ["study", "--config", "."],
        ["study", "--N", "8", "--bogus", "1"],
        ["kernel"],
        ["study", "--N", "8", "--c", "1e-320", "--metrics", "l2"],
        ["study", "--N", "1000", "--c", "1e-320", "--metrics", "l2"],
        ["study", "--tend", "1e300", "--mesh", "perturbed", "--flux",
         "0.5,0,0", "--metrics", "l2"],
        ["study", "--N", "20", "--flux", "0,0,0", "--tend", "1e300",
         "--metrics", "l2"],
        # N = 2^53 - 1: numpy refuses the 64 PiB of nodes at once
        ["study", "--k", "2", "--N", "9007199254740991", "--tend", "0",
         "--metrics", "l2"],
        ["study", "--k", "2", "--N", "9223372036854775807", "--tend", "0",
         "--metrics", "l2"],
    ], ids=["tend-nan", "tend-negative", "c-negative", "c-inf", "flux-nan",
            "kernel-k0", "points-k1", "flux-overflow", "config-missing",
            "qmax-negative", "qmax-above-levels", "metrics-empty", "kernel-k7",
            "points-k7", "points-residual-undefined", "points-h-underflow",
            "points-h-overflow", "run-two-n",
            "mesh-negative-seed", "out-directory", "config-directory",
            "unknown-flag", "kernel-no-k", "steps-not-finite", "dt-underflow",
            "band-step-cap", "eigen-step-cap", "case-out-of-memory",
            "n-int64-max"])
    def test_rejected_input_exit_code(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "configuration error" in captured.err
        assert captured.out == ""

    def test_singular_projection_in_metrics_annotates(self, capsys):
        # with --init l2 the march needs no projection; E_P does, and this
        # flux makes its global solve singular at every N
        argv = ["study", "--k", "2", "--N", "8,16", "--flux",
                "0.5000000001,4.00000000120004,0", "--tend", "0",
                "--init", "l2", "--metrics", "l2,ep"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        for N in (8, 16):
            assert (f"# row N={N}: error: block-circulant symbol A + omega^l"
                    " B is singular") in out
        assert "\n8,-," not in out    # L2 is computed before E_P fails

    def test_singular_projection_annotates_on_every_run(self, capsys):
        # a second run meets the same (k, flux, N) interface systems: the
        # cached solve must raise again, not skip the check
        argv = ["study", "--k", "2", "--N", "8", "--flux",
                "0.5000000001,4.00000000120004,0", "--tend", "0",
                "--init", "l2", "--metrics", "l2,ep"]
        for _ in range(2):
            assert main(argv) == 0
            out = capsys.readouterr().out
            assert ("# row N=8: error: block-circulant symbol A + omega^l"
                    " B is singular") in out

    def test_unstable_row_names_margin_and_stable_c(self, capsys):
        # k=4, N=20 at c=0.0093 is past the RK4 limit by 3e-4: the row is
        # annotated before any step, with the c to rerun at
        argv = ["study", "--k", "4", "--N", "20", "--metrics", "l2"]
        assert main(argv + ["--c", "0.0093"]) == 0
        out = capsys.readouterr().out
        assert "\n20,-,-\n" in out
        note = re.search(r"# row N=20: error: time integration unstable: "
                         r"stability margin dt\*rho/\(2\*sqrt\(2\)\) = "
                         r"(\S+) > 1 at dt=\S+; largest stable c = (\S+)\n",
                         out)
        assert note and 1.0002 < float(note[1]) < 1.0004
        assert note[2].startswith("0.0092")
        for c in ("0.009", note[2]):
            assert main(argv + ["--c", c]) == 0
            out = capsys.readouterr().out
            assert "\n20,2.1034" in out and "# row" not in out
        # the band march's verdict on a perturbed mesh
        assert main(["study", "--k", "3", "--N", "20", "--mesh",
                     "perturbed:0.1:0", "--flux", "0.5,0,0", "--c", "1",
                     "--metrics", "l2"]) == 0
        assert re.search(r"\n# row N=20: error: time integration unstable: "
                         r"stability margin .* = 85\.24[0-9]* > 1 .*; "
                         r"largest stable c = 0\.0117",
                         capsys.readouterr().out)

    def test_overflowing_flux_is_a_row_or_exit_2(self, capsys):
        # finite flux parameters that a1^2 + b1*b2 admits but the operator
        # or the residual cannot hold in float64; numpy's overflow is
        # expected, and it raises no warning
        study = ["study", "--k", "2", "--N", "16", "--init", "l2", "--tend",
                 "0.01", "--metrics", "l2"]
        past = "the spectral radius is past float64"
        for flux, mesh, note in [
                ("0.5,1e307,0", "uniform", past),
                ("0.5,1e307,0", "perturbed:0.1:1", past),
                ("0.5,1e300,0", "perturbed:0.1:1", "stability margin"),
                # sigma I -+ S loses sigma to roundoff from here on
                ("0.5,1e18,0", "perturbed:0.1:1", "stability margin")]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(study + ["--flux", flux, "--mesh", mesh]) == 0
            out = capsys.readouterr().out
            assert ("\n16,-,-\n# row N=16: error: time integration "
                    f"unstable: {note}") in out
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["points", "--k", "3", "--flux", "1e154,0,0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("configuration error: leading residual "
                                "undefined: its b or c is not finite\n")

    @pytest.mark.parametrize("argv, note", [
        (["--k", "3", "--N", "8", "--flux", "1e154,0,0", "--tend", "0.001"],
         "unsupported: Gamma or Lambda is past float64: Gamma/Lambda "
         "undefined"),
        (["--k", "2", "--N", "16", "--flux", "0.5,1.7e308,0"],
         "unsupported: Gamma_j is past float64 on some cell"),
        # det(A_j+B_j) = 5.093e+307 is not singular: the march says why
        (["--k", "2", "--N", "16", "--flux", "0.5,1e307,0"],
         "error: time integration unstable: the spectral radius is past "
         "float64"),
    ])
    def test_overflow_is_named_as_overflow(self, argv, note, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["study", "--tend", "0.01", *argv,
                         "--metrics", "l2"]) == 0
        captured = capsys.readouterr()
        assert f"\n# row N={argv[3]}: {note}" in captured.out
        assert captured.err == ""

    @pytest.mark.parametrize("mesh", ["uniform", "perturbed:0.1:1"])
    @pytest.mark.parametrize("flux", ["0.5,1e307,0", "0.5,1e300,0",
                                      "0.5,0,1.7e308", "0.5,-1e307,0",
                                      "0.5,0,1e307"])
    def test_overflow_writes_no_numpy_warning(self, flux, mesh, capsys):
        # each row names the fault in words; numpy's overflow is expected
        for k, init in (("2", "l2"), ("2", "uI"), ("3", "uI")):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(["study", "--k", k, "--N", "8,16", "--flux",
                             flux, "--mesh", mesh, "--init", init, "--tend",
                             "0.01", "--metrics", "l2,ef,ep"]) == 0
            captured = capsys.readouterr()
            assert captured.out.count("\n# row N=") == 2
            assert captured.err == ""

    @pytest.mark.parametrize("argv, line", [
        ("--k 2 --N 40,80,160 --metrics eu,eux,euxx",
         re.escape("160,3.405044E-02,1.97,5.688529E-04,2.98,1.446092E-05,"
                   "3.96")),
        ("--k 4 --metrics l2", r"40,7\.32[0-9]*E-07,4\.84"),
        ("--k 3 --N 20,40 --flux 0.25,5,0 --tend 0.01 --metrics l2,ep,zeta",
         r"40,3\.92[0-9]*E-05,4\.40,2\.99[0-9]*E-07,6\.60,2\.13[0-9]*E-08,"
         r"6\.66"),
        ("--k 3 --N 20,40 --init l2 --metrics estar",
         r"40,2\.609910E-06,7\.61"),
        ("--k 3 --N 20,40 --metrics ep,eu,ec,zeta",
         r"40,1\.024442E-06,6\.16,5\.388617E-06,5\.14,1\.013940E-06,6\.12,"
         r"1\.016821E-06,6\.16"),
        ("--k 2 --N 8,16 --tend 0.01 --metrics l2",
         r"16,2\.61[0-9]*E-02,1\.96"),
        ("--k 2 --N 8,16 --mesh perturbed --flux 0.5,0,0 --tend 0 "
         "--metrics eu,eux,euxx",
         r"16,3\.75[0-9]*E-01,1\.92,1\.70[0-9]*E-02,2\.87,1\.15[0-9]*E-03,"
         r"3\.84"),
    ], ids=["k2-eu", "k4-l2", "k3-a3-zeta", "k3-estar", "k3-ep-zeta",
            "k2-l2-short", "k2-perturbed-points"])
    def test_pinned_study_rows(self, argv, line, capsys):
        # a row of each study that the reference tables pin, and of a
        # short uniform and a short perturbed-mesh study, whole
        assert main(["study", *argv.split()]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert any(re.fullmatch(line, text) for text in lines)
        assert not any(text.startswith("# row") for text in lines)
        assert captured.err == ""

    def test_negative_flux_both_forms(self, capsys):
        outs = []
        for flux in (["--flux", "-0.5,0,0"], ["--flux=-0.5,0,0"]):
            argv = ["study", "--k", "2", "--N", "8,16", *flux, "--tend",
                    "0.01", "--metrics", "l2"]
            assert main(argv) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert "# flux = (-0.5,0,0)" in outs[0]

    def test_config_file_with_cli_override(self, capsys, tmp_path):
        cfgfile = tmp_path / "study.cfg"
        cfgfile.write_text(
            "k = 2\nN = 8\nflux = 0,0,0\ntend = 0.02\n"
            "field = wave1\nmetrics = l2\nformat = csv\n")
        rc = main(["run", "--config", str(cfgfile), "--metrics", "ef"])
        assert rc == 0
        out = capsys.readouterr().out
        header = [l for l in out.splitlines() if l.startswith("N,")][0]
        assert header == "N,E_f,order"      # CLI metric choice wins

    @pytest.mark.parametrize("text", [
        "N = 8\ntend_ = 0.01\n", "N = 8\nk 2\n", "N = 8,16\n"],
        ids=["unknown-key", "no-equals", "run-two-n"])
    def test_rejected_config_file_exit_code(self, text, capsys, tmp_path):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(text)
        assert main(["run", "--config", str(cfgfile), "--tend", "0"]) == 2
        captured = capsys.readouterr()
        assert "configuration error" in captured.err
        assert captured.out == ""


# Tokens for each flag of the option table.  The valid ones keep a case to
# milliseconds (N <= 16, tend <= 0.01, c >= 0.01).  Any name in an existing
# directory is a valid --out, and 1e300 a valid (and long) --tend, so these
# two flags draw their garbage from narrower lists.
VALID = {
    "k": ["2", "3", "6"], "N": ["8", "16", "4", "8,16"],
    "flux": ["0,0,0", "0.5,0,0", "0.3,0.4,0.4", "0.25,5,0", "0,1,0"],
    "mesh": ["uniform", "perturbed", "perturbed:0.2:5"],
    "tend": ["0", "0.01"], "c": ["0.01", "0.05", "1"], "init": ["uI", "l2"],
    "metrics": ["l2", "main", "zeta", "all", "estar,ef"], "qmax": ["0", "1"],
    "field": ["wave1", "wave3"], "out": [""], "format": ["csv", "pretty"],
    "h": ["1", "0.5"],
}
MISSING = "/nonexistent/uwdg.out"
GARBAGE = ["nan", "inf", "-inf", "1e300", "-1", "", ",", "abc", MISSING]
BAD = {"out": [MISSING, "."], "tend": [g for g in GARBAGE if g != "1e300"]}
ALWAYS = ("k", "N", "tend")     # so that a case is short and may succeed


def _run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


@st.composite
def _settings(draw, command):
    """(flag, token) pairs for some of the command's flags; at most two
    of the tokens are garbage."""
    flags = [opt.flag for opt in OPTIONS if command in opt.commands]
    flags = [f for f in flags if f in ALWAYS or draw(st.booleans())]
    bad = draw(st.lists(st.sampled_from(flags), max_size=2, unique=True))
    return [(f, draw(st.sampled_from(BAD.get(f, GARBAGE) if f in bad
                                     else VALID[f]))) for f in flags]


def _assert_exit_0_or_2(argv):
    rc, out, err = _run_main(argv)
    assert rc in (0, 2)
    if rc == 2:
        assert "configuration error" in err and out == ""


def test_every_table_flag_has_tokens():
    assert set(VALID) == {opt.flag for opt in OPTIONS}


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_random_argv_exits_0_or_2(data):
    command = data.draw(st.sampled_from(sorted(COMMANDS)))
    argv = [command]
    for flag, token in data.draw(_settings(command)):
        argv += ([f"--{flag}={token}"] if data.draw(st.booleans())
                 else [f"--{flag}", token])
    argv += data.draw(st.sampled_from([[], ["--bogus"], ["--k"],
                                       ["--config", MISSING]]))
    _assert_exit_0_or_2(argv)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_random_config_file_exits_0_or_2(data, tmp_path_factory):
    command = data.draw(st.sampled_from(["run", "study"]))
    lines = [f"{flag} = {token}"
             for flag, token in data.draw(_settings(command))]
    lines += data.draw(st.sampled_from([[], ["# comment"], ["no equals"],
                                        ["bogus = 1"], ["k ="]]))
    path = tmp_path_factory.getbasetemp() / "random.cfg"
    path.write_text("\n".join(data.draw(st.permutations(lines))) + "\n")
    _assert_exit_0_or_2([command, "--config", str(path)])


class TestPointsSkipped:
    """A leading residual that does not exist makes the point errors DNE
    with a note; the rest of the row and the study go on."""

    def test_monkeypatched_residual(self, monkeypatch):
        import uwdg.projection
        from uwdg.errors import ResidualUndefinedError

        def undefined(k, h_j, sf):
            raise ResidualUndefinedError("leading residual undefined: test")

        monkeypatch.setattr(uwdg.projection, "leading_residual", undefined)
        # c = 0.02 keeps N=8 inside the RK4 limit on this mesh (margin 0.78)
        rep = run_study(smoke_config(metrics=("l2", "eu", "eux", "euxx",
                                              "estar"),
                                     mesh_kind="perturbed", fraction=0.1,
                                     flux=ALTERNATING, c=0.02))
        for row in rep.rows:
            assert row["eu"] == row["eux"] == row["euxx"] == "DNE"
            assert isinstance(row["l2"], float)
            assert row["status"].startswith(
                "ok (points skipped: leading residual undefined: test; "
                "estar skipped: ")

    def test_real_input(self, capsys):
        # alpha1^2 + beta1*beta2 = 1/4 + 1e-10 is A2 (not the local class),
        # and beta1 puts Gamma + Lambda within roundoff of zero
        argv = ["study", "--k", "2", "--N", "8,16", "--flux",
                "0.5000000001,4.00000000120004,0", "--tend", "0",
                "--init", "l2", "--metrics", "eu,eux,euxx"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "8,DNE,-,DNE,-,DNE,-" in out
        assert "# row N=8: ok (points skipped: leading residual undefined" \
            in out
