"""Study runner and command line interface.

Configures cases, runs N-sweeps, and emits the error tables (CSV or
aligned text) with one metric/order column pair per selected metric.
Subcommands: run (single case), study (N sweep), points (superconvergence
point sets and residual coefficients), kernel (post-processing weights).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace

import numpy as np

from .correction import (max_correction_levels, reference_interpolant,
                         zeta_diagnostics)
from .diagnostics import (DNE, ErrorReport, broken_l2_error,
                          cell_average_error, flux_errors, observed_orders,
                          point_errors, projection_error)
from .errors import (ConfigurationError, InstabilityError,
                     ProjectionUndefinedError, SingularSymbolError,
                     UnsupportedOperationError, UwdgError)
from .flux import FluxConfig, classify_assumption, scale_flux
from .mesh import make_mesh
from .projection import plane_wave, project_l2, special_points
from .siac import kernel_coeffs, postprocessed_error
from .solver import DGOperator, TimeScheme, default_dt_constant, integrate

MAIN_METRICS = ["l2", "ep", "euxx", "eux", "eu", "ef", "efx", "ec"]
ZETA_METRICS = ["zeta", "zetaxx", "zetajump", "zetaxjump"]
ALL_METRICS = MAIN_METRICS + ZETA_METRICS + ["estar"]

METRIC_LABELS = {
    "l2": "L2", "ep": "E_P", "euxx": "E_uxx", "eux": "E_ux", "eu": "E_u",
    "ef": "E_f", "efx": "E_fx", "ec": "E_c", "zeta": "zeta_L2",
    "zetaxx": "zeta_xx", "zetajump": "jump_zeta", "zetaxjump": "jump_zeta_x",
    "estar": "E_star",
}

FIELDS = {"wave3": lambda: plane_wave(3.0, name="wave3"),
          "wave1": lambda: plane_wave(1.0, name="wave1")}


@dataclass(frozen=True)
class StudyConfig:
    k: int = 2
    Ns: tuple = (10, 20, 40)
    flux: FluxConfig = FluxConfig()
    mesh_kind: str = "uniform"
    fraction: float = 0.0
    seed: int = 0
    a: float = 0.0
    b: float = 2.0 * np.pi
    t_end: float = 1.0
    c: float | None = None          # dt constant; None -> default by k
    init: str = "uI"
    metrics: tuple = tuple(MAIN_METRICS)
    q_max: int | None = None
    field_name: str = "wave3"
    out: str | None = None
    fmt: str = "csv"

    def dt_constant(self) -> float:
        return self.c if self.c is not None else default_dt_constant(self.k)

    def validate(self) -> "StudyConfig":
        if not 2 <= self.k <= 6:
            raise ConfigurationError(f"k must be in [2, 6], got {self.k}")
        if self.init not in ("uI", "l2"):
            raise ConfigurationError(f"init must be uI or l2, got {self.init!r}")
        if self.fmt not in ("csv", "pretty"):
            raise ConfigurationError("format must be csv or pretty")
        if self.field_name not in FIELDS:
            raise ConfigurationError(f"unknown field {self.field_name!r}")
        bad = [m for m in self.metrics if m not in ALL_METRICS]
        if bad:
            raise ConfigurationError(f"unknown metrics: {bad}")
        if not self.Ns:
            raise ConfigurationError("empty N list")
        if not (np.isfinite(self.t_end) and self.t_end >= 0):
            raise ConfigurationError(f"bad t_end {self.t_end}: need finite >= 0")
        if self.c is not None and not (np.isfinite(self.c) and self.c > 0):
            raise ConfigurationError(f"bad c {self.c}: need finite > 0")
        return self


def run_case(cfg: StudyConfig, N: int) -> dict:
    """Run one (k, N) case: mesh, initial data, march to t_end, metrics.

    Unsupported or unstable configurations annotate the row instead of
    aborting the sweep.
    """
    row: dict = {"N": N, "status": "ok"}
    f = FIELDS[cfg.field_name]()
    mesh = make_mesh(cfg.a, cfg.b, N, cfg.mesh_kind, cfg.fraction, cfg.seed)
    cls = classify_assumption(cfg.flux, mesh, cfg.k)
    row["class"] = cls.tag
    if not cls.supported:
        row["status"] = f"unsupported: {cls.warning}"
        return row

    scheme = TimeScheme(c=cfg.dt_constant(), t_end=cfg.t_end)
    try:
        if cfg.init == "uI":
            u0 = reference_interpolant(f, 0.0, mesh, cfg.k, cfg.flux,
                                       q_max=cfg.q_max, cls=cls)
        else:
            u0 = project_l2(f, 0.0, mesh, cfg.k)
        op = DGOperator(mesh, cfg.flux, cfg.k)
        result = integrate(op, u0, scheme)
    except (InstabilityError, ProjectionUndefinedError,
            SingularSymbolError) as exc:
        row["status"] = f"error: {exc}"
        return row

    u_h = result.u
    t = cfg.t_end
    row["dt"] = result.dt
    want = set(cfg.metrics)
    # tables report norm-type metrics as domain RMS values, ||.||/sqrt(b-a),
    # which is the normalization the reference tables use
    rms = 1.0 / np.sqrt(cfg.b - cfg.a)

    if "l2" in want:
        row["l2"] = rms * broken_l2_error(u_h, f, t)
    if "ep" in want:
        row["ep"] = rms * projection_error(u_h, f, t, cfg.flux)
    if want & {"ef", "efx"}:
        e_f, e_fx = flux_errors(u_h, f, t, cfg.flux)
        row["ef"], row["efx"] = e_f, e_fx
    if "ec" in want:
        row["ec"] = cell_average_error(u_h, f, t)
    if want & {"eu", "eux", "euxx"}:
        e_u, e_ux, e_uxx = point_errors(u_h, f, t, cfg.flux)
        row["eu"], row["eux"], row["euxx"] = e_u, e_ux, e_uxx
    if want & set(ZETA_METRICS):
        zd = zeta_diagnostics(u_h, f, t, cfg.flux, q_max=cfg.q_max, cls=cls)
        row["zeta"] = rms * zd["zeta"]
        row["zetaxx"] = rms * zd["zeta_xx"]
        row["zetajump"] = zd["zeta_jump"]
        row["zetaxjump"] = zd["zeta_x_jump"]
    if "estar" in want:
        try:
            row["estar"] = rms * postprocessed_error(u_h, f, t,
                                                     kernel_coeffs(cfg.k))
        except UnsupportedOperationError as exc:
            row["estar"] = DNE
            row["status"] = f"ok (estar skipped: {exc})"
    return row


def run_study(cfg: StudyConfig) -> ErrorReport:
    """Run all N's, then attach observed orders where N doubles."""
    cfg = cfg.validate()
    meta = {
        "field": cfg.field_name,
        "flux": cfg.flux.label(),
        "k": cfg.k,
        "mesh": (cfg.mesh_kind if cfg.mesh_kind == "uniform" else
                 f"perturbed(fraction={cfg.fraction:g}, seed={cfg.seed}, "
                 f"rng=numpy.default_rng)"),
        "interval": f"[{cfg.a:g}, {cfg.b:g}]",
        "t_end": cfg.t_end,
        "dt_rule": f"dt = {cfg.dt_constant():g} * h^2.5",
        "init": cfg.init,
        "q_max": (cfg.q_max if cfg.q_max is not None
                  else max_correction_levels(cfg.k)),
        "norms": "L2-norm metrics reported as ||.||/sqrt(b-a) (domain RMS)",
    }
    if cfg.mesh_kind == "perturbed":
        meta["note"] = ("perturbed-mesh error magnitudes depend on the RNG "
                        "realization; only convergence orders are comparable")
    metric_names = [m for m in ALL_METRICS if m in cfg.metrics]
    report = ErrorReport(meta=meta, metric_names=metric_names)
    for N in cfg.Ns:
        report.rows.append(run_case(cfg, N))

    doubling = all(b == 2 * a for a, b in zip(cfg.Ns, cfg.Ns[1:]))
    if doubling and len(cfg.Ns) > 1:
        for m in metric_names:
            vals = [r.get(m) for r in report.rows]
            clean = [v if isinstance(v, float) else np.nan for v in vals]
            report.orders[m] = observed_orders(clean, cfg.Ns)
    return report


def _fmt_err(v, fmt: str) -> str:
    if v is None:
        return "-"
    if isinstance(v, str):
        return v                  # DNE sentinel
    return f"{v:.6E}" if fmt == "csv" else f"{v:.2E}"


def _fmt_order(v) -> str:
    return "-" if v is None or (isinstance(v, float) and not np.isfinite(v)) \
        else f"{v:.2f}"


def emit_report(report: ErrorReport, fmt: str = "csv", out=None) -> str:
    """Render a report as CSV ('#' metadata header) or aligned text."""
    lines = []
    for key, val in report.meta.items():
        lines.append(f"# {key} = {val}")
    names = report.metric_names
    header = ["N"]
    for m in names:
        header += [METRIC_LABELS[m], "order"]
    rows_txt = [header]
    for i, row in enumerate(report.rows):
        cells = [str(row["N"])]
        for m in names:
            cells.append(_fmt_err(row.get(m), fmt))
            order = None
            if i > 0 and m in report.orders:
                order = report.orders[m][i - 1]
            cells.append(_fmt_order(order))
        rows_txt.append(cells)
        if row.get("status", "ok") != "ok":
            lines_note = f"# row N={row['N']}: {row['status']}"
            rows_txt.append([lines_note])

    if fmt == "csv":
        for cells in rows_txt:
            lines.append(",".join(cells))
    else:
        widths = [max(len(r[i]) for r in rows_txt if len(r) > 1)
                  for i in range(len(header))]
        for cells in rows_txt:
            if len(cells) == 1:
                lines.append(cells[0])
            else:
                lines.append("  ".join(c.rjust(w) for c, w in zip(cells, widths)))
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return text


# ----------------------------------------------------------------- CLI ----

def _parse_flux(text: str) -> FluxConfig:
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigurationError(f"flux must be 'a1,b1,b2', got {text!r}")
    try:
        a1, b1, b2 = (float(p) for p in parts)
    except ValueError as exc:
        raise ConfigurationError(f"bad flux value in {text!r}") from exc
    if not np.all(np.isfinite([a1, b1, b2])):
        raise ConfigurationError(f"flux values must be finite, got {text!r}")
    return FluxConfig(a1, b1, b2)


def _parse_mesh(text: str) -> tuple[str, float, int]:
    if text == "uniform":
        return "uniform", 0.0, 0
    if text.startswith("perturbed"):
        parts = text.split(":")
        try:
            frac = float(parts[1]) if len(parts) > 1 else 0.1
            seed = int(parts[2]) if len(parts) > 2 else 0
        except ValueError as exc:
            raise ConfigurationError(f"bad mesh spec {text!r}") from exc
        return "perturbed", frac, seed
    raise ConfigurationError("mesh must be uniform or perturbed:<frac>:<seed>")


def _parse_metrics(text: str) -> tuple:
    if text == "all":
        return tuple(ALL_METRICS)
    if text == "main":
        return tuple(MAIN_METRICS)
    if text == "zeta":
        return tuple(ZETA_METRICS)
    return tuple(t.strip() for t in text.split(",") if t.strip())


def _number(kind, key: str, text):
    """kind(text), or a ConfigurationError naming the setting."""
    try:
        return kind(text)
    except ValueError as exc:
        raise ConfigurationError(f"bad {key} value {text!r}") from exc


def _read_config_file(path: str) -> dict:
    """Flat key = value file; '#' starts a comment."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigurationError(f"bad config line: {raw.rstrip()}")
            key, val = (s.strip() for s in line.split("=", 1))
            out[key] = val
    return out


def _add_case_flags(p: argparse.ArgumentParser, single_n: bool):
    p.add_argument("--config", help="key = value config file; CLI overrides")
    p.add_argument("--k", type=int)
    if single_n:
        p.add_argument("--N", type=int)
    else:
        p.add_argument("--N", help="comma list, e.g. 10,20,40,80")
    p.add_argument("--flux", help="tilde parameters a1,b1,b2")
    p.add_argument("--mesh", help="uniform | perturbed:<frac>:<seed>")
    p.add_argument("--tend", type=float)
    p.add_argument("--c", type=float, help="dt constant in dt = c*h^2.5")
    p.add_argument("--init", choices=["uI", "l2"])
    p.add_argument("--metrics", help="comma list, or all|main|zeta")
    p.add_argument("--qmax", type=int)
    p.add_argument("--field", choices=sorted(FIELDS))
    p.add_argument("--out")
    p.add_argument("--format", choices=["csv", "pretty"])


def _config_from_args(args, single_n: bool) -> StudyConfig:
    cfg = StudyConfig()
    file_vals = _read_config_file(args.config) if args.config else {}

    def pick(flag, key=None):
        v = getattr(args, flag, None)
        if v is not None:
            return v
        return file_vals.get(key or flag)

    updates = {}
    if (v := pick("k")) is not None:
        updates["k"] = _number(int, "k", v)
    if (v := pick("N")) is not None:
        if single_n and not isinstance(v, str):
            updates["Ns"] = (int(v),)
        else:
            updates["Ns"] = tuple(_number(int, "N", s)
                                  for s in str(v).split(","))
    if (v := pick("flux")) is not None:
        updates["flux"] = v if isinstance(v, FluxConfig) else _parse_flux(v)
    if (v := pick("mesh")) is not None:
        kind, frac, seed = _parse_mesh(v)
        updates.update(mesh_kind=kind, fraction=frac, seed=seed)
    if (v := pick("tend")) is not None:
        updates["t_end"] = _number(float, "tend", v)
    if (v := pick("c")) is not None:
        updates["c"] = _number(float, "c", v)
    if (v := pick("init")) is not None:
        updates["init"] = v
    if (v := pick("metrics")) is not None:
        updates["metrics"] = _parse_metrics(v)
    if (v := pick("qmax")) is not None:
        updates["q_max"] = _number(int, "qmax", v)
    if (v := pick("field")) is not None:
        updates["field_name"] = v
    if (v := pick("out")) is not None:
        updates["out"] = v
    if (v := pick("format", "format")) is not None:
        updates["fmt"] = v
    return replace(cfg, **updates).validate()


def _cmd_points(args) -> int:
    if args.k < 2:
        raise ConfigurationError(f"points needs k >= 2, got {args.k}")
    if not args.h > 0:
        raise ConfigurationError(f"h must be positive, got {args.h:g}")
    flux = _parse_flux(args.flux) if args.flux else FluxConfig()
    sf = scale_flux(flux, args.h)
    pts = special_points(args.k, args.h, sf)
    print(f"k = {args.k}, flux = {flux.label()}, h = {args.h:g}")
    print(f"b = {pts.residual.b:.12g}")
    print(f"c = {pts.residual.c:.12g}")
    for name, arr in zip(("D0", "D1", "D2"), pts.sets()):
        if arr.size:
            print(f"{name} = " + ", ".join(f"{x:.12g}" for x in arr))
        else:
            print(f"{name} = DNE")
    return 0


def _cmd_kernel(args) -> int:
    if args.k < 1:
        raise ConfigurationError(f"kernel needs k >= 1, got {args.k}")
    spec = kernel_coeffs(args.k)
    print(f"k = {args.k}, spline order = {spec.order}, "
          f"support half-width = {spec.support_halfwidth:g} h")
    for g, w in zip(spec.shifts, spec.weights):
        print(f"gamma = {g:+d}: {w:+.15g}")
    print(f"sum = {spec.weights.sum():.15g}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="uwdg",
        description="Ultra-weak DG superconvergence laboratory for the 1D "
                    "periodic linear Schrodinger equation")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="single (k, N) case")
    _add_case_flags(p_run, single_n=True)

    p_study = sub.add_parser("study", help="N sweep with order columns")
    _add_case_flags(p_study, single_n=False)

    p_pts = sub.add_parser("points", help="superconvergence point sets")
    p_pts.add_argument("--k", type=int, required=True)
    p_pts.add_argument("--flux")
    p_pts.add_argument("--h", type=float, default=1.0)

    p_ker = sub.add_parser("kernel", help="post-processing kernel weights")
    p_ker.add_argument("--k", type=int, required=True)

    args = parser.parse_args(argv)
    try:
        if args.command == "points":
            return _cmd_points(args)
        if args.command == "kernel":
            return _cmd_kernel(args)
        cfg = _config_from_args(args, single_n=(args.command == "run"))
        report = run_study(cfg)
        emit_report(report, fmt=cfg.fmt, out=cfg.out)
        return 0
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except UwdgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
