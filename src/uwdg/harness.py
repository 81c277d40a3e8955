"""Study runner and command line interface.

Configures cases, runs N-sweeps, and emits the error tables (CSV or
aligned text) with one metric/order column pair per selected metric.
OPTIONS holds every setting of the subcommands in COMMANDS.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .correction import (max_correction_levels, reference_interpolant,
                         zeta_diagnostics)
from .diagnostics import (DNE, ErrorReport, broken_l2_error,
                          cell_average_error, flux_errors, observed_orders,
                          point_errors, projection_error)
from .errors import (ConfigurationError, InstabilityError,
                     ProjectionUndefinedError, ResidualUndefinedError,
                     SingularSymbolError, UnsupportedOperationError,
                     UwdgError)
from .flux import FluxConfig, classify_assumption, scale_flux
from .mesh import _is_integer, make_mesh
from .projection import (plane_wave, project_l2, project_star,
                         special_points)
from .siac import kernel_coeffs, postprocessed_error
from .solver import DEFAULT_DT_CONSTANTS, DGOperator, integrate

MAIN_METRICS = ["l2", "ep", "euxx", "eux", "eu", "ef", "efx", "ec"]
ZETA_METRICS = ["zeta", "zetaxx", "zetajump", "zetaxjump"]
ALL_METRICS = MAIN_METRICS + ZETA_METRICS + ["estar"]

METRIC_LABELS = {
    "l2": "L2", "ep": "E_P", "euxx": "E_uxx", "eux": "E_ux", "eu": "E_u",
    "ef": "E_f", "efx": "E_fx", "ec": "E_c", "zeta": "zeta_L2",
    "zetaxx": "zeta_xx", "zetajump": "jump_zeta", "zetaxjump": "jump_zeta_x",
    "estar": "E_star",
}

#: the exact fields by name: each is the plane_wave of this wavenumber,
#: built anew for each case (run_case)
FIELDS = {"wave3": 3.0, "wave1": 1.0}
#: the formats emit_report renders
FORMATS = ("csv", "pretty")


@dataclass(frozen=True)
class StudyConfig:
    k: int = 2
    Ns: tuple = (10, 20, 40)
    flux: FluxConfig = FluxConfig()
    mesh_kind: str = "uniform"
    fraction: float = 0.0
    seed: int = 0
    t_end: float = 1.0
    c: float | None = None          # dt constant; None -> default by k
    init: str = "uI"
    metrics: tuple = tuple(MAIN_METRICS)
    q_max: int | None = None
    field_name: str = "wave3"
    out: str | None = None
    fmt: str = "csv"
    # the domain is the period of every field in FIELDS, not a setting
    a = 0.0
    b = 2.0 * math.pi

    def dt_constant(self) -> float:
        return self.c if self.c is not None else DEFAULT_DT_CONSTANTS[self.k]

    def validate(self) -> "StudyConfig":
        """Check every field against its row of OPTIONS."""
        _check(vars(self), "study")
        return self


def run_case(cfg: StudyConfig, N: int) -> dict:
    """Run one (k, N) case: mesh, initial data, march to t_end, metrics.

    Unsupported or unstable configurations, and a projection that fails in
    any phase, annotate the row instead of aborting the sweep; the metrics
    computed before the failure stay in the row.  A metric that does not
    exist for the case (point errors without a leading residual, E* off a
    uniform mesh) is DNE with a note.
    """
    row: dict = {"N": N, "status": "ok"}
    f = plane_wave(FIELDS[cfg.field_name])
    mesh = make_mesh(cfg.a, cfg.b, N, cfg.mesh_kind, cfg.fraction, cfg.seed)
    cls = classify_assumption(cfg.flux, mesh, cfg.k)
    row["class"] = cls.tag
    if not cls.supported:
        row["status"] = f"unsupported: {cls.warning}"
        return row

    want = set(cfg.metrics)
    # tables report norm-type metrics as domain RMS values, ||.||/sqrt(b-a),
    # which is the normalization the reference tables use
    rms = 1.0 / math.sqrt(cfg.b - cfg.a)
    t = cfg.t_end
    skipped = []
    try:
        if cfg.init == "uI":
            u0 = reference_interpolant(f, 0.0, mesh, cfg.k, cfg.flux,
                                       q_max=cfg.q_max)
        else:
            u0 = project_l2(f, 0.0, mesh, cfg.k)
        op = DGOperator(mesh, cfg.flux, cfg.k)
        result = integrate(op, u0, cfg.dt_constant(), cfg.t_end)
        u_h = result.u
        row["dt"] = result.dt

        ps = None       # P*u(T), built once when E_P and zeta both need it
        if "l2" in want:
            row["l2"] = rms * broken_l2_error(u_h, f, t)
        if "ep" in want:
            if want & set(ZETA_METRICS):
                ps = project_star(f, t, mesh, cfg.k, cfg.flux)
            row["ep"] = rms * projection_error(u_h, f, t, cfg.flux, ps)
        if want & {"ef", "efx"}:
            e_f, e_fx = flux_errors(u_h, f, t, cfg.flux)
            row["ef"], row["efx"] = e_f, e_fx
        if "ec" in want:
            row["ec"] = cell_average_error(u_h, f, t)
        if want & {"eu", "eux", "euxx"}:
            try:
                e_u, e_ux, e_uxx = point_errors(u_h, f, t, cfg.flux)
            except ResidualUndefinedError as exc:
                e_u = e_ux = e_uxx = DNE
                skipped.append(f"points skipped: {exc}")
            row["eu"], row["eux"], row["euxx"] = e_u, e_ux, e_uxx
        if want & set(ZETA_METRICS):
            zd = zeta_diagnostics(u_h, f, t, cfg.flux, q_max=cfg.q_max, ps=ps)
            row["zeta"] = rms * zd["zeta"]
            row["zetaxx"] = rms * zd["zeta_xx"]
            row["zetajump"] = zd["zeta_jump"]
            row["zetaxjump"] = zd["zeta_x_jump"]
        if "estar" in want:
            try:
                row["estar"] = rms * postprocessed_error(u_h, f, t)
            except UnsupportedOperationError as exc:
                row["estar"] = DNE
                skipped.append(f"estar skipped: {exc}")
    except (InstabilityError, ProjectionUndefinedError,
            SingularSymbolError) as exc:
        row["status"] = f"error: {exc}"
        return row
    if skipped:
        row["status"] = f"ok ({'; '.join(skipped)})"
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
            report.orders[m] = observed_orders(vals, cfg.Ns)
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
    if fmt not in FORMATS:
        raise ValueError(f"fmt must be {' | '.join(FORMATS)}, not {fmt!r}")
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

class _Option(NamedTuple):
    """One setting of the CLI and of StudyConfig (see OPTIONS)."""

    flag: str           # --flag, and its key in a --config file
    fields: tuple       # the fields it sets
    parse: Callable     # text -> value, a tuple of them for several fields
    ok: Callable        # settings dict -> in range?
    rule: str           # the range in words, for --help and errors
    commands: tuple = ("run", "study")


def _parse_flux(text: str) -> FluxConfig:
    try:
        a1, b1, b2 = (float(p) for p in text.split(","))
    except ValueError as exc:
        raise ConfigurationError(
            f"flux must be 'a1,b1,b2', got {text!r}") from exc
    return FluxConfig(a1, b1, b2)


def _parse_mesh(text: str) -> tuple[str, float, int]:
    kind, *spec = text.split(":")
    if kind == "uniform" and not spec:
        return "uniform", 0.0, 0
    if kind != "perturbed" or len(spec) > 2:
        raise ConfigurationError("mesh must be uniform or "
                                 "perturbed:<frac>:<seed>")
    frac, seed = spec + ["0.1", "0"][len(spec):]     # the defaults
    return "perturbed", float(frac), int(seed)


def _parse_metrics(text: str) -> tuple:
    named = {"all": ALL_METRICS, "main": MAIN_METRICS, "zeta": ZETA_METRICS}
    listed = (t.strip() for t in text.split(",") if t.strip())
    return tuple(named.get(text, listed))


def _writable(path: str | None) -> bool:
    return path is None or (not os.path.isdir(path) and
                            os.path.isdir(os.path.dirname(path) or "."))


#: every setting of every subcommand: main parses each value by its row,
#: whatever its source, and StudyConfig.validate or _check checks its range
OPTIONS = (
    _Option("k", ("k",), int,
            lambda s: _is_integer(s["k"]) and 2 <= s["k"] <= 6,
            "the degree, an integer in 2..6", ("run", "study", "points")),
    _Option("k", ("k",), int,
            lambda s: _is_integer(s["k"]) and 1 <= s["k"] <= 6,
            "the degree, an integer in 1..6", ("kernel",)),
    _Option("N", ("Ns",), lambda t: tuple(int(n) for n in t.split(",")),
            lambda s: len(s["Ns"]) > 0 and all(map(_is_integer, s["Ns"]))
            and min(s["Ns"]) >= 4 and max(s["Ns"]) < 2 ** 53,
            "a comma list of cell counts, each an integer in 4..2^53-1 "
            "(run: one)"),
    # a1^2 + b1*b2 is not finite if a parameter is not; a1 * a1 gives inf
    # where a1 ** 2 would raise OverflowError
    _Option("flux", ("flux",), _parse_flux,
            lambda s: math.isfinite(s["flux"].alpha1_t * s["flux"].alpha1_t
                                    + s["flux"].beta1_t * s["flux"].beta2_t),
            "tilde a1,b1,b2 with a1^2 + b1*b2 finite",
            ("run", "study", "points")),
    _Option("mesh", ("mesh_kind", "fraction", "seed"), _parse_mesh,
            lambda s: (s["mesh_kind"] in ("uniform", "perturbed")
                       and 0 <= s["fraction"] < 0.5
                       and _is_integer(s["seed"]) and s["seed"] >= 0),
            "uniform, or perturbed:<frac>:<seed> with 0 <= frac < 0.5 "
            "(default 0.1) and an integer seed >= 0 (default 0)"),
    _Option("tend", ("t_end",), float, lambda s: 0 <= s["t_end"] < math.inf,
            "the final time, finite >= 0"),
    _Option("c", ("c",), float,
            lambda s: s["c"] is None or 0 < s["c"] < math.inf,
            "c in dt = c*h^2.5, finite > 0 (default: by k)"),
    _Option("init", ("init",), str, lambda s: s["init"] in ("uI", "l2"),
            "uI | l2"),
    _Option("metrics", ("metrics",), _parse_metrics,
            lambda s: set() < set(s["metrics"]) <= set(ALL_METRICS),
            f"a comma list of {', '.join(ALL_METRICS)}, or all | main | zeta"),
    _Option("qmax", ("q_max",), int, lambda s: s["q_max"] is None
            or _is_integer(s["q_max"])
            and 0 <= s["q_max"] <= max_correction_levels(s["k"]),
            "the correction levels, an integer in 0..(k-1)//2"),
    _Option("field", ("field_name",), str, lambda s: s["field_name"] in FIELDS,
            " | ".join(FIELDS)),
    _Option("out", ("out",), str, lambda s: _writable(s["out"]),
            "a file in an existing directory (default stdout)"),
    _Option("format", ("fmt",), str, lambda s: s["fmt"] in FORMATS,
            " | ".join(FORMATS)),
    # special_points under- or overflows in h^2 past about 1e+-150
    _Option("h", ("h",), float, lambda s: 1e-100 <= s["h"] <= 1e100,
            "the cell size, 1e-100 <= h <= 1e100 (default 1)", ("points",)),
)

COMMANDS = {"run": "single (k, N) case", "study": "N sweep with order columns",
            "points": "superconvergence point sets",
            "kernel": "post-processing kernel weights"}


def _options(command: str) -> list[_Option]:
    return [opt for opt in OPTIONS if command in opt.commands]


def _check(values: dict, command: str) -> None:
    """Raise ConfigurationError unless each setting is given and in range."""
    for opt in _options(command):
        if not all(f in values for f in opt.fields):
            raise ConfigurationError(f"--{opt.flag} is required")
        if not opt.ok(values):
            got = ", ".join(repr(values[f]) for f in opt.fields)
            raise ConfigurationError(f"bad {opt.flag} {got}: need {opt.rule}")


def _read_config_file(path: str) -> dict:
    """Flat key = value file; '#' starts a comment."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [raw.split("#", 1)[0].strip() for raw in fh]
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config file: {exc}") from exc
    bad = [line for line in lines if line and "=" not in line]
    if bad:
        raise ConfigurationError(f"bad config line: {bad[0]}")
    return dict((s.strip() for s in line.split("=", 1))
                for line in lines if line)


def _given(args) -> dict:
    """The settings given on the command line, else in the --config file,
    each parsed by its row; a setting given in neither is left out."""
    rows = _options(args.command)
    path = getattr(args, "config", None)
    texts = {} if path is None else _read_config_file(path)
    unknown = sorted(set(texts) - {opt.flag for opt in rows})
    if unknown:
        raise ConfigurationError(f"unknown config keys: {unknown}")
    texts.update((k, v) for k, v in vars(args).items() if v is not None)
    out = {}
    for opt in (opt for opt in rows if opt.flag in texts):
        try:
            value = opt.parse(texts[opt.flag])
        except ValueError as exc:
            raise ConfigurationError(
                f"bad {opt.flag} value {texts[opt.flag]!r}") from exc
        out.update(zip(opt.fields, value) if len(opt.fields) > 1
                   else [(opt.fields[0], value)])
    return out


def _cmd_points(given: dict) -> int:
    s = {"flux": FluxConfig(), "h": 1.0, **given}
    _check(s, "points")
    k, flux, h = s["k"], s["flux"], s["h"]
    pts = special_points(k, h, scale_flux(flux, h))
    print(f"k = {k}, flux = {flux.label()}, h = {h:g}")
    print(f"b = {pts.residual.b:.12g}")
    print(f"c = {pts.residual.c:.12g}")
    for name, arr in zip(("D0", "D1", "D2"), pts.sets):
        if arr.size:
            print(f"{name} = " + ", ".join(f"{x:.12g}" for x in arr))
        else:
            print(f"{name} = DNE")
    return 0


def _cmd_kernel(given: dict) -> int:
    _check(given, "kernel")
    spec = kernel_coeffs(given["k"])
    print(f"k = {spec.k}, spline order = {spec.order}, "
          f"support half-width = {spec.support_halfwidth:g} h")
    for g, w in zip(spec.shifts, spec.weights):
        print(f"gamma = {g:+d}: {w:+.15g}")
    print(f"sum = {spec.weights.sum():.15g}")
    return 0


def _join_dash_values(argv: list) -> list:
    """Pass '--flag -v' as '--flag=-v': argparse reads a value that starts
    with one dash, such as the flux -0.5,0,0, as an unknown flag."""
    flags = {"--config"} | {"--" + opt.flag for opt in OPTIONS}
    out = []
    for token in argv:
        if (out and out[-1] in flags and token.startswith("-")
                and not token.startswith("--")):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    import argparse     # on command line use only

    class _Parser(argparse.ArgumentParser):
        """argparse whose usage errors are configuration errors (exit 2)."""

        def error(self, message):
            raise ConfigurationError(message)

    parser = _Parser(
        prog="uwdg",
        description="Ultra-weak DG superconvergence laboratory for the 1D "
                    "periodic linear Schrodinger equation")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, text in COMMANDS.items():
        p = sub.add_parser(command, help=text)
        if command in ("run", "study"):
            p.add_argument("--config", help="key = value file; CLI wins")
        for opt in _options(command):
            p.add_argument("--" + opt.flag, help=opt.rule)

    try:
        args = parser.parse_args(_join_dash_values(
            sys.argv[1:] if argv is None else list(argv)))
        given = _given(args)
        if args.command == "points":
            return _cmd_points(given)
        if args.command == "kernel":
            return _cmd_kernel(given)
        cfg = StudyConfig(**given)
        if args.command == "run" and len(cfg.Ns) != 1:
            raise ConfigurationError(f"run takes one N, got {cfg.Ns}")
        report = run_study(cfg)
        try:
            emit_report(report, fmt=cfg.fmt, out=cfg.out)
        except OSError as exc:
            raise ConfigurationError(f"cannot write the report: {exc}") \
                from exc
        return 0
    except (ConfigurationError, ResidualUndefinedError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"configuration error: the case does not fit in memory: {exc}",
              file=sys.stderr)
        return 2
    except UwdgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
