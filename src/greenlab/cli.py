"""Command-line surface: evaluate kernels, run suites, emit report tables.

Three subcommands, each reading only its own options:

``eval``
    Evaluate a kernel (g1, g2, h) or the coupling operators applied to the
    constant one (v, vstar) at the requested points.  CSV goes to stdout,
    or to the file named by --out.  Columns: the query coordinates, then
    ``value`` (INF when certified divergent), then ``bound_or_exponent``
    (the quadrature error bound for finite values, the certified
    divergence exponent otherwise).

``verify``
    Run a named check suite.  One CSV line per check: id, margin, verdict.
    Exit code 0 when every check passes, 1 otherwise.

``report``
    Write one of the prebuilt data tables (CSV plus a gnuplot .dat twin)
    into the --out directory.

One table, :data:`OPTIONS`, names every option: its name is the flag
(``--tol-quad``), the config-file key (``tol_quad`` or ``tol-quad``) and the
:class:`RunConfig` field, and one parser reads its text from either source.
:data:`COMMANDS` lists the options each subcommand reads; it takes no other
flag or key, and its ``# key = value`` header echoes only settings it applied.

Exit codes: 0 success, 1 verification failure, 2 configuration, usage, or
I/O error.  Output is deterministic for a fixed configuration and seed.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

from . import __version__, reports, suites
from .adjoint import adjoint_apply
from .coupling import _at_points, compose_green, coupling_apply
from .errors import ConfigError, GreenLabError
from .kernels import constant, kernel_eval
from .models import get_model
from .reports import ReportTable, fmt_exp, fmt_num, render_csv
from .values import QUAD_TOL

KERNELS = ("g1", "g2", "h", "v", "vstar")
# the kernels evaluated by quadrature, so the ones --tol-quad applies to
QUADRATURE_KERNELS = ("h", "v", "vstar")
GRID_POINTS = 20
SUITE_NAMES = (*suites.SUITES, "all")


@dataclass(frozen=True)
class RunConfig:
    """The settings of one run, one field per option.

    ``tol_quad`` and ``grid`` are None when not given: a subcommand that
    applies them falls back to QUAD_TOL and GRID_POINTS.
    """
    model: str = "interval"
    kernel: str | None = None
    x: tuple[float, ...] = ()
    y: tuple[float, ...] = ()
    tol_quad: float | None = None
    grid: int | None = None
    out: str | None = None
    seed: int = 0


def _model(text: str) -> str:
    get_model(text)             # raises ConfigError for an unknown model
    return text


def _kernel(text: str) -> str:
    if text not in KERNELS:
        raise ConfigError(f"unknown kernel '{text}'; choose from "
                          f"{', '.join(KERNELS)}")
    return text


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(",") if part.strip())


def _tol(text: str) -> float:
    value = float(text)
    if not (value > 0.0):
        raise ConfigError(f"tol-quad must be positive, got {value!r}")
    return value


def _grid(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ConfigError(f"grid must name at least one point, got {value}")
    return value


# name -> (parser of its text, help).  The name is the RunConfig field, the
# config key and, with '-' for '_', the flag.
OPTIONS = {
    "model": (_model, "model space to work in: interval, bilaplace, or "
                      "newtonian<N> for any N >= 5"),
    "kernel": (_kernel, "what to evaluate: " + ", ".join(KERNELS)),
    "x": (_floats, "comma-separated first coordinates"),
    "y": (_floats, "comma-separated second coordinates"),
    "tol_quad": (_tol, "quadrature tolerance"),
    "grid": (_grid, "grid resolution for point-free queries"),
    "out": (str, "output file (eval) or directory (report)"),
    "seed": (int, "seed for randomized probe data"),
}
# The options each subcommand reads; each also takes --config.
COMMANDS = {
    "eval": ("model", "kernel", "x", "y", "tol_quad", "grid", "out"),
    "verify": ("seed",),
    "report": ("out", "seed"),
}


def load_config(path: str) -> dict[str, str]:
    """Read a flat ``key = value`` file, rejecting unknown keys."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', "
                              f"got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in OPTIONS:
            raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
        values[key] = value.strip()
    return values


def build_config(args: argparse.Namespace) -> RunConfig:
    """The settings of ``args.command``: its config file, then its flags."""
    names = COMMANDS[args.command]
    texts = load_config(args.config) if args.config else {}
    for key in texts:
        if key not in names:
            raise ConfigError(f"{args.config}: {args.command} does not read "
                              f"'{key}'")
    texts.update((name, getattr(args, name)) for name in names
                 if getattr(args, name) is not None)
    settings = {}
    for name, text in texts.items():
        try:
            settings[name] = OPTIONS[name][0](text)
        except ValueError as exc:
            raise ConfigError(f"could not read {name} = {text!r}") from exc
    return RunConfig(**settings)


def _value_cells(val) -> tuple[str, str]:
    if val.is_finite:
        return fmt_num(val.value), fmt_num(val.error_bound)
    return "INF", fmt_exp(val.certificate.estimated_exponent)


def _eval_rows(cfg: RunConfig) -> tuple[tuple[str, ...], list[tuple[str, ...]]]:
    model = get_model(cfg.model)
    kernel = cfg.kernel
    if kernel is None:
        raise ConfigError("eval needs --kernel (g1, g2, h, v, or vstar)")
    if cfg.tol_quad is not None and kernel not in QUADRATURE_KERNELS:
        raise ConfigError(f"kernel {kernel} is evaluated in closed form; "
                          "--tol-quad does not apply")
    if cfg.grid is not None and (kernel not in ("v", "vstar") or cfg.x
                                 or model.is_radial):
        raise ConfigError("--grid applies only to v and vstar on the 1D "
                          "models, without --x")
    tol = cfg.tol_quad or QUAD_TOL
    rows: list[tuple[str, ...]] = []
    if kernel in ("v", "vstar"):
        if cfg.y:
            raise ConfigError(f"kernel {kernel} reads --x or --grid; --y "
                              "does not apply")
        # v / vstar applied to the constant one
        if cfg.x:
            points = cfg.x
        elif model.is_radial:
            points = (0.0,)
        else:
            points = tuple(float(t) for t in
                           model.domain.interior_grid(cfg.grid or GRID_POINTS))
        apply_op = coupling_apply if kernel == "v" else adjoint_apply
        one = constant(1.0)
        values = _at_points(model, lambda x: apply_op(
            model, one, x, tol=tol), points)
        for x, val in zip(points, values):
            rows.append((fmt_num(x),) + _value_cells(val))
        return ("x", "value", "bound_or_exponent"), rows
    if not cfg.x or not cfg.y:
        raise ConfigError(f"kernel {kernel} needs --x and --y")
    pairs = [(x, y) for x in cfg.x for y in cfg.y]
    if kernel in ("g1", "g2"):
        kern = model.G1 if kernel == "g1" else model.G2
        values = [kernel_eval(kern, x, y) for x, y in pairs]
    else:
        values = _at_points(model, lambda x, y: compose_green(
            model, x, y, tol=tol), *zip(*pairs))
    for (x, y), val in zip(pairs, values):
        rows.append((fmt_num(x), fmt_num(y)) + _value_cells(val))
    return ("x", "y", "value", "bound_or_exponent"), rows


def cmd_eval(cfg: RunConfig) -> int:
    columns, rows = _eval_rows(cfg)
    settings = {"command": "eval", "kernel": cfg.kernel, "model": cfg.model}
    if cfg.kernel in QUADRATURE_KERNELS:
        settings["tol-quad"] = f"{cfg.tol_quad or QUAD_TOL:g}"
    text = render_csv(ReportTable("eval", columns, tuple(rows)), settings)
    if cfg.out:
        try:
            Path(cfg.out).write_text(text, encoding="ascii")
        except OSError as exc:
            raise ConfigError(f"cannot write {cfg.out}: {exc}") from exc
    else:
        sys.stdout.write(text)
    return 0


def cmd_verify(cfg: RunConfig, suite: str) -> int:
    results = suites.run_suite(suite, seed=cfg.seed)
    table = ReportTable("verify", ("check", "margin", "verdict"), tuple(
        (r.id, f"{r.margin:.6g}", "pass" if r.passed else "FAIL")
        for r in results))
    passed = sum(r.passed for r in results)
    sys.stdout.write(render_csv(table, {"command": "verify", "suite": suite,
                                        "seed": cfg.seed})
                     + f"# result = {passed}/{len(results)} passed\n")
    return 0 if passed == len(results) else 1


def cmd_report(cfg: RunConfig, target: str) -> int:
    if target not in reports.BUILDERS:
        raise ConfigError(f"unknown report '{target}'; choose from "
                          f"{', '.join(sorted(reports.BUILDERS))}")
    out_dir = cfg.out or "reports"
    try:
        paths = reports.write_report(target, out_dir, seed=cfg.seed)
    except OSError as exc:
        raise ConfigError(f"cannot write into {out_dir}: {exc}") from exc
    for p in paths:
        print(p)
    return 0


def _add_options(parser: argparse.ArgumentParser, command: str) -> None:
    for name in COMMANDS[command]:
        parser.add_argument("--" + name.replace("_", "-"), dest=name,
                            help=OPTIONS[name][1])
    parser.add_argument("--config",
                        help="flat key = value config file; flags override")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greenlab",
        description="coupled-Green-kernel laboratory: evaluate kernels, "
                    "verify invariants, reproduce the counterexamples")
    parser.add_argument("--version", action="version",
                        version=f"greenlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser(
        "eval", help="evaluate a kernel or coupling operator",
        description="CSV columns: query coordinates, value (INF when "
                    "certified divergent), bound_or_exponent.  v and vstar "
                    "apply the coupling operator and its adjoint to the "
                    "constant one.")
    _add_options(p_eval, "eval")

    p_verify = sub.add_parser(
        "verify", help="run a verification suite",
        description="CSV columns: check, margin, verdict.  Exit code 0 "
                    "when all checks pass, 1 otherwise.")
    p_verify.add_argument("suite", choices=SUITE_NAMES)
    _add_options(p_verify, "verify")

    p_report = sub.add_parser(
        "report", help="write a prebuilt data table",
        description="Writes <target>.csv and <target>.dat into the output "
                    "directory (default ./reports).  Targets: "
                    + ", ".join(sorted(reports.BUILDERS)) + ".")
    p_report.add_argument("target")
    _add_options(p_report, "report")
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        cfg = build_config(args)
        if args.command == "eval":
            return cmd_eval(cfg)
        if args.command == "verify":
            return cmd_verify(cfg, args.suite)
        return cmd_report(cfg, args.target)
    except GreenLabError as exc:
        print(f"greenlab: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
