"""Command-line surface: evaluate kernels, run suites, emit report tables.

Three subcommands share one configuration model:

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

Exit codes: 0 success, 1 verification failure, 2 configuration, usage, or
I/O error.  Output is deterministic for a fixed configuration and seed.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from . import __version__, reports, suites
from .adjoint import adjoint_apply
from .coupling import _at_points, compose_green, coupling_apply
from .errors import ConfigError, GreenLabError
from .kernels import constant, kernel_eval
from .models import get_model
from .values import FD_TOL, IDENTITY_TOL, QUAD_TOL

KERNELS = ("g1", "g2", "h", "v", "vstar")
SUITE_NAMES = ("axioms", "interval", "bilaplace", "newtonian", "adjoint",
               "all")


@dataclass(frozen=True)
class RunConfig:
    """Validated settings shared by every subcommand."""
    model: str = "interval"
    kernel: str | None = None
    xs: tuple[float, ...] = ()
    ys: tuple[float, ...] = ()
    dists: tuple[float, ...] = ()
    tol_quad: float = QUAD_TOL
    tol_identity: float = IDENTITY_TOL
    tol_fd: float = FD_TOL
    grid: int = 20
    out: str | None = None
    seed: int = 0

    def validate(self) -> "RunConfig":
        get_model(self.model)       # raises ConfigError for an unknown model
        if self.kernel is not None and self.kernel not in KERNELS:
            raise ConfigError(f"unknown kernel '{self.kernel}'; choose from "
                              f"{', '.join(KERNELS)}")
        for name in ("tol_quad", "tol_identity", "tol_fd"):
            value = getattr(self, name)
            if not (value > 0.0):
                raise ConfigError(f"{name.replace('_', '-')} must be "
                                  f"positive, got {value!r}")
        if self.grid < 1:
            raise ConfigError(f"grid must name at least one point, "
                              f"got {self.grid}")
        return self


_CONFIG_KEYS = {f.name for f in fields(RunConfig)} | {"x", "y", "dist"}


def _parse_floats(text: str, flag: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(f"could not read {flag} = {text!r}") from exc


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
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
        values[key] = value.strip()
    return values


def build_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        raw = load_config(args.config)
        updates: dict[str, object] = {}
        for key, value in raw.items():
            if key in ("x", "y", "dist"):
                target = {"x": "xs", "y": "ys", "dist": "dists"}[key]
                updates[target] = _parse_floats(value, key)
            elif key in ("xs", "ys", "dists"):
                updates[key] = _parse_floats(value, key)
            elif key in ("tol_quad", "tol_identity", "tol_fd"):
                try:
                    updates[key] = float(value)
                except ValueError as exc:
                    raise ConfigError(f"could not read {key} = {value!r}"
                                      ) from exc
            elif key in ("grid", "seed"):
                try:
                    updates[key] = int(value)
                except ValueError as exc:
                    raise ConfigError(f"could not read {key} = {value!r}"
                                      ) from exc
            else:
                updates[key] = value
        cfg = replace(cfg, **updates)
    overrides: dict[str, object] = {}
    if getattr(args, "model", None) is not None:
        overrides["model"] = args.model
    if getattr(args, "kernel", None) is not None:
        overrides["kernel"] = args.kernel
    if getattr(args, "x", None) is not None:
        overrides["xs"] = _parse_floats(args.x, "--x")
    if getattr(args, "y", None) is not None:
        overrides["ys"] = _parse_floats(args.y, "--y")
    if getattr(args, "dist", None) is not None:
        overrides["dists"] = _parse_floats(args.dist, "--dist")
    for flag, name in (("tol_quad", "tol_quad"),
                       ("tol_identity", "tol_identity"),
                       ("tol_fd", "tol_fd")):
        value = getattr(args, flag, None)
        if value is not None:
            overrides[name] = value
    if getattr(args, "grid", None) is not None:
        overrides["grid"] = args.grid
    if getattr(args, "out", None) is not None:
        overrides["out"] = args.out
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    return replace(cfg, **overrides).validate()


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _value_cells(val) -> tuple[str, str]:
    if val.is_finite:
        return _fmt(val.value), _fmt(val.error_bound)
    return "INF", f"{val.certificate.estimated_exponent:.6g}"


def _eval_rows(cfg: RunConfig) -> tuple[tuple[str, ...], list[tuple[str, ...]]]:
    model = get_model(cfg.model)
    kernel = cfg.kernel
    if kernel is None:
        raise ConfigError("eval needs --kernel (g1, g2, h, v, or vstar)")
    rows: list[tuple[str, ...]] = []
    if kernel in ("g1", "g2"):
        kern = model.G1 if kernel == "g1" else model.G2
        if cfg.dists:
            if not model.is_radial:
                raise ConfigError("--dist applies to the radial models; "
                                  "use --x and --y here")
            from .models.newtonian import kernel_at_distance
            for d in cfg.dists:
                val = kernel_at_distance(model.dim, d)
                rows.append((_fmt(d),) + _value_cells(val))
            return ("dist", "value", "bound_or_exponent"), rows
        if not cfg.xs or not cfg.ys:
            raise ConfigError(f"kernel {kernel} needs --x and --y "
                              f"(or --dist on the radial models)")
        for x in cfg.xs:
            for y in cfg.ys:
                rows.append((_fmt(x), _fmt(y))
                            + _value_cells(kernel_eval(kern, x, y)))
        return ("x", "y", "value", "bound_or_exponent"), rows
    if kernel == "h":
        if cfg.dists and model.is_radial:
            from .models.newtonian import require_separation
            pairs = [(0.0, require_separation(d)) for d in cfg.dists]
        elif cfg.xs and cfg.ys:
            pairs = [(x, y) for x in cfg.xs for y in cfg.ys]
        else:
            raise ConfigError("kernel h needs --x and --y "
                              "(or --dist on the radial models)")
        values = _at_points(model, lambda x, y: compose_green(
            model, x, y, tol=cfg.tol_quad), *zip(*pairs))
        for (x, y), val in zip(pairs, values):
            rows.append((_fmt(x), _fmt(y)) + _value_cells(val))
        return ("x", "y", "value", "bound_or_exponent"), rows
    # v / vstar applied to the constant one
    if cfg.xs:
        points = cfg.xs
    elif model.is_radial:
        points = (0.0,)
    else:
        points = tuple(float(t) for t in
                       model.domain.interior_grid(cfg.grid))
    apply_op = coupling_apply if kernel == "v" else adjoint_apply
    one = constant(1.0)
    values = _at_points(model, lambda x: apply_op(
        model, one, x, tol=cfg.tol_quad), points)
    for x, val in zip(points, values):
        rows.append((_fmt(x),) + _value_cells(val))
    return ("x", "value", "bound_or_exponent"), rows


def _header(cfg: RunConfig, extra: dict[str, object]) -> list[str]:
    lines = [f"# tool = greenlab {__version__}"]
    for key, value in extra.items():
        lines.append(f"# {key} = {value}")
    lines.append(f"# model = {cfg.model}")
    lines.append(f"# seed = {cfg.seed}")
    lines.append(f"# tol-quad = {cfg.tol_quad:g}")
    lines.append(f"# tol-identity = {cfg.tol_identity:g}")
    lines.append(f"# tol-fd = {cfg.tol_fd:g}")
    return lines


def cmd_eval(cfg: RunConfig) -> int:
    columns, rows = _eval_rows(cfg)
    lines = _header(cfg, {"command": "eval", "kernel": cfg.kernel})
    lines.append(",".join(columns))
    lines.extend(",".join(row) for row in rows)
    text = "\n".join(lines) + "\n"
    if cfg.out:
        try:
            Path(cfg.out).write_text(text, encoding="ascii")
        except OSError as exc:
            raise ConfigError(f"cannot write {cfg.out}: {exc}") from exc
    else:
        sys.stdout.write(text)
    return 0


def cmd_verify(cfg: RunConfig, suite: str) -> int:
    if suite not in SUITE_NAMES:
        raise ConfigError(f"unknown suite '{suite}'; choose from "
                          f"{', '.join(SUITE_NAMES)}")
    results = suites.run_suite(suite, seed=cfg.seed)
    lines = _header(cfg, {"command": "verify", "suite": suite})
    lines.append("check,margin,verdict")
    for r in results:
        lines.append(f"{r.id},{r.margin:.6g},{'pass' if r.passed else 'FAIL'}")
    passed = sum(r.passed for r in results)
    lines.append(f"# result = {passed}/{len(results)} passed")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0 if passed == len(results) else 1


def cmd_report(cfg: RunConfig, target: str) -> int:
    if target not in reports.BUILDERS:
        raise ConfigError(f"unknown report '{target}'; choose from "
                          f"{', '.join(sorted(reports.BUILDERS))}")
    out_dir = cfg.out or "reports"
    meta = {"model": cfg.model, "tol-quad": f"{cfg.tol_quad:g}"}
    try:
        paths = reports.write_report(target, out_dir, seed=cfg.seed,
                                     meta=meta)
    except OSError as exc:
        raise ConfigError(f"cannot write into {out_dir}: {exc}") from exc
    for p in paths:
        print(p)
    return 0


def _add_shared(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", default=None,
                        help="model space to work in: interval, bilaplace, "
                             "or newtonian<N> for any N >= 5")
    parser.add_argument("--tol-quad", dest="tol_quad", type=float,
                        default=None, help="quadrature tolerance")
    parser.add_argument("--tol-identity", dest="tol_identity", type=float,
                        default=None, help="identity-check tolerance")
    parser.add_argument("--tol-fd", dest="tol_fd", type=float, default=None,
                        help="finite-difference residual tolerance")
    parser.add_argument("--grid", type=int, default=None,
                        help="grid resolution for point-free queries")
    parser.add_argument("--out", default=None,
                        help="output file (eval) or directory (report)")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for randomized probe data")
    parser.add_argument("--config", default=None,
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
    p_eval.add_argument("--kernel", choices=KERNELS, default=None)
    p_eval.add_argument("--x", default=None,
                        help="comma-separated first coordinates")
    p_eval.add_argument("--y", default=None,
                        help="comma-separated second coordinates")
    p_eval.add_argument("--dist", default=None,
                        help="comma-separated separations (radial models)")
    _add_shared(p_eval)

    p_verify = sub.add_parser(
        "verify", help="run a verification suite",
        description="CSV columns: check, margin, verdict.  Exit code 0 "
                    "when all checks pass, 1 otherwise.")
    p_verify.add_argument("suite", choices=SUITE_NAMES)
    _add_shared(p_verify)

    p_report = sub.add_parser(
        "report", help="write a prebuilt data table",
        description="Writes <target>.csv and <target>.dat into the output "
                    "directory (default ./reports).  Targets: "
                    + ", ".join(sorted(reports.BUILDERS)) + ".")
    p_report.add_argument("target")
    _add_shared(p_report)
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
