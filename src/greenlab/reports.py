"""Tabular report builders behind the ``report`` subcommand.

Each target reproduces one of the headline phenomena as plain data: a CSV
table plus a gnuplot-friendly ``.dat`` twin, both opening with a ``#
key = value`` header block so a diff against a golden copy pins down the
exact configuration that produced it.  All builders are deterministic
for a fixed seed; infinite values are spelled ``INF`` and divergence
exponents carry six significant digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, adjoint
from .coupling import compose_green
from .kernels import bump
from .models import bilaplace as bl
from .models import interval as iv
from .models import newtonian as nw


def fmt_num(x: float) -> str:
    """A value or a bound, as every CSV and .dat cell prints it."""
    return f"{float(x):.12g}"


def fmt_exp(x: float) -> str:
    """A divergence exponent, as every CSV and .dat cell prints it."""
    return f"{float(x):.6g}"


@dataclass(frozen=True)
class ReportTable:
    name: str
    columns: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]
    notes: tuple[str, ...] = field(default=())


def build_radial_divergence(seed: int = 0) -> ReportTable:
    """Partial couplings of the constant against growing truncation radii.

    The full integral is certified divergent; the table shows the R**2
    march of the truncations (a log2 step of two per radius doubling).
    """
    rows = []
    notes = []
    for n in (5, 6):
        cert = nw.constant_coupling_divergence(n)
        notes.append(f"dimension {n}: certified divergent, tail exponent "
                     f"{fmt_exp(cert.estimated_exponent)}")
        prev = None
        for k in range(13):
            r = 0.5 * 2.0 ** k
            partial = float(nw.truncated_constant_coupling(n, r))
            step = math.log2(partial / prev) if prev else float("nan")
            rows.append((str(n), fmt_num(r), fmt_num(partial), fmt_num(step)))
            prev = partial
    return ReportTable(
        "radial-divergence",
        ("dim", "radius", "partial_coupling", "log2_step"),
        tuple(rows), tuple(notes))


def build_obstruction(seed: int = 0) -> ReportTable:
    """Samples of the pure-pair obstruction curve ln(x)/x + x/2 near zero."""
    u = iv.obstruction_u(0.0, 0.0)
    rows = []
    for x in np.geomspace(1e-4, 0.999, 60):
        rows.append((fmt_num(x), fmt_num(float(u(float(x))))))
    return ReportTable(
        "obstruction", ("x", "u"),
        tuple(rows),
        ("u = ln(x)/x + x/2 is the would-be pure partner of q(x) = 1/x; "
         "its plunge below zero near the origin is the obstruction",))


def build_boundary_blowup(seed: int = 0) -> ReportTable:
    """H(x, 0) along the interval model: identically infinite, exponent -1."""
    model = iv.interval_model()
    rows = []
    xs = np.linspace(0.1, 0.9, 9)
    for x, val in zip(xs, compose_green(model, xs, 0.0)):
        if val.is_finite:
            rows.append((fmt_num(x), "0", fmt_num(float(val)), ""))
        else:
            rows.append((fmt_num(x), "0", "INF",
                         fmt_exp(val.certificate.estimated_exponent)))
    return ReportTable(
        "boundary-blowup", ("x", "y", "h", "exponent"),
        tuple(rows),
        ("the composed kernel against the boundary point is infinite for "
         "every interior x, always with a 1/z-type certificate",))


def build_adjoint_gate(seed: int = 0) -> ReportTable:
    """Shell trace of the adjoint integrand for boundary-supported data.

    V*phi at the origin reads the integrand G2(y, 0) phi(y) y ~ phi(0)/y,
    so sampling at dyadic offsets doubles the value per level: the log
    column climbs by ln 2 per depth and the partial sums of the samples
    pass 1e6 around depth twenty.
    """
    model = iv.interval_model()
    phi = bump(0.0, 0.3)
    rows = []
    total = 0.0
    crossing = None
    for k in range(25):
        y = 0.25 * 2.0 ** (-k)
        depth = k + 2  # halvings from the unit scale: y = 2**-depth
        g = float(model.mu.weigh(model.G2.raw(y, 0.0) * phi(y), y))
        total += g
        if crossing is None and total > 1e6:
            crossing = depth
        rows.append((str(depth), fmt_num(y), fmt_num(g), fmt_num(total),
                     fmt_num(math.log(g))))
    notes = ("log integrand climbs by ln(2) = 0.693147 per depth",)
    if crossing is not None:
        notes += (f"partial sums pass 1e6 at depth {crossing}",)
    return ReportTable(
        "adjoint-gate",
        ("depth", "offset", "integrand", "partial_sum", "log_integrand"),
        tuple(rows), notes)


def build_symmetry(seed: int = 0) -> ReportTable:
    """The composed clamped-plate kernel on a 20 x 20 grid, both orders."""
    grid, table = bl.h_symmetry_table()
    rows = []
    worst = 0.0
    for i, x in enumerate(grid):
        for j, y in enumerate(grid):
            hxy, hyx = float(table[i, j]), float(table[j, i])
            gap = abs(hxy - hyx)
            worst = max(worst, gap)
            rows.append(tuple(map(fmt_num, (x, y, hxy, hyx, gap))))
    return ReportTable(
        "symmetry", ("x", "y", "h_xy", "h_yx", "asymmetry"),
        tuple(rows), (f"max asymmetry over the grid: {fmt_num(worst)}",))


def build_continuity(seed: int = 0) -> ReportTable:
    """Moduli traces of H(x, .) at interior targets and one boundary target."""
    model = iv.interval_model()
    rows = []
    notes = []
    for x, y in ((0.3, 0.6), (0.75, 0.2), (0.5, 0.0)):
        probe = adjoint.continuity_probe(model, x, y)
        notes.append(f"target ({fmt_num(x)}, {fmt_num(y)}): {probe.verdict}")
        for level, off in enumerate(probe.probes):
            val = probe.values[level]
            modulus = (probe.moduli[level] if level < len(probe.moduli)
                       else None)
            rows.append((fmt_num(x), fmt_num(y), str(level), fmt_num(off),
                         fmt_num(val) if math.isfinite(val) else "INF",
                         "INF" if modulus is None else fmt_num(modulus)))
    return ReportTable(
        "continuity",
        ("x", "y", "level", "probe", "value", "modulus"),
        tuple(rows), tuple(notes))


BUILDERS = {
    "radial-divergence": build_radial_divergence,
    "obstruction": build_obstruction,
    "boundary-blowup": build_boundary_blowup,
    "adjoint-gate": build_adjoint_gate,
    "symmetry": build_symmetry,
    "continuity": build_continuity,
}


def header(settings: dict[str, object], notes) -> list[str]:
    """The lines that open every output: the tool and its version, one
    ``# key = value`` line per setting, in order, then one per note."""
    return ([f"# tool = greenlab {__version__}"]
            + [f"# {key} = {value}" for key, value in settings.items()]
            + [f"# note: {note}" for note in notes])


def render_csv(table: ReportTable, settings: dict[str, object]) -> str:
    lines = header(settings, table.notes)
    lines.append(",".join(table.columns))
    lines.extend(",".join(row) for row in table.rows)
    return "\n".join(lines) + "\n"


def render_dat(table: ReportTable, settings: dict[str, object]) -> str:
    widths = [max(len(c), *(len(r[i]) for r in table.rows)) if table.rows
              else len(c) for i, c in enumerate(table.columns)]
    lines = header(settings, table.notes)
    lines.append(("# " + "  ".join(c.ljust(w)
                                   for c, w in zip(table.columns, widths))
                  ).rstrip())
    for row in table.rows:
        lines.append("  " + "  ".join(cell.ljust(w)
                                      for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def write_report(name: str, out_dir, seed: int = 0) -> list[Path]:
    """Build one report target and write its CSV and .dat files."""
    table = BUILDERS[name](seed=seed)
    settings = {"report": table.name, "seed": seed}
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{name}.csv"
    dat_path = out / f"{name}.dat"
    csv_path.write_text(render_csv(table, settings), encoding="ascii")
    dat_path.write_text(render_dat(table, settings), encoding="ascii")
    return [csv_path, dat_path]
