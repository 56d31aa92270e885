"""The dyadic shell probe, bit for bit, on a battery of integrands.

``golden/probe_reports.txt`` holds one line per probe: the integrand, the
geometry (left or right endpoint, or the radial tail), the tolerance, and
every field of the report in ``float.hex``, its trace included.  A change
that means to move probe results regenerates it with

    PYTHONPATH=src python tests/test_probe_battery.py > tests/golden/probe_reports.txt

and says so.  The battery reaches each way a walk can end, and the test
counts them, so a change to when the walker fits or evaluates its shells is
checked at every exit.
"""

import collections
from pathlib import Path

import numpy as np

from greenlab.errors import PreconditionError
from greenlab.quadrature import (PROBE_DEPTH, _gk15, _shell_bounds,
                                 probe_divergence, probe_tail)
from greenlab.values import _FIT_WINDOW, blown_up

GOLDEN = Path(__file__).parent / "golden" / "probe_reports.txt"
TOLS = (1e-3, 1e-6, 1e-10, 1e-14, 0.0)
# (geometry, singular point, side, tail start)
GEOMETRIES = (("right", 0.0, "right", None), ("left", 1.0, "left", None),
              ("tail", None, None, 1.0))

# Each integrand is a function of the distance d to the singular point, or
# of the radius on the tail.
INTEGRANDS = {
    "d^-0.5": lambda d: d ** -0.5,
    "d^-0.9": lambda d: d ** -0.9,
    "d^-0.96": lambda d: d ** -0.96,
    "d^-1": lambda d: 1.0 / d,
    "d^-1.5": lambda d: d ** -1.5,
    "d^-2": lambda d: d ** -2.0,
    "d^-4": lambda d: d ** -4.0,
    "d^2": lambda d: d * d,
    "min(d,1)^400": lambda d: np.minimum(d, 1.0) ** 400.0,
    "-log(d)": lambda d: -np.log(d),
    "1/(d log^2 d)": lambda d: 1.0 / (d * np.log(d / 4.0) ** 2),
    "d^-0.5(1+0.3sin(log d))": lambda d: d ** -0.5 * (1.0 + 0.3 * np.sin(np.log(d))),
    "exp(-1/d)": lambda d: np.exp(-1.0 / d),
    "exp(-d)": lambda d: np.exp(-d),
    "1/(1+d^2)": lambda d: 1.0 / (1.0 + d * d),
    "exp(1/d)": lambda d: np.exp(1.0 / d),
    "1e13 d^-0.5": lambda d: 1e13 * d ** -0.5,
    "(d-0.1)+": lambda d: np.maximum(d - 0.1, 0.0),
    "zero": lambda d: 0.0 * d,
    "nan off [2^-10, 2^10]": lambda d: np.where((d < 2.0 ** -10) | (d > 2.0 ** 10),
                                                np.nan, d ** -0.5),
    "inf off [2^-14, 2^14]": lambda d: np.where((d < 2.0 ** -14) | (d > 2.0 ** 14),
                                                np.inf, d ** -0.5),
    "sin(1/d)": lambda d: np.sin(1.0 / d),
}


def _integrand(g, point):
    def f(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(all="ignore"):
            return g(x if point is None else np.abs(x - point))

    f.vectorized = True
    return f


def _probe(geometry, name, tol):
    _, point, side, start = geometry
    f = _integrand(INTEGRANDS[name], point)
    if start is None:
        return f, probe_divergence(f, point, side, tol=tol)
    return f, probe_tail(f, start=start, tol=tol)


def _line(geometry, name, tol, rep):
    head = f"{geometry[0]} | {name} | {tol!r} |"
    if isinstance(rep, Exception):
        return f"{head} raises {type(rep).__name__}: {rep}"
    trace = " ".join(f"{d.hex()}:{c.hex()}" for d, c in rep.trace)
    return (f"{head} {rep.location} {rep.side} divergent={rep.divergent} "
            f"exponent={rep.estimated_exponent.hex()} value={rep.value.hex()} "
            f"error={rep.error.hex()} shells={rep.shells} "
            f"resolved={rep.resolved} trace={trace}")


def battery():
    """(geometry, integrand name, tol, integrand, report or exception)."""
    for geometry in GEOMETRIES:
        for name in INTEGRANDS:
            for tol in TOLS:
                try:
                    f, rep = _probe(geometry, name, tol)
                except PreconditionError as exc:
                    f, rep = None, exc
                yield geometry, name, tol, f, rep


def _exit(geometry, f, rep):
    """How the walk behind rep ended, read off its shells, evaluated anew."""
    _, point, side, start = geometry
    walk = (point, side, 1.0, "endpoint") if start is None \
        else (0.0, "right", start, "tail")
    outs, holes = _gk15(f, *_shell_bounds(*walk[:3], 0, rep.shells, walk[3]))
    if len(outs) - 1 in holes:
        return "non-finite sample"
    if rep.divergent:
        if blown_up(rep.trace[-1][1]):
            return "blow-up"
        return "divergent fit"
    if not rep.resolved:
        assert rep.shells == PROBE_DEPTH
        return "depth exhausted"
    if not any(abs(v) > 0.0 for v, _ in outs[-_FIT_WINDOW:]):
        return "vanishing"
    return "resolved"


def test_probe_reports_match_the_golden_file():
    lines = []
    exits = collections.Counter()
    for geometry, name, tol, f, rep in battery():
        lines.append(_line(geometry, name, tol, rep))
        exits["raises" if f is None else _exit(geometry, f, rep)] += 1
    want = GOLDEN.read_text().splitlines()
    assert len(lines) == len(want)
    for got, line in zip(lines, want):
        assert got == line
    # every way a walk can end is reached, on more than one integrand
    for way in ("non-finite sample", "blow-up", "divergent fit", "resolved",
                "vanishing", "depth exhausted", "raises"):
        assert exits[way] >= 2, (way, exits)


if __name__ == "__main__":
    for geometry, name, tol, _, rep in battery():
        print(_line(geometry, name, tol, rep))
