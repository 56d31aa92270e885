"""A closed-form battery as a gate: the integrals ``integrate`` gets wrong.

Each form is an elementary integrand on (0, 1), (0, 1/2), (0, inf) or
(1, inf), with its value in ``oracles``: 28 convergent forms (powers,
powers with a log factor, two-power differences, tails, three with nothing
declared, and three that vanish to the last bit near their declared point,
whose probe ends on zero shells) and three divergent ones.  Each form is
integrated times every scale s in SCALES, at tol t*s for every t in TOLS,
with its singular point declared where it has one.

A result is wrong when it is
- finite and converged, with a bound below its true error;
- infinite, where the integral is finite;
- finite and converged, where the integral is infinite.
An unconverged finite result (``converged`` False) or a refusal (a
``GreenLabError``) is honest, and is counted, not judged.

The script prints every wrong case with its value, bound and error, then
how many results fell in each class.  It is a gate: it exits 1 when more
than CEILING results are wrong, and 0 otherwise.  A change that closes
cases lowers CEILING; one that raises it says why.  Run it from the
repository root:

    PYTHONPATH=src python tests/bound_miss_report.py
"""

from __future__ import annotations

import math
import sys

import numpy as np

import oracles
from greenlab.errors import GreenLabError
from greenlab.quadrature import integrate

# the most wrong results the battery may hold: 27 false INFs (ROADMAP
# item 7) and 10 bound misses, all of forms whose panel estimate the
# G7/K15 pair gets wrong (ROADMAP item 4): sqrt(x) 4 times and |x-0.3| 5
# times, with nothing declared, and (x-0.1)+ at scale 1e-8, whose probe
# never refines the shell holding the kink
CEILING = 37
SCALES = (1e-8, 1.0, 1e8)
TOLS = (1e-6, 1e-9, 1e-12)
POWERS = (-0.3, -0.5, -0.7, -0.9, -0.97)
UNIT, HALF = (0.0, 1.0), (0.0, 0.5)
POSITIVE, TAIL = (0.0, math.inf), (1.0, math.inf)
AT0 = (0.0,)


def _vec(f):
    def fv(x):
        with np.errstate(all="ignore"):
            return f(np.asarray(x, dtype=float))

    fv.vectorized = True
    return fv


def forms():
    """(name, integrand, interval, singular points, exact integral)."""
    for p in POWERS:
        yield (f"x^{p:g}", lambda x, p=p: x ** p, UNIT, AT0,
               oracles.unit_power(p))
    for p in POWERS:
        yield (f"x^{p:g} log(1/x)", lambda x, p=p: x ** p * -np.log(x),
               UNIT, AT0, oracles.unit_log_power(p))
    for p, q in ((-0.5, 1.5), (-0.75, 1.25), (-0.9, 1.1)):
        yield (f"x^{p:g} - x^{q:g}", lambda x, p=p, q=q: x ** p - x ** q,
               UNIT, AT0, oracles.unit_power(p) - oracles.unit_power(q))
    yield ("x^-0.5 + x^-0.3", lambda x: x ** -0.5 + x ** -0.3, UNIT, AT0,
           oracles.unit_power(-0.5) + oracles.unit_power(-0.3))
    yield ("log(1/x)", lambda x: -np.log(x), UNIT, AT0,
           oracles.unit_log_power(0.0))
    yield ("1/(1+x^2)", lambda x: 1.0 / (1.0 + x * x), POSITIVE, (),
           oracles.TAIL_LORENTZ)
    yield "e^-x", lambda x: np.exp(-x), POSITIVE, (), oracles.TAIL_EXP
    for p in (1.1, 1.5, 2.0, 3.0):
        yield (f"x^-{p:g} on (1, inf)", lambda x, p=p: x ** -p, TAIL, (),
               oracles.tail_power(p))
    yield ("log(x)/x^2 on (1, inf)", lambda x: np.log(x) / (x * x), TAIL, (),
           oracles.TAIL_LOG_OVER_SQUARE)
    # nothing declared: smooth in the interior, rough at an end or a kink
    yield "sqrt(x)", np.sqrt, UNIT, (), oracles.unit_power(0.5)
    yield "|x-0.3|", lambda x: np.abs(x - 0.3), UNIT, (), oracles.UNIT_KINK
    yield ("(x+1e-3)^-0.5", lambda x: (x + 1e-3) ** -0.5, UNIT, (),
           oracles.unit_shifted_root(1e-3))
    # vanishing near the declared point: its probe ends on zero shells
    yield ("(x-0.1)+", lambda x: np.maximum(x - 0.1, 0.0), UNIT, AT0,
           oracles.UNIT_RAMP)
    yield "x^400", lambda x: x ** 400.0, UNIT, AT0, oracles.unit_power(400.0)
    yield ("e^(-1/x)", lambda x: np.exp(-1.0 / x), UNIT, AT0,
           oracles.UNIT_EXP_RECIPROCAL)
    # divergent
    for p in (-1.0, -1.2):
        yield (f"x^{p:g}", lambda x, p=p: x ** p, UNIT, AT0,
               oracles.unit_power(p))
    yield ("1/(x log(1/x))", lambda x: 1.0 / (x * -np.log(x)), HALF, AT0,
           oracles.HALF_LOG_RECIPROCAL)


def battery():
    """(label, exact, value, bound, outcome) of every form, scale and tol.

    The outcome is "held", "refused", "unconverged", or what went wrong:
    "bound miss", "false INF" or "false finite".
    """
    for name, g, interval, singular, exact in forms():
        for s in SCALES:
            f = _vec(lambda x, g=g, s=s: s * g(x))
            want = s * exact
            for t in TOLS:
                label = f"{name} s={s:g} tol={t:g}"
                try:
                    res = integrate(f, interval, singular_points=singular,
                                    tol=t * s)
                except GreenLabError:
                    yield label, want, math.nan, math.nan, "refused"
                    continue
                got = res.value
                value = got.value if got.is_finite else math.inf
                bound = got.error_bound if got.is_finite else math.inf
                if not got.is_finite:
                    outcome = "held" if math.isinf(want) else "false INF"
                elif not res.converged:
                    outcome = "unconverged"
                elif math.isinf(want):
                    outcome = "false finite"
                else:
                    outcome = ("held" if bound >= abs(value - want)
                               else "bound miss")
                yield label, want, value, bound, outcome


def main() -> int:
    counts: dict[str, int] = {}
    wrong = 0
    for label, want, value, bound, outcome in battery():
        counts[outcome] = counts.get(outcome, 0) + 1
        if outcome in ("held", "refused", "unconverged"):
            continue
        wrong += 1
        error = abs(value - want) if math.isfinite(value) else math.inf
        print(f"{outcome:<12} {label:<36} value {value:.12g} "
              f"bound {bound:.2e} error {error:.2e}")
    print(", ".join(f"{n} {outcome}" for outcome, n in sorted(counts.items())))
    print(f"{wrong} of {sum(counts.values())} results wrong; the ceiling is "
          f"{CEILING}")
    return 1 if wrong > CEILING else 0


if __name__ == "__main__":
    sys.exit(main())
