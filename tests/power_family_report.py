"""Report how the quadrature stack fares on the power family of kernels.

The family replaces the interval model's G2 = 1/max(x, y)^2 - 1 and density
y by G2 = max(x, y)^-beta - 1 and y^gamma.  H(x, 0) and V*(1)(0) are then
finite iff gamma - beta > -1, with closed forms in ``oracles``, and the
interval model (2, 1) sits on the boundary.  For each (beta, gamma) and tol
the script prints a heading, then every value with its bound and, on the
finite side, whether the bound covers the true error, then how many of
the finite values held their bound, and their share.  On the divergent
side and the boundary it prints the certificate's exponent.

It is a gate, as ``bound_miss_report.py`` is: it prints how many values
of the finite side missed, a bound below the true error or an INF where
the closed form is finite, and exits 1 when more than CEILING did, and 0
otherwise.  A change that closes misses lowers CEILING; one that raises
it says why.  Run it from the repository root:

    PYTHONPATH=src python tests/power_family_report.py
"""

from __future__ import annotations

import dataclasses
import sys

import numpy as np

import oracles
from greenlab.adjoint import adjoint_apply
from greenlab.coupling import compose_green
from greenlab.kernels import (EndpointSingularity, GreenKernel,
                              ReferenceMeasure, constant)
from greenlab.models import interval_model

# the most of the finite side's 40 values that may miss
CEILING = 0
FINITE = ((2.0, 1.5), (2.0, 1.25), (2.0, 1.2), (2.0, 1.1), (1.5, 0.6))
BOUNDARY = ((2.0, 1.0),)
DIVERGENT = ((2.0, 0.9),)
TOLS = (1e-8, 1e-10)
XS = (0.25, 0.5, 0.75)


def power_model(beta: float, gamma: float):
    """The interval model with G2 = max(x, y)^-beta - 1 and dmu = y^gamma dy."""
    base = interval_model()

    def g2(x, y):
        m = np.maximum(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        return m ** -beta - 1.0

    kernel = GreenKernel(f"power-G2({beta:g})", base.domain, g2,
                         endpoint_singularities=(
                             EndpointSingularity(0.0, "right", -beta),))
    mu = ReferenceMeasure(f"y^{gamma:g} dy",
                          lambda y: np.asarray(y, dtype=float) ** gamma)
    return dataclasses.replace(base, id=f"power({beta:g},{gamma:g})",
                               G2=kernel, mu=mu)


def _values(model, beta, gamma, tol):
    """(name, extended value, closed form or None) for one pair and tol."""
    finite = gamma - beta > -1.0
    out = []
    for x in XS:
        want = oracles.power_family_h(beta, gamma, x) if finite else None
        out.append((f"H({x:g}, 0)", compose_green(model, x, 0.0, tol=tol),
                    want))
    want = oracles.power_family_vstar_one(beta, gamma) if finite else None
    out.append(("V*(1)(0)", adjoint_apply(model, constant(1.0), 0.0, tol=tol),
                want))
    return out


def main() -> int:
    missed = 0
    for beta, gamma in FINITE + BOUNDARY + DIVERGENT:
        model = power_model(beta, gamma)
        for tol in TOLS:
            print(f"beta={beta:g} gamma={gamma:g} tol={tol:g}")
            held = judged = 0
            for name, got, want in _values(model, beta, gamma, tol):
                if not got.is_finite:
                    exponent = got.certificate.estimated_exponent
                    print(f"  {name:<10} INF, exponent {exponent:.3f}"
                          + ("  MISS" if want is not None else ""))
                    judged += want is not None
                    missed += want is not None
                    continue
                line = f"  {name:<10} {got.value:.12f} ± {got.error_bound:.2e}"
                if want is not None:
                    error = abs(got.value - want)
                    ok = got.error_bound >= error
                    judged += 1
                    held += ok
                    missed += not ok
                    line += (f"  exact {want:.12f}  error {error:.2e}  "
                             f"{'held' if ok else 'MISS'}")
                print(line)
            share = f"{held / judged:.2f}" if judged else "-"
            print(f"  {held}/{judged} held, share {share}")
    print(f"{missed} values of the finite side missed; the ceiling is "
          f"{CEILING}")
    return 1 if missed > CEILING else 0


if __name__ == "__main__":
    sys.exit(main())
