"""Adaptive quadrature with explicit singularity bookkeeping.

The integrators here serve kernels that are smooth except at a few declared
points: a kink on the diagonal, a blow-up at a boundary point, a fat tail at
infinity.  The base rule is the embedded Gauss7/Kronrod15 pair; panels touching
a declared singular point are decomposed into dyadic shells whose partial
integrals are fitted to a power law.  The fit either certifies divergence
(see :class:`~greenlab.values.DivergenceCertificate`) or extrapolates the
remaining mass geometrically, so integrable endpoint singularities do not eat
the panel budget.

The rule runs on many panels per integrand call: the initial panels of every
smooth piece of an integral together, then the children of each piece's worst
panel, round by round, and a probe's dyadic shells up to its verdict depth,
then one shell at a time.  So a vectorized integrand must be elementwise: its
value at a node may not depend on the other nodes in the array.  Each panel
is still reduced on its own, so every value, bound and certificate is the one
a panel-at-a-time walk gives.  The same engine integrates many rows at once --
one integral per point of an operator call on an array of points -- with the
smooth pieces of every row in the same rounds: :func:`integrate` takes one
interval, or rows of them.  It plans the rows in one pass.  A plain row, finite
and with no singular point in range, is cut at its breakpoints in that pass
and its results summed in one loop; only a row with a probe or a tail gets a
plan of its own.

Conventions
-----------
* tolerances are absolute, per integral;
* near an endpoint, integrand ~ C*d^p is divergent iff p <= -1 + EXP_MARGIN;
* at a radial tail, integrand ~ C*r^p is divergent iff p >= -1 - EXP_MARGIN;
* partial integrals crossing BLOWUP_THRESHOLD certify divergence regardless.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Sequence

import numpy as np

from .errors import (GreenLabError, ModelDomainError, PreconditionError,
                     StencilError, UndeclaredSingularityError)
from .values import (BLOWUP_THRESHOLD, EXP_MARGIN, DivergenceCertificate,
                     ExtendedValue)

# ---------------------------------------------------------------------------
# Gauss7 / Kronrod15 embedded pair on [-1, 1].

_GK_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_K_WEIGHTS = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
_G_WEIGHTS = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])
# K15 and G7 as two rows of weights over the 15 nodes, G zero off its nodes
_KG_WEIGHTS = np.zeros((2, len(_GK_NODES)))
_KG_WEIGHTS[0] = _K_WEIGHTS
_KG_WEIGHTS[1, 1::2] = _G_WEIGHTS
# the floor of a panel's error estimate per unit of |K15|; 50 eps is exact
_FLOOR = 50.0 * float(np.finfo(float).eps)
# 4% above 200^-3: from there on (200 diff)^1.5 > diff, rounding included
_SHRINK_LIMIT = 1.3e-7

PROBE_DEPTH = 48
_FIT_WINDOW = 8
_MIN_SHELLS_TO_RESOLVE = 12
_MIN_SHELLS_FOR_VERDICT = 16


class _NonFiniteSample(Exception):
    def __init__(self, x: float):
        self.x = x
        super().__init__(f"non-finite integrand value at {x!r}")


def as_vectorized(f: Callable) -> Callable:
    """Wrap a scalar callable so the panel rule can pass node arrays.

    A callable marked ``vectorized`` is returned as it is.  It must be
    elementwise: its value at a node may not depend on the other nodes in
    the array, because one array holds the nodes of many panels.
    """
    if getattr(f, "vectorized", False):
        return f

    def fv(xs: np.ndarray) -> np.ndarray:
        return np.fromiter((float(f(x)) for x in xs), dtype=float, count=len(xs))

    fv.vectorized = True
    return fv


def _gk15(fv: Callable, a, b) -> list:
    """G7/K15 on the panels [a[i], b[i]], all their nodes in one fv call.

    Returns one outcome per panel: (integral, error estimate), or the
    :class:`_NonFiniteSample` at the panel's first non-finite node.  Both
    rules of every panel come from one elementwise product with
    ``_KG_WEIGHTS`` and one sum along each panel's row of 15 products.  A
    contiguous row sum takes the same steps whatever the number of rows, so
    a panel's bits do not depend on the batch it is evaluated in; a matrix
    product, or a sum down the columns, rounds differently.

    The error estimate is QUADPACK's: diff = |K15 - G7|, shrunk to
    (200 diff)^1.5 where that is smaller, and floored at 50 eps |K15|.  It
    is taken panel by panel in plain Python floats.  numpy's ``power``
    rounds differently from the C library's ``pow`` behind Python's ``**``
    in the last bits of some results, so the shrink stays ``**``.  And an
    array form of the min and max costs more than this loop on batches of
    one to eight panels, the batches of an operator call at one point.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    xs = mid[:, None] + half[:, None] * _GK_NODES
    fx = np.asarray(fv(xs.ravel()), dtype=float).reshape(xs.shape)
    sums = (fx[:, None, :] * _KG_WEIGHTS).sum(axis=2) * half[:, None]
    out = []
    for i, (k15, g7) in enumerate(sums.tolist()):
        # the K weights are positive, so a non-finite sample makes k15
        # non-finite
        if not math.isfinite(k15):
            bad = ~np.isfinite(fx[i])
            if bad.any():
                out.append(_NonFiniteSample(float(xs[i, np.argmax(bad)])))
                continue
        diff = abs(k15 - g7)
        err = 0.0
        if diff > 0.0:
            # the shrink cannot win above _SHRINK_LIMIT, where ** may overflow
            err = (200.0 * diff) ** 1.5 if diff < _SHRINK_LIMIT else diff
            if err > diff:
                err = diff
        floor = _FLOOR * abs(k15)
        if floor > err:
            err = floor
        out.append((k15, err))
    return out


def _at_rows(fv: Callable, rows: list[int], panels: int = 1) -> Callable:
    """The node integrand of G7/K15 panels of the given rows, ``panels`` each.

    ``fv(r, z)`` is a row integrand: the integrand of row r at the nodes z,
    where r is one row id, or an int array of ids with z's shape.  Panels
    of a single row get its id as a scalar, which broadcasts; building an
    id per node would cost a scalar call a few microseconds per round.
    """
    if rows.count(rows[0]) == len(rows):
        return lambda z: fv(rows[0], z)
    r = np.array(rows, dtype=np.intp).repeat(panels * len(_GK_NODES))
    return lambda z: fv(r, z)


def _undeclared(sample: _NonFiniteSample) -> UndeclaredSingularityError:
    return UndeclaredSingularityError(
        f"integrand is non-finite at {sample.x!r}, away from every declared "
        "singular point")


def _refine(fv: Callable, ids: list[int], los: list[float], his: list[float],
            tols: list[float], cap: int) -> list:
    """Adaptive G7/K15 on several pieces at once: (value, error, panels) each.

    Piece i is one initial panel [los[i], his[i]], integrated against the
    row integrand ``fv(r, z)`` at its row ids[i].  While its error sum
    exceeds tols[i] and it holds fewer than ``cap`` panels, its worst panel
    is bisected.  Each piece keeps its own sums, and its own heap once it
    refines, so its result is the one it would get alone.
    One _gk15 call evaluates the initial panels of every piece, then each
    round one call evaluates the children of the worst panel of every piece
    still refining.

    A non-finite sample ends its piece, whose outcome is then that
    :class:`_NonFiniteSample`.  The pieces before the first such piece are
    refined to the end; the pieces after it are not refined further, and
    their outcomes mean nothing.
    """
    if not ids:
        return []
    outs = _gk15(_at_rows(fv, ids), los, his)
    first_bad = len(ids)
    heaps: dict[int, list] = {}
    for i, (lo, hi, tol, out) in enumerate(zip(los, his, tols, outs)):
        if isinstance(out, _NonFiniteSample):
            first_bad = min(first_bad, i)
            continue
        outs[i] = (*out, 1)
        # a piece that meets its tolerance at once needs no heap
        if out[1] > tol and 1 < cap:
            heaps[i] = [(-out[1], lo, hi, out[0])]

    active = list(heaps)
    while True:
        # a piece that stops refining never starts again
        active = [i for i in active if i < first_bad
                  and outs[i][1] > tols[i] and outs[i][2] < cap]
        if not active:
            break
        worst = [heapq.heappop(heaps[i]) for i in active]
        splits = [(lo, 0.5 * (lo + hi), hi) for _, lo, hi, _ in worst]
        kids = iter(_gk15(_at_rows(fv, [ids[i] for i in active], 2),
                          [e for lo, mid, _ in splits for e in (lo, mid)],
                          [e for _, mid, hi in splits for e in (mid, hi)]))
        for i, (neg_err, _, _, val), (lo, mid, hi) in zip(active, worst, splits):
            left, right = next(kids), next(kids)
            bad = [o for o in (left, right) if isinstance(o, _NonFiniteSample)]
            if bad:
                outs[i] = bad[0]
                first_bad = min(first_bad, i)
                continue
            (v1, e1), (v2, e2) = left, right
            total, err_total, count = outs[i]
            outs[i] = (total + ((v1 + v2) - val),
                       err_total + ((e1 + e2) - (-neg_err)), count + 1)
            heapq.heappush(heaps[i], (-e1, lo, mid, v1))
            heapq.heappush(heaps[i], (-e2, mid, hi, v2))
    return outs


# No caller in src; kept while perfbench/tracing.py wraps it by name.
def adaptive_panels(f: Callable, a: float, b: float, tol: float,
                    breakpoints: Sequence[float] = (),
                    max_panels: int = 2000) -> tuple[float, float, int]:
    """:func:`integrate` on [a, b], under its rules: (value, bound, panels)."""
    res = integrate(f, (a, b), tol=tol, breakpoints=breakpoints,
                    max_subdivisions=max_panels)
    return res.value.value, res.value.error_bound, res.subdivisions


# ---------------------------------------------------------------------------
# Dyadic shell probes.

@dataclass(frozen=True)
class ProbeReport:
    """Outcome of a dyadic approach to one suspected singularity."""
    location: float | str
    side: str
    divergent: bool
    estimated_exponent: float
    trace: tuple[tuple[float, float], ...]
    certificate: DivergenceCertificate | None
    # extrapolated value/error of the approached integral when convergent
    value: float = 0.0
    error: float = 0.0
    shells: int = 0
    resolved: bool = True


def _fit_slope(ks: Sequence[int], logs: Sequence[float]) -> float:
    """Least-squares slope of logs against ks; 0.0 when the ks are all equal.

    The closed form in plain Python: the window holds at most _FIT_WINDOW
    points, where building arrays would cost more than the sums.
    """
    k_mean = sum(ks) / len(ks)
    y_mean = sum(logs) / len(logs)
    dk = [k - k_mean for k in ks]
    denom = sum(t * t for t in dk)
    if denom == 0.0:
        return 0.0
    return sum(t * (y - y_mean) for t, y in zip(dk, logs)) / denom


def _shell_bounds(point: float, side: str, scale: float, k: int,
                  kind: str) -> tuple[float, float]:
    if kind == "tail":
        return point + scale * 2.0 ** k, point + scale * 2.0 ** (k + 1)
    if side == "right":
        return point + scale * 2.0 ** (-k - 1), point + scale * 2.0 ** (-k)
    return point - scale * 2.0 ** (-k), point - scale * 2.0 ** (-k - 1)


def _window_fit(mags: list[float], logs: list[float], errs: list[float],
                k: int, sign: float, tail: bool):
    """The power-law fit of the window of shells ending at k, or None.

    A pure function of |shell|, log2|shell| and the errors up to k, and of
    the sign.  None below _FIT_WINDOW - 2 nonzero shells in the window;
    else (exponent, critical, (remainder, error) of the unseen shells, or
    None unless the fit is not critical and the recent ratios contract).
    """
    ks = [i for i in range(max(0, k + 1 - _FIT_WINDOW), k + 1) if mags[i] > 0.0]
    if len(ks) < _FIT_WINDOW - 2:
        return None
    slope = _fit_slope(ks, [logs[i] for i in ks])
    exponent = (slope - 1.0) if tail else (-slope - 1.0)
    crit = (exponent >= -1.0 - EXP_MARGIN) if tail \
        else (exponent <= -1.0 + EXP_MARGIN)
    recent = [mags[i + 1] / mags[i] for i in range(max(0, k - 3), k)
              if mags[i] > 0.0 and mags[i + 1] > 0.0]
    if crit or not (recent and max(recent) < 1.0):
        return exponent, crit, None
    # Convergent so far: extrapolate the unseen remainder as a geometric
    # series.  The shell-to-shell ratio is 2**slope in both geometries
    # (slope is d log2|shell| / d k).
    ratio = 2.0 ** slope
    r_hi, r_lo = max(recent), min(recent)
    last = mags[k]
    rem = sign * last * ratio / (1.0 - ratio) if ratio < 1.0 else 0.0
    hi_est = last * r_hi / (1.0 - r_hi)
    lo_est = last * r_lo / (1.0 - r_lo)
    # The ratio keeps drifting below the observed bracket for perturbed
    # power laws; widen the bracket generously.
    return exponent, False, (rem, 6.0 * abs(hi_est - lo_est) + sum(errs[:k + 1]))


def _probe_geometric(fv, point, side, scale, tol, kind="endpoint"):
    """Shared shell walker for endpoint approaches and radial tails.

    kind="endpoint": shells halve toward ``point`` from distance ``scale``.
    kind="tail": blocks double outward from radius ``scale``; ``point`` is
    only used to label the certificate.

    One _gk15 call evaluates the shells up to _MIN_SHELLS_FOR_VERDICT, then
    the walk goes one shell at a time.  The fit of the recent shells is
    taken at each shell from _MIN_SHELLS_TO_RESOLVE on, where it can first
    end the walk; an earlier fit only at an exit that reads it (the latest
    exponent, and at depth exhaustion the latest extrapolation).  A late
    fit has the bits of one on time: it reads the shells up to its own and
    the sign, which is fixed before any fit holds enough nonzero shells.
    """
    tail = kind == "tail"
    # each shell's value, error, |value| and log2|value| (0.0 for a zero)
    shells, errs, mags, logs = [], [], [], []
    quiet = 0                       # zero shells in a row
    trace: list[tuple[float, float]] = []
    cumulative = 0.0
    sign = 0.0
    exponent = math.nan             # nan until a fit holds enough shells
    divergent = resolved = False
    extrap = None                   # the latest (remainder, error) of a fit
    bounds: list[tuple[float, float]] = []
    outs: list = []

    for k in range(PROBE_DEPTH):
        if k == len(outs):
            run = [_shell_bounds(point, side, scale, j, kind)
                   for j in range(k, max(k + 1, _MIN_SHELLS_FOR_VERDICT))]
            bounds += run
            outs += _gk15(fv, [lo for lo, _ in run], [hi for _, hi in run])
        dist = bounds[k][1] if tail else abs(2.0 ** (-k - 1) * scale)
        if isinstance(outs[k], _NonFiniteSample):
            trace.append((dist, math.inf))
            divergent = True
            break
        val, err = outs[k]
        shells.append(val)
        errs.append(err)
        cumulative += val
        trace.append((dist, cumulative))

        if val != 0.0:
            s = math.copysign(1.0, val)
            if sign == 0.0:
                sign = s
            elif s != sign and abs(val) > 1e3 * (err + 1e-300):
                raise PreconditionError(
                    "integrand changes sign along the singular approach at "
                    f"{point!r}; split it by sign first")

        if abs(cumulative) >= BLOWUP_THRESHOLD:
            divergent = True
            break

        mag = abs(val)
        mags.append(mag)
        logs.append(math.log2(mag) if mag > 0.0 else 0.0)
        quiet = 0 if mag > 0.0 else quiet + 1
        if quiet == _FIT_WINDOW:
            # integrand vanishes near the point: nothing left to resolve
            extrap, resolved = (0.0, sum(errs)), True
            break
        fit = (_window_fit(mags, logs, errs, k, sign, tail)
               if k + 1 >= _MIN_SHELLS_TO_RESOLVE else None)
        if fit is None:
            continue
        exponent, crit, now = fit
        extrap = now or extrap
        divergent = crit and k + 1 >= _MIN_SHELLS_FOR_VERDICT
        resolved = now is not None and now[1] <= tol
        if divergent or resolved:
            break

    # the earlier fits, latest first, while the report lacks an output
    for j in reversed(range(min(len(mags), _MIN_SHELLS_TO_RESOLVE - 1))):
        if not (math.isnan(exponent) or extrap is None and not divergent):
            break
        fit = _window_fit(mags, logs, errs, j, sign, tail)
        if fit is not None:
            exponent = fit[0] if math.isnan(exponent) else exponent
            extrap = extrap or fit[2]

    loc, cert_side = (("tail", "radial-tail") if tail else (point, side))
    trace = tuple(trace)
    # a divergent report carries no value and counts as resolved
    cert, value, error = None, 0.0, 0.0
    if divergent:
        cert = DivergenceCertificate(loc, cert_side, exponent, trace)
        resolved = True
    else:
        rem, rem_err = extrap or (0.0, math.inf)
        if not resolved:
            # Depth exhausted without meeting tol; report best effort.
            last = abs(shells[-1]) if shells else 0.0
            rem = sign * last if math.isinf(rem_err) else rem
            rem_err = min(rem_err, abs(rem) + last + sum(errs)) if shells else 0.0
        value = sum(shells) + rem
        error = sum(errs) + (rem_err if not math.isinf(rem_err) else abs(rem))
    return ProbeReport(loc, cert_side, divergent, exponent, trace, cert,
                       value=value, error=error, shells=len(trace),
                       resolved=resolved)


def probe_divergence(f: Callable, point: float, side: str = "right",
                     tol: float = 1e-10) -> ProbeReport:
    """Classify the behaviour of ``f`` at ``point`` via dyadic shells.

    Walks shells [point + 2^-(k+1), point + 2^-k] (mirrored for side="left"),
    fits the shell integrals to a power law and declares divergence per the
    EXP_MARGIN rule, or blow-up of the partial integrals.
    """
    if side not in ("left", "right"):
        raise PreconditionError(f"side must be 'left' or 'right', not {side!r}")
    return _probe_geometric(as_vectorized(f), point, side, 1.0, tol)


def probe_tail(f: Callable, start: float = 1.0,
               tol: float = 1e-10) -> ProbeReport:
    """Classify the behaviour of ``f`` on [start, inf) via doubling blocks."""
    if start <= 0.0:
        raise PreconditionError("tail probes start at a positive radius")
    return _probe_geometric(as_vectorized(f), 0.0, "right", start, tol,
                            kind="tail")


# ---------------------------------------------------------------------------
# The public integrator.

@dataclass(frozen=True)
class QuadResult:
    value: ExtendedValue
    subdivisions: int
    singular_points_handled: tuple[tuple[float, str], ...]
    converged: bool


class QuadRows(tuple):
    """The QuadResults of a row-form :func:`integrate` call, one per row."""

    @property
    def converged(self) -> bool:
        """Whether every row met its tolerance."""
        return all(res.converged for res in self)


def integrate(f: Callable, interval: tuple[float, float] | None = None,
              singular_points: Sequence[float] = (), tol: float = 1e-8,
              breakpoints: Sequence[float] = (), max_subdivisions: int = 2000,
              *, rows: Sequence[tuple] | None = None) -> QuadResult | QuadRows:
    """Integrate f over [a, b] with declared singular points.

    ``singular_points`` are locations (interior or endpoint) where f may be
    unbounded; every panel side touching one is handled by the dyadic shell
    probe, which either certifies divergence (returned as an infinite
    :class:`ExtendedValue`) or extrapolates the integrable remainder.
    b may be ``math.inf``: the tail beyond the last finite cut (at least 1)
    is walked in doubling blocks with half the tolerance, and is either
    certified divergent (side "radial-tail") or extrapolated the same way.
    ``breakpoints`` are mere smoothness breaks (kinks): they split panels but
    get no special treatment.  f must be nonnegative, or at least of one sign
    near each singular point with a nonnegative total.

    The reported error bound is exact panel arithmetic away from the
    singular points; across a shell probe it is a sharp estimate calibrated
    for perturbed power laws (the local shape of every kernel here), not a
    certified enclosure for arbitrary integrands.

    Many integrals at once: instead of ``interval``, ``singular_points``
    and ``breakpoints``, pass ``rows``, a sequence of (r, interval,
    singular_points, breakpoints).  f is then a row integrand ``f(r, z)``
    at the nodes z, where r is one row id, or an int array of ids with z's
    shape, and f must be elementwise in both.  The call returns a
    :class:`QuadRows` in the order of ``rows``; each row gets the bits a
    one-row call gives it, and the call raises the exception of the first
    row in order that raises.

    The rows are planned in one pass.  A plain row -- finite, with no
    singular point in range, the case of nearly every operator row -- is
    cut at its breakpoints there, its pieces appended to the lists that
    the refinement takes, and its outcomes are summed in one loop.  A row
    with a singular point in range or an infinite end is planned, and its
    probes walked, by :func:`_plan_row`.
    """
    scalar = rows is None
    if scalar and interval is None or not scalar and (
            interval is not None or singular_points or breakpoints):
        raise PreconditionError(
            "integrate takes an interval, or rows that each carry their own "
            "interval, singular points and breakpoints")
    if scalar:
        fv = as_vectorized(f)
        f, rows = (lambda r, z: fv(z)), [(0, interval, singular_points,
                                          breakpoints)]
    # Each row is split, and its tolerance shared, as it would be alone.
    # Its shell probes run on their own, with a one-row integrand; then the
    # plain pieces of every row are refined together by _refine.  A row's
    # plan is the count of its pieces if it is plain, else _plan_row's list.
    # The ends are converted once, here, and handed to _plan_row.
    ids, los, his, tols = [], [], [], []
    plans, stop = [], None
    for r, row_interval, row_sings, row_bks in rows:
        try:
            a, b = float(row_interval[0]), float(row_interval[1])
            if not (b > a):
                raise PreconditionError(
                    f"empty integration interval [{a}, {b}]")
            if b == math.inf or len(row_sings) and any(
                    a <= s <= b for s in row_sings):
                plan, tol_plain = _plan_row(f, r, a, b, row_sings, row_bks,
                                            tol)
                for piece in plan:
                    if isinstance(piece, tuple):
                        ids.append(r)
                        los.append(piece[0])
                        his.append(piece[1])
                        tols.append(tol_plain)
                plans.append(plan)
                continue
            cuts = sorted({a, b, *(p for p in row_bks if a < p < b)})
        except Exception as exc:
            # raised below, once the rows before it have had their turn
            stop = exc
            break
        n = len(cuts) - 1
        ids += [r] * n
        los += cuts[:-1]
        his += cuts[1:]
        tols += [0.5 * tol / n] * n
        plans.append(n)
    sums = iter(_refine(f, ids, los, his, tols, max_subdivisions))
    results = []
    for plan in plans:
        if not isinstance(plan, int):
            results.append(_assemble_row(plan, sums, tol))
            continue
        total, err_total, panels = 0.0, 0.0, 0
        for out in islice(sums, plan):
            if isinstance(out, _NonFiniteSample):
                raise _undeclared(out)
            v, e, count = out
            total += v
            err_total += e
            panels += count
        results.append(_finite_row(total, err_total, panels, (), tol))
    if stop is not None:
        raise stop
    return results[0] if scalar else QuadRows(results)


def _plan_row(fv: Callable, r: int, a: float, b: float, singular_points,
              breakpoints, tol: float) -> tuple[list, float]:
    """Row r's pieces in interval order, and the tolerance of a plain piece.

    For a row on [a, b], b > a, with a singular point in range or b = inf;
    :func:`integrate` cuts every other row itself.  A plain piece is its
    (lo, hi), to be refined.  A piece with a singular end is walked by a
    shell probe from each such end, and is the list of their reports; a
    GreenLabError from a probe stands in the list in place of its report,
    and any other exception propagates at once.  The list ends at the first
    piece that diverges or refuses.

    On [a, inf) the tail starts at the last finite cut, or at 1 if that is
    larger (at twice that when it is a or a singular point, so that the
    finite part is never empty and every singular point is probed on both
    sides).  The tail is the last piece, walked in doubling blocks at half
    the tolerance; the finite part before it is split, and its tolerance
    shared, as a finite interval is, with the other half.
    """
    tail = b == math.inf
    if tail:
        b = max(a, 1.0, *(p for p in (*singular_points, *breakpoints)
                          if a <= p < math.inf))
        if b == a or b in singular_points:
            b *= 2.0
        tol = 0.5 * tol
    sings = {float(s) for s in singular_points if a <= s <= b}
    cuts = sorted({a, b, *sings, *(p for p in breakpoints if a < p < b)})
    spans = list(zip(cuts[:-1], cuts[1:]))
    # Each piece is walked by the probes of its singular ends, if it has any.
    walks = []
    for lo, hi in spans:
        ends = [(p, side) for p, side in ((lo, "right"), (hi, "left"))
                if p in sings]
        walks.append([(p, side, (hi - lo) / len(ends), "endpoint")
                      for p, side in ends])
    # Split the tolerance budget fairly between shell probes and plain pieces.
    tol_shell = 0.5 * tol / max(sum(map(len, walks)), 1)
    tol_plain = 0.5 * tol / (walks.count([]) or 1)
    if tail:
        spans.append((b, math.inf))
        walks.append([(0.0, "right", b, "tail")])

    def row_fv(z):
        return fv(r, z)

    pieces: list = []
    for span, probes in zip(spans, walks):
        if not probes:
            pieces.append(span)
            continue
        reports: list = []
        pieces.append(reports)
        for point, side, scale, kind in probes:
            try:
                rep = _probe_geometric(row_fv, point, side, scale,
                                       tol if kind == "tail" else tol_shell,
                                       kind)
            except GreenLabError as exc:
                rep = exc
            reports.append(rep)
            if isinstance(rep, GreenLabError) or rep.divergent:
                return pieces, tol_plain
    return pieces, tol_plain


def _assemble_row(pieces: list, sums, tol: float) -> QuadResult:
    """The QuadResult of a row planned by :func:`_plan_row`, its plain
    pieces' sums read from sums.

    The first piece in interval order that ends in INF or raises decides: a
    non-finite sample in a plain piece before a probe's refusal wins.
    """
    total, err_total, panels = 0.0, 0.0, 0
    handled: list[tuple[float, str]] = []
    for piece in pieces:
        if isinstance(piece, tuple):
            out = next(sums)
            if isinstance(out, _NonFiniteSample):
                raise _undeclared(out)
            v, e, n = out
            total += v
            err_total += e
            panels += n
            continue
        for rep in piece:
            if isinstance(rep, GreenLabError):
                raise rep
            handled.append((rep.location, rep.side))
            panels += rep.shells
            if rep.divergent:
                return QuadResult(ExtendedValue.infinite(rep.certificate),
                                  panels, tuple(handled), True)
            total += rep.value
            err_total += rep.error
    return _finite_row(total, err_total, panels, tuple(handled), tol)


def _finite_row(total: float, err_total: float, panels: int, handled: tuple,
                tol: float) -> QuadResult:
    """The QuadResult of a row whose pieces sum to total, within err_total.

    A slightly negative total is rounding and reads 0; one below
    -(err_total + 1e-12) is refused.
    """
    if total < 0.0:
        if total < -(err_total + 1e-12):
            raise PreconditionError(
                f"integral evaluated to {total!r} < 0; extended values are "
                "nonnegative (split a signed integrand into nonnegative "
                "parts)")
        total = 0.0
    # built as ExtendedValue.finite builds its value, past the frozen
    # __setattr__ of the generated __init__: this runs once per row
    res = object.__new__(QuadResult)
    fields = res.__dict__
    fields["value"] = ExtendedValue.finite(total, err_total)
    fields["subdivisions"] = panels
    fields["singular_points_handled"] = handled
    fields["converged"] = err_total <= tol
    return res


def sphere_surface_area(n: int) -> float:
    """Surface area of the unit (n-1)-sphere in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def integrate_radial(g: Callable, n: int, upper: float | None = None,
                     tol: float = 1e-8,
                     breakpoints: Sequence[float] = ()) -> QuadResult:
    """Integrate a radial profile over R^n: int g(r) * sigma_{n-1} r^(n-1) dr.

    ``upper=None`` means integrate to infinity: :func:`integrate` on
    [0, inf), whose tail is walked in doubling blocks and either certified
    divergent or extrapolated geometrically.
    Requires n >= 5, the strong-coupling range of the radial models here.
    """
    if n < 5:
        raise ModelDomainError(
            f"radial coupling integrals require dimension >= 5, got {n}")
    sigma = sphere_surface_area(n)
    gv = as_vectorized(g)

    def weighted(rs: np.ndarray) -> np.ndarray:
        rs = np.asarray(rs, dtype=float)
        return sigma * gv(rs) * rs ** (n - 1)

    weighted.vectorized = True
    b = math.inf if upper is None else float(upper)
    return integrate(weighted, (0.0, b), singular_points=(0.0,), tol=tol,
                     breakpoints=breakpoints)


# ---------------------------------------------------------------------------
# Finite-difference stencils.

@dataclass(frozen=True)
class StencilSpec:
    """A second-order 1D differential operator in discretizable form.

    form="product_second":  L u = (m(x) u(x))''          (weight m)
    form="flux":            L u = (w(x) u'(x))' / w(x)   (weight w)
    A ``weight`` of None means the constant 1, i.e. the plain u''.
    """
    name: str
    form: str = "product_second"
    weight: Callable[[float], float] | None = None

    def __post_init__(self):
        if self.form not in ("product_second", "flux"):
            raise ValueError(f"unknown stencil form {self.form!r}")

    def _weights(self, xs: np.ndarray) -> np.ndarray | float:
        """The weight at the points of the array xs; 1.0 for the constant 1."""
        if self.weight is None:
            return 1.0
        return np.asarray(as_vectorized(self.weight)(xs.ravel()),
                          dtype=float).reshape(xs.shape)


def fd_residual(stencil: StencilSpec, u: Callable, x, h: float):
    """Central-difference evaluation of ``stencil`` applied to u at x.

    x is a point or a 1-D array of points; the result is a float or an
    array of x's shape.  u is evaluated once, through :func:`as_vectorized`,
    on the window nodes of every x: x - h, x, x + h, then x - h/2 and
    x + h/2 for the Richardson step, so a vectorized u must be elementwise.
    Each x gets the bits of its own scalar evaluation.  A non-finite sample
    (in the product form, of the weight times u) raises
    :class:`StencilError` naming the first x, in order, whose window holds
    one.

    One Richardson step (h and h/2) upgrades the O(h^2) truncation to O(h^4).
    """
    pts = np.asarray(x, dtype=float)
    xs = pts.reshape(-1)
    # columns: x - h, x, x + h, then x - h/2, x + h/2
    nodes = np.stack([xs - h, xs, xs + h, xs - 0.5 * h, xs + 0.5 * h],
                     axis=1)
    vals = np.asarray(as_vectorized(u)(nodes.ravel()), dtype=float) \
        .reshape(nodes.shape)
    product = stencil.form == "product_second"
    if product:
        with np.errstate(invalid="ignore"):     # 0 * inf is refused below
            vals = stencil._weights(nodes) * vals
    bad = ~np.isfinite(vals).all(axis=1)
    if bad.any():
        raise StencilError("non-finite sample in stencil window at "
                           f"{xs.tolist()[int(np.argmax(bad))]!r}")
    diffs = []
    for s, (left, right) in ((h, (0, 2)), (0.5 * h, (3, 4))):
        um, u0, up = vals[:, left], vals[:, 1], vals[:, right]
        if product:
            diffs.append((um - 2.0 * u0 + up) / (s * s))
        else:
            wm = stencil._weights(xs - 0.5 * s)
            wp = stencil._weights(xs + 0.5 * s)
            diffs.append((wp * (up - u0) - wm * (u0 - um))
                         / (s * s * stencil._weights(xs)))
    d = (4.0 * diffs[1] - diffs[0]) / 3.0
    return float(d[0]) if pts.ndim == 0 else d.reshape(pts.shape)


def basis_fit_residual(basis: Sequence[Callable[[float], float]],
                       v: Callable[[float], float], x: float) -> float:
    """Deviation of v at x from the two-point basis interpolant through x±0.02.

    Vanishes (to roundoff) exactly when v is locally in the span of the basis,
    which is the operator-free way to test harmonicity of a closed form.
    """
    b1, b2 = basis
    lo, hi = x - 0.02, x + 0.02
    m = np.array([[b1(lo), b2(lo)], [b1(hi), b2(hi)]], dtype=float)
    rhs = np.array([float(v(lo)), float(v(hi))], dtype=float)
    coef = np.linalg.solve(m, rhs)
    pred = coef[0] * b1(x) + coef[1] * b2(x)
    return float(v(x)) - float(pred)
