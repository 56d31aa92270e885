"""Extended nonnegative values, divergence certificates, and the dyadic
shell walk.

Kernel evaluations and coupling integrals on the model spaces are either
finite nonnegative reals or genuinely +inf (a divergent integral, a kernel
evaluated on its singular locus).  Instead of letting float('inf') float
around unexplained, an infinite result always carries a
:class:`DivergenceCertificate` recording where the mass escapes and at what
rate, as measured by a dyadic probe.

The walk lives here whole, beside the divergence rule it reads: the walker
:func:`_probe_geometric` runs the loop over the shells, their sign and
blow-up tests, the remainder it adds and its :class:`ProbeReport`, and the
pure :func:`_decide` says how it ends.  Its caller evaluates the shells: it
hands the walker the first run and a callable for each later shell.  The
remainder past the last shell is the limit of the partial sums by Wynn's
epsilon, as QUADPACK's qelg takes it, and a walk's error is its shells'
own errors, each once, plus the error of that remainder.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from itertools import accumulate

from .errors import PreconditionError

# Classification constants for the dyadic probes, read only by the rule below.
EXP_MARGIN = 0.05
BLOWUP_THRESHOLD = 1e12


def divergent_exponent(p: float, tail: bool) -> bool:
    """Whether f ~ C*r^p at a tail, or ~ C*d^p near a point, diverges."""
    return p >= -1.0 - EXP_MARGIN if tail else p <= -1.0 + EXP_MARGIN


def blown_up(partial: float) -> bool:
    """Whether a partial integral this large diverges, whatever the fit."""
    return abs(partial) >= BLOWUP_THRESHOLD


# A fit reads the last _FIT_WINDOW shells; a walk may resolve from shell
# _MIN_SHELLS_TO_RESOLVE on, and be certified divergent by a fit from shell
# _MIN_SHELLS_FOR_VERDICT on.
_FIT_WINDOW = 8
_MIN_SHELLS_TO_RESOLVE = 12
_MIN_SHELLS_FOR_VERDICT = 16
# The remainder reads the last _EPS_SUMS partial sums by Wynn's epsilon.
_EPS_SUMS = 16
_EPS = sys.float_info.epsilon


def _fit_slope(ks, logs):
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


def _recent_ratios(mags, k):
    # |shell i+1| / |shell i| of the last three pairs up to k, both nonzero
    return [mags[i + 1] / mags[i] for i in range(max(0, k - 3), k)
            if mags[i] > 0.0 and mags[i + 1] > 0.0]


def _wynn(sums):
    """The limit of the partial sums by Wynn's epsilon, and its error.

    Builds the table column by column from eps_-1 = 0 and eps_0 = sums:
    eps_j+1[i] = eps_j-1[i+1] + 1 / (eps_j[i+1] - eps_j[i]), NaN where the
    difference is within rounding of its ends, and every entry built from
    a NaN is NaN.  Of the even columns with three entries or more, the one
    whose last two differences sum least gives the limit, its last entry,
    and the error, that sum, after QUADPACK's qelg.
    """
    prev, col = [0.0] * len(sums), list(sums)
    err, limit, even = math.inf, sums[-1], True
    while len(col) >= 3:
        if even:
            d = abs(col[-1] - col[-2]) + abs(col[-2] - col[-3])
            if d < err:
                err, limit = d, col[-1]
        nxt = [p + 1.0 / (b - a) if abs(b - a) > _EPS * max(abs(a), abs(b))
               else math.nan for p, a, b in zip(prev[1:], col, col[1:])]
        prev, col, even = col, nxt, not even
    return limit, err


def _window_fit(mags, logs, k, sign, tail):
    """The power-law fit of the window of shells ending at k, or None.

    A pure function of |shell| and log2|shell| up to k, and of the sign.
    None below _FIT_WINDOW - 2 nonzero shells in the window; else
    (exponent, critical, (remainder, error) of the unseen shells, or None
    unless the fit is not critical and the recent ratios contract).  The
    remainder is the limit of the last _EPS_SUMS partial sums by Wynn's
    epsilon, less the last of them; its error is the epsilon table's, and
    at least 5 eps of the limit, as in qelg.
    """
    ks = [i for i in range(max(0, k + 1 - _FIT_WINDOW), k + 1) if mags[i] > 0.0]
    if len(ks) < _FIT_WINDOW - 2:
        return None
    slope = _fit_slope(ks, [logs[i] for i in ks])
    exponent = (slope - 1.0) if tail else (-slope - 1.0)
    if divergent_exponent(exponent, tail):
        return exponent, True, None
    recent = _recent_ratios(mags, k)
    if not (recent and max(recent) < 1.0):
        return exponent, False, None
    # Convergent so far: the partial sums of the last shells, from 0 before
    # the first of them, so that their rounding is that of those shells
    first = max(0, k + 1 - _EPS_SUMS)
    sums = list(accumulate(mags[first:k + 1]))
    limit, err = _wynn(sums)
    floor = 5.0 * _EPS * abs(sum(mags[:first]) + limit)
    return exponent, False, (sign * (limit - sums[-1]), max(err, floor))


def _decide(mags, logs, errs, sign, tol, tail, end=None):
    """How a shell walk ends, or None while it goes on.

    A pure function of the shells' |value|, log2|value| and errors, of the
    sign, and of how the walk stopped: ``end`` is None while the walker
    asks after a shell, "inf" once a sample was non-finite or the partial
    integral blew up, "depth" once every shell was walked.  The outcome is
    (exponent, divergent, (remainder, error) of the unseen shells or None,
    resolved), where resolved means the walk ended before full depth.

    Asked after a shell, the walk ends where its last _FIT_WINDOW shells
    are zero, or from shell _MIN_SHELLS_TO_RESOLVE on where the shells'
    errors and the error of a window fit's remainder together meet tol,
    which needs contracting ratios, or where the fit is critical from shell
    _MIN_SHELLS_FOR_VERDICT on; before that, only a window whose last
    ratios contract is fitted.  Any other end reads the latest window's
    exponent (nan if no window has a fit), and at depth the latest
    remainder, or else the last shell again as its best effort.
    """
    n = len(mags)
    if end is None:
        if (mags[-1] == 0.0 and n >= _FIT_WINDOW
                and not any(mags[-_FIT_WINDOW:])):
            end = "vanished"
        else:
            early = n < _MIN_SHELLS_FOR_VERDICT
            if n < _MIN_SHELLS_TO_RESOLVE or early and max(
                    _recent_ratios(mags, n - 1), default=1.0) >= 1.0:
                return None
            fit = _window_fit(mags, logs, n - 1, sign, tail)
            if fit and (fit[1] and not early
                        or fit[2] and fit[2][1] + sum(errs) <= tol):
                return *fit, True
            return None
    exponent, extrap = math.nan, None
    for j in reversed(range(n)):
        window = _window_fit(mags, logs, j, sign, tail)
        if window:
            if math.isnan(exponent):
                exponent = window[0]
            extrap = window[2]
            if extrap or end != "depth":
                break
    if end == "inf":
        return exponent, True, None, True
    if end == "vanished":
        # the integrand vanishes near the point: nothing unseen is left, and
        # the shells' own errors are the report's error
        return exponent, False, (0.0, 0.0), True
    # Depth exhausted without meeting tol: best effort
    last = mags[-1]
    rem, rem_err = extrap or (sign * last, math.inf)
    return exponent, False, (rem, min(rem_err, abs(rem) + last)), False


PROBE_DEPTH = 48
# 2^-j and 2^j for j up to PROBE_DEPTH: the dyadic factors of every shell end
_HALVINGS = tuple(2.0 ** -j for j in range(PROBE_DEPTH + 1))
_DOUBLINGS = tuple(2.0 ** j for j in range(PROBE_DEPTH + 1))


@dataclass(frozen=True)
class ProbeReport:
    """Outcome of a dyadic approach to one suspected singularity.

    ``resolved`` says that the walk ended before full depth: by a fit, by
    a vanishing integrand, or by a divergence.  It does not say that the
    error met the tolerance; a vanishing integrand's error is its shells'
    own, whatever tol was asked.  ``divergent`` and ``shells`` are read off
    the certificate and the trace.
    """
    location: float | str
    side: str
    estimated_exponent: float
    trace: tuple[tuple[float, float], ...]
    certificate: DivergenceCertificate | None
    # extrapolated value/error of the approached integral when convergent
    value: float
    error: float
    resolved: bool

    divergent = property(lambda self: self.certificate is not None)
    shells = property(lambda self: len(self.trace))


def _frozen(cls, *values):
    # the frozen dataclass cls from all its fields in order, built past the
    # frozen __setattr__ as ExtendedValue.finite is: once a probe or row
    obj = object.__new__(cls)
    obj.__dict__.update(zip(cls.__dataclass_fields__, values))
    return obj


def _probe_geometric(shells, point, side, scale, tol, kind, outs):
    """Shared shell walker for endpoint approaches and radial tails.

    kind="endpoint": shells halve toward ``point`` from distance ``scale``.
    kind="tail": blocks double outward from radius ``scale``; ``point`` is
    only used to label the certificate.

    ``outs`` is the probe's first run: shells 0, 1, ... as (value, error),
    or None at a shell with a non-finite sample.  The walk extends it with
    ``shells(k, k + 1)``, which evaluates shell k as the run was evaluated,
    and goes one shell at a time through the sign and blow-up tests.
    :func:`_decide` says when and how it ends: the walker asks it after each
    zero shell and from shell _MIN_SHELLS_TO_RESOLVE on, and tells it a
    non-finite sample, a blow-up or full depth.
    """
    tail = kind == "tail"
    # per shell: error, |value|, log2|value| (0.0 for a zero), trace entry
    errs, mags, logs, trace = [], [], [], []
    cumulative = sign = 0.0
    outcome = None

    for k in range(PROBE_DEPTH):
        if k == len(outs):
            outs += shells(k, k + 1)
        dist = (point + scale * _DOUBLINGS[k + 1] if tail
                else abs(_HALVINGS[k + 1] * scale))
        if outs[k] is None:
            trace.append((dist, math.inf))
            break
        val, err = outs[k]
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

        if blown_up(cumulative):
            break

        mag = abs(val)
        errs.append(err)
        mags.append(mag)
        logs.append(math.log2(mag) if mag > 0.0 else 0.0)
        if (mag == 0.0 or k + 1 >= _MIN_SHELLS_TO_RESOLVE) and (
                outcome := _decide(mags, logs, errs, sign, tol, tail)):
            break

    # A walk no shell ended stopped at a non-finite sample or a blow-up,
    # which leaves its trace blown up, or else at full depth.
    exponent, divergent, extrap, resolved = outcome or _decide(
        mags, logs, errs, sign, tol, tail,
        "inf" if blown_up(trace[-1][1]) else "depth")
    loc, cert_side = ("tail", "radial-tail") if tail else (point, side)
    trace = tuple(trace)
    # a divergent report carries no value
    cert, value, error = None, 0.0, 0.0
    if divergent:
        cert = DivergenceCertificate(loc, cert_side, exponent, trace)
    else:
        value = cumulative + extrap[0]
        error = sum(errs) + extrap[1]
    return _frozen(ProbeReport, loc, cert_side, exponent, trace, cert, value,
                   error, resolved)


# Default tolerances, one decade of headroom between verification layers:
# absolute quadrature error per integral, cross-operator identities built
# from several integrals, and finite-difference operator residuals.
QUAD_TOL = 1e-8
IDENTITY_TOL = 1e-6
FD_TOL = 1e-3

_ENDPOINT_SIDES = ("left", "right", "diagonal")
_TAIL_SIDE = "radial-tail"


@dataclass(frozen=True)
class DivergenceCertificate:
    """Evidence that a quantity is +inf.

    location:  the singular point (a coordinate), or the string "tail".
    side:      "left" / "right" for an endpoint approach, "diagonal" for a
               kernel evaluated across its own singularity, "radial-tail"
               for divergence at infinity.
    estimated_exponent:  fitted power p of the integrand near the location
               (f ~ C*d^p with d the distance to the point, or f ~ C*r^p
               as r -> inf for tails).
    probe_trace:  (distance, magnitude) samples along the dyadic approach;
               for integral probes the magnitude is the running partial
               integral, for point-value certificates it is the function
               value itself.
    """

    location: float | str
    side: str
    estimated_exponent: float
    probe_trace: tuple[tuple[float, float], ...] = field(default=())

    def __post_init__(self):
        if self.side not in _ENDPOINT_SIDES and self.side != _TAIL_SIDE:
            raise ValueError(f"unknown certificate side {self.side!r}")
        if not (divergent_exponent(self.estimated_exponent,
                                   self.side == _TAIL_SIDE)
                or any(blown_up(m) for _, m in self.probe_trace)):
            raise ValueError(
                "unsound certificate: exponent "
                f"{self.estimated_exponent:.4g} on side {self.side!r} is in the "
                "convergent range and the probe trace never blew up"
            )


@dataclass(frozen=True)
class ExtendedValue:
    """A nonnegative real extended with a certified +inf.

    Addition and scaling by nonnegative reals follow the usual conventions
    of potential theory: +inf absorbs addition and positive scaling, and
    0 * inf = 0 (scaling a divergent integral by a zero weight removes it).
    """

    kind: str  # "finite" | "infinite"
    value: float = 0.0
    error_bound: float = 0.0
    certificate: DivergenceCertificate | None = None

    @classmethod
    def finite(cls, value: float, error_bound: float = 0.0) -> "ExtendedValue":
        if not math.isfinite(value):
            raise ValueError("finite() requires a finite value")
        if value < 0.0:
            raise ValueError(f"extended values are nonnegative, got {value!r}")
        # Every integral result passes here.  The fields go straight into
        # the new instance's dict, since the generated __init__ sets each
        # one through the frozen __setattr__: 0.95 against 0.42 us a value
        # under timeit on a 2-core Xeon VM.  The instance is as frozen,
        # equal and hashable as one built by __init__.
        obj = object.__new__(cls)
        fields = obj.__dict__
        fields["kind"] = "finite"
        fields["value"] = float(value)
        fields["error_bound"] = float(abs(error_bound))
        fields["certificate"] = None
        return obj

    @classmethod
    def infinite(cls, certificate: DivergenceCertificate) -> "ExtendedValue":
        if certificate is None:
            raise ValueError("an infinite value requires a certificate")
        return cls("infinite", math.inf, math.inf, certificate)

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"

    def __float__(self) -> float:
        return self.value if self.is_finite else math.inf

    def __add__(self, other: "ExtendedValue") -> "ExtendedValue":
        if not isinstance(other, ExtendedValue):
            return NotImplemented
        if not self.is_finite:
            return self
        if not other.is_finite:
            return other
        return ExtendedValue.finite(self.value + other.value,
                                    self.error_bound + other.error_bound)

    def scaled(self, c: float) -> "ExtendedValue":
        """Multiply by a nonnegative scalar; 0 * inf = 0."""
        if c < 0.0:
            raise PreconditionError("scaling factor must be nonnegative")
        if c == 0.0:
            return ExtendedValue.finite(0.0)
        if not self.is_finite:
            return self
        return ExtendedValue.finite(c * self.value, c * self.error_bound)

    # Extended-order comparisons (error bounds are deliberately ignored;
    # they matter for tolerance checks, not for the order).
    def __lt__(self, other: "ExtendedValue") -> bool:
        return float(self) < float(other)

    def __le__(self, other: "ExtendedValue") -> bool:
        return float(self) <= float(other)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.is_finite:
            return f"ExtendedValue({self.value:.12g} ± {self.error_bound:.3g})"
        c = self.certificate
        return (f"ExtendedValue(+inf @ {c.location} [{c.side}], "
                f"exponent ~ {c.estimated_exponent:.3g})")
