"""The adjoint coupling operator and sampled regularity probes.

``adjoint_apply`` realizes V*f(x) = int G2(y,x) f(y) dmu(y), the transposed
coupling.  On top of it sit the three falsifiable probes this package offers
for the topological claims about H: the adjoint-existence gate (V*phi finite
and continuous for compactly supported phi), the kernel-interchange identity
V*(G1(.,y))(x) = H(y,x), and the refinement probes for lower semicontinuity
and off-diagonal continuity of H.

Verdicts from the probes are deliberately labelled "consistent", never
"proven": a finite sample cannot establish continuity, only fail to refute
it.  Every probe is built so that a genuine defect (a jump, a point mass, a
divergence) shows up as a certified failure rather than a silent pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coupling import (_at_points, _sliced_apply, compose_green,
                       coupling_apply)
from .errors import ModelDomainError, PreconditionError
from .kernels import Interval1D, ModelSpace
from .quadrature import as_vectorized, integrate
from .values import (IDENTITY_TOL, QUAD_TOL, DivergenceCertificate,
                     ExtendedValue)

# Per-step noise allowance when comparing refinement moduli or ring gaps;
# one decade above the quadrature tolerances that feed the probe values.
OSC_NOISE = 1e-6


# ---------------------------------------------------------------------------
# V*: the transposed coupling.

def adjoint_apply(model: ModelSpace, f, x, tol: float = QUAD_TOL):
    """V*f(x) = int G2(y,x) f(y) dmu(y), as an extended value.

    ``f`` must be nonnegative and evaluable; divergence is a valid return.
    On the radial models both kernels are the same symmetric function, so
    the adjoint coincides with the forward coupling and is delegated to it.

    On the 1D models the integral runs forward in y through the sliced
    integral of :func:`~greenlab.coupling.coupling_apply`, with G2 sliced
    in its first argument at x.  V*(G1(.,y))(x) and H(y,x) =
    :func:`~greenlab.coupling.compose_green` then integrate the same
    product on the same cuts, so they agree to the bit on the pairs of the
    adjoint-identity checks.  Agreement with an H value is a check of the
    adjoint's bookkeeping (slicing, declarations, certificates), not of a
    second quadrature.

    On the 1D models ``x`` may also be a 1-D array of points: the call then
    returns a tuple of extended values, one per point, each with the bits
    a scalar call gives it.  Every point is checked against the domain
    before any integration; after that the call raises the exception of the
    first point in order whose integral raises.  The radial models take one
    point per call.
    """
    if model.is_radial:
        return coupling_apply(model, f, x, tol=tol)
    return _sliced_apply(model, model.G2, f, x, tol, adjoint=True)


# ---------------------------------------------------------------------------
# The adjoint-existence gate: V*phi finite and continuous.

@dataclass(frozen=True)
class AdjointGateReport:
    """Outcome of the finite-and-continuous gate for V* on a sample grid."""
    grid: tuple[float, ...]
    values: tuple[ExtendedValue, ...]
    passed: bool
    witness: float | None = None
    certificate: DivergenceCertificate | None = None
    detail: str = ""


def _modulus_points(x: float, h0: float, levels: int, lo: float,
                    hi: float) -> list[tuple[int, float]]:
    """(k, point) for x + h, then x - h, at h = h0 / 2^k, k < levels, each
    point kept while it stays inside (lo, hi)."""
    pts = []
    for k in range(levels):
        h = h0 * 0.5 ** k
        if x + h < hi:
            pts.append((k, x + h))
        if x - h > lo:
            pts.append((k, x - h))
    return pts


def _modulus_sequence(fx: float, points: list[tuple[int, float]], values,
                      levels: int) -> list[float]:
    """max two-sided |f(x +- h) - f(x)| for h = h0, h0/2, ..., level by level.

    Reads f(x) = fx and f at the :func:`_modulus_points` of x, whose values
    come in the order of ``points``; a level with no point inside the
    domain reads 0.
    """
    seq = []
    for k in range(levels):
        vals = [abs(float(v) - fx) for (j, _), v in zip(points, values)
                if j == k]
        seq.append(max(vals) if vals else 0.0)
    return seq


def _moduli_consistent(seq) -> bool:
    """Shrinking-oscillation rule shared by the sampled continuity probes.

    Consistent means the moduli stop rising (beyond the noise allowance)
    over the refined half of the sequence and end no higher than eight
    times what offset-halving predicts for a Lipschitz function (or at
    noise level outright).  The coarse half is exempt from monotonicity:
    when the function has a critical point between a coarse probe and the
    target, partial cancellation can make a farther probe land closer, and
    only refinement washes that out.  A stalled sequence -- the footprint
    of a genuine jump -- keeps a ratio near one and fails even though it
    is monotone.
    """
    if not seq:
        return True
    tail = seq[len(seq) // 2:] if len(seq) >= 4 else seq
    for a, b in zip(tail, tail[1:]):
        if b > a + OSC_NOISE:
            return False
    return seq[-1] <= _moduli_allowance(seq)


def _moduli_allowance(seq) -> float:
    """The highest last modulus a consistent nonempty sequence may end at."""
    return max(OSC_NOISE, min(0.5, 8.0 * 0.5 ** (len(seq) - 1)) * max(seq))


def adjoint_gate_check(model: ModelSpace, phi, grid) -> AdjointGateReport:
    """Check that V*phi is finite and continuous across ``grid``.

    This is the gate for the adjoint structure to exist at all: one
    divergent value sinks it, and the report then carries the witness point
    together with the divergence certificate.  When every value is finite,
    sampled continuity is probed at each grid point by halving two-sided
    offsets and requiring the oscillation to shrink.

    The grid values come from one V* call, and the offsets of each grid
    point from one more; grid points are probed in order, and the first
    inconsistent one ends the walk before later ones are evaluated.
    """
    grid = [float(g) for g in grid]

    def evaluate(points):
        return _at_points(model, lambda p: adjoint_apply(model, phi, p),
                          points)

    values = evaluate(grid)
    for x, v in zip(grid, values):
        if not v.is_finite:
            return AdjointGateReport(
                tuple(grid), tuple(values), passed=False, witness=x,
                certificate=v.certificate,
                detail=f"V*phi diverges at x = {x:g} with exponent "
                       f"{v.certificate.estimated_exponent:+.3f}")
    gaps = [abs(b - a) for a, b in zip(grid, grid[1:])]
    h0 = 0.5 * min(gaps) if gaps else 0.05
    if model.is_radial:
        lo, hi = 0.0, math.inf
    else:
        dom: Interval1D = model.domain
        lo, hi = dom.lo, dom.hi
        h0 = min(h0, 0.02)

    for x, fx in zip(grid, values):
        points = _modulus_points(x, h0, 5, lo, hi)
        seq = _modulus_sequence(float(fx), points,
                                evaluate([p for _, p in points]), 5)
        if not _moduli_consistent(seq):
            return AdjointGateReport(
                tuple(grid), tuple(values), passed=False, witness=x,
                detail=f"oscillation of V*phi refuses to shrink at x = {x:g}"
                       f": moduli {', '.join(f'{m:.3g}' for m in seq)}")
    return AdjointGateReport(tuple(grid), tuple(values), passed=True)


# ---------------------------------------------------------------------------
# The kernel-interchange identity V*(G1(.,y))(x) = H(y,x).

@dataclass(frozen=True)
class AdjointIdentityReport:
    """Two-route comparison of the transposed coupling against H.

    ``kind`` is "finite" when both routes produced numbers, whose gap is
    then in ``residual``; "consistent-divergence" when both routes certified
    +inf (the identity holds in the extended sense); and "mixed" when one
    route diverged while the other converged, which falsifies the identity.
    """
    x: float
    y: float
    lhs: ExtendedValue
    rhs: ExtendedValue
    kind: str
    residual: float | None

    def passed(self) -> bool:
        if self.kind == "finite":
            return self.residual <= IDENTITY_TOL
        return self.kind == "consistent-divergence"


def adjoint_identity_residual(model: ModelSpace, x,
                              y) -> AdjointIdentityReport:
    """Compare V*(G1(.,y))(x) with H(y,x) through two code routes.

    The left route slices the first kernel at ``y`` and feeds it to the
    adjoint; the right route composes the kernels.  Both integrate the same
    product forward on the same cuts (see :func:`adjoint_apply`), so a gap
    is a slicing or declaration defect, not a measure of quadrature error.
    Divergence must be certified by both routes or the identity fails as
    "mixed".
    """
    lhs = adjoint_apply(model, model.G1.slice_in_first(y), x)
    rhs = compose_green(model, y, x)
    if lhs.is_finite and rhs.is_finite:
        return AdjointIdentityReport(float(x), float(y), lhs, rhs, "finite",
                                     abs(lhs.value - rhs.value))
    if not lhs.is_finite and not rhs.is_finite:
        return AdjointIdentityReport(float(x), float(y), lhs, rhs,
                                     "consistent-divergence", None)
    return AdjointIdentityReport(float(x), float(y), lhs, rhs, "mixed", None)


# ---------------------------------------------------------------------------
# Sampled continuity of y -> H(x,y).

@dataclass(frozen=True)
class ContinuityReport:
    """Dyadic-approach continuity probe of y -> H(x,y) at a target point.

    ``verdict`` is "consistent" when the moduli |H(x,y_n) - H(x,y)| shrink
    under refinement, "violated" when they rise or stall above noise, and
    "blow-up" when the target value or a probe value is certified +inf --
    the boundary fixtures land there, which is divergence of the kernel,
    not a continuity failure.
    """
    x: float
    target: float
    probes: tuple[float, ...]
    values: tuple[float, ...]
    moduli: tuple[float, ...]
    verdict: str
    target_value: ExtendedValue | None = None

    @property
    def consistent(self) -> bool:
        return self.verdict == "consistent"


def continuity_probe(model: ModelSpace, x, y) -> ContinuityReport:
    """Probe continuity of y -> H(x,y) along a dyadic approach to ``y``.

    The probe sequence starts a safe offset away (inside the domain, short
    of ``x``) and halves its distance 20 times; the verdict follows
    the shrinking-oscillation rule.  An infinite target is reported as
    "blow-up" together with a short probe trail, since approaching a
    divergence looks like unbounded growth, not discontinuity.
    """
    x = float(x)
    y = float(y)
    if x == y:
        raise PreconditionError(
            "the continuity claim for H is off-diagonal; pick y != x")
    if model.is_radial:
        room_l, room_r = math.inf, math.inf
        near_limit = 2e-3
    else:
        dom: Interval1D = model.domain
        dom.require(x)
        dom.require(y)
        room_l, room_r = y - dom.lo, dom.hi - y
        near_limit = 0.0

    def start_offset(direction: float, room: float) -> float:
        d0 = min(0.1, 0.45 * room)
        if (x - y) * direction > 0:
            d0 = min(d0, 0.45 * abs(x - y))
        return max(d0, 0.0)

    d_r, d_l = start_offset(+1.0, room_r), start_offset(-1.0, room_l)
    direction, d0 = (+1.0, d_r) if d_r >= d_l else (-1.0, d_l)
    if d0 <= near_limit or d0 <= 1e-9:
        raise PreconditionError(
            f"no room for a dyadic approach to y = {y:g} inside the domain")

    probes = tuple(y + direction * d0 * 0.5 ** n for n in range(20))
    target, *at_probes = _at_points(
        model, lambda p: compose_green(model, x, p, tol=1e-9), (y,) + probes)
    if not target.is_finite:
        trail = [float(v) for v in at_probes[:6]]
        return ContinuityReport(x, y, probes[:6], tuple(trail), (),
                                "blow-up", target_value=target)
    values = []
    for v in at_probes:
        if not v.is_finite:
            return ContinuityReport(x, y, tuple(probes[:len(values) + 1]),
                                    tuple(values + [math.inf]), (),
                                    "blow-up", target_value=target)
        values.append(v.value)
    moduli = tuple(abs(v - target.value) for v in values)
    verdict = "consistent" if _moduli_consistent(list(moduli)) else "violated"
    return ContinuityReport(x, y, probes, tuple(values), moduli, verdict,
                            target_value=target)


# ---------------------------------------------------------------------------
# Sampled lower semicontinuity of H on a product grid.

@dataclass(frozen=True)
class LscEntry:
    x: float
    y: float
    value: float
    ring_gap_coarse: float
    ring_gap_fine: float
    passed: bool


@dataclass(frozen=True)
class LscReport:
    entries: tuple[LscEntry, ...]

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    @property
    def failures(self) -> tuple[LscEntry, ...]:
        return tuple(e for e in self.entries if not e.passed)


_RING = [(math.cos(t), math.sin(t))
         for t in np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)]


def lsc_check(model: ModelSpace) -> LscReport:
    """Sampled lower-semicontinuity check of H over a 15-by-15 interior grid.

    At each node the value H(x,y) is compared with the minimum of H over
    two rings of 8 surrounding points, at half and quarter grid spacing.
    Lower semicontinuity predicts the gap node-minus-ring-min closes as the
    ring shrinks, so a node passes when the fine gap is at most
    max(OSC_NOISE, 0.6 * coarse gap) and never grows: geometric decay of
    the gap, or a gap already at noise level.  An upward point defect --
    the way l.s.c. fails on a sample -- stalls the gap and fails the node.
    """
    if model.is_radial:
        raise ModelDomainError(
            "the product-grid probe is defined for the 1D models; the "
            "radial H is an explicit power law with nothing to sample")
    dom: Interval1D = model.domain
    grid = dom.interior_grid(15)
    h = grid[1] - grid[0]

    # each node is followed by its coarse ring, then its fine one
    offsets = [(r * cx, r * cy) for r in (0.5 * h, 0.25 * h)
               for cx, cy in _RING]
    per_node = 1 + len(offsets)
    entries = []
    for xv in grid:
        # one H call per grid row: a whole grid in one call holds numpy
        # temporaries of every node at once
        xs = [p for yv in grid for p in (xv, *(xv + dx for dx, _ in offsets))]
        ys = [p for yv in grid for p in (yv, *(yv + dy for _, dy in offsets))]
        values = [float(v) for v in compose_green(model, np.array(xs),
                                                  np.array(ys), tol=1e-9)]
        for k, yv in enumerate(grid):
            center, *rings = values[k * per_node:(k + 1) * per_node]
            coarse = center - min(rings[:len(_RING)])
            fine = center - min(rings[len(_RING):])
            ok = (fine <= max(OSC_NOISE, 0.6 * coarse)
                  and fine <= coarse + OSC_NOISE)
            entries.append(LscEntry(float(xv), float(yv), center,
                                    coarse, fine, ok))
    return LscReport(tuple(entries))


# ---------------------------------------------------------------------------
# Duality pairing <psi, V phi> = <phi, V* psi>.

def duality_residual(model: ModelSpace, phi, psi) -> float:
    """|<psi, V phi> - <phi, V* psi>| with both pairings against d(mu).

    The transpose relation only closes when the two kernels are each
    other's transpose, which among the models here the clamped-plate one
    provides (one symmetric kernel on both slots); elsewhere the pairing
    comparison is not a valid identity and is refused.
    """
    if model.id != "bilaplace1d":
        raise ModelDomainError(
            "the pairing comparison needs G1(x,y) = G2(y,x), which only "
            "the clamped-plate model provides here")
    dom: Interval1D = model.domain

    def pair(outer, inner_op, inner_arg):
        def f(xs):
            xs = np.asarray(xs, dtype=float)
            inner = inner_op(model, inner_arg, xs, tol=1e-9)
            return np.asarray(outer(xs), dtype=float) \
                * np.array([float(v) for v in inner])

        f.vectorized = True
        res = integrate(model.mu.weighted(f), (dom.lo, dom.hi), tol=QUAD_TOL)
        return float(res.value)

    phi_v, psi_v = as_vectorized(phi), as_vectorized(psi)
    lhs = pair(psi_v, coupling_apply, phi)
    rhs = pair(phi_v, adjoint_apply, psi)
    return abs(lhs - rhs)
