"""Named verification checks and the suites that group them.

Every check is a zero-argument-friendly function returning a
:class:`CheckResult` with a stable kebab-case id, a pass/fail verdict, and a
signed margin (how much headroom was left before the tolerance, positive
when passing).  The command-line ``verify`` subcommand and the acceptance
test file both run these same functions, so the two surfaces cannot drift
apart.

Checks that use randomized probe data take a ``seed`` and draw from their
own ``numpy`` generator, which makes every suite deterministic end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import adjoint as adjoint_mod
from . import riquier
from .coupling import (classify_pair, compose_green, coupling_apply,
                       pure_decompose)
from .errors import ClassificationError, ModelDomainError
from .kernels import BiharmonicPair, Fn, bump, constant
from .models import bilaplace as bl
from .models import interval as iv
from .models import newtonian as nw
from .quadrature import integrate, probe_divergence
from .values import FD_TOL, IDENTITY_TOL, QUAD_TOL


@dataclass(frozen=True)
class CheckResult:
    id: str
    passed: bool
    margin: float
    detail: str = ""


def _result(check_id: str, tol: float, worst: float, detail: str = "") -> CheckResult:
    note = detail or f"worst {worst:.3e} against tolerance {tol:.1e}"
    return CheckResult(check_id, worst <= tol, tol - worst, note)


def _boolean(check_id: str, ok: bool, detail: str) -> CheckResult:
    return CheckResult(check_id, ok, 1.0 if ok else -1.0, detail)


# ---------------------------------------------------------------------------
# Quadrature and kernel-core axioms.

def check_power_verdicts(seed: int = 0) -> CheckResult:
    """The divergence classifier must call the power family exactly."""
    cases = [(-1.5, True), (-1.25, True), (-1.0, True),
             (-0.9, False), (-0.5, False)]
    worst_exp = 0.0
    for p, want_divergent in cases:
        def f(y, p=p):
            return np.asarray(y, dtype=float) ** p
        f.vectorized = True
        rep = probe_divergence(f, 0.0, side="right")
        if rep.divergent != want_divergent:
            return _boolean("power-verdicts", False,
                            f"exponent {p:+.2f} misclassified as "
                            f"{'divergent' if rep.divergent else 'finite'}")
        worst_exp = max(worst_exp, abs(rep.estimated_exponent - p))
    return _result("power-verdicts", 0.05, worst_exp,
                   f"all five verdicts exact; exponent estimates within "
                   f"{worst_exp:.2e} of truth")


def check_refinement_monotonicity(seed: int = 0) -> CheckResult:
    """Every tolerance is met on closed forms, with a bound that covers the
    error, from 1e-4 down to 1e-10."""
    oracle = [
        (lambda y: np.asarray(y, dtype=float) ** 2, 1.0 / 3.0, ()),
        (lambda y: -np.log(np.asarray(y, dtype=float)), 1.0, (0.0,)),
        (lambda y: np.asarray(y, dtype=float) ** -0.5, 2.0, (0.0,)),
        (lambda y: np.sin(10.0 * np.asarray(y, dtype=float)),
         (1.0 - math.cos(10.0)) / 10.0, ()),
        (lambda y: np.asarray(y, dtype=float) ** -0.9, 10.0, (0.0,)),
    ]
    tols = (1e-4, 1e-6, 1e-8, 1e-10)
    worst_rel = 0.0
    for f, exact, sings in oracle:
        f.vectorized = True
        for tol in tols:
            res = integrate(f, (0.0, 1.0), singular_points=sings, tol=tol)
            err = abs(float(res.value) - exact)
            if err > tol:
                return _boolean("refinement-monotonicity", False,
                                f"error {err:.2e} exceeds requested {tol:.0e}")
            if err > res.value.error_bound + 1e-15:
                return _boolean("refinement-monotonicity", False,
                                f"error bound {res.value.error_bound:.2e} "
                                f"below true error {err:.2e}")
            worst_rel = max(worst_rel, err / tol)
    return _result("refinement-monotonicity", 1.0, worst_rel,
                   f"five closed forms over four tolerances; worst "
                   f"error/tolerance ratio {worst_rel:.2e}")


def _combined(h, *parts: Fn) -> Fn:
    """h, built from the bumps ``parts``, with the union of their
    breakpoints and the hull of their supports declared."""
    return Fn(h, breakpoints=[b for p in parts for b in p.breakpoints],
              support=(min(p.support[0] for p in parts),
                       max(p.support[1] for p in parts)),
              vectorized=True)


def check_coupling_monotonicity(seed: int = 0) -> CheckResult:
    f = bump(0.5, 0.2)
    extra = bump(0.4, 0.3)

    def g(y):
        return f(y) + 0.5 * extra(y)

    g = _combined(g, f, extra)
    xs = np.array([0.1, 0.45, 0.8])
    worst = 0.0
    for model in (iv.interval_model(), bl.bilaplace_model()):
        for vf, vg in zip(coupling_apply(model, f, xs),
                          coupling_apply(model, g, xs)):
            worst = max(worst, float(vf) - float(vg))
    return _result("coupling-monotonicity", 2.0 * QUAD_TOL, worst,
                   f"V(f) <= V(g) for f <= g; worst violation {worst:.2e}")


def check_coupling_linearity(seed: int = 0) -> CheckResult:
    a, b = 0.7, 1.3
    f, g = bump(0.3, 0.25), bump(0.65, 0.3)

    def combo(y):
        return a * f(y) + b * g(y)

    combo = _combined(combo, f, g)
    xs = np.array([0.15, 0.5, 0.85])
    worst = 0.0
    for model in (iv.interval_model(), bl.bilaplace_model()):
        for lhs, vf, vg in zip(*(coupling_apply(model, fn, xs)
                                 for fn in (combo, f, g))):
            rhs = a * float(vf) + b * float(vg)
            worst = max(worst, abs(float(lhs) - rhs))
    return _result("coupling-linearity", 2.0 * QUAD_TOL, worst)


def check_monotone_convergence(seed: int = 0) -> CheckResult:
    """V(min(v, n)) must climb to V(v) as the cutoff rises."""
    model = iv.interval_model()
    x = 0.5

    def v(y):
        return np.asarray(y, dtype=float) ** -0.25

    v = Fn(v, vectorized=True, singular_points=(0.0,))
    full = float(coupling_apply(model, v, x))
    prev = -math.inf
    vals = []
    for n in (2.0, 8.0, 64.0, 1024.0):
        def vn(y, n=n):
            return np.minimum(np.asarray(v(y), dtype=float), n)
        vn = Fn(vn, vectorized=True)
        cur = float(coupling_apply(model, vn, x))
        if cur < prev - 1e-10:
            return _boolean("monotone-convergence", False,
                            f"truncation at {n:g} decreased the integral")
        if cur > full + 2.0 * QUAD_TOL:
            return _boolean("monotone-convergence", False,
                            f"truncated integral overshoots the limit at {n:g}")
        prev = cur
        vals.append(cur)
    gap = full - vals[-1]
    return _result("monotone-convergence", IDENTITY_TOL, abs(gap),
                   f"gap at cutoff 1024 is {gap:.2e}")


def check_pure_minimality(seed: int = 0) -> CheckResult:
    """Denting the pure partner anywhere must break hyperharmonicity."""
    model = iv.interval_model()
    eps = 1e-3
    x0 = 0.5
    dent = bump(x0, 0.05)

    def u(y):
        return 0.5 * (1.0 - np.asarray(y, dtype=float)) - eps * dent(y)

    pair = BiharmonicPair(Fn(u, vectorized=True), constant(1.0))
    report = riquier.verify_hyperharmonic(
        model, pair, [((0.45, 0.55), x0), ((0.4, 0.6), x0)])
    firsts = [e.margin_first for e in report.entries]
    worst = min(firsts)
    # a NaN margin counts as violated, and must not pass here wherever it is
    ok = len(report.violated) > 0 and all(map(math.isfinite, firsts))
    return CheckResult("pure-minimality", ok, -worst - IDENTITY_TOL,
                       f"dent of {eps:g} at {x0:g} drives the first margin "
                       f"to {worst:.2e}")


def check_compose_consistency(seed: int = 0) -> CheckResult:
    xs, ys = np.array([0.3, 0.7]), np.array([0.6, 0.2])
    worst = 0.0
    for model in (iv.interval_model(), bl.bilaplace_model()):
        for x, y, direct in zip(xs.tolist(), ys.tolist(),
                                compose_green(model, xs, ys)):
            routed = float(coupling_apply(model, model.G2.slice_in_first(y), x))
            worst = max(worst, abs(float(direct) - routed))
    return _result("compose-consistency", 1e-12, worst)


def check_measure_positivity(seed: int = 0) -> CheckResult:
    rng = np.random.default_rng(seed)
    # per model, six random triples; on the interval model, three nested
    # domains follow at x = 0.45.  Each model's triples are one call.
    min_weight, masses = math.inf, []
    nested = ((0.3, 0.6), (0.25, 0.7), (0.2, 0.8))
    for model, extra in ((iv.interval_model(), nested),
                         (bl.bilaplace_model(), ())):
        subs, xs = [], []
        for _ in range(6):
            a = float(rng.uniform(0.05, 0.55))
            b = float(rng.uniform(a + 0.15, 0.95))
            subs.append(riquier.regular_subdomain(model, a, b))
            xs.append(float(rng.uniform(a + 0.02, b - 0.02)))
        subs += [riquier.regular_subdomain(model, a, b) for a, b in extra]
        xs += [0.45] * len(extra)
        tris = riquier.biharmonic_measures(subs, xs)
        for tri in tris[:6]:
            min_weight = min(min_weight, *tri.mu, *tri.nu, *tri.lam)
        masses += [tri.nu[0] + tri.nu[1] for tri in tris[6:]]
    grows = all(m2 >= m1 - 1e-12 for m1, m2 in zip(masses, masses[1:]))
    ok = min_weight >= 0.0 and grows
    return CheckResult("measure-positivity", ok, min_weight,
                       f"smallest weight {min_weight:.2e}; coupling mass over "
                       f"nested domains {', '.join(f'{m:.4f}' for m in masses)}")


# ---------------------------------------------------------------------------
# Interval model.

def check_v1_identity(seed: int = 0) -> CheckResult:
    xs = np.linspace(0.0, 0.98, 50)
    worst = max(iv.v1_identity_residual(xs).tolist())
    worst_alt = max(iv.v1_alt_density_residual(xs).tolist())
    return _result("v1-identity", IDENTITY_TOL, max(worst, worst_alt),
                   f"reference density residual {worst:.2e}; control "
                   f"density residual {worst_alt:.2e}")


def check_kink_law(seed: int = 0) -> CheckResult:
    worst = 0.0
    for y in (0.2, 0.5, 0.8):
        jump = iv.kink_slope_jump(y)
        worst = max(worst, abs(jump * y + 1.0))
    return _result("kink-law", IDENTITY_TOL, worst,
                   f"slope jump times y sits within {worst:.2e} of -1")


def check_boundary_divergence(seed: int = 0) -> CheckResult:
    model = iv.interval_model()
    worst = 0.0
    xs = np.linspace(0.1, 0.9, 9)
    for x, val in zip(xs, compose_green(model, xs, 0.0)):
        if val.is_finite:
            return _boolean("boundary-divergence", False,
                            f"H({x:g}, 0) came out finite")
        worst = max(worst, abs(val.certificate.estimated_exponent + 1.0))
    return _result("boundary-divergence", 0.05, worst,
                   f"H(x,0) certified divergent at all nine x; exponent "
                   f"within {worst:.2e} of -1")


def check_adjoint_blowup(seed: int = 0) -> CheckResult:
    model = iv.interval_model()
    worst = 0.0
    for phi in (bump(0.0, 0.3),
                Fn(lambda y: np.exp(-np.asarray(y, dtype=float)),
                   vectorized=True)):
        val = adjoint_mod.adjoint_apply(model, phi, 0.0)
        if val.is_finite:
            return _boolean("adjoint-blowup", False,
                            "V*phi(0) came out finite for phi(0) = 1")
        worst = max(worst, abs(val.certificate.estimated_exponent + 1.0))
    return _result("adjoint-blowup", 0.05, worst,
                   f"V*phi(0) certified divergent; exponent within "
                   f"{worst:.2e} of -1")


def check_obstruction_negativity(seed: int = 0) -> CheckResult:
    oracle = 0.5 / math.e - math.e
    val = float(iv.obstruction_u(0.0, 0.0)(1.0 / math.e))
    gap = abs(val - oracle)
    floors = []
    for a, b in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (2.0, 3.0)):
        probes = np.geomspace(1e-8, 1e-2, 9)
        floors.append(iv.pure_obstruction(a, b, probes))
    ok = gap <= 1e-9 and all(f < -1e3 for f in floors)
    return CheckResult("obstruction-negativity", ok, 1e-9 - gap,
                       f"value at 1/e within {gap:.1e} of closed form; "
                       f"deepest probe minima "
                       f"{', '.join(f'{f:.2e}' for f in floors)}")


def check_strictness(seed: int = 0) -> CheckResult:
    pair = iv.global_pure_pair()
    worst = math.inf
    for omega, x in (((0.25, 0.75), 0.5), ((0.2, 0.6), 0.35)):
        rep = iv.strictness_probe(pair, omega, x)
        if not rep.strict:
            return _boolean("strictness", False,
                            f"no strict margin on {omega} at x = {x:g}")
        worst = min(worst, rep.nu_term - IDENTITY_TOL)
    return CheckResult("strictness", True, worst,
                       "pure pair exceeds its first-kernel sweep by "
                       "exactly the coupling mass")


def _restriction_check(check_id: str, model, pair, subs, seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    # the triples of every subdomain at three points, in one call; they do
    # not depend on the drawn data
    regular = [riquier.regular_subdomain(model, a, b) for a, b in subs]
    points = [[a + frac * (b - a) for frac in (0.3, 0.5, 0.7)]
              for a, b in subs]
    triples = riquier.biharmonic_measures(
        [sub for sub in regular for _ in range(3)],
        [x for xs in points for x in xs])
    for k, ((a, b), sub, pts) in enumerate(zip(subs, regular, points)):
        # each function once per point array: the pair at a, b and xs, the
        # solutions at xs or pts; every one of them is elementwise
        xs = np.linspace(a + 0.02, b - 0.02, 15)
        (ua, ub, *us), (va, vb, *vs) = (
            np.asarray(fn(np.concatenate(([a, b], xs))), dtype=float).tolist()
            for fn in (pair.u, pair.v))
        sol = riquier.solve_riquier(sub, (ua, ub), (va, vb))
        for su, sv, u, v in zip(sol.u(xs).tolist(), sol.v(xs).tolist(),
                                us, vs):
            worst = max(worst, abs(su - u), abs(sv - v))
        tris = triples[3 * k:3 * k + 3]
        for _ in range(10):
            f = tuple(rng.uniform(0.0, 2.0, 2).tolist())
            g = tuple(rng.uniform(0.0, 2.0, 2).tolist())
            rsol = riquier.solve_riquier(sub, f, g)
            for u, v, tri in zip(rsol.u(pts).tolist(), rsol.v(pts).tolist(),
                                 tris):
                worst = max(worst, abs(u - tri.pair_first(f, g)),
                            abs(v - tri.pair_second(g)))
    return _result(check_id, IDENTITY_TOL, worst,
                   f"restriction and measure-pairing worst gap {worst:.2e}")


def check_riquier_restriction_interval(seed: int = 0) -> CheckResult:
    return _restriction_check(
        "riquier-restriction-interval", iv.interval_model(),
        iv.global_pure_pair(),
        ((0.15, 0.85), (0.25, 0.75), (0.35, 0.65)), seed)


def check_riquier_restriction_bilaplace(seed: int = 0) -> CheckResult:
    return _restriction_check(
        "riquier-restriction-bilaplace", bl.bilaplace_model(),
        bl.global_pure_pair(),
        ((0.15, 0.85), (0.25, 0.75), (0.35, 0.65)), seed)


def _green_ode_check(check_id: str, model, h: float) -> CheckResult:
    worst = 0.0
    for y in (0.25, 0.5, 0.75):
        q = model.G2.slice_in_first(y)
        xs = [x for x in np.linspace(0.1, 0.9, 9).tolist()
              if abs(x - y) >= 0.05]

        def hq(x, y=y):
            return [float(v) for v in compose_green(model, x, y, tol=1e-10)]

        # H at every window node of every x in one call
        l1s = riquier.fd_residual(model.L1_stencil, Fn(hq, vectorized=True),
                                  np.array(xs), h=h)
        for x, l1 in zip(xs, l1s.tolist()):
            worst = max(worst, abs(l1 + float(q(x))))
            fit = riquier.basis_fit_residual(model.basis2, q, x)
            worst = max(worst, abs(fit))
    return _result(check_id, FD_TOL, worst,
                   f"first-operator residual and second-basis fit within "
                   f"{worst:.2e}")


def check_green_ode_interval(seed: int = 0) -> CheckResult:
    return _green_ode_check("green-ode-interval", iv.interval_model(), 5e-3)


def check_green_ode_bilaplace(seed: int = 0) -> CheckResult:
    return _green_ode_check("green-ode-bilaplace", bl.bilaplace_model(), 5e-3)


def check_pure_classification(seed: int = 0) -> CheckResult:
    model = iv.interval_model()
    grid = [float(g) for g in np.linspace(0.05, 0.9, 12)]
    subs = ((0.2, 0.8), (0.3, 0.6), (0.15, 0.45))
    floor = 0.0
    for a, b in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.5, 0.25), (0.3, 1.5)):
        def u(x, a=a, b=b):
            x = np.asarray(x, dtype=float)
            return 0.5 * (1.0 - x) + a + b / x

        pair = BiharmonicPair(
            Fn(u, vectorized=True, singular_points=(0.0,) if b else ()),
            constant(1.0))
        _, u1 = pure_decompose(model, pair, grid)
        floor = min(floor, float(np.min(u1)))

        def u1f(x, u=u):
            v1 = coupling_apply(model, constant(1.0), x)
            return u(x) - np.array([float(v) for v in v1])

        probes = [((sa, sb), sa + 0.5 * (sb - sa)) for sa, sb in subs]
        rep = riquier.verify_hyperharmonic(
            model, BiharmonicPair(Fn(u1f, vectorized=True), constant(0.0)),
            probes)
        if not rep.passed:
            return _boolean("pure-classification", False,
                            f"harmonic remainder fails its probes at "
                            f"(a,b)=({a:g},{b:g})")
    flags = classify_pair(model, iv.global_pure_pair(), grid, subs).flags
    if flags != frozenset({"hyperharmonic", "superharmonic", "pure"}):
        return _boolean("pure-classification", False,
                        f"pure pair classified as {sorted(flags)}")
    broken = BiharmonicPair(
        Fn(lambda x: 0.25 * (1.0 - np.asarray(x, dtype=float)),
           vectorized=True), constant(1.0))
    try:
        pure_decompose(model, broken, grid)
    except ClassificationError:
        pass
    else:
        return _boolean("pure-classification", False,
                        "the scaled-down pair was not rejected")
    return CheckResult("pure-classification", floor >= -IDENTITY_TOL,
                       floor + IDENTITY_TOL,
                       f"five superharmonic pairs decompose with remainder "
                       f">= {floor:.2e}; broken pair rejected")


def _adjoint_identity_check(check_id: str, model) -> CheckResult:
    pairs = [(0.5, 0.25), (0.3, 0.6), (0.7, 0.9), (0.15, 0.4), (0.85, 0.2),
             (0.45, 0.55), (0.6, 0.35), (0.2, 0.8), (0.9, 0.65), (0.35, 0.15)]
    worst = 0.0
    for x, y in pairs:
        rep = adjoint_mod.adjoint_identity_residual(model, x, y)
        if rep.kind != "finite":
            return _boolean(check_id, False,
                            f"({x:g},{y:g}) unexpectedly {rep.kind}")
        worst = max(worst, rep.residual)
    return _result(check_id, IDENTITY_TOL, worst,
                   f"ten finite pairs; worst two-route gap {worst:.2e}")


def check_adjoint_identity_interval(seed: int = 0) -> CheckResult:
    return _adjoint_identity_check("adjoint-identity-interval",
                                   iv.interval_model())


def check_adjoint_identity_bilaplace(seed: int = 0) -> CheckResult:
    return _adjoint_identity_check("adjoint-identity-bilaplace",
                                   bl.bilaplace_model())


def _regularity_check(check_id: str, model, seed: int,
                      blowup_fixture: bool) -> CheckResult:
    rep = adjoint_mod.lsc_check(model)
    if not rep.passed:
        e = rep.failures[0]
        return _boolean(check_id, False,
                        f"semicontinuity gap stalls at ({e.x:g},{e.y:g})")
    rng = np.random.default_rng(seed)
    margin = math.inf
    done = 0
    while done < 10:
        x = float(rng.uniform(0.1, 0.9))
        y = float(rng.uniform(0.1, 0.9))
        if abs(x - y) < 0.1:
            continue
        probe = adjoint_mod.continuity_probe(model, x, y)
        if probe.verdict != "consistent":
            return _boolean(check_id, False,
                            f"continuity probe at ({x:.3f},{y:.3f}) returned "
                            f"{probe.verdict}")
        margin = min(margin, adjoint_mod._moduli_allowance(probe.moduli)
                     - probe.moduli[-1])
        done += 1
    if blowup_fixture:
        probe = adjoint_mod.continuity_probe(model, 0.5, 0.0)
        if probe.verdict != "blow-up":
            return _boolean(check_id, False,
                            f"the boundary fixture reported {probe.verdict} "
                            f"instead of blow-up")
    return CheckResult(check_id, True, margin,
                       f"grid semicontinuity clean; ten continuity probes "
                       f"consistent with headroom {margin:.2e}"
                       + ("; boundary target reports blow-up"
                          if blowup_fixture else ""))


def check_regularity_interval(seed: int = 0) -> CheckResult:
    return _regularity_check("regularity-interval", iv.interval_model(),
                             seed, blowup_fixture=True)


def check_regularity_bilaplace(seed: int = 0) -> CheckResult:
    return _regularity_check("regularity-bilaplace", bl.bilaplace_model(),
                             seed, blowup_fixture=False)


# ---------------------------------------------------------------------------
# Clamped-plate model.

def check_h_symmetry(seed: int = 0) -> CheckResult:
    grid, table = bl.h_symmetry_table()
    oracle = np.array([[bl.h_closed_form(x, y) for y in grid] for x in grid])
    upper = np.triu_indices(grid.size, 1)
    asym = float(np.max(np.abs(table - table.T)[upper]))
    against_oracle = float(np.max(np.abs(table - oracle)[upper]))
    center = compose_green(bl.bilaplace_model(), 0.5, 0.5)
    spot = abs(float(center) - 1.0 / 48.0)
    ok = asym <= 1e-10 and spot <= 1e-8 and against_oracle <= 1e-8
    return CheckResult("h-symmetry", ok, 1e-10 - asym,
                       f"max asymmetry {asym:.2e}; center value off by "
                       f"{spot:.2e}; closed-form gap {against_oracle:.2e}")


def check_navier(seed: int = 0) -> CheckResult:
    margin = math.inf
    for y in (0.25, 0.5, 0.75):
        rep = bl.navier_check(y)
        if not rep.passed():
            return _boolean("navier", False,
                            f"clamped-plate residuals fail at y = {y:g}")
        margin = min(margin, rep.margin)
    return CheckResult("navier", True, margin,
                       "second-operator residuals, boundary decay, and the "
                       "unit third-derivative jump all hold")


def check_adjoint_riquier(seed: int = 0) -> CheckResult:
    model = bl.bilaplace_model()
    sub = riquier.regular_subdomain(model, 0.2, 0.8)
    # the adjoint triple on the adjoint space's own subdomain
    sub_adj = riquier.regular_subdomain(model.adjoint, 0.2, 0.8)
    worst = 0.0
    for x in (0.35, 0.5, 0.65):
        fwd = riquier.biharmonic_measures(sub, x)
        adj = riquier.biharmonic_measures(sub_adj, x)
        worst = max(worst,
                    max(abs(a - b) for a, b in zip(fwd.mu, adj.mu)),
                    max(abs(a - b) for a, b in zip(fwd.nu, adj.nu)),
                    max(abs(a - b) for a, b in zip(fwd.lam, adj.lam)))
    try:
        riquier.regular_subdomain(iv.interval_model().adjoint, 0.3, 0.7)
    except ModelDomainError:
        pass
    else:
        return _boolean("adjoint-riquier", False,
                        "the interval adjoint, which has no kink density, "
                        "was given a Riquier problem")
    return _result("adjoint-riquier", 1e-9, worst,
                   f"adjoint and forward measure triples agree within "
                   f"{worst:.2e} on the symmetric kernel")


def check_duality(seed: int = 0) -> CheckResult:
    model = bl.bilaplace_model()
    worst = 0.0
    for phi, psi in ((bump(0.3, 0.15), bump(0.6, 0.3)),
                     (bump(0.25, 0.2), bump(0.75, 0.2))):
        worst = max(worst, adjoint_mod.duality_residual(model, phi, psi))
    return _result("duality", 2.0 * IDENTITY_TOL, worst,
                   f"forward and transposed pairings agree within {worst:.2e}")


# ---------------------------------------------------------------------------
# Newtonian models.

def check_radial_divergence(seed: int = 0) -> CheckResult:
    worst = 0.0
    for n in (5, 6):
        cert = nw.constant_coupling_divergence(n)
        worst = max(worst, abs(cert.estimated_exponent - 1.0))
    return _result("radial-divergence", 0.05, worst,
                   f"V(1) certified divergent in both dimensions; tail "
                   f"exponent within {worst:.2e} of +1")


def check_dilation_scaling(seed: int = 0) -> CheckResult:
    worst = 0.0
    for n in (5, 6):
        vals = [float(nw.riesz_compose(n, 0.0, d)) * d ** (n - 4)
                for d in (0.5, 1.0, 2.0)]
        spread = (max(vals) - min(vals)) / vals[1]
        worst = max(worst, spread)
    return _result("dilation-scaling", 1e-3, worst,
                   f"H times distance^(N-4) drifts by {worst:.2e} "
                   f"relative over a factor-4 range")


def check_gauss_flux(seed: int = 0) -> CheckResult:
    worst = 0.0
    for n, radii in ((5, (0.5, 1.0, 2.0)), (6, (1.0,))):
        for r in radii:
            worst = max(worst, abs(nw.gauss_flux(n, r) - 1.0))
    return _result("gauss-flux", 1e-6, worst,
                   f"kernel flux through spheres off unity by {worst:.2e}")


def check_composition_tail(seed: int = 0) -> CheckResult:
    r4 = nw.composition_tail_report(4)
    r5 = nw.composition_tail_report(5)
    ok = r4.divergent and not r5.divergent
    return _boolean("composition-tail", ok,
                    f"composition tail exponent {r4.estimated_exponent:+.3f} "
                    f"in dimension 4 (divergent) against "
                    f"{r5.estimated_exponent:+.3f} in dimension 5 (finite)")


# ---------------------------------------------------------------------------
# Adjoint gate fixtures.

def check_adjoint_gate(seed: int = 0) -> CheckResult:
    model = iv.interval_model()
    rep = adjoint_mod.adjoint_gate_check(model, bump(0.0, 0.3),
                                         [0.0, 0.2, 0.5, 0.8])
    if rep.passed or rep.witness != 0.0 or rep.certificate is None:
        return _boolean("adjoint-gate", False,
                        "mass at the origin failed to sink the gate")
    exp_gap = abs(rep.certificate.estimated_exponent + 1.0)
    rep_mid = adjoint_mod.adjoint_gate_check(model, bump(0.5, 0.2),
                                             [0.1, 0.3, 0.5, 0.7, 0.9])
    rep_bl = adjoint_mod.adjoint_gate_check(bl.bilaplace_model(),
                                            bump(0.5, 0.3), [0.2, 0.5, 0.8])
    ok = exp_gap <= 0.05 and rep_mid.passed and rep_bl.passed
    return CheckResult("adjoint-gate", ok, 0.05 - exp_gap,
                       f"origin mass refused with a 1/y-type certificate "
                       f"(exponent off by {exp_gap:.2e}); interior and "
                       f"clamped-plate data pass")


def check_consistent_divergence(seed: int = 0) -> CheckResult:
    model = iv.interval_model()
    kinds = []
    for x in (0.0, 0.3, 0.6, 0.9):
        rep = adjoint_mod.adjoint_identity_residual(model, x, 0.0)
        if rep.kind == "mixed":
            return _boolean("consistent-divergence", False,
                            f"routes disagree about divergence at x = {x:g}")
        kinds.append(rep.kind)
    ok = kinds[0] == "consistent-divergence" and all(
        k == "finite" for k in kinds[1:])
    return _boolean("consistent-divergence", ok,
                    "both routes diverge together at the boundary and "
                    "converge together inside")


# ---------------------------------------------------------------------------
# Suite registry.

SUITES = {
    "axioms": (
        "power-verdicts", "refinement-monotonicity", "coupling-monotonicity",
        "coupling-linearity", "monotone-convergence", "pure-minimality",
        "compose-consistency", "measure-positivity"),
    "interval": (
        "v1-identity", "kink-law", "boundary-divergence", "adjoint-blowup",
        "obstruction-negativity", "strictness", "riquier-restriction-interval",
        "green-ode-interval", "pure-classification",
        "adjoint-identity-interval", "regularity-interval"),
    "bilaplace": (
        "h-symmetry", "navier", "riquier-restriction-bilaplace",
        "green-ode-bilaplace", "adjoint-identity-bilaplace",
        "adjoint-riquier", "duality", "regularity-bilaplace"),
    "newtonian": (
        "radial-divergence", "dilation-scaling", "gauss-flux",
        "composition-tail"),
    "adjoint": (
        "adjoint-gate", "consistent-divergence", "adjoint-blowup",
        "adjoint-identity-interval", "adjoint-identity-bilaplace", "duality"),
}


# Each check id, in order of first appearance in SUITES, to its function:
# check_<id>, with '-' read as '_'.
CHECKS = {cid: globals()["check_" + cid.replace("-", "_")]
          for ids in SUITES.values() for cid in ids}


def suite_ids(name: str) -> tuple[str, ...]:
    if name == "all":
        return tuple(CHECKS)
    return SUITES[name]


def run_suite(name: str, seed: int = 0) -> list[CheckResult]:
    results = []
    for cid in suite_ids(name):
        try:
            results.append(CHECKS[cid](seed=seed))
        except Exception as exc:  # per-check isolation
            results.append(CheckResult(cid, False, -math.inf,
                                       f"raised {type(exc).__name__}: {exc}"))
    return results
