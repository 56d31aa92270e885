"""The named check registry driving both the CLI verifier and acceptance."""

import math
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from greenlab import adjoint, suites
from greenlab.suites import CHECKS, SUITES, CheckResult, run_suite, suite_ids
from greenlab.values import ExtendedValue


def test_registry_ids_are_kebab_and_unique():
    ids = list(CHECKS)
    assert len(ids) == len(set(ids))
    for cid in ids:
        assert cid == cid.lower()
        assert " " not in cid and "_" not in cid


def test_suites_reference_known_checks():
    for name, ids in SUITES.items():
        assert ids, name
        for cid in ids:
            assert cid in CHECKS
    all_ids = suite_ids("all")
    assert len(all_ids) == len(set(all_ids))
    assert set(all_ids) == set(CHECKS)
    with pytest.raises(KeyError):
        suite_ids("torus")


def test_every_check_function_is_registered_under_its_id():
    # a check_* function that SUITES leaves out would never run
    from greenlab import suites

    funcs = {name: fn for name, fn in vars(suites).items()
             if name.startswith("check_") and callable(fn)}
    assert len(CHECKS) == len(funcs) == 33
    for cid, fn in CHECKS.items():
        assert fn is funcs["check_" + cid.replace("-", "_")]


def test_all_runs_the_33_checks_in_the_golden_order():
    golden = Path(__file__).parent / "golden" / "verify_all_seed0.txt"
    ids = [line.split(",")[0] for line in golden.read_text().splitlines()
           if line and not line.startswith("#")][1:]
    assert len(ids) == 33
    assert suite_ids("all") == tuple(ids) == tuple(CHECKS)


def test_suite_results_are_deterministic():
    first = run_suite("axioms")
    second = run_suite("axioms")
    assert [r.id for r in first] == [r.id for r in second]
    assert [r.margin for r in first] == [r.margin for r in second]
    assert all(isinstance(r, CheckResult) for r in first)


def test_every_margin_is_a_float():
    for res in run_suite("all", 0):
        assert type(res.margin) is float, res.id


def test_pure_minimality_fails_on_a_nan_margin(monkeypatch):
    from greenlab import riquier, suites

    def margin(first):
        return riquier.ProbeMargin((0.45, 0.55), 0.5, first, 0.0, 0.1)

    # alone, or after a probe that is violated in earnest
    for entries in ((margin(math.nan),), (margin(-0.5), margin(math.nan))):
        report = riquier.HyperharmonicReport(entries)
        monkeypatch.setattr(suites.riquier, "verify_hyperharmonic",
                            lambda *args: report)
        assert report.violated == entries
        assert not suites.check_pure_minimality().passed


def test_newtonian_suite_passes():
    for res in run_suite("newtonian"):
        assert res.passed, f"{res.id}: {res.detail}"
        assert res.margin >= 0.0


def test_all_checks_pass_without_adaptive_panels(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("adaptive_panels was called")

    # every module that binds the name, as an import by name would
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "greenlab" and \
                hasattr(module, "adaptive_panels"):
            monkeypatch.setattr(module, "adaptive_panels", refuse)
    results = run_suite("all")
    assert len(results) == 33
    assert [r.id for r in results if not r.passed] == []


# quadrature.integrate calls per check whose operator points are known
# before its first call; a return to one call per point fails here
BATCHED_CHECK_CALLS = {
    "coupling-monotonicity": 4,      # V(f), V(g) on each model
    "coupling-linearity": 6,         # V(combo), V(f), V(g) on each model
    "compose-consistency": 6,        # H, then two V(G2 slice), per model
    "v1-identity": 2,                # V(1) under each density
    "green-ode-interval": 3,         # H on every stencil node, per y
    "green-ode-bilaplace": 3,
    "navier": 6,                     # windows, then boundary and jump, per y
    "adjoint-gate": 11,              # grid values, then offsets per point
    # per pair: V(v) on the grid, V(1) for the remainder, the triples of
    # its three probes; the classified pair: its nine triples, then V(v);
    # the broken pair
    "pure-classification": 18,
    # per model, all its measure triples
    "measure-positivity": 2,
    # the nine triples; per subdomain, u at the 15 points and at the three
    # triple points for each of 10 draws
    "riquier-restriction-interval": 34,
    "riquier-restriction-bilaplace": 34,
    # lsc_check's grid, the ten continuity probes, the boundary fixture
    "regularity-interval": 3,
    "regularity-bilaplace": 2,
    # per dimension, the outer call over its three separations and the
    # angular call of each of its outer batches
    "dilation-scaling": 7,
    # both probes' triples
    "strictness": 1,
}


def test_batched_checks_make_one_call_per_point_set(monkeypatch):
    from greenlab import quadrature

    real = quadrature.integrate
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "greenlab" and \
                getattr(module, "integrate", None) is real:
            monkeypatch.setattr(module, "integrate", counting)
    counts = {}
    for cid in BATCHED_CHECK_CALLS:
        calls.clear()
        assert CHECKS[cid](seed=0).passed, cid
        counts[cid] = len(calls)
    # an upper bound: a return to one call per point fails, fewer calls pass
    for cid, pinned in BATCHED_CHECK_CALLS.items():
        assert counts[cid] <= pinned, (cid, counts[cid])


def test_pairing_and_coupling_checks_integrate_on_their_declared_cuts():
    # the bumps declare their kinks; a row hunting them by bisection takes
    # 21 (duality), 46 (coupling-linearity) or 35 (coupling-monotonicity)
    # panels, a cut one at most 6
    from test_suite_digests import recorded_rows

    for cid in ("duality", "coupling-linearity", "coupling-monotonicity"):
        with recorded_rows() as rows:
            assert CHECKS[cid](seed=0).passed, cid
        assert rows, cid
        assert max(r.subdivisions for r in rows) <= 8, cid


# Planted defects: each wraps an operator a check reads through
# greenlab.suites (adjoint_apply, compose_green and _compose_rows through
# greenlab.adjoint) so that one named failing return of the check fires.

def _plant_flipped_verdict(monkeypatch):
    real = suites.probe_divergence

    def probe(f, *args, **kwargs):
        rep = real(f, *args, **kwargs)
        # the p = -1.5 integrand is 4^-1.5 = 0.125 at 4; its report,
        # divergent, reads convergent without its certificate
        if float(f(4.0)) == 0.125:
            assert rep.divergent
            return replace(rep, certificate=None)
        return rep

    monkeypatch.setattr(suites, "probe_divergence", probe)


def _plant_integral_offset(monkeypatch, offset, bound):
    """integrate's value plus offset(tol), with its bound set by bound."""
    real = suites.integrate

    def integrate(f, interval, tol, **kwargs):
        res = real(f, interval, tol=tol, **kwargs)
        val = ExtendedValue.finite(res.value.value + offset(tol),
                                   bound(res.value.error_bound))
        return replace(res, value=val)

    monkeypatch.setattr(suites, "integrate", integrate)


def _plant_truncation(monkeypatch, cutoff, change):
    """coupling_apply of the truncation at cutoff, its value changed."""
    real = suites.coupling_apply

    def apply(model, f, x, **kwargs):
        val = real(model, f, x, **kwargs)
        # y^-0.25 is 100 at 1e-8, so a truncation there reads its cutoff
        if float(np.asarray(f(np.array([1e-8])))[0]) == cutoff:
            return ExtendedValue.finite(change(float(val)))
        return val

    monkeypatch.setattr(suites, "coupling_apply", apply)


def _plant_finite_boundary_value(monkeypatch):
    real = suites.compose_green

    def compose(model, x, y, **kwargs):
        vals = list(real(model, x, y, **kwargs))
        vals[4] = ExtendedValue.finite(1.0)       # H(0.5, 0)
        return vals

    monkeypatch.setattr(suites, "compose_green", compose)


def _plant_finite_adjoint(monkeypatch):
    monkeypatch.setattr(adjoint, "adjoint_apply",
                        lambda *args, **kwargs: ExtendedValue.finite(1.0))


def _plant_lsc_bump(monkeypatch, factor):
    """H at the lsc node (grid[7], grid[4]) times factor: an upward point
    defect, the footprint of a function that is not l.s.c. there."""
    real = adjoint._compose_rows

    def compose(model, xs, ys, tol):
        rows, scalar = real(model, xs, ys, tol)
        grid = model.domain.interior_grid(15)
        value = rows.value
        value[(xs == grid[7]) & (ys == grid[4])] *= factor
        return SimpleNamespace(value=value), scalar

    monkeypatch.setattr(adjoint, "_compose_rows", compose)


def _plant_continuity_jump(monkeypatch, size):
    """H(x, p) + size for p above y, where (x, y) is the first continuity
    probe the regularity checks draw at seed 0: a jump at y."""
    rng = np.random.default_rng(0)
    x, y = float(rng.uniform(0.1, 0.9)), float(rng.uniform(0.1, 0.9))
    real = adjoint.compose_green

    def compose(model, at, p, **kwargs):
        vals = real(model, at, p, **kwargs)
        at, p = np.broadcast_arrays(at, p)
        return tuple(ExtendedValue.finite(v.value + size, v.error_bound)
                     if a == x and q > y else v
                     for a, q, v in zip(np.ravel(at), np.ravel(p), vals))

    monkeypatch.setattr(adjoint, "compose_green", compose)


def _plant_finite_fixture(monkeypatch):
    """H(0.5, 0) = 1 in the continuity probes: the boundary fixture's
    target finite."""
    real = adjoint.compose_green

    def compose(model, at, p, **kwargs):
        vals = real(model, at, p, **kwargs)
        at, p = np.broadcast_arrays(at, p)
        return tuple(ExtendedValue.finite(1.0) if a == 0.5 and q == 0.0
                     else v for a, q, v in zip(np.ravel(at), np.ravel(p),
                                               vals))

    monkeypatch.setattr(adjoint, "compose_green", compose)


def _plant_finite_gate(monkeypatch):
    """V*phi(0) = 1 in the adjoint gate: mass at the origin, which should
    sink the gate, leaves every grid value finite."""
    real = adjoint.adjoint_apply

    def apply(model, f, x, **kwargs):
        vals = real(model, f, x, **kwargs)
        if np.ndim(x) == 0:
            return ExtendedValue.finite(1.0) if x == 0.0 else vals
        return tuple(ExtendedValue.finite(1.0) if p == 0.0 else v
                     for p, v in zip(np.ravel(x), vals))

    monkeypatch.setattr(adjoint, "adjoint_apply", apply)


def _plant_refused_data(monkeypatch, model_id, centre):
    """The adjoint gate refuses the data of model_id whose bump sits at
    centre."""
    real = adjoint.adjoint_gate_check

    def gate(model, phi, grid):
        rep = real(model, phi, grid)
        if model.id == model_id and float(phi(centre)) == 1.0:
            return replace(rep, passed=False)
        return rep

    monkeypatch.setattr(adjoint, "adjoint_gate_check", gate)


def _plant_finite_boundary_identity(monkeypatch):
    """Both routes of the adjoint identity finite at the corner (0, 0)."""
    real = adjoint.adjoint_identity_residual

    def identity(model, x, y):
        if x == y == 0.0:
            return SimpleNamespace(kind="finite", residual=0.0)
        return real(model, x, y)

    monkeypatch.setattr(adjoint, "adjoint_identity_residual", identity)


def _plant_finite_corner(monkeypatch):
    """H(0, 0) = 1 on the composition route of the adjoint identity, while
    the adjoint route still diverges there."""
    real = adjoint.compose_green

    def compose(model, x, y, **kwargs):
        if np.ndim(x) == np.ndim(y) == 0 and x == y == 0.0:
            return ExtendedValue.finite(1.0)
        return real(model, x, y, **kwargs)

    monkeypatch.setattr(adjoint, "compose_green", compose)


def _plant_sweep_entries(monkeypatch, **fields):
    """The mean-value sweep with these fields of every probe entry set:
    coupling=0.0, no coupling term; margin_first=0.0, no violation."""
    real = suites.riquier.verify_hyperharmonic

    def verify(*args):
        rep = real(*args)
        return replace(rep, entries=tuple(replace(e, **fields)
                                          for e in rep.entries))

    monkeypatch.setattr(suites.riquier, "verify_hyperharmonic", verify)


def _plant_failing_probes(monkeypatch):
    """A hyperharmonic test of the harmonic remainder that fails."""
    monkeypatch.setattr(suites.riquier, "verify_hyperharmonic",
                        lambda *args: SimpleNamespace(passed=False))


def _plant_impure_classification(monkeypatch):
    """classify_pair without the "pure" flag."""
    monkeypatch.setattr(suites, "classify_pair", lambda *args: SimpleNamespace(
        flags=frozenset({"hyperharmonic", "superharmonic"})))


def _plant_accepted_broken_pair(monkeypatch):
    """pure_decompose that returns where it should refuse."""
    real = suites.pure_decompose

    def decompose(model, pair, grid):
        try:
            return real(model, pair, grid)
        except suites.ClassificationError:
            return None, np.zeros(len(grid))

    monkeypatch.setattr(suites, "pure_decompose", decompose)


def _plant_mixed_identity(monkeypatch):
    """The adjoint identity reports every finite pair as mixed."""
    monkeypatch.setattr(adjoint, "adjoint_identity_residual",
                        lambda *args: SimpleNamespace(kind="mixed",
                                                      residual=0.0))


def _plant_failing_navier(monkeypatch):
    """A clamped-plate check whose residuals fail."""
    monkeypatch.setattr(suites.bl, "navier_check",
                        lambda y: SimpleNamespace(passed=lambda: False))


def _plant_riquier_on_the_interval_adjoint(monkeypatch):
    """regular_subdomain that accepts the interval adjoint, which has no
    kink density."""
    real = suites.riquier.regular_subdomain

    def regular(model, a, b):
        try:
            return real(model, a, b)
        except suites.ModelDomainError:
            return None

    monkeypatch.setattr(suites.riquier, "regular_subdomain", regular)


def _plant_dilation_drift(monkeypatch, delta):
    """Each radial H times 1 + delta log2(d), d its separation: a drift
    off the d^(4-N) law, by a factor 1 - delta at d = 1/2 and 1 + delta
    at d = 2."""
    nw = suites.nw
    real = nw.riesz_compose

    def compose(n, x, y, **kwargs):
        dom = nw.RadialDomain(n)
        ds = np.linalg.norm(nw._radial_points(dom, y)
                            - nw._radial_points(dom, x), axis=1)
        return tuple(
            ExtendedValue.finite(v.value * (1.0 + delta * math.log2(d)),
                                 v.error_bound)
            for v, d in zip(real(n, x, y, **kwargs), ds.tolist()))

    monkeypatch.setattr(nw, "riesz_compose", compose)


def _plant_reversed_nesting(monkeypatch):
    """The triples of the three nested domains, which come after the six
    drawn ones, in reverse order."""
    real = suites.riquier.biharmonic_measures

    def measures(subs, xs):
        tris = list(real(subs, xs))
        return tris[:6] + tris[6:][::-1]

    monkeypatch.setattr(suites.riquier, "biharmonic_measures", measures)


def _plant_shallow_obstruction(monkeypatch):
    """Every obstruction candidate bottoms out at -10."""
    monkeypatch.setattr(suites.iv, "pure_obstruction", lambda *args: -10.0)


def _plant_closed_form_offset(monkeypatch, offset):
    """The clamped plate's closed-form H plus offset."""
    real = suites.bl.h_closed_form
    monkeypatch.setattr(suites.bl, "h_closed_form",
                        lambda x, y: real(x, y) + offset)


def _plant_damped_tail(monkeypatch):
    """The radial composition integrand divided by max(s, 1): a tail one
    power steeper, which converges in dimension 4."""
    nw = suites.nw
    real = nw._composition_outer

    def composition_outer(n, d, inner_tol):
        outer = real(n, d, inner_tol)

        def damped(r, s):
            return outer(r, s) / np.maximum(s, 1.0)

        damped.rho = outer.rho
        return damped

    monkeypatch.setattr(nw, "_composition_outer", composition_outer)


def _plant_newtonian_kernel(monkeypatch, factor):
    """Each Newtonian model's kernel times factor(|x - y|)."""
    nw = suites.nw
    real = nw.newtonian_model

    def model(n):
        m = real(n)
        raw = m.G1.raw

        def changed(x, y):
            sep = np.asarray(y, dtype=float) - np.asarray(x, dtype=float)
            return raw(x, y) * factor(np.sqrt(np.sum(sep ** 2, axis=-1)))

        kernel = replace(m.G1, raw=changed)
        return replace(m, G1=kernel, G2=kernel)

    monkeypatch.setattr(nw, "newtonian_model", model)


def _plant_scaled_g1(monkeypatch, delta):
    """The interval model's first kernel, as the kink probe reads it,
    times 1 + delta."""
    real = suites.iv._g1_raw
    monkeypatch.setattr(suites.iv, "_g1_raw",
                        lambda x, y: (1.0 + delta) * real(x, y))


def _plant_scaled_density(monkeypatch, delta):
    """The interval model's coupling density y times 1 + delta."""
    iv = suites.iv
    real = iv.interval_model()
    model = replace(real, mu=replace(
        real.mu, density=lambda y: (1.0 + delta) * real.mu.density(y)))
    monkeypatch.setattr(iv, "interval_model", lambda: model)


PLANTED = {
    "flipped-verdict": (
        "power-verdicts", _plant_flipped_verdict,
        "exponent -1.50 misclassified as finite"),
    "value-off-by-ten-tol": (
        "refinement-monotonicity",
        lambda mp: _plant_integral_offset(mp, lambda tol: 10.0 * tol,
                                          lambda bound: bound),
        "error 1.00e-03 exceeds requested 1e-04"),
    "bound-of-zero": (
        "refinement-monotonicity",
        lambda mp: _plant_integral_offset(mp, lambda tol: 0.5 * tol,
                                          lambda bound: 0.0),
        "error bound 0.00e+00 below true error 5.00e-05"),
    "halved-truncation": (
        "monotone-convergence",
        lambda mp: _plant_truncation(mp, 8.0, lambda v: 0.5 * v),
        "truncation at 8 decreased the integral"),
    "overshooting-truncation": (
        "monotone-convergence",
        lambda mp: _plant_truncation(mp, 2.0, lambda v: v + 1.0),
        "truncated integral overshoots the limit at 2"),
    "undented-sweep": (
        "pure-minimality",
        lambda mp: _plant_sweep_entries(mp, margin_first=0.0),
        "dent of 0.001 at 0.5 leaves every probe hyperharmonic; first "
        "margin 0.00e+00"),
    "reversed-nesting": (
        "measure-positivity", _plant_reversed_nesting,
        "coupling mass does not grow over nested domains: 0.0972, "
        "0.0556, 0.0250"),
    "finite-boundary-value": (
        "boundary-divergence", _plant_finite_boundary_value,
        "H(0.5, 0) came out finite"),
    "finite-adjoint": (
        "adjoint-blowup", _plant_finite_adjoint,
        "V*phi(0) came out finite for phi(0) = 1"),
    **{f"lsc-point-defect-{m}": (
        f"regularity-{m}", lambda mp: _plant_lsc_bump(mp, 1.1),
        "semicontinuity gap stalls at (0.5,0.307143)")
       for m in ("interval", "bilaplace")},
    **{f"continuity-jump-{m}": (
        f"regularity-{m}", lambda mp: _plant_continuity_jump(mp, 1e-5),
        "continuity probe at (0.610,0.316) returned violated")
       for m in ("interval", "bilaplace")},
    "finite-boundary-fixture": (
        "regularity-interval", _plant_finite_fixture,
        "the boundary fixture reported violated instead of blow-up"),
    "finite-gate-at-origin": (
        "adjoint-gate", _plant_finite_gate,
        "mass at the origin failed to sink the gate"),
    "refused-interior-data": (
        "adjoint-gate",
        lambda mp: _plant_refused_data(mp, "interval", 0.5),
        "the gate refused interior data"),
    "refused-clamped-plate-data": (
        "adjoint-gate",
        lambda mp: _plant_refused_data(mp, "bilaplace1d", 0.5),
        "the gate refused clamped-plate data"),
    "finite-corner": (
        "consistent-divergence", _plant_finite_corner,
        "routes disagree about divergence at x = 0"),
    "finite-boundary-identity": (
        "consistent-divergence", _plant_finite_boundary_identity,
        "the routes report finite at x = 0, not consistent-divergence"),
    "shallow-obstruction": (
        "obstruction-negativity", _plant_shallow_obstruction,
        "candidate (a,b)=(0,0) bottoms out at -1.00e+01, not below -1e3"),
    "not-strict": (
        "strictness", lambda mp: _plant_sweep_entries(mp, coupling=0.0),
        "no strict margin on (0.25, 0.75) at x = 0.5"),
    "failing-remainder-probes": (
        "pure-classification", _plant_failing_probes,
        "harmonic remainder fails its probes at (a,b)=(0,0)"),
    "impure-classification": (
        "pure-classification", _plant_impure_classification,
        "pure pair classified as ['hyperharmonic', 'superharmonic']"),
    "accepted-broken-pair": (
        "pure-classification", _plant_accepted_broken_pair,
        "the scaled-down pair was not rejected"),
    **{f"mixed-identity-{m}": (
        f"adjoint-identity-{m}", _plant_mixed_identity,
        "(0.5,0.25) unexpectedly mixed")
       for m in ("interval", "bilaplace")},
    "failing-navier": (
        "navier", _plant_failing_navier,
        "clamped-plate residuals fail at y = 0.25"),
    "riquier-on-the-interval-adjoint": (
        "adjoint-riquier", _plant_riquier_on_the_interval_adjoint,
        "the interval adjoint, which has no kink density, was given a "
        "Riquier problem"),
    "closed-form-offset": (
        "h-symmetry", lambda mp: _plant_closed_form_offset(mp, 1e-7),
        "closed-form gap 1.00e-07, above 1e-8"),
    "damped-tail": (
        "composition-tail", _plant_damped_tail,
        "composition tail exponent -2.000 in dimension 4 (finite) against "
        "-3.000 in dimension 5 (finite)"),
}

# Planted defects of a size, which a check catches through its tolerance,
# so that it fails with margin tol - worst rather than -1.  Per check: the
# plant(monkeypatch, size), a size just past the smallest caught and a
# smaller one that passes, and the failing detail and margin.
CAUGHT_BY_TOLERANCE = {
    # the spread over the three separations is about 2 delta against 1e-3
    "dilation-scaling": (
        _plant_dilation_drift, 5.1e-4, 4.9e-4,
        "H times distance^(N-4) drifts by 1.02e-03 relative over a "
        "factor-4 range", -2.0e-5),
    # the kernel times 1 + delta: the flux is off unity by delta
    "gauss-flux": (
        lambda mp, delta: _plant_newtonian_kernel(mp, lambda d: 1.0 + delta),
        1.1e-6, 1e-6, "kernel flux through spheres off unity by 1.10e-06",
        -9.997188e-8),
    # the slope jump times y is off -1 by delta
    "kink-law": (
        _plant_scaled_g1, 1.1e-6, 9.9e-7,
        "slope jump times y sits within 1.10e-06 of -1", -1.000377e-7),
    # V(1) is off (1 - x)/2 by delta (1 - x)/2, most at x = 0
    "v1-identity": (
        _plant_scaled_density, 2.1e-6, 1.9e-6,
        "reference density residual 1.05e-06; control density residual "
        "9.99e-16", -5.0e-8),
    # the kernel times |x - y|^p: the tail exponent of V(1) is off +1 by p
    "radial-divergence": (
        lambda mp, p: _plant_newtonian_kernel(mp, lambda d: d ** p),
        0.06, 0.04, "V(1) certified divergent in both dimensions; tail "
        "exponent within 6.00e-02 of +1", -0.01),
}

# The number of checks a planted defect is shown to fail.  It only rises:
# a change that lowers it says why.
PLANTED_FLOOR = 25


@pytest.mark.parametrize("defect", PLANTED)
def test_a_planted_defect_fails_its_check(defect, monkeypatch):
    cid, plant, detail = PLANTED[defect]
    assert CHECKS[cid](seed=0).passed, cid
    plant(monkeypatch)
    res = CHECKS[cid](seed=0)
    assert (res.id, res.passed, res.margin, res.detail) == \
        (cid, False, -1.0, detail)


@pytest.mark.parametrize("cid", CAUGHT_BY_TOLERANCE)
def test_a_planted_drift_fails_its_check_by_its_tolerance(cid, monkeypatch):
    plant, caught, passing, detail, margin = CAUGHT_BY_TOLERANCE[cid]
    with monkeypatch.context() as mp:
        plant(mp, passing)
        assert CHECKS[cid](seed=0).passed, cid
    plant(monkeypatch, caught)
    res = CHECKS[cid](seed=0)
    assert (res.id, res.passed, res.detail) == (cid, False, detail)
    assert res.margin == pytest.approx(margin, rel=1e-6)


def test_planted_defects_fail_at_least_the_floor_of_checks(monkeypatch):
    plants = [(cid, plant) for cid, plant, _ in PLANTED.values()]
    plants += [(cid, lambda mp, plant=plant, size=caught: plant(mp, size))
               for cid, (plant, caught, *_) in CAUGHT_BY_TOLERANCE.items()]
    failed = set()
    for cid, plant in plants:
        with monkeypatch.context() as mp:
            plant(mp)
            res = CHECKS[cid](seed=0)
        assert not res.passed and res.margin < 0.0, (cid, res)
        failed.add(cid)
    assert len(failed) >= PLANTED_FLOOR, sorted(set(CHECKS) - failed)


def test_a_check_that_raises_fails_alone(monkeypatch):
    def planted(seed=0):
        raise RuntimeError("planted")

    monkeypatch.setitem(suites.CHECKS, "gauss-flux", planted)
    results = {r.id: r for r in run_suite("newtonian")}
    res = results.pop("gauss-flux")
    assert not res.passed and res.margin == -math.inf
    assert res.detail == "raised RuntimeError: planted"
    assert [r.passed for r in results.values()] == [True] * 3
