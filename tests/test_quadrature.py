import math
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from greenlab import quadrature, values
from greenlab.coupling import coupling_apply
from greenlab.errors import (GreenLabError, PreconditionError,
                             StencilError, UndeclaredSingularityError)
from greenlab.kernels import Fn, StencilSpec
from greenlab.models import get_model
from greenlab.quadrature import (PROBE_DEPTH, _G_WEIGHTS, _GK_NODES, _K_WEIGHTS, _gk15,
                                 _shell_bounds, integrate, integrate_radial,
                                 probe_divergence, probe_tail,
                                 sphere_surface_area)
from greenlab.riquier import basis_fit_residual, fd_residual
from greenlab.values import (_MIN_SHELLS_TO_RESOLVE, DivergenceCertificate,
                             _decide, _fit_slope, _window_fit)


def _vec(f):
    f.vectorized = True
    return f


def test_polynomial_exact():
    res = integrate(_vec(lambda y: np.asarray(y) ** 3), (0.0, 1.0), tol=1e-12)
    assert float(res.value) == pytest.approx(0.25, abs=1e-14)


def test_log_endpoint_singularity():
    res = integrate(_vec(lambda y: -np.log(np.asarray(y))), (0.0, 1.0),
                    singular_points=(0.0,), tol=1e-10)
    assert float(res.value) == pytest.approx(1.0, abs=1e-9)
    assert res.value.error_bound >= abs(float(res.value) - 1.0)


def test_algebraic_endpoint_singularity():
    res = integrate(_vec(lambda y: np.asarray(y) ** -0.5), (0.0, 1.0),
                    singular_points=(0.0,), tol=1e-9)
    assert float(res.value) == pytest.approx(2.0, abs=1e-8)


def test_divergent_integral_is_certified():
    res = integrate(_vec(lambda y: 1.0 / np.asarray(y)), (0.0, 1.0),
                    singular_points=(0.0,), tol=1e-9)
    assert not res.value.is_finite
    cert = res.value.certificate
    assert cert.estimated_exponent == pytest.approx(-1.0, abs=0.05)
    assert cert.side == "right"


def test_breakpoints_resolve_kinks():
    res = integrate(_vec(lambda y: np.abs(np.asarray(y) - 0.3)), (0.0, 1.0),
                    tol=1e-12, breakpoints=(0.3,))
    exact = 0.5 * (0.3 ** 2 + 0.7 ** 2)
    assert float(res.value) == pytest.approx(exact, abs=1e-13)


def test_error_bounds_honest_on_smooth_mixtures():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a, b, c = rng.uniform(0.1, 2.0, 3)

        def f(y, a=a, b=b, c=c):
            y = np.asarray(y, dtype=float)
            return a + b * y + c * (1.0 + np.sin(3.0 * y))

        exact = a + b / 2.0 + c * (1.0 + (1.0 - math.cos(3.0)) / 3.0)
        prev_err = math.inf
        for tol in (1e-5, 1e-7, 1e-9):
            res = integrate(_vec(f), (0.0, 1.0), tol=tol)
            err = abs(float(res.value) - exact)
            assert err <= tol
            assert err <= res.value.error_bound + 1e-15
            assert err <= prev_err + tol
            prev_err = err


def test_error_bounds_honest_on_pure_powers():
    rng = np.random.default_rng(5)
    for _ in range(8):
        a = rng.uniform(0.1, 3.0)
        p = rng.uniform(-0.9, -0.1)

        def f(y, a=a, p=p):
            return a * np.asarray(y, dtype=float) ** p

        exact = a / (p + 1.0)
        prev_err = math.inf
        for tol in (1e-6, 1e-8, 1e-10):
            res = integrate(_vec(f), (0.0, 1.0), singular_points=(0.0,),
                            tol=tol)
            err = abs(float(res.value) - exact)
            assert err <= tol
            assert err <= res.value.error_bound + 1e-15
            assert err <= prev_err + tol
            prev_err = err


def test_sign_change_near_singularity_is_refused():
    from greenlab.errors import PreconditionError

    def f(y):
        y = np.asarray(y, dtype=float)
        return y ** -0.5 - 40.0 * y

    with pytest.raises(PreconditionError):
        integrate(_vec(f), (0.0, 1.0), singular_points=(0.0,), tol=1e-9)


def test_power_family_verdicts():
    for p, want in ((-1.5, True), (-1.25, True), (-1.0, True),
                    (-0.9, False), (-0.5, False)):
        rep = probe_divergence(_vec(lambda y, p=p: np.asarray(y) ** p),
                               0.0, side="right")
        assert rep.divergent is want
        assert rep.estimated_exponent == pytest.approx(p, abs=0.05)


def test_fit_slope_is_the_least_squares_slope():
    rng = np.random.default_rng(23)
    for _ in range(500):
        # a probe window: up to 8 consecutive shells, zero shells left out
        start = int(rng.integers(0, 40))
        ks = [k for k in range(start, start + 8) if rng.uniform() > 0.2]
        if len(ks) < 2:
            continue
        logs = list(rng.uniform(-3.0, 3.0) * np.array(ks)
                    + rng.normal(0.0, 1e-3, len(ks)) + rng.uniform(-60, 60))
        want = np.polyfit(np.array(ks, dtype=float), logs, 1)[0]
        assert abs(_fit_slope(ks, logs) - want) <= 1e-12
    # one shell, or a window whose shells all sit at one k, has no slope
    assert _fit_slope([5], [2.0]) == 0.0
    assert _fit_slope([7, 7, 7], [1.0, 3.0, -2.0]) == 0.0


def test_window_fit_and_certificates_read_one_divergence_rule():
    # exact power-law shells: log2 |shell| falls by p + 1 a shell toward a
    # point and rises by p + 1 a block out to a tail, so the fit reads p
    critical = {}
    for tail, powers in ((False, (-0.9, -0.97, -1.0, -1.1)),
                         (True, (-0.9, -1.0, -1.03, -1.1))):
        for p in powers:
            logs = [(p + 1.0) * (k if tail else -k) + 3.0 for k in range(12)]
            mags = [2.0 ** g for g in logs]
            exponent, crit, _ = _window_fit(mags, logs, 11, 1.0, tail)
            assert exponent == pytest.approx(p, abs=1e-12)
            # a trace that never blows up leaves the exponent to decide
            loc, side = ("tail", "radial-tail") if tail else (0.0, "right")
            try:
                DivergenceCertificate(loc, side, exponent, ((1.0, 1.0),))
            except ValueError:
                accepted = False
            else:
                accepted = True
            assert accepted is crit
            critical[tail, p] = crit
    assert [key for key, crit in critical.items() if not crit] == \
        [(False, -0.9), (True, -1.1)]


def test_window_fit_declines_a_convergent_fit_whose_ratios_do_not_contract():
    # x^-0.5 shells, the last one raised above its neighbour: the exponent
    # is convergent, but a ratio >= 1 leaves nothing to extrapolate
    mags = [2.0 ** (-k / 2) for k in range(12)]
    mags[11] = 1.2 * mags[10]
    exponent, critical, remainder = _window_fit(
        mags, [math.log2(m) for m in mags], 11, 1.0, False)
    assert exponent == pytest.approx(-0.5636, abs=1e-4)
    assert critical is False and remainder is None


def _shell_sequence(mags):
    # the |shell|, log2|shell| and (zero) errors of a synthetic walk
    return (list(mags), [math.log2(m) if m > 0.0 else 0.0 for m in mags],
            [0.0] * len(mags))


def _decisions(mags, sign=1.0, tol=1e-10, tail=False):
    # _decide on each prefix the walker asks about, from shell 12 on
    mags, logs, errs = _shell_sequence(mags)
    return {n: _decide(mags[:n], logs[:n], errs[:n], sign, tol, tail)
            for n in range(_MIN_SHELLS_TO_RESOLVE, len(mags) + 1)}


def test_decide_resolves_geometric_shells_at_the_first_shell_asked():
    # shells 2^-k: every ratio is 1/2, so the window reads slope -1, and
    # Wynn's epsilon gives the partial sums' limit 2 exactly: the unseen
    # remainder is the geometric tail 2^-11, and its error the floor of
    # 5 eps of the limit
    floor = 5.0 * sys.float_info.epsilon * 2.0
    for tail, exponent in ((False, 0.0), (True, -2.0)):
        fit = _decisions([2.0 ** -k for k in range(16)], tail=tail)[12]
        assert fit == (exponent, False, (2.0 ** -11, floor), True)
    fit = _decisions([2.0 ** -k for k in range(12)], sign=-1.0)[12]
    assert fit[2] == (-2.0 ** -11, floor)


def test_decide_waits_for_the_verdict_on_constant_shells():
    # equal shells are 1/d toward an endpoint and 1/r at a tail: no ratio
    # contracts, so shells 12-15 end nothing, and the fit at 16 is critical
    for tail in (False, True):
        decisions = _decisions([0.75] * 16, tail=tail)
        assert [decisions[n] for n in range(12, 16)] == [None] * 4
        assert decisions[16] == (-1.0, True, None, True)


def test_decide_extrapolates_shells_with_a_log_factor():
    # d^-0.5 log(1/d) toward 0 gives shells about r^k (k + 1), r = 2^-0.5,
    # whose unseen remainder sums to r^n ((n + 1) - n r) / (1 - r)^2.
    # Wynn's epsilon meets both tolerances at the first shell asked, where
    # the log factor still bends the window's exponent below -0.5
    r = 2.0 ** -0.5
    mags = [r ** k * (k + 1) for k in range(PROBE_DEPTH)]
    for tol in (1e-3, 1e-6):
        decisions = _decisions(mags, sign=-1.0, tol=tol)
        n = min(n for n, fit in decisions.items() if fit is not None)
        exponent, critical, (rem, err), resolved = decisions[n]
        assert n == _MIN_SHELLS_TO_RESOLVE
        assert not critical and resolved and -0.7 < exponent < -0.6
        assert err <= tol
        assert abs(rem + r ** n * ((n + 1) - n * r) / (1.0 - r) ** 2) <= err


def test_decide_needs_enough_nonzero_shells_in_the_window():
    # three zeros among the last eight shells leave five nonzero: no fit,
    # though the nonzero shells alone are critical
    mags = [1.0] * 16
    for k in (9, 11, 13):
        mags[k] = 0.0
    assert _decisions(mags, tol=math.inf)[16] is None
    mags[13] = 1.0
    assert _decisions(mags)[16] == (-1.0, True, None, True)


def test_decide_fits_no_window_whose_ratios_do_not_contract(monkeypatch):
    # x^-0.5 shells, the last one raised above its neighbour, before the
    # verdict: no fit is taken, however loose the tolerance
    calls = _counting_fits(monkeypatch)
    for n in range(12, 17):
        mags = [2.0 ** (-k / 2) for k in range(n)]
        mags[-1] = 1.2 * mags[-2]
        mags, logs, errs = _shell_sequence(mags)
        assert _decide(mags, logs, errs, 1.0, math.inf, False) is None
    # only from the verdict on is the window fitted, and its convergent
    # exponent neither ends the walk nor leaves a remainder to meet tol
    assert calls == [15]


def test_decide_ends_a_walk_on_eight_zero_shells():
    # asked after each zero shell, before shell 12 too: the eighth zero in
    # a row ends the walk with nothing unseen, and the exponent of the
    # latest window with six nonzero shells (2^-k: slope -1, exponent 0)
    mags, logs, errs = _shell_sequence([2.0 ** -k for k in range(6)]
                                       + [0.0] * 8)
    errs = [1e-9] * len(mags)
    for n in range(7, 14):
        assert _decide(mags[:n], logs[:n], errs[:n], 1.0, 1e-10, False) is None
    assert _decide(mags, logs, errs, 1.0, 1e-10, False) == \
        (0.0, False, (0.0, 0.0), True)
    # two nonzero shells then eight zeros: no window fits, exponent nan
    mags, logs, errs = _shell_sequence([1.0, 0.5] + [0.0] * 8)
    exponent, divergent, remainder, resolved = _decide(
        mags, logs, errs, 1.0, 1e-10, True)
    assert math.isnan(exponent)
    assert (divergent, remainder, resolved) == (False, (0.0, 0.0), True)


def test_decide_reads_the_latest_fit_at_a_non_finite_end():
    # shells 2^-k up to a non-finite sample or a blow-up: divergent, with
    # the exponent of the latest window that fits, and no remainder
    mags, logs, errs = _shell_sequence([2.0 ** -k for k in range(10)])
    assert _decide(mags, logs, errs, 1.0, 1e-10, False, "inf") == \
        (0.0, True, None, True)
    # five shells fill no window: the exponent is nan
    mags, logs, errs = _shell_sequence([1.0] * 5)
    exponent, divergent, remainder, resolved = _decide(
        mags, logs, errs, 1.0, 1e-10, False, "inf")
    assert math.isnan(exponent)
    assert (divergent, remainder, resolved) == (True, None, True)


def test_decide_at_depth_takes_the_latest_contracting_remainder():
    # 2^-k shells whose last one rises: the last window fits but does not
    # contract, so the remainder is the window ending one shell earlier
    mags = [2.0 ** -k for k in range(PROBE_DEPTH)]
    mags[-1] = 1.2 * mags[-2]
    mags, logs, _ = _shell_sequence(mags)
    errs = [1e-20] * PROBE_DEPTH
    last = _window_fit(mags, logs, PROBE_DEPTH - 1, 1.0, False)
    earlier = _window_fit(mags, logs, PROBE_DEPTH - 2, 1.0, False)
    # the shells' own errors are not the remainder's: its error is the
    # floor of 5 eps of the limit 2
    floor = 5.0 * sys.float_info.epsilon * 2.0
    assert last[2] is None and earlier[2] == (2.0 ** -46, floor)
    assert _decide(mags, logs, errs, 1.0, 0.0, False, "depth") == \
        (last[0], False, earlier[2], False)


def test_decide_at_depth_falls_back_on_the_last_shell():
    # d^-0.5 shells alternately raised and lowered: every window fits a
    # convergent exponent, but no window's ratios contract, so the best
    # effort is the last shell again, with the sign, and an error that
    # covers it twice over; the walker adds the shells' errors once
    mags = [2.0 ** (-k / 2) * (1.0 + 0.9 * (-1) ** k)
            for k in range(PROBE_DEPTH)]
    mags, logs, _ = _shell_sequence(mags)
    errs = [1e-12] * PROBE_DEPTH
    exponent, divergent, (rem, err), resolved = _decide(
        mags, logs, errs, -1.0, 0.0, False, "depth")
    assert exponent == _window_fit(mags, logs, PROBE_DEPTH - 1, -1.0,
                                   False)[0]
    assert -1.0 < exponent < 0.0
    assert not divergent and not resolved
    assert rem == -mags[-1]
    assert err == mags[-1] + mags[-1]


def test_a_resolved_walk_counts_its_shell_errors_once():
    # x^-0.5 resolves at shell 12: its error is the shells' own errors
    # once, plus the error of the remainder Wynn's epsilon extrapolates
    rep = probe_divergence(_vec(lambda y: np.asarray(y) ** -0.5), 0.0,
                           tol=1e-10)
    assert rep.resolved and rep.shells == 12
    outs, _ = _gk15(_vec(lambda y: np.asarray(y) ** -0.5),
                    [2.0 ** (-k - 1) for k in range(12)],
                    [2.0 ** -k for k in range(12)])
    mags = [abs(v) for v, _ in outs]
    _, _, (rem, rem_err) = _window_fit(mags, [math.log2(m) for m in mags],
                                       11, 1.0, False)
    assert rep.error == sum(e for _, e in outs) + rem_err
    assert rep.value == sum(v for v, _ in outs) + rem


@pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
@pytest.mark.parametrize("form", ["1/(1+x^2) on (0, inf)",
                                  "x^-0.5 - x^1.5 on (0, 1)"])
def test_bound_covers_the_error_past_a_shell_walk(form, tol):
    # a tail and an endpoint whose shells are geometric plus a second
    # power: the remainder past the walk's last shell must be bounded too
    if form.startswith("1/"):
        res = integrate(_vec(lambda x: 1.0 / (1.0 + np.asarray(x) ** 2)),
                        (0.0, math.inf), tol=tol)
        exact = oracles.TAIL_LORENTZ
    else:
        res = integrate(_vec(lambda z: np.asarray(z) ** -0.5
                             - np.asarray(z) ** 1.5),
                        (0.0, 1.0), singular_points=(0.0,), tol=tol)
        exact = oracles.unit_power(-0.5) - oracles.unit_power(1.5)
    assert res.converged
    assert res.value.error_bound >= abs(res.value.value - exact)


def test_sign_noise_within_the_shell_error_passes_and_beyond_raises(
        monkeypatch):
    # shell 5 of an x^-0.5 walk replaced by a shell of the other sign: one
    # of at most 1e3 times its own error is noise, one just above that is
    # a sign change
    gk15 = quadrature._gk15
    err = 1e-9
    limit = 1e3 * (err + 1e-300)
    f = _vec(lambda y: np.asarray(y) ** -0.5)
    for val, raises in ((-limit, False), (-math.nextafter(limit, 1.0), True)):
        def noisy(fv, a, b, rows=None, val=val):
            outs, holes = gk15(fv, a, b, rows)
            if a[0] == 0.5:             # the run of shells 0-15
                outs[5] = (val, err)
            return outs, holes

        with monkeypatch.context() as patch:
            patch.setattr(quadrature, "_gk15", noisy)
            if raises:
                with pytest.raises(PreconditionError, match="changes sign"):
                    probe_divergence(f, 0.0)
            else:
                rep = probe_divergence(f, 0.0)
                assert not rep.divergent and rep.trace[5][1] < rep.trace[4][1]


def test_tail_verdicts():
    grows = probe_tail(_vec(lambda y: 1.0 / np.asarray(y)), start=1.0)
    decays = probe_tail(_vec(lambda y: np.asarray(y) ** -2.0), start=1.0)
    assert grows.divergent
    assert not decays.divergent
    assert grows.estimated_exponent == pytest.approx(-1.0, abs=0.05)
    assert decays.estimated_exponent == pytest.approx(-2.0, abs=0.05)


def test_sphere_surface_area():
    assert sphere_surface_area(5) == pytest.approx(oracles.sphere_area(5),
                                                   rel=1e-12)
    assert sphere_surface_area(6) == pytest.approx(oracles.sphere_area(6),
                                                   rel=1e-12)


def test_integrate_radial_exponential_profile():
    # weight sigma_4 s^4 against exp(-s): sigma_4 * Gamma(5) = sigma_4 * 24
    res = integrate_radial(_vec(lambda s: np.exp(-np.asarray(s))), 5,
                           upper=None, tol=1e-10)
    assert float(res.value) == pytest.approx(oracles.sphere_area(5) * 24.0,
                                             rel=1e-6)


def test_integrate_radial_certifies_fat_tail():
    res = integrate_radial(_vec(lambda s: 1.0 / (1.0 + np.asarray(s)) ** 5),
                           5, upper=None, tol=1e-8)
    assert not res.value.is_finite
    assert res.value.certificate.side == "radial-tail"


def test_integrate_radial_rejects_low_dimension():
    from greenlab.errors import ModelDomainError
    with pytest.raises(ModelDomainError):
        integrate_radial(_vec(lambda s: np.exp(-np.asarray(s))), 4)


def _one_panel(fv, a, b):
    """The G7/K15 rule on one panel, written out as the reference."""
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    fx = np.asarray(fv(mid + half * _GK_NODES), dtype=float)
    g_weights = np.zeros(len(_GK_NODES))
    g_weights[1::2] = _G_WEIGHTS
    # one elementwise product per rule, summed along the row
    k15 = half * float((_K_WEIGHTS * fx).sum())
    g7 = half * float((g_weights * fx).sum())
    diff = abs(k15 - g7)
    err = min(diff, (200.0 * diff) ** 1.5) if diff > 0.0 else 0.0
    return k15, max(err, 50.0 * np.finfo(float).eps * abs(k15))


def _bits(outcome):
    return tuple(float(v).hex() for v in outcome)


def test_gk15_batch_matches_one_panel_rule():
    fv = _vec(lambda y: np.where(np.asarray(y) > 1.4, np.nan,
                                 np.exp(np.sin(7.0 * np.asarray(y)))
                                 * np.log1p(np.asarray(y))))
    rng = np.random.default_rng(11)
    a = rng.uniform(0.0, 1.0, 200)
    b = a + rng.uniform(1e-6, 0.5, 200)
    batch, holes = _gk15(fv, a, b)
    for i, (lo, hi, out) in enumerate(zip(a, b, batch)):
        (one,), one_holes = _gk15(fv, [lo], [hi])
        if hi <= 1.4:
            assert i not in holes and one_holes == {}
            assert _bits(out) == _bits(one) == _bits(_one_panel(fv, lo, hi))
            continue
        # a panel reaching the hole names its first non-finite node
        nodes = 0.5 * (lo + hi) + 0.5 * (hi - lo) * _GK_NODES
        if np.all(nodes <= 1.4):
            continue
        assert holes[i] == one_holes[0] == nodes[np.argmax(nodes > 1.4)]


def test_gk15_bits_do_not_depend_on_the_batch():
    fv = _vec(lambda y: np.exp(np.sin(40.0 * np.asarray(y)))
              / (1.0 + np.asarray(y) ** 2))
    rng = np.random.default_rng(17)
    a = rng.uniform(-3.0, 3.0, 4096)
    b = a + 10.0 ** rng.uniform(-9.0, 0.5, 4096)
    one = [_bits(_gk15(fv, [lo], [hi])[0][0]) for lo, hi in zip(a, b)]
    assert one == [_bits(_one_panel(fv, lo, hi)) for lo, hi in zip(a, b)]
    for size in (1, 2, 7, 8, 16, 17, 255, 4096):
        batch, holes = _gk15(fv, a[:size], b[:size])
        assert [_bits(out) for out in batch] == one[:size] and holes == {}


def _rule_diff(fv, a, b):
    """|K15 - G7| on one panel, both rules summed as in _one_panel."""
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    fx = np.asarray(fv(mid + half * _GK_NODES), dtype=float)
    g_weights = np.zeros(len(_GK_NODES))
    g_weights[1::2] = _G_WEIGHTS
    return abs(half * float((_K_WEIGHTS * fx).sum())
               - half * float((g_weights * fx).sum()))


def _assert_plain_floats(outs):
    for out in outs:
        assert type(out) is tuple and len(out) == 2
        assert type(out[0]) is float and type(out[1]) is float


def test_gk15_zero_difference_gives_a_zero_error():
    zero = _vec(lambda y: np.zeros(np.shape(y)))
    outs, holes = _gk15(zero, [0.0, -2.0], [1.0, 5.0])
    assert outs == [(0.0, 0.0), (0.0, 0.0)] and holes == {}
    assert [_bits(o) for o in outs] == [_bits(_one_panel(zero, 0.0, 1.0)),
                                        _bits(_one_panel(zero, -2.0, 5.0))]
    _assert_plain_floats(outs)


def test_gk15_shrink_switches_on_below_200_to_the_minus_3():
    # G7 is not exact on y^14, so a scaled y^14 sets the diff of [0, 1]
    unit = _rule_diff(_vec(lambda y: np.asarray(y) ** 14), 0.0, 1.0)
    for share in (0.25, 0.99, 1.01, 4.0):
        s = share * 200.0 ** -3 / unit
        fv = _vec(lambda y, s=s: s * np.asarray(y) ** 14)
        ref = _bits(_one_panel(fv, 0.0, 1.0))
        for size in (2, 17):
            outs, holes = _gk15(fv, [0.0] * size, [1.0] * size)
            assert [_bits(o) for o in outs] == [ref] * size and holes == {}
            _assert_plain_floats(outs)
        diff = _rule_diff(fv, 0.0, 1.0)
        err = outs[0][1]
        if share < 1.0:
            assert err == (200.0 * diff) ** 1.5 < diff
        else:
            assert err == diff < (200.0 * diff) ** 1.5


def test_gk15_error_of_a_huge_finite_difference_is_the_difference():
    # |K15 - G7| far above 1.6e203, where (200 diff)^1.5 overflows a float
    fv = _vec(lambda y: 1e210 * np.exp(30.0 * np.asarray(y)))
    res = integrate(fv, (0.0, 1.0), tol=1e300)
    exact = 1e210 * math.expm1(30.0) / 30.0
    assert math.isfinite(res.value.value) and res.converged
    assert abs(res.value.value - exact) <= res.value.error_bound
    diff = _rule_diff(fv, 0.0, 1.0)
    assert diff > 1e204 and res.value.error_bound == diff


def test_gk15_overflowing_rule_sums_of_finite_samples_are_inf():
    # past the array switch, K15 - G7 is inf - inf
    big = _vec(lambda y: np.full(np.shape(y), 1e308))
    with np.errstate(over="ignore"):
        refs = [_one_panel(big, -1.0, 1.0), _one_panel(big, 0.0, 1e-300)]
        for size in (1, 17, quadrature._ARRAY_PANELS):
            outs, holes = _gk15(big, [-1.0, 0.0] * size, [1.0, 1e-300] * size)
            assert [tuple(out) for out in outs] == refs * size \
                == [(math.inf, math.inf)] * 2 * size
            assert holes == {}
            if 2 * size <= quadrature._ARRAY_PANELS:
                _assert_plain_floats(outs)


def test_gk15_non_finite_panel_between_finite_ones():
    fv = _vec(lambda y: np.where(np.abs(np.asarray(y) - 0.5) < 1e-2, np.nan,
                                 np.cos(np.asarray(y))))
    a, b = [0.0, 0.45, 0.8], [0.3, 0.55, 1.0]
    for size in (1, 16):
        outs, holes = _gk15(fv, a * size, b * size)
        assert holes == {3 * k + 1: 0.5 for k in range(size)}
        first, _, last = outs[:3]
        assert _bits(first) == _bits(_one_panel(fv, 0.0, 0.3))
        assert _bits(last) == _bits(_one_panel(fv, 0.8, 1.0))
        _assert_plain_floats(outs)


def test_gk15_infinite_samples_raise_no_warning():
    # an inf sample off the G7 nodes would meet a zero G7 weight in inf * 0;
    # the test run turns that RuntimeWarning into an error
    fv = _vec(lambda y: np.where(np.asarray(y) == 0.0, np.inf, 1.0))
    for size in (1, 17):
        outs, holes = _gk15(fv, [-1.0] * size, [1.0] * size)
        assert holes == dict.fromkeys(range(size), 0.0)
    # the centre node is a G7 node; the first node of [-1, 1] is not
    first = float(_GK_NODES[0])
    fv = _vec(lambda y: np.where(np.asarray(y) == first, -np.inf, 1.0))
    for size in (1, 17):
        assert _gk15(fv, [-1.0] * size, [1.0] * size)[1] == \
            dict.fromkeys(range(size), first)


def test_gk15_leaves_the_integrands_array_as_it_returned_it():
    # a non-finite sample is reported, not written over: not in an array
    # the integrand keeps, nor in a read-only one
    returned = []

    def keeps(y):
        out = np.where(np.asarray(y) == 0.0, np.inf, 1.0)
        returned.append((out, out.copy()))
        return out

    assert _gk15(_vec(keeps), [-1.0, 0.0], [1.0, 1.0])[1] == {0: 0.0}
    (out, copy), = returned
    assert np.array_equal(out, copy)
    read_only = _vec(lambda y: np.broadcast_to(np.inf, np.shape(y)))
    first = float(_GK_NODES[0])
    assert _gk15(read_only, [-1.0, 0.0], [1.0, 1.0])[1] == \
        {0: first, 1: 0.5 + 0.5 * first}
    with pytest.raises(UndeclaredSingularityError):
        integrate(read_only, (0.0, 1.0))


def _holed(g, c):
    """g with an undeclared non-finite hole of half-width 1e-2 around c."""
    return _vec(lambda y: np.where(np.abs(np.asarray(y) - c) < 1e-2, np.nan,
                                   g(np.asarray(y))))


def test_first_piece_in_order_decides_between_inf_and_raise():
    # the divergent probe at 0 comes first: the hole in [0.5, 1] is moot
    res = integrate(_holed(lambda y: 1.0 / y, 0.7), (0.0, 1.0),
                    singular_points=(0.0,), breakpoints=(0.5,), tol=1e-8)
    assert not res.value.is_finite
    assert res.value.certificate.estimated_exponent == pytest.approx(-1.0,
                                                                     abs=0.05)
    # the hole in [0, 0.5] comes before the divergent probe at 1
    nodes = 0.25 + 0.25 * _GK_NODES
    first = float(nodes[np.abs(nodes - 0.2) < 1e-2][0])
    with pytest.raises(UndeclaredSingularityError) as exc:
        integrate(_holed(lambda y: 1.0 / (1.0 - y), 0.2), (0.0, 1.0),
                  singular_points=(1.0,), breakpoints=(0.5,), tol=1e-8)
    assert str(exc.value) == (f"integrand is non-finite at {first!r}, away "
                              "from every declared singular point")



def test_a_hole_in_an_earlier_plain_piece_beats_a_probe_refusal():
    # the probe at 1 refuses, as (1-y)^-1/2 - 40(1-y) changes sign along its
    # approach; the hole at 0.2 lies in the plain piece [0, 0.5] before it
    with pytest.raises(UndeclaredSingularityError) as exc:
        integrate(_holed(lambda y: (1.0 - y) ** -0.5 - 40.0 * (1.0 - y), 0.2),
                  (0.0, 1.0), singular_points=(1.0,), breakpoints=(0.5,))
    assert str(exc.value) == ("integrand is non-finite at 0.19805376124802548, "
                              "away from every declared singular point")


def test_a_probe_refusal_beats_a_hole_in_a_later_plain_piece():
    # the refusing probe at 0 walks [0, 0.5], before the hole at 0.7
    with pytest.raises(PreconditionError) as exc:
        integrate(_holed(lambda y: y ** -0.5 - 40.0 * y, 0.7), (0.0, 1.0),
                  singular_points=(0.0,), breakpoints=(0.5,))
    assert str(exc.value) == ("integrand changes sign along the singular "
                              "approach at 0.0; split it by sign first")


def test_rows_before_the_first_failing_row_refine_to_their_end():
    # row 0 meets its NaN only after refining toward 0.3; row 1 is
    # non-finite at the centre node of its first panel
    def at(r, z):
        z = np.asarray(z, dtype=float)
        d = np.abs(z - 0.3)
        with np.errstate(divide="ignore"):
            vals = [np.where(d < 1e-7, np.nan, np.sqrt(d)), 1.0 / (z - 0.5)]
        return np.choose(np.broadcast_to(r, z.shape), vals)

    for order, where in (((0, 1), "0.3000000296972466"), ((1, 0), "0.5")):
        ids, rows = _columns([(r, (0.0, 1.0), (), ()) for r in order])
        with pytest.raises(UndeclaredSingularityError) as exc:
            integrate(_by_row(at, ids), rows=rows, tol=1e-13)
        assert str(exc.value) == (f"integrand is non-finite at {where}, away "
                                  "from every declared singular point")

def test_probe_stops_at_first_non_finite_shell():
    for j in (3, 9, 13, 20):
        f = _vec(lambda y, j=j: np.where(np.asarray(y) < 2.0 ** -j, np.nan,
                                         np.asarray(y) ** -0.5))
        rep = probe_divergence(f, 0.0, "right", tol=0.0)
        assert rep.divergent
        assert rep.shells == j + 1
        cumulative, trace = 0.0, []
        for k in range(j):
            cumulative += _one_panel(f, 2.0 ** (-k - 1), 2.0 ** -k)[0]
            trace.append((2.0 ** (-k - 1), cumulative))
        trace.append((2.0 ** (-j - 1), math.inf))
        assert rep.trace == tuple(trace)


def _counting_fits(monkeypatch) -> list:
    calls = []
    fit = values._window_fit

    def counted(*args):
        calls.append(args[2])
        return fit(*args)

    monkeypatch.setattr(values, "_window_fit", counted)
    return calls


def test_a_divergent_walk_takes_one_fit(monkeypatch):
    # shells 12-15 do not contract, so only the verdict's fit at 16 is taken
    from greenlab.coupling import compose_green
    from greenlab.models.interval import interval_model
    calls = _counting_fits(monkeypatch)
    rep = probe_divergence(lambda x: 1.0 / x, 0.0)
    assert rep.divergent and rep.shells == 16
    assert calls == [15]
    calls.clear()
    assert not compose_green(interval_model(), 0.3, 0.0).is_finite
    assert calls == [15]
    # a walk that resolves at its first fit takes that one
    calls.clear()
    rep = probe_divergence(lambda x: x ** -0.5, 0.0)
    assert rep.resolved and not rep.divergent
    assert calls == [11]


def test_an_exit_before_the_verdict_reads_the_latest_skipped_fit(monkeypatch):
    def beyond(j, f):
        return _vec(lambda y: np.where(np.asarray(y) < 2.0 ** -j, np.inf,
                                       f(np.asarray(y))))

    # 1/x with +inf below 2^-14: 14 shells, then a non-finite sample
    calls = _counting_fits(monkeypatch)
    rep = probe_divergence(beyond(14, lambda y: 1.0 / y), 0.0)
    assert rep.divergent and rep.shells == 15
    assert rep.trace[-1][1] == math.inf
    assert rep.estimated_exponent.hex() == "-0x1.0000000000000p+0"
    assert calls == [13]
    # a perturbed power whose every window fits another exponent: the
    # report carries the fit of the last shell before the exit
    wavy = lambda y: y ** -1.1 * (1.5 + np.sin(3.0 * np.log(y)))
    exponents = set()
    for j in (12, 13, 14, 15):
        f = beyond(j, wavy)
        rep = probe_divergence(f, 0.0)
        assert rep.divergent and rep.shells == j + 1
        outs, _ = _gk15(f, [2.0 ** (-k - 1) for k in range(j)],
                        [2.0 ** -k for k in range(j)])
        mags = [abs(v) for v, _ in outs]
        want = _window_fit(mags, [math.log2(m) for m in mags], j - 1, 1.0,
                           False)[0]
        assert rep.estimated_exponent == want
        exponents.add(want)
    assert len(exponents) == 4


def test_shell_runs_have_the_bits_of_single_shells():
    for point, side, scale, kind in ((0.25, "right", 0.3, "endpoint"),
                                     (0.7, "left", 0.7, "endpoint"),
                                     (0.0, "right", 3.0, "tail")):
        lo, hi = _shell_bounds(point, side, scale, 0, PROBE_DEPTH, kind)
        assert len(lo) == len(hi) == PROBE_DEPTH
        for k in range(PROBE_DEPTH):
            if kind == "tail":
                want = (point + scale * 2.0 ** k, point + scale * 2.0 ** (k + 1))
            elif side == "right":
                want = (point + scale * 2.0 ** (-k - 1),
                        point + scale * 2.0 ** -k)
            else:
                want = (point - scale * 2.0 ** -k,
                        point - scale * 2.0 ** (-k - 1))
            assert (lo[k], hi[k]) == want
            # a run starting at k gives shell k the same ends
            assert _shell_bounds(point, side, scale, k, k + 1, kind) == \
                ([want[0]], [want[1]])


def test_panels_are_evaluated_in_batches(monkeypatch):
    sizes = []
    gk15 = quadrature._gk15

    def counted(fv, a, b, *rows):
        sizes.append(len(a))
        return gk15(fv, a, b, *rows)

    monkeypatch.setattr(quadrature, "_gk15", counted)
    # four plain pieces that the first panels already resolve: one call
    integrate(_vec(lambda y: np.asarray(y) ** 3), (0.0, 1.0),
              breakpoints=(0.25, 0.5, 0.75), tol=1e-12)
    assert sizes == [4]
    # a divergent endpoint: one run of shells up to the verdict at shell 16
    sizes.clear()
    integrate(_vec(lambda y: 1.0 / np.asarray(y)), (0.0, 1.0),
              singular_points=(0.0,), tol=1e-9)
    assert sizes == [16]
    # past the verdict depth, a walk goes one shell at a time
    sizes.clear()
    probe_divergence(_vec(lambda y: np.asarray(y) ** -0.5), 0.0, tol=0.0)
    assert sizes == [16] + [1] * (quadrature.PROBE_DEPTH - 16)


def _shared_run_rows(fns, tol, sings=None):
    """A row-form call with one row per g in fns on (0, 1), singular at 0
    (or at sings[r]), under wrapped _gk15 and _probe_geometric: its
    outcome, the panel count of each _gk15 call, and the rows walked."""
    sizes, walked = [], []
    gk15, walk = quadrature._gk15, quadrature._probe_geometric

    def counted(fv, a, b, *rows):
        sizes.append(len(a))
        return gk15(fv, a, b, *rows)

    def walker(shells, *rest):
        # the evaluator of later shells is quadrature._shells bound to
        # (integrand, row id, [probe])
        walked.append(shells.args[1])
        return walk(shells, *rest)

    def at(r, z):
        z = np.asarray(z, dtype=float)
        return np.choose(np.broadcast_to(r, z.shape), [g(z) for g in fns])

    singular = {r: (sings or {}).get(r, (0.0,)) for r in range(len(fns))}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(quadrature, "_gk15", counted)
        patch.setattr(quadrature, "_probe_geometric", walker)
        try:
            out = integrate(at, rows=(len(fns), [0.0, 1.0], singular),
                            tol=tol)
        except Exception as exc:
            out = type(exc), str(exc)
    return out, sizes, walked


_SHARED_RUN_FNS = [
    lambda z: 1.0 / z,                              # diverges at shell 16
    lambda z: z ** -0.5,                            # resolves at shell 12
    # walks all 48 shells: its unseen remainder past shell k is about
    # 1/((k + 2) ln 2), which no sound remainder puts below 1e-10 by 48
    lambda z: 1.0 / (z * np.log(z / 2.0) ** 2),
    lambda z: np.where(z < 2.0 ** -9, np.nan, z ** -0.5),  # a hole at 9
]


def test_one_gk15_call_evaluates_the_first_runs_of_every_probe():
    tol = 1e-10
    ones = [integrate(_vec(g), (0.0, 1.0), singular_points=(0.0,), tol=tol)
            for g in _SHARED_RUN_FNS]
    assert [one.subdivisions for one in ones] == [16, 12, 48, 10]
    out, sizes, walked = _shared_run_rows(_SHARED_RUN_FNS, tol)
    # the four first runs in one call, then the long walk shell by shell;
    # the probes are walked once each, in row order
    assert sizes == [4 * 16] + [1] * (PROBE_DEPTH - 16)
    assert walked == [0, 1, 2, 3]
    assert [_row_bits(res) for res in out] == [_row_bits(one) for one in ones]
    assert out[3].value.certificate.probe_trace[-1] == (2.0 ** -10, math.inf)
    # a row with three probes whose first diverges: the batch holds its
    # three first runs, 112 panels and so an array batch, but the other
    # two probes are not walked
    fns = [*_SHARED_RUN_FNS, lambda z: 1.0 / z]
    out, sizes, walked = _shared_run_rows(fns, tol, {4: (0.0, 0.5)})
    assert sizes == [7 * 16] + [1] * (PROBE_DEPTH - 16)
    assert walked == [0, 1, 2, 3, 4]
    assert [_row_bits(out[r]) for r in range(4)] == \
        [_row_bits(one) for one in ones]
    two = out[4]
    assert two == integrate(_vec(fns[4]), (0.0, 1.0),
                            singular_points=(0.0, 0.5), tol=tol)
    assert two.subdivisions == 16
    assert two.singular_points_handled == ((0.0, "right"),)
    cert = two.value.certificate
    assert cert.estimated_exponent == -1.0
    assert cert.probe_trace[-1] == (2.0 ** -18, 11.090354888959094)


def test_a_refusal_in_a_shared_run_raises_what_its_row_raises():
    # shell 5 of the last row, [2^-6, 2^-5], has the other sign
    flipped = lambda z: np.where((2.0 ** -6 < z) & (z < 2.0 ** -5), -1.0,
                                 1.0) * z ** -0.5
    fns = [lambda z: z ** -0.5, lambda z: z ** -0.7, flipped]
    want = _raised(lambda: integrate(_vec(flipped), (0.0, 1.0),
                                     singular_points=(0.0,), tol=1e-10))
    assert want == (PreconditionError, "integrand changes sign along the "
                    "singular approach at 0.0; split it by sign first")
    out, sizes, walked = _shared_run_rows(fns, 1e-10)
    assert out == want
    assert sizes == [3 * 16]
    assert walked == [0, 1, 2]


def test_an_exception_past_the_first_run_comes_in_row_order():
    # the walking row raises once its walk reaches shell 16, [2^-17, 2^-16],
    # past the shared first runs; the plain row has a hole at 0.7
    fns = [lambda z: np.where(np.abs(z - 0.7) < 1e-2, np.nan, z),
           lambda z: 1.0 / (z * np.log(z / 2.0) ** 2)]

    def at(r, z):
        z = np.asarray(z, dtype=float)
        rs = np.broadcast_to(r, z.shape)
        if ((rs == 1) & (z < 2.0 ** -16)).any():
            raise ValueError("past the first run")
        return np.choose(rs, [g(z) for g in fns])

    for order, want, match in (
            ((0, 1), UndeclaredSingularityError, "away from every declared"),
            ((1, 0), ValueError, "past the first run")):
        singular = {order.index(1): (0.0,)}
        with pytest.raises(want, match=match):
            integrate(lambda r, z: at(np.asarray(order)[r], z),
                      rows=(2, [0.0, 1.0], singular), tol=1e-10)


def test_row_form_gives_each_row_its_one_row_result():
    fns = [lambda y: np.abs(y - 0.3), lambda y: -np.log(y), lambda y: 1.0 / y]

    def at(r, z):
        z = np.asarray(z, dtype=float)
        return np.choose(np.broadcast_to(r, z.shape), [g(z) for g in fns])

    specs = [(0, (0.0, 1.0), (), (0.3,)), (1, (0.0, 0.5), (0.0,), ()),
             (2, (0.0, 1.0), (0.0,), (0.5,)), (0, (0.1, 0.9), (), ())]
    ids, rows = _columns(specs)
    for cap in (2000, 1):
        out = integrate(_by_row(at, ids), rows=rows, tol=1e-12,
                        max_subdivisions=cap)
        assert isinstance(out, quadrature.QuadRows) and len(out) == 4
        for (r, interval, sings, bks), res in zip(specs, out):
            one = integrate(_vec(fns[r]), interval, singular_points=sings,
                            breakpoints=bks, tol=1e-12, max_subdivisions=cap)
            assert res == one
        assert not out[2].value.is_finite
        # converged says every row met its tolerance
        assert out.converged == all(res.converged for res in out)
        assert out.converged == (cap == 2000)
    for call in (lambda: integrate(at, (0.0, 1.0), rows=rows),
                 lambda: integrate(at, rows=rows, breakpoints=(0.5,)),
                 lambda: integrate(at)):
        with pytest.raises(PreconditionError):
            call()


def test_adaptive_panels_is_integrate_on_one_interval():
    # perfbench's tracer wraps adaptive_panels by name and reads its cap
    # hits off the panel count: both rest on these two facts
    import inspect

    f = _vec(lambda z: np.abs(np.asarray(z) - 0.3))
    res = integrate(f, (0.0, 1.0), tol=1e-12, breakpoints=(0.5,),
                    max_subdivisions=7)
    assert quadrature.adaptive_panels(f, 0.0, 1.0, 1e-12, (0.5,), 7) == (
        res.value.value, res.value.error_bound, res.subdivisions)
    assert not res.converged
    defaults = [{name: p.default for name, p in inspect.signature(
        fn).parameters.items()} for fn in (quadrature.adaptive_panels,
                                           integrate)]
    assert defaults[0]["max_panels"] == defaults[1]["max_subdivisions"]


def test_rows_take_a_slice_as_the_sequence_they_are():
    # row 2 is planned around its singular point 0
    out = integrate(lambda r, z: z * (1 + r), rows=(5, [0.0, 1.0], {2: (0.0,)}),
                    tol=1e-10)
    rows = [out[i] for i in range(len(out))]
    assert rows[2].singular_points_handled == ((0.0, "right"),)
    assert out[:2] == rows[:2]
    assert out[::-1] == rows[::-1]
    assert out[-1] == rows[-1] == out[4]
    assert out[1:9] == rows[1:] and out[5:] == []
    for i in (5, -6):
        with pytest.raises(IndexError):
            out[i]


def test_stencils_on_polynomials():
    product = StencilSpec("second", form="product_second", weight=None)
    # u = x^2: u'' = 2, centered difference is exact for quadratics
    assert fd_residual(product, lambda x: x * x, 0.4, h=1e-3) \
        == pytest.approx(2.0, abs=1e-7)
    flux = StencilSpec("weighted", form="flux", weight=lambda x: x ** 3)
    # (x^3 u')' / x^3 with u = x^2: (2 x^4)' / x^3 = 8 x^3 / x^3 ... = 8
    assert fd_residual(flux, lambda x: x * x, 0.5, h=1e-3) \
        == pytest.approx(8.0, abs=1e-6)


def _stencil_at(stencil, u, x, h):
    """One stencil window at one point, in Python floats, as the reference."""
    w = (lambda t: 1.0) if stencil.weight is None \
        else (lambda t: float(stencil.weight(t)))
    if stencil.form == "product_second":
        vals = [w(t) * float(u(t)) for t in (x - h, x, x + h)]
        if not all(math.isfinite(v) for v in vals):
            raise StencilError(f"non-finite sample in stencil window at {x!r}")
        return (vals[0] - 2.0 * vals[1] + vals[2]) / (h * h)
    um, u0, up = float(u(x - h)), float(u(x)), float(u(x + h))
    if not all(math.isfinite(v) for v in (um, u0, up)):
        raise StencilError(f"non-finite sample in stencil window at {x!r}")
    wm, wp = w(x - 0.5 * h), w(x + 0.5 * h)
    return (wp * (up - u0) - wm * (u0 - um)) / (h * h * w(x))


def _fd_reference(stencil, u, x, h):
    d_h = _stencil_at(stencil, u, x, h)
    return (4.0 * _stencil_at(stencil, u, x, 0.5 * h) - d_h) / 3.0


_STENCILS = (
    StencilSpec("u''", "product_second", weight=None),
    StencilSpec("(x u)''", "product_second", weight=lambda t: float(t)),
    StencilSpec("(x^3 v')' / x^3", "flux", weight=lambda t: float(t) ** 3),
    StencilSpec("v''", "flux", weight=None),
)


def test_array_fd_residual_matches_scalar_calls_bit_for_bit():
    def u(t):
        t = np.asarray(t, dtype=float)
        return np.log(t) / t + np.exp(-3.0 * t) + 1.0 / t ** 2

    u = _vec(u)
    h = 1e-2
    # the first points put their windows within 1e-3 of the origin, where u
    # is steep; the last ones reach toward 1
    xs = np.array([1.1e-2, 1.5e-2, 0.1, 0.37, 0.5, 0.8, 0.95, 0.989])
    for stencil in _STENCILS:
        out = fd_residual(stencil, u, xs, h=h)
        assert out.shape == xs.shape
        for x, d in zip(xs.tolist(), out.tolist()):
            one = fd_residual(stencil, u, x, h=h)
            ref = _fd_reference(stencil, u, x, h)
            assert isinstance(one, float)
            assert d.hex() == one.hex() == ref.hex()


def test_fd_residual_calls_a_vectorized_u_once():
    calls = []

    def u(t):
        calls.append(np.size(t))
        return np.sin(3.0 * np.asarray(t, dtype=float))

    u = _vec(u)
    xs = np.linspace(0.2, 0.8, 7)
    for stencil in _STENCILS:
        calls.clear()
        fd_residual(stencil, u, xs, h=1e-3)
        # every window node of every x: x - h, x, x + h, x -+ h/2
        assert calls == [5 * xs.size]


def test_fd_residual_takes_a_scalar_u():
    def u(t):
        return math.cos(2.0 * t) + t ** 3

    xs = np.array([0.25, 0.5, 0.75])
    for stencil in _STENCILS:
        out = fd_residual(stencil, u, xs, h=1e-3)
        for x, d in zip(xs.tolist(), out.tolist()):
            assert d.hex() == _fd_reference(stencil, u, x, 1e-3).hex()


def test_first_failing_x_decides_the_stencil_error():
    def u(t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore"):
            return 1.0 / t

    u = _vec(u)
    h = 1e-3
    # 0.5h fails only in its h/2 window (x - h/2 = 0), h already in its
    # h window (x - h = 0): the first x in order decides, not the first step
    for stencil in _STENCILS:
        with pytest.raises(StencilError, match=r"at 0\.0005$"):
            fd_residual(stencil, u, np.array([0.4, 0.5 * h, h]), h=h)
        with pytest.raises(StencilError, match=r"at 0\.001$"):
            fd_residual(stencil, u, np.array([0.4, h, 0.5 * h]), h=h)
        with pytest.raises(StencilError, match=r"at 0\.001$"):
            fd_residual(stencil, u, h, h=h)


def test_basis_fit_residual_detects_span_membership():
    basis = (lambda x: 1.0, lambda x: 1.0 / x ** 2)
    inside = lambda x: 3.0 - 2.0 / x ** 2
    outside = lambda x: math.log(x)
    assert abs(basis_fit_residual(basis, inside, 0.4)) < 1e-12
    assert abs(basis_fit_residual(basis, outside, 0.4)) > 1e-6


def test_integrate_to_infinity_is_integrate_radial():
    sigma = sphere_surface_area(5)
    weighted = _vec(lambda s: sigma * np.exp(-np.asarray(s))
                    * np.asarray(s) ** 4)
    for tol in (1e-6, 1e-10):
        res = integrate(weighted, (0.0, math.inf), singular_points=(0.0,),
                        tol=tol)
        ref = integrate_radial(_vec(lambda s: np.exp(-np.asarray(s))), 5,
                               tol=tol)
        assert res == ref
        assert res.singular_points_handled[-1] == ("tail", "radial-tail")


def test_integrate_to_infinity_matches_closed_forms():
    for f, sings, exact in (
            (lambda x: (1.0 + x) ** -3, (), 0.5),
            (lambda x: x ** -0.5 / (1.0 + x), (0.0,), math.pi)):
        res = integrate(_vec(lambda x, f=f: f(np.asarray(x))),
                        (0.0, math.inf), singular_points=sings, tol=1e-9)
        assert res.value.is_finite and res.converged
        assert abs(res.value.value - exact) <= res.value.error_bound


def test_integrate_to_infinity_certifies_a_fat_tail():
    res = integrate(_vec(lambda x: 1.0 / (1.0 + np.asarray(x))),
                    (0.0, math.inf))
    cert = res.value.certificate
    assert not res.value.is_finite
    assert (cert.location, cert.side) == ("tail", "radial-tail")
    assert cert.estimated_exponent == pytest.approx(-1.0, abs=0.05)


def test_breakpoint_beyond_one_moves_the_tail_start():
    f = _vec(lambda x: 1.0 / (1.0 + np.asarray(x)))
    for bks, start in (((), 1.0), ((0.5,), 1.0), ((3.0,), 3.0)):
        cert = integrate(f, (0.0, math.inf), breakpoints=bks).value.certificate
        # the first doubling block of the tail is [start, 2 * start]
        assert cert.probe_trace[0][0] == 2.0 * start


def test_singular_point_at_the_tail_start_is_probed_on_both_sides():
    # |x-2|^(-1/2) on the left of 2; on its right e^(2-x) times that
    # (integrable, total sqrt(pi)), or 1/((x-2) x^2) (divergent)
    def g(x, right):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            return np.where(x > 2.0, right(x), np.abs(x - 2.0) ** -0.5)

    finite = _vec(lambda x: g(x, lambda x: np.exp(2.0 - x)
                              * np.abs(x - 2.0) ** -0.5))
    divergent = _vec(lambda x: g(x, lambda x: 1.0 / (np.abs(x - 2.0)
                                                    * x ** 2)))
    for a, exact in ((0.0, 2.0 * math.sqrt(2.0) + math.sqrt(math.pi)),
                     (2.0, math.sqrt(math.pi))):
        res = integrate(finite, (a, math.inf), singular_points=(2.0,),
                        tol=1e-9)
        assert res.value.is_finite
        assert abs(res.value.value - exact) <= res.value.error_bound
        # a tail walked from 2 itself would smear the 1/(x-2) into a
        # finite first block
        cert = integrate(divergent, (a, math.inf),
                         singular_points=(2.0,)).value.certificate
        assert (cert.location, cert.side) == (2.0, "right")


# Row integrands for the row-form edge cases: row id r selects _ROW_FNS[r].
_ROW_FNS = [
    lambda y: np.abs(y - 0.3),                    # 0: a kink at 0.3
    lambda y: y ** -0.5,                          # 1: integrable at 0
    lambda y: y ** -0.5 - 40.0 * y,               # 2: its probe at 0 refuses
    lambda y: -1e-13 * np.ones_like(y),           # 3: a total of -1e-13: 0
    lambda y: -1.0 * np.ones_like(y),             # 4: negative: refused
    lambda y: np.where(np.abs(y - 0.7) < 1e-2, np.nan, y),  # 5: a hole
    lambda y: 1.0 / y,                            # 6: divergent at 0
    lambda y: 1.0 / (1.0 + y * y),                # 7: a convergent tail
    lambda y: np.where(np.abs(y - 0.2) < 1e-2, np.inf,   # 8: +inf, then -inf
                       np.where(np.abs(y - 0.8) < 1e-2, -np.inf, y)),
    lambda y: -1e-321 * np.ones_like(y),          # 9: a -0.0 per short panel
]


def _columns(specs):
    """Rows given as (integrand id, interval, singular points, breakpoints)
    in integrate's columns form: (the id of each row, its rows argument).
    A row with fewer breakpoints is padded with its lower end."""
    width = max(len(bks) for *_, bks in specs)
    ends = [[float(interval[j]) for _, interval, _, _ in specs] for j in (0, 1)]
    cols = [np.array([float(bks[j]) if j < len(bks) else float(interval[0])
                      for _, interval, _, bks in specs]) for j in range(width)]
    singular = {i: tuple(sings) for i, (_, _, sings, _) in enumerate(specs)
                if len(sings)}
    return (np.array([r for r, *_ in specs]),
            (len(specs), [np.array(ends[0]), *cols, np.array(ends[1])],
             singular))


def _by_row(at, ids):
    """The row integrand of rows whose integrands are at(ids[r], z)."""
    return lambda r, z: at(ids[r], z)


def _integrate_specs(specs, tol, evaluated=None):
    ids, rows = _columns(specs)
    return integrate(_by_row(_row_at(evaluated), ids), rows=rows, tol=tol)


def _row_at(evaluated=None):
    def at(r, z):
        z = np.asarray(z, dtype=float)
        rs = np.broadcast_to(r, z.shape)
        if evaluated is not None:
            evaluated.extend(zip(rs.tolist(), z.tolist()))
        with np.errstate(all="ignore"):
            return np.choose(rs, [g(z) for g in _ROW_FNS])
    return at


def _one_row(row, tol, evaluated=None):
    r, interval, sings, bks = row

    def f(y):
        if evaluated is not None:
            evaluated.extend((r, y) for y in np.asarray(y).tolist())
        with np.errstate(all="ignore"):
            return _ROW_FNS[r](np.asarray(y, dtype=float))

    return integrate(_vec(f), interval, singular_points=sings,
                     breakpoints=bks, tol=tol)


def _raised(call):
    try:
        call()
    except Exception as exc:
        return type(exc), str(exc)
    return None


def test_row_form_edge_cases_give_each_row_its_one_row_bits():
    rows = [
        (0, (0.0, 1.0), (), (0.0, 0.3, 1.0)),          # breakpoints at the ends
        (0, (0.0, 1.0), (), (0.3, 0.3, 0.7, 0.7)),     # duplicate breakpoints
        (0, (0.2, 0.9), (0.0, 1.5), (-1.0, 0.3, 2.0)),  # all but 0.3 outside
        (1, (0.0, 1.0), (0.0,), (0.5,)),               # a probed row between
        (0, (0.1, 0.6), (0.6,), ()),                   # a singular end
        (3, (0.0, 1.0), (), ()),                       # -1e-13, clipped to 0
        (0, (0.0, 1.0), (), (np.float64(0.3), 0.3)),   # a numpy breakpoint
    ]
    for tol in (1e-8, 1e-12):
        out = _integrate_specs(rows, tol)
        assert len(out) == len(rows)
        for row, res in zip(rows, out):
            assert res == _one_row(row, tol)
        # a breakpoint at an end, or twice, adds no cut
        kink = _one_row((0, (0.0, 1.0), (), (0.3,)), tol)
        assert out[0] == out[6] == kink
        assert out[5].value.value == 0.0 and out[5].value.is_finite
        assert out[3].singular_points_handled == ((0.0, "right"),)


def _row_bits(res):
    """Every field of a QuadResult, floats in hex, with their types."""
    v = res.value
    return (v.kind, v.value.hex(), v.error_bound.hex(), v.certificate,
            res.subdivisions, res.singular_points_handled, res.converged,
            type(v.value), type(v.error_bound), type(res.subdivisions),
            type(res.converged))


# Rows for the array form: more than _SMALL_BATCH of them, the plain ones
# cut at breakpoints on an end, repeated or outside the interval, with
# probed, divergent, [a, inf) and refining rows among them.  Their first
# _SMALL_BATCH rows are a call that is cut and summed in plain Python.
_ARRAY_ROWS = [
    (0, (0.0, 1.0), (), (0.0, 0.3, 1.0)),          # breakpoints at the ends
    (0, (0.0, 1.0), (), (0.3, 0.3, 0.7, 0.7)),     # duplicate breakpoints
    (0, (0.2, 0.9), (0.0, 1.5), (-1.0, 0.3, 2.0)),  # all but 0.3 outside
    (1, (0.0, 1.0), (0.0,), (0.5,)),               # a probed row between
    (6, (0.0, 1.0), (0.0,), (0.25,)),              # certified INF
    (0, (0.1, 0.6), (0.6,), ()),                   # a singular end
    (3, (0.0, 1.0), (), ()),                       # -1e-13, clipped to 0
    (7, (0.5, math.inf), (), ()),                  # a tail
    (7, (0.0, math.inf), (), (2.0, 0.5)),          # a tail past breakpoints
    (0, (0.0, 1.0), (), (np.float64(0.3), 0.3)),   # a numpy breakpoint
    (1, (0.25, 1.0), (), (0.5,)),                  # plain: 0 is out of range
    (0, (0.1, 0.9), (), ()),                       # refines toward its kink
] * 2 + [(0, (0.05 * k, 1.0), (), (0.3, 0.05 * k)) for k in range(6)]


def test_array_rows_give_each_row_its_one_row_bits():
    small = _ARRAY_ROWS[:quadrature._SMALL_BATCH]
    assert len(_ARRAY_ROWS) > len(small) == quadrature._SMALL_BATCH
    for rows in (small, _ARRAY_ROWS):
        for tol in (1e-8, 1e-12):
            out = _integrate_specs(rows, tol)
            assert len(out) == len(rows)
            ones = [_one_row(row, tol) for row in rows]
            assert [_row_bits(res) for res in out] == \
                [_row_bits(one) for one in ones]
            # the arrays hold what indexing returns
            assert out.value.tolist() == [float(one.value) for one in ones]
            assert out.bound.tolist() == [one.value.error_bound
                                          for one in ones]
            assert out.panels.tolist() == [one.subdivisions for one in ones]
            assert out.row_converged.tolist() == [one.converged
                                                  for one in ones]
            assert out.converged == all(one.converged for one in ones)
            assert out.extended() == [one.value for one in ones]
            assert out[-1] == out[len(out) - 1]
        assert not out[4].value.is_finite
        assert out[3].singular_points_handled == ((0.0, "right"),)
        assert out[7].singular_points_handled == (("tail", "radial-tail"),)
        assert out[11].subdivisions > 1


# The plain rows of _ARRAY_ROWS: finite, with no singular point in range.
_PLAIN_ROWS = [row for row in _ARRAY_ROWS
               if row[1][1] < math.inf
               and not any(row[1][0] <= s <= row[1][1] for s in row[2])]


@pytest.mark.parametrize("rows", [
    _PLAIN_ROWS,
    _PLAIN_ROWS + [(1, (0.0, 1.0), (0.0,), (0.5,))],
    _PLAIN_ROWS[:8] + [(9, (0.0, 1e-3), (), (2e-4, 4e-4, 6e-4, 8e-4))]
    + _PLAIN_ROWS[8:],
], ids=["no-planned-row", "last-row-planned", "minus-zero-pieces"])
def test_large_calls_give_each_row_its_one_row_bits(rows):
    assert len(rows) > quadrature._SMALL_BATCH
    for tol in (1e-8, 1e-12):
        out = _integrate_specs(rows, tol)
        ones = [_one_row(row, tol) for row in rows]
        assert [_row_bits(res) for res in out] == \
            [_row_bits(one) for one in ones]
        assert out.value.tolist() == [float(one.value) for one in ones]
        assert out.bound.tolist() == [one.value.error_bound for one in ones]
    # each piece of the -0.0 row is -0.0, and a sum from 0.0 turns its
    # total into 0.0; its cuts fill the widest row's, so no dropped piece
    # adds a 0.0 to it
    if rows[8][0] == 9:
        assert out[8].value.value.hex() == "0x0.0p+0"


# Rows that end in a failing row, keyed by what they pin.  Each runs on its
# own, a call of at most _SMALL_BATCH rows, and after _ARRAY_ROWS.
_FAILING_TAILS = {
    "plain-after-refusal": [
        (0, (0.0, 1.0), (), (0.3,)), (2, (0.0, 1.0), (0.0,), ()),
        (0, (0.1, 0.9), (), ())],
    "hole-before-refusal": [
        (5, (0.0, 1.0), (), (0.5,)), (2, (0.0, 1.0), (0.0,), ())],
    "uncut-hole-before-refusal": [
        (5, (0.0, 1.0), (), ()), (2, (0.0, 1.0), (0.0,), ())],
    "refusal-before-hole": [
        (2, (0.0, 1.0), (0.0,), ()), (5, (0.0, 1.0), (), (0.5,))],
    "refusal-before-uncut-hole": [
        (2, (0.0, 1.0), (0.0,), ()), (5, (0.0, 1.0), (), ())],
    "negative-before-hole": [
        (0, (0.0, 1.0), (), (0.3,)), (4, (0.0, 1.0), (), ()),
        (5, (0.0, 1.0), (), ())],
    "negative-total": [(4, (0.0, 1.0), (), ())],
    "hole-between-finite": [
        (0, (0.0, 1.0), (), (0.3,)), (5, (0.0, 1.0), (), (0.5,)),
        (1, (0.0, 1.0), (0.0,), (0.5,)), (7, (0.5, math.inf), (), ())],
    "empty-before-hole": [
        (0, (0.5, 0.5), (), ()), (5, (0.0, 1.0), (), ())],
    "plus-then-minus-inf": [(8, (0.0, 1.0), (), (0.5,))],
    "minus-inf-lower-end": [
        (0, (0.0, 1.0), (), (0.3,)), (7, (-math.inf, 0.0), (), ()),
        (5, (0.0, 1.0), (), ())],
    "minus-inf-to-inf": [(7, (-math.inf, math.inf), (), ())],
}


@pytest.mark.parametrize("tail", list(_FAILING_TAILS.values()),
                         ids=list(_FAILING_TAILS))
def test_rows_raise_what_the_first_failing_row_raises(tail):
    assert len(tail) <= quadrature._SMALL_BATCH < len(_ARRAY_ROWS)
    for rows in (tail, _ARRAY_ROWS + tail):
        want = next(err for err in
                    (_raised(lambda row=row: _one_row(row, 1e-10))
                     for row in rows) if err is not None)
        assert issubclass(want[0], GreenLabError)
        assert _raised(lambda: _integrate_specs(rows, 1e-10)) == want


def test_a_non_finite_lower_end_is_refused():
    f = _vec(lambda y: np.exp(-np.asarray(y) ** 2))
    for interval in ((-math.inf, 0.0), (-math.inf, math.inf)):
        with pytest.raises(PreconditionError) as exc:
            integrate(f, interval)
        assert str(exc.value) == (f"integration interval [{interval[0]}, "
                                  f"{interval[1]}] has no finite lower end")


def test_empty_interval_row_raises_after_the_rows_before_it_refine():
    tail = [(0, (0.0, 1.0), (), (0.25,)), (1, (0.0, 0.5), (0.0,), ()),
            (0, (0.5, 0.5), (), ()), (5, (0.0, 1.0), (), ())]
    # on its own, and after more than _SMALL_BATCH rows
    for rows in (tail, _ARRAY_ROWS + tail):
        evaluated = []
        with pytest.raises(PreconditionError) as exc:
            _integrate_specs(rows, 1e-13, evaluated)
        assert str(exc.value) == "empty integration interval [0.5, 0.5]"
        # the rows before it refine to their end, and the row after it is
        # not evaluated at all
        alone = []
        for row in rows[:-2]:
            _one_row(row, 1e-13, alone)
        assert sorted(evaluated) == sorted(alone)


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0, math.inf])
def test_integrate_refuses_a_tolerance_it_cannot_meet(tol):
    calls = []

    def f(z):
        calls.append(z)
        return np.sqrt(np.asarray(z, dtype=float))

    for call in (lambda: integrate(_vec(f), (0.0, 1.0), tol=tol),
                 lambda: integrate(lambda r, z: f(z), rows=(2, [0.0, 1.0], {}),
                                   tol=tol),
                 lambda: coupling_apply(get_model("interval"),
                                        Fn(f, vectorized=True), 0.3, tol=tol)):
        with pytest.raises(PreconditionError, match="positive and finite"):
            call()
    assert calls == []


# ---------------------------------------------------------------------------
# The array form: batches of more than _ARRAY_PANELS panels, bit for bit.

def _switch_sizes():
    """Batch sizes at the switch, one past it and far past it."""
    t = quadrature._ARRAY_PANELS
    return (t, t + 1, 3 * t + 2)


def _error_cases():
    """(lo, hi, what) of panels covering every branch of the error estimate,
    each on its own stretch of one integrand, and that integrand."""
    unit = _rule_diff(_vec(lambda y: np.asarray(y) ** 14), 0.0, 1.0)
    small, near, large = (share * 200.0 ** -3 / unit
                          for share in (0.25, 1.01, 4.0))

    stretches = [
        lambda y: np.zeros_like(y),                 # diff = 0
        lambda y: 1.0 + y,                          # diff below the floor
        lambda y: small * (y - 20.0) ** 14,         # floor < diff < limit
        lambda y: large * (y - 30.0) ** 14,         # diff >= _SHRINK_LIMIT
        lambda y: np.where(y == 45.0, np.inf, 1.0),     # +inf at the centre
        lambda y: np.where(y == 55.0, -np.inf, 1.0),    # -inf
        lambda y: np.where(y == 65.0, np.nan, 1.0),     # NaN
        lambda y: 1e210 * np.exp(30.0 * (y - 70.0)),    # (200 diff)^1.5
                                                        # would overflow
        lambda y: near * (y - 80.0) ** 14,          # the shrink tops diff
    ]

    def f(y):
        y = np.asarray(y, dtype=float)
        out = np.cos(y)                 # the shrink falls below the floor
        for k, g in enumerate(stretches):
            at = (10.0 * k <= y) & (y < 10.0 * (k + 1))
            out[at] = g(y[at])
        return out

    cases = [(0.0, 1.0, "zero"), (10.0, 11.0, "below floor"),
             (20.0, 21.0, "shrink"), (30.0, 31.0, "no shrink"),
             (44.0, 46.0, "+inf"), (54.0, 56.0, "-inf"), (64.0, 66.0, "nan"),
             (70.0, 71.0, "huge diff"), (80.0, 81.0, "shrink tops diff"),
             (90.0, 93.0, "shrink under floor")]
    return cases, _vec(f)


def test_gk15_error_column_matches_the_one_panel_rule_across_the_switch():
    cases, fv = _error_cases()
    eps50 = 50.0 * np.finfo(float).eps
    # each panel alone takes the loop; its pair is the reference
    alone = [_gk15(fv, [lo], [hi]) for lo, hi, _ in cases]
    assert all(type(outs) is list for outs, _ in alone)
    for (lo, hi, what), ((out,), holes) in zip(cases, alone):
        if what in ("+inf", "-inf", "nan"):
            assert holes == {0: 0.5 * (lo + hi)}
            continue
        assert holes == {}
        # the cases are what they claim
        diff, floor = _rule_diff(fv, lo, hi), eps50 * abs(out[0])
        assert {"zero": lambda: diff == out[1] == 0.0,
                "below floor": lambda: 0.0 < diff <= floor == out[1],
                "shrink": lambda: floor < out[1] == (200.0 * diff) ** 1.5
                < diff < quadrature._SHRINK_LIMIT,
                "no shrink": lambda: quadrature._SHRINK_LIMIT <= diff
                == out[1],
                "huge diff": lambda: 1e204 < diff == out[1],
                "shrink tops diff": lambda: floor < out[1] == diff
                < (200.0 * diff) ** 1.5 and diff < quadrature._SHRINK_LIMIT,
                "shrink under floor": lambda: (200.0 * diff) ** 1.5 < floor
                == out[1] < diff}[what]()
        if what != "huge diff":     # where (200 diff)^1.5 overflows
            assert _bits(out) == _bits(_one_panel(fv, lo, hi))
    assert [_bits(out) for (out,), _ in alone if math.isnan(out[0])] == \
        [("nan", "0x0.0p+0")]
    for size in (quadrature._ARRAY_PANELS - 1, *_switch_sizes()):
        picks = [cases[k % len(cases)] for k in range(size)]
        outs, holes = _gk15(fv, [lo for lo, _, _ in picks],
                            [hi for _, hi, _ in picks])
        assert isinstance(outs, np.ndarray if size > quadrature._ARRAY_PANELS
                          else list)
        assert [_bits(out) for out in outs] == \
            [_bits(alone[k % len(cases)][0][0]) for k in range(size)]
        assert holes == {k: 0.5 * (lo + hi)
                         for k, (lo, hi, what) in enumerate(picks)
                         if what in ("+inf", "-inf", "nan")}


def test_gk15_blocks_keep_each_panels_index_in_the_whole_batch(
        monkeypatch):
    # one non-finite sample, in the third block of a batch split at
    # _ARRAY_PANELS + 1 panels, the last block smaller than the switch
    def g(r, z):
        z = np.asarray(z, dtype=float)
        return np.where((r == 150) & (z > 0.5), np.nan,
                        (1.0 + r / 64.0) * np.cos(z))

    calls = []

    def f(r, z):
        calls.append(len(z))
        return g(r, z)

    n, block = 200, quadrature._ARRAY_PANELS + 1
    a, b, rows = np.zeros(n), np.ones(n), np.arange(n)
    whole, whole_holes = _gk15(f, a, b, rows)
    assert calls == [15 * n]
    nodes = 0.5 + 0.5 * _GK_NODES
    assert whole_holes == {150: float(nodes[np.argmax(nodes > 0.5)])}
    calls.clear()
    monkeypatch.setattr(quadrature, "_GK15_BLOCK", block)
    blocked, holes = _gk15(f, a, b, rows)
    assert calls == [15 * block] * 3 + [15 * (n - 3 * block)]
    assert holes == whole_holes
    assert isinstance(blocked, np.ndarray)
    assert [_bits(out) for out in blocked] == [_bits(out) for out in whole]
    for r in (0, 64, 149, 151, 199):
        (one,), _ = _gk15(_vec(lambda z, r=r: g(r, z)), [0.0], [1.0])
        assert _bits(blocked[r]) == _bits(one)


def _refine_batches(monkeypatch) -> list:
    """The number of pieces in each _refine call from here on."""
    sizes = []
    refine = quadrature._refine

    def counted(fv, rows, los, *args):
        sizes.append(len(los))
        return refine(fv, rows, los, *args)

    monkeypatch.setattr(quadrature, "_refine", counted)
    return sizes


# Rows around the switch, each padded in front with one-piece plain rows
# until its first batch holds each of _switch_sizes() pieces, keyed by
# what they pin.
_PAD = (7, (0.0, 1.0), (), ())
_SWITCH_ROWS = {
    "refining": [(0, (0.0, 1.0), (), ()), (0, (0.1, 0.9), (), (0.5,)),
                 (7, (0.0, 2.0), (), (1.0,))] * 3,
    "planned-among-plain": [
        (0, (0.0, 1.0), (), ()), (1, (0.0, 1.0), (0.0,), (0.5,)),
        (7, (0.0, 1.0), (), ()), (7, (0.5, math.inf), (), ()),
        (6, (0.0, 1.0), (0.0,), (0.25,)), (0, (0.0, 1.0), (), (0.3,)),
        (1, (0.25, 1.0), (), (0.5,))],
    "hole": [(0, (0.0, 1.0), (), (0.3,)), (5, (0.0, 1.0), (), ()),
             (0, (0.1, 0.9), (), ())],
    "raising-row-ends-the-walk": [
        (0, (0.0, 1.0), (), (0.3,)), (2, (0.0, 1.0), (0.0,), ()),
        (0, (0.1, 0.9), (), ()), (0, (0.5, 0.5), (), ())],
}


@pytest.mark.parametrize("rows", list(_SWITCH_ROWS.values()),
                         ids=list(_SWITCH_ROWS))
def test_rows_around_the_array_switch_give_their_one_row_bits(rows,
                                                              monkeypatch):
    sizes = _refine_batches(monkeypatch)
    _raised(lambda: _integrate_specs(rows, 1e-10))
    base = sizes[-1]
    for size in _switch_sizes():
        padded = [_PAD] * (size - base) + rows
        assert len(padded) > quadrature._SMALL_BATCH
        raised = next(filter(None, (_raised(lambda row=row: _one_row(
            row, 1e-10)) for row in padded)), None)
        if raised is not None:
            # the call raises what the first row in order that raises does
            assert _raised(lambda: _integrate_specs(padded, 1e-10)) == raised
            assert sizes[-1] == size
            continue
        out = _integrate_specs(padded, 1e-10)
        assert sizes[-1] == size
        assert [_row_bits(res) for res in out] == \
            [_row_bits(_one_row(row, 1e-10)) for row in padded]
        assert out.value.tolist() == [float(res.value) for res in out]


def test_singular_keys_at_or_beyond_n_are_not_rows():
    rows = [(0, (0.0, 1.0), (), (0.3,)), (7, (0.0, 1.0), (), ())] * 60
    for n in (quadrature._SMALL_BATCH, 3 * quadrature._ARRAY_PANELS // 2):
        ids, (_, cols, _) = _columns(rows[:n])
        # the rows past n would be probed at 0, where 1 / y diverges
        singular = {n: (0.0,), n + 3: (0.0,), 10 * n: (0.0,)}
        out = integrate(_by_row(_row_at(), ids), rows=(n, cols, singular),
                        tol=1e-10)
        assert [_row_bits(res) for res in out] == \
            [_row_bits(_one_row(row, 1e-10)) for row in rows[:n]]


# ---------------------------------------------------------------------------
# The panel table: the refining pieces of a batch in the array form, bit for
# bit against the heap loop.

def _in_table_and_heaps(monkeypatch, call):
    """call(record) as it is, and with every batch a list, so that every
    piece refines in the heap loop.  record(r, z) is called by the row
    integrand on each evaluation.  Per run: each row's bits, or what the
    call raised; the (row, node) pairs evaluated, sorted; and the size of
    each _gk15 batch."""
    gk15 = quadrature._gk15
    runs = []
    for switch in (quadrature._ARRAY_PANELS, 10 ** 9):
        evaluated, sizes = [], []

        def counted(fv, a, b, *rows):
            sizes.append(len(a))
            return gk15(fv, a, b, *rows)

        def record(r, z):
            evaluated.extend(zip(np.broadcast_to(r, np.shape(z)).tolist(),
                                 np.asarray(z).tolist()))

        with monkeypatch.context() as patch:
            patch.setattr(quadrature, "_ARRAY_PANELS", switch)
            patch.setattr(quadrature, "_gk15", counted)
            try:
                out = call(record)
            except Exception as exc:
                outcome = (type(exc), str(exc))
            else:
                outcome = [_row_bits(res) for res in (
                    [out] if isinstance(out, quadrature.QuadResult) else out)]
        runs.append((outcome, sorted(evaluated), sizes))
    return runs


def _table_rounds(sizes) -> int:
    # every _gk15 batch after the first of an array-form call is a round of
    # the table, which refines its pieces to their end
    return len(sizes) - 1


def _unit_rows(n, g, tol, cap=2000):
    """integrate on n rows [0, 1] of the row integrand g, recorded."""
    def call(record):
        def f(r, z):
            record(r, z)
            return g(np.asarray(r), np.asarray(z, dtype=float))
        return integrate(f, rows=(n, [np.zeros(n), np.ones(n)], {}), tol=tol,
                         max_subdivisions=cap)
    return call


def test_table_ties_between_panels_of_a_piece_go_to_the_lowest_end(
        monkeypatch):
    def g(r, z):
        return (1.0 + r / 64.0) * np.abs(z - 0.5)

    # the two halves of [0, 1] are mirror images, and in 32 of the rows
    # their errors are equal; the heap bisects the left one first
    halves = [_gk15(_vec(lambda z, r=r: g(r, np.asarray(z))), [0.0, 0.5],
                    [0.5, 1.0])[0] for r in range(70)]
    assert sum(left[1] == right[1] for left, right in halves) == 32
    table, heaps = _in_table_and_heaps(monkeypatch,
                                       _unit_rows(70, g, 1e-15, cap=5))
    assert table == heaps
    assert _table_rounds(table[2]) == 4
    assert {bits[4] for bits in table[0]} == {5}


def test_table_hole_met_in_a_later_round_stops_the_later_rows(monkeypatch):
    # row 35 is NaN at 0.125 and 0.375, the centre nodes of [0, 0.25] and
    # [0.25, 0.5]: the second round bisects [0, 0.5], where its kink is, and
    # the first child names the hole
    def g(r, z):
        kink = (1.0 + r / 64.0) * np.abs(z - 0.3)
        return np.where((r == 35) & ((z == 0.125) | (z == 0.375)), np.nan,
                        kink)

    table, heaps = _in_table_and_heaps(monkeypatch, _unit_rows(70, g, 1e-10))
    assert table == heaps
    assert table[0] == (UndeclaredSingularityError,
                        "integrand is non-finite at 0.125, away from every "
                        "declared singular point")
    assert _table_rounds(table[2]) >= 3
    # the rows before the hole refine to their end, those after it stop
    per_row = np.bincount([r for r, _ in table[1]])
    assert per_row[0] > per_row[36] == per_row[69] == 5 * len(_GK_NODES)


def test_table_pieces_stop_at_the_cap(monkeypatch):
    # the kink rows reach the cap of 8 panels; z^2 meets its tolerance at once
    table, heaps = _in_table_and_heaps(monkeypatch, _unit_rows(
        100, lambda r, z: np.where(r % 2 == 1, np.abs(z - 0.3), z * z),
        1e-10, cap=8))
    assert table == heaps
    assert _table_rounds(table[2]) == 7
    assert [(bits[4], bits[6]) for bits in table[0]] == \
        [(1, True), (8, False)] * 50
    # no round runs outside the table: one batch per panel past the first
    assert _table_rounds(table[2]) == max(bits[4] for bits in table[0]) - 1


def test_table_rounds_past_its_first_width(monkeypatch):
    # 14 rounds of every row, where the table starts 8 panels wide
    table, heaps = _in_table_and_heaps(monkeypatch, _unit_rows(
        70, lambda r, z: (1.0 + r / 64.0) * np.abs(z - 0.3), 1e-12))
    assert table == heaps
    assert _table_rounds(table[2]) == 14
    assert _table_rounds(table[2]) == max(bits[4] for bits in table[0]) - 1
    # one row cut into 70 pieces, each with a kink
    def one_row(record):
        def f(z):
            record(0, z)
            return np.abs(np.modf(70.0 * np.asarray(z))[0] - 0.3)
        return integrate(_vec(f), (0.0, 1.0), tol=1e-10,
                         breakpoints=np.arange(1, 70) / 70.0)

    table, heaps = _in_table_and_heaps(monkeypatch, one_row)
    assert table == heaps
    assert _table_rounds(table[2]) > 8


def test_table_keeps_its_pieces_once_their_children_fit_a_list(monkeypatch):
    # ten rows of a steep kink refine long after the other 60 are done, in
    # rounds of at most _ARRAY_PANELS children
    call = _unit_rows(70, lambda r, z: np.where(r < 10, 1e3, 1.0)
                      * np.abs(z - 0.3), 1e-10)
    table, heaps = _in_table_and_heaps(monkeypatch, call)
    assert table == heaps
    sizes = table[2]
    assert sizes[-1] == 20 < quadrature._ARRAY_PANELS < sizes[1]
    assert _table_rounds(sizes) == max(bits[4] for bits in table[0]) - 1
    # and it keeps its bits with no heap module to call
    monkeypatch.setattr(quadrature, "heapq", None)
    assert [_row_bits(res) for res in call(lambda r, z: None)] == table[0]


# ---------------------------------------------------------------------------
# Probe refusals: before any evaluation of the integrand.

def _counting(calls, p=-0.5):
    """y^p, integrable at 0 for the default p, counting its evaluations."""
    def f(y):
        calls.append(np.asarray(y).size)
        return np.asarray(y, dtype=float) ** p
    return _vec(f)


@pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf, -math.inf])
def test_probes_refuse_a_tolerance_no_walk_can_meet(tol):
    calls = []
    for call in (lambda: probe_divergence(_counting(calls), 0.0, tol=tol),
                 lambda: probe_tail(_counting(calls), start=1.0, tol=tol)):
        with pytest.raises(PreconditionError) as info:
            call()
        assert "probe tol" in str(info.value) and "not negative" in \
            str(info.value)
    assert calls == []


def test_probe_tolerance_zero_walks_to_full_depth():
    for call, p in ((lambda f: probe_divergence(f, 0.0, tol=0.0), -0.5),
                    (lambda f: probe_tail(f, start=1.0, tol=0.0), -2.0)):
        calls = []
        rep = call(_counting(calls, p))
        assert rep.shells == PROBE_DEPTH and not rep.resolved
        assert sum(calls) == PROBE_DEPTH * len(_GK_NODES)


def test_probes_refuse_a_bad_side_or_start_before_evaluating():
    calls = []
    with pytest.raises(PreconditionError) as info:
        probe_divergence(_counting(calls), 0.0, side="up")
    assert "'left' or 'right'" in str(info.value) and "'up'" in \
        str(info.value)
    for start in (0.0, -1.0):
        with pytest.raises(PreconditionError) as info:
            probe_tail(_counting(calls), start=start)
        assert "positive radius" in str(info.value)
    assert calls == []


_PACKAGE = Path(quadrature.__file__).parent
_MODULES = sorted(p.relative_to(_PACKAGE.parent).as_posix()
                  for p in _PACKAGE.rglob("*.py"))


@pytest.mark.parametrize("module", _MODULES)
def test_module_stays_within_the_parsers_first_token_array(module):
    # CPython 3.11's parser doubles its token array past 8,192 tokens, and
    # every interpreter that compiles the module from source then peaks
    # about 0.5 MB higher
    import tokenize

    skip = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING,
            tokenize.ENDMARKER}
    with open(_PACKAGE.parent / module, "rb") as src:
        count = sum(tok.type not in skip
                    for tok in tokenize.tokenize(src.readline))
    assert count <= 8192, (
        f"src/{module} has {count} parser tokens; past 8,192 the CPython "
        "3.11 parser doubles its token array when it compiles the module, "
        "which raises its peak memory by about 0.5 MB")


def test_the_closed_form_battery_stays_within_its_ceiling(capsys):
    # bound_miss_report.py: bound misses, false INFs and false finite
    # values of integrate on closed forms, at most its CEILING of them
    import bound_miss_report
    assert bound_miss_report.main() == 0, capsys.readouterr().out


def test_the_power_family_stays_within_its_ceiling(capsys):
    # power_family_report.py: the values of the power family's finite side
    # whose bound misses their closed form, at most its CEILING of them
    import power_family_report
    assert power_family_report.main() == 0, capsys.readouterr().out
