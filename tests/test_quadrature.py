import math

import numpy as np
import pytest

import oracles
from greenlab import quadrature
from greenlab.errors import (PreconditionError, StencilError,
                             UndeclaredSingularityError)
from greenlab.quadrature import (_G_WEIGHTS, _GK_NODES, _K_WEIGHTS, _gk15,
                                 _fit_slope, _NonFiniteSample,
                                 StencilSpec, basis_fit_residual, fd_residual,
                                 integrate, integrate_radial, probe_divergence,
                                 probe_tail, sphere_surface_area)


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
    batch = _gk15(fv, a, b)
    for lo, hi, out in zip(a, b, batch):
        one, = _gk15(fv, [lo], [hi])
        if hi <= 1.4:
            assert _bits(out) == _bits(one) == _bits(_one_panel(fv, lo, hi))
            continue
        # a panel reaching the hole names its first non-finite node
        nodes = 0.5 * (lo + hi) + 0.5 * (hi - lo) * _GK_NODES
        if np.all(nodes <= 1.4):
            continue
        assert isinstance(out, _NonFiniteSample)
        assert out.x == one.x == nodes[np.argmax(nodes > 1.4)]


def test_gk15_bits_do_not_depend_on_the_batch():
    fv = _vec(lambda y: np.exp(np.sin(40.0 * np.asarray(y)))
              / (1.0 + np.asarray(y) ** 2))
    rng = np.random.default_rng(17)
    a = rng.uniform(-3.0, 3.0, 4096)
    b = a + 10.0 ** rng.uniform(-9.0, 0.5, 4096)
    one = [_bits(_gk15(fv, [lo], [hi])[0]) for lo, hi in zip(a, b)]
    assert one == [_bits(_one_panel(fv, lo, hi)) for lo, hi in zip(a, b)]
    for size in (1, 2, 7, 8, 255, 4096):
        batch = _gk15(fv, a[:size], b[:size])
        assert [_bits(out) for out in batch] == one[:size]


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
        if not isinstance(out, _NonFiniteSample):
            assert type(out) is tuple and len(out) == 2
            assert type(out[0]) is float and type(out[1]) is float


def test_gk15_zero_difference_gives_a_zero_error():
    zero = _vec(lambda y: np.zeros(np.shape(y)))
    outs = _gk15(zero, [0.0, -2.0], [1.0, 5.0])
    assert outs == [(0.0, 0.0), (0.0, 0.0)]
    assert [_bits(o) for o in outs] == [_bits(_one_panel(zero, 0.0, 1.0)),
                                        _bits(_one_panel(zero, -2.0, 5.0))]
    _assert_plain_floats(outs)


def test_gk15_shrink_switches_on_below_200_to_the_minus_3():
    # G7 is not exact on y^14, so a scaled y^14 sets the diff of [0, 1]
    unit = _rule_diff(_vec(lambda y: np.asarray(y) ** 14), 0.0, 1.0)
    for share in (0.25, 0.99, 1.01, 4.0):
        s = share * 200.0 ** -3 / unit
        fv = _vec(lambda y, s=s: s * np.asarray(y) ** 14)
        outs = _gk15(fv, [0.0, 0.0], [1.0, 1.0])
        ref = _bits(_one_panel(fv, 0.0, 1.0))
        assert [_bits(o) for o in outs] == [ref, ref]
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
    big = _vec(lambda y: np.full(np.shape(y), 1e308))
    with np.errstate(over="ignore"):
        outs = _gk15(big, [-1.0, 0.0], [1.0, 1e-300])
        refs = [_one_panel(big, -1.0, 1.0), _one_panel(big, 0.0, 1e-300)]
    assert outs == refs == [(math.inf, math.inf)] * 2
    _assert_plain_floats(outs)


def test_gk15_non_finite_panel_between_finite_ones():
    fv = _vec(lambda y: np.where(np.abs(np.asarray(y) - 0.5) < 1e-2, np.nan,
                                 np.cos(np.asarray(y))))
    a, b = [0.0, 0.45, 0.8], [0.3, 0.55, 1.0]
    first, hole, last = outs = _gk15(fv, a, b)
    assert isinstance(hole, _NonFiniteSample) and hole.x == 0.5
    assert _bits(first) == _bits(_one_panel(fv, 0.0, 0.3))
    assert _bits(last) == _bits(_one_panel(fv, 0.8, 1.0))
    _assert_plain_floats(outs)


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
        rows = [(r, (0.0, 1.0), (), ()) for r in order]
        with pytest.raises(UndeclaredSingularityError) as exc:
            integrate(at, rows=rows, tol=1e-13)
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


def test_panels_are_evaluated_in_batches(monkeypatch):
    sizes = []
    gk15 = quadrature._gk15

    def counted(fv, a, b):
        sizes.append(len(a))
        return gk15(fv, a, b)

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


def test_row_form_gives_each_row_its_one_row_result():
    fns = [lambda y: np.abs(y - 0.3), lambda y: -np.log(y), lambda y: 1.0 / y]

    def at(r, z):
        z = np.asarray(z, dtype=float)
        return np.choose(np.broadcast_to(r, z.shape), [g(z) for g in fns])

    rows = [(0, (0.0, 1.0), (), (0.3,)), (1, (0.0, 0.5), (0.0,), ()),
            (2, (0.0, 1.0), (0.0,), (0.5,)), (0, (0.1, 0.9), (), ())]
    for cap in (2000, 1):
        out = integrate(at, rows=rows, tol=1e-12, max_subdivisions=cap)
        assert isinstance(out, quadrature.QuadRows) and len(out) == 4
        for (r, interval, sings, bks), res in zip(rows, out):
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
]


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
        out = integrate(_row_at(), rows=rows, tol=tol)
        assert len(out) == len(rows)
        for row, res in zip(rows, out):
            assert res == _one_row(row, tol)
        # a breakpoint at an end, or twice, adds no cut
        kink = _one_row((0, (0.0, 1.0), (), (0.3,)), tol)
        assert out[0] == out[6] == kink
        assert out[5].value.value == 0.0 and out[5].value.is_finite
        assert out[3].singular_points_handled == ((0.0, "right"),)


@pytest.mark.parametrize("rows", [
    # a plain row after a probed row that refuses
    [(0, (0.0, 1.0), (), (0.3,)), (2, (0.0, 1.0), (0.0,), ()),
     (0, (0.1, 0.9), (), ())],
    # a plain row with a non-finite sample before a probe's refusal
    [(5, (0.0, 1.0), (), (0.5,)), (2, (0.0, 1.0), (0.0,), ())],
    # a probe's refusal before a plain row with a non-finite sample
    [(2, (0.0, 1.0), (0.0,), ()), (5, (0.0, 1.0), (), (0.5,))],
    # a plain row whose total is negative beyond rounding
    [(0, (0.0, 1.0), (), (0.3,)), (4, (0.0, 1.0), (), ()),
     (5, (0.0, 1.0), (), ())],
])
def test_row_form_raises_what_the_first_failing_row_raises(rows):
    want = next(err for err in (_raised(lambda row=row: _one_row(row, 1e-10))
                                for row in rows) if err is not None)
    assert _raised(lambda: integrate(_row_at(), rows=rows, tol=1e-10)) == want


def test_empty_interval_row_raises_after_the_rows_before_it_refine():
    rows = [(0, (0.0, 1.0), (), (0.25,)), (1, (0.0, 0.5), (0.0,), ()),
            (0, (0.5, 0.5), (), ()), (5, (0.0, 1.0), (), ())]
    evaluated = []
    with pytest.raises(PreconditionError) as exc:
        integrate(_row_at(evaluated), rows=rows, tol=1e-13)
    assert str(exc.value) == "empty integration interval [0.5, 0.5]"
    # the rows before it refine to their end, and the row after it is not
    # evaluated at all
    alone = []
    for row in rows[:2]:
        _one_row(row, 1e-13, alone)
    assert sorted(evaluated) == sorted(alone)
