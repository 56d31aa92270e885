"""The closed forms in oracles.py against 32-digit mpmath references.

Each reference is computed from the defining integral or equation where
there is one (an mpmath quadrature or derivative), not from the closed
form, so a slip in a derivation shows as well as a rounding loss.  A
closed form passes if it is within ULPS units in the last place of the
reference: the benchmark forgives an oracle 8 ulp, and these checks show
it needs no more.
"""

import math

import numpy as np
import pytest

import oracles

mp = pytest.importorskip("mpmath")

ULPS = 8
DIGITS = 32


@pytest.fixture(autouse=True)
def _forty_digits():
    with mp.workdps(DIGITS):
        yield


def _ulps(got: float, want, scale=None) -> float:
    """|got - want| in ulps of the reference, or of ``scale`` if given."""
    ref = abs(float(want)) if scale is None else scale
    return float(abs(mp.mpf(got) - want)) / math.ulp(ref)


def _points(seed: int) -> list[float]:
    """Seeded points of (0, 1): uniform, and within 1e-6 to 1e-1 of 1."""
    rng = np.random.default_rng(seed)
    return (rng.uniform(0.01, 0.99, 12).tolist()
            + (1.0 - 10.0 ** rng.uniform(-6.0, -1.0, 8)).tolist())


def _pairs(seed: int) -> list[tuple[float, float]]:
    """Seeded (x, y) pairs: both orders, near-diagonal and near 1."""
    pts = _points(seed)
    rng = np.random.default_rng(seed + 1)
    near = [(p, p * (1.0 - d)) for p, d in
            zip(pts, (10.0 ** rng.uniform(-12.0, -3.0, len(pts))).tolist())]
    return (list(zip(pts, pts[::-1])) + near + [(y, x) for x, y in near]
            + [(0.0, p) for p in pts[:6]])


def _g1(x, y):
    return 1 / max(mp.mpf(x), mp.mpf(y)) - 1


def _g2(x, y):
    return 1 / max(mp.mpf(x), mp.mpf(y)) ** 2 - 1


def _bilaplace(x, y):
    x, y = mp.mpf(x), mp.mpf(y)
    return min(x, y) * (1 - max(x, y))


def _quad(f, *cuts):
    return mp.quad(f, sorted(set(cuts)), method="gauss-legendre")


def test_interval_closed_forms_match_mpmath():
    for x in _points(1):
        assert _ulps(oracles.interval_g1(x, 0.5), _g1(x, 0.5)) <= ULPS
        assert _ulps(oracles.interval_g2(0.5, x), _g2(0.5, x)) <= ULPS
        assert _ulps(oracles.interval_v_one(x),
                     _quad(lambda z: _g1(x, z) * z, 0, x, 1)) <= ULPS
        assert _ulps(oracles.interval_v_one_alt_density(x),
                     _quad(lambda z: _g1(x, z) * z * (1 - z), 0, x, 1)) <= ULPS
        assert _ulps(oracles._piece_c(x),
                     _quad(lambda z: (1 / z - 1) * (1 / z ** 2 - 1) * z,
                           x, 1)) <= ULPS
        # d/dx [x G1(x, y)] jumps across x = y
        def xg1(t, y=x):
            return t * _g1(t, y)

        jump = mp.diff(xg1, x, direction=1) - mp.diff(xg1, x, direction=-1)
        assert _ulps(oracles.interval_kink_jump(x), jump) <= ULPS


def test_interval_h_matches_mpmath():
    for x, y in _pairs(2):
        want = _quad(lambda z: _g1(x, z) * _g2(z, y) * z, 0, x, y, 1)
        assert _ulps(oracles.interval_h(x, y), want) <= ULPS, (x, y)


def test_obstruction_curve_solves_its_equation():
    for x in _points(3)[:12]:
        for a, b in ((0.0, 0.0), (0.7, -0.2)):
            def u(t):
                return mp.log(t) / t + t / 2 + a + b / t

            # (x u)'' = 1 - 1/x^2; the terms' sizes set the rounding scale
            assert mp.almosteq(mp.diff(lambda t: t * u(t), x, 2),
                               1 - 1 / mp.mpf(x) ** 2, 1e-25)
            scale = abs(math.log(x) / x) + x / 2 + abs(a) + abs(b / x)
            assert _ulps(oracles.obstruction_curve(x, a, b), u(mp.mpf(x)),
                         scale) <= ULPS


@pytest.mark.parametrize("beta, gamma", [(2.0, 1.5), (2.0, 2.0)])
def test_power_family_closed_forms_match_mpmath(beta, gamma):
    # (2, 2) takes the log form of the z^-1 piece above x; tanh-sinh, not
    # Gauss-Legendre, for the z^(gamma - beta) singularity at 0
    x = 0.5
    want_h = mp.quad(lambda z: _g1(x, z) * (z ** -beta - 1) * z ** gamma,
                     [0, x, 1])
    want_v = mp.quad(lambda z: (z ** -beta - 1) * z ** gamma, [0, 1])
    assert _ulps(oracles.power_family_h(beta, gamma, x), want_h) <= ULPS
    assert _ulps(oracles.power_family_vstar_one(beta, gamma), want_v) <= ULPS
    for call in (lambda: oracles.power_family_h(2.0, 1.0, x),
                 lambda: oracles.power_family_vstar_one(2.0, 0.9)):
        with pytest.raises(ValueError, match="infinite"):
            call()


def test_bilaplace_closed_forms_match_mpmath():
    for x in _points(4):
        assert _ulps(oracles.bilaplace_g(x, 0.3), _bilaplace(x, 0.3)) <= ULPS
        assert _ulps(oracles.bilaplace_v_one(x),
                     _quad(lambda z: _bilaplace(x, z), 0, x, 1)) <= ULPS
    for x, y in _pairs(5):
        if x == 0.0:
            continue
        want = _quad(lambda z: _bilaplace(x, z) * _bilaplace(z, y), 0, x, y, 1)
        assert _ulps(oracles.bilaplace_h(x, y), want) <= ULPS, (x, y)


def test_newtonian_closed_forms_match_mpmath():
    rng = np.random.default_rng(6)
    for n in range(5, 13):
        area = 2 * mp.pi ** (mp.mpf(n) / 2) / mp.gamma(mp.mpf(n) / 2)
        assert _ulps(oracles.sphere_area(n), area) <= ULPS
        # c_n makes the flux of c_n |x|^(2-n) through the unit sphere one
        c = 1 / ((n - 2) * area)
        assert _ulps(oracles.newton_c(n), c) <= ULPS
        for d in (10.0 ** rng.uniform(-3.0, 1.0, 3)).tolist():
            # the shell average of |z - y|^(2-n) over |z - x| = s is
            # max(s, d)^(2-n)
            want = c ** 2 * area * mp.quad(
                lambda s: s * max(s, mp.mpf(d)) ** (2 - n), [0, d, mp.inf])
            assert _ulps(oracles.newtonian_h(n, d), want) <= ULPS, (n, d)
            r = 4.0 * d
            want = c * area * _quad(lambda s: s, 0, r)
            assert _ulps(oracles.newtonian_truncated_v(n, r), want) <= ULPS


def _nu_reference(model, a, b, x, side):
    """The mass nu_a or nu_b from the Green function of -d^2/dt^2 on [a, b].

    (x nu)'' = -c on the interval model and nu'' = -c on the clamped
    plate, with zero values at a and b, so x nu or nu is the integral of
    (min - a)(b - max)/(b - a) against c.
    """
    a, b, x = mp.mpf(a), mp.mpf(b), mp.mpf(x)
    if model == "bilaplace":
        def c(t):
            return (b - t) / (b - a) if side == 0 else (t - a) / (b - a)
    else:
        d = 1 / a ** 2 - 1 / b ** 2

        def c(t):
            return ((1 / t ** 2 - 1 / b ** 2) if side == 0
                    else (1 / a ** 2 - 1 / t ** 2)) / d

    def green(t):
        return (min(x, t) - a) * (b - max(x, t)) / (b - a)

    y = _quad(lambda t: green(t) * c(t), a, x, b)
    return y / x if model == "interval" else y


@pytest.mark.parametrize("model", ["bilaplace", "interval"])
def test_riquier_nu_matches_mpmath(model):
    rng = np.random.default_rng(7)
    for _ in range(8):
        a = float(rng.uniform(0.05, 0.6))
        b = float(rng.uniform(a + 0.05, 0.98))
        for frac in (1e-3, 0.3, 0.77, 1.0 - 1e-3):
            x = a + frac * (b - a)
            got = oracles.riquier_nu(model, a, b, x)
            # on the interval model the chord gap cancels like (b/(b-a))^2
            allow = ULPS if model == "bilaplace" else ULPS * (b / (b - a)) ** 2
            for side in (0, 1):
                want = _nu_reference(model, a, b, x, side)
                assert _ulps(got[side], want) <= allow, (a, b, x, side)


def test_vanishing_battery_forms_match_mpmath():
    # the three forms of bound_miss_report.py that vanish to the last bit
    # near 0, each against its defining integral on (0, 1)
    cases = ((oracles.UNIT_RAMP, lambda x: max(x - 0.1, 0), (0, 0.1, 1)),
             (oracles.unit_power(400.0), lambda x: x ** 400,
              (0, 0.5, 0.9, 0.99, 1)),
             (oracles.UNIT_EXP_RECIPROCAL, lambda x: mp.exp(-1 / x),
              (0, 0.05, 0.25, 1)))
    for got, f, cuts in cases:
        assert _ulps(got, _quad(f, *cuts)) <= ULPS, got
