"""The clamped-plate model, where everything is finite and symmetric."""

import numpy as np
import pytest

import oracles
from greenlab.errors import PreconditionError
from greenlab.models.bilaplace import (
    bilaplace_model,
    global_pure_pair,
    h_closed_form,
    h_sym,
    navier_check,
)
from greenlab.riquier import biharmonic_measures, regular_subdomain


def test_closed_form_agrees_with_reference():
    rng = np.random.default_rng(3)
    for _ in range(50):
        x, y = rng.uniform(0.0, 1.0, 2)
        assert h_closed_form(x, y) == pytest.approx(
            oracles.bilaplace_h(x, y), rel=1e-13, abs=1e-15)


def test_closed_form_domain_check():
    with pytest.raises(PreconditionError):
        h_closed_form(-0.1, 0.5)
    with pytest.raises(PreconditionError):
        h_closed_form(0.5, 1.1)


def test_quadrature_h_matches_closed_form():
    rng = np.random.default_rng(4)
    for _ in range(10):
        x, y = rng.uniform(0.05, 0.95, 2)
        assert float(h_sym(x, y)) == pytest.approx(
            h_closed_form(x, y), abs=1e-10)


def test_center_value():
    assert oracles.BILAPLACE_H_CENTER == 1.0 / 48.0
    assert float(h_sym(0.5, 0.5)) == pytest.approx(
        oracles.BILAPLACE_H_CENTER, abs=1e-10)


def test_h_is_symmetric():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(8):
        x, y = rng.uniform(0.05, 0.95, 2)
        worst = max(worst, abs(float(h_sym(x, y)) - float(h_sym(y, x))))
    assert worst <= 1e-10


def test_navier_reading_of_h():
    rep = navier_check(0.5)
    assert rep.max_l1_residual <= 1e-3
    assert max(abs(v) for v in rep.boundary_values) <= 1e-6
    assert rep.third_jump == pytest.approx(
        oracles.BILAPLACE_THIRD_JUMP, abs=1e-2)
    assert rep.passed()


def test_navier_kink_must_be_interior():
    with pytest.raises(PreconditionError):
        navier_check(0.0)
    with pytest.raises(PreconditionError):
        navier_check(1.0)


def test_nu_masses_at_the_center():
    model = bilaplace_model()
    sub = regular_subdomain(model, 0.0, 1.0)
    triple = biharmonic_measures(model, sub, 0.5)
    for mass in triple.nu:
        assert mass == pytest.approx(oracles.BILAPLACE_NU_MASS, abs=1e-9)
    # both bases contain the constants, so the endpoint weights resolve 1
    assert sum(triple.mu) == pytest.approx(1.0, abs=1e-12)
    assert sum(triple.lam) == pytest.approx(1.0, abs=1e-12)


def test_global_pure_pair_closed_form():
    pair = global_pure_pair()
    for x in (0.1, 0.5, 0.9):
        assert float(pair.u(x)) == pytest.approx(
            oracles.bilaplace_v_one(x), abs=1e-12)
    assert {"pure", "hyperharmonic", "superharmonic"} <= pair.flags


def _navier_loop(y):
    """navier_check written as a loop of scalar H calls, as the reference."""
    model = bilaplace_model()
    probes = [p / 10.0 for p in range(1, 10)]
    probes = [p for p in probes if abs(p - y) >= 0.05]
    h = 1e-2

    def hq(x):
        return float(h_sym(float(x), y, tol=1e-10))

    def stencil(x, s):
        return (hq(x - s) - 2.0 * hq(x) + hq(x + s)) / (s * s)

    gslice = model.G2.slice_in_first(y)
    max_res = 0.0
    for x in probes:
        d = (4.0 * stencil(x, 0.5 * h) - stencil(x, h)) / 3.0
        max_res = max(max_res, abs(d + float(gslice(x))))
    boundary = (hq(1e-6), hq(1.0 - 1e-6))
    step = min(2e-2, y / 5.0, (1.0 - y) / 5.0)
    left = [hq(y - k * step) for k in (4, 3, 2, 1)]
    right = [hq(y + k * step) for k in (1, 2, 3, 4)]
    third = lambda f0, f1, f2, f3: (f3 - 3.0 * f2 + 3.0 * f1 - f0) / step ** 3
    return max_res, boundary, third(*right) - third(*left)


def test_navier_check_matches_the_scalar_loop():
    for y in (0.25, 0.5, 0.75):
        rep = navier_check(y)
        max_res, boundary, jump = _navier_loop(y)
        assert rep.max_l1_residual.hex() == max_res.hex()
        assert [v.hex() for v in rep.boundary_values] == \
            [v.hex() for v in boundary]
        assert rep.third_jump.hex() == jump.hex()
