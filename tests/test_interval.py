"""The interval model: its closed-form identities and the exceptional origin."""

import numpy as np
import pytest

import oracles
from greenlab.adjoint import adjoint_apply
from greenlab.coupling import compose_green
from greenlab.errors import ConditioningError, PreconditionError
from greenlab.kernels import BiharmonicPair, constant
from greenlab.riquier import verify_hyperharmonic
from greenlab.models.interval import (
    OBSTRUCTION_CUTOFF,
    control_density_model,
    global_pure_pair,
    interval_model,
    kink_slope_jump,
    obstruction_u,
    pure_obstruction,
    v1_alt_density_residual,
    v1_identity_residual,
)


def test_v1_identity_on_a_grid():
    for x in np.linspace(0.0, 0.98, 25):
        assert v1_identity_residual(float(x)) <= 1e-6


def test_v1_alt_density_tracks_its_own_antiderivative():
    for x in (0.0, 0.25, 0.5, 0.75, 0.95):
        assert v1_alt_density_residual(x) <= 1e-6
    # the two densities are genuinely different problems away from x = 1
    gap = abs(oracles.interval_v_one(0.0)
              - oracles.interval_v_one_alt_density(0.0))
    assert gap > 0.1


def test_each_named_model_is_one_object():
    # a Riquier subdomain serves one model object, so a constructor called
    # twice must hand back the same one
    assert control_density_model() is control_density_model()
    assert interval_model() is interval_model()


def test_kink_slope_jump_is_minus_one_over_y():
    for y in (0.1, 0.35, 0.8):
        assert kink_slope_jump(y) == pytest.approx(
            oracles.interval_kink_jump(y), abs=1e-8)


def test_kink_probe_rejects_bad_offsets():
    with pytest.raises(PreconditionError):
        kink_slope_jump(1e-7)          # h would reach past the origin
    with pytest.raises(PreconditionError):
        kink_slope_jump(1.2)


def test_pure_partner_of_kernel_slices():
    for y, x in ((0.5, 0.5), (0.7, 0.3), (0.3, 0.7), (0.2, 0.9), (0.5, 0.0)):
        val = compose_green(interval_model(), x, y, tol=1e-11)
        assert val.is_finite
        assert float(val) == pytest.approx(oracles.interval_h(x, y), abs=1e-9)


def test_pure_partner_blows_up_at_the_origin():
    val = compose_green(interval_model(), 0.4, 0.0)
    assert not val.is_finite
    cert = val.certificate
    assert cert.location == pytest.approx(0.0, abs=1e-12)
    assert cert.estimated_exponent == pytest.approx(-1.0, abs=0.05)


def test_obstruction_candidate_value_at_inv_e():
    u = obstruction_u(0.0, 0.0)
    assert float(u(1.0 / np.e)) == pytest.approx(
        oracles.OBSTRUCTION_AT_INV_E, rel=1e-12)


def test_q0_is_positive_inside():
    for x in (0.05, 0.3, 0.9):
        assert float(interval_model().G2.evaluate(x, 0.0)) > 0.0


def test_no_obstruction_candidate_stays_nonnegative():
    rng = np.random.default_rng(11)
    probes = np.geomspace(OBSTRUCTION_CUTOFF, 0.99, 120)
    for _ in range(8):
        a, b = rng.uniform(-10.0, 10.0, 2)
        assert pure_obstruction(a, b, probes) < -1e3


def test_obstruction_probe_validation():
    with pytest.raises(PreconditionError):
        pure_obstruction(0.0, 0.0, [])
    with pytest.raises(PreconditionError):
        pure_obstruction(0.0, 0.0, [OBSTRUCTION_CUTOFF / 10.0])
    with pytest.raises(PreconditionError):
        pure_obstruction(0.0, 0.0, [1.0])


def test_pure_pair_is_strict_where_v_is_positive():
    # the first margin is u(x) - <u, mu_x> - <v, nu_x>: the pure pair's
    # swept mean falls short of u(x) by exactly the coupling term
    (e,) = verify_hyperharmonic(interval_model(), global_pure_pair(),
                                [((0.2, 0.8), 0.5)]).entries
    assert e.coupling > 1e-3
    assert e.margin_first == pytest.approx(0.0, abs=1e-6)


def test_harmonic_pair_has_no_strictness():
    pair = BiharmonicPair(constant(1.0), constant(0.0))
    (e,) = verify_hyperharmonic(interval_model(), pair,
                                [((0.2, 0.8), 0.5)]).entries
    assert abs(e.margin_first) <= 1e-9
    assert abs(e.coupling) <= 1e-12


def test_global_pure_pair_closed_form():
    pair = global_pure_pair()
    for x in (0.0, 0.3, 0.8):
        assert float(pair.u(x)) == pytest.approx(
            oracles.interval_v_one(x), abs=1e-12)
    assert {"pure", "hyperharmonic", "superharmonic"} <= pair.flags


def test_array_v1_residuals_match_their_scalar_loop():
    xs = np.linspace(0.0, 0.98, 50)
    for residual in (v1_identity_residual, v1_alt_density_residual):
        out = residual(xs)
        assert out.shape == xs.shape
        loop = [residual(float(x)) for x in xs]
        assert [r.hex() for r in out.tolist()] == [r.hex() for r in loop]
        assert isinstance(loop[0], float)


@pytest.mark.parametrize("y", [7e-155, 1e-160, 1e-300])
def test_a_point_whose_g2_slice_overflows_is_refused(y):
    # G2(0, y) = 1/y^2 - 1 overflows below about 7.5e-155: the slice is
    # non-finite at the endpoint 0 though y is not 0, and H(0.5, y) and
    # V*(1)(y), which grow only like log(1/y), are refused, not INF
    model = interval_model()
    for op in (lambda: compose_green(model, 0.5, y),
               lambda: adjoint_apply(model, constant(1.0), y)):
        with pytest.raises(ConditioningError) as info:
            op()
        msg = str(info.value)
        assert "interval-G2" in msg and repr(y) in msg and "0.0" in msg
    with pytest.raises(ConditioningError):
        compose_green(model, [0.3, 0.5], [0.2, y])


def test_tiny_points_the_kernels_still_resolve_stay_finite():
    model = interval_model()
    assert float(compose_green(model, 0.5, 1e-150)) == pytest.approx(
        345.251469588, rel=1e-11)
    assert float(adjoint_apply(model, constant(1.0), 1e-150)) == \
        pytest.approx(345.387763949, rel=1e-11)
    assert float(compose_green(model, 1e-160, 0.5)) == pytest.approx(
        1.30685281944, rel=1e-11)
    # the endpoint itself is still the certified INF
    for val in (compose_green(model, 0.5, 0.0),
                adjoint_apply(model, constant(1.0), 0.0)):
        assert not val.is_finite
        assert val.certificate.estimated_exponent == pytest.approx(
            -1.0, abs=0.05)
