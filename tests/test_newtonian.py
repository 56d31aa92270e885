"""The radial family: power laws, flux normalization, and tail escapes."""

import numpy as np
import pytest

import oracles
from greenlab.kernels import bump
from greenlab.coupling import coupling_apply
from greenlab.errors import (
    ConditioningError,
    DomainError,
    ModelDomainError,
    PreconditionError,
)
from greenlab.models.newtonian import (
    composition_tail_report,
    constant_coupling_divergence,
    gauss_flux,
    kernel_at_distance,
    newton_constant,
    newton_kernel,
    newtonian_model,
    riesz_compose,
    truncated_constant_coupling,
)


def test_newton_constant_matches_oracle():
    for n in (5, 6, 7):
        assert newton_constant(n) == pytest.approx(
            oracles.newton_c(n), rel=1e-14)


def test_kernel_power_law():
    for n in (5, 6):
        for d in (0.5, 1.0, 2.0):
            want = oracles.newton_c(n) * d ** (2 - n)
            assert float(kernel_at_distance(n, d)) == pytest.approx(
                want, rel=1e-14)


def test_kernel_diagonal_is_certified():
    val = kernel_at_distance(5, 0.0)
    assert not val.is_finite
    assert val.certificate.estimated_exponent == pytest.approx(-3.0)
    with pytest.raises(PreconditionError):
        kernel_at_distance(5, -1.0)


def test_kernel_accepts_scalar_and_coordinate_points():
    a = newton_kernel(5, 0.0, 1.0)
    b = newton_kernel(5, np.zeros(5), np.array([1.0, 0.0, 0.0, 0.0, 0.0]))
    assert float(a) == float(b)
    diag = newton_kernel(5, 0.37, 0.37)
    assert diag.certificate == kernel_at_distance(5, 0.0).certificate
    # a non-finite scalar or coordinate is no point of R^n, at every surface
    model = newtonian_model(5)
    for bad in (np.inf, np.nan, np.array([0.0, 0.0, np.nan, 0.0, 0.0])):
        with pytest.raises(DomainError):
            newton_kernel(5, 0.0, bad)
        with pytest.raises(DomainError):
            coupling_apply(model, bump(0.5, 0.2), bad)
        with pytest.raises(DomainError):
            riesz_compose(5, bad, 1.0)


def test_dimension_gate():
    with pytest.raises(ModelDomainError):
        newtonian_model(4)
    with pytest.raises(ModelDomainError):
        kernel_at_distance(3, 1.0)


def test_gauss_flux_normalization():
    for r in (0.5, 1.0, 2.0):
        assert gauss_flux(5, r) == pytest.approx(
            oracles.NEWTONIAN_FLUX, abs=1e-6)
    assert gauss_flux(6, 1.0) == pytest.approx(
        oracles.NEWTONIAN_FLUX, abs=1e-6)


def test_composed_kernel_against_shell_average_oracle():
    for n, d in ((5, 0.5), (5, 1.0), (5, 2.0), (6, 1.0)):
        val = riesz_compose(n, 0.0, d)
        assert val.is_finite
        assert float(val) == pytest.approx(oracles.newtonian_h(n, d),
                                           rel=1e-5)
    tight = riesz_compose(5, 0.0, 1.0, tol=1e-9)
    assert float(tight) == pytest.approx(oracles.H5_TIMES_D, rel=1e-7)


def test_composed_kernel_diagonal_divergence():
    val = riesz_compose(5, 0.0, 0.0)
    assert not val.is_finite
    cert = val.certificate
    assert cert.side == "diagonal"
    assert cert.estimated_exponent == pytest.approx(-2.0, abs=0.05)


def test_near_diagonal_refused_as_ill_conditioned():
    with pytest.raises(ConditioningError):
        riesz_compose(5, 0.0, 5.0e-4)


def test_constant_coupling_diverges_with_tail_exponent_one():
    for n in (5, 6):
        cert = constant_coupling_divergence(n)
        assert cert.estimated_exponent == pytest.approx(1.0, abs=0.05)
    # translation invariance: an explicit base point changes nothing
    cert = constant_coupling_divergence(5, x=1.0)
    assert cert.estimated_exponent == pytest.approx(1.0, abs=0.05)
    with pytest.raises(PreconditionError):
        constant_coupling_divergence(5, c=0.0)


def test_truncated_coupling_closed_form():
    val = truncated_constant_coupling(5, 2.0)
    assert float(val) == pytest.approx(
        oracles.newtonian_truncated_v(5, 2.0), abs=1e-8)
    assert oracles.newtonian_truncated_v(5, 2.0) == pytest.approx(2.0 / 3.0)
    val6 = truncated_constant_coupling(6, 1.0)
    assert float(val6) == pytest.approx(
        oracles.newtonian_truncated_v(6, 1.0), abs=1e-8)
    with pytest.raises(PreconditionError):
        truncated_constant_coupling(5, 0.0)


def test_composition_tail_contrast_across_the_dimension_gate():
    r4 = composition_tail_report(4)
    assert r4.divergent
    assert r4.estimated_exponent == pytest.approx(-1.0, abs=0.05)
    r5 = composition_tail_report(5)
    assert not r5.divergent
    assert r5.estimated_exponent == pytest.approx(-2.0, abs=0.05)
    with pytest.raises(ModelDomainError):
        composition_tail_report(3)
