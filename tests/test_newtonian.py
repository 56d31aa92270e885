"""The radial family: power laws, flux normalization, and tail escapes."""

import math
import time

import numpy as np
import pytest

import oracles
from greenlab import quadrature
from greenlab.kernels import bump
from greenlab.coupling import coupling_apply
from greenlab.errors import (
    ConditioningError,
    DomainError,
    ModelDomainError,
    PreconditionError,
)
from greenlab.models import newtonian
from greenlab.models.newtonian import (
    _composition_outer,
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


def test_point_value_traces_record_the_true_separation():
    # off the diagonal, d^(2-n) overflows only at a tiny separation d
    certified = [(n, kernel_at_distance(n, d)) for n, d in
                 ((7, 1e-65), (12, 1e-40), (40, 1e-8), (100, 1e-3))]
    rng = np.random.default_rng(7)
    for n, off in ((6, 1e-160), (40, 1e-9)):
        x = rng.uniform(-1.0, 1.0, n)
        y = x.copy()
        y[1] += off
        certified.append((n, newton_kernel(n, x, y)))
    for n, val in certified:
        assert not val.is_finite
        trace = val.certificate.probe_trace
        assert len(trace) >= 2
        for s, v in trace:
            assert v == pytest.approx(oracles.newton_c(n) * s ** (2 - n),
                                      rel=1e-12)


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


# Separations from the nearest accepted one to far beyond the tail start.
COVERAGE_DISTANCES = (1e-3, 3e-3, 0.02, 0.1, 0.5, 1.0, 2.0, 3.7, 10.0)


def test_composed_kernel_bounds_cover_the_shell_theorem_oracle():
    cases = [(n, d, 1e-7) for n in (5, 6, 7) for d in COVERAGE_DISTANCES]
    cases += [(n, d, 1e-9) for n in (5, 6, 7) for d in COVERAGE_DISTANCES
              if d >= 0.02]
    for n, d, tol in cases:
        val = riesz_compose(n, 0.0, d, tol=tol)
        want = oracles.newtonian_h(n, d)
        assert abs(val.value - want) <= val.error_bound + 8 * math.ulp(want), \
            (n, d, tol)
        # at n = 7 close to the diagonal H is 4e4-1e6 against an absolute
        # tol, and the carried inner error may exceed it
        if n < 7 or d >= 0.02:
            assert val.error_bound <= tol, (n, d, tol)


def test_composition_inner_error_covers_the_angular_integrals():
    # Newton's theorem gives the outer integrand in closed form; radii within
    # 1e-12 of d put a dip far narrower than a panel's nodes at theta = 0
    d = 0.01
    gaps = np.geomspace(1e-12, 0.9, 25)
    s = d * np.concatenate([1.0 - gaps, 1.0 + gaps, 1.0 + 100.0 * gaps, [1.0]])
    for n in (5, 6, 7):
        exact = oracles.newton_c(n) ** 2 * oracles.sphere_area(n) * s \
            * np.maximum(s, d) ** (2.0 - n)
        for inner_tol in (1e-4, 1e-7, 1e-10, 1e-13):
            outer = _composition_outer(n, d, inner_tol)
            rel = np.abs(outer(s) - exact) / exact
            assert 0.0 < outer.rho <= inner_tol
            assert np.all(rel <= outer.rho + 8 * np.finfo(float).eps), \
                (n, inner_tol)


def test_composed_kernel_bound_carries_the_inner_error(monkeypatch):
    outers = []

    def kept(*args):
        outers.append(_composition_outer(*args))
        return outers[-1]

    monkeypatch.setattr(newtonian, "_composition_outer", kept)
    # at n = 7 and d = 1e-3, H is about 1e6: the relative inner error is most
    # of the bound
    for n, d in ((5, 1.0), (7, 1e-3)):
        val = riesz_compose(n, 0.0, d)
        assert val.error_bound >= outers[-1].rho * val.value > 0.0


def test_composed_kernel_diagonal_is_certified_in_every_dimension():
    start = time.perf_counter()
    val = riesz_compose(5, 0.0, 0.0)
    assert time.perf_counter() - start < 0.2
    for n in (5, 6, 7):
        val = riesz_compose(n, 0.0, 0.0)
        assert not val.is_finite
        assert val.certificate.side == "diagonal"
        assert val.certificate.estimated_exponent == pytest.approx(
            3.0 - n, abs=0.05)


def test_composition_makes_no_scalar_fallback_evaluation(monkeypatch):
    scalar = []
    as_vectorized = quadrature.as_vectorized

    def watched(f):
        if not getattr(f, "vectorized", False):
            scalar.append(f)
        return as_vectorized(f)

    monkeypatch.setattr(quadrature, "as_vectorized", watched)
    riesz_compose(5, 0.0, 1.0)
    riesz_compose(6, 0.0, 0.0)
    composition_tail_report(4)
    assert scalar == []


def test_near_diagonal_refused_as_ill_conditioned():
    with pytest.raises(ConditioningError):
        riesz_compose(5, 0.0, 5.0e-4)


def test_constant_coupling_diverges_with_tail_exponent_one():
    for n in (5, 6):
        cert = constant_coupling_divergence(n)
        assert cert.estimated_exponent == pytest.approx(1.0, abs=0.05)


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
