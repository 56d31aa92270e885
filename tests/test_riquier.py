"""Boundary measures and the two-component boundary problem."""

import math

import numpy as np
import pytest

import oracles

from greenlab.errors import (
    ModelDomainError,
    PreconditionError,
    RegularityError,
)
from greenlab.kernels import BiharmonicPair, Fn, constant
from greenlab.models import get_model
from greenlab.models.interval import global_pure_pair
from greenlab.riquier import (
    MeasureTriple,
    biharmonic_measures,
    check_riquier_solution,
    regular_subdomain,
    solve_riquier,
    verify_hyperharmonic,
)


def test_subdomain_validation():
    model = get_model("interval")
    with pytest.raises(PreconditionError):
        regular_subdomain(model, 0.6, 0.4)
    with pytest.raises(PreconditionError):
        regular_subdomain(model, 0.0, 0.5)   # 1/x cannot interpolate at 0
    with pytest.raises(PreconditionError):
        regular_subdomain(model, 0.5, 1.5)
    with pytest.raises(ModelDomainError):
        regular_subdomain(get_model("newtonian5"), 0.1, 0.2)


def test_subdomain_conditioning_guard():
    model = get_model("interval")
    with pytest.raises(RegularityError):
        regular_subdomain(model, 1e-9, 1.0000001e-9)


def test_measure_masses_are_positive_and_normalized():
    model = get_model("interval")
    sub = regular_subdomain(model, 0.2, 0.8)
    triple = biharmonic_measures(model, sub, 0.5)
    assert all(m >= 0.0 for m in triple.mu + triple.nu + triple.lam)
    assert min(triple.nu) > 0.0
    # the constants lie in both bases, so each interpolation resolves 1
    assert sum(triple.mu) == pytest.approx(1.0, abs=1e-12)
    assert sum(triple.lam) == pytest.approx(1.0, abs=1e-12)


def test_measures_reproduce_basis_harmonics():
    model = get_model("interval")
    a, b, x = 0.25, 0.75, 0.4
    sub = regular_subdomain(model, a, b)
    triple = biharmonic_measures(model, sub, x)

    def u(t):
        return 1.5 - 0.3 / t            # first-sheaf harmonic

    def v(t):
        return 0.2 + 0.7 / t ** 2       # second-sheaf harmonic

    swept_u = triple.pair_first((u(a), u(b)), (0.0, 0.0))
    assert swept_u == pytest.approx(u(x), abs=1e-12)
    swept_v = triple.pair_second((v(a), v(b)))
    assert swept_v == pytest.approx(v(x), abs=1e-12)


def test_nu_mass_grows_with_the_subdomain():
    model = get_model("interval")
    x = 0.45
    small = biharmonic_measures(
        model, regular_subdomain(model, 0.3, 0.6), x)
    large = biharmonic_measures(
        model, regular_subdomain(model, 0.2, 0.8), x)
    assert sum(large.nu) > sum(small.nu)


def test_zero_mass_annihilates_infinite_boundary_values():
    triple = MeasureTriple((0.0, 1.0), 0.5, (0.5, 0.5),
                           (0.0, 0.25), (0.5, 0.5))
    assert triple.pair_coupling((math.inf, 4.0)) == 1.0


def test_solve_riquier_residuals():
    rng = np.random.default_rng(9)
    for model_name, omega in (("interval", (0.2, 0.7)),
                              ("bilaplace", (0.1, 0.8))):
        model = get_model(model_name)
        sub = regular_subdomain(model, *omega)
        f = tuple(rng.uniform(-2.0, 2.0, 2))
        g = tuple(rng.uniform(-2.0, 2.0, 2))
        sol = solve_riquier(model, sub, f, g)
        res = check_riquier_solution(model, sol)
        assert res.boundary_gap <= 1e-9
        assert res.l1_residual <= 1e-3
        assert res.l2_residual <= 1e-3
        assert res.passed()


def test_zero_second_data_reduces_to_interpolation():
    model = get_model("interval")
    sub = regular_subdomain(model, 0.3, 0.9)
    sol = solve_riquier(model, sub, (1.0, 2.0), (0.0, 0.0))
    for x in np.linspace(0.35, 0.85, 7):
        assert float(sol.v(x)) == pytest.approx(0.0, abs=1e-14)
        assert float(sol.u(x)) == pytest.approx(
            float(sol.harmonic_part(x)), abs=1e-13)


def test_boundary_data_must_be_finite():
    model = get_model("interval")
    sub = regular_subdomain(model, 0.3, 0.9)
    with pytest.raises(PreconditionError):
        solve_riquier(model, sub, (math.inf, 0.0), (0.0, 0.0))


def test_pure_pair_verifies_hyperharmonic():
    model = get_model("interval")
    probes = [((0.2, 0.8), 0.5), ((0.1, 0.9), 0.3), ((0.3, 0.5), 0.4)]
    report = verify_hyperharmonic(model, global_pure_pair(), probes)
    assert report.passed
    assert not report.violated
    assert report.max_coupling > 1e-3


def test_undersized_pair_is_caught():
    model = get_model("interval")
    small = BiharmonicPair(
        Fn(lambda x: 0.25 * (1.0 - np.asarray(x, dtype=float)),
           vectorized=True),
        constant(1.0))
    probes = [((0.2, 0.8), 0.5), ((0.1, 0.9), 0.4)]
    report = verify_hyperharmonic(model, small, probes)
    assert not report.passed
    assert report.violated


def test_adjoint_triple_needs_the_symmetric_model():
    model = get_model("interval")
    sub = regular_subdomain(model, 0.2, 0.8)
    with pytest.raises(ModelDomainError):
        biharmonic_measures(model, sub, 0.5, adjoint=True)


@pytest.mark.parametrize("model_name, omega, adjoint", [
    ("interval", (0.2, 0.8), False),
    ("interval", (0.05, 0.95), False),
    ("interval", (0.3, 0.35), False),
    ("interval", (0.6, 0.99), False),
    ("bilaplace", (0.0, 1.0), False),
    ("bilaplace", (0.1, 0.8), False),
    ("bilaplace", (0.4, 0.45), False),
    ("bilaplace", (0.0, 1.0), True),
    ("bilaplace", (0.1, 0.8), True),
])
def test_nu_masses_match_the_closed_forms(model_name, omega, adjoint):
    model = get_model(model_name)
    a, b = omega
    sub = regular_subdomain(model, a, b)
    for frac in (0.01, 0.3, 0.5, 0.77, 0.99):
        x = a + frac * (b - a)
        triple = biharmonic_measures(model, sub, x, adjoint=adjoint)
        want = oracles.riquier_nu(model_name, a, b, x)
        assert triple.nu == pytest.approx(want, rel=0.0, abs=1e-10)


@pytest.mark.parametrize("model_name, omega", [
    ("interval", (0.3, 0.9)), ("bilaplace", (0.1, 0.8))])
@pytest.mark.parametrize("f, g", [
    ((0.0, 0.0), (-1.0, -1.0)),
    ((0.5, -1.5), (1.2, -0.7)),
    ((-1.0, 2.0), (-0.4, 1.6)),
    ((2.0, 1.0), (-2.0, -0.5)),
])
def test_signed_riquier_data(model_name, omega, f, g):
    model = get_model(model_name)
    a, b = omega
    sol = solve_riquier(model, regular_subdomain(model, a, b), f, g)
    assert float(sol.u(a)) == pytest.approx(f[0], abs=1e-12)
    assert float(sol.u(b)) == pytest.approx(f[1], abs=1e-12)
    assert check_riquier_solution(model, sol).passed()
    for x in np.linspace(a, b, 9)[1:-1].tolist():
        nu_a, nu_b = oracles.riquier_nu(model_name, a, b, x)
        want = float(sol.harmonic_part(x)) + g[0] * nu_a + g[1] * nu_b
        assert float(sol.u(x)) == pytest.approx(want, rel=0.0, abs=1e-9)


@pytest.mark.parametrize("model_name, omega", [
    ("interval", (0.2, 0.7)), ("bilaplace", (0.0, 1.0))])
def test_u_on_an_array_matches_scalar_calls(model_name, omega):
    model = get_model(model_name)
    a, b = omega
    sol = solve_riquier(model, regular_subdomain(model, a, b),
                        (0.7, -0.3), (-1.1, 0.6))
    xs = np.array([a, 0.31, b, 0.5, 0.2 + 1e-9, 0.45, 0.5, b - 1e-6])
    got = sol.u(xs)
    assert got.shape == xs.shape
    assert got.tolist() == [sol.u(float(x)) for x in xs]
    assert sol.u(xs.reshape(2, 4)).tolist() == got.reshape(2, 4).tolist()
