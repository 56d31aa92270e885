"""Boundary measures and the two-component boundary problem."""

import math
from dataclasses import replace

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
from greenlab.quadrature import fd_residual
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


def test_subdomain_refusal_names_the_admissible_range():
    # the interval model needs the open (0, 1); the clamped plate allows
    # the closure [0, 1]
    with pytest.raises(PreconditionError) as exc:
        regular_subdomain(get_model("interval"), 0.0, 0.5)
    assert str(exc.value) == "[0, 0.5] does not sit inside (0, 1)"
    with pytest.raises(PreconditionError) as exc:
        regular_subdomain(get_model("bilaplace"), 0.5, 1.5)
    assert str(exc.value) == "[0.5, 1.5] does not sit inside [0, 1]"


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


def test_hyperharmonic_probes_read_the_pair_in_one_call_each():
    model = get_model("interval")
    calls = []

    def u(x):
        calls.append(("u", np.size(x)))
        return 0.5 * (1.0 - np.asarray(x, dtype=float)) + 0.1 / x

    def v(x):
        calls.append(("v", np.size(x)))
        return 1.0 + np.asarray(x, dtype=float) ** 2

    pair = BiharmonicPair(Fn(u, vectorized=True), Fn(v, vectorized=True))
    probes = [((0.2, 0.8), 0.5), ((0.1, 0.9), 0.3), ((0.3, 0.5), 0.4)]
    report = verify_hyperharmonic(model, pair, probes)
    assert calls == [("u", 9), ("v", 9)]
    # the margins of a loop of scalar reads
    for ((a, b), x), e in zip(probes, report.entries):
        tri = biharmonic_measures(model, regular_subdomain(model, a, b), x)
        f, g = (float(u(a)), float(u(b))), (float(v(a)), float(v(b)))
        assert e.margin_first.hex() == \
            (float(u(x)) - tri.pair_first(f, g)).hex()
        assert e.margin_second.hex() == \
            (float(v(x)) - tri.pair_second(g)).hex()
        assert e.coupling.hex() == tri.pair_coupling(g).hex()


def test_riquier_residuals_read_u_and_v_on_all_windows_at_once():
    model = get_model("bilaplace")
    sol = solve_riquier(model, regular_subdomain(model, 0.25, 0.75),
                        (0.4, 0.3), (1.0, 0.5))
    sizes = {"u": [], "v": []}

    def counted(name, fn):
        def at(x):
            sizes[name].append(np.size(x))
            return fn(x)
        return Fn(at, vectorized=True)

    counted_sol = replace(sol, u=counted("u", sol.u), v=counted("v", sol.v))
    res = check_riquier_solution(model, counted_sol)
    # the two ends, the stencil windows of five probes, v at the probes
    assert sizes == {"u": [2, 25], "v": [2, 5, 25]}
    assert res == check_riquier_solution(model, sol)
    assert res.passed()


def _riquier_residuals_loop(model, sol):
    """check_riquier_solution written as a loop of scalar reads."""
    a, b = sol.omega
    boundary_gap = max(abs(float(sol.v(a)) - sol.g[0]),
                       abs(float(sol.v(b)) - sol.g[1]),
                       abs(float(sol.u(a)) - sol.f[0]),
                       abs(float(sol.u(b)) - sol.f[1]))
    h = 1e-2
    pad = 2.5 * h
    l1 = 0.0
    l2 = 0.0
    for x in np.linspace(a, b, 7)[1:-1]:
        x = float(min(max(x, a + pad), b - pad))
        r1 = fd_residual(model.L1_stencil, sol.u, x, h=h) + float(sol.v(x))
        r2 = fd_residual(model.L2_stencil, sol.v, x, h=1e-4)
        l1 = max(l1, abs(r1))
        l2 = max(l2, abs(r2))
    return boundary_gap, l1, l2


@pytest.mark.parametrize("model_name, omega", [
    ("interval", (0.2, 0.7)), ("interval", (0.3, 0.9)),
    ("bilaplace", (0.1, 0.8)), ("bilaplace", (0.0, 1.0))])
def test_riquier_residuals_match_the_scalar_loop(model_name, omega):
    model = get_model(model_name)
    sol = solve_riquier(model, regular_subdomain(model, *omega),
                        (0.5, -1.5), (1.2, -0.7))
    res = check_riquier_solution(model, sol)
    want = _riquier_residuals_loop(model, sol)
    assert [res.boundary_gap.hex(), res.l1_residual.hex(),
            res.l2_residual.hex()] == [w.hex() for w in want]


@pytest.mark.parametrize("model_name, adjoint", [
    ("interval", False), ("bilaplace", False), ("bilaplace", True)])
def test_triples_of_many_subdomains_take_one_call_with_one_point_bits(
        model_name, adjoint, monkeypatch):
    from greenlab import riquier

    model = get_model(model_name)
    probes = [((0.2, 0.8), 0.5), ((0.1, 0.9), 0.3), ((0.3, 0.5), 0.4),
              ((0.2, 0.8), 0.75), ((0.1, 0.9), 0.3)]
    subs = [regular_subdomain(model, a, b) for (a, b), _ in probes]
    xs = [x for _, x in probes]
    alone = [biharmonic_measures(model, sub, x, adjoint=adjoint)
             for sub, x in zip(subs, xs)]
    real, calls = riquier.integrate, []

    def counting(*args, **kwargs):
        calls.append(len(kwargs["rows"]))
        return real(*args, **kwargs)

    monkeypatch.setattr(riquier, "integrate", counting)
    together = riquier._measure_triples(model, subs, xs, adjoint)
    assert calls == [2 * len(probes)]
    assert together == alone
    if not adjoint:
        calls.clear()
        verify_hyperharmonic(model, BiharmonicPair(constant(1.0),
                                                   constant(1.0)), probes)
        assert calls == [2 * len(probes)]
