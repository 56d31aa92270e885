"""Boundary measures and the two-component boundary problem."""

import math
from dataclasses import replace

import numpy as np
import pytest

import oracles

from greenlab import riquier
from greenlab.errors import (
    DomainError,
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
    fd_residual,
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
    triple = biharmonic_measures(sub, 0.5)
    assert all(m >= 0.0 for m in triple.mu + triple.nu + triple.lam)
    assert min(triple.nu) > 0.0
    # the constants lie in both bases, so each interpolation resolves 1
    assert sum(triple.mu) == pytest.approx(1.0, abs=1e-12)
    assert sum(triple.lam) == pytest.approx(1.0, abs=1e-12)


def test_measures_reproduce_basis_harmonics():
    model = get_model("interval")
    a, b, x = 0.25, 0.75, 0.4
    sub = regular_subdomain(model, a, b)
    triple = biharmonic_measures(sub, x)

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
    small = biharmonic_measures(regular_subdomain(model, 0.3, 0.6), x)
    large = biharmonic_measures(regular_subdomain(model, 0.2, 0.8), x)
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
        sol = solve_riquier(sub, f, g)
        res = check_riquier_solution(sol)
        assert res.boundary_gap <= 1e-9
        assert res.l1_residual <= 1e-3
        assert res.l2_residual <= 1e-3
        assert res.passed()


def test_zero_second_data_reduces_to_interpolation():
    model = get_model("interval")
    sub = regular_subdomain(model, 0.3, 0.9)
    sol = solve_riquier(sub, (1.0, 2.0), (0.0, 0.0))
    for x in np.linspace(0.35, 0.85, 7):
        assert float(sol.v(x)) == pytest.approx(0.0, abs=1e-14)
        assert float(sol.u(x)) == pytest.approx(
            float(sub.interpolant1(1.0, 2.0)(x)), abs=1e-13)


def test_boundary_data_must_be_finite():
    model = get_model("interval")
    sub = regular_subdomain(model, 0.3, 0.9)
    with pytest.raises(PreconditionError):
        solve_riquier(sub, (math.inf, 0.0), (0.0, 0.0))


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


def test_a_nan_margin_is_violated():
    model = get_model("interval")
    pair = BiharmonicPair(constant(math.nan), constant(1.0))
    report = verify_hyperharmonic(model, pair, [((0.2, 0.8), 0.5)])
    assert math.isnan(report.entries[0].margin_first)
    assert report.violated == report.entries
    assert not report.passed


def test_adjoint_triple_needs_the_symmetric_model():
    # the interval adjoint swaps kernels that differ, so it has no kink
    # density and no Riquier problem
    with pytest.raises(ModelDomainError, match="no kink density"):
        regular_subdomain(get_model("interval").adjoint, 0.2, 0.8)


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
    if adjoint:
        model = model.adjoint
    a, b = omega
    sub = regular_subdomain(model, a, b)
    for frac in (0.01, 0.3, 0.5, 0.77, 0.99):
        x = a + frac * (b - a)
        triple = biharmonic_measures(sub, x)
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
    sub = regular_subdomain(model, a, b)
    sol = solve_riquier(sub, f, g)
    assert float(sol.u(a)) == pytest.approx(f[0], abs=1e-12)
    assert float(sol.u(b)) == pytest.approx(f[1], abs=1e-12)
    assert check_riquier_solution(sol).passed()
    for x in np.linspace(a, b, 9)[1:-1].tolist():
        nu_a, nu_b = oracles.riquier_nu(model_name, a, b, x)
        want = float(sub.interpolant1(*f)(x)) + g[0] * nu_a + g[1] * nu_b
        assert float(sol.u(x)) == pytest.approx(want, rel=0.0, abs=1e-9)


@pytest.mark.parametrize("model_name, omega", [
    ("interval", (0.2, 0.7)), ("bilaplace", (0.0, 1.0))])
def test_u_on_an_array_matches_scalar_calls(model_name, omega):
    model = get_model(model_name)
    a, b = omega
    sol = solve_riquier(regular_subdomain(model, a, b),
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
        tri = biharmonic_measures(regular_subdomain(model, a, b), x)
        f, g = (float(u(a)), float(u(b))), (float(v(a)), float(v(b)))
        assert e.margin_first.hex() == \
            (float(u(x)) - tri.pair_first(f, g)).hex()
        assert e.margin_second.hex() == \
            (float(v(x)) - tri.pair_second(g)).hex()
        assert e.coupling.hex() == tri.pair_coupling(g).hex()


def test_riquier_residuals_read_u_and_v_on_all_windows_at_once():
    model = get_model("bilaplace")
    sol = solve_riquier(regular_subdomain(model, 0.25, 0.75),
                        (0.4, 0.3), (1.0, 0.5))
    sizes = {"u": [], "v": []}

    def counted(name, fn):
        def at(x):
            sizes[name].append(np.size(x))
            return fn(x)
        return Fn(at, vectorized=True)

    counted_sol = replace(sol, u=counted("u", sol.u), v=counted("v", sol.v))
    res = check_riquier_solution(counted_sol)
    # the two ends, the stencil windows of five probes, v at the probes
    assert sizes == {"u": [2, 25], "v": [2, 5, 25]}
    assert res == check_riquier_solution(sol)
    assert res.passed()


def _riquier_residuals_loop(model, sol):
    """check_riquier_solution written as a loop of scalar reads."""
    a, b = sol.sub.a, sol.sub.b
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
    sol = solve_riquier(regular_subdomain(model, *omega),
                        (0.5, -1.5), (1.2, -0.7))
    res = check_riquier_solution(sol)
    want = _riquier_residuals_loop(model, sol)
    assert [res.boundary_gap.hex(), res.l1_residual.hex(),
            res.l2_residual.hex()] == [w.hex() for w in want]


@pytest.mark.parametrize("model_name, adjoint", [
    ("interval", False), ("bilaplace", False), ("bilaplace", True)])
def test_triples_of_many_subdomains_take_one_call_with_one_point_bits(
        model_name, adjoint, monkeypatch):
    from greenlab import riquier

    model = get_model(model_name)
    if adjoint:
        model = model.adjoint
    probes = [((0.2, 0.8), 0.5), ((0.1, 0.9), 0.3), ((0.3, 0.5), 0.4),
              ((0.2, 0.8), 0.75), ((0.1, 0.9), 0.3)]
    subs = [regular_subdomain(model, a, b) for (a, b), _ in probes]
    xs = [x for _, x in probes]
    alone = [biharmonic_measures(sub, x)
             for sub, x in zip(subs, xs)]
    real, calls = riquier.integrate, []

    def counting(*args, **kwargs):
        calls.append(kwargs["rows"][0])      # the number of rows
        return real(*args, **kwargs)

    monkeypatch.setattr(riquier, "integrate", counting)
    # fresh subdomains, which hold none of alone's masses
    fresh = [regular_subdomain(model, a, b) for (a, b), _ in probes]
    together = biharmonic_measures(fresh, xs)
    assert calls == [2 * len(probes)]
    assert together == alone
    if not adjoint:
        calls.clear()
        verify_hyperharmonic(model, BiharmonicPair(constant(1.0),
                                                   constant(1.0)), probes)
        # one subdomain per omega, so the repeated probe is one point
        assert calls == [2 * len(set(probes))]


def test_measures_of_many_points_are_one_call_with_one_point_triples(
        monkeypatch):
    from greenlab import riquier

    model = get_model("interval")
    subs = [regular_subdomain(model, a, b)
            for a, b in ((0.2, 0.8), (0.1, 0.9), (0.3, 0.5))]
    xs = [0.5, 0.3, 0.4]
    alone = [biharmonic_measures(sub, x) for sub, x in zip(subs, xs)]
    real, calls = riquier.integrate, []

    def counting(*args, **kwargs):
        calls.append(kwargs["rows"][0])      # the number of rows
        return real(*args, **kwargs)

    monkeypatch.setattr(riquier, "integrate", counting)
    fresh = [regular_subdomain(model, a, b)
             for a, b in ((0.2, 0.8), (0.1, 0.9), (0.3, 0.5), (0.1, 0.9))]
    assert biharmonic_measures(fresh[:3], xs) == alone
    # a point asked twice of one subdomain is integrated once
    assert biharmonic_measures(fresh[3:] * 2, xs[1:2] * 2) == \
        [alone[1]] * 2
    assert calls == [6, 2]
    with pytest.raises(PreconditionError):
        biharmonic_measures(subs, xs[:2])


@pytest.mark.parametrize("model_name, adjoint", [
    ("interval", False), ("bilaplace", False), ("bilaplace", True)])
def test_mu_and_lambda_are_the_interpolants_of_unit_data(model_name,
                                                         adjoint):
    # mu_j(x) and lambda_j(x) are the first and second basis' interpolants
    # at x of the data that is 1 at a (j = 0) or b (j = 1) and 0 at the
    # other end, clipped at 0; the adjoint space swaps the bases
    model = get_model(model_name)
    if adjoint:
        model = model.adjoint
    probes = [((0.2, 0.8), 0.5), ((0.1, 0.9), 0.13), ((0.3, 0.5), 0.47),
              ((0.05, 0.6), 0.4), ((0.5, 0.95), 0.9)]
    subs = [regular_subdomain(model, a, b) for (a, b), _ in probes]
    xs = [x for _, x in probes]
    triples = biharmonic_measures(subs, xs)
    for sub, x, triple in zip(subs, xs, triples):
        first = [max(float(sub.interpolant1(*unit)(x)), 0.0)
                 for unit in ((1.0, 0.0), (0.0, 1.0))]
        second = [max(float(sub.interpolant2(*unit)(x)), 0.0)
                  for unit in ((1.0, 0.0), (0.0, 1.0))]
        assert list(triple.mu) == first
        assert list(triple.lam) == second


def test_a_subdomain_built_for_another_model_is_refused(monkeypatch):
    # a subdomain carries its model, so only a call on subdomains of two
    # model objects can mix them: it is refused before any integration
    def refuse(*args, **kwargs):
        raise AssertionError("integrate was called")

    monkeypatch.setattr(riquier, "integrate", refuse)
    interval, bilaplace = get_model("interval"), get_model("bilaplace")
    for model, other in ((bilaplace, interval), (interval, bilaplace)):
        subs = [regular_subdomain(model, 0.3, 0.7),
                regular_subdomain(other, 0.3, 0.7)]
        with pytest.raises(PreconditionError) as info:
            biharmonic_measures(subs, [0.5, 0.5])
        assert str(info.value) == (f"subdomains of two model objects, "
                                   f"{model.id} and {other.id}, in one call")
        assert not any(sub.mass_rows for sub in subs)


def test_an_infinite_value_gives_an_infinite_margin():
    # u = +inf at the probe point: the center exceeds any sweep.  u = +inf
    # at an end: the sweep is +inf and the probe is violated
    model = get_model("interval")
    probe = ((0.2, 0.8), 0.5)
    for at, margin in ((0.5, math.inf), (0.2, -math.inf)):
        pair = BiharmonicPair(lambda x: math.inf if x == at else 1.0,
                              constant(0.0))
        report = verify_hyperharmonic(model, pair, [probe])
        (entry,) = report.entries
        assert entry.margin_first == margin and entry.margin_second == 0.0
        assert report.passed is (margin > 0)


def test_a_solution_refuses_points_off_its_subdomain():
    model = get_model("interval")
    sub = regular_subdomain(model, 0.3, 0.6)
    sol = solve_riquier(sub, (1.0, 2.0), (1.0, 1.0))
    for fn in (sol.u, sol.v):
        for x, named in ((0.9, "0.9"), (0.1, "0.1"), ([0.4, 0.7], "0.7"),
                         (np.array([[0.3, 0.6], [0.45, 0.2999]]), "0.2999"),
                         (math.nan, "nan")):
            with pytest.raises(DomainError) as info:
                fn(x)
            assert str(info.value) == \
                f"{named} lies outside the subdomain [0.3, 0.6]"
        # the ends stay accepted
        assert np.asarray(fn(np.array([0.3, 0.6]))).shape == (2,)
    assert sol.u(0.3) == pytest.approx(1.0, abs=1e-12)
    assert float(sol.v(0.6)) == pytest.approx(1.0, abs=1e-12)
    # a refused point is never integrated, so the subdomain holds nothing
    assert not sub.mass_rows


def _counted_rows(monkeypatch) -> list:
    """The row count of every riquier integrate call from here on."""
    real, calls = riquier.integrate, []

    def counting(*args, **kwargs):
        calls.append(kwargs["rows"][0])
        return real(*args, **kwargs)

    monkeypatch.setattr(riquier, "integrate", counting)
    return calls


@pytest.mark.parametrize("model_name, omega", [
    ("interval", (0.2, 0.7)), ("bilaplace", (0.1, 0.8))])
def test_a_second_solution_reads_the_held_masses(model_name, omega,
                                                  monkeypatch):
    model = get_model(model_name)
    a, b = omega
    xs = np.linspace(a, b, 9)
    fresh = solve_riquier(regular_subdomain(model, a, b),
                          (0.7, -0.3), (-1.1, 0.6)).u(xs)
    sub = regular_subdomain(model, a, b)
    tri = biharmonic_measures(sub, float(xs[3]))
    calls = _counted_rows(monkeypatch)
    first = solve_riquier(sub, (0.2, 0.4), (1.5, 0.5))
    first.u(xs)
    assert calls == [2 * 6]         # the 7 inner points, one held
    second = solve_riquier(sub, (0.7, -0.3), (-1.1, 0.6))
    assert second.u(xs).tolist() == fresh.tolist()
    assert biharmonic_measures(sub, float(xs[3])) == tri
    assert calls == [2 * 6]
    # one row per distinct inner point, and a replaced subdomain holds none
    assert len(sub.mass_rows) == 7
    assert replace(sub).mass_rows == {}


def test_a_mixed_batch_integrates_only_the_new_points(monkeypatch):
    model = get_model("bilaplace")
    sub = regular_subdomain(model, 0.1, 0.8)
    sol = solve_riquier(sub, (0.4, 0.3), (1.0, 0.5))
    held = sol.u([0.3, 0.5])
    calls = _counted_rows(monkeypatch)
    xs = [0.3, 0.4, 0.5, 0.6, 0.4, 0.8]
    got = sol.u(xs)
    assert calls == [2 * 2]         # 0.4 and 0.6, each once
    assert got[[0, 2]].tolist() == held.tolist()
    fresh = solve_riquier(regular_subdomain(model, 0.1, 0.8),
                          (0.4, 0.3), (1.0, 0.5))
    assert got.tolist() == fresh.u(xs).tolist()


def test_the_adjoint_triple_reads_the_forward_masses(monkeypatch):
    # on the clamped plate both kernels and both bases are equal, so the
    # plate is its own adjoint space: the adjoint triple, taken on the
    # adjoint's own subdomain, has the forward masses' bits
    model = get_model("bilaplace")
    assert model.adjoint is model
    sub = regular_subdomain(model, 0.2, 0.8)
    calls = _counted_rows(monkeypatch)
    forward = biharmonic_measures(sub, 0.35)
    assert calls == [2]
    adjoint = regular_subdomain(model.adjoint, 0.2, 0.8)
    assert biharmonic_measures(adjoint, 0.35) == forward
    assert calls == [2, 2]


def test_the_adjoint_triple_needs_equal_kernels_and_bases(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("integrate was called")

    monkeypatch.setattr(riquier, "integrate", refuse)
    mixed = replace(get_model("bilaplace"), G2=get_model("interval").G2)
    assert mixed.id == "bilaplace1d" and mixed.basis1 == mixed.basis2
    sub = regular_subdomain(mixed, 0.2, 0.8)
    # its adjoint swaps kernels that differ: no kink density, no subdomain,
    # and the forward subdomain does not mix with the plate's own
    assert mixed.adjoint.kink_density is None
    with pytest.raises(ModelDomainError, match="bilaplace1d\\* has no kink"):
        regular_subdomain(mixed.adjoint, 0.2, 0.8)
    plate = regular_subdomain(get_model("bilaplace"), 0.2, 0.8)
    with pytest.raises(PreconditionError):
        biharmonic_measures([sub, plate], [0.5, 0.5])
    with pytest.raises(PreconditionError):
        biharmonic_measures([plate, sub, sub], [0.3, 0.5, 0.7])


def test_a_copied_model_with_the_same_id_is_refused(monkeypatch):
    # a copy that keeps the id may differ in its bases or its kink density,
    # so a subdomain serves only the model object it was built for
    plate = get_model("bilaplace")
    rebased = replace(plate, basis1=(
        lambda x: 1.0 + np.asarray(x, dtype=float),
        lambda x: 1.0 - np.asarray(x, dtype=float)))
    doubled = replace(plate, kink_density=lambda z: 2.0 * plate.kink_density(z))
    assert rebased.id == doubled.id == plate.id
    # the same span on its own subdomain: mu is the linear cardinal pair
    own = biharmonic_measures(regular_subdomain(rebased, 0.2, 0.8),
                              0.35)
    assert own.mu == pytest.approx((0.75, 0.25), abs=1e-12)

    def refuse(*args, **kwargs):
        raise AssertionError("integrate was called")

    sub = regular_subdomain(plate, 0.2, 0.8)
    monkeypatch.setattr(riquier, "integrate", refuse)
    for other in (rebased, doubled):
        copy = regular_subdomain(other, 0.2, 0.8)
        for subs in ([sub, copy], [copy, sub]):
            with pytest.raises(PreconditionError, match="bilaplace1d"):
                biharmonic_measures(subs, [0.35, 0.35])
        assert not copy.mass_rows
    assert not sub.mass_rows


def test_a_basis_singular_at_the_subdomain_end_is_refused():
    # with the closure allowed, the interval model's [0, 0.5] passes the
    # domain test and reaches its first basis, 1/x, which is infinite at 0
    closed = replace(get_model("interval"), subdomain_closure_ok=True)
    with pytest.raises(RegularityError,
                       match=r"a basis function is singular on \[0, 0\.5\]"):
        regular_subdomain(closed, 0.0, 0.5)


def test_a_negative_mass_is_refused():
    interval = get_model("interval")
    # a kink density of -z makes the nu rows negative: integrate refuses
    # them before any mass is clipped
    flipped = replace(interval,
                      kink_density=lambda z: -np.asarray(z, dtype=float))
    sub = regular_subdomain(flipped, 0.2, 0.8)
    with pytest.raises(PreconditionError, match="evaluated to -.* < 0"):
        biharmonic_measures(sub, 0.5)
    # a first basis that is not a Chebyshev system on [0.2, 0.8] has a
    # cardinal below 0 inside it, refused before any nu row is integrated
    bent = replace(interval, basis1=(
        interval.basis1[0], lambda x: (np.asarray(x, dtype=float) - 0.4) ** 2),
        kink_density=lambda z: 0.0 * np.asarray(z, dtype=float))
    sub = regular_subdomain(bent, 0.2, 0.8)
    with pytest.raises(RegularityError, match=r"negative mu-mass -3\.333e-01"):
        biharmonic_measures(sub, 0.4)


def test_a_negative_cardinal_is_refused_before_any_integral(monkeypatch):
    # (1, (x - 0.4)^2) is no Chebyshev system on [0.2, 0.8]: its cardinal
    # at 0.8, ((x - 0.4)^2 - 0.04) / 0.12, is negative on (0.2, 0.6), and
    # with the interval's kink density the nu rows would be signed
    interval = get_model("interval")
    bent = replace(interval, basis1=(
        interval.basis1[0], lambda x: (np.asarray(x, dtype=float) - 0.4) ** 2))
    sub = regular_subdomain(bent, 0.2, 0.8)
    calls = []
    monkeypatch.setattr(riquier, "integrate",
                        lambda *args, **kwargs: calls.append(args))
    # both cardinals are positive at 0.7
    for x, mass in ((0.3, "-2.500e-01"), (0.58, "-6.333e-02")):
        for call in (lambda: biharmonic_measures(sub, x),
                     lambda: biharmonic_measures([sub, sub], [0.7, x])):
            with pytest.raises(RegularityError) as info:
                call()
            assert str(info.value) == f"negative mu-mass {mass}"
    assert calls == [] and not sub.mass_rows


def test_a_point_off_the_open_subdomain_is_refused():
    model = get_model("interval")
    sub = regular_subdomain(model, 0.2, 0.8)
    for x in (0.2, 0.1, 0.8):
        with pytest.raises(PreconditionError) as info:
            biharmonic_measures(sub, x)
        assert str(info.value) == f"{x:g} is not interior to [0.2, 0.8]"


def test_a_basis_fit_through_a_singular_point_is_refused():
    # the interval's first basis, 1/x, is infinite at 0.02 - 0.02; the fit
    # builds its matrix as a subdomain does, and refuses it the same way
    model = get_model("interval")
    with pytest.raises(RegularityError) as info:
        riquier.basis_fit_residual(model.basis1, lambda x: 1.0, 0.02)
    assert str(info.value) == "a basis function is singular on [0, 0.04]"
