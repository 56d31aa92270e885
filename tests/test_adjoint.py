"""The transpose coupling: its sliced quadrature, the gate, and regularity."""

import dataclasses
import math

import numpy as np
import pytest

import oracles
from greenlab import adjoint
from greenlab.adjoint import (
    _moduli_consistent,
    adjoint_apply,
    adjoint_gate_check,
    adjoint_identity_residual,
    continuity_probe,
    duality_residual,
    lsc_check,
)
from greenlab.coupling import _sliced_rows, compose_green, coupling_apply
from greenlab.errors import (ConditioningError, DomainError, ModelDomainError,
                             PreconditionError)
from greenlab.kernels import Fn, GridFunction, bump, constant
from greenlab.models import get_model
from greenlab.values import DivergenceCertificate, ExtendedValue
from test_coupling import bits


def test_adjoint_of_kernel_slices_matches_h_oracle():
    model = get_model("interval")
    for y, x in ((0.5, 0.5), (0.3, 0.7), (0.7, 0.3), (0.2, 0.9)):
        val = adjoint_apply(model, model.G1.slice_in_first(y), x, tol=1e-11)
        assert val.is_finite
        assert float(val) == pytest.approx(oracles.interval_h(y, x), abs=1e-9)


def test_radial_adjoint_is_the_forward_coupling():
    model = get_model("newtonian5")
    f = Fn(lambda r: np.exp(-np.asarray(r, dtype=float)), vectorized=True)
    lhs = adjoint_apply(model, f, 0.0, tol=1e-9)
    rhs = coupling_apply(model, f, 0.0, tol=1e-9)
    assert float(lhs) == float(rhs)


def test_divergence_certificate_is_unmirrored():
    model = get_model("interval")
    val = adjoint_apply(model, bump(0.0, 0.3), 0.0)
    assert not val.is_finite
    cert = val.certificate
    assert cert.location == pytest.approx(0.0, abs=1e-12)
    assert cert.side == "right"
    assert cert.estimated_exponent == pytest.approx(-1.0, abs=0.05)


def test_gate_blocks_test_functions_charging_the_origin():
    model = get_model("interval")
    rep = adjoint_gate_check(model, bump(0.0, 0.3), (0.0, 0.3, 0.6))
    assert not rep.passed
    assert rep.witness == 0.0
    assert rep.certificate is not None
    assert "diverges" in rep.detail


def test_gate_passes_where_the_adjoint_is_regular():
    model = get_model("bilaplace")
    rep = adjoint_gate_check(model, bump(0.5, 0.3), (0.25, 0.5, 0.75))
    assert rep.passed
    assert all(v.is_finite for v in rep.values)
    assert rep.witness is None


def test_interchange_identity_finite_cases():
    for name, pairs in (("interval", ((0.4, 0.6), (0.2, 0.3), (0.8, 0.5))),
                        ("bilaplace", ((0.4, 0.6), (0.25, 0.75), (0.5, 0.2)))):
        model = get_model(name)
        for x, y in pairs:
            rep = adjoint_identity_residual(model, x, y)
            assert rep.kind == "finite"
            assert rep.residual <= 1e-6
            assert rep.passed()


def test_interchange_identity_survives_divergence():
    model = get_model("interval")
    rep = adjoint_identity_residual(model, 0.0, 0.3)
    assert rep.kind == "consistent-divergence"
    assert rep.passed()
    assert not rep.lhs.is_finite and not rep.rhs.is_finite


def test_continuity_probe_consistent_off_diagonal():
    assert continuity_probe(get_model("interval"), 0.3, 0.6).consistent
    # a target with a nearby critical point: coarse moduli may rise, the
    # refined tail must still decide in favour of continuity
    rep = continuity_probe(get_model("bilaplace"), 0.7905, 0.5332)
    assert rep.verdict == "consistent"


def test_continuity_probe_reports_boundary_blowup():
    rep = continuity_probe(get_model("interval"), 0.5, 0.0)
    assert rep.verdict == "blow-up"
    assert rep.target_value is not None and not rep.target_value.is_finite
    assert rep.moduli == ()
    assert not rep.consistent


def test_continuity_probe_reports_a_blowup_at_a_probe(monkeypatch):
    # an INF planted at the sixth probe, past a finite target
    compose = adjoint.compose_green
    inf = ExtendedValue.infinite(DivergenceCertificate(0.6, "right", -1.0))

    def planted(*args, **kwargs):
        values = list(compose(*args, **kwargs))
        values[6] = inf
        return values

    monkeypatch.setattr(adjoint, "compose_green", planted)
    rep = continuity_probe(get_model("interval"), 0.3, 0.6)
    assert rep.verdict == "blow-up" and not rep.consistent
    assert len(rep.probes) == len(rep.values) == 6
    assert rep.values[-1] == math.inf and all(
        math.isfinite(v) for v in rep.values[:-1])
    assert rep.target_value.is_finite and rep.moduli == ()


def test_continuity_probe_refuses_the_diagonal():
    with pytest.raises(PreconditionError):
        continuity_probe(get_model("interval"), 0.4, 0.4)


def test_oscillation_rule_unit_cases():
    assert _moduli_consistent([])
    assert _moduli_consistent([1e-3 * 0.5 ** k for k in range(6)])
    # a genuine jump stalls the sequence and fails the shrink test
    assert not _moduli_consistent([0.5, 0.31, 0.3, 0.3, 0.3, 0.3])
    # a rising refined tail fails outright
    assert not _moduli_consistent([1e-3, 4e-4, 2e-4, 3e-4])
    # a coarse-level rise is forgiven when refinement settles it
    assert _moduli_consistent([3.6e-5, 5.5e-5, 2e-5, 8e-6, 3e-6, 1e-6])
    # noise-floor wiggle is not a discontinuity
    assert _moduli_consistent([5e-7, 8e-7, 3e-7])


def test_lsc_grid_check():
    report = lsc_check(get_model("interval"))
    assert report.passed
    assert not report.failures
    assert len(report.entries) == 15 * 15
    with pytest.raises(ModelDomainError):
        lsc_check(get_model("newtonian5"))


def test_duality_pairing():
    phi, psi = bump(0.3, 0.2), bump(0.7, 0.2)
    model = get_model("bilaplace")
    res = duality_residual(model, phi, psi)
    assert res <= 2e-6
    # the pairing needs one kernel on both slots, whatever the model's id
    copy = dataclasses.replace(model, id="plate-copy")
    assert duality_residual(copy, phi, psi) == res
    mixed = dataclasses.replace(model, G2=get_model("interval").G2)
    for refused in (get_model("interval"), mixed, get_model("newtonian5")):
        with pytest.raises(ModelDomainError):
            duality_residual(refused, phi, psi)


def test_duality_pairs_over_the_outer_functions_declared_cuts(monkeypatch):
    import greenlab.adjoint as adjoint_mod

    real, calls = adjoint_mod.integrate, []

    def spying(f, interval, **kwargs):
        calls.append((interval, tuple(kwargs.get("breakpoints", ()))))
        return real(f, interval, **kwargs)

    monkeypatch.setattr(adjoint_mod, "integrate", spying)
    model = get_model("bilaplace")
    phi, plain = bump(0.3, 0.15), bump(0.6, 0.3)
    # a plain callable declares nothing: its pairing runs over the whole
    # domain with no cuts; the bump's over its support, cut at its kinks
    res = duality_residual(model, phi, lambda x: float(plain(x)))
    assert calls == [((0.0, 1.0), ()), (phi.support, phi.breakpoints)]
    assert res <= 2e-6
    # a support that misses (0, 1), or only touches it, pairs to 0.0
    calls.clear()
    assert duality_residual(model, phi, bump(1.2, 0.2)) == 0.0
    assert duality_residual(model, bump(-0.3, 0.3), phi) == 0.0
    assert duality_residual(model, bump(1.5, 0.2), bump(-0.5, 0.2)) == 0.0
    assert len(calls) == 2


def test_the_pairings_inner_values_are_the_floats_of_the_operators():
    # duality_residual reads V and V* from their rows' value column
    xs = np.array([0.0, 0.12, 0.4, 0.99])
    for name in ("interval", "bilaplace"):
        model = get_model(name)
        pts = xs if name == "interval" else xs[1:]
        for space, op in ((model, coupling_apply),
                          (model.adjoint, adjoint_apply)):
            for f in (constant(1.0), bump(0.5, 0.3)):
                rows, scalar = _sliced_rows(space, f, pts, 1e-9)
                assert not scalar
                assert [v.hex() for v in rows.value.tolist()] == \
                    [float(v).hex() for v in op(model, f, pts, tol=1e-9)]


def test_array_vstar_matches_the_scalar_loop_bit_for_bit():
    xs = [0.0, 0.12, 0.4, 0.7, 0.99]
    gf = GridFunction(np.linspace(0.2, 0.8, 7), [0, 1, 2, 1, 3, 1, 0])
    cases = (("interval", constant(1.0)), ("interval", bump(0.0, 0.3)),
             ("interval", bump(0.5, 0.2)), ("bilaplace", constant(1.0)),
             ("bilaplace", gf))
    for name, f in cases:
        model = get_model(name)
        pts = xs if name == "interval" else xs[1:]
        for tol in (1e-8, 1e-11):
            batch = adjoint_apply(model, f, np.array(pts), tol=tol)
            assert [bits(v) for v in batch] == [
                bits(adjoint_apply(model, f, x, tol=tol)) for x in pts]
    # x = 0 on the interval is the certified INF row, located in y
    first = adjoint_apply(get_model("interval"), constant(1.0),
                          np.array(xs))[0]
    assert not first.is_finite
    assert first.certificate.location == 0.0
    assert first.certificate.side == "right"


def test_array_vstar_rows_do_not_depend_on_the_batch():
    model = get_model("interval")
    f = bump(0.35, 0.3)
    alone = bits(adjoint_apply(model, f, 0.41))
    for xs in ([0.41, 0.0], [0.0, 0.9, 0.41, 0.05], [0.41] * 3):
        batch = adjoint_apply(model, f, np.array(xs))
        assert all(bits(v) == alone for x, v in zip(xs, batch) if x == 0.41)


def test_array_vstar_refuses_outside_points_before_integrating():
    model = get_model("bilaplace")
    calls = []

    def f(y):
        calls.append(y)
        return np.ones_like(y)

    f.vectorized = True
    with pytest.raises(DomainError) as scalar:
        adjoint_apply(model, f, 0.0)
    with pytest.raises(DomainError) as batch:
        adjoint_apply(model, f, np.array([0.5, 0.0, 0.7]))
    assert str(batch.value) == str(scalar.value)
    assert calls == []
    with pytest.raises(PreconditionError):
        adjoint_apply(get_model("newtonian5"), f, [0.5, 1.0])
    assert isinstance(adjoint_apply(model, constant(1.0), 0.5), ExtendedValue)


def _gate_loop(model, phi, grid, tol=1e-8):
    """adjoint_gate_check written as a loop of scalar V* calls, as the
    reference: (passed, witness, values, detail, evaluated points)."""
    import greenlab.adjoint as adjoint_mod

    seen = []

    def at(x):
        seen.append(x)
        return adjoint_apply(model, phi, x, tol=tol)

    grid = [float(g) for g in grid]
    values = [at(x) for x in grid]
    for x, v in zip(grid, values):
        if not v.is_finite:
            return (False, x, values, f"V*phi diverges at x = {x:g} with "
                    f"exponent {v.certificate.estimated_exponent:+.3f}", seen)
    gaps = [abs(b - a) for a, b in zip(grid, grid[1:])]
    h0 = 0.5 * min(gaps) if gaps else 0.05
    if model.is_radial:
        lo, hi = 0.0, math.inf
    else:
        lo, hi = model.domain.lo, model.domain.hi
        h0 = min(h0, 0.02)
    for x in grid:
        # the loop takes V*phi(x) again; the offsets are what it records
        fx = float(adjoint_apply(model, phi, x, tol=tol))
        seq = []
        for k in range(5):
            h = h0 * 0.5 ** k
            vals = []
            if x + h < hi:
                vals.append(abs(float(at(x + h)) - fx))
            if x - h > lo:
                vals.append(abs(float(at(x - h)) - fx))
            seq.append(max(vals) if vals else 0.0)
        if not adjoint_mod._moduli_consistent(seq):
            return (False, x, values,
                    f"oscillation of V*phi refuses to shrink at x = {x:g}: "
                    f"moduli {', '.join(f'{m:.3g}' for m in seq)}", seen)
    return True, None, values, "", seen


_GATE_CASES = (
    ("interval", bump(0.0, 0.3), [0.0, 0.2, 0.5, 0.8]),
    ("interval", bump(0.5, 0.2), [0.1, 0.3, 0.5, 0.7, 0.9]),
    ("interval", bump(0.5, 0.2), [0.01, 0.995]),
    ("bilaplace", bump(0.5, 0.3), [0.2, 0.5, 0.8]),
    ("newtonian5", Fn(lambda r: np.exp(-np.asarray(r, dtype=float)),
                      vectorized=True), [0.5, 1.0]),
)


def _gate_matches_loop(model_id, phi, grid, monkeypatch):
    import greenlab.adjoint as adjoint_mod

    model = get_model(model_id)
    seen = []
    real = adjoint_mod.adjoint_apply

    def recording(model, f, x, tol=1e-8):
        seen.extend(np.atleast_1d(np.asarray(x, dtype=float)).tolist())
        return real(model, f, x, tol=tol)

    monkeypatch.setattr(adjoint_mod, "adjoint_apply", recording)
    rep = adjoint_gate_check(model, phi, grid)
    monkeypatch.setattr(adjoint_mod, "adjoint_apply", real)
    passed, witness, values, detail, loop_seen = _gate_loop(model, phi, grid)
    assert (rep.passed, rep.witness, rep.detail) == (passed, witness, detail)
    assert [bits(v) for v in rep.values] == [bits(v) for v in values]
    # the same points in the same order: the grid, then each point's offsets
    assert seen == loop_seen
    return rep


def test_adjoint_gate_matches_the_scalar_loop(monkeypatch):
    for model_id, phi, grid in _GATE_CASES:
        _gate_matches_loop(model_id, phi, grid, monkeypatch)


def test_adjoint_gate_stops_at_the_first_inconsistent_point(monkeypatch):
    import greenlab.adjoint as adjoint_mod

    # a rule that refuses every sequence: the walk ends at the first point,
    # before the offsets of later points are evaluated
    monkeypatch.setattr(adjoint_mod, "_moduli_consistent", lambda seq: False)
    for model_id, phi, grid in _GATE_CASES[1:]:
        rep = _gate_matches_loop(model_id, phi, grid, monkeypatch)
        assert not rep.passed and rep.witness == grid[0]


def test_continuity_probe_on_a_radial_model():
    # both rooms are infinite, so the approach starts 0.1 from y, on the
    # side away from x
    model = get_model("newtonian5")
    rep = continuity_probe(model, 0.0, 1.0)
    assert rep.verdict == "consistent"
    assert rep.probes[0] == pytest.approx(1.1)
    # a target this close to x is riesz_compose's to refuse
    with pytest.raises(ConditioningError):
        continuity_probe(model, 0.0, 5e-4)


def test_the_adjoint_spaces_kernel_is_h_transposed():
    # H*(x, y) = H(y, x): the adjoint space composes G2 then G1, and its
    # values have the bits of the forward model's at the swapped points,
    # INF certificates included
    xs = np.array([0.3, 0.6, 0.5, 0.0, 0.2, 0.9])
    ys = np.array([0.6, 0.3, 0.5, 0.4, 0.0, 0.1])
    for name in ("interval", "bilaplace"):
        model = get_model(name)
        pts = (xs, ys) if name == "interval" else (xs[[0, 1, 2, 5]],
                                                   ys[[0, 1, 2, 5]])
        forward = compose_green(model, pts[1], pts[0])
        adjoint = compose_green(model.adjoint, *pts)
        assert [bits(v) for v in adjoint] == [bits(v) for v in forward]
        for x, y, want in zip(*pts, forward):
            assert bits(compose_green(model.adjoint, x, y)) == bits(want)
        # on the interval model H(0.4, 0) diverges, and H(0, 0.2) does not
        assert [v.is_finite for v in adjoint].count(False) == \
            (name == "interval")


def test_the_adjoint_space_is_one_object_per_model(monkeypatch):
    from greenlab import riquier
    from greenlab.models.newtonian import newtonian_model
    from greenlab.riquier import regular_subdomain

    plate = get_model("bilaplace")
    assert plate.adjoint is plate
    assert newtonian_model(5).adjoint is newtonian_model(5)
    interval = get_model("interval")
    adjoint = interval.adjoint
    assert adjoint is interval.adjoint
    assert adjoint.id == "interval*"
    assert adjoint.G1 is interval.G2 and adjoint.G2 is interval.G1
    assert adjoint.basis1 is interval.basis2
    assert adjoint.basis2 is interval.basis1
    assert adjoint.L1_stencil is interval.L2_stencil
    assert adjoint.L2_stencil is interval.L1_stencil
    assert adjoint.mu is interval.mu and adjoint.domain is interval.domain
    # a copy is a model object of its own, with an adjoint of its own
    copy = dataclasses.replace(interval)
    assert copy.adjoint is not adjoint
    assert copy.adjoint == adjoint
    # the swap does not say which kink density the adjoint has, so it has
    # none, and no Riquier problem: refused before any integration

    def refuse(*args, **kwargs):
        raise AssertionError("integrate was called")

    monkeypatch.setattr(riquier, "integrate", refuse)
    assert adjoint.kink_density is None
    with pytest.raises(ModelDomainError, match="interval\\* has no kink"):
        regular_subdomain(adjoint, 0.3, 0.7)


def test_a_continuity_probe_without_room_to_approach_is_refused():
    # y = 1e-10 on (0, 1), with x beside it: every dyadic start is below 1e-9
    with pytest.raises(PreconditionError) as info:
        continuity_probe(get_model("bilaplace"), 2e-10, 1e-10)
    assert str(info.value) == \
        "no room for a dyadic approach to y = 1e-10 inside the domain"
