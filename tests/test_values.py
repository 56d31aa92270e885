import dataclasses
import math

import pytest

from greenlab.errors import PreconditionError
from greenlab.values import DivergenceCertificate, ExtendedValue


def _cert(exponent: float = -1.0, side: str = "right") -> DivergenceCertificate:
    return DivergenceCertificate(0.0, side, exponent,
                                 probe_trace=((0.5, 1.0), (0.25, 2.0)))


def test_finite_round_trip():
    v = ExtendedValue.finite(2.5, 1e-9)
    assert v.is_finite
    assert float(v) == 2.5
    assert v.error_bound == 1e-9


def test_finite_rejects_negative_and_nonfinite():
    with pytest.raises(ValueError):
        ExtendedValue.finite(-0.1)
    with pytest.raises(ValueError):
        ExtendedValue.finite(math.inf)
    with pytest.raises(ValueError):
        ExtendedValue.finite(math.nan)


def test_infinite_requires_certificate():
    with pytest.raises(ValueError):
        ExtendedValue.infinite(None)
    v = ExtendedValue.infinite(_cert())
    assert not v.is_finite
    assert math.isinf(float(v))
    assert v.certificate.side == "right"


def test_addition_absorbs_infinity():
    inf = ExtendedValue.infinite(_cert())
    fin = ExtendedValue.finite(1.0, 1e-10)
    assert not (fin + inf).is_finite
    assert not (inf + fin).is_finite
    s = fin + ExtendedValue.finite(2.0, 1e-10)
    assert float(s) == 3.0
    assert s.error_bound == pytest.approx(2e-10)


def test_zero_scaling_annihilates_infinity():
    inf = ExtendedValue.infinite(_cert())
    assert float(inf.scaled(0.0)) == 0.0
    assert not inf.scaled(2.0).is_finite
    v = ExtendedValue.finite(3.0, 1e-6).scaled(2.0)
    assert float(v) == 6.0
    assert v.error_bound == pytest.approx(2e-6)
    with pytest.raises(PreconditionError):
        inf.scaled(-1.0)


def test_extended_order():
    fin = ExtendedValue.finite(1.0)
    big = ExtendedValue.finite(2.0)
    inf = ExtendedValue.infinite(_cert())
    assert fin < big < inf
    assert fin <= fin
    assert not inf < inf


def test_certificate_soundness_endpoint():
    # convergent endpoint exponent without a blown-up trace is refused
    with pytest.raises(ValueError):
        DivergenceCertificate(0.0, "right", -0.5)
    # but a trace that crossed the blow-up threshold overrides the fit
    DivergenceCertificate(0.0, "right", -0.5,
                          probe_trace=((0.5, 1e13),))


def test_certificate_soundness_tail():
    # tails diverge for exponents >= -1, not <= -1
    DivergenceCertificate("tail", "radial-tail", 1.0)
    with pytest.raises(ValueError):
        DivergenceCertificate("tail", "radial-tail", -2.0)


def test_certificate_rejects_unknown_side():
    with pytest.raises(ValueError):
        DivergenceCertificate(0.0, "sideways", -1.0)


def test_records_are_frozen():
    from greenlab.quadrature import integrate

    v = ExtendedValue.finite(2.5, 1e-9)
    res = integrate(lambda y: y, (0.0, 1.0))
    for record, name in ((v, "value"), (v, "kind"), (res, "value"),
                         (res, "subdivisions"), (res, "converged")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(dataclasses.FrozenInstanceError):
        v.extra = 1.0


def test_finite_rejects_every_non_finite_and_negative_value():
    for bad in (math.nan, math.inf, -math.inf, -1e-300, -1.0):
        with pytest.raises(ValueError):
            ExtendedValue.finite(bad)
    # an error bound is stored as its magnitude
    assert ExtendedValue.finite(1.0, -1e-9).error_bound == 1e-9


def test_records_compare_and_hash_by_fields():
    from greenlab.quadrature import QuadResult, integrate

    v = ExtendedValue.finite(2.5, 1e-9)
    built = ExtendedValue("finite", 2.5, 1e-9, None)
    assert v == built and hash(v) == hash(built)
    assert dataclasses.astuple(v) == ("finite", 2.5, 1e-9, None)
    assert v != ExtendedValue.finite(2.5, 2e-9)
    assert dataclasses.replace(v, value=3.0) == ExtendedValue.finite(3.0, 1e-9)

    res = integrate(lambda y: y, (0.0, 1.0), breakpoints=(0.5,))
    same = QuadResult(ExtendedValue.finite(res.value.value,
                                           res.value.error_bound),
                      res.subdivisions, (), res.converged)
    assert res == same and hash(res) == hash(same)
    assert res != dataclasses.replace(same, subdivisions=res.subdivisions + 1)
    assert {res, same} == {res}


def test_an_extended_value_adds_only_an_extended_value():
    with pytest.raises(TypeError, match="unsupported operand type"):
        ExtendedValue.finite(1.0) + 1.0
