import math
import warnings

import numpy as np
import pytest

import oracles
from greenlab.errors import (ConditioningError, ConfigError, DomainError,
                             PreconditionError)
from greenlab.kernels import (BiharmonicPair, Fn, GreenKernel, GridFunction,
                              Interval1D, StencilSpec, bump, constant,
                              is_grid_function, kernel_eval)
from greenlab.models import MODEL_NAMES, get_model
from greenlab.models.interval import q0


def test_interval_domain_membership():
    dom = Interval1D(0.0, 1.0, include_lo=True)
    assert dom.require(0.0) == 0.0
    assert dom.require(0.5) == 0.5
    with pytest.raises(Exception):
        dom.require(1.0)
    with pytest.raises(Exception):
        dom.require(-0.1)


def test_interior_grid_stays_inside():
    dom = Interval1D(0.0, 1.0, include_lo=True)
    grid = dom.interior_grid(17)
    assert len(grid) == 17
    assert grid[0] > 0.0 and grid[-1] < 1.0
    assert np.all(np.diff(grid) > 0)


def test_bump_shape_and_support():
    f = bump(0.4, 0.2)
    assert float(f(0.4)) == 1.0
    assert float(f(0.2)) == 0.0
    assert float(f(0.9)) == 0.0
    assert float(f(0.5)) == pytest.approx(0.5)
    assert f.support == (pytest.approx(0.2), pytest.approx(0.6))
    with pytest.raises(PreconditionError):
        bump(0.5, 0.0)


@pytest.mark.parametrize("center, halfwidth, message", [
    (0.5, math.nan, "bump halfwidth must be positive and finite, not nan"),
    (0.5, math.inf, "bump halfwidth must be positive and finite, not inf"),
    (math.nan, 0.2, "bump center must be finite, not nan"),
    (-math.inf, 0.2, "bump center must be finite, not -inf"),
], ids=["nan-halfwidth", "inf-halfwidth", "nan-center", "inf-center"])
def test_bump_refuses_a_non_finite_center_or_halfwidth(center, halfwidth,
                                                       message):
    # a NaN used to be accepted, and to fail later inside integrate
    with pytest.raises(PreconditionError) as info:
        bump(center, halfwidth)
    assert str(info.value) == message


def test_constant_and_fn_metadata():
    one = constant(1.0)
    assert float(one(0.3)) == 1.0
    g = Fn(lambda y: np.asarray(y) ** 2, breakpoints=(0.5,),
           vectorized=True, singular_points=(0.0,))
    assert g.breakpoints == (0.5,)
    assert g.singular_points == (0.0,)
    assert float(g(3.0)) == 9.0


def test_grid_function_interpolates_and_flags():
    gf = GridFunction([0.0, 0.5, 1.0], [0.0, 1.0, 0.0])
    assert is_grid_function(gf)
    assert not is_grid_function(constant(1.0))
    assert float(gf(0.25)) == pytest.approx(0.5)
    with pytest.raises(PreconditionError):
        GridFunction([0.0, 0.0, 1.0], [1.0, 2.0, 3.0])


def test_interval_kernels_match_closed_forms():
    model = get_model("interval")
    for x, y in ((0.3, 0.7), (0.7, 0.3), (0.5, 0.5), (0.0, 0.4)):
        assert float(model.G1.raw(x, y)) == pytest.approx(
            oracles.interval_g1(x, y), abs=1e-14)
        assert float(model.G2.raw(x, y)) == pytest.approx(
            oracles.interval_g2(x, y), abs=1e-14)


def test_kernel_slices_declare_live_singularities():
    model = get_model("interval")
    s = model.G2.slice_in_first(0.0)  # y -> G2(y, 0) blows up at y = 0
    assert 0.0 in s.singular_points
    s_mid = model.G2.slice_in_first(0.5)  # finite at the origin
    assert 0.0 not in s_mid.singular_points
    assert 0.5 in s_mid.breakpoints


def test_kernel_eval_certifies_endpoint_hit():
    model = get_model("interval")
    val = kernel_eval(model.G1, 0.0, 0.0)
    assert not val.is_finite
    assert val.certificate.side == "right"
    fin = kernel_eval(model.G1, 0.2, 0.6)
    assert float(fin) == pytest.approx(oracles.interval_g1(0.2, 0.6))
    assert kernel_eval(model.G2, 0.0, 0.0).certificate.estimated_exponent == -2.0
    with pytest.raises(DomainError):
        kernel_eval(get_model("bilaplace").G1, 2.0, 0.5)
    radial = get_model("newtonian5")
    diag = kernel_eval(radial.G1, 1.0, [1.0, 0.0, 0.0, 0.0, 0.0])
    assert diag.certificate.side == "diagonal"
    assert diag.certificate.estimated_exponent == -3.0
    assert float(kernel_eval(radial.G1, 0.0, 1.0)) == pytest.approx(
        oracles.newton_c(5), rel=1e-14)
    for bad in (np.inf, np.nan, [0.0, np.inf, 0.0, 0.0, 0.0]):
        with pytest.raises(DomainError):
            kernel_eval(radial.G1, bad, 1.0)


def test_the_interval_kernels_singular_point_is_read_without_a_warning():
    # raw may warn at x = y = 0; the callers that evaluate it at points of
    # their choosing go through GreenKernel.evaluate, which silences it
    model = get_model("interval")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kernel, exponent in ((model.G1, -1.0), (model.G2, -2.0)):
            val = kernel_eval(kernel, 0.0, 0.0)
            assert not val.is_finite
            assert val.certificate.estimated_exponent == exponent
            cols, sings = kernel.slice_declarations([0.0, 0.5])
            assert cols[0].tolist() == [0.0, 0.5] and cols[1:] == [0.0]
            assert sings == {0: (0.0,)}
        assert q0(0.0) == math.inf


def test_a_tiny_diagonal_point_whose_kernel_overflows_is_refused_quietly():
    # 1/max(x, y)^2 overflows at 1e-160 and 1/max(x, y) at 1e-310: beside
    # the singular point x = y = 0, not on it, so the point is refused, and
    # no RuntimeWarning comes first
    model = get_model("interval")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kernel, p in ((model.G2, 1e-160), (model.G1, 1e-310)):
            with pytest.raises(ConditioningError) as info:
                kernel_eval(kernel, p, p)
            msg = str(info.value)
            assert msg.startswith(f"kernel {kernel.name} overflows")
            assert repr(p) in msg


def test_measure_weighting():
    model = get_model("interval")
    g = model.mu.weighted(constant(2.0))
    ys = np.array([0.1, 0.5, 0.9])
    assert np.allclose(g(ys), 2.0 * ys)


def test_model_registry():
    assert set(MODEL_NAMES) == {"interval", "bilaplace", "newtonian5",
                                "newtonian6"}
    assert get_model("bilaplace1d").id == "bilaplace1d"
    assert get_model("newtonian7").dim == 7
    with pytest.raises(ConfigError):
        get_model("newtonian4")
    with pytest.raises(ConfigError):
        get_model("torus")


def test_radial_models_are_flagged():
    assert not get_model("interval").is_radial
    assert not get_model("bilaplace").is_radial
    assert get_model("newtonian5").is_radial


def test_pair_flags_are_frozen():
    pair = BiharmonicPair(constant(1.0), constant(0.0))
    assert pair.flags == frozenset()
    tagged = pair.with_flags({"hyperharmonic"}, "test provenance")
    assert tagged.flags == frozenset({"hyperharmonic"})
    assert tagged.provenance == "test provenance"


def test_every_sliced_kernel_is_symmetric_bit_for_bit():
    # the operators slice a kernel only as z -> K(p, z) and read
    # z -> K(z, p) from it, which needs raw(x, y) == raw(y, x) to the bit;
    # the grids hold the endpoints, the singular point 0, near-diagonal
    # pairs and the points beside 0 where 1/max(x, y)^2 overflows
    from power_family_report import power_model

    def all_pairs(pts):
        i, j = np.meshgrid(np.arange(len(pts)), np.arange(len(pts)),
                           indexing="ij")
        return pts[i.ravel()], pts[j.ravel()]

    line = all_pairs(np.array([
        0.0, 1e-310, 1e-160, 7e-155, 1e-150, 1e-8, 0.3, 0.3 + 1e-15,
        np.nextafter(0.3, 1.0), 0.5, 0.7, np.nextafter(1.0, 0.0), 1.0]))
    cases = [(kernel, line) for kernel in (
        get_model("interval").G1, get_model("interval").G2,
        get_model("bilaplace").G1, power_model(2.0, 1.5).G2,
        power_model(1.5, 0.6).G2)]
    rng = np.random.default_rng(0)
    for n in (5, 6):
        # each base point beside itself at separations from 0 up, and the
        # origin beside separations where c_n d^(2-n) overflows
        seps = np.outer([0.0, 1e-160, 1e-80, 1e-15, 1e-3, 1.0], np.eye(n)[0])
        base = rng.standard_normal((4, n))
        pts = np.concatenate([(base[:, None, :] + seps).reshape(-1, n), seps])
        cases.append((get_model(f"newtonian{n}").G1, all_pairs(pts)))
    with np.errstate(divide="ignore", over="ignore"):
        for kernel, (x, y) in cases:
            forward = np.asarray(kernel.raw(x, y), dtype=float)
            backward = np.asarray(kernel.raw(y, x), dtype=float)
            assert forward.shape == backward.shape == (len(x),)
            assert forward.tobytes() == backward.tobytes(), kernel.name


def test_a_radial_point_of_the_wrong_shape_is_refused():
    with pytest.raises(DomainError) as info:
        kernel_eval(get_model("newtonian5").G1, [1.0, 2.0], 0.0)
    assert str(info.value) == "expected a point of R^5, got shape (2,)"


def test_a_grid_function_needs_one_value_per_grid_point():
    for xs, values in (([0.0, 0.5, 1.0], [1.0, 2.0]),
                       ([[0.0, 1.0]], [[1.0, 2.0]])):
        with pytest.raises(PreconditionError) as info:
            GridFunction(xs, values)
        assert str(info.value) == "grid and values must be 1D and equal length"


def test_a_kernel_point_of_negative_value_is_refused():
    neg = GreenKernel("neg", Interval1D(0.0, 1.0), lambda x, y: -1.0)
    with pytest.raises(PreconditionError) as info:
        kernel_eval(neg, 0.3, 0.4)
    assert str(info.value) == \
        "kernel neg returned a negative value at (0.3, 0.4)"


def test_an_unknown_stencil_form_is_refused():
    with pytest.raises(ValueError) as info:
        StencilSpec("x", "bogus")
    assert str(info.value) == "unknown stencil form 'bogus'"
