import math

import numpy as np
import pytest

import oracles
from greenlab.coupling import (_product, classify_pair, compose_green,
                               coupling_apply, pure_decompose, w_apply)
from greenlab.errors import (ClassificationError, DomainError,
                             PreconditionError)
from greenlab.kernels import (BiharmonicPair, Fn, GridFunction, bump, constant,
                              times)
from greenlab.models import get_model
from greenlab.values import ExtendedValue

GRID = [float(g) for g in np.linspace(0.05, 0.9, 12)]
SUBS = ((0.2, 0.8), (0.3, 0.6), (0.15, 0.45))


def test_v_of_one_matches_antiderivative():
    model = get_model("interval")
    for x in (0.0, 0.2, 0.5, 0.9):
        val = coupling_apply(model, constant(1.0), x, tol=1e-11)
        assert float(val) == pytest.approx(oracles.interval_v_one(x),
                                           abs=1e-10)


def test_v_of_one_bilaplace():
    model = get_model("bilaplace")
    for x in (0.25, 0.5, 0.75):
        val = coupling_apply(model, constant(1.0), x)
        assert float(val) == pytest.approx(oracles.bilaplace_v_one(x),
                                           abs=1e-10)


def test_compose_green_matches_oracles():
    mi, mb = get_model("interval"), get_model("bilaplace")
    rng = np.random.default_rng(11)
    for _ in range(15):
        x, y = rng.uniform(0.05, 0.95, 2)
        assert float(compose_green(mi, float(x), float(y))) == pytest.approx(
            oracles.interval_h(float(x), float(y)), abs=1e-10)
        assert float(compose_green(mb, float(x), float(y))) == pytest.approx(
            oracles.bilaplace_h(float(x), float(y)), abs=1e-12)


def test_compose_green_divergence_at_boundary():
    model = get_model("interval")
    val = compose_green(model, 0.5, 0.0)
    assert not val.is_finite
    assert val.certificate.estimated_exponent == pytest.approx(-1.0,
                                                               abs=0.05)


def test_coupling_monotone_in_data():
    model = get_model("interval")
    f = bump(0.5, 0.2)
    g = Fn(lambda y: f(y) + 0.3 * bump(0.4, 0.3)(y), vectorized=True)
    for x in (0.1, 0.5, 0.8):
        assert float(coupling_apply(model, f, x)) \
            <= float(coupling_apply(model, g, x)) + 1e-10


def test_coupling_linear_in_data():
    model = get_model("bilaplace")
    rng = np.random.default_rng(7)
    f, g = bump(0.3, 0.25), bump(0.7, 0.25)
    for _ in range(5):
        a, b = rng.uniform(0.0, 3.0, 2)
        x = float(rng.uniform(0.1, 0.9))
        combined = Fn(lambda y, a=a, b=b: a * f(y) + b * g(y),
                      vectorized=True,
                      breakpoints=tuple(f.breakpoints) + tuple(g.breakpoints))
        lhs = float(coupling_apply(model, combined, x))
        rhs = (a * float(coupling_apply(model, f, x))
               + b * float(coupling_apply(model, g, x)))
        assert lhs == pytest.approx(rhs, abs=1e-7)


def test_monotone_convergence_of_truncations():
    model = get_model("interval")
    v = Fn(lambda y: np.asarray(y, dtype=float) ** -0.25,
           vectorized=True, singular_points=(0.0,))
    full = float(coupling_apply(model, v, 0.5))
    prev = -math.inf
    for n in (2.0, 8.0, 64.0, 1024.0):
        vn = Fn(lambda y, n=n: np.minimum(
            np.asarray(y, dtype=float) ** -0.25, n), vectorized=True)
        cur = float(coupling_apply(model, vn, 0.5))
        assert cur >= prev - 1e-10
        assert cur <= full + 1e-8
        prev = cur
    assert full - prev <= 1e-6


def test_divergent_coupling_is_certified():
    model = get_model("newtonian5")
    val = coupling_apply(model, constant(1.0), np.zeros(5))
    assert not val.is_finite
    assert val.certificate.side == "radial-tail"


def test_grid_function_needs_no_singular_resolution():
    model = get_model("interval")
    gf = GridFunction(np.linspace(0.0, 1.0, 21), np.ones(21))
    # fine at an interior point, where no singular point is in play
    assert float(coupling_apply(model, gf, 0.5)) == pytest.approx(
        oracles.interval_v_one(0.5), abs=1e-3)
    # but V* style evaluation at x = 0 needs resolution below the grid:
    from greenlab.adjoint import adjoint_apply
    with pytest.raises(PreconditionError):
        adjoint_apply(model, gf, 0.0)


def test_w_apply_rejects_bad_density():
    model = get_model("interval")
    with pytest.raises(PreconditionError):
        w_apply(model, constant(0.0), constant(1.0), 0.5)


def test_w_apply_is_v_of_the_product_on_the_interval_model():
    model = get_model("interval")
    # q = 2, f = 1: W(1) = 2 V(1) = 1 - x
    for x in (0.1, 0.5, 0.9):
        val = w_apply(model, constant(2.0), constant(1.0), x)
        assert abs(val.value - (1.0 - x)) <= val.error_bound
    # a singular f keeps its declaration through the product
    q = Fn(np.exp, vectorized=True)
    f = Fn(lambda y: np.asarray(y, dtype=float) ** -0.25, vectorized=True,
           singular_points=(0.0,))
    qf = Fn(lambda y: times(np.exp(y), np.asarray(y, dtype=float) ** -0.25),
            vectorized=True, singular_points=(0.0,))
    for x in (0.1, 0.5, 0.9):
        assert bits(w_apply(model, q, f, x)) == bits(coupling_apply(model, qf, x))
    # and a bump its support and breakpoints
    prod = _product(constant(2.0), bump(0.5, 0.2))
    assert prod.support == bump(0.5, 0.2).support
    assert prod.breakpoints == bump(0.5, 0.2).breakpoints


def test_w_apply_samples_the_weight_on_the_declared_support():
    # q < 0 only on (0.400, 0.415), which no point of the domain's sample
    # grid reaches; the support of f, (0.40, 0.44), is sampled too
    model = get_model("interval")
    grid = model.domain.interior_grid(23)
    assert not ((0.40 < grid) & (grid < 0.415)).any()
    q = Fn(lambda y: np.where((0.40 < np.asarray(y)) & (np.asarray(y) < 0.415),
                              -1.0, 1.0), vectorized=True)
    with pytest.raises(PreconditionError) as exc:
        w_apply(model, q, bump(0.42, 0.02), 0.5)
    head, bad = str(exc.value).rsplit(" ", 1)
    assert head == "weight must be finite and positive; it fails at"
    assert 0.40 < float(bad) < 0.415
    # a support beyond the domain is clipped to it: q = 1/y is finite and
    # positive inside (0, 1), and sampled only there
    inv = Fn(lambda y: 1.0 / np.asarray(y), vectorized=True)
    wide = Fn(constant(1.0), support=(-1.0, 2.0), vectorized=True)
    assert w_apply(model, inv, wide, 0.5).is_finite


def test_w_apply_on_the_radial_model_is_twice_v_for_q_two():
    model = get_model("newtonian5")
    one = Fn(constant(1.0), support=(0.0, 2.0), vectorized=True)
    w = w_apply(model, constant(2.0), one, 0.0)
    v = coupling_apply(model, one, 0.0)
    # V of 1 cut at radius 2 is sigma_4 c_5 2^2 / 2 = 2/3
    assert float(v) == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert float(w) == 2.0 * float(v)


def test_pure_decompose_splits_off_harmonic_part():
    model = get_model("interval")
    pair = BiharmonicPair(
        Fn(lambda x: 0.5 * (1.0 - np.asarray(x, dtype=float)) + 2.0,
           vectorized=True), constant(1.0))
    u0, u1 = pure_decompose(model, pair, GRID)
    assert np.all(u1 >= -1e-9)
    assert np.max(np.abs(u1 - 2.0)) < 1e-8


def test_pure_decompose_rejects_deficient_pair():
    model = get_model("interval")
    broken = BiharmonicPair(
        Fn(lambda x: 0.25 * (1.0 - np.asarray(x, dtype=float)),
           vectorized=True), constant(1.0))
    with pytest.raises(ClassificationError):
        pure_decompose(model, broken, GRID)


def test_classify_pure_pair():
    model = get_model("interval")
    pair = BiharmonicPair(
        Fn(lambda x: 0.5 * (1.0 - np.asarray(x, dtype=float)),
           vectorized=True), constant(1.0))
    report = classify_pair(model, pair, GRID, SUBS)
    assert report.flags == frozenset({"hyperharmonic", "superharmonic",
                                      "pure"})


def test_classify_zero_pair_is_harmonic():
    model = get_model("interval")
    pair = BiharmonicPair(constant(0.0), constant(0.0))
    report = classify_pair(model, pair, GRID, SUBS)
    assert "harmonic" in report.flags
    assert "hyperharmonic" in report.flags


def test_classify_shifted_pair_is_superharmonic_not_pure():
    model = get_model("interval")
    pair = BiharmonicPair(
        Fn(lambda x: 0.5 * (1.0 - np.asarray(x, dtype=float)) + 1.0,
           vectorized=True), constant(1.0))
    report = classify_pair(model, pair, GRID, SUBS)
    assert "superharmonic" in report.flags
    assert "pure" not in report.flags
    assert "harmonic" not in report.flags


def test_classify_pair_below_the_pure_pair_has_no_pure_residual():
    # u - V(1) = -0.01 < 0 everywhere, so pure_decompose refuses the pair
    model = get_model("interval")
    pair = BiharmonicPair(
        Fn(lambda x: 0.5 * (1.0 - np.asarray(x, dtype=float)) - 0.01,
           vectorized=True), constant(1.0))
    report = classify_pair(model, pair, GRID, SUBS)
    assert report.flags == frozenset({"hyperharmonic", "superharmonic"})
    assert report.pure_residual is None


def test_classify_pair_infinite_on_the_grid_is_not_superharmonic():
    # the shifted pair, +inf at a grid point outside every subinterval
    model = get_model("interval")
    pair = BiharmonicPair(
        lambda x: math.inf if x == GRID[0] else 0.5 * (1.0 - x) + 1.0,
        constant(1.0))
    report = classify_pair(model, pair, GRID, SUBS)
    assert report.flags == frozenset({"hyperharmonic"})
    assert report.finite_on_grid is False


# ---------------------------------------------------------------------------
# Arrays of points: one call, the bits of the scalar loop.

def bits(val):
    """Everything an extended value carries, exactly."""
    if val.is_finite:
        return ("finite", val.value.hex(), val.error_bound.hex())
    cert = val.certificate
    return ("inf", repr(cert.location), cert.side,
            cert.estimated_exponent.hex(),
            tuple((d.hex(), m.hex()) for d, m in cert.probe_trace))


def outcome(call):
    try:
        return [bits(v) for v in call()]
    except Exception as exc:
        return (type(exc), str(exc))


def test_array_h_matches_the_scalar_loop_bit_for_bit():
    xs = [0.05, 0.3, 0.5, 0.5, 0.93]
    ys = [0.7, 0.0, 0.5, 0.2, 0.0]
    for name in ("interval", "bilaplace"):
        model = get_model(name)
        ys_here = ys if name == "interval" else [y or 0.6 for y in ys]
        for tol in (1e-8, 1e-11):
            batch = compose_green(model, np.array(xs), np.array(ys_here),
                                  tol=tol)
            assert isinstance(batch, tuple)
            assert [bits(v) for v in batch] == [
                bits(compose_green(model, x, y, tol=tol))
                for x, y in zip(xs, ys_here)]
    # the interval rows with y = 0 are the certified INF
    batch = compose_green(get_model("interval"), np.array(xs), 0.0)
    assert all(not v.is_finite for v in batch)


def test_array_x_and_y_broadcast():
    model = get_model("interval")
    xs = np.linspace(0.1, 0.9, 5)
    assert [bits(v) for v in compose_green(model, xs, 0.4)] == [
        bits(compose_green(model, x, 0.4)) for x in xs]
    assert [bits(v) for v in compose_green(model, 0.4, xs)] == [
        bits(compose_green(model, 0.4, x)) for x in xs]
    assert compose_green(model, np.array([]), 0.4) == ()
    with pytest.raises(PreconditionError):
        compose_green(model, [0.2, 0.3], [0.2, 0.3, 0.4])


def test_array_v_matches_the_scalar_loop_bit_for_bit():
    gf = GridFunction(np.linspace(0.2, 0.8, 7), [0, 1, 2, 1, 3, 1, 0])
    # an undeclared cusp refines until each piece meets its share of tol,
    # and the rows split its support into one or two pieces
    cusp = Fn(lambda y: np.sqrt(np.abs(np.asarray(y) - 0.55)),
              breakpoints=(0.2, 0.8), support=(0.2, 0.8), vectorized=True)
    xs = [0.15, 0.3, 0.45, 0.6, 0.95]
    for name in ("interval", "bilaplace"):
        model = get_model(name)
        # a bump brings its support and breakpoints; a grid function its
        # nodes as breakpoints
        for f in (bump(0.4, 0.2), gf, constant(1.0), cusp):
            batch = coupling_apply(model, f, np.array(xs), tol=1e-10)
            assert [bits(v) for v in batch] == [
                bits(coupling_apply(model, f, x, tol=1e-10)) for x in xs]


def test_a_row_does_not_depend_on_its_batch():
    model = get_model("interval")
    alone = bits(compose_green(model, 0.37, 0.61))
    rng = np.random.default_rng(4)
    for size in (2, 9, 40):
        xs = rng.uniform(0.01, 0.99, size)
        ys = rng.uniform(0.0, 0.99, size)
        k = size // 2
        xs[k], ys[k] = 0.37, 0.61
        ys[0] = 0.0             # an INF row in the same batch
        assert bits(compose_green(model, xs, ys)[k]) == alone


def test_an_outside_point_mid_array_raises_the_loops_error():
    model = get_model("interval")
    with pytest.raises(DomainError) as scalar:
        compose_green(model, 1.5, 0.5)
    with pytest.raises(DomainError) as batch:
        compose_green(model, np.array([0.2, 1.5, 0.3]), 0.5)
    assert str(batch.value) == str(scalar.value)
    # within a pair the loop checks y first
    with pytest.raises(DomainError, match="-0.25 outside"):
        compose_green(model, np.array([0.2, 1.5]), np.array([0.3, -0.25]))
    with pytest.raises(DomainError, match="1.5 outside"):
        coupling_apply(model, constant(1.0), [0.0, 0.5, 1.5, -1.0])


def _scalar_error(call, p) -> str:
    with pytest.raises(DomainError) as exc:
        call(p)
    return str(exc.value)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1.0, 0.0],
                         ids=["nan", "inf", "-inf", "hi", "open-lo"])
def test_a_point_off_the_open_interval_raises_the_scalar_error(bad):
    # bilaplace's domain is (0, 1): each point fails the array test, first,
    # in the middle or last, and the loop raises the scalar call's error
    from greenlab.adjoint import adjoint_apply
    model = get_model("bilaplace")
    one = constant(1.0)
    calls = (lambda x: compose_green(model, x, 0.5),
             lambda y: compose_green(model, 0.5, y),
             lambda x: coupling_apply(model, one, x),
             lambda x: adjoint_apply(model, one, x))
    for call in calls:
        want = _scalar_error(call, bad)
        for k in range(3):
            pts = [0.2, 0.4, 0.6]
            pts[k] = bad
            assert _scalar_error(call, np.array(pts)) == want
            # a later outside point does not come first
            assert _scalar_error(call, np.array(pts + [1.5])) == want
    # within a pair y is checked first, and an earlier pair before both
    xs, ys = np.array([0.2, 0.3, bad]), np.array([0.2, 0.3, -0.25])
    for k in range(3):
        ys_k = np.roll(ys, k)
        assert _scalar_error(lambda x: compose_green(model, x, ys_k),
                             np.roll(xs, k)) == \
            _scalar_error(lambda y: compose_green(model, 0.5, y), -0.25)
    xs[1] = 1.5
    assert _scalar_error(lambda x: compose_green(model, x, ys), xs) == \
        _scalar_error(lambda x: compose_green(model, x, 0.5), 1.5)


def test_the_interval_models_closed_end_is_accepted_in_an_array():
    from greenlab.adjoint import adjoint_apply
    model = get_model("interval")
    one = constant(1.0)
    for pts in ([0.0, 0.3, 0.6], [0.3, 0.0, 0.6], [0.3, 0.6, 0.0]):
        for op in (lambda x: compose_green(model, x, 0.5),
                   lambda y: compose_green(model, 0.5, y),
                   lambda x: coupling_apply(model, one, x),
                   lambda x: adjoint_apply(model, one, x)):
            assert [bits(v) for v in op(np.array(pts))] == \
                [bits(op(p)) for p in pts]


def test_the_first_row_that_raises_decides():
    model = get_model("interval")
    # row 0.3 meets the grid function's NaN node; row 0.0 needs a singular
    # point resolved, which a grid function refuses
    holed = GridFunction(np.linspace(0.0, 1.0, 11),
                         [1, 1, 1, 1, 1, np.nan, 1, 1, 1, 1, 1])
    from greenlab.adjoint import adjoint_apply
    for xs in ([0.3, 0.0], [0.0, 0.3]):
        loop = outcome(lambda: [adjoint_apply(model, holed, x) for x in xs])
        assert outcome(lambda: adjoint_apply(model, holed, np.array(xs))) \
            == loop
        assert isinstance(loop, tuple)


def test_radial_models_take_one_point_per_call():
    model = get_model("newtonian5")
    for call in (lambda: compose_green(model, [0.5, 1.0], 0.0),
                 lambda: compose_green(model, 0.0, np.zeros((2, 5))),
                 lambda: coupling_apply(model, constant(1.0), [0.5, 1.0])):
        with pytest.raises(PreconditionError):
            call()
    # one coordinate vector is one point
    assert compose_green(model, np.zeros(5), 1.0).is_finite


def test_a_scalar_call_returns_an_extended_value():
    model = get_model("interval")
    assert isinstance(compose_green(model, 0.3, 0.7), ExtendedValue)
    assert isinstance(coupling_apply(model, constant(1.0), 0.3),
                      ExtendedValue)
    batch = coupling_apply(model, constant(1.0), [0.3])
    assert isinstance(batch, tuple) and len(batch) == 1


def test_array_rows_of_many_points_match_the_scalar_loop_bit_for_bit():
    # more points than the small-batch branch takes one by one, so the rows
    # are cut and summed as arrays
    from greenlab.adjoint import adjoint_apply
    from greenlab.quadrature import _SMALL_BATCH
    rng = np.random.default_rng(16)
    xs = rng.uniform(0.0, 0.99, _SMALL_BATCH + 4)
    ys = rng.uniform(0.0, 0.99, _SMALL_BATCH + 4)
    xs[3], ys[5:7] = 0.0, 0.0       # a V(f) row at 0, and INF rows of H
    ys[8] = xs[8]                   # a row on the diagonal
    interval, bilaplace = get_model("interval"), get_model("bilaplace")
    assert [bits(v) for v in compose_green(interval, xs, ys)] == [
        bits(compose_green(interval, x, y)) for x, y in zip(xs, ys)]
    cusp = Fn(lambda y: np.sqrt(np.abs(np.asarray(y) - 0.55)),
              breakpoints=(0.2, 0.8), support=(0.2, 0.8), vectorized=True)
    gf = GridFunction(np.linspace(0.2, 0.8, 7), [0, 1, 2, 1, 3, 1, 0])
    # bump(1.5, 0.2) has its support outside the domain: every row is 0
    inner = np.where(xs > 0.0, xs, 0.5)     # the bilaplace domain is open
    for f in (bump(0.4, 0.2), gf, constant(1.0), cusp, bump(1.5, 0.2)):
        for model, op, pts in ((interval, coupling_apply, xs),
                               (bilaplace, coupling_apply, inner),
                               (bilaplace, adjoint_apply, inner)):
            # a grid function's V at 0 is refused, as its scalar call is
            assert outcome(lambda: op(model, f, pts, tol=1e-10)) == outcome(
                lambda: [op(model, f, x, tol=1e-10) for x in pts])
    assert all(v == ExtendedValue.finite(0.0) for v in
               coupling_apply(interval, bump(1.5, 0.2), xs))


def test_array_rows_raise_what_the_scalar_loop_raises():
    from greenlab.adjoint import adjoint_apply
    from greenlab.quadrature import _SMALL_BATCH
    model = get_model("interval")
    holed = GridFunction(np.linspace(0.0, 1.0, 11),
                         [1, 1, 1, 1, 1, np.nan, 1, 1, 1, 1, 1])
    many = list(np.linspace(0.1, 0.9, _SMALL_BATCH + 2))
    # a grid function refused at the row at 0, before or after a row that
    # meets its NaN node
    for xs in ([0.3] + many + [0.0], many + [0.0, 0.3]):
        loop = outcome(lambda: [adjoint_apply(model, holed, x) for x in xs])
        assert outcome(lambda: adjoint_apply(model, holed, np.array(xs))) \
            == loop
        assert isinstance(loop, tuple)


def test_points_that_do_not_broadcast_or_are_not_1d_are_refused():
    model = get_model("interval")
    with pytest.raises(PreconditionError) as info:
        compose_green(model, [0.3, 0.4], [0.5, 0.6, 0.7])
    assert str(info.value).startswith("the points do not broadcast: ")
    for x, y in (([[0.3, 0.4]], 0.5), ([[0.3], [0.4]], [0.5, 0.6])):
        with pytest.raises(PreconditionError) as info:
            compose_green(model, x, y)
        shape = np.broadcast(np.asarray(x), np.asarray(y)).shape
        assert str(info.value) == \
            f"points come as scalars or 1-D arrays, not shape {shape}"


def test_a_radial_model_refuses_a_grid_function():
    gf = GridFunction(np.linspace(0.0, 2.0, 5), np.ones(5))
    with pytest.raises(PreconditionError) as info:
        coupling_apply(get_model("newtonian5"), gf, 1.0)
    assert str(info.value) == (
        "grid functions carry no information near the kernel's singular "
        "origin; pass a closed-form radial profile")


def test_a_divergent_coupling_under_a_finite_u_is_refused():
    # V(1/y^2 - 1) diverges at every x on the interval model, like H(x, 0)
    pair = BiharmonicPair(
        constant(1.0),
        Fn(lambda y: np.asarray(y, dtype=float) ** -2 - 1.0, vectorized=True,
           singular_points=(0.0,)))
    with pytest.raises(ClassificationError) as info:
        pure_decompose(get_model("interval"), pair, [0.5])
    assert str(info.value) == ("V(v) diverges at 0.5 while u(0.5) = 1 is "
                               "finite; the pair admits no pure part")
