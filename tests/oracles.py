"""Independent closed forms the tests compare the package against.

Everything here is derived by hand from the defining integrals, using
nothing but antiderivatives, and is deliberately written without touching
the package so that agreement between the two is evidence, not tautology.
A few frozen literals at the bottom pin the oracles themselves: if an
edit here drifts, the literal comparisons catch it before the package
comparisons start lying.
"""

from __future__ import annotations

import math


# ---------------------------------------------------------------------------
# Interval model on [0, 1): G1 = 1/max(x,y) - 1, G2 = 1/max(x,y)^2 - 1,
# reference measure dmu = y dy.

def interval_g1(x: float, y: float) -> float:
    return 1.0 / max(x, y) - 1.0


def interval_g2(x: float, y: float) -> float:
    return 1.0 / max(x, y) ** 2 - 1.0


def interval_v_one(x: float) -> float:
    """V(1)(x) = int G1(x,y) y dy, split at y = x.

    int_0^x (1/x - 1) y dy = (1/x - 1) x^2 / 2 and
    int_x^1 (1/y - 1) y dy = (1 - x) - (1 - x^2)/2, summing to (1 - x)/2.
    """
    return 0.5 * (1.0 - x)


def interval_v_one_alt_density(x: float) -> float:
    """Same sweep against dmu' = y(1-y) dy.

    First piece (1/x - 1)(x^2/2 - x^3/3); second piece int_x^1 (1-y)^2 dy
    = (1-x)^3/3; together (1-x)(2-x)/6.
    """
    return (1.0 - x) * (2.0 - x) / 6.0


def _piece_c(lo: float) -> float:
    """int_lo^1 (1/z - 1)(1/z^2 - 1) z dz, by antiderivative.

    The integrand expands to 1/z^2 - 1/z - z + 1, whose antiderivative is
    -1/z - ln z - z^2/2 + z.
    """
    return -1.5 + 1.0 / lo + math.log(lo) + lo - 0.5 * lo ** 2


def interval_h(x: float, y: float) -> float:
    """H(x, y) = int_0^1 G1(x, z) G2(z, y) z dz in closed form.

    The integral splits at min(x,y) and max(x,y); on the low piece both
    kernels are constant in z, on the middle piece exactly one of them
    varies, and the high piece is _piece_c.
    """
    if y <= 0.0:
        raise ValueError("H(x, 0) is infinite")
    if x <= y:
        low = (1.0 / x - 1.0) * (1.0 / y ** 2 - 1.0) * 0.5 * x ** 2 \
            if x > 0.0 else 0.0
        mid = (1.0 / y ** 2 - 1.0) * ((y - x) - 0.5 * (y ** 2 - x ** 2))
        return low + mid + _piece_c(y)
    low = (1.0 / x - 1.0) * (1.0 / y ** 2 - 1.0) * 0.5 * y ** 2
    mid = (1.0 / x - 1.0) * (math.log(x / y) - 0.5 * (x ** 2 - y ** 2))
    return low + mid + _piece_c(x)


def interval_kink_jump(y: float) -> float:
    """Jump of d/dx [x G1(x, y)] across x = y.

    x G1 = x/y - x left of y and equals 1 - x right of y, so the slope
    drops from 1/y - 1 to -1: the jump is -1/y.
    """
    return -1.0 / y


def obstruction_curve(x: float, a: float = 0.0, b: float = 0.0) -> float:
    """The would-be pure partner of q(x) = 1/x: ln(x)/x + x/2 + a + b/x.

    (x u)'' = -x q(x) = -1 forces x u = -x^2/2 + ln x + linear, and the
    ln x / x term sinks to -infinity at 0 no matter the constants.
    """
    return math.log(x) / x + 0.5 * x + a + b / x


OBSTRUCTION_AT_INV_E = 0.5 / math.e - math.e  # x = 1/e, a = b = 0


# ---------------------------------------------------------------------------
# Clamped-plate model on (0, 1): G = min(x,y)(1 - max(x,y)), dmu = dy.

def bilaplace_g(x: float, y: float) -> float:
    return min(x, y) * (1.0 - max(x, y))


def bilaplace_h(x: float, y: float) -> float:
    """int_0^1 G(x,z) G(z,y) dz for x <= y, by polynomial antiderivatives.

    Pieces: z < x gives z^2 (1-x)(1-y); x < z < y gives x(1-y) z(1-z);
    z > y gives x y (1-z)^2.
    """
    if x > y:
        x, y = y, x
    low = (1.0 - x) * (1.0 - y) * x ** 3 / 3.0
    mid = x * (1.0 - y) * ((y ** 2 - x ** 2) / 2.0 - (y ** 3 - x ** 3) / 3.0)
    high = x * y * (1.0 - y) ** 3 / 3.0
    return low + mid + high


BILAPLACE_H_CENTER = 1.0 / 48.0  # bilaplace_h(1/2, 1/2)

# Coupling masses of the measure triple at x = 1/2 on the full subdomain:
# the pure pair (x(1-x)/2, 1) has zero boundary data, so its value 1/8 at
# the center is carried entirely by the two nu masses; symmetry splits
# them equally.
BILAPLACE_NU_MASS = 1.0 / 16.0

BILAPLACE_THIRD_JUMP = 1.0  # H''' jump across y: H'' = -G, G' drops by 1


def bilaplace_v_one(x: float) -> float:
    """V(1)(x) = int min(x,y)(1 - max(x,y)) dy = x(1 - x)/2."""
    return 0.5 * x * (1.0 - x)


# ---------------------------------------------------------------------------
# Newtonian models on R^N, N >= 5: G1 = G2 = c_N |x - y|^(2-N).

def newton_c(n: int) -> float:
    return math.gamma(n / 2.0) / ((n - 2) * 2.0 * math.pi ** (n / 2.0))


def sphere_area(n: int) -> float:
    """Surface measure of the unit sphere in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def newtonian_h(n: int, d: float) -> float:
    """H(x, y) at separation d, via spherical averaging around x.

    The shell average of |z - y|^(2-N) over |z - x| = s equals
    max(s, d)^(2-N), so with c_N sigma_(N-1) = 1/(N-2) the radial integral
    collapses to c_N d^(4-N) (1/2 + 1/(N-4)) / (N-2) ... = c_N d^(4-N)
    / (2 (N-4)) after simplification.
    """
    if n < 5:
        raise ValueError("the composition diverges below dimension five")
    return newton_c(n) * d ** (4 - n) / (2.0 * (n - 4))


def newtonian_truncated_v(n: int, r: float) -> float:
    """int_{|y| <= r} G(x, y) dy at x = 0: c_N sigma r^2 / 2 = r^2/(2(N-2))."""
    return r ** 2 / (2.0 * (n - 2))


NEWTONIAN_FLUX = 1.0  # outward kernel flux through any sphere around the pole

H5_TIMES_D = 1.0 / (16.0 * math.pi ** 2)   # newtonian_h(5, d) * d
H6_TIMES_D2 = 1.0 / (16.0 * math.pi ** 3)  # newtonian_h(6, d) * d^2


# ---------------------------------------------------------------------------
# Coupling masses nu_x = (nu_a, nu_b) of a subinterval [a, b]: each vanishes
# at a and b and solves L1 nu = -c, c the second basis' cardinal at a or b.

def riquier_nu(model: str, a: float, b: float,
               x: float) -> tuple[float, float]:
    """(nu_a, nu_b) at x in [a, b] on "interval" or "bilaplace".

    Clamped plate: nu'' = -c with c = (b - x)/L or (x - a)/L, L = b - a.
    In s = (x - a)/L, phi'' = -(1 - s) or -s with phi(0) = phi(1) = 0
    gives L^2 s(1-s)(2-s)/6 and L^2 s(1-s)(1+s)/6.

    Interval model: (x nu)'' = -c with c = (1/x^2 - 1/b^2)/D or
    (1/a^2 - 1/x^2)/D, D = 1/a^2 - 1/b^2.  Twice integrating 1/x^2 gives
    -ln x, so y = x nu = F(x) + alpha x + beta with F = (ln x +
    x^2/(2 b^2))/D or -(ln x + x^2/(2 a^2))/D; y(a) = y(b) = 0 fixes
    alpha and beta.
    """
    if model == "bilaplace":
        length = b - a
        s = (x - a) / length
        scale = length ** 2 * s * (1.0 - s) / 6.0
        return scale * (2.0 - s), scale * (1.0 + s)
    if model != "interval":
        raise ValueError(f"no nu oracle for {model!r}")
    d = 1.0 / a ** 2 - 1.0 / b ** 2

    def nu(big_f):
        alpha = -(big_f(b) - big_f(a)) / (b - a)
        beta = -big_f(a) - alpha * a
        return (big_f(x) + alpha * x + beta) / x

    return (nu(lambda t: (math.log(t) + t ** 2 / (2.0 * b ** 2)) / d),
            nu(lambda t: -(math.log(t) + t ** 2 / (2.0 * a ** 2)) / d))


# ---------------------------------------------------------------------------
# Frozen spot values guarding the oracles themselves.

FROZEN = {
    "interval_h(0.5, 0.5)": (interval_h(0.5, 0.5), 0.5568528194400547),
    "interval_h(0.3, 0.7)": (interval_h(0.3, 0.7), 0.34434546422453305),
    "interval_h(0.7, 0.3)": (interval_h(0.7, 0.3), 0.49930985337006917),
    "interval_h(0.0, 0.5)": (interval_h(0.0, 0.5), 1.3068528194400546),
    "interval_h(0.9, 0.2)": (interval_h(0.9, 0.2), 0.17842586176175984),
    "bilaplace_h(0.5, 0.5)": (bilaplace_h(0.5, 0.5), BILAPLACE_H_CENTER),
    "bilaplace_h(0.3, 0.7)": (bilaplace_h(0.3, 0.7), 0.0123),
    "obstruction(1/e)": (obstruction_curve(1.0 / math.e),
                         -2.534342107873324),
    "newton_c(5)": (newton_c(5), 0.012665147955292225),
    "newtonian_h(5, 1)": (newtonian_h(5, 1.0), H5_TIMES_D),
    "newtonian_h(6, 1)": (newtonian_h(6, 1.0), H6_TIMES_D2),
    "newtonian_truncated_v(5, 2)": (newtonian_truncated_v(5, 2.0),
                                    2.0 / 3.0),
    "riquier_nu(bilaplace, 0, 1, 1/2)": (
        riquier_nu("bilaplace", 0.0, 1.0, 0.5)[0], BILAPLACE_NU_MASS),
}


def self_check(tol: float = 1e-9) -> None:
    for name, (got, want) in FROZEN.items():
        if abs(got - want) > tol:
            raise AssertionError(f"oracle drift in {name}: "
                                 f"{got!r} != {want!r}")


self_check(tol=1e-6)
