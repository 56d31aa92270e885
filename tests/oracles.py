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
    """1/m - 1 with m = max(x, y), written (1 - m)/m so nothing cancels."""
    m = max(x, y)
    return (1.0 - m) / m


def interval_g2(x: float, y: float) -> float:
    """1/m^2 - 1 with m = max(x, y), written (1 - m)(1 + m)/m^2."""
    m = max(x, y)
    return (1.0 - m) * (1.0 + m) / m ** 2


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
    -1/z - ln z - z^2/2 + z.  In u = 1 - lo the integral is
    u/lo + ln(1 - u) - u^2/2 = sum_{k>=3} (k-1)/k u^k: its O(u) terms
    cancel down to about (2/3) u^3.  So up to u = 1/2 the series is summed
    until its terms stop moving the sum; above that the closed form in u
    loses only a few ulp.
    """
    u = 1.0 - lo
    if u > 0.5:
        return u / lo + math.log(lo) - 0.5 * u * u
    total, k, power = 0.0, 3, u ** 3
    while total + power != total:
        total += (k - 1) / k * power
        k += 1
        power *= u
    return total


def interval_h(x: float, y: float) -> float:
    """H(x, y) = int_0^1 G1(x, z) G2(z, y) z dz in closed form.

    The integral splits at min(x,y) and max(x,y); on the low piece both
    kernels are constant in z, on the middle piece exactly one of them
    varies, and the high piece is _piece_c.  The low and middle pieces sum
    to a product of nonnegative factors, written in 1 - x and 1 - y so that
    nothing cancels as x and y approach 1.  For x <= y:
    (1/y^2 - 1)(x^2 (1/x - 1)/2 + (y - x) - (y^2 - x^2)/2)
    = (1 - y)(1 + y)/y^2 ((y - x) + y (1 - y))/2.  For x > y:
    (1/x - 1)((1/y^2 - 1) y^2/2 + ln(x/y) - (x^2 - y^2)/2)
    = (1 - x)/x ((1 - x)(1 + x)/2 + ln(1 + (x - y)/y)).
    """
    if y <= 0.0:
        raise ValueError("H(x, 0) is infinite")
    if x <= y:
        v = 1.0 - y
        return v * (1.0 + y) / y ** 2 * 0.5 * ((y - x) + y * v) + _piece_c(y)
    u = 1.0 - x
    return (u / x * (0.5 * u * (1.0 + x) + math.log1p((x - y) / y))
            + _piece_c(x))


def interval_kink_jump(y: float) -> float:
    """Jump of d/dx [x G1(x, y)] across x = y.

    x G1 = x/y - x left of y and equals 1 - x right of y, so the slope
    drops from 1/y - 1 to -1: the jump is -1/y.
    """
    return -1.0 / y


def obstruction_curve(x: float, a: float = 0.0, b: float = 0.0) -> float:
    """The would-be pure partner of q0(x) = 1/x^2 - 1: ln(x)/x + x/2 + a + b/x.

    (x u)'' = -q0(x) = 1 - 1/x^2 forces x u = ln x + x^2/2 + linear, and the
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
    z > y gives x y (1-z)^2.  Simpson's rule is exact on the quadratic
    z(1-z), so its middle integral is (y - x)((x(1-x) + y(1-y))/2
    + (y - x)^2/6): every term is nonnegative and nothing cancels.
    """
    if x > y:
        x, y = y, x
    low = (1.0 - x) * (1.0 - y) * x ** 3 / 3.0
    mid = x * (1.0 - y) * (y - x) * (0.5 * (x * (1.0 - x) + y * (1.0 - y))
                                     + (y - x) ** 2 / 6.0)
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

    Write p = x - a, q = b - x and L = b - a.

    Clamped plate: nu'' = -c with c = q/L or p/L.  In s = p/L,
    phi'' = -(1 - s) or -s with phi(0) = phi(1) = 0 gives
    L^2 s(1-s)(2-s)/6 and L^2 s(1-s)(1+s)/6, that is p q (L + q)/(6 L)
    and p q (L + p)/(6 L).

    Interval model: (x nu)'' = -c with c = (1/x^2 - 1/b^2)/D or
    (1/a^2 - 1/x^2)/D, D = 1/a^2 - 1/b^2 = L (a + b)/(a b)^2.  Twice
    integrating 1/x^2 gives -ln x, so x nu = F(x) minus its chord through
    a and b, with F = (ln x + x^2/(2 b^2))/D or -(ln x + x^2/(2 a^2))/D.
    The chord of ln leaves the gap (q ln(x/a) - p ln(b/x))/L and the
    chord of x^2 leaves -p q.  The gap still cancels when L is small
    against a, so these two lose accuracy on thin subdomains.
    """
    p, q, length = x - a, b - x, b - a
    if model == "bilaplace":
        scale = p * q / (6.0 * length)
        return scale * (length + q), scale * (length + p)
    if model != "interval":
        raise ValueError(f"no nu oracle for {model!r}")
    d = length * (a + b) / (a * b) ** 2
    gap = (q * math.log1p(p / a) - p * math.log1p(q / x)) / length
    return ((gap - p * q / (2.0 * b * b)) / d / x,
            (p * q / (2.0 * a * a) - gap) / d / x)


# ---------------------------------------------------------------------------
# Power family on [0, 1): the interval model's G1 = 1/max(x,z) - 1, with
# G2 = max(x, y)^-beta - 1 and dmu = y^gamma dy.  H(x, 0) and V*(1)(0)
# are finite iff gamma - beta > -1; the interval model itself, beta = 2 and
# gamma = 1, sits on that boundary.

def _power(a: float, lo: float, hi: float) -> float:
    """int_lo^hi z^a dz, the log form at a = -1."""
    if a == -1.0:
        return math.log(hi / lo)
    return (hi ** (a + 1.0) - lo ** (a + 1.0)) / (a + 1.0)


def power_family_vstar_one(beta: float, gamma: float) -> float:
    """V*(1)(0) = int_0^1 (y^-beta - 1) y^gamma dy
    = 1/(gamma - beta + 1) - 1/(gamma + 1)."""
    if gamma - beta <= -1.0:
        raise ValueError("V*(1)(0) is infinite")
    return 1.0 / (gamma - beta + 1.0) - 1.0 / (gamma + 1.0)


def power_family_h(beta: float, gamma: float, x: float) -> float:
    """H(x, 0) = int_0^1 G1(x, z) (z^-beta - 1) z^gamma dz, split at z = x.

    Below x, G1 is the constant 1/x - 1; above it, (1/z - 1) multiplies
    out into four powers.  With P(a; l, h) = int_l^h z^a dz:
    (1/x - 1)(P(g - b; 0, x) - P(g; 0, x)) + P(g - b - 1; x, 1)
    - P(g - b; x, 1) - P(g - 1; x, 1) + P(g; x, 1), b = beta, g = gamma.
    """
    if gamma - beta <= -1.0:
        raise ValueError("H(x, 0) is infinite")
    d = gamma - beta
    return ((1.0 / x - 1.0) * (_power(d, 0.0, x) - _power(gamma, 0.0, x))
            + _power(d - 1.0, x, 1.0) - _power(d, x, 1.0)
            - _power(gamma - 1.0, x, 1.0) + _power(gamma, x, 1.0))


# ---------------------------------------------------------------------------
# Elementary integrals for the closed-form battery of bound_miss_report.py:
# powers and logs on (0, 1), tails on (1, inf) and (0, inf), each by its
# antiderivative, and math.inf where it diverges.

def unit_power(p: float) -> float:
    """int_0^1 x^p dx = 1/(p + 1); infinite for p <= -1."""
    return 1.0 / (p + 1.0) if p > -1.0 else math.inf


def unit_log_power(p: float) -> float:
    """int_0^1 x^p log(1/x) dx = 1/(p + 1)^2; infinite for p <= -1.

    x = e^-t turns it into int_0^inf t e^-(p+1)t dt.
    """
    return 1.0 / (p + 1.0) ** 2 if p > -1.0 else math.inf


def tail_power(p: float) -> float:
    """int_1^inf x^-p dx = 1/(p - 1); infinite for p <= 1."""
    return 1.0 / (p - 1.0) if p > 1.0 else math.inf


def unit_shifted_root(c: float) -> float:
    """int_0^1 (x + c)^-1/2 dx = 2(sqrt(1 + c) - sqrt(c)), written
    2/(sqrt(1 + c) + sqrt(c)) so nothing cancels."""
    return 2.0 / (math.sqrt(1.0 + c) + math.sqrt(c))


UNIT_KINK = 0.29              # int_0^1 |x - 0.3| dx = (0.3^2 + 0.7^2)/2
TAIL_LORENTZ = 0.5 * math.pi  # int_0^inf dx/(1 + x^2) = arctan(inf)
TAIL_EXP = 1.0                # int_0^inf e^-x dx
TAIL_LOG_OVER_SQUARE = 1.0    # int_1^inf log(x)/x^2 dx = [-(1 + log x)/x]
HALF_LOG_RECIPROCAL = math.inf  # int_0^1/2 dx/(x log(1/x)) = [-log log(1/x)]
# Three integrands that vanish to the last bit near 0, so that a probe
# there ends on zero shells: a ramp, a high power (unit_power(400)), and
# int_0^1 e^(-1/x) dx = int_1^inf e^-t t^-2 dt = 1/e - E1(1), E1 the
# exponential integral, whose value is the double nearest the 32-digit one.
UNIT_RAMP = 0.405             # int_0^1 max(x - 0.1, 0) dx = 0.9^2/2
UNIT_EXP_RECIPROCAL = 0.14849550677592205


def _exponential_integral_1() -> float:
    """E1(1) = -gamma + sum_k (-1)^(k+1)/(k k!), good to about 1e-15."""
    term, total = 1.0, 0.0
    for k in range(1, 25):
        term /= k
        total += (-1) ** (k + 1) * term / k
    return total - 0.5772156649015329


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
    "power_family_vstar_one(2, 1.5)": (power_family_vstar_one(2.0, 1.5),
                                       1.6),
    "riquier_nu(bilaplace, 0, 1, 1/2)": (
        riquier_nu("bilaplace", 0.0, 1.0, 0.5)[0], BILAPLACE_NU_MASS),
    "unit_log_power(-0.5)": (unit_log_power(-0.5), 4.0),
    "tail_power(1.5)": (tail_power(1.5), 2.0),
    "unit_shifted_root(1e-3)": (unit_shifted_root(1e-3), 1.9377541969215543),
    "1/e - E1(1)": (math.exp(-1.0) - _exponential_integral_1(),
                    UNIT_EXP_RECIPROCAL),
}


def self_check(tol: float = 1e-9) -> None:
    for name, (got, want) in FROZEN.items():
        if abs(got - want) > tol:
            raise AssertionError(f"oracle drift in {name}: "
                                 f"{got!r} != {want!r}")


self_check(tol=1e-6)
