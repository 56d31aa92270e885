"""Seeded operation lists for the benchmark workloads, and the oracle verdicts.

Everything here runs before timing starts: a workload is a fixed tuple of
:class:`Op` records whose expected answers already come from the closed forms
in ``tests/oracles.py``.  The timed loop only hands each record's arguments to
the program (see :class:`Program`) and judges the outcome afterwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("verify-all", "grid-1d", "radial")

# grid-1d: 800 requests, a fixed eighth of them certified INF.  Class sizes
# are even so each class splits exactly in half between the two tolerances.
GRID_FINITE = (("h", "interval", 300), ("h", "bilaplace", 200),
               ("v1", "interval", 60), ("v1", "bilaplace", 60),
               ("vstar1", "interval", 80))
GRID_INF_H = 99          # interval H(x, 0)
GRID_TOLS = (1e-8, 1e-11)     # QUAD_TOL and a tight one
GRID_RANGE = (0.01, 0.99)

# radial: per dimension, far pairs, one near pair, one diagonal, the
# divergent constant coupling and one truncated constant coupling.
RADIAL_DIMS = (5, 6)
RADIAL_FAR = 16
RADIAL_TOL = 1e-7        # riesz_compose's default
FAR_RANGE = (0.5, 4.0)
NEAR_RANGE = (1e-3, 1e-1)
TRUNC_RANGE = (0.5, 4.0)

# Checks whose verdict rests on a certified INF: the shell-probe path.
INF_CHECKS = frozenset({
    "power-verdicts", "boundary-divergence", "adjoint-blowup",
    "radial-divergence", "composition-tail", "adjoint-gate",
    "consistent-divergence"})

EXPONENT_SLACK = 0.05    # certificate exponent tolerance (values.EXP_MARGIN)
ORACLE_ULPS = 8          # rounding allowance for the oracle's own value


@dataclass(frozen=True)
class Op:
    """One request: a program call, its arguments and its known answer."""
    kind: str                 # "h", "v1", "vstar1", "riesz", "ccd", "tcc", "check"
    model: str                # model name, or the check id for "check"
    args: tuple[float, ...]
    tol: float
    klass: str                # the named class the generator guarantees
    inf: bool                 # the correct answer is a certified INF
    expect: float             # oracle value, or the certificate exponent if inf


@dataclass(frozen=True)
class Outcome:
    """What the program returned for one op, reduced to comparable fields."""
    kind: str                 # "finite", "inf", "check" or "raised"
    value: float = math.nan
    bound: float = math.nan
    exponent: float = math.nan
    passed: bool = True
    note: str = ""

    def key(self) -> tuple:
        """Bit-exact identity of the outcome (NaN-safe)."""
        return (self.kind, self.value.hex(), self.bound.hex(),
                self.exponent.hex(), self.passed, self.note)


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    ops: tuple[Op, ...]
    warmup: tuple[Op, ...]    # run once, untimed, before the first pass


def _uniform(rng, lo, hi, size):
    return [float(v) for v in rng.uniform(lo, hi, size)]


def _loguniform(rng, lo, hi, size):
    return [float(v) for v in np.exp(rng.uniform(math.log(lo), math.log(hi), size))]


def _split_tols(ops):
    return [Op(o.kind, o.model, o.args, GRID_TOLS[i % 2], o.klass, o.inf, o.expect)
            for i, o in enumerate(ops)]


def grid_ops(seed: int, oracles) -> tuple[Op, ...]:
    rng = np.random.default_rng(seed)
    h_oracle = {"interval": oracles.interval_h, "bilaplace": oracles.bilaplace_h}
    v1_oracle = {"interval": oracles.interval_v_one,
                 "bilaplace": oracles.bilaplace_v_one}
    ops: list[Op] = []
    for kind, model, count in GRID_FINITE:
        if kind == "h":
            xs = _uniform(rng, *GRID_RANGE, count)
            ys = _uniform(rng, *GRID_RANGE, count)
            cls = [Op(kind, model, (x, y), 0.0, "finite", False,
                      h_oracle[model](x, y)) for x, y in zip(xs, ys)]
        else:
            xs = _uniform(rng, *GRID_RANGE, count)
            # interval V*(1)(x) = (1/x^2 - 1) x^2/2 + int_x^1 (1/y - y) dy = -ln x
            want = (lambda x: -math.log(x)) if kind == "vstar1" \
                else v1_oracle[model]
            cls = [Op(kind, model, (x,), 0.0, "finite", False, want(x))
                   for x in xs]
        ops += _split_tols(cls)
    xs = _uniform(rng, *GRID_RANGE, GRID_INF_H)
    inf = [Op("h", "interval", (x, 0.0), 0.0, "inf", True, -1.0) for x in xs]
    inf.append(Op("vstar1", "interval", (0.0,), 0.0, "inf", True, -1.0))
    ops += _split_tols(inf)
    order = rng.permutation(len(ops))
    return tuple(ops[i] for i in order)


def radial_ops(seed: int, oracles) -> tuple[Op, ...]:
    rng = np.random.default_rng(seed)
    ops: list[Op] = []
    # One near separation per dimension, log-uniform on NEAR_RANGE.  The
    # second dimension takes the mirrored draw, so a seed that lands close
    # to the diagonal in one dimension lands far from it in the other and
    # the cost of a pass hardly depends on the seed.
    u = float(rng.uniform())
    lo, hi = math.log(NEAR_RANGE[0]), math.log(NEAR_RANGE[1])
    for j, n in enumerate(RADIAL_DIMS):
        model = f"newtonian{n}"
        for d in _loguniform(rng, *FAR_RANGE, RADIAL_FAR):
            ops.append(Op("riesz", model, (d,), RADIAL_TOL, "far", False,
                          oracles.newtonian_h(n, d)))
        d = math.exp(lo + (1.0 - u if j % 2 else u) * (hi - lo))
        ops.append(Op("riesz", model, (d,), RADIAL_TOL, "near", False,
                      oracles.newtonian_h(n, d)))
        ops.append(Op("riesz", model, (0.0,), RADIAL_TOL, "diagonal", True,
                      3.0 - n))
        ops.append(Op("ccd", model, (), 1e-8, "tail", True, 1.0))
        r = _uniform(rng, *TRUNC_RANGE, 1)[0]
        ops.append(Op("tcc", model, (r,), 1e-8, "truncated", False,
                      oracles.newtonian_truncated_v(n, r)))
    order = rng.permutation(len(ops))
    return tuple(ops[i] for i in order)


def verify_ops(check_ids) -> tuple[Op, ...]:
    return tuple(Op("check", cid, (), 0.0, "check", cid in INF_CHECKS, 0.0)
                 for cid in check_ids)


def build(name: str, seed: int, oracles, check_ids) -> Workload:
    """The workload's operation list for ``seed``; same seed, same list."""
    if name == "verify-all":
        ops = verify_ops(check_ids)
        return Workload(name, seed, ops, ops)
    if name == "grid-1d":
        ops = grid_ops(seed, oracles)
        return Workload(name, seed, ops, ops)
    if name == "radial":
        ops = radial_ops(seed, oracles)
        # the near and diagonal requests cost seconds each; warm every
        # other path once instead of repeating them
        return Workload(name, seed, ops,
                        tuple(o for o in ops if o.klass not in ("near", "diagonal")))
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


class Program:
    """The greenlab entry points a workload calls, resolved at call time.

    Calls go through the module attributes, so functions the tracer wraps
    are the ones that run.
    """

    def __init__(self):
        from greenlab import adjoint, coupling, suites
        from greenlab.kernels import constant
        from greenlab.models import get_model, newtonian
        self.adjoint, self.coupling, self.suites = adjoint, coupling, suites
        self.newtonian = newtonian
        self.models = {m: get_model(m) for m in
                       ("interval", "bilaplace", "newtonian5", "newtonian6")}
        self.one = constant(1.0)

    def call(self, op: Op):
        kind, a = op.kind, op.args
        if kind == "h":
            return self.coupling.compose_green(self.models[op.model], a[0], a[1],
                                               tol=op.tol)
        if kind == "v1":
            return self.coupling.coupling_apply(self.models[op.model], self.one,
                                                a[0], tol=op.tol)
        if kind == "vstar1":
            return self.adjoint.adjoint_apply(self.models[op.model], self.one,
                                              a[0], tol=op.tol)
        n = self.models[op.model].dim
        if kind == "riesz":
            return self.newtonian.riesz_compose(n, 0.0, a[0], tol=op.tol)
        if kind == "ccd":
            return self.newtonian.constant_coupling_divergence(n)
        if kind == "tcc":
            return self.newtonian.truncated_constant_coupling(n, a[0])
        raise ValueError(f"unknown op kind {kind!r}")


def outcome(result) -> Outcome:
    """Reduce an ExtendedValue, certificate, CheckResult or exception."""
    if isinstance(result, BaseException):
        return Outcome("raised", note=f"{type(result).__name__}: {result}")
    if hasattr(result, "passed") and hasattr(result, "margin"):
        return Outcome("check", value=float(result.margin),
                       passed=bool(result.passed), note=result.detail)
    if hasattr(result, "estimated_exponent"):      # a bare certificate
        return Outcome("inf", math.inf, math.inf,
                       float(result.estimated_exponent))
    if result.is_finite:
        return Outcome("finite", result.value, result.error_bound)
    return Outcome("inf", math.inf, math.inf,
                   float(result.certificate.estimated_exponent))


def judge(op: Op, out: Outcome) -> tuple[bool, bool]:
    """(failed, bound_missed) for one outcome against its oracle."""
    if out.kind == "raised":
        return True, False
    if op.kind == "check":
        return not out.passed, False
    if op.inf:
        failed = out.kind != "inf" or abs(out.exponent - op.expect) > EXPONENT_SLACK
        return failed, False
    if out.kind != "finite":
        return True, False
    err = abs(out.value - op.expect)
    missed = err > out.bound + ORACLE_ULPS * math.ulp(op.expect)
    return out.bound > op.tol or err > op.tol, missed
