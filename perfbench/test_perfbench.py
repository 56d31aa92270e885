"""Tests of the benchmark itself: op lists, timing boundaries and tracing.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import bench
import tracing
import workloads

HERE = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def program():
    return bench.import_program()


def _slice(name: str, seed: int) -> workloads.Workload:
    """A short slice of each workload: verify-all whole, the others cut."""
    wl = bench.build_workload(name, seed)
    if name == "grid-1d":
        return workloads.Workload(name, seed, wl.ops[:48], ())
    if name == "radial":
        far = [o for o in wl.ops if o.klass == "far"][:4]
        rest = [o for o in wl.ops if o.klass in ("tail", "truncated")]
        return workloads.Workload(name, seed, tuple(far + rest), ())
    return wl


def _traced_pass(wl, program):
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        p = bench.run_pass(wl, program, tracer=tracer)
    return p, tracer.pass_metrics(0)


# ---------------------------------------------------------------------------
# Operation lists.

@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_op_list(name, program):
    assert bench.build_workload(name, 7).ops == bench.build_workload(name, 7).ops
    if name != "verify-all":
        assert bench.build_workload(name, 7).ops != bench.build_workload(name, 8).ops


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_grid_classes_in_stated_shares(seed, program):
    ops = bench.build_workload("grid-1d", seed).ops
    assert len(ops) == 800
    inf = [o for o in ops if o.inf]
    assert len(inf) == len(ops) // 8
    assert all(o.klass == "inf" and o.expect == -1.0 for o in inf)
    assert {(o.kind, o.args[-1]) for o in inf} == {("h", 0.0), ("vstar1", 0.0)}
    by_class = Counter((o.kind, o.model, o.inf) for o in ops)
    for kind, model, count in workloads.GRID_FINITE:
        assert by_class[(kind, model, False)] == count
    # half at QUAD_TOL and half at 1e-11, within each finite class and the INF one
    for cls in [(k, m) for k, m, _ in workloads.GRID_FINITE] + ["inf"]:
        tols = Counter(o.tol for o in ops
                       if ("inf" if o.inf else (o.kind, o.model)) == cls)
        assert tols[1e-8] == tols[1e-11] > 0, cls
    xs = [o.args[0] for o in ops if o.args[0] != 0.0]
    assert len(set(xs)) == len(xs), "no x repeats, so caching is bypassed"
    lo, hi = workloads.GRID_RANGE
    assert all(lo <= a <= hi for o in ops for a in o.args if a != 0.0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_radial_classes_in_stated_shares(seed, program):
    from greenlab.models.newtonian import NEAR_DIAGONAL_LIMIT
    ops = bench.build_workload("radial", seed).ops
    for n in workloads.RADIAL_DIMS:
        mine = [o for o in ops if o.model == f"newtonian{n}"]
        count = Counter(o.klass for o in mine)
        assert count == {"far": workloads.RADIAL_FAR, "near": 1,
                         "diagonal": 1, "tail": 1, "truncated": 1}
        far = [o.args[0] for o in mine if o.klass == "far"]
        assert all(0.5 <= d <= 4.0 for d in far)
    near = [o.args[0] for o in ops if o.klass == "near"]
    assert all(NEAR_DIAGONAL_LIMIT < d <= 0.1 for d in near)
    # the two dimensions' near draws mirror each other in log-distance
    assert math.log(near[0]) + math.log(near[1]) == pytest.approx(
        math.log(1e-3) + math.log(1e-1))
    assert sum(o.inf for o in ops) == 4     # two diagonals, two tails
    assert all(o.args == (0.0,) for o in ops if o.klass == "diagonal")


def test_verify_all_is_the_registry(program):
    ops = bench.build_workload("verify-all", 0).ops
    assert [o.model for o in ops] == list(program.suites.suite_ids("all"))
    assert len(ops) == 33
    assert {o.model for o in ops if o.inf} == workloads.INF_CHECKS


# ---------------------------------------------------------------------------
# Timing boundaries.

class _SlowFirstCall:
    """Stands in for Program: the first call is slow, later ones are not."""

    def __init__(self):
        from greenlab.values import ExtendedValue
        self.calls = 0
        self.value = ExtendedValue.finite(1.0)

    def call(self, op):
        self.calls += 1
        if self.calls == 1:
            import time
            time.sleep(0.3)
        return self.value


def test_warm_up_is_excluded_from_run_s(program):
    op = workloads.Op("h", "interval", (0.5, 0.5), 1e-8, "finite", False, 1.0)
    wl = workloads.Workload("grid-1d", 0, (op,) * 5, (op,))
    fake = _SlowFirstCall()
    bench.warm_up(wl, fake)
    run, _ = bench.measure(wl, fake, 0.05)
    assert fake.calls > 5
    assert run.run_s() < 0.1


def test_generation_happens_before_timing(program, monkeypatch):
    wl = _slice("grid-1d", 3)

    def refuse(*a, **k):
        raise AssertionError("op lists are generated inside the timed loop")

    for fn in ("build", "grid_ops", "radial_ops", "verify_ops"):
        monkeypatch.setattr(workloads, fn, refuse)
    monkeypatch.setattr(bench, "load_oracles", refuse)
    run, _ = bench.measure(wl, program, 0.0)
    assert len(run.walls) == 1 and run.attempted == len(wl.ops)


def test_setup_is_measured_on_its_own(monkeypatch):
    seen = []
    real = subprocess.run

    def spy(cmd, **kw):
        seen.append(cmd)
        return real(cmd, **kw)

    monkeypatch.setattr(bench.subprocess, "run", spy)
    samples = bench.setup_samples(runs=2)
    assert len(samples) == 2 and all(0.0 < s < 10.0 for s in samples)
    # one fresh interpreter per sample, plus one that warms the byte-code cache
    assert len(seen) == 3 and all(c[:2] == [sys.executable, "-c"] for c in seen)


def test_tail_rank_leaves_ten_samples_beyond():
    assert bench.tail_rank(800) == (789, 98.75)
    idx, pct = bench.tail_rank(33)
    assert idx == 22 and 33 - idx - 1 == 10 and round(pct, 1) == 69.7


def test_judge_rules():
    op = workloads.Op("h", "interval", (0.3, 0.7), 1e-8, "finite", False, 1.0)
    ok = workloads.Outcome("finite", 1.0 + 1e-12, 2e-12)
    assert workloads.judge(op, ok) == (False, False)
    missed = workloads.Outcome("finite", 1.0 + 1e-12, 1e-13)
    assert workloads.judge(op, missed) == (False, True)
    within_ulps = workloads.Outcome("finite", 1.0 + 4 * math.ulp(1.0), 0.0)
    assert workloads.judge(op, within_ulps) == (False, False)
    assert workloads.judge(op, workloads.Outcome("finite", 1.0, 2e-8))[0]
    assert workloads.judge(op, workloads.Outcome("raised"))[0]
    inf = workloads.Op("h", "interval", (0.3, 0.0), 1e-8, "inf", True, -1.0)
    assert not workloads.judge(inf, workloads.Outcome("inf", exponent=-1.04))[0]
    assert workloads.judge(inf, workloads.Outcome("inf", exponent=-1.06))[0]
    assert workloads.judge(inf, workloads.Outcome("finite", 1.0, 0.0))[0]


# ---------------------------------------------------------------------------
# Tracing.

def test_every_binding_of_a_layer_is_wrapped(program):
    originals = {(m, f): getattr(sys.modules[m], f) for m, f, _ in tracing.LAYERS}
    from greenlab import quadrature
    originals[("greenlab.quadrature", "as_vectorized")] = quadrature.as_vectorized
    checks = dict(program.suites.CHECKS)

    def bound_originals():
        return [(name, attr) for name, mod in sys.modules.items()
                if name == "greenlab" or name.startswith("greenlab.")
                for attr, val in vars(mod).items()
                if any(val is fn for fn in originals.values())]

    before = bound_originals()
    # riquier and newtonian import adaptive_panels by name, coupling integrate
    assert ("greenlab.riquier", "adaptive_panels") in before
    assert ("greenlab.models.newtonian", "adaptive_panels") in before
    assert ("greenlab.coupling", "integrate") in before
    with tracing.installed(tracing.Tracer()):
        assert bound_originals() == []
        assert all(program.suites.CHECKS[c] is not fn for c, fn in checks.items())
    assert sorted(bound_originals()) == sorted(before)
    assert program.suites.CHECKS == checks


def test_calls_through_module_bindings_are_counted(program):
    from greenlab.models import newtonian
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        newtonian.gauss_flux(5, 1.0)      # adaptive_panels bound in newtonian
    m = tracer.pass_metrics(0)
    assert m["quadrature.adaptive_panels.calls"] == 1
    assert m["quadrature.gk15.calls"] > 0


USED = {
    "radial": ("quadrature.adaptive_panels.calls", "quadrature.gk15.calls",
               "quadrature.probe.calls", "quadrature.integrate.calls",
               "quadrature.integrate_radial.calls",
               "models.newtonian.riesz_compose.calls",
               "quadrature.scalar_fallback.evals"),
    "grid-1d": ("quadrature.gk15.calls", "quadrature.adaptive_panels.calls",
                "quadrature.probe.calls", "quadrature.integrate.calls",
                "coupling.coupling_apply.calls", "coupling.compose_green.calls",
                "adjoint.adjoint_apply.calls"),
    "verify-all": ("quadrature.gk15.calls", "quadrature.adaptive_panels.calls",
                   "quadrature.probe.calls", "coupling.compose_green.calls",
                   "adjoint.adjoint_apply.calls", "adjoint.lsc_check.self_s",
                   "adjoint.continuity_probe.self_s",
                   "adjoint.duality_residual.self_s",
                   "riquier.solve_riquier.self_s",
                   "riquier.biharmonic_measures.self_s",
                   "models.newtonian.riesz_compose.calls",
                   "suites.regularity-interval.s"),
}
UNUSED = {
    "grid-1d": ("adjoint.lsc_check.self_s", "models.newtonian.riesz_compose.calls",
                "suites.duality.s"),
    "radial": ("coupling.compose_green.calls", "adjoint.lsc_check.self_s"),
}


@pytest.fixture(scope="module")
def traced_slices(program):
    """Per workload: one untraced and two traced passes of the same slice."""
    out = {}
    for name in workloads.WORKLOADS:
        wl = _slice(name, 5)
        plain = bench.run_pass(wl, program)
        out[name] = (wl, plain, _traced_pass(wl, program), _traced_pass(wl, program))
    return out


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_layer_counts_nonzero_where_the_workload_uses_the_layer(name, traced_slices):
    _, _, (_, metrics), _ = traced_slices[name]
    for metric in USED[name]:
        assert metrics.get(metric, 0) > 0, metric
    for metric in UNUSED.get(name, ()):
        assert metrics.get(metric, 0) == 0, metric


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tracing_does_not_change_results(name, traced_slices):
    wl, plain, (traced, m1), (again, m2) = traced_slices[name]
    keys = [o.key() for o in plain.outcomes]
    assert [o.key() for o in traced.outcomes] == keys
    assert [o.key() for o in again.outcomes] == keys
    checked = bench.Summary(wl.ops)
    checked.add(plain)
    assert checked.failed == 0 and checked.attempted == len(wl.ops)
    counted = [k for k in set(m1) | set(m2)
               if k.endswith(".calls") or k.endswith(".shells")]
    assert counted
    assert {k: m1.get(k) for k in counted} == {k: m2.get(k) for k in counted}


def test_spans_of_one_op_share_an_id(traced_slices):
    wl, *_ = traced_slices["grid-1d"]
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        bench.run_pass(wl, bench.import_program(), tracer=tracer)
    assert len(tracer) > len(wl.ops)
    for i in range(len(tracer)):
        assert tracer.start[i] <= tracer.end[i]
        parent = tracer.parent[i]
        if parent >= 0:
            assert parent < i and tracer.op_id[parent] == tracer.op_id[i]
            assert tracer.start[parent] <= tracer.start[i] <= tracer.end[i] \
                <= tracer.end[parent]
    assert set(tracer.op_id) == set(range(len(wl.ops)))


def test_self_time_subtracts_child_spans():
    import time
    tracer = tracing.Tracer()
    leaf = tracer.wrap("leaf", lambda: time.sleep(0.02))

    def outer():
        leaf()
        leaf()
        time.sleep(0.01)

    tracer.wrap("outer", outer)()
    m = tracer.pass_metrics(0)
    assert m["leaf.calls"] == 2 and m["outer.calls"] == 1
    assert m["outer.self_s"] == pytest.approx(m["outer.s"] - m["leaf.s"])
    assert 0.01 <= m["outer.self_s"] < 0.02


# ---------------------------------------------------------------------------
# The command.

def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                          "grid-1d", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode != 0
    assert "correct" not in out.stdout


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    # radial is left out until its passes are steady (see README.md)
    assert [w["name"] for w in spec["workloads"]] == ["verify-all", "grid-1d"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    names = tracing.metric_names(o.model for o in
                                 bench.build_workload("verify-all", 0).ops)
    assert [m["name"] for m in spec["per_layer"]] == list(names)
    assert all(m["unit"] == tracing.unit(m["name"]) for m in spec["per_layer"])
