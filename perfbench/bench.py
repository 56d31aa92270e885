"""Timed passes over a workload, set-up timing and the metrics built from them.

A pass runs the workload's whole operation list once, in one closed loop with
one caller, and times every operation on its own.  The end-to-end metrics come
from untraced passes; the traced run repeats the passes with every layer
wrapped (see ``tracing.py``) and reports per-layer numbers per pass.
"""

from __future__ import annotations

import importlib.util
import math
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import reference
import tracing
import workloads
from workloads import Op, Outcome, Program, Workload

ROOT = Path(__file__).resolve().parent.parent
REQUIRED = ("src/greenlab/__init__.py", "tests/oracles.py")
MODELS = ("interval", "bilaplace", "newtonian5", "newtonian6")
SETUP_RUNS = 7           # fresh interpreters per set-up sampling, after one unmeasured
MIN_PASSES = 2           # timed passes per end-to-end run, at least
TAIL_BEYOND = 10         # op_tail_ms leaves this many samples above it
PROBE_EVERY = 16         # grid-1d and radial ops between two speed probes

# Metric name -> unit, in print order.  fail_share and bound_miss_share are
# printed for reading; the result line carries them as the nonzero
# pass_share and bound_held_share.
END_TO_END = {
    "setup_s": "s", "run_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
    "op_tail_ms": "ms", "inf_p50_ms": "ms", "pass_share": "share",
    "bound_held_share": "share", "peak_rss_mb": "MB",
}

SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, "src")
import greenlab
from greenlab.models import get_model
for name in {models!r}:
    get_model(name)
elapsed = time.perf_counter() - t0
sys.path.insert(0, "perfbench")
import reference
print(repr(elapsed), repr(reference.fastest(3)))
"""


def missing_files(root: Path = ROOT) -> list[str]:
    return [p for p in REQUIRED if not (root / p).is_file()]


def load_oracles(root: Path = ROOT):
    """tests/oracles.py, imported read-only by path."""
    spec = importlib.util.spec_from_file_location("greenlab_bench_oracles",
                                                  root / "tests" / "oracles.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def import_program(root: Path = ROOT) -> Program:
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    return Program()


def build_workload(name: str, seed: int, root: Path = ROOT) -> Workload:
    from greenlab import suites
    return workloads.build(name, seed, load_oracles(root), suites.suite_ids("all"))


# ---------------------------------------------------------------------------
# Set-up time: import and model construction in fresh interpreters.

def setup_samples(root: Path = ROOT, runs: int = SETUP_RUNS) -> list[float]:
    """Seconds to import greenlab and build the four models, per fresh interpreter.

    Each interpreter then times the reference kernel, which scales its sample
    to the machine's nominal speed.  One more interpreter runs first,
    unmeasured, so the byte-code cache is written before timing and every
    sample sees it.
    """
    code = SETUP_CHILD.format(models=MODELS)
    samples = []
    for i in range(runs + 1):
        out = subprocess.run([sys.executable, "-c", code], cwd=root,
                             capture_output=True, text=True, check=True,
                             timeout=120)
        if i:
            elapsed, kernel = map(float, out.stdout.split()[-2:])
            samples.append(elapsed * reference.factor(kernel))
    return samples


# ---------------------------------------------------------------------------
# Passes.
#
# The shared host this runs on switches, often for seconds and at times for
# minutes, between its nominal speed and about half of it.  So a pass times
# the reference kernel (reference.py) between its ops, and each op's latency
# is scaled by reference.factor of the mean of the two kernel times
# bracketing it: its seconds at nominal speed, measured when it ran.

@dataclass(frozen=True)
class Pass:
    wall_s: float                     # as timed, speed probes included
    latencies: tuple[float, ...]      # seconds at nominal speed, in op order
    outcomes: tuple[Outcome, ...]
    scale: float                      # median factor to nominal speed


def _scaled(lat, groups, probes) -> tuple[list[float], float]:
    """Latencies scaled by the probes bracketing their group, and the median
    factor; probe g runs before group g and probe g + 1 after it."""
    factors = [reference.factor(0.5 * (probes[g] + probes[g + 1]))
               for g in range(len(probes) - 1)]
    return ([t * factors[g] for t, g in zip(lat, groups)],
            statistics.median(factors) if factors else 1.0)


def _call_pass(program: Program, ops, tracer) -> Pass:
    """Each op called in turn, with a speed probe every PROBE_EVERY ops."""
    lat = [0.0] * len(ops)
    raw = [None] * len(ops)
    probes = []
    start = perf_counter()
    for i, op in enumerate(ops):
        if i % PROBE_EVERY == 0:
            probes.append(reference.fastest())
        if tracer is not None:
            tracer.op = i
        t = perf_counter()
        try:
            raw[i] = program.call(op)
        except Exception as exc:     # a raised request is a failed one
            raw[i] = exc
        lat[i] = perf_counter() - t
    probes.append(reference.fastest())
    wall = perf_counter() - start
    scaled, scale = _scaled(lat, [i // PROBE_EVERY for i in range(len(ops))],
                            probes)
    return Pass(wall, tuple(scaled), tuple(workloads.outcome(r) for r in raw),
                scale)


def _suite_pass(program: Program, ops, seed: int, tracer) -> Pass:
    """suites.run_suite("all", seed), timing each registered check between
    two speed probes."""
    suites = program.suites
    index = {op.model: i for i, op in enumerate(ops)}
    lat = [0.0] * len(ops)
    groups = [0] * len(ops)
    probes = []
    saved = dict(suites.CHECKS)

    def timed(cid, fn):
        def run(seed=0):
            i = index[cid]
            if not probes:
                probes.append(reference.fastest())
            if tracer is not None:
                tracer.op = i
            t = perf_counter()
            try:
                return fn(seed=seed)
            finally:
                lat[i] = perf_counter() - t
                groups[i] = len(probes) - 1
                probes.append(reference.fastest())
        return run

    suites.CHECKS.update({cid: timed(cid, fn) for cid, fn in saved.items()})
    try:
        start = perf_counter()
        results = suites.run_suite("all", seed)
        wall = perf_counter() - start
    finally:
        suites.CHECKS.update(saved)
    if [r.id for r in results] != [op.model for op in ops]:
        raise RuntimeError("run_suite returned checks out of registry order")
    scaled, scale = _scaled(lat, groups, probes)
    return Pass(wall, tuple(scaled), tuple(workloads.outcome(r) for r in results),
                scale)


def run_pass(wl: Workload, program: Program, ops=None, tracer=None) -> Pass:
    ops = wl.ops if ops is None else ops
    if wl.name == "verify-all":
        return _suite_pass(program, ops, wl.seed, tracer)
    return _call_pass(program, ops, tracer)


def warm_up(wl: Workload, program: Program) -> None:
    """One untimed run over the workload's warm-up ops."""
    run_pass(wl, program, wl.warmup)


class Summary:
    """What the metrics need from a run of passes: every op's scaled latency
    in every pass, and the outcomes judged pass by pass."""

    def __init__(self, ops: tuple[Op, ...], keys: list | None = None):
        self.ops = ops
        self.walls: list[float] = []
        self.latencies: list[list[float]] = [[] for _ in ops]   # per op
        self.attempted = self.failed = self.finite = self.missed = 0
        self.keys = keys                            # outcome keys to match
        self.identical = True

    def add(self, p: Pass) -> None:
        self.walls.append(p.wall_s)
        for seen, t in zip(self.latencies, p.latencies):
            seen.append(t)
        keys = [o.key() for o in p.outcomes]
        if self.keys is None:
            self.keys = keys
        self.identical &= keys == self.keys
        for op, out in zip(self.ops, p.outcomes):
            failed, missed = workloads.judge(op, out)
            self.attempted += 1
            self.failed += failed
            self.finite += not op.inf and op.kind != "check"
            self.missed += missed

    def per_op(self) -> list[float]:
        """Each op's median latency over the passes, seconds at nominal speed."""
        return [statistics.median(seen) for seen in self.latencies]

    def run_s(self) -> float:
        """One pass at nominal speed: the sum of the ops' median latencies."""
        return math.fsum(self.per_op())


def measure(wl: Workload, program: Program, seconds: float,
            tracer: tracing.Tracer | None = None, min_passes: int = 1,
            keys: list | None = None) -> tuple[Summary, list[dict]]:
    """Whole passes while another one fits in ``seconds``, at least min_passes.

    Outcomes are judged between passes, outside the pass timing.  With a
    tracer, also returns each pass's per-layer metrics, times scaled to
    nominal speed by the pass's median probe factor.
    """
    summary, layers = Summary(wl.ops, keys), []
    start = perf_counter()
    while len(summary.walls) < min_passes or \
            perf_counter() - start + min(summary.walls) <= seconds:
        if tracer is None:
            summary.add(run_pass(wl, program))
            continue
        first = len(tracer)
        tracer.counts.clear()
        with tracing.installed(tracer):
            p = run_pass(wl, program, tracer=tracer)
        summary.add(p)
        layers.append({k: v * p.scale if tracing.unit(k) == "s" else v
                       for k, v in tracer.pass_metrics(first).items()})
    return summary, layers


# ---------------------------------------------------------------------------
# Metrics.

def tail_rank(n: int) -> tuple[int, float]:
    """Index into n sorted samples with TAIL_BEYOND above it, and its percentile."""
    idx = max(0, n - TAIL_BEYOND - 1)
    return idx, 100.0 * (idx + 1) / n


def end_to_end(s: Summary, setup_s: float) -> dict[str, float]:
    """End-to-end metrics from the untraced passes, times at nominal speed.

    Each op's latency is the median over the passes of its scaled latency;
    run_s sums them, and the median and tail are taken over the ops.
    """
    n = len(s.ops)
    per_op = s.per_op()
    run_s = math.fsum(per_op)
    idx, _ = tail_rank(n)
    fail_share = s.failed / s.attempted
    miss_share = s.missed / s.finite if s.finite else 0.0
    return {
        "setup_s": setup_s,
        "run_s": run_s,
        "ops_per_s": n / run_s,
        "op_p50_ms": 1e3 * statistics.median(per_op),
        "op_tail_ms": 1e3 * sorted(per_op)[idx],
        "inf_p50_ms": 1e3 * statistics.median(
            t for t, op in zip(per_op, s.ops) if op.inf),
        "fail_share": fail_share,
        "bound_miss_share": miss_share,
        "pass_share": 1.0 - fail_share,
        "bound_held_share": 1.0 - miss_share,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(check_ids, untraced: Summary, traced: Summary,
              layers: list[dict]) -> dict[str, float]:
    """Median over the traced passes of each per-layer metric, plus overhead."""
    out = {}
    for name in tracing.metric_names(check_ids)[:-1]:
        out[name] = statistics.median(m.get(name, 0) for m in layers)
    out[tracing.OVERHEAD] = traced.run_s() / untraced.run_s() - 1.0
    return out
