#!/usr/bin/env python3
"""Run one greenlab benchmark workload at one seed and print its metrics.

    python3 perfbench/run.py --workload grid-1d --seed 1 --seconds 10 --trace 0

Run it from the root of a greenlab checkout.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` prints the per-layer metrics of a traced
run and writes its spans to ``.perfbench_out/spans-<workload>.npz``.  Every
line before the last is for reading; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# All load comes from one thread: pin numpy's pools before it is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="verify-all, grid-1d or radial")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="time whole passes while another fits in this many seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def fmt(value: float) -> str:
    return f"{value:.6g}" if math.isfinite(value) else str(value)


def main(argv=None) -> int:
    args = parse(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(HERE))
    import bench
    import tracing

    missing = bench.missing_files()
    if missing:
        print(f"perfbench: {bench.ROOT} is not a greenlab checkout; missing "
              f"{', '.join(missing)}", file=sys.stderr)
        return 2

    # set-up is sampled in fresh interpreters, before the workload is loaded
    # here and again after its passes, so the samples span the run
    setup = bench.setup_samples() if args.trace == 0 else []
    program = bench.import_program()
    try:
        wl = bench.build_workload(args.workload, args.seed)
    except ValueError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    bench.warm_up(wl, program)
    n = len(wl.ops)
    _, pct = bench.tail_rank(n)

    if args.trace == 0:
        run, _ = bench.measure(wl, program, args.seconds,
                               min_passes=bench.MIN_PASSES)
        setup += bench.setup_samples()
        m = bench.end_to_end(run, statistics.median(setup))
        print(f"# {wl.name} seed {wl.seed}: {len(run.walls)} passes of {n} ops; "
              f"op_tail_ms is p{pct:.4g} of {n} ops")
        print(f"# fastest pass {fmt(min(run.walls))} s as timed, speed probes "
              f"included; times below are at nominal speed")
        for name in ("fail_share", "bound_miss_share"):
            print(f"{name} {fmt(m[name])} share")
        metrics = {k: (m[k], u) for k, u in bench.END_TO_END.items()}
        correct = run.failed == 0
        attempted, failed = run.attempted, run.failed
    else:
        plain, _ = bench.measure(wl, program, 0.5 * args.seconds)
        tracer = tracing.Tracer()
        traced, layers = bench.measure(wl, program, 0.5 * args.seconds, tracer,
                                       keys=plain.keys)
        if not (plain.identical and traced.identical):
            print("perfbench: traced and untraced passes returned different "
                  "results", file=sys.stderr)
        tracer.write(bench.ROOT / ".perfbench_out" / f"spans-{wl.name}.npz")
        layer = bench.per_layer(program.suites.suite_ids("all"), plain, traced,
                                layers)
        print(f"# {wl.name} seed {wl.seed}: {len(plain.walls)} untraced and "
              f"{len(traced.walls)} traced passes of {n} ops, {len(tracer)} spans")
        metrics = {k: (v, tracing.unit(k)) for k, v in layer.items()}
        attempted = plain.attempted + traced.attempted
        failed = plain.failed + traced.failed
        correct = plain.identical and traced.identical and failed == 0

    for name, (value, unit) in metrics.items():
        print(f"{name} {fmt(value)} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
