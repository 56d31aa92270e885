"""Per-layer spans and counts, recorded from the benchmark's side.

:func:`installed` replaces each layer function of greenlab in every module
namespace that bound it at import (``riquier`` and ``models.newtonian`` import
``adaptive_panels`` by name, ``coupling`` imports ``integrate``, and so on), so
every call reaches the wrapper whichever module makes it.  The wrappers keep
spans in memory -- name, start, end, parent span, operation id -- and a few
counts read off arguments and results.  Nothing in the program changes; the
originals are put back on exit.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

# (module, function, metric prefix): the layers, bottom up.
LAYERS = (
    ("greenlab.quadrature", "_gk15", "quadrature.gk15"),
    ("greenlab.quadrature", "adaptive_panels", "quadrature.adaptive_panels"),
    ("greenlab.quadrature", "_probe_geometric", "quadrature.probe"),
    ("greenlab.quadrature", "integrate", "quadrature.integrate"),
    ("greenlab.quadrature", "integrate_radial", "quadrature.integrate_radial"),
    ("greenlab.coupling", "coupling_apply", "coupling.coupling_apply"),
    ("greenlab.coupling", "compose_green", "coupling.compose_green"),
    ("greenlab.adjoint", "adjoint_apply", "adjoint.adjoint_apply"),
    ("greenlab.adjoint", "lsc_check", "adjoint.lsc_check"),
    ("greenlab.adjoint", "continuity_probe", "adjoint.continuity_probe"),
    ("greenlab.adjoint", "duality_residual", "adjoint.duality_residual"),
    ("greenlab.riquier", "solve_riquier", "riquier.solve_riquier"),
    ("greenlab.riquier", "biharmonic_measures", "riquier.biharmonic_measures"),
    ("greenlab.models.newtonian", "riesz_compose", "models.newtonian.riesz_compose"),
)

SCALAR_EVALS = "quadrature.scalar_fallback.evals"

# The per-layer metrics the traced run reports, besides one wall time per
# registered check (``suites.<check-id>.s``) and the tracing overhead.
LAYER_METRICS = (
    "quadrature.gk15.calls", "quadrature.gk15.self_s",
    "quadrature.adaptive_panels.calls", "quadrature.adaptive_panels.self_s",
    "quadrature.adaptive_panels.cap_hits",
    "quadrature.probe.calls", "quadrature.probe.shells",
    "quadrature.probe.self_s", "quadrature.probe.unresolved",
    "quadrature.integrate.calls", "quadrature.integrate.self_s",
    "quadrature.integrate.unconverged",
    "quadrature.integrate_radial.calls", "quadrature.integrate_radial.self_s",
    SCALAR_EVALS,
    "coupling.coupling_apply.calls", "coupling.coupling_apply.self_s",
    "coupling.compose_green.calls", "coupling.compose_green.self_s",
    "adjoint.adjoint_apply.calls", "adjoint.adjoint_apply.self_s",
    "adjoint.lsc_check.self_s", "adjoint.continuity_probe.self_s",
    "adjoint.duality_residual.self_s",
    "riquier.solve_riquier.self_s", "riquier.biharmonic_measures.self_s",
    "models.newtonian.riesz_compose.calls",
    "models.newtonian.riesz_compose.self_s",
)
OVERHEAD = "trace.overhead_share"


def metric_names(check_ids) -> tuple[str, ...]:
    return LAYER_METRICS + tuple(f"suites.{c}.s" for c in check_ids) + (OVERHEAD,)


def unit(name: str) -> str:
    if name == OVERHEAD:
        return "ratio"
    return "s" if name.endswith("_s") or name.endswith(".s") else "count"


def _observers(quadrature):
    cap_default = inspect.signature(quadrature.adaptive_panels) \
        .parameters["max_panels"].default

    def panels(counts, args, kwargs, out):
        cap = kwargs.get("max_panels", args[5] if len(args) > 5 else cap_default)
        if out[2] >= cap:
            counts["quadrature.adaptive_panels.cap_hits"] += 1

    def probe(counts, args, kwargs, rep):
        counts["quadrature.probe.shells"] += rep.shells
        counts["quadrature.probe.unresolved"] += not rep.resolved

    def integrate(counts, args, kwargs, res):
        counts["quadrature.integrate.unconverged"] += not res.converged

    return {"quadrature.adaptive_panels": panels, "quadrature.probe": probe,
            "quadrature.integrate": integrate}


class Tracer:
    """Spans and counts of the traced passes, kept in memory.

    Span i has name_id[i], start[i], end[i], parent[i] and op_id[i]; the
    columns are typed arrays because a traced pass can hold millions of
    spans.  ``parent`` is -1 for a span opened outside every other.
    """

    def __init__(self):
        self.ids: dict[str, int] = {}   # span name -> name_id
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_id = array("i")
        self.counts: Counter = Counter()
        self.op = -1                    # id shared by the spans of one op
        self._stack = [-1]

    def __len__(self) -> int:
        return len(self.start)

    def wrap(self, name, fn, observe=None):
        nid = self.ids.setdefault(name, len(self.ids))
        stack, counts = self._stack, self.counts
        name_id, start, end, parent, op_id = (self.name_id, self.start, self.end,
                                              self.parent, self.op_id)

        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            op_id.append(self.op)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(counts, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def counting_vectorizer(self, as_vectorized):
        """as_vectorized that counts the nodes its scalar loop evaluates."""
        counts = self.counts

        def traced_as_vectorized(f):
            fv = as_vectorized(f)
            if fv is f:
                return f

            def counted(xs):
                counts[SCALAR_EVALS] += len(xs)
                return fv(xs)

            counted.vectorized = True
            return counted

        traced_as_vectorized.__wrapped__ = as_vectorized
        return traced_as_vectorized

    def pass_metrics(self, first: int) -> dict[str, float]:
        """Calls, self time and wall time per span name over the spans from
        index ``first`` on, plus the counts gathered since last cleared.

        Self time is a span's duration minus the time its child spans cover.
        """
        # slicing copies, so the arrays stay free to grow
        names = np.frombuffer(self.name_id[first:], dtype=np.uint16)
        parent = np.frombuffer(self.parent[first:], dtype=np.int32)
        dur = np.frombuffer(self.end[first:]) - np.frombuffer(self.start[first:])
        inner = parent >= first
        cover = np.bincount(parent[inner] - first, weights=dur[inner],
                            minlength=len(dur))
        k = len(self.ids)
        calls = np.bincount(names, minlength=k)
        wall = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=dur - cover, minlength=k)
        out: dict[str, float] = Counter()
        for name, i in self.ids.items():
            if calls[i]:
                out[f"{name}.calls"] += int(calls[i])
                out[f"{name}.self_s"] += float(own[i])
                out[f"{name}.s"] += float(wall[i])
        out.update(self.counts)
        return out

    def write(self, path: Path) -> None:
        """All spans as one .npz of columns, times in ns from the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        start = np.array(self.start)
        t0 = start[0] if len(start) else 0.0
        np.savez(path, names=np.array(list(self.ids)),
                 name_id=np.array(self.name_id, dtype=np.uint16),
                 op=np.array(self.op_id, dtype=np.int32),
                 parent=np.array(self.parent, dtype=np.int32),
                 start_ns=np.rint((start - t0) * 1e9).astype(np.int64),
                 end_ns=np.rint((np.array(self.end) - t0) * 1e9).astype(np.int64))


@contextmanager
def installed(tracer: Tracer):
    """Route every layer call, and every registered check, through tracer."""
    from greenlab import quadrature, suites
    modules = [m for n, m in list(sys.modules.items())
               if n == "greenlab" or n.startswith("greenlab.")]
    patched = []

    def rebind(orig, repl):
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, repl)
                    patched.append((mod, attr, orig))

    observers = _observers(quadrature)
    for modname, fname, prefix in LAYERS:
        orig = getattr(sys.modules[modname], fname)
        rebind(orig, tracer.wrap(prefix, orig, observers.get(prefix)))
    rebind(quadrature.as_vectorized,
           tracer.counting_vectorizer(quadrature.as_vectorized))
    saved = dict(suites.CHECKS)
    suites.CHECKS.update({cid: tracer.wrap(f"suites.{cid}", fn)
                          for cid, fn in saved.items()})
    try:
        yield tracer
    finally:
        for mod, attr, orig in reversed(patched):
            setattr(mod, attr, orig)
        suites.CHECKS.update(saved)
