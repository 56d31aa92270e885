"""Adaptive quadrature with explicit singularity bookkeeping.

The integrators here serve kernels that are smooth except at a few declared
points: a kink on the diagonal, a blow-up at a boundary point, a fat tail at
infinity.  The base rule is the embedded Gauss7/Kronrod15 pair; panels touching
a declared singular point are decomposed into dyadic shells whose partial
integrals are fitted to a power law.  The fit either certifies divergence
(see :class:`~greenlab.values.DivergenceCertificate`) or, once the shells
contract, the remaining mass is extrapolated from their partial sums by
Wynn's epsilon, so integrable endpoint singularities do not eat the panel
budget.

The rule runs on many panels per integrand call: the initial panels of every
smooth piece of an integral together, then the children of each piece's worst
panel, round by round; the first _MIN_SHELLS_FOR_VERDICT dyadic shells of every
probe of a call together, then each probe's later shells one at a time.  So a
vectorized integrand must be elementwise: its value at a node may not depend on
the other nodes in the array.  Each panel
is still reduced on its own, so every value, bound and certificate is the one
a panel-at-a-time walk gives.  The same engine integrates many rows at once --
one integral per point of an operator call on an array of points -- with the
smooth pieces of every row in the same rounds: :func:`integrate` takes one
interval, or rows of them handed in as columns, and walks the rows in order
once.  A row with a probe or a tail gets a plan of its own; a plain row,
finite and with no singular point in range, is cut at its breakpoints.
Once the last row is planned, one integrand call evaluates the first run of
shells of every probe of the call, and the probes are then walked in row
and interval order, each from its own run.  The first round's tolerance
test picks out the few pieces that refine, each plain row's pieces are
summed in piece order, and the rows' results go into the columns of a
:class:`QuadRows`.  The size of a call picks how this
bookkeeping runs, never a bit of a result.  A call of at most _SMALL_BATCH
rows tests and cuts each row in plain Python (an operator call at one point
is one row); a larger one finds the rows to plan with one array test and
cuts the others at once.  A batch of at most _ARRAY_PANELS panels takes its
error estimates, tolerance tests and row sums in plain Python, where numpy's
fixed cost per call would outweigh the work; a larger one keeps them in
numpy columns from the panel rule to the row sums.  The pieces that refine
follow the same rule: those of a larger batch stay in one table of panels,
refined in whole-array steps to their end, and those of a smaller batch
each keep their panels in a heap.  A batch of more than _GK15_BLOCK panels is
evaluated in blocks of at most that many, one integrand call per block, so
that the integrand's temporaries stay the size of a block however many
rows a call holds.

Conventions
-----------
* tolerances are absolute, per integral;
* the divergence rule has one home, :mod:`greenlab.values`, read by the
  walker and every certificate: ~ C*d^p at a point diverges iff p <= -1 +
  EXP_MARGIN, ~ C*r^p at a tail iff p >= -1 - EXP_MARGIN, or on blow-up;
* so has the shell walk, ``values._probe_geometric``: its loop, exits,
  remainder and report, and the rule that ends it.  A walk's error is its
  shells' panel estimates, each once, plus the error of the remainder that
  Wynn's epsilon extrapolates from the last 16 partial sums.  This module
  evaluates the shells, all by :func:`_shells`: the first runs of a call's
  probes together, then each later shell of a probe as its walker asks
  for it.
"""

from __future__ import annotations

import heapq
import math
from collections import abc
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from typing import Callable, Sequence

import numpy as np

from .errors import (ModelDomainError, PreconditionError,
                     UndeclaredSingularityError)
from .values import (_DOUBLINGS, _HALVINGS, _MIN_SHELLS_FOR_VERDICT,
                     PROBE_DEPTH, ExtendedValue, ProbeReport, _frozen,
                     _probe_geometric)

# ---------------------------------------------------------------------------
# Gauss7 / Kronrod15 embedded pair on [-1, 1].

_GK_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_K_WEIGHTS = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
_G_WEIGHTS = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])
# the G7 weights over the 15 nodes, zero off the G7 nodes
_G15 = np.zeros(len(_GK_NODES))
_G15[1::2] = _G_WEIGHTS
# the floor of a panel's error estimate per unit of |K15|; 50 eps is exact
_FLOOR = 50.0 * float(np.finfo(float).eps)
# 4% above 200^-3: from there on (200 diff)^1.5 > diff, rounding included
_SHRINK_LIMIT = 1.3e-7

# A call of at most this many rows cuts its plain rows in plain Python,
# where numpy's fixed cost per call outweighs the work: an operator call at
# one point is one row.  At 64, in alternating verify-all perfbench pairs
# (4-s runs, 2-core x86 VM, Python 3.11), op_tail_ms was higher in 15 of
# 16 pairs (medians +2.4% and +5.5% in two sets of 8), and run_s in 8 of 8
# of an earlier set (medians 0.0733 s against 0.0707 s, about +4%) but
# unresolved in these two (-2.9% and +0.7%).
_SMALL_BATCH = 16
# A _gk15 batch of more than this many panels takes its error estimates as
# arrays, and so do _refine its tolerance tests and _integrate_rows its row
# sums.  The break-even, timed against the loop with an integrand that costs
# nothing (median ratio of 100-150 interleaved pairs, 2-core x86 VM, Python
# 3.11, numpy 2.4): _gk15 alone, a refinement round, 1.03x at 32 panels and
# 0.89x at 64; a call of n one-piece rows, none refining, 0.91x at 32 and
# 0.75x at 64; the same rows all refining once, 1.10x at 32, 1.00x at 64
# and 0.95x at 96.  It is at least _MIN_SHELLS_FOR_VERDICT, so that a
# probe's batches stay lists.  The pieces of a batch above it refine in
# _refine_table to their end, even where their children would fit a list,
# as few rounds run there.  One run_suite('all') pass, at seed 0 or 1,
# makes 25 _refine_table calls, starting with 3,496 refining pieces; in 11
# of them the pieces left come to fit a list, 123 pieces in all, and these
# take 9 more rounds (248 panels).
_ARRAY_PANELS = 64
# A _gk15 batch of more than this many panels is evaluated in blocks of at
# most this many, so that the integrand's numpy temporaries stay in cache.
# Timed on the grids of lsc_check, 3,825 rows in one call (in-process
# medians of 25, 2-core x86 VM, Python 3.11, numpy 2.4): the interval
# model's check takes 11.3 ms at 1,024, 11.8 at 512 and 2,048, 12.4 at
# 256, 13.6 at 4,096 and 16.0 in one block; the bilaplace one 5.9 ms at
# 1,024 and 2,048, 6.1-6.8 at 256, 512 and 4,096, and 10.0 in one block.
_GK15_BLOCK = 1024


def as_vectorized(f: Callable) -> Callable:
    """Wrap a scalar callable so the panel rule can pass node arrays.

    A callable marked ``vectorized`` is returned as it is.  It must be
    elementwise: its value at a node may not depend on the other nodes in
    the array, because one array holds the nodes of many panels.
    """
    if getattr(f, "vectorized", False):
        return f

    def fv(xs: np.ndarray) -> np.ndarray:
        return np.fromiter((float(f(x)) for x in xs), dtype=float, count=len(xs))

    fv.vectorized = True
    return fv


def _gk15(fv: Callable, a, b, rows=None) -> tuple[list | np.ndarray, dict]:
    """G7/K15 on the panels [a[i], b[i]], their nodes in one fv call per
    block of at most _GK15_BLOCK panels.

    ``fv`` is a node integrand ``fv(z)`` when ``rows`` is None, and
    otherwise a row integrand ``fv(r, z)``, where ``rows`` gives the row of
    every panel: one int for all of them, or one id per panel.  Returns
    (outs, holes): each panel's (integral, error estimate), and a dict from
    each panel with a non-finite sample to its first such node, where the
    pair means nothing.  outs is a list of pairs of floats for a batch of
    at most _ARRAY_PANELS panels, and above that an (n, 2) array of the
    same bits, whose rows are the pairs.  Each rule is one elementwise
    product with its 15 weights and one sum along each panel's row of
    products.  A contiguous row sum takes the same steps whatever the
    number of rows, so a panel's bits do not depend on the batch or block
    it is evaluated in; a matrix product, or a sum down the columns, rounds
    differently.  A batch of more than _GK15_BLOCK panels is evaluated
    block by block, each block with the node row ids of its own panels, so
    that the integrand's temporaries stay the size of a block; its holes
    carry each panel's index in the whole batch.

    The K weights are positive, so a non-finite sample makes K15
    non-finite.  K15 comes first, and only where it is non-finite are the
    panel's non-finite samples zeroed, in a copy of the integrand's values,
    before the G7 product, whose zero weights off the G7 nodes would
    otherwise meet them in inf * 0.

    The error estimate is QUADPACK's: diff = |K15 - G7|, shrunk to
    (200 diff)^1.5 where that is smaller, and floored at 50 eps |K15|.  A
    small batch takes it panel by panel in plain Python floats, where
    numpy's fixed cost per call would outweigh the work.  A large one takes
    it column by column: the floor and diff, their larger, and the shrink
    only on the panels where floor < diff < _SHRINK_LIMIT, the only ones
    where it can win.  There the shrink is ``math.pow``, the C library's
    ``pow`` behind Python's ``**``: numpy's ``power`` rounds differently in
    the last bits of some results.  A NaN diff counts as no difference, as
    in the loop, so a NaN K15 gets the error 0.0.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = len(a)
    if n > _ARRAY_PANELS:
        k15, g7, holes = np.empty(n), np.empty(n), {}
        for s in range(0, n, _GK15_BLOCK):
            t = slice(s, s + _GK15_BLOCK)
            fx, xs, half = _samples(fv, a[t], b[t], rows if rows is None or
                                    isinstance(rows, int) else rows[t])
            k = k15[t] = np.add.reduce(fx * _K_WEIGHTS, 1) * half
            if not np.isfinite(k).all():
                fx, bad = _zero_holes(fx, xs, k)
                holes.update((s + i, x) for i, x in bad.items())
            g7[t] = np.add.reduce(fx * _G15, 1) * half
        finite = bool(np.isfinite(k15).all())
        outs = np.empty((n, 2))
        outs[:, 0] = k15
        floor = _FLOOR * np.abs(k15)
        if finite:
            diff = np.abs(k15 - g7)
        else:
            with np.errstate(invalid="ignore"):     # inf - inf
                diff = np.abs(k15 - g7)
        err = np.fmax(floor, diff, out=outs[:, 1])
        if not finite:
            err[np.isnan(k15)] = 0.0
        shrink = ((floor < diff) & (diff < _SHRINK_LIMIT)).nonzero()[0]
        if len(shrink):
            d = diff[shrink]
            err[shrink] = np.maximum(floor[shrink], np.minimum(
                list(map(math.pow, (200.0 * d).tolist(), repeat(1.5))), d))
        return outs, holes
    fx, xs, half = _samples(fv, a, b, rows)
    k15 = np.add.reduce(fx * _K_WEIGHTS, 1) * half
    k15s = k15.tolist()
    holes = {}
    if not math.isfinite(sum(k15s)):
        fx, holes = _zero_holes(fx, xs, k15)
    g7s = (np.add.reduce(fx * _G15, 1) * half).tolist()
    outs = []
    for k15, g7 in zip(k15s, g7s):
        diff = abs(k15 - g7)
        err = 0.0
        if diff > 0.0:
            # the shrink cannot win above _SHRINK_LIMIT, where ** may overflow
            err = (200.0 * diff) ** 1.5 if diff < _SHRINK_LIMIT else diff
            if err > diff:
                err = diff
        floor = _FLOOR * abs(k15)
        outs.append((k15, floor if floor > err else err))
    return outs, holes


def _samples(fv, a, b, rows):
    """The integrand of :func:`_gk15` at the 15 nodes of each panel, a row
    per panel, with the nodes and the panels' half widths.  A row id per
    panel is repeated to one per node; one int for every panel is passed
    as it is, and broadcasts, which spares a scalar call building an id
    per node."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    xs = mid[:, None] + half[:, None] * _GK_NODES
    z = xs.ravel()
    fz = fv(z) if rows is None else fv(
        rows if isinstance(rows, int) else np.repeat(rows, len(_GK_NODES)), z)
    return np.asarray(fz, dtype=float).reshape(xs.shape), xs, half


def _zero_holes(fx: np.ndarray, xs: np.ndarray, k15: np.ndarray):
    """A copy of the samples fx at the nodes xs with the non-finite samples
    of each panel whose K15 is non-finite zeroed, and the dict from each
    such panel to its first non-finite node.  The integrand's array is left
    as it returned it."""
    fx = fx.copy()
    holes = {}
    for i in np.flatnonzero(~np.isfinite(k15)).tolist():
        bad = ~np.isfinite(fx[i])
        if bad.any():
            holes[i] = float(xs[i, np.argmax(bad)])
            fx[i, bad] = 0.0
    return fx, holes


def _undeclared(x: float) -> UndeclaredSingularityError:
    return UndeclaredSingularityError(
        f"integrand is non-finite at {x!r}, away from every declared "
        "singular point")


def _refine(fv: Callable, rows, los, his, tols, cap: int):
    """Adaptive G7/K15 on several pieces at once.

    Piece i is one initial panel [los[i], his[i]] of row rows[i], integrated
    against the row integrand ``fv(r, z)``; ``rows`` is a sequence of ints,
    or one int when every piece is of that row.  While its error sum
    exceeds tols[i] and it holds fewer than ``cap`` panels, its worst panel
    is bisected: the one of largest error, and of these the one of lowest
    lower end.  Each piece keeps its own sums and panels, so its result is
    the one it would get alone.

    Returns (outs, panels, holes): each piece's (value, error), in the
    form :func:`_gk15` gives its initial panels' (a list of pairs, or the
    rows of an array above _ARRAY_PANELS pieces), the panel count of every
    piece that refined (1 elsewhere), and the first non-finite node of
    every piece that met one.  One _gk15 call evaluates the initial panels
    of every piece, and the pieces that meet their tolerance at once, the
    most, are done there.  Each round one call evaluates the children of
    the worst panel of every piece still refining.  A non-finite sample
    ends its piece, and stops the pieces of later rows: their outcomes mean
    nothing.  A batch in the array form refines in :func:`_refine_table`
    to its end; a list of pairs keeps each refining piece's panels in a
    heap of (-error, lo, hi, value), popped in the order above.
    """
    grown: dict[int, int] = {}
    if not len(los):
        return [], grown, {}
    outs, holes = _gk15(fv, los, his, rows)
    if type(outs) is not list:
        return _refine_table(fv, rows, los, his, tols, cap, outs, holes)
    todo = [i for i, ((_, e), t) in enumerate(zip(outs, tols)) if e > t] \
        if cap > 1 else []
    if not todo:
        return outs, grown, holes
    row_of = [rows] * len(outs) if isinstance(rows, int) else \
        rows.tolist() if isinstance(rows, np.ndarray) else rows
    first_bad = min((row_of[i] for i in holes), default=math.inf)
    # each refining piece's [value, error, panels, heap], in piece order
    live = {i: [*outs[i], 1, [(-outs[i][1], float(los[i]), float(his[i]),
                               outs[i][0])]]
            for i in todo if i not in holes}
    active = list(live)
    while True:
        # a piece that stops refining never starts again
        active = [i for i in active if row_of[i] <= first_bad
                  and live[i][1] > tols[i] and live[i][2] < cap]
        if not active:
            break
        worst = [heapq.heappop(live[i][3]) for i in active]
        splits = [(lo, 0.5 * (lo + hi), hi) for _, lo, hi, _ in worst]
        # panels of a single row get its id as an int, which broadcasts
        ids = [row_of[i] for i in active]
        kids, kid_holes = _gk15(
            fv, [e for lo, mid, _ in splits for e in (lo, mid)],
            [e for _, mid, hi in splits for e in (mid, hi)],
            ids[0] if ids.count(ids[0]) == len(ids) else np.repeat(ids, 2))
        if type(kids) is not list:
            kids = kids.tolist()
        for j, (i, (neg_err, _, _, val), (lo, mid, hi)) in enumerate(
                zip(active, worst, splits)):
            if kid_holes and (2 * j in kid_holes or 2 * j + 1 in kid_holes):
                holes[i] = kid_holes.get(2 * j, kid_holes.get(2 * j + 1))
                first_bad = min(first_bad, row_of[i])
                live[i][2] = cap
                continue
            (v1, e1), (v2, e2) = kids[2 * j], kids[2 * j + 1]
            piece = live[i]
            piece[0] = piece[0] + ((v1 + v2) - val)
            piece[1] = piece[1] + ((e1 + e2) - (-neg_err))
            piece[2] += 1
            heapq.heappush(piece[3], (-e1, lo, mid, v1))
            heapq.heappush(piece[3], (-e2, mid, hi, v2))
    for i, (value, error, count, _) in live.items():
        if i not in holes:
            outs[i], grown[i] = (value, error), count
    return outs, grown, holes


def _refine_table(fv: Callable, rows, los, his, tols, cap: int,
                  outs: np.ndarray, holes: dict):
    """The rounds of :func:`_refine` after a first batch in the array form,
    in whole-array steps: its (outs, panels, holes), with outs and holes
    the first batch's, updated in place.

    The pieces that refine stay in one table, in piece order, with a row
    per piece and a column per panel: each panel's (error, lo, hi, value).
    Every live piece gains one panel per round, so at round k each holds
    the k columns 0, ..., k - 1.  A round takes every piece's worst panel
    by one max along the rows and one argmin of lo among the panels of that
    error, which is a heap's order of (-error, lo, hi, value).  Two panels
    of a piece share a lo only if one is empty, with error 0, so lo ties
    only where all its panels have error 0; the lowest lo is then the
    piece's lower end, whose first column holds an empty panel if any,
    the lower hi.  One _gk15 call evaluates the children, in either of its
    forms, the first child takes its parent's column and the second column
    k, and the sums are updated as the heap loop does, elementwise.  A
    piece that stops is written to outs and its row dropped: at its
    tolerance (a NaN error sum counts as met), at the cap, in a row after
    the first row with a hole, or at a hole, which keeps the first batch's
    pair.  The rounds go on until no piece is left.  The table starts 8
    columns wide and doubles when full.
    """
    grown: dict[int, int] = {}
    idx = (outs[:, 1] > tols).nonzero()[0]
    if cap < 2 or not len(idx):
        return outs, grown, holes
    rid = np.broadcast_to(rows, len(outs))
    first_bad = min((int(rid[i]) for i in holes), default=math.inf)
    if holes:
        idx = idx[~np.isin(idx, list(holes))]
        idx = idx[rid[idx] <= first_bad]
    rid, tol = rid[idx], np.asarray(tols, dtype=float)[idx]
    val, err = outs[idx, 0], outs[idx, 1]
    table = np.empty((4, len(idx), min(cap, 8)))
    table[:, :, 0] = (err, np.asarray(los, dtype=float)[idx],
                      np.asarray(his, dtype=float)[idx], val)
    k = 1
    while True:
        stop = ~(err > tol) if k < cap else np.ones(len(idx), bool)
        if first_bad < math.inf:
            stop |= rid > first_bad
        if stop.any():
            done = idx[stop]
            outs[done, 0] = val[stop]
            outs[done, 1] = err[stop]
            grown.update(dict.fromkeys(done.tolist(), k))
            keep = ~stop
            idx, rid, tol, val, err = (a[keep] for a in (idx, rid, tol, val,
                                                          err))
            table = table[:, keep]
        if not len(idx):
            return outs, grown, holes
        if k == table.shape[2]:
            table = np.concatenate((table, np.empty_like(table)), axis=2)
        errs = table[0, :, :k]
        worst = errs.max(1)
        j = np.where(errs == worst[:, None], table[1, :, :k],
                     math.inf).argmin(1)
        at = np.arange(len(idx))
        _, lo, hi, v = table[:, at, j]
        mid = 0.5 * (lo + hi)
        kids, kid_holes = _gk15(fv, np.array((lo, mid)).T.ravel(),
                                np.array((mid, hi)).T.ravel(), rid.repeat(2))
        v1, e1, v2, e2 = np.asarray(kids, dtype=float).reshape(-1, 4).T
        val = val + ((v1 + v2) - v)
        err = err + ((e1 + e2) - worst)
        table[:, at, j] = e1, lo, mid, v1
        table[:, :, k] = e2, mid, hi, v2
        k += 1
        if kid_holes:
            keep = np.ones(len(idx), bool)
            for c in sorted(kid_holes):
                holes.setdefault(int(idx[c // 2]), kid_holes[c])
                keep[c // 2] = False
            first_bad = min(first_bad, int(rid[~keep].min()))
            idx, rid, tol, val, err = (a[keep] for a in (idx, rid, tol, val,
                                                          err))
            table = table[:, keep]


# No caller in src; kept while perfbench/tracing.py wraps it by name.
def adaptive_panels(f: Callable, a: float, b: float, tol: float,
                    breakpoints: Sequence[float] = (),
                    max_panels: int = 2000) -> tuple[float, float, int]:
    """:func:`integrate` on [a, b], under its rules: (value, bound, panels)."""
    res = integrate(f, (a, b), tol=tol, breakpoints=breakpoints,
                    max_subdivisions=max_panels)
    return res.value.value, res.value.error_bound, res.subdivisions


# ---------------------------------------------------------------------------
# Dyadic shell probes.

def _shell_bounds(point: float, side: str, scale: float, k0: int, k1: int,
                  kind: str) -> tuple[list[float], list[float]]:
    """The lower and upper ends of shells k0, ..., k1 - 1: shell k is
    point + scale [2^-(k+1), 2^-k] on the right, its mirror on the left,
    and point + scale [2^k, 2^(k+1)] at a tail."""
    if kind == "tail":
        ends = [point + scale * t for t in _DOUBLINGS[k0:k1 + 1]]
        return ends[:-1], ends[1:]
    if side == "right":
        ends = [point + scale * t for t in _HALVINGS[k0:k1 + 1]]
        return ends[1:], ends[:-1]
    ends = [point - scale * t for t in _HALVINGS[k0:k1 + 1]]
    return ends[:-1], ends[1:]


def _shells(fv, rows, probes, k0: int, k1: int) -> list:
    """Shells k0, ..., k1 - 1 of every probe (point, side, scale, tol,
    kind) in one _gk15 call, probe by probe: each as (value, error), or None
    with a non-finite sample.  ``fv`` and ``rows`` are as :func:`_gk15`
    takes them.  Bound to one probe, it gives the walker its later shells."""
    los, his = [], []
    for point, side, scale, _, kind in probes:
        lo, hi = _shell_bounds(point, side, scale, k0, k1, kind)
        los += lo
        his += hi
    outs, holes = _gk15(fv, los, his, rows)
    if type(outs) is not list:
        outs = outs.tolist()
    for j in holes:
        outs[j] = None
    return outs


def _probe(f: Callable, probe: tuple) -> ProbeReport:
    shells = partial(_shells, as_vectorized(f), None, [probe])
    return _probe_geometric(shells, *probe, shells(0, _MIN_SHELLS_FOR_VERDICT))


def _require_probe_tol(tol: float) -> None:
    # 0 asks for what no extrapolation meets: the walk to full depth
    if not 0.0 <= tol < math.inf:
        raise PreconditionError(
            f"probe tol must be finite and not negative, not {tol}")


def probe_divergence(f: Callable, point: float, side: str = "right",
                     tol: float = 1e-10) -> ProbeReport:
    """Classify the behaviour of ``f`` at ``point`` via dyadic shells.

    Walks shells [point + 2^-(k+1), point + 2^-k] (mirrored for side="left"),
    fits the shell integrals to a power law and declares divergence per the
    EXP_MARGIN rule, or blow-up of the partial integrals.  The walk ends
    resolved once the error of the shells and the extrapolated remainder is
    at most ``tol``.  That error is positive while any shell is nonzero, so
    tol = 0 walks all PROBE_DEPTH shells unless the walk diverges or f
    vanishes near the point.  A tol that is NaN, negative or infinite is
    refused before any evaluation of f.
    """
    if side not in ("left", "right"):
        raise PreconditionError(f"side must be 'left' or 'right', not {side!r}")
    _require_probe_tol(tol)
    return _probe(f, (point, side, 1.0, tol, "endpoint"))


def probe_tail(f: Callable, start: float = 1.0,
               tol: float = 1e-10) -> ProbeReport:
    """Classify the behaviour of ``f`` on [start, inf) via doubling blocks.

    ``tol`` is read as by :func:`probe_divergence`: tol = 0 walks all
    PROBE_DEPTH blocks unless the walk diverges or f vanishes, and a NaN,
    negative or infinite tol is refused before any evaluation of f.
    """
    if start <= 0.0:
        raise PreconditionError("tail probes start at a positive radius")
    _require_probe_tol(tol)
    return _probe(f, (0.0, "right", start, tol, "tail"))


# ---------------------------------------------------------------------------
# The public integrator.

@dataclass(frozen=True)
class QuadResult:
    value: ExtendedValue
    subdivisions: int
    singular_points_handled: tuple[tuple[float, str], ...]
    converged: bool


class QuadRows(abc.Sequence):
    """The results of a row-form :func:`integrate` call, one per row.

    Its arrays ``value`` and ``bound`` (both inf for a row certified
    divergent), ``panels``, and ``row_converged``, whether each row met its
    tolerance, hold every row; they are kept as lists and made arrays when
    read.  Indexing builds the row's :class:`QuadResult`, and a slice the
    list of its rows'; a row planned around a singular point or a tail
    keeps the one its plan assembled, with its certificate and the
    singular points it handled.
    """

    def __init__(self, value: list, bound: list, panels: list,
                 row_converged: list, planned: dict[int, QuadResult]):
        self._columns = (value, bound, panels, row_converged)
        self._planned = planned

    value = property(lambda self: np.array(self._columns[0], dtype=float))
    bound = property(lambda self: np.array(self._columns[1], dtype=float))
    panels = property(lambda self: np.array(self._columns[2], dtype=np.intp))
    row_converged = property(lambda self: np.array(self._columns[3],
                                                   dtype=bool))

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, i: int | slice) -> QuadResult | list[QuadResult]:
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        i = range(len(self))[i]
        res = self._planned.get(i)
        if res is None:
            value, bound, panels, met = self._columns
            res = _frozen(QuadResult, ExtendedValue.finite(value[i], bound[i]),
                          panels[i], (), met[i])
        return res

    @property
    def converged(self) -> bool:
        """Whether every row met its tolerance."""
        return all(self._columns[3])

    def extended(self) -> list[ExtendedValue]:
        """Each row's value, as the ExtendedValue its QuadResult holds."""
        planned, values = self._planned, []
        for i, (v, e) in enumerate(zip(*self._columns[:2])):
            values.append(planned[i].value if i in planned
                          else ExtendedValue.finite(v, e))
        return values


def integrate(f: Callable, interval: tuple[float, float] | None = None,
              singular_points: Sequence[float] = (), tol: float = 1e-8,
              breakpoints: Sequence[float] = (), max_subdivisions: int = 2000,
              *, rows: tuple | None = None) -> QuadResult | QuadRows:
    """Integrate f over [a, b] with declared singular points.

    ``singular_points`` are locations (interior or endpoint) where f may be
    unbounded; every panel side touching one is handled by the dyadic shell
    probe, which either certifies divergence (returned as an infinite
    :class:`ExtendedValue`) or extrapolates the integrable remainder.
    a must be finite, and below b.  b may be ``math.inf``: the tail beyond
    the last finite cut (at least 1) is walked in doubling blocks with half
    the tolerance, and is either certified divergent (side "radial-tail")
    or extrapolated the same way.  ``breakpoints`` are mere smoothness
    breaks (kinks): they split panels but get no special treatment.  f must
    be nonnegative, or at least of one sign near each singular point with a
    nonnegative total.

    The reported error bound is exact panel arithmetic away from the
    singular points; across a shell probe it adds the error of the epsilon
    table's remainder, sharp for sums of powers and of powers times logs
    (the local shape of every kernel here), but no certified enclosure for
    arbitrary integrands, and too small where the shells converge only
    logarithmically.

    Many integrals at once: instead of ``interval``, ``singular_points``
    and ``breakpoints``, pass ``rows = (n, columns, singular)`` for n
    integrals.  ``columns`` holds the rows' cuts column by column: the
    lower ends first, the upper ends last, and breakpoints in between, each
    column a number shared by every row or an array with one entry per row.
    A breakpoint at an end, repeated, NaN or outside the interval cuts
    nothing, so a row with fewer breakpoints can be padded with an end.
    ``singular`` maps the index of each row that declares singular points
    to them.  f is then a row integrand ``f(r, z)`` at the nodes z, where r
    is one row index, or an int array of indices with z's shape, and f must
    be elementwise in both.  The call returns a :class:`QuadRows` in the
    order of the rows; each row gets the bits a one-row call gives it, and
    the call raises the exception of the first row in order that raises.

    Both forms run on one engine, :func:`_integrate_rows`; the interval of
    the scalar form is its one row.  Both refuse a tol that is not positive
    and finite, before any integrand evaluation.
    """
    if not 0.0 < tol < math.inf:
        raise PreconditionError(f"tol must be positive and finite, not {tol}")
    scalar = rows is None
    if scalar and interval is None or not scalar and (
            interval is not None or singular_points or breakpoints):
        raise PreconditionError(
            "integrate takes an interval, or rows that each carry their own "
            "interval, singular points and breakpoints")
    if scalar:
        fv = as_vectorized(f)
        return _integrate_rows(
            lambda r, z: fv(z), 1, [interval[0], *breakpoints, interval[1]],
            {0: tuple(singular_points)} if len(singular_points) else {},
            tol, max_subdivisions)[0]
    return _integrate_rows(f, *rows, tol, max_subdivisions)


def _integrate_rows(f: Callable, n: int, columns: list, singular: dict,
                    tol: float, cap: int) -> QuadRows:
    """The engine of :func:`integrate`: n rows, given as columns of cuts.

    It walks the rows in order once.  A row that runs to inf or has a
    singular point in range is planned by :func:`_plan_row`, which also
    refuses an empty row or one from -inf; the first row whose planning
    raises ends the walk before any evaluation, and its exception is raised
    unless one of an earlier row comes first.  Every other row is plain: it
    is cut at its breakpoints into pieces that share half its tolerance.
    Then one :func:`_shells` call evaluates the first run of every probe
    of the planned rows, each panel with its row's id; an exception the
    integrand raises there propagates at once.  Each planned row's pieces
    are walked in order, each probe by :func:`_probe_geometric` from its
    run and with :func:`_shells` bound to it for its later shells, up to
    the piece that ends the row; an exception a walk raises stands in
    place of its report, so the call raises that of the first failing
    row.  One :func:`_refine` call refines the pieces of the
    plain rows, then the walked plain pieces of the planned rows.  Each
    plain row's pieces are summed in piece order, and each planned row is
    assembled by :func:`_assemble_row`.

    The number of rows picks how the rows are walked and cut.  A call of at
    most _SMALL_BATCH rows tests and cuts each row in plain Python.  Above
    that, one array test of the ends and the ``singular`` keys below n
    pick the rows to hand to :func:`_plan_row`, and all plain rows are cut
    at once: a breakpoint outside a row's interval, or NaN, is moved onto
    an end, the row is sorted, and a piece between equal cuts is dropped,
    which leaves each row's sorted set of cuts.  The number of pieces picks
    how they are summed: in plain Python from the list of pairs of a batch
    of at most _ARRAY_PANELS pieces, and above that by one ``bincount``
    per column of :func:`_gk15`'s array.  Both add each row's pieces in
    piece order to a total that starts at 0.0.
    """
    # Plain loops, not comprehensions, where a one-row call runs them once:
    # a comprehension's own frame costs it more than the loop.
    inf, ndarray = math.inf, np.ndarray
    small = n <= _SMALL_BATCH
    # the cuts: in plain Python a list per column, as arrays one array;
    # lo and hi, the walked rows' ends as floats
    if small:
        cols = []
        for c in columns:
            cols.append(c.tolist() if isinstance(c, ndarray)
                        else [float(c)] * n)
        lo, mids, hi = cols[0], cols[1:-1], cols[-1]
        walk = range(n)
    else:
        cuts = np.empty((n, len(columns)))
        for j, c in enumerate(columns):
            cuts[:, j] = c
        first, last = cuts[:, 0], cuts[:, -1]
        # the rows that may need a plan, in order: NaN fails every test
        ok = (-inf < first) & (first < last) & (last < inf)
        walk = sorted({*(~ok).nonzero()[0].tolist(),
                       *(r for r in singular if 0 <= r < n)})
        lo, hi = map(first.item, walk), map(last.item, walk)
    # each planned row's pieces, plain-piece tolerance and probes, and the
    # probes of all of them in order
    stop, plans, probes = None, {}, []
    # each plain row, its piece count, and each plain piece's index in them
    plain, counts, piece_row = [], [], []
    ids, los, his, tols = [], [], [], []
    for r, a, b in zip(walk, lo, hi):
        if not -inf < a < b < inf or r in singular:
            try:
                plan = _plan_row(a, b, singular.get(r, ()),
                                 [col[r] for col in mids] if small
                                 else cuts[r, 1:-1].tolist(), tol)
            except Exception as exc:
                # raised below, once the rows before it have had their turn
                stop = exc
                break
            if plan is not None:
                plans[r] = plan
                probes += plan[2]
                continue
        # a plain row: cut here in plain Python, or below with the others
        if small:
            cut = sorted({a, b, *(col[r] for col in mids if a < col[r] < b)})
            k = len(cut) - 1
            piece_row += [len(plain)] * k
            plain.append(r)
            counts.append(k)
            ids += [r] * k
            los += cut[:-1]
            his += cut[1:]
            tols += [0.5 * tol / k] * k
    # the plain pieces of planned rows, as (row, lo, hi, tol), up to the
    # piece that ends each row
    extra = []
    if plans:
        # one _gk15 call: the first run of every probe, with its row's id
        w = _MIN_SHELLS_FOR_VERDICT
        runs = _shells(f, 0 if n == 1 else np.repeat(
            list(plans), [w * len(plan[2]) for plan in plans.values()]),
            probes, 0, w)
        at = 0
        for row, (pieces, tol_plain, own) in plans.items():
            plans[row] = pieces, len(extra)
            j, at = at, at + w * len(own)
            for piece in pieces:
                if type(piece) is tuple:
                    extra.append((row, *piece, tol_plain))
                    continue
                for i, probe in enumerate(piece):
                    try:
                        rep = piece[i] = _probe_geometric(
                            partial(_shells, f, row, [probe]), *probe,
                            runs[j:j + w])
                    except Exception as exc:
                        rep = piece[i] = exc
                    j += w
                    # a probe that diverges or raises ends its row
                    if type(rep) is not ProbeReport or rep.divergent:
                        break
                else:
                    continue
                break
    # the plain pieces of planned rows follow those of the plain rows
    if small:
        m = len(los)
        for r, lo_r, hi_r, t in extra:
            ids.append(r)
            los.append(lo_r)
            his.append(hi_r)
            tols.append(t)
    else:
        plain = np.arange(n if stop is None else r)
        if plans:
            plain = np.delete(plain, list(plans))
        c = cuts[plain]
        c = np.fmin(np.fmax(c, c[:, :1]), c[:, -1:])
        c.sort(axis=1)
        keep = c[:, 1:] > c[:, :-1]
        piece_row = keep.nonzero()[0]
        counts = np.bincount(piece_row, minlength=len(c))
        los, his = c[:, :-1][keep], c[:, 1:][keep]
        tols = (0.5 * tol / counts)[piece_row]
        ids = plain[piece_row]
        counts = counts.tolist()
        m = len(los)
        if extra:
            ids, los, his, tols = (np.concatenate(pair) for pair in
                                   zip((ids, los, his, tols), zip(*extra)))
        if len(los) <= _ARRAY_PANELS:
            tols = tols.tolist()    # read piece by piece, as floats
    outs, grown, holes = _refine(f, 0 if n == 1 else ids, los, his, tols, cap)

    failures: dict[int, Exception] = {}
    if holes:
        for i in sorted(holes):
            if i < m:
                failures.setdefault(int(ids[i]), _undeclared(holes[i]))
                # its pair means nothing, and summed it could meet an inf
                outs[i] = (0.0, 0.0)
    if type(outs) is not list:
        # straight from the columns
        piece_row = np.asarray(piece_row, dtype=np.intp)
        value = np.bincount(piece_row, outs[:m, 0], len(plain))
        bound = np.bincount(piece_row, outs[:m, 1], len(plain))
        met, low = (bound <= tol).tolist(), (value < 0.0).nonzero()[0].tolist()
        value, bound = value.tolist(), bound.tolist()
        if plans:
            outs = outs.tolist()    # pairs of floats for _assemble_row
    else:
        value, bound, met, low = [], [], [], []
        i = 0
        for k in counts:
            total = err = 0.0
            for v, e in outs[i:i + k]:
                total += v
                err += e
            i += k
            if total < 0.0:
                low.append(len(value))
            value.append(total)
            bound.append(err)
            met.append(err <= tol)
    for i, count in grown.items():
        if i < m:
            counts[piece_row[i]] += count - 1
    for j in low:
        try:
            value[j] = _nonnegative(value[j], bound[j])
        except PreconditionError as exc:
            failures.setdefault(int(plain[j]), exc)
    # in row order, each planned row goes in at its index
    for r, (pieces, start) in plans.items():
        try:
            res = plans[r] = _assemble_row(pieces, outs, grown, holes,
                                           m + start, tol)
        except Exception as exc:
            failures.setdefault(r, exc)
        else:
            value.insert(r, res.value.value)
            bound.insert(r, res.value.error_bound)
            counts.insert(r, res.subdivisions)
            met.insert(r, res.converged)
    if failures:
        raise failures[min(failures)]
    if stop is not None:
        raise stop
    return QuadRows(value, bound, counts, met, plans)


def _plan_row(a: float, b: float, singular_points, breakpoints,
              tol: float) -> tuple[list, float, list] | None:
    """The pieces in interval order of a row on [a, b], the tolerance of a
    plain piece, and the row's probes, if it runs to inf or has a singular
    point in range; None if it is plain, for :func:`_integrate_rows` to
    cut.  A row whose interval is empty or starts at -inf is refused.

    A plain piece is its (lo, hi), to be refined.  A piece with a singular
    end is the list of the probes (point, side, scale, tol, kind) that walk
    it, one from each such end; the probes are those lists' entries in
    order.  :func:`_integrate_rows` evaluates every probe's first run and
    then walks the pieces in order, each probe's report standing in the
    list in place of the probe, or an exception it raised in place of its
    report.  A piece that diverges or refuses ends its row: the probes and
    plain pieces after it are neither walked nor refined, though their
    first runs were evaluated with the others.

    On [a, inf) the tail starts at the last finite cut, or at 1 if that is
    larger (at twice that when it is a or a singular point, so that the
    finite part is never empty and every singular point is probed on both
    sides).  The tail is the last piece, walked in doubling blocks at half
    the tolerance; the finite part before it is split, and its tolerance
    shared, as a finite interval is, with the other half.
    """
    if not a < b:
        raise PreconditionError(f"empty integration interval [{a}, {b}]")
    if a == -math.inf:
        raise PreconditionError(
            f"integration interval [{a}, {b}] has no finite lower end")
    tail = b == math.inf
    if tail:
        b = max(a, 1.0, *(p for p in (*singular_points, *breakpoints)
                          if a <= p < math.inf))
        if b == a or b in singular_points:
            b *= 2.0
        tol = 0.5 * tol
    sings = {float(s) for s in singular_points if a <= s <= b}
    if not (tail or sings):
        return None
    cuts = sorted({a, b, *sings, *(p for p in breakpoints if a < p < b)})
    # Split the tolerance budget fairly between shell probes and plain
    # pieces; a singular point is probed from each side that is in range.
    tol_shell = 0.5 * tol / max(2 * len(sings) - (a in sings) - (b in sings),
                                1)
    # Each piece is walked by the probes of its singular ends, if it has any.
    pieces, probes, k = [], [], 0
    for lo, hi in zip(cuts, cuts[1:]):
        right, left = lo in sings, hi in sings
        if right or left:
            scale = (hi - lo) / (right + left)
            span = [(lo, "right", scale, tol_shell, "endpoint")] if right \
                else []
            if left:
                span.append((hi, "left", scale, tol_shell, "endpoint"))
            probes += span
        else:
            span = (lo, hi)
            k += 1
        pieces.append(span)
    if tail:
        span = [(0.0, "right", b, tol, "tail")]
        pieces.append(span)
        probes += span
    return pieces, 0.5 * tol / (k or 1), probes


def _assemble_row(pieces: list, outs: list, grown: dict, holes: dict,
                  start: int, tol: float) -> QuadResult:
    """The QuadResult of a row planned by :func:`_plan_row`, whose plain
    pieces are the refined pieces start, start + 1, ... of
    :func:`_refine`'s (outs, grown, holes).

    The first piece in interval order that ends in INF or raises decides: a
    non-finite sample in a plain piece before a probe's refusal wins.
    """
    total, err_total, panels = 0.0, 0.0, 0
    handled: list[tuple[float, str]] = []
    i = start
    for piece in pieces:
        if isinstance(piece, tuple):
            if i in holes:
                raise _undeclared(holes[i])
            v, e = outs[i]
            total += v
            err_total += e
            panels += grown.get(i, 1)
            i += 1
            continue
        for rep in piece:
            if isinstance(rep, Exception):
                raise rep
            handled.append((rep.location, rep.side))
            panels += rep.shells
            if rep.divergent:
                return _frozen(QuadResult,
                               ExtendedValue.infinite(rep.certificate),
                               panels, tuple(handled), True)
            total += rep.value
            err_total += rep.error
    return _frozen(
        QuadResult,
        ExtendedValue.finite(_nonnegative(total, err_total), err_total),
        panels, tuple(handled), err_total <= tol)


def _nonnegative(total: float, bound: float) -> float:
    """A row's total, read 0 where it is negative but within its bound +
    1e-12 of 0, which is rounding; a total further below is refused."""
    if total < -(bound + 1e-12):
        raise PreconditionError(
            f"integral evaluated to {total!r} < 0; extended values are "
            "nonnegative (split a signed integrand into nonnegative parts)")
    return 0.0 if total < 0.0 else total


def sphere_surface_area(n: int) -> float:
    """Surface area of the unit (n-1)-sphere in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def integrate_radial(g: Callable, n: int, upper: float | None = None,
                     tol: float = 1e-8,
                     breakpoints: Sequence[float] = ()) -> QuadResult:
    """Integrate a radial profile over R^n: int g(r) * sigma_{n-1} r^(n-1) dr.

    ``upper=None`` means integrate to infinity: :func:`integrate` on
    [0, inf), whose tail is walked in doubling blocks and either certified
    divergent or extrapolated from its partial sums.
    Requires n >= 5, the strong-coupling range of the radial models here.
    """
    if n < 5:
        raise ModelDomainError(
            f"radial coupling integrals require dimension >= 5, got {n}")
    sigma = sphere_surface_area(n)
    gv = as_vectorized(g)

    def weighted(rs: np.ndarray) -> np.ndarray:
        rs = np.asarray(rs, dtype=float)
        return sigma * gv(rs) * rs ** (n - 1)

    weighted.vectorized = True
    b = math.inf if upper is None else float(upper)
    return integrate(weighted, (0.0, b), singular_points=(0.0,), tol=tol,
                     breakpoints=breakpoints)

