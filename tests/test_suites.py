"""The named check registry driving both the CLI verifier and acceptance."""

import math
import sys
from pathlib import Path

import pytest

from greenlab.suites import CHECKS, SUITES, CheckResult, run_suite, suite_ids


def test_registry_ids_are_kebab_and_unique():
    ids = list(CHECKS)
    assert len(ids) == len(set(ids))
    for cid in ids:
        assert cid == cid.lower()
        assert " " not in cid and "_" not in cid


def test_suites_reference_known_checks():
    for name, ids in SUITES.items():
        assert ids, name
        for cid in ids:
            assert cid in CHECKS
    all_ids = suite_ids("all")
    assert len(all_ids) == len(set(all_ids))
    assert set(all_ids) == set(CHECKS)
    with pytest.raises(KeyError):
        suite_ids("torus")


def test_every_check_function_is_registered_under_its_id():
    # a check_* function that SUITES leaves out would never run
    from greenlab import suites

    funcs = {name: fn for name, fn in vars(suites).items()
             if name.startswith("check_") and callable(fn)}
    assert len(CHECKS) == len(funcs) == 33
    for cid, fn in CHECKS.items():
        assert fn is funcs["check_" + cid.replace("-", "_")]


def test_all_runs_the_33_checks_in_the_golden_order():
    golden = Path(__file__).parent / "golden" / "verify_all_seed0.txt"
    ids = [line.split(",")[0] for line in golden.read_text().splitlines()
           if line and not line.startswith("#")][1:]
    assert len(ids) == 33
    assert suite_ids("all") == tuple(ids) == tuple(CHECKS)


def test_suite_results_are_deterministic():
    first = run_suite("axioms")
    second = run_suite("axioms")
    assert [r.id for r in first] == [r.id for r in second]
    assert [r.margin for r in first] == [r.margin for r in second]
    assert all(isinstance(r, CheckResult) for r in first)


def test_every_margin_is_a_float():
    for res in run_suite("all", 0):
        assert type(res.margin) is float, res.id


def test_pure_minimality_fails_on_a_nan_margin(monkeypatch):
    from greenlab import riquier, suites

    def margin(first):
        return riquier.ProbeMargin((0.45, 0.55), 0.5, first, 0.0, 0.1)

    # alone, or after a probe that is violated in earnest
    for entries in ((margin(math.nan),), (margin(-0.5), margin(math.nan))):
        report = riquier.HyperharmonicReport(entries)
        monkeypatch.setattr(suites.riquier, "verify_hyperharmonic",
                            lambda *args: report)
        assert report.violated == entries
        assert not suites.check_pure_minimality().passed


def test_newtonian_suite_passes():
    for res in run_suite("newtonian"):
        assert res.passed, f"{res.id}: {res.detail}"
        assert res.margin >= 0.0


def test_all_checks_pass_without_adaptive_panels(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("adaptive_panels was called")

    # every module that binds the name, as an import by name would
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "greenlab" and \
                hasattr(module, "adaptive_panels"):
            monkeypatch.setattr(module, "adaptive_panels", refuse)
    results = run_suite("all")
    assert len(results) == 33
    assert [r.id for r in results if not r.passed] == []


# quadrature.integrate calls per check whose operator points are known
# before its first call; a return to one call per point fails here
BATCHED_CHECK_CALLS = {
    "coupling-monotonicity": 4,      # V(f), V(g) on each model
    "coupling-linearity": 6,         # V(combo), V(f), V(g) on each model
    "compose-consistency": 6,        # H, then two V(G2 slice), per model
    "v1-identity": 2,                # V(1) under each density
    "green-ode-interval": 3,         # H on every stencil node, per y
    "green-ode-bilaplace": 3,
    "navier": 6,                     # windows, then boundary and jump, per y
    "adjoint-gate": 11,              # grid values, then offsets per point
    # per pair: V(v) on the grid, V(1) for the remainder, the triples of
    # its three probes; the classified pair: its nine triples, then V(v);
    # the broken pair
    "pure-classification": 18,
    # per model, all its measure triples
    "measure-positivity": 2,
    # the nine triples; per subdomain, u at the 15 points and at the three
    # triple points for each of 10 draws
    "riquier-restriction-interval": 34,
    "riquier-restriction-bilaplace": 34,
}


def test_batched_checks_make_one_call_per_point_set(monkeypatch):
    from greenlab import quadrature

    real = quadrature.integrate
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "greenlab" and \
                getattr(module, "integrate", None) is real:
            monkeypatch.setattr(module, "integrate", counting)
    counts = {}
    for cid in BATCHED_CHECK_CALLS:
        calls.clear()
        assert CHECKS[cid](seed=0).passed, cid
        counts[cid] = len(calls)
    # an upper bound: a return to one call per point fails, fewer calls pass
    for cid, pinned in BATCHED_CHECK_CALLS.items():
        assert counts[cid] <= pinned, (cid, counts[cid])


def test_pairing_and_coupling_checks_integrate_on_their_declared_cuts():
    # the bumps declare their kinks; a row hunting them by bisection takes
    # 21 (duality), 46 (coupling-linearity) or 35 (coupling-monotonicity)
    # panels, a cut one at most 6
    from test_suite_digests import recorded_rows

    for cid in ("duality", "coupling-linearity", "coupling-monotonicity"):
        with recorded_rows() as rows:
            assert CHECKS[cid](seed=0).passed, cid
        assert rows, cid
        assert max(r.subdivisions for r in rows) <= 8, cid
