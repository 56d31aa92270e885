"""The named check registry driving both the CLI verifier and acceptance."""

import sys

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


def test_suite_results_are_deterministic():
    first = run_suite("axioms")
    second = run_suite("axioms")
    assert [r.id for r in first] == [r.id for r in second]
    assert [r.margin for r in first] == [r.margin for r in second]
    assert all(isinstance(r, CheckResult) for r in first)


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
