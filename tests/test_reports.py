"""The prebuilt data tables: shape, literals, determinism and golden bytes.

``golden/report_digests.txt`` holds the SHA-256 of every file that
`greenlab report` writes at seed 0.  A change that means to move a report
byte regenerates it with

    PYTHONPATH=src python tests/test_reports.py > tests/golden/report_digests.txt

and says so.
"""

import contextlib
import hashlib
import io
import math
import tempfile
from pathlib import Path

import pytest

import oracles
from greenlab import reports
from greenlab.cli import main
from greenlab.reports import BUILDERS, build_adjoint_gate, write_report
from greenlab.values import ExtendedValue

GOLDEN_DIGESTS = Path(__file__).parent / "golden" / "report_digests.txt"


def test_every_builder_produces_consistent_rows():
    for name, build in BUILDERS.items():
        table = build()
        assert table.name == name
        assert table.rows
        for row in table.rows:
            assert len(row) == len(table.columns)


def test_radial_divergence_march():
    table = BUILDERS["radial-divergence"]()
    for note in table.notes:
        assert "divergent" in note
    # truncations march like R^2: one doubling adds a log2 step of two
    steps = [float(r[3]) for r in table.rows if r[0] == "5"
             and not math.isnan(float(r[3]))]
    assert steps
    for s in steps:
        assert s == pytest.approx(2.0, abs=1e-9)


def test_obstruction_goes_negative_near_zero():
    table = BUILDERS["obstruction"]()
    values = [float(r[1]) for r in table.rows]
    assert min(values) < -1e3
    for row in table.rows:
        assert float(row[1]) == pytest.approx(
            oracles.obstruction_curve(float(row[0])), rel=1e-9)


def test_boundary_blowup_rows_are_all_infinite():
    table = BUILDERS["boundary-blowup"]()
    assert len(table.rows) == 9
    for row in table.rows:
        assert row[2] == "INF"
        assert float(row[3]) == pytest.approx(-1.0, abs=0.05)


def test_a_finite_boundary_value_is_written_as_a_number(monkeypatch):
    # a finite H(0.5, 0) takes its value in the h column and no exponent
    real = reports.compose_green

    def compose(model, x, y, **kwargs):
        vals = list(real(model, x, y, **kwargs))
        vals[4] = ExtendedValue.finite(0.125)
        return vals

    monkeypatch.setattr(reports, "compose_green", compose)
    rows = reports.build_boundary_blowup().rows
    assert rows[4] == ("0.5", "0", "0.125", "")
    assert [row[2] for row in rows[:4] + rows[5:]] == ["INF"] * 8


def test_adjoint_gate_trace():
    table = build_adjoint_gate()
    assert any("depth 19" in note or "depth 20" in note
               for note in table.notes)
    logs = [float(r[4]) for r in table.rows]
    # the ramp of the test function fades like the offset itself, so only
    # the deep rows show the clean per-depth climb
    gaps = [b - a for a, b in zip(logs[12:], logs[13:])]
    assert gaps
    for g in gaps:
        assert g == pytest.approx(math.log(2.0), abs=1e-3)
    assert float(table.rows[-1][3]) > 1e6


def test_symmetry_grid_is_balanced():
    table = BUILDERS["symmetry"]()
    assert len(table.rows) == 400
    worst = max(float(r[4]) for r in table.rows)
    assert worst <= 1e-10
    assert any("max asymmetry" in n for n in table.notes)


def test_continuity_table_marks_the_blowup_target():
    table = BUILDERS["continuity"]()
    notes = " ".join(table.notes)
    assert "consistent" in notes and "blow-up" in notes
    blowup_rows = [r for r in table.rows if r[1] == "0"]
    assert blowup_rows
    assert all(r[5] == "INF" for r in blowup_rows)


def test_write_report_is_deterministic(tmp_path):
    a = write_report("boundary-blowup", tmp_path / "a")
    b = write_report("boundary-blowup", tmp_path / "b")
    for pa, pb in zip(a, b):
        assert pa.read_bytes() == pb.read_bytes()
    csv_text = a[0].read_text(encoding="ascii")
    assert csv_text.startswith("# tool = greenlab")
    assert "# report = boundary-blowup" in csv_text


def test_write_report_rejects_unknown_name(tmp_path):
    with pytest.raises(KeyError):
        write_report("entropy", tmp_path)


def report_digests(out: Path) -> list[str]:
    """The SHA-256 and name of every CSV and .dat that `greenlab report`
    writes at seed 0 into the empty directory out, in name order."""
    with contextlib.redirect_stdout(io.StringIO()):
        for name in BUILDERS:
            assert main(["report", name, "--out", str(out)]) == 0
    return [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.name}"
            for p in sorted(out.iterdir())]


def test_report_targets_match_the_golden_digests(tmp_path):
    assert report_digests(tmp_path) == \
        GOLDEN_DIGESTS.read_text(encoding="ascii").splitlines()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as out:
        for line in report_digests(Path(out)):
            print(line)
