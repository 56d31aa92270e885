"""Every bit of a full verification pass, pinned by SHA-256 digests.

``golden/suite_digests.txt`` holds, for ``run_suite('all')`` at seeds 0 and
3, one digest over every check (id, passed, ``margin.hex()``, detail) and
one over every row that :func:`~greenlab.quadrature.integrate` computes in
that pass (value and error bound in ``float.hex``, panels, converged), with
the row count.  The rows are hashed sorted, so a change that only batches
rows into fewer calls keeps the digest.  A change to how the quadrature is
computed that must not move any result is checked here.  A change that
means to move results regenerates the file with

    PYTHONPATH=src python tests/test_suite_digests.py > tests/golden/suite_digests.txt

and says so.  A change that only stops recomputing rows moves the row
digest but should leave a sub-multiset of the parent's rows; print the
sorted row lines of one seed with

    PYTHONPATH=src python tests/test_suite_digests.py --rows 0 > rows.txt

in both trees and compare the two files (``LC_ALL=C comm -23 new.txt old.txt``
prints the rows the parent never computed, and should print nothing).
"""

import hashlib
import sys
from contextlib import contextmanager
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden" / "suite_digests.txt"
SEEDS = (0, 3)


def _row_line(res) -> str:
    return (f"{res.value.value.hex()} {res.value.error_bound.hex()} "
            f"{res.subdivisions} {res.converged}")


@contextmanager
def recorded_rows():
    """A list that collects the :class:`~greenlab.quadrature.QuadResult` of
    every row that :func:`~greenlab.quadrature.integrate` computes inside
    the block."""
    from greenlab import quadrature

    real = quadrature.integrate
    rows: list = []

    def recording(*args, **kwargs):
        out = real(*args, **kwargs)
        rows.extend([out] if isinstance(out, quadrature.QuadResult) else out)
        return out

    # every module that binds the name, as an import by name would
    bound = [(m, attr) for n, m in list(sys.modules.items())
             if n.split(".")[0] == "greenlab"
             for attr, val in list(vars(m).items()) if val is real]
    for mod, attr in bound:
        setattr(mod, attr, recording)
    try:
        yield rows
    finally:
        for mod, attr in bound:
            setattr(mod, attr, real)


def recorded_pass(seed: int) -> tuple[str, list[str]]:
    """The check digest of ``run_suite('all', seed)`` and the sorted row
    lines of every integrate call it makes."""
    from greenlab.suites import run_suite

    checks = hashlib.sha256()
    with recorded_rows() as rows:
        for r in run_suite("all", seed=seed):
            checks.update(f"{r.id}|{r.passed}|{float(r.margin).hex()}|"
                          f"{r.detail}\n".encode())
    return checks.hexdigest(), sorted(_row_line(res) for res in rows)


def digests() -> list[str]:
    """One line per seed and kind: the check digest, then the row digest."""
    lines = []
    for seed in SEEDS:
        checks, rows = recorded_pass(seed)
        lines.append(f"seed={seed} checks sha256={checks}")
        digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
        lines.append(f"seed={seed} rows={len(rows)} sha256={digest}")
    return lines


def test_suite_and_row_bits_match_the_golden_file():
    assert digests() == GOLDEN.read_text().splitlines()


def test_no_bit_depends_on_the_array_switch(monkeypatch):
    # every batch past a probe's 16 shells in the array form, then none;
    # every call's plain rows cut as arrays, then every call's in plain
    # Python; every array batch evaluated in blocks, then every one whole
    from greenlab import quadrature

    for name, switch in (("_ARRAY_PANELS", quadrature._MIN_SHELLS_FOR_VERDICT),
                         ("_ARRAY_PANELS", 10 ** 9), ("_SMALL_BATCH", 0),
                         ("_SMALL_BATCH", 10 ** 9),
                         ("_GK15_BLOCK", quadrature._ARRAY_PANELS + 1),
                         ("_GK15_BLOCK", 10 ** 9)):
        with monkeypatch.context() as patch:
            patch.setattr(quadrature, name, switch)
            assert digests() == GOLDEN.read_text().splitlines(), (name, switch)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--rows"]:
        lines = recorded_pass(int(sys.argv[2]))[1]
    else:
        lines = digests()
    for line in lines:
        print(line)
