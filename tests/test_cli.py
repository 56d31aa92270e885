"""The command-line surface: golden columns, exit codes, determinism."""

import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import oracles
from greenlab import __version__
from greenlab.cli import (RunConfig, _value_cells, build_config, cmd_eval,
                          cmd_report, load_config, main, make_parser)
from greenlab.errors import ConfigError
from greenlab.kernels import kernel_eval
from greenlab.models.newtonian import newtonian_model
from greenlab.reports import fmt_num
from greenlab.suites import CHECKS, CheckResult


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def data_rows(out):
    return [line.split(",") for line in out.strip().splitlines()
            if line and not line.startswith("#")]


def test_eval_composed_kernel(capsys):
    rc, out, _ = run_cli(capsys, "eval", "--model", "interval",
                         "--kernel", "h", "--x", "0.3", "--y", "0.7")
    assert rc == 0
    assert "# command = eval" in out
    rows = data_rows(out)
    assert rows[0] == ["x", "y", "value", "bound_or_exponent"]
    x, y, value, bound = rows[1]
    assert (float(x), float(y)) == (0.3, 0.7)
    assert float(value) == pytest.approx(oracles.interval_h(0.3, 0.7),
                                         abs=1e-8)
    assert float(bound) <= 1e-8


def test_eval_radial_kernel_at_distance(capsys):
    rc, out, _ = run_cli(capsys, "eval", "--model", "newtonian5",
                         "--kernel", "g1", "--x", "0", "--y", "1.0,2.0")
    assert rc == 0
    rows = data_rows(out)
    assert rows[0] == ["x", "y", "value", "bound_or_exponent"]
    assert float(rows[1][2]) == pytest.approx(oracles.newton_c(5), rel=1e-12)
    assert float(rows[2][2]) == pytest.approx(oracles.newton_c(5) / 8.0,
                                              rel=1e-12)
    # a separation whose power overflows is the certified diagonal
    rc, out, _ = run_cli(capsys, "eval", "--model", "newtonian5",
                         "--kernel", "g1", "--x", "0", "--y", "1e-200")
    assert rc == 0
    assert data_rows(out)[1] == ["0", "1e-200", "INF", "-3"]
    for d in ("nan", "inf"):
        rc, out, err = run_cli(capsys, "eval", "--model", "newtonian5",
                               "--kernel", "g1", "--x", "0", "--y", d)
        assert rc == 2
        assert out == ""
        assert err.startswith("greenlab: ") and "finite" in err


def test_eval_kernel_points_are_checked_and_certified(capsys):
    rc, out, err = run_cli(capsys, "eval", "--model", "bilaplace",
                           "--kernel", "g1", "--x", "2", "--y", "0.5")
    assert rc == 2
    assert out == ""
    assert "outside domain" in err
    for model, kernel, x, y, cells in (
            ("interval", "g1", "0", "0", ["INF", "-1"]),
            ("interval", "g2", "0", "0", ["INF", "-2"]),
            ("newtonian5", "g1", "0", "0", ["INF", "-3"]),
            ("newtonian5", "g1", "0", "1", ["0.0126651479553", "0"])):
        rc, out, _ = run_cli(capsys, "eval", "--model", model,
                             "--kernel", kernel, "--x", x, "--y", y)
        assert rc == 0
        assert data_rows(out)[1] == [x, y] + cells


def test_any_radial_dimension_from_five_is_a_model(capsys):
    rc, out, _ = run_cli(capsys, "eval", "--model", "newtonian7",
                         "--kernel", "g1", "--x", "0", "--y", "1.0")
    assert rc == 0
    assert "# model = newtonian7" in out
    assert float(data_rows(out)[1][2]) == pytest.approx(oracles.newton_c(7),
                                                        rel=1e-12)
    rc, out, err = run_cli(capsys, "eval", "--model", "newtonian4",
                           "--kernel", "g1", "--x", "0", "--y", "1.0")
    assert rc == 2
    assert out == ""
    assert "dimension >= 5" in err


def test_eval_divergent_value_prints_inf_literal(capsys):
    rc, out, _ = run_cli(capsys, "eval", "--model", "interval",
                         "--kernel", "vstar", "--x", "0.0")
    assert rc == 0
    row = data_rows(out)[1]
    assert row[1] == "INF"
    assert float(row[2]) == pytest.approx(-1.0, abs=0.05)



def test_eval_overflowing_radial_kernel_is_the_certified_diagonal(capsys):
    # c_n d^(2-n) overflows at these separations; a warning would be an
    # error here, so nothing may reach stderr through the warnings module
    cases = (("newtonian100", ("--x", "0", "--y", "1e-8"),
              ["0", "1e-08", "INF", "-98"]),
             ("newtonian100", ("--x", "0", "--y", "0.001"),
              ["0", "0.001", "INF", "-98"]),
             ("newtonian5", ("--x", "0", "--y", "1e-120"),
              ["0", "1e-120", "INF", "-3"]))
    for model, points, want in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, err = run_cli(capsys, "eval", "--model", model,
                                   "--kernel", "g1", *points)
        assert (rc, err) == (0, "")
        assert data_rows(out)[1] == want


def test_eval_certified_inf_of_a_coupling_is_quiet(capsys):
    # the shell probe behind each INF samples close to the singular point;
    # a warning would be an error here, so nothing may reach stderr
    cases = ((("--kernel", "h", "--x", "0.5", "--y", "0"), ["0.5", "0"]),
             (("--kernel", "vstar", "--x", "0.0"), ["0"]))
    for args, point in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, err = run_cli(capsys, "eval", "--model", "interval",
                                   *args)
        assert (rc, err) == (0, "")
        assert data_rows(out)[1] == [*point, "INF", "-1"]


def test_eval_refuses_an_interval_point_whose_kernel_overflows(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run_cli(capsys, "eval", "--kernel", "h",
                               "--x", "0.5", "--y", "1e-160")
    assert (rc, out) == (2, "")
    assert err.startswith("greenlab: kernel interval-G2 overflows")


def test_eval_refuses_a_diagonal_point_whose_kernel_overflows(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run_cli(capsys, "eval", "--kernel", "g2",
                               "--x", "1e-160", "--y", "1e-160")
    assert (rc, out) == (2, "")
    assert err.startswith("greenlab: kernel interval-G2 overflows")
    assert len(err.splitlines()) == 1


def test_eval_dist_and_points_give_the_same_kernel_values(capsys):
    # the separations d, read as the points 0 and d e_1, print the cells of
    # kernel_eval at those points
    dists = np.logspace(-150.0, 150.0, 61)
    for n in (5, 6, 7, 12, 40, 100):
        model = f"newtonian{n}"
        rc, by_points, _ = run_cli(
            capsys, "eval", "--model", model, "--kernel", "g1", "--x", "0",
            "--y", ",".join(repr(float(d)) for d in dists))
        assert rc == 0
        rows = data_rows(by_points)[1:]
        kern = newtonian_model(n).G1
        assert rows == [["0", fmt_num(d),
                         *_value_cells(kernel_eval(kern, 0.0, d))]
                        for d in dists]

def test_eval_needs_kernel_and_points(capsys):
    rc, _, err = run_cli(capsys, "eval", "--model", "interval")
    assert rc == 2
    assert "kernel" in err
    rc, _, err = run_cli(capsys, "eval", "--model", "interval",
                         "--kernel", "h")
    assert rc == 2


def test_verify_suite_passes(capsys):
    rc, out, _ = run_cli(capsys, "verify", "newtonian")
    assert rc == 0
    rows = data_rows(out)
    assert rows[0] == ["check", "margin", "verdict"]
    assert all(row[-1] == "pass" for row in rows[1:])
    assert "# result = 4/4 passed" in out



def test_verify_all_bytes_match_the_golden_file(capsys):
    # a change that means to move a margin regenerates the file with
    #   PYTHONPATH=src python -m greenlab.cli verify all \
    #       > tests/golden/verify_all_seed0.txt
    golden = Path(__file__).parent / "golden" / "verify_all_seed0.txt"
    rc, out, err = run_cli(capsys, "verify", "all")
    assert (rc, err) == (0, "")
    assert out == golden.read_text()

def test_verify_reports_failure_with_exit_one(capsys, monkeypatch):
    monkeypatch.setitem(
        CHECKS, "gauss-flux",
        lambda seed=0: CheckResult("gauss-flux", False, -0.5, "forced"))
    rc, out, _ = run_cli(capsys, "verify", "newtonian")
    assert rc == 1
    assert "gauss-flux,-0.5,FAIL" in out
    assert "# result = 3/4 passed" in out


def test_verify_rejects_unknown_suite(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "torus"])
    assert info.value.code == 2


def test_bad_tolerance_is_a_config_error(capsys):
    rc, _, err = run_cli(capsys, "eval", "--model", "interval",
                         "--kernel", "h", "--x", "0.3", "--y", "0.7",
                         "--tol-quad", "-1")
    assert rc == 2
    assert "greenlab:" in err


def test_config_file_roundtrip(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model = bilaplace\n"
                   "# a comment line\n"
                   "tol-quad = 1e-9\n", encoding="ascii")
    rc, out, _ = run_cli(capsys, "eval", "--config", str(cfg),
                         "--kernel", "h", "--x", "0.25", "--y", "0.5")
    assert rc == 0
    assert "# model = bilaplace" in out
    assert "# tol-quad = 1e-09" in out
    value = float(data_rows(out)[1][2])
    assert value == pytest.approx(oracles.bilaplace_h(0.25, 0.5), abs=1e-9)


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model = interval\nspeed = 11\n", encoding="ascii")
    with pytest.raises(ConfigError) as info:
        load_config(str(cfg))
    assert ":2:" in str(info.value)
    assert "speed" in str(info.value)


def test_unreadable_config_file_is_refused(tmp_path):
    missing = tmp_path / "absent.cfg"
    with pytest.raises(ConfigError) as info:
        load_config(str(missing))
    assert f"cannot read config file {missing}" in str(info.value)


def test_config_line_without_key_value_is_refused(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model = interval\nseed 3\n", encoding="ascii")
    with pytest.raises(ConfigError) as info:
        load_config(str(cfg))
    assert str(info.value) == (f"{cfg}:2: expected 'key = value', "
                               "got 'seed 3'")


def test_config_value_that_does_not_parse_names_its_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tol-quad = tight\n", encoding="ascii")
    rc, out, err = run_cli(capsys, "eval", "--config", str(cfg),
                           "--kernel", "h", "--x", "0.3", "--y", "0.7")
    assert rc == 2 and out == ""
    assert err == "greenlab: could not read tol_quad = 'tight'\n"


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model = interval\n", encoding="ascii")
    rc, out, _ = run_cli(capsys, "eval", "--config", str(cfg),
                         "--model", "bilaplace", "--kernel", "h",
                         "--x", "0.5", "--y", "0.5")
    assert rc == 0
    assert "# model = bilaplace" in out


def test_eval_output_is_deterministic(tmp_path, capsys):
    files = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        rc, _, _ = run_cli(capsys, "eval", "--model", "interval",
                           "--kernel", "v", "--grid", "5",
                           "--out", str(path))
        assert rc == 0
        files.append(path.read_bytes())
    assert files[0] == files[1]


def test_report_writes_both_formats(tmp_path, capsys):
    rc, out, _ = run_cli(capsys, "report", "symmetry",
                         "--out", str(tmp_path))
    assert rc == 0
    csv = tmp_path / "symmetry.csv"
    dat = tmp_path / "symmetry.dat"
    assert csv.exists() and dat.exists()
    assert str(csv) in out and str(dat) in out


def test_report_rejects_unknown_target(capsys):
    rc, _, err = run_cli(capsys, "report", "entropy")
    assert rc == 2
    assert "unknown report" in err


# The options each subcommand reads, besides --config.
READS = {"eval": {"--model", "--kernel", "--x", "--y", "--tol-quad", "--grid",
                  "--out"},
         "verify": {"--seed"},
         "report": {"--out", "--seed"}}
REMOVED = {"eval": ("--seed", "--dist", "--tol-identity", "--tol-fd"),
           "verify": ("--model", "--tol-quad", "--grid", "--out",
                      "--tol-identity", "--tol-fd"),
           "report": ("--model", "--tol-quad", "--grid", "--tol-identity",
                      "--tol-fd")}
TOOL = f"# tool = greenlab {__version__}"
POSITIONAL = {"eval": [], "verify": ["newtonian"], "report": ["symmetry"]}


def test_options_a_subcommand_does_not_read_are_refused(capsys):
    for command, flags in REMOVED.items():
        for flag in flags:
            with pytest.raises(SystemExit) as info:
                main([command, *POSITIONAL[command], flag, "1"])
            assert info.value.code == 2
            assert capsys.readouterr().out == ""


def test_config_keys_a_subcommand_does_not_read_are_refused(tmp_path,
                                                            capsys):
    cfg = tmp_path / "run.cfg"
    for command, key in (("eval", "seed"), ("verify", "model"),
                         ("report", "tol-quad")):
        cfg.write_text(f"{key} = 1\n", encoding="ascii")
        rc, out, err = run_cli(capsys, command, *POSITIONAL[command],
                               "--config", str(cfg))
        assert rc == 2
        assert out == ""
        assert err.startswith("greenlab: ")
        assert f"{command} does not read '{key.replace('-', '_')}'" in err


def test_help_lists_exactly_the_options_read(capsys):
    for command, flags in READS.items():
        with pytest.raises(SystemExit) as info:
            main([command, "--help"])
        assert info.value.code == 0
        listed = set(re.findall(r"(?m)^  (?:-h, )?(--[a-z-]+)",
                                capsys.readouterr().out))
        assert listed == flags | {"--config", "--help"}


def test_headers_echo_only_applied_settings(tmp_path, capsys):
    rc, out, _ = run_cli(capsys, "verify", "newtonian", "--seed", "2")
    assert rc == 0
    assert out.splitlines()[:5] == [TOOL, "# command = verify",
                                    "# suite = newtonian", "# seed = 2",
                                    "check,margin,verdict"]
    rc, _, _ = run_cli(capsys, "report", "obstruction", "--out",
                       str(tmp_path))
    assert rc == 0
    for name in ("obstruction.csv", "obstruction.dat"):
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[:3] == [TOOL, "# report = obstruction", "# seed = 0"]
        assert lines[3].startswith("# note: ")
    rc, out, _ = run_cli(capsys, "eval", "--kernel", "g1", "--x", "0.5",
                         "--y", "0.5")
    assert out.splitlines()[:5] == [
        TOOL, "# command = eval", "# kernel = g1", "# model = interval",
        "x,y,value,bound_or_exponent"]
    # the quadrature tolerance is echoed by the kernels that apply it
    for kernel, query in (("h", ("--x", "0.5", "--y", "0.25")),
                          ("v", ("--x", "0.5")), ("vstar", ("--grid", "3"))):
        rc, out, _ = run_cli(capsys, "eval", "--kernel", kernel, *query)
        assert rc == 0
        assert out.splitlines()[4] == "# tol-quad = 1e-08"


def test_bad_number_names_its_key(capsys):
    rc, out, err = run_cli(capsys, "eval", "--kernel", "h", "--x", "0.3",
                           "--y", "0.7", "--tol-quad", "tight")
    assert rc == 2
    assert out == ""
    assert err == "greenlab: could not read tol_quad = 'tight'\n"


def test_eval_refuses_query_options_its_kernel_does_not_read(capsys):
    for argv in (
            ("--model", "interval", "--kernel", "v", "--x", "0.3",
             "--y", "0.9"),
            ("--model", "interval", "--kernel", "vstar", "--y", "0.9"),
            ("--model", "newtonian5", "--kernel", "v", "--y", "1"),
            ("--model", "newtonian5", "--kernel", "vstar", "--x", "0",
             "--y", "1")):
        rc, out, err = run_cli(capsys, "eval", *argv)
        assert rc == 2
        assert out == ""
        assert err.startswith("greenlab: ") and "--y" in err


def test_eval_refuses_settings_its_kernel_does_not_apply(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    for query, setting in (
            (("--kernel", "g1", "--x", "0.5", "--y", "0.5"), "tol-quad=1e-3"),
            (("--kernel", "g2", "--x", "0.5", "--y", "0.5"), "tol-quad=1e-3"),
            (("--model", "newtonian5", "--kernel", "g1", "--x", "0",
              "--y", "1"), "tol-quad=1e-3"),
            (("--kernel", "g1", "--x", "0.5", "--y", "0.5"), "grid=3"),
            (("--kernel", "g2", "--x", "0.5", "--y", "0.5"), "grid=3"),
            (("--kernel", "h", "--x", "0.3", "--y", "0.7"), "grid=3"),
            (("--kernel", "v", "--x", "0.5"), "grid=3"),
            (("--kernel", "vstar", "--x", "0.5"), "grid=3"),
            (("--model", "newtonian5", "--kernel", "v"), "grid=3")):
        key, value = setting.split("=")
        cfg.write_text(f"{key} = {value}\n", encoding="ascii")
        for extra in (("--" + key, value), ("--config", str(cfg))):
            rc, out, err = run_cli(capsys, "eval", *query, *extra)
            assert rc == 2
            assert out == ""
            assert err.startswith("greenlab: ") and f"--{key}" in err
    # where they apply, both settings are read from either source
    cfg.write_text("grid = 3\ntol-quad = 1e-9\n", encoding="ascii")
    for extra in (("--grid", "3", "--tol-quad", "1e-9"),
                  ("--config", str(cfg))):
        rc, out, _ = run_cli(capsys, "eval", "--kernel", "v", *extra)
        assert rc == 0
        assert "# tol-quad = 1e-09" in out
        assert len(data_rows(out)) == 4


def test_an_unknown_kernel_and_an_empty_grid_are_refused():
    for argv, message in (
            (["--kernel", "k9"],
             "unknown kernel 'k9'; choose from g1, g2, h, v, vstar"),
            (["--kernel", "v", "--grid", "0"],
             "grid must name at least one point, got 0")):
        with pytest.raises(ConfigError) as info:
            build_config(make_parser().parse_args(["eval", *argv]))
        assert str(info.value) == message


def test_outputs_that_cannot_be_written_are_refused(tmp_path):
    missing = tmp_path / "absent" / "out.csv"
    with pytest.raises(ConfigError) as info:
        cmd_eval(RunConfig(kernel="g1", x=(0.3,), y=(0.7,), out=str(missing)))
    assert str(info.value).startswith(f"cannot write {missing}: ")
    # a directory cannot be made below a file
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="ascii")
    with pytest.raises(ConfigError) as info:
        cmd_report(RunConfig(out=str(blocker / "reports")), "symmetry")
    assert str(info.value).startswith(
        f"cannot write into {blocker / 'reports'}: ")


def test_eval_v_on_a_radial_model_without_points_reads_the_origin(capsys):
    rc, out, _ = run_cli(capsys, "eval", "--model", "newtonian5",
                         "--kernel", "v")
    assert rc == 0
    assert data_rows(out)[1:] == [["0", "INF", "1"]]
