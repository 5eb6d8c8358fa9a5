"""Command-line front end: config resolution, CSV artifacts, exit codes.

Runs the entry point in-process against temp directories; one subprocess
test covers the installed module entry point.
"""
import csv
import importlib.util
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import shockstep.cli
from shockstep.cli import load_config, main as cli_main

STEPS_HEADER = ["t_n", "k_n", "cfl_n", "mode", "eta_k_bar_n", "eta_h_bar_n"]


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# ----------------------------------------------------------- config layer

def test_defaults_resolve():
    cfg = load_config()
    assert cfg["case"] == "benchmark"
    assert cfg["level"] == 0
    assert cfg["cfl"] == 0.8
    assert cfg["levels"] is None
    assert cfg["dry_run"] is False


def test_scalar_and_list_parsing():
    cfg = load_config(None, ["factor=0.5", "levels=0,1,4"])
    assert cfg["factor"] == 0.5
    assert cfg["levels"] == [0, 1, 4]
    cfg = load_config(None, ["factor=0.5,0.25"])
    assert cfg["factor"] == [0.5, 0.25]
    cfg = load_config(None, ["tol_total=none"])
    assert cfg["tol_total"] is None


@pytest.mark.parametrize("override", [
    "bogus=1", "dry_run=maybe", "mode=semi", "level=abc", "levels",
])
def test_bad_overrides_raise(override):
    from shockstep.cli import ConfigError
    with pytest.raises(ConfigError):
        load_config(None, [override])


def test_config_file_with_comments(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(
        "# uniform benchmark run\n"
        "level = 1\n"
        "cfl = 0.5   # conservative\n"
        "\n"
        "tol_k = none\n")
    cfg = load_config(str(cfgfile))
    assert cfg["level"] == 1
    assert cfg["cfl"] == 0.5
    assert cfg["tol_k"] is None


def test_config_file_rejects_bare_tokens(tmp_path):
    from shockstep.cli import ConfigError
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("level\n")
    with pytest.raises(ConfigError, match="expected key=value"):
        load_config(str(cfgfile))


def test_set_wins_over_file(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("level = 1\n")
    cfg = load_config(str(cfgfile), ["level=2"])
    assert cfg["level"] == 2


# ---------------------------------------------------------------- dry run

def test_dry_run_echoes_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "never"
    rc = cli_main(["run-uniform", "--set", "dry_run=true",
                   "--set", "level=3", "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "level = 3" in stdout
    assert "case = benchmark" in stdout
    assert "cfl = 0.8" in stdout
    assert not out.exists()


# -------------------------------------------------------------- exit codes

def test_unknown_key_exits_2(tmp_path, capsys):
    rc = cli_main(["run-uniform", "--set", "bogus=1", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "unknown config key" in err


def test_missing_config_file_exits_2(tmp_path, capsys):
    rc = cli_main(["run-uniform", str(tmp_path / "absent.cfg")])
    assert rc == 2
    assert "cannot read config" in capsys.readouterr().err


def test_solver_blowup_exits_3(tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rc = cli_main(["run-uniform", "--set", "cfl=50",
                       "--set", "ref_level=2", "--out", str(tmp_path)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "solver failure" in err
    assert "interval" in err


@pytest.mark.parametrize("command", ["run-uniform", "run-adaptive",
                                     "run-loop", "emit-plots"])
def test_invalid_case_exits_3_before_solving(command, tmp_path, capsys):
    # the overdriven inflow turns subsonic; validate-case rejects it too
    rc = cli_main([command, "--set", "levels=0", "--set", "ref_level=2",
                   "--set", "perturbation_scale=80", "--out", str(tmp_path)])
    assert rc == 3
    assert "min_inflow_value = -0.509716223179" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# ------------------------------------------------------------ run-uniform

def test_run_uniform_single_level(tmp_path, capsys):
    out = tmp_path / "u0"
    rc = cli_main(["run-uniform", "--set", "ref_level=2", "--out", str(out)])
    assert rc == 0
    assert "level 0: N=1238" in capsys.readouterr().out

    header, rows = _read_csv(out / "steps.csv")
    assert header == STEPS_HEADER
    assert len(rows) == 1238
    assert all(r[3] == "explicit" for r in rows)
    assert all(float(r[2]) <= 0.80001 for r in rows)
    assert float(rows[-1][0]) == 48.0
    assert abs(sum(float(r[1]) for r in rows) - 48.0) < 1e-3

    header, rows = _read_csv(out / "summary.csv")
    assert header == ["level", "dx", "dt", "eta_k_bar", "eta_h_bar",
                      "eta_k", "eta_h", "J_h", "theta"]
    assert len(rows) == 1
    row = rows[0]
    assert row[0] == "0"
    assert row[1] == "5.00000e-02"
    assert float(row[3]) == pytest.approx(1.244743e-3, rel=1e-5)
    assert float(row[4]) == pytest.approx(7.241086e-2, rel=1e-5)
    assert float(row[7]) == pytest.approx(1.69273, abs=1e-4)
    assert 1.5 < float(row[8]) < 3.0


def test_run_uniform_multi_level(tmp_path):
    out = tmp_path / "multi"
    rc = cli_main(["run-uniform", "--set", "levels=0,1",
                   "--set", "ref_level=2", "--out", str(out)])
    assert rc == 0
    assert not (out / "steps.csv").exists()
    _, rows0 = _read_csv(out / "steps_L0.csv")
    _, rows1 = _read_csv(out / "steps_L1.csv")
    assert len(rows0) == 1238
    assert len(rows1) == 2476
    _, srows = _read_csv(out / "summary.csv")
    assert [r[0] for r in srows] == ["0", "1"]


def test_run_uniform_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        rc = cli_main(["run-uniform", "--set", "ref_level=2", "--out", str(out)])
        assert rc == 0
    for name in ("steps.csv", "summary.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


# ----------------------------------------------------------- run-adaptive

def test_run_adaptive_chain(tmp_path, capsys):
    out = tmp_path / "chain"
    rc = cli_main(["run-adaptive", "--set", "levels=0,1",
                   "--set", "rule=match_previous", "--set", "strategy=imex",
                   "--set", "ref_level=2", "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "run 1 (level 1): N=529 N_explicit=516" in stdout

    _, rows0 = _read_csv(out / "steps_0.csv")
    _, rows1 = _read_csv(out / "steps_1.csv")
    assert len(rows0) == 1238
    assert len(rows1) == 529
    modes = {r[3] for r in rows1}
    assert modes == {"explicit", "implicit"}

    header, srows = _read_csv(out / "summary.csv")
    assert header[-2:] == ["N", "N_explicit"]
    assert len(srows) == 2
    assert srows[1][-2:] == ["529", "516"]


def test_run_adaptive_requires_levels(tmp_path, capsys):
    rc = cli_main(["run-adaptive", "--out", str(tmp_path)])
    assert rc == 2
    assert "levels schedule" in capsys.readouterr().err


def test_run_loop_stops_at_total_tolerance(tmp_path):
    out = tmp_path / "loop"
    rc = cli_main(["run-loop", "--set", "levels=0,1",
                   "--set", "tol_total=1e6", "--set", "ref_level=2",
                   "--out", str(out)])
    assert rc == 0
    _, srows = _read_csv(out / "summary.csv")
    assert len(srows) == 1
    assert (out / "steps_0.csv").exists()
    assert not (out / "steps_1.csv").exists()


# ------------------------------------------------------------- emit-plots

def test_emit_plots_uniform(tmp_path):
    out = tmp_path / "plots"
    rc = cli_main(["emit-plots", "--out", str(out)])
    assert rc == 0
    header, rows = _read_csv(out / "density_vs_time_0.csv")
    assert header == ["t_n", "eta_k_bar_n"]
    assert len(rows) == 1238
    header, rows = _read_csv(out / "cfl_vs_time_0.csv")
    assert header == ["t_n", "cfl_n"]
    assert len(rows) == 1238
    assert float(rows[-1][0]) == 48.0


def test_emit_plots_adaptive(tmp_path):
    out = tmp_path / "plots_a"
    rc = cli_main(["emit-plots", "--set", "experiment=adaptive",
                   "--set", "levels=0", "--out", str(out)])
    assert rc == 0
    assert (out / "density_vs_time_0.csv").exists()
    assert (out / "cfl_vs_time_0.csv").exists()


# ---------------------------------------------------------- validate-case

def test_validate_case_ok(capsys):
    rc = cli_main(["validate-case"])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "ok = True" in stdout
    assert "monotone_departure = True" in stdout
    assert "0.981128" in stdout


def test_validate_case_flags_overdriven_perturbation(capsys):
    rc = cli_main(["validate-case", "--set", "perturbation_scale=100"])
    assert rc == 3
    assert "ok = False" in capsys.readouterr().out


# --------------------------------------------------------------- plumbing

def test_out_flag_overrides_config_key(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    shadow = tmp_path / "shadow"
    real = tmp_path / "real"
    cfgfile.write_text(f"out_dir = {shadow}\nref_level = 2\n")
    rc = cli_main(["run-uniform", str(cfgfile), "--out", str(real)])
    assert rc == 0
    assert (real / "steps.csv").exists()
    assert not shadow.exists()


def test_module_entry_point_subprocess():
    # the child imports the same package as this session, installed or not
    src = str(Path(shockstep.cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "shockstep.cli",
                           "validate-case"],
                          capture_output=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert b"ok = True" in proc.stdout


# ---------------------------------------------------------- bench contract

def test_bench_tracer_finds_every_name_it_patches():
    # bench/run.py --trace 1 wraps functions by name in shockstep.cli and
    # shockstep.adaptivity; a name dropped here would break the traced run
    path = Path(__file__).resolve().parents[1] / "bench" / "run.py"
    spec = importlib.util.spec_from_file_location("shockstep_bench_run", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    original = shockstep.cli.run_forward
    tracer = bench.Tracer()
    try:
        bench.install_spans(tracer)
        assert shockstep.cli.run_forward is not original
    finally:
        tracer.restore()
    assert shockstep.cli.run_forward is original
