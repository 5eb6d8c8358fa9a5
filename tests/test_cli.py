"""Command-line front end: config resolution, CSV artifacts, exit codes.

Runs the entry point in-process against temp directories; one subprocess
test covers the installed module entry point.
"""
import csv
import hashlib
import importlib.util
import os
import subprocess
import sys
import weakref
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

@pytest.mark.parametrize("command", ["run-uniform", "run-adaptive", "run-loop",
                                     "emit-plots", "validate-case"])
def test_dry_run_echoes_and_writes_nothing(command, tmp_path, capsys):
    out = tmp_path / "never"
    rc = cli_main([command, "--set", "dry_run=true",
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


def test_config_file_not_utf8_exits_2(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_bytes(b"level = 0\n# caf\xff\n")
    with pytest.raises(shockstep.cli.ConfigError, match="not UTF-8"):
        load_config(str(cfgfile))
    rc = cli_main(["run-uniform", str(cfgfile), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert f"config {str(cfgfile)!r} is not UTF-8 text" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args, name", [
    (["run-uniform", "--set", "ref_level=2"], "steps.csv"),
    (["run-uniform", "--set", "ref_level=2"], "summary.csv"),
    (["run-adaptive", "--set", "levels=0", "--set", "ref_level=2"], "steps_0.csv"),
    (["run-adaptive", "--set", "levels=0", "--set", "ref_level=2"], "summary.csv"),
    (["emit-plots"], "density_vs_time_0.csv"),
    (["emit-plots", "--set", "experiment=adaptive", "--set", "levels=0"],
     "cfl_vs_time_0.csv"),
])
def test_csv_that_cannot_be_written_exits_2_naming_it(args, name, tmp_path,
                                                      capsys):
    # a directory in the file's place refuses the write, for root too
    (tmp_path / name).mkdir()
    rc = cli_main([*args, "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"config error: cannot write {str(tmp_path / name)!r}" in err
    assert "Traceback" not in err


def test_solver_blowup_exits_3(tmp_path, capsys):
    # the refused first step leaves no output directory behind
    out = tmp_path / "out"
    rc = cli_main(["run-uniform", "--set", "cfl=50",
                   "--set", "ref_level=2", "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "solver failure" in err
    assert "interval 0" in err
    assert "explicit step at CFL 48.48 > 1" in err
    assert not out.exists()


def test_substep_count_past_a_long_exits_3_naming_it(tmp_path, capsys):
    # dual_cfl = 1e-300 is in range, and every coefficient is finite, but
    # interval 0's dual substep count does not fit a long: the refusal
    # says so, not that a coefficient is non-finite
    rc = cli_main(["run-uniform", "--set", "dual_cfl=1e-300",
                   "--set", "ref_level=0", "--out", str(tmp_path / "out")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("solver failure: dual march: interval 0 needs more "
                          "substeps than a long counts")
    assert "non-finite" not in err


def test_non_finite_dual_exits_3_in_the_words_of_the_march(tmp_path, capsys,
                                                          monkeypatch):
    # an infinite weight gradient turns w infinite in the first substep:
    # the march inside the breakdown's sweep stops in the last interval,
    # and solve_level and the CLI say so as the march alone does
    import numpy as np
    import shockstep as ss
    from oracles import w_samples
    monkeypatch.setattr(ss.PerturbedShockCase, "weight_gradient",
                        lambda self, x: np.full(np.shape(x), -np.inf))
    case = ss.PerturbedShockCase()
    grid = ss.build_spatial_grid(20, 0, case.domain)
    part = ss.uniform_cfl_partition(case, grid, 0.8)
    traj = ss.run_forward(grid, part, case)
    with pytest.raises(ss.SolverFailure) as alone:
        w_samples(ss.solve_dual_gradient(traj, case))
    text = str(alone.value)
    assert text == f"dual march non-finite in interval {part.interval_count - 1}"
    with pytest.raises(ss.SolverFailure) as level:
        ss.solve_level(0, grid, part, case, 0.8)
    assert str(level.value) == text
    rc = cli_main(["run-uniform", "--set", "levels=0", "--set", "ref_level=0",
                   "--out", str(tmp_path / "out")])
    assert rc == 3
    assert capsys.readouterr().err == f"solver failure: {text}\n"


@pytest.mark.parametrize("command", ["run-uniform", "run-adaptive",
                                     "run-loop", "emit-plots"])
def test_invalid_case_exits_3_before_solving(command, tmp_path, capsys):
    # the overdriven inflow turns subsonic; validate-case rejects it too
    rc = cli_main([command, "--set", "levels=0", "--set", "ref_level=2",
                   "--set", "perturbation_scale=80", "--out", str(tmp_path)])
    assert rc == 3
    assert "min_inflow_value = -0.509716223179" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["run-uniform", "run-adaptive",
                                     "run-loop", "emit-plots"])
@pytest.mark.parametrize("key, value", [
    ("cfl", "nan"), ("cfl", "0"), ("cfl", "-0.5"), ("dual_cfl", "2"),
    ("dual_cfl", "0"), ("base_cells", "1"), ("level", "-1"),
    ("levels", "-1"), ("levels", "0,-2"), ("ref_level", "-1"),
    ("perturbation_scale", "nan"), ("perturbation_scale", "inf"),
    ("factor", "nan"), ("factor", "0.5,-1"), ("tol_k", "nan"),
    ("tol_total", "-1"),
])
def test_out_of_range_key_exits_2_before_solving(command, key, value,
                                                 tmp_path, capsys):
    out = tmp_path / "out"
    rc = cli_main([command, "--set", "levels=0", "--set", f"{key}={value}",
                   "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert key in err
    assert not out.exists()


@pytest.mark.parametrize("command, extra", [
    ("run-uniform", []), ("run-adaptive", []), ("run-loop", []),
    ("emit-plots", ["--set", "experiment=uniform"]),
    ("emit-plots", ["--set", "experiment=adaptive"]),
])
def test_empty_levels_exits_2_before_any_output(command, extra, tmp_path,
                                                capsys):
    out = tmp_path / "out"
    rc = cli_main([command, "--set", "levels=", *extra, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "levels" in err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["run-uniform", "--set", "level=40"],
    ["emit-plots", "--set", "level=40"],
    ["run-uniform", "--set", "levels=0", "--set", "ref_level=40"],
    ["run-adaptive", "--set", "levels=0", "--set", "ref_level=40"],
    ["run-loop", "--set", "levels=0", "--set", "ref_level=40"],
    ["run-adaptive", "--set", "levels=0,40"],
])
def test_too_deep_level_exits_2_before_solving(args, tmp_path):
    # 20 * 2**36 cells are past 2**40, where the cell width underflows: the
    # whole process exits 2 without a traceback, before any output
    out = tmp_path / "out"
    src = str(Path(shockstep.cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "shockstep.cli", *args,
                           "--out", str(out)],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "at most 35 for base_cells = 20" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["run-uniform", "--set", "level=30"],
    ["run-uniform", "--set", "levels=0", "--set", "ref_level=30"],
    ["emit-plots", "--set", "level=30"],
    ["run-adaptive", "--set", "levels=0,30"],
])
def test_level_too_large_to_allocate_exits_3(args, tmp_path, capped_child):
    # level 30 passes the depth rule, but its 20 * 2**30 cells need 160 GiB
    # for the cell edges alone: under a 2 GiB address space the allocation
    # fails, and the command exits 3 with one line, before any output
    out = tmp_path / "out"
    proc = capped_child("import sys, shockstep.cli\n"
                        "sys.exit(shockstep.cli.main(sys.argv[1:]))",
                        1 << 31, *args, "--out", out)
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("out of memory: ")
    assert proc.stderr.count("\n") == 1
    assert not out.exists()


def test_failed_block_allocation_exits_3(tmp_path, capped_child):
    # level 10 (20,480 cells, 1.27 million steps) passes every check, and
    # its grid and step vectors fit a 1 GiB address space, but its
    # checkpoints (811 MB) and the march's block of BLOCK + 1 states do
    # not both fit: the forward march's allocation fails, and the command
    # exits 3 with one line, before any output
    out = tmp_path / "out"
    proc = capped_child("import sys, shockstep.cli\n"
                        "sys.exit(shockstep.cli.main(sys.argv[1:]))",
                        1 << 30, "run-uniform", "--set", "levels=10",
                        "--set", "ref_level=0", "--out", out)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("out of memory: ")
    assert proc.stderr.count("\n") == 1
    assert not out.exists()


def test_adaptive_plots_without_levels_leave_no_directory(tmp_path, capsys):
    out = tmp_path / "out"
    rc = cli_main(["emit-plots", "--set", "experiment=adaptive",
                   "--out", str(out)])
    assert rc == 2
    assert "levels schedule" in capsys.readouterr().err
    assert not out.exists()


def test_uniform_step_beyond_horizon_exits_2(tmp_path, capsys):
    # cfl = 1e4 at level 0 asks for a step longer than T
    out = tmp_path / "out"
    rc = cli_main(["run-uniform", "--set", "cfl=1e4", "--out", str(out)])
    assert rc == 2
    assert "need 0 < k <= T" in capsys.readouterr().err
    assert not out.exists()


def _run_fresh(code: str, out):
    """Run `code` in a fresh interpreter that imports this shockstep, with
    the output directory as sys.argv[1]."""
    src = str(Path(shockstep.cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, str(out)],
                          capture_output=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr.decode()
    assert (out / "steps.csv").exists()


def test_import_and_explicit_run_leave_scipy_unloaded(tmp_path):
    # scipy is only bound on the first implicit solve
    _run_fresh(
        "import sys, shockstep.cli\n"
        "assert 'scipy' not in sys.modules, 'import'\n"
        "rc = shockstep.cli.main(['run-uniform', '--set', 'levels=0',\n"
        "                         '--set', 'ref_level=2', '--out', sys.argv[1]])\n"
        "assert rc == 0, rc\n"
        "assert 'scipy' not in sys.modules, 'run-uniform'\n", tmp_path)


def test_no_cli_run_imports_scipy(tmp_path):
    # Newton's tridiagonal solve is compiled with the rest of the stepping
    # core, so implicit and mixed runs need no scipy either
    _run_fresh(
        "import sys, shockstep.cli\n"
        "for cmd, key in (('run-uniform', 'mode=implicit'),\n"
        "                 ('run-adaptive', 'levels=0,1')):\n"
        "    rc = shockstep.cli.main([cmd, '--set', key, '--set', 'ref_level=2',\n"
        "                             '--out', sys.argv[1]])\n"
        "    assert rc == 0, (cmd, rc)\n"
        "    assert 'scipy' not in sys.modules, cmd\n", tmp_path)


def test_no_cli_run_imports_numpy_ma(tmp_path):
    # the inflow table picks its nodes with a boolean mask: np.unique
    # would import numpy.ma, about 14 ms of every command
    _run_fresh(
        "import sys, shockstep.cli\n"
        "for cmd, key in (('run-uniform', 'levels=0'),\n"
        "                 ('run-adaptive', 'levels=0,1')):\n"
        "    rc = shockstep.cli.main([cmd, '--set', key, '--set', 'ref_level=2',\n"
        "                             '--out', sys.argv[1]])\n"
        "    assert rc == 0, (cmd, rc)\n"
        "    assert 'numpy.ma' not in sys.modules, cmd\n", tmp_path)


def test_no_cli_command_imports_numpy_polynomial(tmp_path):
    # the weight integrals' Gauss rule is written out as literals: importing
    # numpy.polynomial for leggauss(5) took 2.6-4 ms of every command
    _run_fresh(
        "import sys, shockstep.cli\n"
        "assert 'numpy.polynomial' not in sys.modules, 'import'\n"
        "for cmd, key in (('run-uniform', 'mode=implicit'),\n"
        "                 ('run-adaptive', 'levels=0,1'),\n"
        "                 ('run-loop', 'levels=0,1'),\n"
        "                 ('emit-plots', 'level=0'),\n"
        "                 ('validate-case', 'level=0')):\n"
        "    rc = shockstep.cli.main([cmd, '--set', key, '--set', 'ref_level=2',\n"
        "                             '--out', sys.argv[1]])\n"
        "    assert rc == 0, (cmd, rc)\n"
        "    assert 'numpy.polynomial' not in sys.modules, cmd\n", tmp_path)


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


# sha256 of every CSV, recorded before the marching kernels were last
# rewritten (the emit-plots ones before the compiled `%.5e` writer); any
# change in the numerics or the text changes at least one of them
_GOLDEN_CSV = {
    "uniform": (["run-uniform", "--set", "levels=0,1"], {
        "steps_L0.csv": "207b29b11f50c5830967f7b50abe5441e00e9eab7fb72487c4f85b4168c67b49",
        "steps_L1.csv": "e0922bfe212ea42e55687e4e976bdf9019d193d21ead3f669d7d747b29808e4c",
        "summary.csv": "356d95ae73107d5bf3cc4e220c83fd9e83dc6715d51de1cbc69698fcd90a96c0",
    }),
    "imex": (["run-adaptive", "--set", "levels=0,1"], {
        "steps_0.csv": "207b29b11f50c5830967f7b50abe5441e00e9eab7fb72487c4f85b4168c67b49",
        "steps_1.csv": "4f3022b88c3eda2171eb4426f3cef296491a4c0052047bf94023a25c69192d73",
        "summary.csv": "70324626aa51ee536e249069cc4bbabce858319173b6719c1d12518dec0d6445",
    }),
    "fully_implicit": (["run-adaptive", "--set", "levels=0,1",
                        "--set", "strategy=fully_implicit"], {
        "steps_0.csv": "207b29b11f50c5830967f7b50abe5441e00e9eab7fb72487c4f85b4168c67b49",
        "steps_1.csv": "ccc498e8df7cb39218f2acc6fd3754e67cbdbd7cfef5aa90de4fffbd5d4a85f3",
        "summary.csv": "ab23baa9112a47d083b59ce0a4ff44ddf42b65e0849e77f17c4020c47442721b",
    }),
    "plots_uniform": (["emit-plots", "--set", "experiment=uniform",
                       "--set", "levels=0,1"], {
        "density_vs_time_0.csv": "c9143632bd0b6f56e40d2c3df8e0c4a848674acf54719b4fd0b9049d253246c3",
        "density_vs_time_1.csv": "e24f022d9dd744f8524a0288926239b9d0094ae6227b263593aa50b5d723696d",
        "cfl_vs_time_0.csv": "d047115820e264256b0edebfe42ac2a79f04afea09e4f2836f27c1e97e56fb08",
        "cfl_vs_time_1.csv": "169a280e6502421976083bbb654fe8785d72539be0c526968489255dde72c057",
    }),
    "plots_adaptive": (["emit-plots", "--set", "experiment=adaptive",
                        "--set", "levels=0,1"], {
        "density_vs_time_0.csv": "c9143632bd0b6f56e40d2c3df8e0c4a848674acf54719b4fd0b9049d253246c3",
        "density_vs_time_1.csv": "3cd87a91c0a1ea511f7822c87367925dcde550bedfce5d228b25128473ddc913",
        "cfl_vs_time_0.csv": "d047115820e264256b0edebfe42ac2a79f04afea09e4f2836f27c1e97e56fb08",
        "cfl_vs_time_1.csv": "845182dd542a4d4227139f5732e0f63582d9adf50ec4530ad6bb681c8fe776eb",
    }),
}


@pytest.mark.parametrize("name", sorted(_GOLDEN_CSV))
def test_csv_outputs_bit_identical(name, tmp_path, monkeypatch, case):
    args, want = _GOLDEN_CSV[name]
    # the session-scoped `case` fixture has the default scale and an
    # already built inflow table, which test_testcase.py pins bit for bit
    assert case.perturbation_scale == load_config()["perturbation_scale"]
    monkeypatch.setattr(shockstep.cli, "_build_case", lambda cfg: case)
    rc = cli_main(args + ["--set", "ref_level=2", "--out", str(tmp_path)])
    assert rc == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in tmp_path.glob("*.csv")}
    assert got == want


@pytest.mark.parametrize("command,key,rc,runs", [
    ("run-uniform", "cfl=0.8", 0, 1),
    ("run-adaptive", "cfl=0.8", 0, 1),
    ("run-loop", "cfl=0.8", 0, 1),
    # plots carry no theta, so no reference march is paid for
    ("emit-plots", "cfl=0.8", 0, 0),
    # refused on its first level: no reference march is paid for
    ("run-uniform", "cfl=1e4", 2, 0),
    # refused before the base level is solved: no factor for level 1 alone
    ("run-adaptive", "factor=1,2", 2, 0),
])
def test_one_reference_run_per_command(tmp_path, monkeypatch, command, key,
                                       rc, runs):
    # every summary row shares one J_ref, computed once per command
    calls = []
    ref = shockstep.cli.reference_functional

    def counted(*args, **kwargs):
        calls.append(args)
        return ref(*args, **kwargs)

    monkeypatch.setattr(shockstep.cli, "reference_functional", counted)
    out = tmp_path / "out"
    assert cli_main([command, "--set", "levels=0,1", "--set", key,
                     "--set", "ref_level=2", "--out", str(out)]) == rc
    assert len(calls) == runs
    # a refused run leaves no directory behind
    assert out.exists() == (rc == 0)
    if rc == 0 and command != "emit-plots":
        _, rows = _read_csv(out / "summary.csv")
        assert len(rows) == 2


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


@pytest.mark.parametrize("keys", [
    ["levels=0,5", "rule=scaled_ref", "factor=0.0625"],
    ["levels=0,1,2,3,4,5"],
], ids=["scaled_ref", "match_previous"])
def test_level_5_chain_runs_past_the_newton_roundoff_floor(keys, tmp_path,
                                                           capsys):
    # at level 5 lam reaches the thousands and rounding in lam (F[1:] -
    # F[:-1]) exceeds the absolute Newton tolerance: without the floor
    # stop these runs exit 3, stalled at residuals 1.539e-12 and 1.633e-12
    args = ["run-adaptive", "--set", "ref_level=4", "--out", str(tmp_path)]
    rc = cli_main(args + [a for key in keys for a in ("--set", key)])
    assert rc == 0, capsys.readouterr().err
    _, srows = _read_csv(tmp_path / "summary.csv")
    assert srows[-1][0] == "5"


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


@pytest.mark.parametrize("args, name", [
    (["run-adaptive"], "steps_1.csv"),
    (["emit-plots", "--set", "experiment=adaptive"], "density_vs_time_1.csv"),
], ids=["run-adaptive", "emit-plots"])
def test_only_run_loop_honors_total_tolerance(args, name, tmp_path):
    # the tolerance that stops run-loop after its base level above
    rc = cli_main(args + ["--set", "levels=0,1", "--set", "tol_total=1e6",
                          "--set", "ref_level=2", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / name).exists()


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


@pytest.mark.parametrize("command, writer, files", [
    ("emit-plots", "emit_plot_data", 6),
    # three steps CSVs and the summary
    ("run-uniform", "_write_steps", 4),
], ids=["emit-plots", "run-uniform"])
def test_uniform_levels_hold_one_report_at_a_time(command, writer, files,
                                                  tmp_path, monkeypatch, case):
    # each level's CSVs are written, and its report dropped, before the
    # next level is solved
    reports, alive_at_solve, alive_at_write = [], [], []
    solve = shockstep.cli.solve_level
    write = getattr(shockstep.cli, writer)

    def alive():
        return sum(r() is not None for r in reports)

    def tracked_solve(*args):
        alive_at_solve.append(alive())
        rep = solve(*args)
        reports.append(weakref.ref(rep))
        return rep

    def tracked_write(*args):
        alive_at_write.append(alive())
        write(*args)

    monkeypatch.setattr(shockstep.cli, "_build_case", lambda cfg: case)
    monkeypatch.setattr(shockstep.cli, "solve_level", tracked_solve)
    monkeypatch.setattr(shockstep.cli, writer, tracked_write)
    rc = cli_main([command, "--set", "levels=0,1,2", "--set", "ref_level=2",
                   "--out", str(tmp_path)])
    assert rc == 0
    assert alive_at_solve == [0, 0, 0]
    assert alive_at_write == [1, 1, 1]
    assert len(list(tmp_path.glob("*.csv"))) == files


def test_refused_uniform_plots_leave_no_directory(tmp_path, capsys):
    out = tmp_path / "out"
    rc = cli_main(["emit-plots", "--set", "cfl=1e4", "--out", str(out)])
    assert rc == 2
    assert "need 0 < k <= T" in capsys.readouterr().err
    assert not out.exists()


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


def test_every_command_and_config_key_is_documented():
    # a command or key added without a README entry fails here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    names = [*shockstep.cli._COMMANDS, *shockstep.cli._SCHEMA]
    assert [n for n in names if f"`{n}`" not in readme] == []


# ---------------------------------------------------------- bench contract

@pytest.mark.parametrize("args, counted", [
    # None: the benchmark's own smoke config, run-uniform at level 0
    (None, ("forward.steps_explicit", "dual.substeps", "estimator.ref_steps")),
    # a planned chain: the planner's stats, Newton and the loop span
    (["run-adaptive", "--set", "levels=0,1", "--set", "strategy=fully_implicit",
      "--set", "ref_level=2"], ("adaptivity.plan_steps", "forward.newton_iters")),
], ids=["smoke", "fully_implicit_chain"])
def test_bench_tracer_finds_every_name_it_patches(args, counted, tmp_path,
                                                  monkeypatch, case):
    # bench/run.py --trace 1 wraps functions by name in shockstep.cli and
    # shockstep.adaptivity and reads what they return; a name dropped or a
    # field renamed here would break the traced run.  Same sequence as
    # run_traced, with the session's case.
    path = Path(__file__).resolve().parents[1] / "bench" / "run.py"
    spec = importlib.util.spec_from_file_location("shockstep_bench_run", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    monkeypatch.setattr(shockstep.cli, "_build_case", lambda cfg: case)
    original = shockstep.cli.run_forward
    tracer = bench.Tracer()
    try:
        bench.install_spans(tracer)
        assert shockstep.cli.run_forward is not original
        rc = tracer.call("cli.main", shockstep.cli.main,
                         (args or bench.SMOKE) + ["--out", str(tmp_path)])
    finally:
        tracer.restore()
    assert shockstep.cli.run_forward is original
    assert rc == 0
    m = bench.count_pass(tracer, tracer.self_times())
    for name in counted:
        assert m[name][0] > 0, name
