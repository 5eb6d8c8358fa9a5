"""Batch front-end.

Subcommands run the uniform and adaptive experiments described by a plain
key=value config file (CLI overrides via --set) and write reproducible CSV
artifacts.  Every solving command walks one stream of level reports, and
`_COMMANDS` alone decides which command honors tol_total: run-loop.  Exit
codes: 0 success, 2 config error, 3 solver failure or out of memory.
"""
from __future__ import annotations

import argparse
import math
import os
import sys

from . import _core
from .adaptivity import (AdaptationConfig, LevelReport, adaptive_loop,
                         solve_level)
# run_forward, build_coefficient_field, solve_dual_gradient and
# assemble_breakdown are unused here: bench/run.py --trace 1 patches them
# in this namespace.
from .dual import build_coefficient_field, solve_dual_gradient  # noqa: F401
from .estimator import (assemble_breakdown,  # noqa: F401
                        efficiency_index, reference_functional)
from .forward import (SolverFailure, run_forward,  # noqa: F401
                      uniform_cfl_partition)
from .grid import EXPLICIT, IMPLICIT, _deepest_level, build_spatial_grid
from .testcase import PerturbedShockCase, validate_characteristics


class ConfigError(ValueError):
    pass


def _parse_bool(s: str) -> bool:
    v = s.strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"not a boolean: {s!r}")


def _parse_int_list(s: str):
    return [int(p) for p in s.split(",") if p.strip() != ""]


def _parse_float_list(s: str):
    vals = [float(p) for p in s.split(",") if p.strip() != ""]
    return vals[0] if len(vals) == 1 else vals


def _parse_choice(*allowed):
    def parse(s: str) -> str:
        if s not in allowed:
            raise ConfigError(f"expected one of {allowed}, got {s!r}")
        return s
    return parse


def _parse_optional_float(s: str):
    if s.strip().lower() in ("", "none"):
        return None
    return float(s)


# key -> (parser, default); resolution order: defaults, file, --set, --out
_SCHEMA = {
    "case": (_parse_choice("benchmark"), "benchmark"),
    "perturbation_scale": (float, 1.0),
    "base_cells": (int, 20),
    "level": (int, 0),
    "levels": (_parse_int_list, None),
    "mode": (_parse_choice("explicit", "implicit"), "explicit"),
    "cfl": (float, 0.8),
    "speed_basis": (_parse_choice("global", "initial"), "global"),
    "rule": (_parse_choice("match_previous", "halve", "scaled_ref"), "match_previous"),
    "factor": (_parse_float_list, None),
    "tol_k": (_parse_optional_float, None),
    "tol_total": (_parse_optional_float, None),
    "strategy": (_parse_choice("imex", "fully_implicit"), "imex"),
    "dual_cfl": (float, 0.8),
    "ref_level": (int, 6),
    "out_dir": (str, "."),
    "dry_run": (_parse_bool, False),
    "experiment": (_parse_choice("uniform", "adaptive"), "uniform"),
}


def _set_key(cfg: dict, key: str, raw: str):
    if key not in _SCHEMA:
        raise ConfigError(f"unknown config key {key!r}")
    parser, _ = _SCHEMA[key]
    try:
        cfg[key] = parser(raw)
    except ConfigError:
        raise
    except (ValueError, TypeError) as err:
        raise ConfigError(f"bad value for {key!r}: {raw!r} ({err})") from err


def load_config(path=None, overrides=()) -> dict:
    cfg = {k: d for k, (_, d) in _SCHEMA.items()}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                lines = fh.readlines()
        except OSError as err:
            raise ConfigError(f"cannot read config {path!r}: {err}") from err
        except UnicodeDecodeError as err:
            raise ConfigError(f"config {path!r} is not UTF-8 text: {err}") from err
        for ln, line in enumerate(lines, 1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{ln}: expected key=value")
            key, _, raw = stripped.partition("=")
            _set_key(cfg, key.strip(), raw.strip())
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        _set_key(cfg, key.strip(), raw.strip())
    return cfg


def _values(v) -> list:
    """A key's value as a list: none, one scalar or a comma list."""
    return [] if v is None else v if isinstance(v, list) else [v]


def _positive(x) -> bool:
    return x > 0.0 and math.isfinite(x)


def _check_ranges(cfg: dict):
    """Refuse out-of-range numeric keys before any work starts; deeper
    down they would surface as tracebacks, after seconds of solving, or
    not at all (factor = nan plans one step over [0, T])."""
    deepest = _deepest_level(max(cfg["base_cells"], 2))
    depth = f"at most {deepest} for base_cells = {cfg['base_cells']}"
    checks = (
        ("cfl", _positive(cfg["cfl"]), "finite and > 0"),
        ("dual_cfl", 0.0 < cfg["dual_cfl"] <= 1.0, "in (0, 1]"),
        ("base_cells", cfg["base_cells"] >= 2, "at least 2"),
        ("level", cfg["level"] >= 0, "non-negative"),
        ("level", cfg["level"] <= deepest, depth),
        ("levels", cfg["levels"] != [], "non-empty when set"),
        ("levels", all(lv >= 0 for lv in _values(cfg["levels"])), "non-negative"),
        ("levels", all(lv <= deepest for lv in _values(cfg["levels"])), depth),
        ("ref_level", cfg["ref_level"] >= 0, "non-negative"),
        ("ref_level", cfg["ref_level"] <= deepest, depth),
        ("perturbation_scale", math.isfinite(cfg["perturbation_scale"]), "finite"),
        ("factor", all(map(_positive, _values(cfg["factor"]))), "finite and > 0"),
        ("tol_k", all(map(_positive, _values(cfg["tol_k"]))), "finite and > 0"),
        ("tol_total", all(map(_positive, _values(cfg["tol_total"]))),
         "finite and > 0"),
    )
    for key, ok, want in checks:
        if not ok:
            raise ConfigError(f"{key} must be {want}, got {cfg[key]!r}")


def _write(path: str, header, body: bytes):
    """The header line, then `body`, in one write; a file that cannot be
    written is a config error naming it."""
    try:
        with open(path, "wb") as fh:
            fh.write((",".join(header) + "\n").encode() + body)
    except OSError as err:
        raise ConfigError(f"cannot write {path!r}: {err.strerror or err}") from err


def _write_csv(path: str, header, fmt: str, rows):
    """The header, then one line `fmt % row` per row (the summary)."""
    _write(path, header, "".join([fmt % row for row in rows]).encode())


def _write_series(path: str, header, cols, modes=None, mode_at=0):
    """The header, then the columns' `%.5e` rows as the compiled core
    formats them."""
    _write(path, header, _core.format_rows(cols, modes, mode_at))


def _write_steps(path: str, report: LevelReport):
    part = report.partition
    br = report.breakdown
    _write_series(path,
                  ("t_n", "k_n", "cfl_n", "mode", "eta_k_bar_n", "eta_h_bar_n"),
                  (part.times[1:], part.steps, report.cfl_series,
                   br.eta_k_bar_n, br.eta_h_bar_n), part.modes, mode_at=3)


def _echo_config(cfg: dict):
    for key in _SCHEMA:
        print(f"{key} = {cfg[key]}")


def _build_case(cfg: dict) -> PerturbedShockCase:
    return PerturbedShockCase(perturbation_scale=cfg["perturbation_scale"])


def _solvable_case(cfg: dict) -> PerturbedShockCase:
    """The configured case, refused before any solve when its inflow fails
    the characteristic check: the supersonic-inflow boundary treatment
    would not hold and the numbers would only look plausible."""
    case = _build_case(cfg)
    rep = validate_characteristics(case)
    if not rep.ok:
        raise SolverFailure(
            f"invalid case: min_inflow_value = {rep.min_inflow_value:.12f}, "
            f"monotone_departure = {rep.monotone_departure} (see validate-case)")
    return case


def _ensure_outdir(cfg: dict) -> str:
    out = cfg["out_dir"]
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"cannot create output directory {out!r}: {err}") from err
    return out


_SUMMARY_HEADER = ("level", "dx", "dt", "eta_k_bar", "eta_h_bar", "eta_k",
                   "eta_h", "J_h", "theta")
_SUMMARY_FMT = "%d" + ",%.5e" * 8


def _summary_row(report: LevelReport, j_ref: float, adaptive: bool):
    br = report.breakdown
    part = report.partition
    row = (report.level,) + tuple(map(float, (
        report.grid.h, part.T / part.interval_count, br.eta_k_bar,
        br.eta_h_bar, br.eta_k, br.eta_h, br.J_h,
        efficiency_index(br, j_ref))))
    if adaptive:
        row += (report.stats.N, report.stats.N_explicit)
    return row


def _reports(cfg: dict, case):
    """The experiment's level reports in order, each with its index.  A
    uniform level is solved as it is read, so one report is alive at a time
    (`enumerate` here would keep the last through the next solve); the
    adaptive chain is solved whole, stopped early at tol_total when set."""
    if cfg["experiment"] == "uniform":
        mode = EXPLICIT if cfg["mode"] == "explicit" else IMPLICIT
        levels = cfg["levels"] if cfg["levels"] is not None else [cfg["level"]]
        for i, level in enumerate(levels):
            grid = build_spatial_grid(cfg["base_cells"], level, case.domain)
            try:
                part = uniform_cfl_partition(case, grid, cfg["cfl"],
                                             cfg["speed_basis"], mode)
            except ValueError as err:
                raise ConfigError(
                    f"cfl = {cfg['cfl']!r} on level {level}: {err}") from err
            yield i, solve_level(level, grid, part, case, cfg["dual_cfl"])
        return
    if not cfg["levels"]:
        raise ConfigError("adaptive runs need a levels schedule")
    try:
        acfg = AdaptationConfig(tol_k=cfg["tol_k"], tol_total=cfg["tol_total"],
                                cfl_explicit=cfg["cfl"])
        reports = adaptive_loop(case, acfg, cfg["levels"], cfg["rule"],
                                strategy=cfg["strategy"],
                                base_cells=cfg["base_cells"],
                                speed_basis=cfg["speed_basis"],
                                factor=cfg["factor"], dual_cfl=cfg["dual_cfl"])
    except ValueError as err:
        raise ConfigError(str(err)) from err
    yield from enumerate(reports)


def run_levels(cfg: dict) -> int:
    """run-uniform, run-adaptive and run-loop: a steps CSV and a progress
    line per report, then the summary, every row against one J_ref."""
    case = _solvable_case(cfg)
    adaptive = cfg["experiment"] == "adaptive"
    rows = []
    for i, rep in _reports(cfg, case):
        if not rows:
            # after the first report, so that a run refused before it runs
            # no reference and leaves no directory behind
            j_ref = reference_functional(case, cfg["ref_level"], cfg["base_cells"])
            out = _ensure_outdir(cfg)
        rows.append(_summary_row(rep, j_ref, adaptive))
        br = rep.breakdown
        etas = f"eta_k_bar={br.eta_k_bar:.5e} eta_h_bar={br.eta_h_bar:.5e}"
        if adaptive:
            name = f"steps_{i}.csv"
            line = (f"run {i} (level {rep.level}): N={rep.stats.N} "
                    f"N_explicit={rep.stats.N_explicit} {etas}")
        else:
            name = (f"steps_L{rep.level}.csv" if len(_values(cfg["levels"])) > 1
                    else "steps.csv")
            line = f"level {rep.level}: N={rep.stats.N} {etas} J_h={br.J_h:.5e}"
        _write_steps(os.path.join(out, name), rep)
        print(line)
        del rep, br     # not held through the next level's solve
    extra = ("N", "N_explicit") if adaptive else ()
    _write_csv(os.path.join(out, "summary.csv"), _SUMMARY_HEADER + extra,
               _SUMMARY_FMT + ",%d" * len(extra) + "\n", rows)
    return 0


def emit_plot_data(report: LevelReport, out_dir: str, index: int):
    """Two-column series exactly as carried by the report, no resampling."""
    t_end = report.partition.times[1:]
    _write_series(os.path.join(out_dir, f"density_vs_time_{index}.csv"),
                  ("t_n", "eta_k_bar_n"), (t_end, report.breakdown.eta_k_bar_n))
    _write_series(os.path.join(out_dir, f"cfl_vs_time_{index}.csv"),
                  ("t_n", "cfl_n"), (t_end, report.cfl_series))


def emit_plots(cfg: dict) -> int:
    case = _solvable_case(cfg)
    for i, rep in _reports(cfg, case):
        # made only once a report exists, so a refused run leaves no
        # directory behind
        emit_plot_data(rep, _ensure_outdir(cfg), i)
        del rep     # not held through the next level's solve
    return 0


def validate_case(cfg: dict) -> int:
    case = _build_case(cfg)
    rep = validate_characteristics(case)
    print(f"monotone_departure = {rep.monotone_departure}")
    print(f"min_inflow_value = {rep.min_inflow_value:.12f}")
    print(f"min_departure_spacing = {rep.min_departure_spacing:.6e}")
    print(f"ok = {rep.ok}")
    return 0 if rep.ok else 3


# command -> (function, the config keys it fixes); of the chains only
# run-loop honors tol_total
_COMMANDS = {
    "run-uniform": (run_levels, {"experiment": "uniform"}),
    "run-adaptive": (run_levels, {"experiment": "adaptive", "tol_total": None}),
    "run-loop": (run_levels, {"experiment": "adaptive"}),
    "emit-plots": (emit_plots, {"tol_total": None}),
    "validate-case": (validate_case, {}),
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="shockstep")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("config", nargs="?", default=None,
                       help="key=value config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key")
        p.add_argument("--out", default=None, help="override out_dir")
    args = ap.parse_args(argv)
    try:
        cfg = load_config(args.config, args.set)
        if args.out is not None:
            cfg["out_dir"] = args.out
        if cfg["dry_run"]:
            _echo_config(cfg)
            return 0
        _check_ranges(cfg)
        command, fixed = _COMMANDS[args.command]
        return command({**cfg, **fixed})
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except SolverFailure as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return 3
    except MemoryError as err:
        print(f"out of memory: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
