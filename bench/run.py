"""shockstep benchmark: wall time, set-up time, memory and accuracy of CLI runs.

Run from the repository root:

    python3 bench/run.py --workload uniform_ladder --seed 0 --seconds 30 --trace 0

--trace 0 is a closed loop with one client: each repeat spawns one fresh
CLI process (never two at once, never one process for two repeats, because
the reference functional is memoized per process) and times it from spawn
to exit.  Repeats continue while another one is predicted to fit in
--seconds; there is always at least one.  Before them, a few processes that
only import the CLI add set-up samples.

--trace 1 runs one untraced child for comparison, then runs
shockstep.cli.main in this process with spans around the public functions
at the names where shockstep.cli and shockstep.adaptivity call them, and
reports per-layer self times and counts.

Every run checks the exit code and the sha256 of every CSV written against
bench/golden.json.  The workloads are fixed configurations with no random
input, so --seed only labels the run.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
See bench/NOTES.md for the workloads and the layer map.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import inspect
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# reference_functional(PerturbedShockCase(), 6, 20), frozen with the goldens
J_REF6 = 1.7282444372004822

WORKLOADS = {
    "uniform_ladder": ["run-uniform", "--set", "levels=0,1,2,3,4"],
    "adaptive_imex": ["run-adaptive", "--set", "levels=0,4",
                      "--set", "rule=scaled_ref", "--set", "factor=0.0625",
                      "--set", "ref_level=4"],
    "implicit_chain": ["run-adaptive", "--set", "levels=0,1,2,3,4",
                       "--set", "strategy=fully_implicit",
                       "--set", "ref_level=4"],
}

# levels=0 run for selftest.py; not a benchmark workload
SMOKE = ["run-uniform", "--set", "levels=0", "--set", "ref_level=2"]

SETUP_PROBES = 5

# Child process: report through the inherited pipe when `import
# shockstep.cli` has completed, then run the CLI entry point (the function
# behind both `python -m shockstep.cli` and the `shockstep` script).
_CHILD = """\
import os, sys, time
import shockstep.cli
fd = int(sys.argv[1])
os.write(fd, str(time.monotonic_ns()).encode())
os.close(fd)
if len(sys.argv) > 2:
    sys.exit(shockstep.cli.main(sys.argv[2:]))
"""


def load_golden() -> dict:
    with open(BENCH / "golden.json") as fh:
        return json.load(fh)


def environment() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "missing"

    return {"nproc": os.cpu_count(), "cpu": model,
            "python": sys.version.split()[0],
            "numpy": version("numpy"), "scipy": version("scipy")}


def spawn(cli_args: list, out_dir: Path | None) -> dict:
    """One child from spawn to exit: wall and set-up seconds, peak RSS,
    exit code and stderr."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    with tempfile.TemporaryFile(dir=WORK) as err:
        r, w = os.pipe()
        with os.fdopen(r, "rb") as pipe:
            try:
                argv = [sys.executable, "-c", _CHILD, str(w), *cli_args]
                if out_dir is not None:
                    argv += ["--out", str(out_dir)]
                t0 = time.monotonic_ns()
                proc = subprocess.Popen(argv, pass_fds=(w,), cwd=ROOT, env=env,
                                        stdin=subprocess.DEVNULL,
                                        stdout=subprocess.DEVNULL, stderr=err)
            finally:
                os.close(w)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            t1 = time.monotonic_ns()
            proc.returncode = os.waitstatus_to_exitcode(status)
            stamp = pipe.read()
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    return {"wall_s": (t1 - t0) * 1e-9,
            "setup_s": (int(stamp) - t0) * 1e-9 if stamp else None,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "exit_code": proc.returncode, "stderr": stderr}


def check_outputs(out_dir: Path, exit_code: int, golden: dict) -> list:
    """Differences from the golden exit code and CSV hashes; empty when none."""
    problems = []
    if exit_code != golden["exit_code"]:
        problems.append(f"exit code {exit_code}, expected {golden['exit_code']}")
    written = sorted(p.name for p in out_dir.glob("*.csv"))
    if written != sorted(golden["csv"]):
        problems.append(f"wrote {written}, expected {sorted(golden['csv'])}")
    for name in written:
        want = golden["csv"].get(name)
        got = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        if want is not None and got != want:
            problems.append(f"{name}: sha256 {got[:12]}, expected {want[:12]}")
    return problems


def functional_error(out_dir: Path) -> float:
    """|J_h of the last summary.csv row - J_ref6|, at CSV precision."""
    lines = (out_dir / "summary.csv").read_text().splitlines()
    header = lines[0].split(",")
    return abs(float(lines[-1].split(",")[header.index("J_h")]) - J_REF6)


def repeat(cli_args: list, golden: dict) -> dict:
    """One CLI run in a fresh process and empty output directory."""
    out_dir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        sample = spawn(cli_args, out_dir)
        sample["problems"] = check_outputs(out_dir, sample["exit_code"], golden)
        if sample["setup_s"] is None:
            sample["problems"].append("child never finished importing shockstep.cli")
        sample["J_err"] = None if sample["problems"] else functional_error(out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return sample


def report_failure(sample: dict):
    for p in sample["problems"]:
        print(f"  FAILED: {p}")
    if sample["stderr"].strip():
        print("  stderr: " + sample["stderr"].strip().replace("\n", "\n  "))


def run_untraced(cli_args: list, golden: dict, seconds: float) -> dict:
    setup = []
    for i in range(SETUP_PROBES + 1):
        probe = spawn([], None)
        if probe["exit_code"] != 0 or probe["setup_s"] is None:
            raise RuntimeError("import probe failed:\n" + probe["stderr"])
        if i:  # the first probe may compile bytecode; it is not timed
            setup.append(probe["setup_s"])
    samples = []
    start = time.monotonic()
    while True:
        s = repeat(cli_args, golden)
        samples.append(s)
        print(f"repeat {len(samples)}: wall_s={s['wall_s']:.4f} "
              f"setup_s={s['setup_s']} peak_rss_mb={s['peak_rss_mb']:.1f} "
              f"exit={s['exit_code']} outputs={'ok' if not s['problems'] else 'BAD'}")
        report_failure(s)
        if time.monotonic() - start + s["wall_s"] > seconds:
            break
    setup += [s["setup_s"] for s in samples if s["setup_s"] is not None]
    failed = sum(1 for s in samples if s["problems"])
    errs = [s["J_err"] for s in samples if s["J_err"] is not None]
    metrics = {
        "wall_s": (statistics.median(s["wall_s"] for s in samples), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(s["peak_rss_mb"] for s in samples), "MiB"),
        # -1 marks a run with no valid output; such a run is already failed
        "J_err": (errs[-1] if errs else -1.0, "1"),
    }
    print(f"samples: {len(samples)} repeats, {len(setup)} set-up samples "
          f"({SETUP_PROBES} import-only probes)")
    return {"attempted": len(samples), "failed": failed, "metrics": metrics}


class Tracer:
    """In-memory spans [name, start, end, parent index] around patched
    functions, plus (span index, record) pairs holding what the counting
    pass needs from each wrapped call."""

    def __init__(self):
        self.spans: list = []
        self.kept: dict = {}
        self._stack: list = []
        self._patched: list = []

    def call(self, name, fn, *args, **kwargs):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else None])
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str, keep=None):
        original = vars(owner)[attr]
        is_cm = isinstance(original, classmethod)
        fn = original.__func__ if is_cm else original
        sig = inspect.signature(fn)
        tracer = self

        def traced(*args, **kwargs):
            idx = len(tracer.spans)
            out = tracer.call(name, fn, *args, **kwargs)
            if keep is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                tracer.kept.setdefault(name, []).append(
                    (idx, keep(out, bound.arguments)))
            return out

        setattr(owner, attr, classmethod(traced) if is_cm else traced)
        self._patched.append((owner, attr, original))

    def restore(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def self_times(self) -> list:
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        return [t1 - t0 - c for (_, t0, t1, _), c in zip(self.spans, child)]


# per-layer self-time metric -> span name; together they cover cli.main
SELF_METRICS = {
    "testcase.table_s": "testcase.table",
    "testcase.inflow_s": "testcase.inflow",
    "forward.run_s": "forward.run",
    "dual.coeff_s": "dual.coeff",
    "dual.solve_s": "dual.solve",
    "estimator.breakdown_s": "estimator.breakdown",
    "estimator.ref_s": "estimator.ref",
    "adaptivity.propose_s": "adaptivity.propose",
    "adaptivity.profile_s": "adaptivity.profile",
    "adaptivity.assign_s": "adaptivity.assign",
    "adaptivity.loop_self_s": "adaptivity.loop",
    "cli.self_s": "cli.main",
}


def install_spans(tracer: Tracer):
    import shockstep.adaptivity as adaptivity
    import shockstep.cli as cli
    from shockstep.adaptivity import SpeedProfile
    from shockstep.testcase import PerturbedShockCase

    def trajectory(traj, a):
        return {"modes": traj.partition.modes, "newton": traj.newton_stats,
                "bytes": sum(v.nbytes for v in vars(traj).values()
                             if hasattr(v, "nbytes"))}

    keep = {
        "forward.run": trajectory,
        "dual.solve": lambda out, a: (a["coeff"], a["case"], a["dual_cfl"]),
        "estimator.ref": lambda out, a: (a["case"], a["ref_level"],
                                         a["base_cells"], a["cfl"]),
        "adaptivity.assign": lambda plan, a: (plan.stats.N, plan.stats.N_implicit),
    }
    for module in (cli, adaptivity):
        for attr, name in (("run_forward", "forward.run"),
                           ("build_coefficient_field", "dual.coeff"),
                           ("solve_dual_gradient", "dual.solve"),
                           ("assemble_breakdown", "estimator.breakdown")):
            tracer.wrap(module, attr, name, keep.get(name))
    tracer.wrap(cli, "reference_functional", "estimator.ref", keep["estimator.ref"])
    tracer.wrap(cli, "adaptive_loop", "adaptivity.loop")
    tracer.wrap(adaptivity, "propose_timesteps", "adaptivity.propose")
    tracer.wrap(adaptivity, "assign_modes", "adaptivity.assign",
                keep["adaptivity.assign"])
    tracer.wrap(SpeedProfile, "from_trajectory", "adaptivity.profile")
    tracer.wrap(PerturbedShockCase, "inflow_value", "testcase.inflow")
    tracer.wrap(PerturbedShockCase, "inflow_peak", "testcase.inflow")
    tracer.wrap(PerturbedShockCase, "_ensure_table", "testcase.table")


def count_pass(tracer: Tracer, self_s: list) -> dict:
    """Exact counts from the captured return values and arguments; runs
    after the traced call, outside every span."""
    from shockstep.adaptivity import speed_for_basis
    from shockstep.dual import solve_dual_gradient
    from shockstep.grid import EXPLICIT, build_spatial_grid, uniform_partition

    def spans_of(name):
        return [i for i, s in enumerate(tracer.spans) if s[0] == name]

    m = {}
    steps_exp = steps_imp = iters = iters_max = 0
    exp_time = exp_steps = imp_time = imp_iters = traj_bytes = 0.0
    for idx, rec in tracer.kept.get("forward.run", []):
        n_exp = int((rec["modes"] == EXPLICIT).sum())
        n_imp = len(rec["modes"]) - n_exp
        it = [s.iterations for s in rec["newton"] if s is not None]
        steps_exp += n_exp
        steps_imp += n_imp
        iters += sum(it)
        iters_max = max([iters_max] + it)
        traj_bytes += rec["bytes"]
        if n_imp == 0:
            exp_time += self_s[idx]
            exp_steps += n_exp
        elif n_exp == 0:
            imp_time += self_s[idx]
            imp_iters += sum(it)
    m["forward.steps_explicit"] = (steps_exp, "count")
    m["forward.steps_implicit"] = (steps_imp, "count")
    m["forward.us_per_explicit_step"] = (1e6 * exp_time / exp_steps if exp_steps else 0.0, "us")
    m["forward.newton_iters"] = (iters, "count")
    m["forward.newton_iters_max"] = (iters_max, "count")
    m["forward.us_per_newton_iter"] = (1e6 * imp_time / imp_iters if imp_iters else 0.0, "us")
    m["forward.traj_mb"] = (traj_bytes / 2**20, "MiB")

    substeps = intervals = 0
    mass_max = 0.0
    for _, (coeff, case, dual_cfl) in tracer.kept.get("dual.solve", []):
        dual = solve_dual_gradient(coeff, case, dual_cfl, record_substeps=True)
        substeps += len(dual.substep_log)
        intervals += coeff.partition.interval_count
        mass_max = max(mass_max, dual.max_mass_residual)
    solve_s = sum((self_s[i] for i in spans_of("dual.solve")), 0.0)
    m["dual.substeps"] = (substeps, "count")
    m["dual.us_per_substep"] = (1e6 * solve_s / substeps if substeps else 0.0, "us")
    m["dual.substeps_per_step"] = (substeps / intervals if intervals else 0.0, "substeps/step")
    m["dual.mass_residual_max"] = (mass_max, "1")

    # The reference run is memoized per case object, so the first call per
    # (case, level, cells, cfl) is the one that steps.
    ref_keys = {}
    for _, (case, level, cells, cfl) in tracer.kept.get("estimator.ref", []):
        key = (id(case), level, cells, cfl)
        if key not in ref_keys:
            grid = build_spatial_grid(cells, level, case.domain)
            speed = speed_for_basis(case, grid, "global")
            ref_keys[key] = uniform_partition(case.T, cfl * grid.h / speed).interval_count
    ref_steps = sum(ref_keys.values())
    ref_s = sum((self_s[i] for i in spans_of("estimator.ref")), 0.0)
    m["estimator.ref_calls"] = (len(spans_of("estimator.ref")), "count")
    m["estimator.ref_steps"] = (ref_steps, "count")
    m["estimator.us_per_ref_step"] = (1e6 * ref_s / ref_steps if ref_steps else 0.0, "us")

    plans = [rec for _, rec in tracer.kept.get("adaptivity.assign", [])]
    m["adaptivity.plan_steps"] = (sum(n for n, _ in plans), "count")
    m["adaptivity.plan_implicit"] = (sum(n for _, n in plans), "count")
    m["testcase.inflow_calls"] = (len(spans_of("testcase.inflow")), "count")
    return m


def run_traced(cli_args: list, golden: dict, workload: str, seed: int) -> dict:
    base = repeat(cli_args, golden)
    print(f"untraced: wall_s={base['wall_s']:.4f} setup_s={base['setup_s']} "
          f"outputs={'ok' if not base['problems'] else 'BAD'}")
    report_failure(base)

    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import shockstep.cli as cli
    import_s = time.perf_counter() - t0

    tracer = Tracer()
    install_spans(tracer)
    out_dir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = tracer.call("cli.main", cli.main,
                                 cli_args + ["--out", str(out_dir)])
        except Exception:  # a crash is a failed operation, reported like a child's
            traceback.print_exc(file=sys.stdout)
            rc = None
        finally:
            main_wall = time.perf_counter() - t0
            tracer.restore()
        problems = check_outputs(out_dir, rc, golden)
        written = sum(p.stat().st_size for p in out_dir.glob("*.csv"))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    self_s = tracer.self_times()
    m = {name: (sum((t for s, t in zip(tracer.spans, self_s) if s[0] == span), 0.0), "s")
         for name, span in SELF_METRICS.items()}
    uncovered = main_wall - sum(v for v, _ in m.values())
    roots = [s for s in tracer.spans if s[3] is None]
    if len(roots) != 1 or abs(uncovered) > 1e-3:
        problems.append(f"spans do not tile cli.main: {len(roots)} roots, "
                        f"uncovered {uncovered:.3e} s")
    m.update(count_pass(tracer, self_s))
    m["cli.import_s"] = (import_s, "s")
    m["cli.csv_bytes"] = (written, "bytes")
    m["trace.main_s"] = (main_wall, "s")
    m["trace.uncovered_s"] = (uncovered, "s")
    overhead = main_wall - (base["wall_s"] - (base["setup_s"] or 0.0))
    m["trace.overhead_s"] = (overhead, "s")

    trace_path = WORK / f"trace-{workload}-{seed}.json"
    with open(trace_path, "w") as fh:
        json.dump({"workload": workload, "seed": seed,
                   "spans": [{"name": n, "start": a, "end": b, "parent": p}
                             for n, a, b, p in tracer.spans]}, fh)
    print(f"traced: main_s={main_wall:.4f} spans={len(tracer.spans)} "
          f"uncovered_s={uncovered:.3e} overhead_s={overhead:.4f} "
          f"outputs={'ok' if not problems else 'BAD'} (spans in {trace_path.name})")
    for p in problems:
        print(f"  FAILED: {p}")
    return {"attempted": 2, "failed": int(bool(base["problems"])) + int(bool(problems)),
            "metrics": m}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "shockstep" / "cli.py").is_file():
        print(f"no shockstep sources under {SRC}", file=sys.stderr)
        return 2
    golden = load_golden()[args.workload]
    WORK.mkdir(exist_ok=True)
    env = environment()
    cli_args = WORKLOADS[args.workload]
    print(f"workload {args.workload}: shockstep {' '.join(cli_args)} "
          f"(seed {args.seed}, trace {args.trace})")
    if args.trace:
        res = run_traced(cli_args, golden, args.workload, args.seed)
    else:
        res = run_untraced(cli_args, golden, args.seconds)
    for name, (value, unit) in res["metrics"].items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"output gate: {'PASS' if res['failed'] == 0 else 'FAIL'} "
          f"({res['attempted'] - res['failed']}/{res['attempted']} runs match golden.json)")
    print("env: " + json.dumps(env))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
