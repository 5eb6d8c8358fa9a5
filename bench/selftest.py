"""Self-test of the benchmark harness on a small levels=0 run.

Run from the repository root:  python3 bench/selftest.py

Checks that the untraced and the traced run each emit exactly the metrics
BENCHMARK.json names, with their units, and pass the output gate, and that
a tampered golden hash counts as a failed operation.  Exits 1 on the first
list of failures it prints.
"""
import copy
import json
import sys

import run


def metric_problems(result: dict, specs: list, label: str) -> list:
    want = {s["name"]: s["unit"] for s in specs}
    got = {name: unit for name, (_, unit) in result["metrics"].items()}
    problems = [f"{label}: {n} missing" for n in want if n not in got]
    problems += [f"{label}: {n} not in BENCHMARK.json" for n in got if n not in want]
    problems += [f"{label}: {n} has unit {got[n]}, expected {want[n]}"
                 for n in want if n in got and got[n] != want[n]]
    return problems


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    golden = run.load_golden()["smoke"]
    run.WORK.mkdir(exist_ok=True)
    problems = []

    plain = run.run_untraced(run.SMOKE, golden, seconds=1)
    problems += metric_problems(plain, spec["end_to_end"], "untraced")
    if plain["failed"] or plain["attempted"] < 1:
        problems.append(f"untraced: {plain['failed']}/{plain['attempted']} failed")

    tampered = copy.deepcopy(golden)
    tampered["csv"]["summary.csv"] = "0" * 64
    bad = run.run_untraced(run.SMOKE, tampered, seconds=1)
    if bad["failed"] != bad["attempted"]:
        problems.append(f"tampered hash: {bad['failed']}/{bad['attempted']} failed, "
                        "expected all")

    traced = run.run_traced(run.SMOKE, golden, "smoke", 0)
    problems += metric_problems(traced, spec["per_layer"], "traced")
    if traced["failed"]:
        problems.append(f"traced: {traced['failed']}/{traced['attempted']} failed")

    for p in problems:
        print(f"SELFTEST FAILED: {p}")
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
