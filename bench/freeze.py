"""Write bench/golden.json: the exit code and the sha256 of every CSV that
each workload (and the self-test's smoke run) writes at the current commit.

Run from the repository root:  python3 bench/freeze.py
Re-freezing is only right for a change that alters the numerics on purpose.
"""
import hashlib
import json
import shutil
import tempfile
from pathlib import Path

import run


def main():
    run.WORK.mkdir(exist_ok=True)
    golden = {}
    for name, args in {**run.WORKLOADS, "smoke": run.SMOKE}.items():
        out = Path(tempfile.mkdtemp(dir=run.WORK))
        try:
            sample = run.spawn(args, out)
            golden[name] = {
                "exit_code": sample["exit_code"],
                "csv": {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                        for p in sorted(out.glob("*.csv"))},
            }
        finally:
            shutil.rmtree(out, ignore_errors=True)
        print(f"{name}: exit {sample['exit_code']}, {len(golden[name]['csv'])} CSVs, "
              f"wall {sample['wall_s']:.2f} s")
    with open(run.BENCH / "golden.json", "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
