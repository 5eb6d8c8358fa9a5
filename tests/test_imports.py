"""Every import in the package modules and the test modules is used.

No linter runs on this repository, so this walks each module's syntax
tree: a name an import binds must be read somewhere else in the module.
"""
import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "shockstep"

# Names bench/run.py --trace 1 reads from a module's namespace: it wraps
# the four cli.py names in place and imports speed_for_basis from
# adaptivity.py, so they stay although the module itself does not read them.
BENCH_HOOKS = {
    ("cli.py", "run_forward"),
    ("cli.py", "build_coefficient_field"),
    ("cli.py", "solve_dual_gradient"),
    ("cli.py", "assemble_breakdown"),
    ("adaptivity.py", "speed_for_basis"),
}


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_detector_flags_unused_and_keeps_used():
    source = ("from __future__ import annotations\n"
              "import math\nimport os.path\nfrom typing import Optional\n"
              "from dataclasses import dataclass, field\n"
              "x: Optional[int] = os.path.sep\n"
              "@dataclass\nclass A:\n    pass\n")
    assert _unused_imports(source) == [(2, "math"), (5, "field")]


# the package modules by file name, the test modules as tests/<name>
_MODULES = {**{p.name: p for p in SRC.glob("*.py") if p.name != "__init__.py"},
            **{f"tests/{p.name}": p for p in TESTS.glob("*.py")}}


@pytest.mark.parametrize("path", sorted(_MODULES))
def test_no_unused_imports(path):
    unused = [(line, name)
              for line, name in _unused_imports(_MODULES[path].read_text())
              if (path, name) not in BENCH_HOOKS]
    assert unused == [], f"{path}: unused imports {unused}"


def test_bench_hooks_are_imported_where_the_bench_reads_them():
    # an entry that names no import, or one the module reads, is not needed
    for path, name in sorted(BENCH_HOOKS):
        unused = _unused_imports((SRC / path).read_text())
        assert name in [n for _, n in unused], (path, name)


_CLI_RUNS = """\
import sys
import shockstep.cli
out = sys.argv[1]
for args in (["run-uniform", "--set", "levels=0", "--set", "ref_level=2"],
             ["run-adaptive", "--set", "levels=0,1", "--set", "ref_level=2",
              "--set", "strategy=fully_implicit"]):
    assert shockstep.cli.main([*args, "--out", f"{out}/{args[0]}"]) == 0
print("numpy.ma" in sys.modules)
"""


def test_runs_do_not_import_numpy_ma(tmp_path, capped_child):
    # numpy imports some modules on first use: np.unique's first call
    # imports numpy.ma, 1.7 MiB of resident set that no run needs
    proc = capped_child(_CLI_RUNS, 1 << 32, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"
