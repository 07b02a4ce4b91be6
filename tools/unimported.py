#!/usr/bin/env python3
"""List the ``repro`` modules that neither the paper path nor the benchmark imports.

Runs ``pytest benchmarks/`` (every figure, table and ablation test) and one
``bench/run.py --seed 0 --seconds 2`` pass per workload, with a fresh cache
and a copy of ``bench/`` in a temporary directory, so nothing is written to
the checkout.  Every interpreter they start loads a ``sitecustomize`` that
logs the ``repro`` entries of ``sys.modules`` at exit (import-time tracing
misses what the lazy package tables load through ``importlib``).  Prints
each never-imported module with its line count, and the share of ``src/``.
A manual tool (a few minutes), not a test.

Run:  python3 tools/unimported.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
HOOK = """import atexit, sys
def _log():
    names = [name for name in list(sys.modules) if name.split(".")[0] == "repro"]
    with open({log!r}, "a", encoding="utf-8") as handle:
        handle.write("".join(name + "\\n" for name in names))
atexit.register(_log)
"""


def module_lines() -> dict[str, int]:
    """Line count of every module under ``src/``, by dotted name."""
    counts = {}
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        counts[".".join(parts)] = path.read_bytes().count(b"\n")
    return counts


def imported_modules(tmp: Path) -> set[str]:
    """Every ``repro`` module some process of the two runs imported."""
    tree = tmp / "tree"
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(ROOT / "bench", tree / "bench", ignore=ignore)
    shutil.copy2(ROOT / "BENCHMARK.json", tree)
    (tree / "src").symlink_to(SRC)
    log = tmp / "imports.log"
    (tmp / "hook").mkdir()
    (tmp / "hook" / "sitecustomize.py").write_text(HOOK.format(log=str(log)), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp / "hook"), str(SRC)]),
               PYTHONDONTWRITEBYTECODE="1", REPRO_CACHE_DIR=str(tmp / "cache"))
    for command in (
        ["-m", "pytest", "-q", "-p", "no:cacheprovider", str(ROOT / "benchmarks")],
        [str(tree / "bench" / "run.py"), "--seed", "0", "--seconds", "2",
         "--out", str(tmp / "result.json")],
    ):
        subprocess.run([sys.executable, *command], cwd=tmp, env=env, check=True,
                       stdout=subprocess.DEVNULL)
    return set(log.read_text(encoding="utf-8").split())


def main() -> None:
    lines = module_lines()
    with tempfile.TemporaryDirectory() as tmp:
        imported = imported_modules(Path(tmp))
    never = {name: count for name, count in lines.items() if name not in imported}
    for name, count in sorted(never.items(), key=lambda item: (-item[1], item[0])):
        print(f"{count:>6d}  {name}")
    total, unused = sum(lines.values()), sum(never.values())
    print(f"src/: {total} lines, {total - unused} imported, "
          f"{unused} never imported ({100 * unused / total:.1f} %)")


if __name__ == "__main__":
    main()
