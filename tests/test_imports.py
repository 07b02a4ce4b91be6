"""Cold-start contract: a process imports only the code it runs.

Package ``__init__`` files that only re-export names resolve them lazily
through :func:`repro._lazy.attach`.  These tests pin what that must not
change — every public name, ``__all__``, ``dir()`` and ``import *`` —
and what it buys: the import budget of the CLI, of the cluster package
and of ``characterize``.  Every check runs in a fresh interpreter, since
what a process has imported is the thing under test.
"""

from __future__ import annotations

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.__main__ import COMMANDS

SRC = Path(repro.__file__).resolve().parents[1]

#: the packages whose ``__init__`` is a lazy table
LAZY_PACKAGES = (
    "repro.analysis",
    "repro.cluster",
    "repro.comparisons",
    "repro.core",
    "repro.hive",
    "repro.mapreduce",
    "repro.perf",
    "repro.uarch",
)

#: public names that are also the name of a submodule of their package:
#: these are imported eagerly by the ``__init__`` (see ``repro._lazy``)
SHADOWED = {"repro.core": {"characterize"}}


def run_python(code: str, *argv: str) -> str:
    """Run *code* in a fresh interpreter with ``src`` on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    env["REPRO_SIM_CACHE"] = "0"
    out = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


def lazy_table(package: str) -> dict[str, tuple[str, str]]:
    """``{public name: (defining module, attribute)}``, read from the
    ``attach(globals(), {...})`` call in *package*'s ``__init__``."""
    init = Path(importlib.util.find_spec(package).origin)
    for node in ast.walk(ast.parse(init.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "attach":
            table = ast.literal_eval(node.args[1])
            break
    else:
        raise AssertionError(f"{package} has no attach() table")
    resolved = {}
    for name, target in table.items():
        module, _, attr = target.partition(":")
        resolved[name] = (f"{package}.{module}", attr or name)
    return resolved


def submodules(package: str) -> list[str]:
    init = Path(importlib.util.find_spec(package).origin)
    return sorted(f"{package}.{path.stem}" for path in init.parent.glob("*.py")
                  if path.name != "__init__.py")


# -- the namespace contract -----------------------------------------------------

_CHECK_NAMES = """
import importlib, json, sys
package, table = sys.argv[1], json.loads(sys.argv[2])
def check():
    pkg = importlib.import_module(package)
    return [name for name, (module, attr) in table.items()
            if getattr(pkg, name) is not getattr(importlib.import_module(module), attr)]
"""


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_public_name_is_its_defining_object(package):
    """Each ``__all__`` name resolves to the object its defining module
    holds: on first access, after every submodule has been imported, and
    when every submodule was imported before the first access (the order
    in which a submodule named like a public name shadows it)."""
    table = json.dumps(lazy_table(package))
    mods = json.dumps(submodules(package))
    code = _CHECK_NAMES + (
        "first = check()\n"
        f"for name in {mods}: importlib.import_module(name)\n"
        "print(json.dumps([first, check()]))\n"
    )
    assert json.loads(run_python(code, package, table)) == [[], []]
    code = _CHECK_NAMES + (
        f"for name in {mods}: importlib.import_module(name)\n"
        "print(json.dumps(check()))\n"
    )
    assert json.loads(run_python(code, package, table)) == []


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_all_dir_star_import_and_unknown_names(package):
    code = (
        "import importlib, json\n"
        f"pkg = importlib.import_module({package!r})\n"
        "listed = dir(pkg)\n"
        "star = {}\n"
        f"exec('from {package} import *', star)\n"
        "try:\n"
        "    pkg.no_such_name\n"
        "except AttributeError as error:\n"
        "    message = str(error)\n"
        "print(json.dumps([pkg.__all__, listed, sorted(set(star) - {'__builtins__'}),"
        " message]))\n"
    )
    all_names, listed, starred, message = json.loads(run_python(code))
    assert all_names == list(lazy_table(package))
    assert len(set(all_names)) == len(all_names)
    assert set(listed) >= set(all_names)
    assert starred == sorted(all_names)
    assert message == f"module {package!r} has no attribute 'no_such_name'"


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_importing_a_package_runs_only_its_shadowed_names(package):
    """A lazy package loads no submodule of its own when imported, except
    the defining modules of the names listed in ``SHADOWED``."""
    stems = {name.rsplit(".", 1)[1] for name in submodules(package)}
    assert {name for name in lazy_table(package) if name in stems} == SHADOWED.get(
        package, set()
    )
    code = (
        f"import json, sys, {package}\n"
        f"print(json.dumps([m for m in sys.modules if m.startswith({package + '.'!r})]))"
    )
    loaded = set(json.loads(run_python(code)))
    eager = {f"{package}.{name}" for name in SHADOWED.get(package, ())}
    assert eager <= loaded
    if not eager:
        assert loaded == set()


def test_no_module_imports_a_name_through_a_package_namespace():
    """``from repro.<pkg> import X`` must name a submodule, never a
    re-exported object: the import walk in ``tests/core/test_mix_entry.py``
    that keeps the cache digests complete cannot see through a lazy
    table.  The CLI (``__main__``) runs no digested code and is exempt."""
    offenders = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        if path.name == "__main__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            assert node.level == 0, f"{path}: relative import"
            if not (node.module or "").startswith("repro"):
                continue
            spec = importlib.util.find_spec(node.module)
            if spec.submodule_search_locations is None:
                continue  # a plain module, not a package namespace
            for alias in node.names:
                if importlib.util.find_spec(f"{node.module}.{alias.name}") is None:
                    offenders.append(f"{path.relative_to(SRC)}: {node.module}.{alias.name}")
    assert offenders == []


# -- the import budget -----------------------------------------------------------


@pytest.mark.parametrize(
    "command", [None, *(name for name, *_ in COMMANDS)], ids=lambda c: c or "repro"
)
def test_cli_help_imports_no_repro_module(command):
    """``python -m repro [command] --help`` builds its parser from
    literals: every command imports what it runs when it runs."""
    argv = [command, "--help"] if command else ["--help"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "repro", *argv],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.startswith(" ".join(["usage: repro", *argv[:-1]]))
    imported = {line.rsplit("|", 1)[1].strip() for line in out.stderr.splitlines()
                if line.startswith("import time:") and "|" in line}
    assert {m for m in imported if m.split(".")[0] == "repro"} <= {"repro", "repro.__main__"}


def test_multijobcluster_import_skips_chaos_serve_workflow_and_uarch():
    code = (
        "import json, sys\n"
        "from repro.cluster import MultiJobCluster\n"
        "print(json.dumps(list(sys.modules)))"
    )
    loaded = set(json.loads(run_python(code)))
    assert "repro.cluster.scheduler" in loaded
    for module in ("repro.cluster.chaos", "repro.cluster.serve", "repro.cluster.workflow"):
        assert module not in loaded
    assert not [m for m in loaded if m.startswith("repro.uarch")]


def test_characterize_leaves_numpy_unimported():
    code = (
        "import sys\n"
        "from repro.core import DCBench, characterize\n"
        "result = characterize(DCBench.default().entry('HPCC-HPL'), instructions=4000)\n"
        "assert result.metrics.ipc > 0\n"
        "print('numpy' in sys.modules)"
    )
    assert run_python(code).strip() == "False"


def test_hpcc_and_spec_kernels_import_numpy_when_they_run():
    """The kernels still compute with and verify against NumPy; they
    import it on the first run, not when their module loads."""
    code = (
        "import json, sys\n"
        "from repro.comparisons import hpcc, speccpu\n"
        "before = 'numpy' in sys.modules\n"
        "metrics = {name: cls().run(scale=0.25).metrics for name, cls in ("
        "('hpl', hpcc.Hpl), ('dgemm', hpcc.Dgemm), ('stream', hpcc.Stream),"
        " ('ptrans', hpcc.Ptrans), ('fft', hpcc.Fft), ('fp', speccpu.SpecFp))}\n"
        "print(json.dumps([before, 'numpy' in sys.modules, metrics]))"
    )
    before, after, metrics = json.loads(run_python(code))
    assert (before, after) == (False, True)
    assert metrics["hpl"]["residual"] < 1e-8
    assert metrics["dgemm"]["max_error"] < 1e-9
    assert metrics["stream"]["checksum_error"] < 1e-12
    assert metrics["ptrans"]["max_error"] == 0.0
    assert metrics["fft"]["relative_error"] < 1e-9
    assert metrics["fp"]["acc_norm"] > 0.0
