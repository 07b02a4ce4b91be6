"""The cheap parts of the manual tools under ``tools/``.

``tools/unimported.py`` takes minutes (it runs every figure test and the
benchmark), so only its bookkeeping is checked here: the module table it
measures against and the ``sitecustomize`` hook it installs.
"""

import importlib.util
import pkgutil
import sys
from pathlib import Path

import repro

TOOLS = Path(__file__).resolve().parent.parent / "tools"
SRC = Path(repro.__file__).resolve().parents[1]


def load_tool(name: str):
    path = TOOLS / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"tool_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_module_lines_names_every_src_module():
    lines = load_tool("unimported").module_lines()
    walked = {info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")}
    assert set(lines) == {"repro", *walked}


def test_module_lines_counts_each_file_and_packages_by_their_init():
    lines = load_tool("unimported").module_lines()
    for name, path in [("repro", "repro/__init__.py"),
                       ("repro.cluster", "repro/cluster/__init__.py"),
                       ("repro.__main__", "repro/__main__.py")]:
        assert lines[name] == len((SRC / path).read_text(encoding="utf-8").splitlines())


def test_import_log_hook_is_valid_python(tmp_path):
    hook = load_tool("unimported").HOOK.format(log=str(tmp_path / "imports.log"))
    compile(hook, "sitecustomize.py", "exec")
