"""README's three inventories must match the tree: the examples table
lists every ``examples/*.py``, the package map every subpackage of
``repro``, and the CLI sentence every command in ``COMMANDS`` order, no
more and no fewer."""

import re
from pathlib import Path

import repro
from repro.__main__ import COMMANDS

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
PACKAGE = Path(repro.__file__).resolve().parent


def first_column(after: str) -> set[str]:
    """The backticked first cells of the first table after *after*."""
    lines = README[README.index(after):].splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("|"))
    cells = set()
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        match = re.match(r"\|\s*`([^`]+)`", line)
        if match:
            cells.add(match.group(1))
    return cells


def test_examples_table_lists_every_example():
    assert first_column("More in `examples/`") == {
        path.name for path in (ROOT / "examples").glob("*.py")
    }


def test_package_map_lists_every_subpackage():
    assert first_column("## Package map") == {
        f"repro.{path.parent.name}" for path in PACKAGE.glob("*/__init__.py")
    }


def test_cli_sentence_lists_every_command_in_order():
    start = README.index("A CLI, `python -m repro <command>`")
    sentence = README[start:README.index(";", start)]
    named = re.findall(r"`([^`]+)`", sentence)[1:]
    assert named == [name for name, *_ in COMMANDS]
