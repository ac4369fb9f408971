"""Every name that `trwmap` exports has a reader outside the tests.

A name counts as read when it occurs as a whole word in one of the readers:
a module of `src/trwmap` other than `__init__.py` (in its defining module,
outside its own definition), a demo, a `perfbench` script, README.md or the
acceptance suite.  `__init__.py`, which only re-exports, is no reader, nor
is any other test module: code that only its own tests call belongs in the
tests.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "trwmap"


def exports() -> dict:
    """{exported name: its defining module's name}, from `__init__.py`'s imports."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {alias.asname or alias.name: node.module
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def without_definition(text: str, name: str) -> str:
    """`text`, a module, less the lines of its top-level definition of `name`."""
    lines = text.splitlines()
    for node in ast.parse(text).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        if name in defined:
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            del lines[first - 1:node.end_lineno]
            break
    return "\n".join(lines)


def readers() -> dict:
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    paths += [ROOT / "README.md", ROOT / "tests" / "test_acceptance.py"]
    return {p: p.read_text(encoding="utf-8") for p in paths}


EXPORTS = exports()
READERS = readers()


def test_exports_are_listed():
    assert {"PairwiseMrf", "run_trw", "load_tree_distribution"} <= set(EXPORTS)


@pytest.mark.parametrize("name", sorted(EXPORTS))
def test_export_has_a_reader_outside_the_tests(name):
    home = PACKAGE / f"{EXPORTS[name]}.py"
    word = re.compile(rf"\b{re.escape(name)}\b")
    found = [p.relative_to(ROOT).as_posix() for p, text in READERS.items()
             if word.search(without_definition(text, name) if p == home else text)]
    assert found, (f"trwmap exports {name}, which nothing but its own definition and "
                   f"the tests reads: delete it or move it into the tests")
