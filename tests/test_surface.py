"""Every public function and method in the package has a caller.

A public name that only the tests reach is a second surface to keep
correct; brute-force references belong in ``tests/helpers.py``.  The
check parses ``src/qundet`` and the benchmark harness in ``perfbench``
(its test files left out) and asks that each public function, and each
public method of a public class, be named somewhere in those files.
It goes by name, so a name that another identifier shares passes.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "qundet").glob("*.py")) + sorted(
    p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_")
)

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _public(node):
    return not node.name.startswith("_")


def _definitions(tree):
    """Public module-level functions and public methods of public classes."""
    for node in tree.body:
        if isinstance(node, FUNCTIONS) and _public(node):
            yield node.name
        elif isinstance(node, ast.ClassDef) and _public(node):
            yield from (f"{node.name}.{item.name}" for item in node.body
                        if isinstance(item, FUNCTIONS) and _public(item))


def _named(tree):
    """Every identifier the code reads, imports or looks up as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]


def test_sources_found():
    names = {p.name for p in SOURCES}
    assert {"dense.py", "stabilizer.py", "cli.py", "run.py"} <= names
    assert not any(name.startswith("test_") for name in names)


def test_every_public_name_has_a_caller():
    defined, named = {}, set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for qualified in _definitions(tree):
            defined[qualified] = path.relative_to(ROOT)
        named.update(_named(tree))
    unused = sorted(f"{path}: {qualified}" for qualified, path in defined.items()
                    if qualified.rpartition(".")[2] not in named)
    assert not unused, "public names nothing in src/ or perfbench/ calls:\n" + "\n".join(unused)
