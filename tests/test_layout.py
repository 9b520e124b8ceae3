"""Every public object in ``src/prodgeo`` has a reader besides the tests.

The package computes each object once, by one function; an independent
formula that only tests compare against lives in ``tests/reference.py``.
So every public module-level function or class, and every public method that
is not a property, must be named somewhere else:

* elsewhere in ``src/prodgeo``, as a name, an attribute or an import alias
  outside its own definition (a re-export in ``__init__`` does not count);
* in ``bench/*.py``, which traces functions by name;
* in the CI workflow, which calls the installed package.

The match is by bare name, so a local variable or an attribute of the same
name hides an unread function (a ``bracket`` local in ``curvature_components``
once hid a test-only ``bracket`` function).  This test is a guard, not a proof.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "prodgeo"
OUTSIDE = sorted((ROOT / "bench").glob("*.py")) + [ROOT / ".github" / "workflows" / "tests.yml"]
PROPERTIES = {"property", "cached_property"}


def is_property(node: ast.FunctionDef) -> bool:
    return any(ast.unparse(d).split(".")[-1] in PROPERTIES for d in node.decorator_list)


def definitions(tree: ast.Module):
    """(qualified name, bare name, node) of each public module-level def or class and public method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_") and not is_property(item):
                    yield f"{node.name}.{item.name}", item.name, item


def references(tree: ast.Module):
    """(name, line) of each name, attribute and import alias."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1], node.lineno
            if node.asname:
                yield node.asname, node.lineno


def unread_names() -> list[str]:
    trees = {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    refs = {path: list(references(tree)) for path, tree in trees.items() if path.name != "__init__.py"}
    outside = "\n".join(path.read_text() for path in OUTSIDE)
    unread = []
    for path, tree in trees.items():
        for qualified, name, node in definitions(tree):
            own = range(node.lineno, node.end_lineno + 1)
            named = any(
                ref == name and not (other == path and line in own) for other, found in refs.items() for ref, line in found
            )
            if not named and not re.search(rf"\b{re.escape(name)}\b", outside):
                unread.append(f"{path.stem}.{qualified}")
    return unread


def test_every_public_object_has_a_reader_outside_the_tests():
    unread = unread_names()
    assert not unread, f"named only by tests (move to tests/reference.py, or give it a reader): {unread}"


def test_the_guard_sees_a_test_only_function(tmp_path, monkeypatch):
    module = tmp_path / "prodgeo"
    module.mkdir()
    (module / "kernels.py").write_text(
        "def used(x):\n    return x\n\n\ndef unused(x):\n    return unused(x)\n\n\n"
        "class Holder:\n    @property\n    def size(self):\n        return 1\n\n"
        "    def only_tests(self):\n        return used(self)\n"
    )
    (module / "__init__.py").write_text("from .kernels import unused\n")
    monkeypatch.setitem(globals(), "PACKAGE", module)
    monkeypatch.setitem(globals(), "OUTSIDE", [])
    assert unread_names() == ["kernels.unused", "kernels.Holder", "kernels.Holder.only_tests"]
