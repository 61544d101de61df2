"""Every public name of the package is reached by a program path, and every import is read.

A name in ``fbslq.__all__`` or in a module's ``__all__`` counts as reached
when code in ``src/fbslq`` reads it (its own definition, the ``__all__``
lists and the package's re-exports do not count), when a demo script names
it, or when the README does.  Names that only tests read belong in
``tests/oracles.py``, and the package imports nothing from ``tests``.
"""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import fbslq

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(fbslq.__file__).resolve().parent


def module_names():
    yield "fbslq"
    for info in pkgutil.iter_modules(fbslq.__path__):
        yield f"fbslq.{info.name}"


def public_names():
    """(module, name) for every entry of every ``__all__`` in the package."""
    return sorted(
        (module, name)
        for module in module_names()
        for name in getattr(importlib.import_module(module), "__all__", ())
    )


def names_read_by_package_code() -> set[str]:
    """Names that the package's code loads, as a plain name or as an attribute.

    Stores (definitions, ``__all__``) and imports are not reads, so the
    package's re-exports in ``__init__.py`` count for nothing.
    """
    read = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return read


def text_of(files) -> str:
    """The texts of ``files``, joined."""
    return "\n".join(f.read_text(encoding="utf-8") for f in files)


def named_in(name: str, text: str) -> bool:
    return re.search(rf"\b{re.escape(name)}\b", text) is not None


def test_every_public_name_is_reached_by_a_program_path():
    read = names_read_by_package_code()
    demos, readme = text_of(sorted((ROOT / "demos").glob("*.py"))), (ROOT / "README.md").read_text(encoding="utf-8")

    def reached(name):
        return name in read or named_in(name, demos) or named_in(name, readme)

    names = public_names()
    assert len(names) > 50 and not reached("evaluate_cost_of_nothing")  # the guard sees something
    assert [f"{module}.{name}" for module, name in names if not reached(name)] == []
    # A name that only a README sentence reaches is reviewed before it joins this set.
    prose_only = {name for _, name in names if name not in read and not named_in(name, demos)}
    assert prose_only == {"feedback_map", "CallableFn"}


def imports_of_tests(path: Path) -> list[str]:
    """The modules of the ``tests`` package that a module imports, absolutely."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.split(".")[0] == "tests"]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "tests":
            found.append(node.module)
    return found


def test_the_package_imports_nothing_from_the_tests(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import testsuite\nimport tests.oracles\nfrom tests import conftest\nfrom . import tests\n")
    assert imports_of_tests(probe) == ["tests.oracles", "tests"]  # the guard sees something
    assert [f"{p.name}: {m}" for p in sorted(SRC.glob("*.py")) for m in imports_of_tests(p)] == []


def unread_imports(path: Path) -> list[str]:
    """Names that a module imports and never loads; ``__future__`` imports do not count."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in imported if name not in read]


def test_every_imported_name_is_read(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from __future__ import annotations\nimport os, sys\nimport numpy.linalg\nprint(sys)\n")
    assert unread_imports(probe) == ["os", "numpy"]  # the guard sees something
    # The package's __init__.py imports in order to re-export.
    paths = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    paths += sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    assert [f"{p.relative_to(p.parents[1])}: {name}" for p in paths for name in unread_imports(p)] == []
