"""Only the package ``__init__`` imports the index-set layer when it runs.

Witnesses are read off the canonical form, so no other module needs
``indexset`` at run time; a module may still name its types for annotations
under ``if TYPE_CHECKING:``.
"""

import ast
from pathlib import Path

import invsys

SRC = Path(invsys.__file__).parent


def _type_checking(test) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING")


def runtime_imports(node):
    """Every import statement below ``node`` outside ``if TYPE_CHECKING:`` bodies."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.If) and _type_checking(child.test):
            children = child.orelse
        else:
            children = [child]
        for stmt in children:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                yield stmt
            yield from runtime_imports(stmt)


def imports_indexset(stmt) -> bool:
    if isinstance(stmt, ast.Import):
        return any(alias.name.split(".")[-1] == "indexset" for alias in stmt.names)
    module = stmt.module or ""
    if module.split(".")[-1] == "indexset":
        return True
    return module in ("", "invsys") and any(alias.name == "indexset" for alias in stmt.names)


def test_only_the_package_init_imports_indexset_at_run_time():
    importers = sorted(
        path.name for path in SRC.glob("*.py")
        if any(imports_indexset(stmt) for stmt in runtime_imports(ast.parse(path.read_text())))
    )
    assert importers == ["__init__.py"]

