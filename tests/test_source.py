"""Every name a package module imports is used in that module.

Each module is parsed with ast, never imported. An import at any level
counts, a function-local one included, and a use anywhere in the module
counts as its use.
"""

import ast
import glob
import os

import pytest

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src", "intervaldyn")
MODULES = sorted(glob.glob(os.path.join(PACKAGE, "*.py")))


def imported_names(tree: ast.AST) -> dict[str, int]:
    """Each name an import statement binds, with the line that binds it."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.AST) -> set[str]:
    """Every name the module reads, writes or deletes."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=[os.path.basename(p) for p in MODULES])
def test_every_imported_name_is_used(path):
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read(), filename=path)
    used = used_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{os.path.basename(path)} imports names it never uses: {unused}"


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import os\nfrom math import pi, tau\n"
                     "def f():\n    from typing import Sequence\n    return pi\n")
    assert sorted(set(imported_names(tree)) - used_names(tree)) == ["Sequence", "os", "tau"]
