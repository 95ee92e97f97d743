"""Every name a package module imports is used in that module, every
private name a module defines at its top level is used in the package,
and every public name is read by another module or allowlisted.

Each module is parsed with ast, never imported. An import at any level
counts, a function-local one included, and a use anywhere in the module
counts as its use. A private name (_function, _Class, _CONSTANT) counts
as used when some module of the package reads it, by name or as an
attribute, outside the definition that binds it; so a helper whose last
caller is deleted fails the check. A public name (one that __init__'s
_EXPORTS table serves) counts as used when a module other than its own
reads it, by name or as an attribute; each other one needs an entry in
PUBLIC_ONLY, so that a new public name comes with a reason.
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


def private_definitions(tree: ast.Module) -> dict[str, ast.AST]:
    """Each private, non-dunder name bound at the module's top level by a
    def, a class or an assignment, with the statement that binds it."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [n.id for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.endswith("__"):
                defined[name] = node
    return defined


def orphaned_private_names(trees: dict[str, ast.Module]) -> dict[str, list[str]]:
    """Per module, the private names of private_definitions that no module
    reads outside the definition binding them."""
    reads = [(node.id if isinstance(node, ast.Name) else node.attr, node)
             for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
             or isinstance(node, ast.Attribute)]
    orphans = {}
    for module, tree in trees.items():
        for name, definition in private_definitions(tree).items():
            inside = set(map(id, ast.walk(definition)))
            if not any(read == name and id(node) not in inside for read, node in reads):
                orphans.setdefault(module, []).append(name)
    return orphans


def test_every_private_name_is_used():
    trees = {}
    for path in MODULES:
        with open(path, encoding="utf-8") as f:
            trees[os.path.basename(path)] = ast.parse(f.read(), filename=path)
    orphans = orphaned_private_names(trees)
    assert not orphans, f"private names that nothing in the package uses: {orphans}"


def test_the_check_sees_an_orphaned_private_name():
    trees = {"a.py": ast.parse("_USED = 1\n_ORPHAN, _PAIRED = 2, 3\n__all__ = []\n"
                               "def _start():\n    return _USED\n"
                               "def _recursive(n):\n    return _recursive(n - 1)\n"
                               "class _Kept:\n    pass\n"
                               "def public():\n    return _start(), _PAIRED\n"),
             "b.py": ast.parse("from . import a\nkept = a._Kept\n")}
    assert orphaned_private_names(trees) == {"a.py": ["_ORPHAN", "_recursive"]}


# the public names that no other module reads, each with the reason it is
# public: a spec family that the CLI reaches by name, the type of a result
# or an error that a public function gives its caller, or a paper claim
PUBLIC_ONLY = {
    "CobwebPath": "cobweb_path returns it",
    "DensityReport": "density_report returns it",
    "PreimageSet": "zero_preimage_set returns it",
    "CrosscheckReport": "crosscheck_closed_form returns it",
    "ConjugacyReport": "verify_conjugacy and verify_semiconjugacy return it",
    "Orbit": "orbit returns it",
    "RangeError": "every size over its cap raises it, so a caller can catch it by name",
    "fractional_iterate_hyperbola": "C05, the fractional iterates of the hyperbola map",
    "fractional_iterate_quadratic": "C05, the fractional iterates of 2x^2 - 1",
    "herschel_relation_residual": "C07, the functional relation of the Mobius family",
    "orbit_consistency": "C09, the fold obstruction",
    "arcsine_cdf": "C12, the logistic map's invariant law, which STAGES gives its raw stage",
    "Affine": "the homeo spec family affine:p=,q=",
    "AlphaArcsin": "the homeo spec family alpha",
    "CompositionH": "the homeo spec form (h1 o h2)",
    "Mobius": "the homeo spec family mobius:a=,b=",
    "PiecewiseLinearHomeo": "the homeo spec family pwlh:",
    "Power": "the homeo spec family power:g=",
    "Reflect": "the homeo spec family reflect",
    "Conjugated": "the map spec form conj:<map>|<homeo>",
    "Cosine": "the map spec family cosine",
    "Doubling": "the map spec family doubling",
    "HalfTent": "the map spec family halftent",
    "SineSquared": "the map spec family sinsq",
    "Verhulst": "the map spec family verhulst:m=,n=",
}


def exported_names(init: ast.Module) -> dict[str, str]:
    """Each public name of __init__'s _EXPORTS table, with its module."""
    for node in init.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["_EXPORTS"]:
            exports = ast.literal_eval(node.value)
            return {name: module for module, names in exports.items() for name in names}
    raise AssertionError("__init__.py has no _EXPORTS table")


def orphaned_public_names(trees: dict[str, ast.Module]) -> list[str]:
    """The public names that no module other than their own reads."""
    readers = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                readers.setdefault(node.id, set()).add(module)
            elif isinstance(node, ast.Attribute):
                readers.setdefault(node.attr, set()).add(module)
    return sorted(name for name, module in exported_names(trees["__init__.py"]).items()
                  if not readers.get(name, set()) - {module + ".py"})


def test_every_public_name_is_read_or_allowlisted():
    trees = {}
    for path in MODULES:
        with open(path, encoding="utf-8") as f:
            trees[os.path.basename(path)] = ast.parse(f.read(), filename=path)
    orphans = set(orphaned_public_names(trees))
    assert not orphans - set(PUBLIC_ONLY), \
        f"public names that no other module reads, and that PUBLIC_ONLY does not list: " \
        f"{sorted(orphans - set(PUBLIC_ONLY))}"
    assert not set(PUBLIC_ONLY) - orphans, \
        f"PUBLIC_ONLY lists names that are not public or that another module reads: " \
        f"{sorted(set(PUBLIC_ONLY) - orphans)}"


def test_the_check_sees_an_orphaned_public_name():
    trees = {"__init__.py": ast.parse('_EXPORTS = {"a": ("used", "attribute", "orphan", '
                                      '"self_read"), "b": ("B",)}\n'),
             "a.py": ast.parse("def used():\n    pass\ndef attribute():\n    pass\n"
                               "def orphan():\n    pass\ndef self_read():\n    pass\n"
                               "x = self_read()\n"),
             "b.py": ast.parse("from .a import used\nfrom . import a\nclass B:\n    pass\n"
                               "y = used(), a.attribute(), B\n")}
    assert orphaned_public_names(trees) == ["B", "orphan", "self_read"]
