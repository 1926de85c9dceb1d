"""Every public top-level function and class of the package has a caller.

A public name counts as used when it is referenced outside its own
definition: in ``src/`` (another module, or its own module outside the
definition), in a demo, in the benchmark harness or in the README.
Tests alone do not count, so a name that only its own tests exercise is
reported here and should be deleted or listed below with its reason.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "toroidal_em"

# Public names kept without a caller outside the tests, with the reason.
ALLOWED_UNUSED = {
    "e_phasor": "complex phasor: the reference the tests compare real_fields against",
    "b_phasor": "complex phasor: the reference the tests compare real_fields against",
    "fd_div_cylindrical": "public FD divergence: the reference the property tests "
                          "rebuild full_verification from",
}


def package_trees() -> dict:
    return {path: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def public_definitions(trees: dict):
    """(module path, name, definition node) of each public top-level def/class."""
    for path, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield path, node.name, node


def referenced_names(tree, skip=None) -> set:
    """Identifiers a module reads or imports, outside the ``skip`` subtree."""
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        stack.extend(ast.iter_child_nodes(node))
    return names


def callers_outside_package() -> set:
    names = set()
    for folder in ("demos", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            names |= referenced_names(ast.parse(path.read_text(encoding="utf-8")))
    names |= set(re.findall(r"\w+", (ROOT / "README.md").read_text(encoding="utf-8")))
    return names


def unused_public_names() -> set:
    outside = callers_outside_package()
    trees = package_trees()
    return {name for path, name, node in public_definitions(trees)
            if name not in outside and not any(
                name in referenced_names(tree, skip=node if other == path else None)
                for other, tree in trees.items())}


def test_every_public_name_has_a_caller():
    unused = sorted(unused_public_names() - set(ALLOWED_UNUSED))
    assert unused == [], "public names without a caller: " + ", ".join(unused)


def test_allowlist_holds_only_defined_names_without_callers():
    assert set(ALLOWED_UNUSED) <= unused_public_names()
