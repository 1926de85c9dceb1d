"""Every public top-level function and class of the package has a caller,
and every option of the public API is set by one.

A public name counts as used when it is referenced outside its own
definition: in ``src/`` (another module, or its own module outside the
definition), in a demo, in the benchmark harness or in the README.
Tests alone do not count, so a name that only its own tests exercise is
reported here and should be deleted or listed below with its reason.

An option is a parameter with a default on a public function or on a
public method of a public class.  Some call in ``src/``, a demo or the
benchmark harness must pass it, by position or keyword; an option that
only tests set has one value in use and should become a constant.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "toroidal_em"

# Public names kept without a caller outside the tests, with the reason.
ALLOWED_UNUSED: dict[str, str] = {}


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


# Parameters that may keep a default nobody overrides: ``k`` selects the
# constant set, the package-wide convention for rescaled unit systems.
EXEMPT_OPTIONS = {"k"}


def public_signatures(trees: dict):
    """(qualified name, name, arguments, leading parameters a call does not pass)
    of every public top-level function and public method of a public class."""
    for _, name, node in public_definitions(trees):
        if isinstance(node, ast.FunctionDef):
            yield name, name, node.args, 0
            continue
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in item.decorator_list)
                yield f"{name}.{item.name}", item.name, item.args, 0 if static else 1


def defaulted_parameters(args: ast.arguments, skip: int):
    """(position or None, name) of each parameter that has a default."""
    positional = args.posonlyargs + args.args
    first_default = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional):
        if i >= first_default:
            yield i - skip, arg.arg
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield None, arg.arg


def call_sites() -> list:
    """Every call in ``src/``, ``demos/`` and ``perfbench/``."""
    calls = []
    for folder in ("src", "demos", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            calls += [node for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                      if isinstance(node, ast.Call)]
    return calls


def called_name(call: ast.Call):
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def options() -> tuple[list, list]:
    """(every defaulted parameter, those no call site sets), as qualified names."""
    calls = call_sites()
    defaulted, unset = [], []
    for qualname, name, args, skip in public_signatures(package_trees()):
        mine = [c for c in calls if called_name(c) == name]
        for position, param in defaulted_parameters(args, skip):
            defaulted.append(f"{qualname}({param})")
            if param in EXEMPT_OPTIONS:
                continue
            if not any((position is not None and position < len(c.args))
                       or any(kw.arg == param for kw in c.keywords) for c in mine):
                unset.append(f"{qualname}({param})")
    return defaulted, unset


def test_every_option_is_set_by_a_caller():
    defaulted, unset = options()
    print(f"{len(defaulted)} defaulted parameters")
    assert unset == [], "options no caller outside the tests sets: " + ", ".join(unset)
