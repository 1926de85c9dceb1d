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

A private top-level name of ``src/`` (a def, class or assignment whose
name starts with one underscore) counts as used when some module of
``src/`` reads it outside its own definition; one that is not should be
deleted or listed below with its reason.

And no module of ``src/``, ``tests/`` or ``demos/`` imports a name that it
never reads.
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


# Private names of src/ kept though no src/ module reads them, with the reason.
ALLOWED_UNREAD_PRIVATE: dict[str, str] = {}


def private_definitions(trees: dict):
    """(module path, name, definition node) of each private top-level def,
    class and assigned name."""
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for target in targets for n in ast.walk(target)
                         if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    yield path, name, node


def unread_private_names(trees: dict) -> set:
    """``module.name`` of each private definition no module reads outside it."""
    return {f"{path.stem}.{name}" for path, name, node in private_definitions(trees)
            if not any(name in referenced_names(tree, skip=node if other == path else None)
                       for other, tree in trees.items())}


def test_every_private_name_is_read_in_src():
    unread = unread_private_names(package_trees())
    assert set(ALLOWED_UNREAD_PRIVATE) <= unread, "allowed names that are read"
    unread = sorted(unread - set(ALLOWED_UNREAD_PRIVATE))
    assert unread == [], "private names nothing in src/ reads: " + ", ".join(unread)


def test_the_unread_private_name_scan_can_fail(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("_READ = 1\n_UNREAD: int = 2\n_a, _b = 3, 4\n"
                      "def _recursive(n):\n    return _recursive(n - 1)\n"
                      "class _Used:\n    pass\n"
                      "__all__ = []\nprint(_READ, _a, _Used)\n", encoding="utf-8")
    trees = {module: ast.parse(module.read_text(encoding="utf-8"))}
    assert unread_private_names(trees) == {"module._UNREAD", "module._b", "module._recursive"}


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


def unused_imports(path: Path) -> list:
    """(line, name) of each name that a module imports and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_no_module_imports_a_name_it_never_reads():
    unused = [f"{path.relative_to(ROOT)}:{line} {name}"
              for folder in ("src", "tests", "demos")
              for path in sorted((ROOT / folder).rglob("*.py"))
              for line, name in unused_imports(path)]
    assert unused == [], "unused imports: " + ", ".join(unused)


def test_the_unused_import_scan_can_fail(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("from __future__ import annotations\n"
                      "import os.path\nimport sys\nfrom math import pi as PI, tau\n"
                      "tau = sys.argv\nprint(PI)\n", encoding="utf-8")
    assert unused_imports(module) == [(2, "os"), (4, "tau")]
