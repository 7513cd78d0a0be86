"""Every name a module imports is read somewhere in that module, every
private name a package module binds is read somewhere in the package, each
package module imports only from the layers below its own, and each shared
input rule is stated once in the package."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for top in ("src", "demos", "tests") for p in (ROOT / top).rglob("*.py"))

# imported for bench/child.py: its HOOKS wrap the first two module attributes
# by name, and it reads the version of the scipy that `import scipy` loads.
# ROADMAP item 1 moves those hooks to the functions the program calls and
# lets the version read find no scipy; then these imports go, and an entry
# that bench/child.py no longer reads fails the test below
KEPT_FOR_BENCH_HOOKS = {
    ("src/fadestream/engine.py", "ergodic_capacity"),
    ("src/fadestream/cli.py", "run_experiment"),
    ("src/fadestream/channel.py", "scipy"),
}

PACKAGE = ROOT / "src" / "fadestream"

# the package's modules from the bottom layer up.  `from . import name` of a
# name that is not a module reads the package's __init__, which imports every
# module but cli
LAYERS = ({"channel"}, {"schemes", "bounds", "analytic"}, {"engine"}, {"__init__"}, {"cli"})


def unread_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import and never loaded; a package's __all__ counts
    as a read of the names it lists."""
    bound, read = [], set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) != "__future__":
                bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
            read |= set(ast.literal_eval(node.value))
    return [name for name in bound if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    unread = [
        (path.relative_to(ROOT).as_posix(), name)
        for path in SOURCES
        for name in unread_imports(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert SOURCES
    assert [entry for entry in unread if entry not in KEPT_FOR_BENCH_HOOKS] == []


def test_the_check_sees_an_unread_import():
    source = "import os, numpy as np\nfrom sys import argv, path\n__all__ = ['path']\nnp.sum(argv)\n"
    assert unread_imports(ast.parse(source)) == ["os"]


def bench_reads(tree: ast.Module) -> set[tuple[str, str]]:
    """What a module like bench/child.py reads by name: the
    (owner, attribute) pairs of its HOOKS, and ("sys.modules", name) for
    each sys.modules[name] it looks up."""
    hooks = next(
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "HOOKS"
    )
    read = {(ast.unparse(row.elts[0]), row.elts[1].value) for row in hooks.elts}
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and ast.unparse(node.value) == "sys.modules":
            read.add(("sys.modules", node.slice.value))
    return read


def test_every_import_kept_for_the_bench_hooks_is_still_read_there():
    read = bench_reads(ast.parse((ROOT / "bench" / "child.py").read_text()))
    left_over = [
        (path, name) for path, name in sorted(KEPT_FOR_BENCH_HOOKS)
        if (Path(path).stem, name) not in read and ("sys.modules", name) not in read
    ]
    assert left_over == []


def test_the_bench_check_sees_hooks_and_module_lookups():
    source = 'HOOKS = ((cli, "main", "cli.main", "span"),)\nimport sys\nsys.modules["scipy"].x\n'
    assert bench_reads(ast.parse(source)) == {("cli", "main"), ("sys.modules", "scipy")}


def package_imports(tree: ast.Module) -> set[str]:
    """The package modules that a module's relative imports read."""
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is not None:
                read.add(node.module)
            else:
                read |= {alias.name if alias.name in modules else "__init__" for alias in node.names}
    return read


def test_package_modules_import_only_from_lower_layers():
    layer = {name: level for level, names in enumerate(LAYERS) for name in names}
    sources = {path.stem: path for path in PACKAGE.glob("*.py")}
    assert set(sources) == set(layer)
    upward = sorted(
        (name, imported)
        for name, path in sources.items()
        for imported in package_imports(ast.parse(path.read_text(), filename=str(path)))
        if layer[imported] >= layer[name]
    )
    assert upward == []


def test_the_layer_check_sees_both_import_forms():
    source = "from . import schemes, __version__\nfrom .engine import run_specs\nfrom os import path\n"
    assert package_imports(ast.parse(source)) == {"schemes", "__init__", "engine"}


def private_names(tree: ast.Module) -> set[str]:
    """The private names (_x, not __x__) that a module binds at its top
    level, by a def, a class or an assignment."""
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound |= {name.id for target in targets for name in ast.walk(target) if isinstance(name, ast.Name)}
    return {name for name in bound if name.startswith("_") and not name.endswith("__")}


def names_read(tree: ast.Module) -> set[str]:
    """The names a module reads: loaded, loaded as an attribute, or imported."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read |= {alias.name for alias in node.names}
    return read


def unread_private_names(trees: dict[str, ast.Module]) -> list[tuple[str, str]]:
    """(module, name) for each private top-level name that no module of
    `trees` reads: a helper left behind when its last caller went."""
    read = set().union(*map(names_read, trees.values()))
    return sorted((module, name) for module, tree in trees.items() for name in private_names(tree) - read)


def test_every_private_package_name_is_read_in_the_package():
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in PACKAGE.glob("*.py")}
    assert any(map(private_names, trees.values()))
    assert unread_private_names(trees) == []


def test_the_check_sees_an_unread_private_name():
    trees = {
        "a": ast.parse("_LIMIT = 2\n_x, __all__ = 1, []\ndef _left(): pass\ndef _used(): return _LIMIT\n"),
        "b": ast.parse("from a import _used\nimport a\na._x\na._left = None\n"),
    }
    assert unread_private_names(trees) == [("a", "_left")]


# the messages of channel._check_positive and channel._check_count: a second
# copy of either text is a second statement of its rule
RULE_MESSAGES = ("must be finite and positive", "must be an integer >= 1")


@pytest.mark.parametrize("message", RULE_MESSAGES)
def test_each_input_rule_is_stated_once_in_the_package(message):
    sources = [path.read_text() for path in PACKAGE.glob("*.py")]
    assert sum(source.count(message) for source in sources) == 1
