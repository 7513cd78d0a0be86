"""Every name a module imports is read somewhere in that module."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for top in ("src", "demos", "tests") for p in (ROOT / top).rglob("*.py"))

# imported for bench/child.py's HOOKS, which wrap these module attributes by
# name; ROADMAP item 1 moves those hooks to the functions the program calls,
# and then both imports go
KEPT_FOR_BENCH_HOOKS = {
    ("src/fadestream/engine.py", "ergodic_capacity"),
    ("src/fadestream/cli.py", "run_experiment"),
}


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
