"""The benchmark's trace hooks still name the program's layers.

bench/child.py wraps module attributes by name; a renamed or removed
attribute would break its traced runs without failing any test here.
"""

import importlib.util
from pathlib import Path

from fadestream import engine
from fadestream.schemes import ST

CHILD = Path(__file__).resolve().parents[1] / "bench" / "child.py"


def load_child():
    spec = importlib.util.spec_from_file_location("bench_child", CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_resolves_and_every_scheme_has_a_kernel():
    child = load_child()
    for owner, attr, name, _ in child.HOOKS:
        assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr}"
    assert set(engine._CAPACITY_KERNELS) | {ST} <= set(child.KERNEL_OF)
    kernel_spans = {name for _, _, name, kind in child.HOOKS if kind == "kernel"}
    assert set(child.KERNEL_OF.values()) <= kernel_spans
