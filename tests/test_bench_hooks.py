"""The benchmark's trace hooks still name the program's layers.

bench/child.py wraps module attributes by name; a renamed or removed
attribute would break its traced runs without failing any test here.
"""

import importlib.util
from pathlib import Path

from fadestream import engine
from fadestream.channel import FadingModel
from fadestream.schemes import JE, MT, ST

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


def test_serial_run_specs_calls_run_experiment_once_per_spec(monkeypatch):
    """child.py checks each spec's layer calls around engine.run_experiment,
    so a workers=1 run_specs must call it by its module name per spec."""
    calls = []
    original = engine.run_experiment

    def counted(spec, *args, **kwargs):
        calls.append(spec)
        return original(spec, *args, **kwargs)

    monkeypatch.setattr(engine, "run_experiment", counted)
    specs = [
        engine.ExperimentSpec(FadingModel.rayleigh(), 1.0, m, 1.0, scheme, 20, seed)
        for m, scheme, seed in ((5, MT(), 1), (8, JE(), 2), (5, JE(), 3))
    ]
    assert len(engine.run_specs(specs, 1)) == 3
    assert calls == specs
