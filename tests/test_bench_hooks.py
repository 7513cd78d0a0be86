"""The benchmark's trace hooks still name the program's layers.

bench/child.py wraps module attributes by name; a renamed or removed
attribute would break its traced runs without failing any test here.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import fadestream
from fadestream import cli, engine
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
        engine.ExperimentSpec(1.0, m, 1.0, scheme, 20, seed)
        for m, scheme, seed in ((5, MT(), 1), (8, JE(), 2), (5, JE(), 3))
    ]
    assert len(engine.run_specs(specs, 1)) == 3
    assert calls == specs


def test_traced_cli_runs_make_the_calls_the_benchmark_expects(tmp_path, monkeypatch):
    """child.py's trace mode checks every spec's sampler, chunk and kernel
    calls against engine._chunk_ranges; a run path that skips or repeats a
    layer call would only show up in a traced benchmark run."""
    child = load_child()
    for owner, attr, _, _ in child.HOOKS:
        monkeypatch.setattr(owner, attr, getattr(owner, attr))  # restored at teardown
    monkeypatch.setattr(engine, "ProcessPoolExecutor", engine.ProcessPoolExecutor)
    tracer = child.Tracer()
    child.install(tracer, "trace")
    out = str(tmp_path / "out")
    assert cli.main(["--preset", "fig5a", "--trials", "30", "--out", out]) == 0
    assert tracer.points == 7
    assert cli.main(["--preset", "fig7", "--trials", "30", "--out", out]) == 0
    assert tracer.points == 7 + 120
    assert tracer.problems == []


def test_probe_reports_the_scipy_version_from_a_fresh_interpreter():
    """child.py reads sys.modules["scipy"] after `import fadestream.cli`, so
    the CLI's import must load scipy itself, even with no scipy.special."""
    src = os.path.dirname(os.path.dirname(fadestream.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(CHILD), "probe"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["versions"]["scipy"]
