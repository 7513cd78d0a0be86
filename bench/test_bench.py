"""Smoke test of the benchmark at tiny trial counts.

    python3 -m pytest bench/test_bench.py -q

Runs every workload through bench/run.py's run_workload with a few trials,
checks that each metric named in BENCHMARK.json is printed with its unit,
and that a broken program copy raises the error rate.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_TRIALS = {"cmf50": 50, "rate100": 20, "window2000": 20}


def tiny(name):
    return dataclasses.replace(run.WORKLOADS[name], trials=TINY_TRIALS[name])


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY_TRIALS))
def test_every_metric_is_printed_with_its_unit(name, trace):
    result, lines = run.run_workload(tiny(name), seed=5, seconds=1, trace=trace)
    assert result is not None, lines
    assert result["correct"] and result["failed"] == 0, lines
    assert result["attempted"] % tiny(name).rows == 0 and result["attempted"] > 0
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    printed = {line.split()[0]: line.split()[2] for line in lines if len(line.split()) >= 3}
    for metric, unit in {**wanted, "error_rate": "1"}.items():
        assert printed.get(metric) == unit, (metric, lines)
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    json.dumps(result, allow_nan=False)


def test_host_probe_scales_main_time():
    # probes at twice the reference time: the host ran at half speed
    report = {"main_s": 10.5, "host": {"samples": 4, "cpu_s": 8 * run.PROBE_REF_S, "in_main_s": 0.5}}
    assert run.reference_main_s(report) == pytest.approx(5.0)


# (file, original text, replacement, trace, expected error rate).  A timed run
# at seconds=1 makes exactly two invocations; a traced cmf50 run makes a
# traced and an untraced one.
BREAKAGES = {
    "nan-in-one-row": (
        "cli.py",
        '"mean_rate": result.mean_rate,',
        '"mean_rate": float("nan") if _scheme_tag(scheme) == "st" else result.mean_rate,',
        False,
        1 / 7,
    ),
    "output-differs-between-runs": (
        "cli.py",
        '"note": preset["note"],',
        '"note": f"{preset[\'note\']} {os.getpid()}",',
        False,
        1 / 2,
    ),
    "trace-misses-calls": (
        "engine.py",
        "    caps = capacities(phis, power)\n",
        "    caps = capacities(phis, power)\n    capacities(phis[:1], power)\n",
        True,
        1 / 2,
    ),
}


@pytest.mark.parametrize("breakage", sorted(BREAKAGES))
def test_broken_output_raises_error_rate(tmp_path, breakage):
    filename, original, replacement, trace, error_rate = BREAKAGES[breakage]
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "src" / "fadestream" / filename
    text = path.read_text()
    assert text.count(original) == 1
    path.write_text(text.replace(original, replacement))
    result, lines = run.run_workload(tiny("cmf50"), seed=5, seconds=1, trace=trace, root=tmp_path)
    assert result is not None, lines
    assert not result["correct"]
    assert result["failed"] / result["attempted"] == pytest.approx(error_rate), lines
    assert any(line.startswith("error_rate ") for line in lines)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "cmf50", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
