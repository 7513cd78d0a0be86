"""fadestream benchmark: CLI presets timed end to end, or traced by layer.

    python3 bench/run.py --workload cmf50 --seed 1 --seconds 20 --trace 0

Each workload is one `fadestream --preset ...` run at a fixed trial count,
made through `fadestream.cli.main` in a fresh process (bench/child.py) with
the checkout's `src` on PYTHONPATH.  The seed is passed to the CLI as
`--seed`.  Every output is checked; see check_output.

--trace 0  repeats the timed invocation until --seconds have passed (two at
           least) and reports the end-to-end metrics; trials_per_s is scaled
           to the reference host speed by a probe run beside main() (see
           reference_main_s), setup_s and peak_rss_mb are medians.
--trace 1  repeats traced/untraced pairs of invocations at workers=1, plus a
           run with spans around the process pool when the workload uses
           one, and reports the per-layer metrics as medians.

The last line of standard output is the JSON result; the lines before it
repeat each metric with its unit, the error rate, and a record of the
environment and output digests.  See bench/README.md for the workloads.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CHILD = BENCH_DIR / "child.py"

SETUP_PROBES = 6  # import-only processes per timed run, besides one warm-up
MIN_TIMED = 2  # timed invocations per run, so that same-seed outputs are compared
RUN_BUDGET_S = 170.0  # no invocation may run past this many seconds into a run
# CPU time of one host-speed probe sample (bench/child.py HostProbe) at the
# usual speed of the reference host: 2 vCPUs of an Intel Xeon at 2.1 GHz,
# numpy 2.4.6.  It sets the level of trials_per_s, not its changes.
PROBE_REF_S = 0.48e-3
MAX_PROBLEMS_SHOWN = 20


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    trials: int
    workers: int
    m_total: int
    rows: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cmf50", "fig5a", trials=20000, workers=1, m_total=50, rows=7),
        Workload("rate100", "fig7", trials=1000, workers=1, m_total=100, rows=120),
        Workload("window2000", "fig4", trials=8000, workers=2, m_total=2000, rows=22),
    )
}

END_TO_END_UNITS = {"trials_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {
    "channel.sample_s": "s",
    "channel.sample_us_per_trial": "us",
    "channel.capacities_s": "s",
    "channel.ergodic_capacity_calls_per_point": "calls/point",
    "channel.ergodic_capacity_s": "s",
    "schemes.mt_counts_s": "s",
    "schemes.je_counts_s": "s",
    "schemes.aje_counts_s": "s",
    "schemes.ts_counts_s": "s",
    "schemes.gts_counts_s": "s",
    "schemes.st_counts_s": "s",
    "bounds.informed_counts_s": "s",
    "schemes.kernel_ns_per_block": "ns",
    "engine.self_s": "s",
    "engine.chunks": "count",
    "engine.pool_starts": "count",
    "engine.pool_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}

# kernels over the (trials x blocks) capacity matrix; st works on gains with
# an O(M^2) profile and is reported on its own
CAPS_KERNELS = (
    "schemes.mt_counts",
    "schemes.je_counts",
    "schemes.aje_counts",
    "schemes.ts_counts",
    "schemes.gts_counts",
    "bounds.informed_counts",
)

REQUIRED_NUMBERS = (
    "blocks", "rate", "power_db", "mean_rate", "rate_se", "mean_decoded",
    "ergodic_bound", "seed", "trials",
)
OPTIONAL_NUMBERS = ("distance", "path_loss", "window", "m_prime")


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def _parse_rows(text):
    if text.startswith("{"):
        return json.loads(text)["rows"]
    body = [line for line in text.splitlines() if not line.startswith("#")]
    return list(csv.DictReader(body))


def _number(value):
    if value is None or value == "":
        return None
    return float(value)


def _row_problem(row, workload):
    """First failed check of one output row, or None."""
    try:
        numbers = {k: _number(row[k]) for k in REQUIRED_NUMBERS + OPTIONAL_NUMBERS}
        cmf = [float(x) for x in row.get("cmf", [])]
    except (KeyError, TypeError, ValueError) as exc:
        return f"unreadable field: {exc!r}"
    for key in REQUIRED_NUMBERS:
        if numbers[key] is None:
            return f"{key} missing"
    if not all(math.isfinite(v) for v in numbers.values() if v is not None):
        return "non-finite field"
    if not all(math.isfinite(x) for x in cmf):
        return "non-finite cmf"
    if cmf and (any(b < a for a, b in zip(cmf, cmf[1:])) or cmf[-1] != 1.0):
        return "cmf not a distribution"
    if numbers["trials"] != workload.trials:
        return f"trials {numbers['trials']:g} != {workload.trials}"
    if numbers["blocks"] != workload.m_total:
        return f"blocks {numbers['blocks']:g} != {workload.m_total}"
    if not 0.0 <= numbers["mean_rate"] <= numbers["rate"]:
        return f"mean_rate {numbers['mean_rate']!r} outside [0, rate]"
    return None


def check_output(text, workload):
    """(rows failed, problems) for one CLI output; a bad layout fails every row."""
    try:
        rows = _parse_rows(text)
    except (ValueError, KeyError, TypeError) as exc:
        return workload.rows, [f"unparseable output: {exc!r}"]
    if len(rows) != workload.rows:
        return workload.rows, [f"{len(rows)} rows, expected {workload.rows}"]
    problems = [p for p in (_row_problem(row, workload) for row in rows) if p]
    return len(problems), problems


# ---------------------------------------------------------------------------
# invocations
# ---------------------------------------------------------------------------


@dataclass
class Invocation:
    report: dict | None  # the child's JSON line, None if it failed
    setup_s: float | None
    output: bytes | None
    problems: list = field(default_factory=list)


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _stop_group(pgid):
    """Kill what is left of a child's process group and wait for it to go."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def invoke(root, mode, timeout, workload=None, seed=None, workers=None, out=None):
    """One child process; the CLI arguments are given unless mode is probe."""
    argv = [sys.executable, str(CHILD), mode]
    if mode != "probe":
        argv += [
            "--preset", workload.preset, "--trials", str(workload.trials),
            "--seed", str(seed), "--workers", str(workers), "--out", str(out),
        ]
        if out.exists():
            out.unlink()
    src = str(root / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    spawned = _now()
    proc = subprocess.Popen(
        argv, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        _stop_group(proc.pid)
        proc.communicate()
        return Invocation(None, None, None, [f"{mode}: timed out after {timeout:.0f} s"])
    _stop_group(proc.pid)
    try:
        report = json.loads(stdout.decode().splitlines()[-1])
    except (IndexError, ValueError):
        tail = stderr.decode(errors="replace").strip().splitlines()[-1:] or ["no output"]
        return Invocation(None, None, None, [f"{mode}: child failed ({proc.returncode}): {tail[0]}"])
    problems = []
    if proc.returncode != 0:
        problems.append(f"{mode}: child exit code {proc.returncode}")
    if not Path(report["module"]).resolve().is_relative_to(Path(src).resolve()):
        problems.append(f"{mode}: imported {report['module']}, not the checkout's")
    output = None
    if mode != "probe":
        if report["exit"] != 0:
            problems.append(f"{mode}: fadestream exit code {report['exit']}")
        if out.exists():
            output = out.read_bytes()
            out.unlink()
        else:
            problems.append(f"{mode}: no output written")
        problems += report.get("trace", {}).get("problems", [])
    return Invocation(report, report["imported"] - spawned, output, problems)


class Ledger:
    """Rows attempted and failed, same-seed output identity, and digests."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference = None
        self.digests = []

    def add(self, inv, label):
        self.attempted += self.workload.rows
        problems = [f"{label}: {p}" for p in inv.problems]
        failed = self.workload.rows if problems else 0
        if inv.output is not None:
            digest = hashlib.sha256(inv.output).hexdigest()
            if digest not in self.digests:
                self.digests.append(digest)
            if self.reference is None:
                self.reference = (label, inv.output)
            elif inv.output != self.reference[1]:
                problems.append(f"{label}: output differs from {self.reference[0]} (same seed)")
                failed = self.workload.rows
            bad_rows, row_problems = check_output(inv.output.decode(errors="replace"), self.workload)
            problems += [f"{label}: {p}" for p in row_problems]
            failed = max(failed, bad_rows)
        self.failed += failed
        self.problems += problems


# ---------------------------------------------------------------------------
# timed and traced runs
# ---------------------------------------------------------------------------


def _spread(values):
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.6g} q3={q3:.6g}"


def reference_main_s(report):
    """main() time without the probes' own, scaled to the reference host speed."""
    host = report["host"]
    probe_s = host["cpu_s"] / host["samples"]
    return (report["main_s"] - host["in_main_s"]) * PROBE_REF_S / probe_s


def timed_run(workload, seed, seconds, root, out):
    start = time.monotonic()
    deadline, budget = start + seconds, start + RUN_BUDGET_S
    ledger = Ledger(workload)
    invoke(root, "probe", budget - time.monotonic())  # warm-up: file caches, bytecode
    probes = [invoke(root, "probe", budget - time.monotonic()) for _ in range(SETUP_PROBES)]
    for probe in probes:
        ledger.problems += probe.problems
    runs, durations = [], []
    while len(runs) < MIN_TIMED or time.monotonic() + statistics.median(durations) <= deadline:
        began = time.monotonic()
        if began >= budget:
            break
        inv = invoke(root, "run", budget - began, workload, seed, workload.workers, out)
        durations.append(time.monotonic() - began)
        runs.append(inv)
        ledger.add(inv, f"timed run {len(runs)}")
    good = [inv for inv in runs if inv.report is not None]
    setups = [inv.setup_s for inv in probes + good if inv.setup_s is not None]
    if not good or not setups:
        return ledger, None, None, {}
    trials = workload.rows * workload.trials
    rates = [trials / reference_main_s(inv.report) for inv in good]
    wall_rates = [trials / inv.report["main_s"] for inv in good]
    probe_ms = [1e3 * inv.report["host"]["cpu_s"] / inv.report["host"]["samples"] for inv in good]
    rss = [inv.report["rss_kb"] / 1024.0 for inv in good]
    metrics = {
        # all trials over all main() time: a ratio of sums moves smoothly with
        # the share of slow host time that the probe scaling leaves
        "trials_per_s": trials * len(good) / sum(reference_main_s(inv.report) for inv in good),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss),
    }
    notes = {
        "trials_per_s": f"{_spread(rates)}; unscaled "
        f"{trials * len(good) / sum(inv.report['main_s'] for inv in good):.6g} 1/s "
        f"({_spread(wall_rates)}); probe {statistics.median(probe_ms):.4g} ms "
        f"(reference {1e3 * PROBE_REF_S:.4g} ms, {_spread(probe_ms)})",
        "setup_s": _spread(setups),
        "peak_rss_mb": f"{_spread(rss)} max={max(rss):.6g}",
    }
    return ledger, metrics, good[0].report["versions"], notes


def _layer_metrics(trace, pool_trace, traced_s, untraced_s):
    total, calls, items = trace["total"], trace["calls"], trace["items"]
    sampled = items.get("channel.sample", 0)
    kernel_blocks = sum(items.get(k, 0) for k in CAPS_KERNELS)
    metrics = {
        "channel.sample_s": total.get("channel.sample", 0.0),
        "channel.sample_us_per_trial": 1e6 * total.get("channel.sample", 0.0) / max(sampled, 1),
        "channel.capacities_s": total.get("channel.capacities", 0.0),
        "channel.ergodic_capacity_calls_per_point":
            calls.get("channel.ergodic_capacity", 0) / max(trace["points"], 1),
        "channel.ergodic_capacity_s": total.get("channel.ergodic_capacity", 0.0),
    }
    for kernel in CAPS_KERNELS + ("schemes.st_counts",):
        metrics[f"{kernel}_s"] = total.get(kernel, 0.0)
    metrics["schemes.kernel_ns_per_block"] = (
        1e9 * sum(total.get(k, 0.0) for k in CAPS_KERNELS) / max(kernel_blocks, 1)
    )
    pool = pool_trace if pool_trace is not None else trace
    metrics.update({
        "engine.self_s": trace["self"].get("engine.run_experiment", 0.0),
        "engine.chunks": calls.get("engine.chunks", 0),
        "engine.pool_starts": pool["calls"].get("engine.pool_starts", 0),
        "engine.pool_s": pool["total"].get("engine.pool", 0.0),
        "cli.self_s": trace["self"].get("cli.main", 0.0),
        "trace.overhead_frac": (traced_s - untraced_s) / untraced_s,
    })
    return metrics


def _shares(metrics, main_s):
    """Each layer's share of the traced main() time, to name the dominant one."""
    parts = {
        "sampler": metrics["channel.sample_s"],
        "capacities": metrics["channel.capacities_s"],
        "ergodic_capacity": metrics["channel.ergodic_capacity_s"],
        "caps_kernels": sum(metrics[f"{k}_s"] for k in CAPS_KERNELS),
        "st": metrics["schemes.st_counts_s"],
        "engine_self": metrics["engine.self_s"],
        "cli_self": metrics["cli.self_s"],
    }
    return " ".join(f"{name}={value / main_s:.3f}" for name, value in parts.items())


def traced_run(workload, seed, seconds, root, out):
    start = time.monotonic()
    deadline, budget = start + seconds, start + RUN_BUDGET_S
    ledger = Ledger(workload)
    cycles, traced_mains, durations, versions = [], [], [], None
    while not durations or time.monotonic() + statistics.median(durations) <= deadline:
        began = time.monotonic()
        if began >= budget:
            break
        n = len(durations) + 1
        traced = invoke(root, "trace", budget - began, workload, seed, 1, out)
        ledger.add(traced, f"traced run {n} (workers=1)")
        plain = invoke(root, "run", budget - time.monotonic(), workload, seed, 1, out)
        ledger.add(plain, f"untraced run {n} (workers=1)")
        pooled = None
        if workload.workers > 1:
            pooled = invoke(
                root, "pool", budget - time.monotonic(), workload, seed, workload.workers, out
            )
            ledger.add(pooled, f"pool-traced run {n} (workers={workload.workers})")
        durations.append(time.monotonic() - began)
        if any(inv is not None and inv.report is None for inv in (traced, plain, pooled)):
            continue
        versions = traced.report["versions"]
        traced_mains.append(traced.report["main_s"])
        cycles.append(_layer_metrics(
            traced.report["trace"],
            None if pooled is None else pooled.report["trace"],
            traced.report["main_s"],
            plain.report["main_s"] - plain.report["host"]["in_main_s"],
        ))
    if not cycles:
        return ledger, None, None, {}
    metrics = {name: statistics.median([c[name] for c in cycles]) for name in PER_LAYER_UNITS}
    main_s = statistics.median(traced_mains)
    notes = {
        "trace.overhead_frac": f"cycles={len(cycles)} traced main={main_s:.4g} s; "
        f"shares {_shares(metrics, main_s)}"
    }
    return ledger, metrics, versions, notes


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def git_sha(root):
    if not (root / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_workload(workload, seed, seconds, trace, root=ROOT):
    """(result, report lines) for one benchmark run; result is None if nothing ran."""
    work_dir = root / ".bench_run"
    work_dir.mkdir(exist_ok=True)
    out = work_dir / f"{workload.name}-{os.getpid()}.out"
    runner = traced_run if trace else timed_run
    ledger, metrics, versions, notes = runner(workload, seed, seconds, root, out)
    lines = [
        f"workload={workload.name} preset={workload.preset} trials={workload.trials} "
        f"M={workload.m_total} workers={workload.workers} seed={seed} trace={int(trace)}"
    ]
    lines += [f"problem: {p}" for p in ledger.problems[:MAX_PROBLEMS_SHOWN]]
    if len(ledger.problems) > MAX_PROBLEMS_SHOWN:
        lines.append(f"problem: ... {len(ledger.problems) - MAX_PROBLEMS_SHOWN} more")
    if metrics is None:
        return None, lines
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    for name, unit in units.items():
        lines.append(f"{name} {metrics[name]:.6g} {unit} {notes.get(name, '')}".rstrip())
    error_rate = ledger.failed / ledger.attempted
    lines.append(f"error_rate {error_rate:.6g} 1 ({ledger.failed} of {ledger.attempted} rows failed)")
    record = {
        "workload": workload.name,
        "nproc": len(os.sched_getaffinity(0)),
        **versions,
        "git_sha": git_sha(root),
        "seed": seed,
        "trials": workload.trials,
        "M": workload.m_total,
        "workers": workload.workers,
        "output_sha256": ledger.digests,
    }
    lines.append("record " + json.dumps(record))
    result = {
        "correct": ledger.failed == 0 and not ledger.problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64 or args.seconds < 1:
        parser.error("--seed must fit in 64 bits and --seconds must be >= 1")
    if not (ROOT / "src" / "fadestream" / "cli.py").is_file():
        print(f"bench: no fadestream sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result, lines = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    if result is None:
        print("bench: no invocation completed; nothing to report", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
