"""Command-line interface: records, determinism, presets, exit codes."""

import csv
import itertools
import json
import os
import signal
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from functools import lru_cache

import numpy as np
import pytest

import fadestream
import oracles
from fadestream import channel, cli, engine
from fadestream.bounds import InformedBound
from fadestream.cli import main
from fadestream.engine import ExperimentSpec, run_experiment
from fadestream.channel import QuadratureError
from fadestream.schemes import AJE, GTS, JE, MT, ST, TS, choose_m_prime


def run_cli(*argv):
    return main(list(argv))


def read_csv(path):
    with open(path) as handle:
        lines = handle.read().splitlines()
    header = [line for line in lines if line.startswith("#")]
    body = [line for line in lines if not line.startswith("#")]
    rows = list(csv.DictReader(body))
    return header, rows


# ---------------------------------------------------------------------------
# single runs
# ---------------------------------------------------------------------------


def test_single_run_row_matches_binomial_mean(tmp_path):
    out = tmp_path / "mt.csv"
    code = run_cli(
        "--scheme", "mt", "--blocks", "50", "--rate", "1", "--snr-db", "1.44",
        "--trials", "100000", "--seed", "7", "--out", str(out),
    )
    assert code == 0
    header, rows = read_csv(out)
    assert header[0].startswith("# fadestream csv schema=3")
    assert len(rows) == 1
    row = rows[0]
    assert row["scheme"] == "mt"
    assert row["blocks"] == "50" and row["trials"] == "100000" and row["seed"] == "7"
    # binomial mean 50 * 0.4878 = 24.39, allow 3 sigma of the 1e5-trial estimate
    mean_decoded = float(row["mean_decoded"])
    se = np.sqrt(50 * 0.4878 * (1 - 0.4878) / 100000)
    assert abs(mean_decoded - 24.39) <= 3.0 * se + 0.01
    assert row["window"] == "" and row["m_prime"] == "" and row["distance"] == ""
    assert list(rows[0].keys()) == [
        "scheme", "blocks", "rate", "power_db", "distance", "path_loss", "window",
        "m_prime", "mean_rate", "rate_se", "mean_decoded", "ergodic_bound", "seed", "trials",
    ]


def test_csv_output_is_byte_identical_across_runs(tmp_path):
    args = (
        "--scheme", "ts", "--blocks", "12", "--rate", "1", "--snr-db", "0",
        "--trials", "3000", "--seed", "3",
    )
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(*args, "--out", str(a)) == 0
    assert run_cli(*args, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_json_roundtrip_reconstructs_numeric_fields(tmp_path):
    out = tmp_path / "je.json"
    code = run_cli(
        "--scheme", "je", "--blocks", "8", "--rate", "1", "--snr-db", "2",
        "--trials", "4000", "--seed", "11", "--format", "json", "--out", str(out),
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == 3
    row = doc["rows"][0]
    spec = ExperimentSpec(
        power_db=2.0, m_total=8, rate_r=1.0,
        scheme=row_scheme(row), trials=4000, master_seed=11,
    )
    res = run_experiment(spec)
    assert row["mean_rate"] == res.mean_rate
    assert row["rate_se"] == res.rate_se
    assert row["mean_decoded"] == res.mean_decoded
    assert row["cmf"] == [float(x) for x in res.cmf]


def row_scheme(row):
    from fadestream.schemes import JE

    assert row["scheme"] == "je"
    return JE()


def test_stdout_output(capsys):
    code = run_cli(
        "--scheme", "mt", "--blocks", "4", "--rate", "1", "--snr-db", "0",
        "--trials", "100", "--seed", "1",
    )
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("# fadestream csv")
    assert "mt,4,1.0,0.0" in captured.out


def test_gts_run_records_window(tmp_path):
    out = tmp_path / "gts.csv"
    assert run_cli(
        "--scheme", "gts", "--blocks", "10", "--rate", "1", "--snr-db", "2",
        "--window", "4", "--trials", "500", "--seed", "2", "--out", str(out),
    ) == 0
    _, rows = read_csv(out)
    assert rows[0]["window"] == "4"


def test_aje_run_records_resolved_m_prime(tmp_path):
    out = tmp_path / "aje.csv"
    assert run_cli(
        "--scheme", "aje", "--blocks", "100", "--rate", "8", "--snr-db", "20",
        "--trials", "200", "--seed", "2", "--out", str(out),
    ) == 0
    _, rows = read_csv(out)
    # Pinned-M' Monte Carlo at this point (50000 trials): 66 -> 5.137,
    # 67 -> 5.157, 68 -> 5.139, 69 -> 5.057, 70 -> 4.873.
    assert rows[0]["m_prime"] == "67"


def test_aje_row_reuses_the_scheme_its_run_resolved(tmp_path, monkeypatch):
    """Two quadratures resolve M' (the capacity's mean and second moment) and
    one gives the row's c_bar; the row does not resolve the scheme again."""
    calls = []
    expectation = channel._rayleigh_expectation
    monkeypatch.setattr(
        channel, "_rayleigh_expectation", lambda *args: calls.append(args) or expectation(*args)
    )
    cli._cached_cbar.cache_clear()
    assert run_cli("--scheme", "aje", "--blocks", "100", "--rate", "8", "--snr-db", "20",
                   "--trials", "50", "--out", str(tmp_path / "aje.csv")) == 0
    assert len(calls) == 3


@pytest.mark.parametrize("snr_db", ["44", "48", "60"])
def test_aje_runs_at_high_snr(tmp_path, snr_db):
    out = tmp_path / "aje.csv"
    assert run_cli("--scheme", "aje", "--blocks", "10", "--rate", "1", "--snr-db", snr_db,
                   "--trials", "50", "--out", str(out)) == 0
    _, rows = read_csv(out)
    assert 1 <= int(rows[0]["m_prime"]) <= 10


@pytest.mark.parametrize("preset", ["fig5a", "fig5b", "fig6a", "fig6b", "fig7", "fig8"])
def test_preset_m_primes_match_adaptive_quadrature_moments(preset):
    """M' for every aje point equals the choice made from scipy-quad moments,
    and the one that the search with scipy's normal cdf makes."""
    specs = [s for s in cli.PRESETS[preset]["build"](10, 1) if isinstance(s.scheme, AJE)]
    assert specs
    for spec in specs:
        c_mean, c_var = _oracle_moments(engine.received_power(spec).p_linear)
        expect = choose_m_prime(c_mean, spec.rate_r, spec.m_total, c_var=c_var)
        assert engine.resolve_scheme(spec).m_prime == expect
        assert oracles.choose_m_prime(c_mean, spec.rate_r, spec.m_total, c_var) == expect


@lru_cache(maxsize=None)
def _oracle_moments(p_linear):
    return oracles.capacity_moments(p_linear)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def test_sweep_emits_one_row_per_value(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run_cli(
        "--scheme", "mt", "--blocks", "10", "--rate", "1", "--snr-db", "0",
        "--trials", "500", "--seed", "5", "--sweep", "power_db=-3,0,2", "--out", str(out),
    ) == 0
    _, rows = read_csv(out)
    assert [r["power_db"] for r in rows] == ["-3.0", "0.0", "2.0"]
    rates = [float(r["mean_rate"]) for r in rows]
    assert rates == sorted(rates)  # more power, more rate


def test_distance_sweep(tmp_path):
    out = tmp_path / "dist.csv"
    assert run_cli(
        "--scheme", "ts", "--blocks", "20", "--rate", "1", "--snr-db", "20",
        "--distance", "1", "--path-loss", "3", "--sweep", "distance=1,5,9",
        "--trials", "400", "--seed", "5", "--out", str(out),
    ) == 0
    _, rows = read_csv(out)
    assert [r["distance"] for r in rows] == ["1.0", "5.0", "9.0"]
    assert all(r["path_loss"] == "3.0" for r in rows)


def spec_from_row(row):
    """The experiment a row reports, rebuilt from the row's own fields."""
    fixed = {"mt": MT(), "je": JE(), "ts": TS(), "st": ST(), "informed-bound": InformedBound()}
    if row["scheme"] == "gts":
        scheme = GTS(window=row["window"])
    elif row["scheme"] == "aje":
        scheme = AJE(m_prime=row["m_prime"])
    else:
        scheme = fixed[row["scheme"]]
    return ExperimentSpec(
        power_db=row["power_db"],
        m_total=row["blocks"],
        rate_r=row["rate"],
        scheme=scheme,
        trials=row["trials"],
        master_seed=row["seed"],
        distance=None if row["distance"] is None else (row["distance"], row["path_loss"]),
    )


POINT = ("--blocks", "12", "--rate", "1", "--snr-db", "2", "--trials", "40", "--seed", "8")


@pytest.mark.parametrize(
    "argv",
    [
        ("--scheme", "mt", *POINT, "--sweep", "power_db=-3,0,2"),
        ("--scheme", "aje", *POINT, "--sweep", "rate_r=0.5,1.5"),
        ("--scheme", "st", *POINT, "--sweep", "m_total=3,15"),
        ("--scheme", "gts", "--window", "2", *POINT, "--sweep", "window=1,5,12"),
        ("--scheme", "je", *POINT, "--distance", "1", "--path-loss", "3",
         "--sweep", "distance=1,4"),
        ("--preset", "fig7", "--trials", "6", "--seed", "8"),
        ("--preset", "fig4", "--trials", "4", "--seed", "8"),
    ],
    ids=["power_db", "rate_r", "m_total", "window", "distance", "fig7", "fig4"],
)
def test_every_row_regenerates_from_its_own_fields(tmp_path, argv):
    out = tmp_path / "rows.json"
    assert run_cli(*argv, "--format", "json", "--out", str(out)) == 0
    rows = json.loads(out.read_text())["rows"]
    assert {row["seed"] for row in rows} == {8}  # one seed per invocation
    for row in rows:
        result = run_experiment(spec_from_row(row))
        assert (row["mean_rate"], row["rate_se"]) == (result.mean_rate, result.rate_se)


def test_scheme_tables_agree_with_parser_and_configs():
    options = {opt for action in cli.build_parser()._actions for opt in action.option_strings}
    assert "--window" in options
    assert len({entry.tag for entry in engine.DECODERS.values()}) == len(engine.DECODERS)
    for cls, entry in engine.DECODERS.items():
        window = ["--window", "3"] if cls is GTS else []
        args = cli.build_parser().parse_args(["--scheme", entry.tag, *POINT[:6], *window])
        scheme = cli._scheme_from_args(args)
        assert scheme == (GTS(window=3) if cls is GTS else cls())
        assert cli._scheme_tag(scheme) == entry.tag


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


def test_fig7_preset_layout(tmp_path):
    out = tmp_path / "fig7.csv"
    assert run_cli("--preset", "fig7", "--trials", "60", "--seed", "9",
                   "--format", "csv", "--out", str(out)) == 0
    header, rows = read_csv(out)
    assert any("fig7" in line for line in header)
    schemes = {r["scheme"] for r in rows}
    assert schemes == {"mt", "je", "aje", "ts", "st", "informed-bound"}
    rates = sorted({float(r["rate"]) for r in rows})
    assert rates[0] == 0.5 and rates[-1] == 10.0 and len(rates) == 20
    assert len(rows) == 6 * 20
    for row in rows:
        assert row["ergodic_bound"] != ""
        assert float(row["ergodic_bound"]) == pytest.approx(
            min(float(row["rate"]), 5.884), abs=0.001
        )


def test_fig5_preset_defaults_to_json_with_cmf(tmp_path):
    out = tmp_path / "fig5a.json"
    assert run_cli("--preset", "fig5a", "--trials", "50", "--seed", "4", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["run"]["preset"] == "fig5a"
    assert {row["scheme"] for row in doc["rows"]} == {
        "mt", "je", "aje", "ts", "gts", "st", "informed-bound"
    }
    for row in doc["rows"]:
        assert len(row["cmf"]) == 51
        assert row["cmf"][-1] == 1.0
        assert row["blocks"] == 50


def test_fig8_preset_layout(tmp_path):
    out = tmp_path / "fig8.csv"
    assert run_cli("--preset", "fig8", "--trials", "50", "--seed", "9", "--out", str(out)) == 0
    _, rows = read_csv(out)
    assert len(rows) == 6 * 10
    assert {r["distance"] for r in rows} == {f"{d}.0" for d in range(1, 11)}
    assert all(r["path_loss"] == "3.0" and r["blocks"] == "100" for r in rows)
    # adaptive message count shrinks with distance
    m_primes = [int(r["m_prime"]) for r in rows if r["scheme"] == "aje"]
    assert m_primes[0] == 100 and m_primes[-1] < 15


def test_fig4_preset_notes_desk_scale(tmp_path):
    out = tmp_path / "fig4.csv"
    assert run_cli("--preset", "fig4", "--trials", "20", "--seed", "4", "--out", str(out)) == 0
    header, rows = read_csv(out)
    assert any("2000" in line and "note" in line for line in header)
    assert {r["scheme"] for r in rows} == {"gts"}
    assert {r["power_db"] for r in rows} == {"0.0", "2.0"}
    windows = [int(r["window"]) for r in rows if r["power_db"] == "0.0"]
    assert windows[0] == 1 and windows[-1] == 2000


@pytest.mark.parametrize("preset, trials, m_total", [("fig4", 64, 2000), ("fig5a", 300, 50)])
def test_preset_bytes_do_not_depend_on_chunks_or_workers(tmp_path, monkeypatch, preset, trials, m_total):
    """Same seed, same bytes: three trials per chunk or one chunk per point,
    one worker or two."""
    outputs = {}
    for budget in (3 * m_total, 10**9):
        monkeypatch.setattr(engine, "_CHUNK_ELEMENTS", budget)
        for workers in (1, 2):
            out = tmp_path / f"{preset}-{budget}-{workers}"
            argv = ("--preset", preset, "--trials", str(trials), "--seed", "6")
            assert run_cli(*argv, "--workers", str(workers), "--out", str(out)) == 0
            outputs[budget, workers] = out.read_bytes()
    assert len(set(outputs.values())) == 1


@pytest.mark.parametrize("preset", sorted(cli.PRESETS))
def test_every_preset_writes_the_same_bytes_pooled(tmp_path, monkeypatch, counting_pool, preset):
    """A pooled run decodes each (seed, trials) group from one sampled
    batch; its output is the serial run's, byte for byte.  A budget of 100
    gains cuts every preset's 30 trials into several chunks, so the pooled
    run does start its pool."""
    monkeypatch.setattr(engine, "_CHUNK_ELEMENTS", 100)
    outputs = []
    for workers in (1, 2):
        out = tmp_path / f"{preset}-{workers}"
        argv = ("--preset", preset, "--trials", "30", "--seed", "12", "--workers", str(workers))
        assert run_cli(*argv, "--out", str(out)) == 0
        outputs.append(out.read_bytes())
    assert counting_pool.starts == 1
    assert outputs[0] == outputs[1]


# each preset's swept axis and its number of points at every (power, scheme)
PRESET_GRIDS = {
    "fig4": ("window", 22),
    "fig5a": (None, 7),
    "fig5b": (None, 7),
    "fig6a": ("m_total", 600),
    "fig6b": ("m_total", 600),
    "fig7": ("rate_r", 120),
    "fig8": ("distance", 60),
}


@pytest.mark.parametrize("preset", sorted(cli.PRESETS))
def test_preset_grids_run_power_then_scheme_then_axis_value(preset):
    """A preset's specs are the nested product power -> scheme -> axis value,
    all of one seed and trial count, with every other field fixed."""
    axis, count = PRESET_GRIDS[preset]
    specs = cli.PRESETS[preset]["build"](3, 1)
    value_of = {
        None: lambda spec: None,
        "window": lambda spec: spec.scheme.window,
        "m_total": lambda spec: spec.m_total,
        "rate_r": lambda spec: spec.rate_r,
        "distance": lambda spec: spec.distance[0],
    }[axis]
    points = [(s.power_db, cli._scheme_tag(s.scheme), value_of(s)) for s in specs]
    powers, tags, values = (list(dict.fromkeys(column)) for column in zip(*points))
    assert len(specs) == count
    assert points == list(itertools.product(powers, tags, values))
    assert {(s.trials, s.master_seed) for s in specs} == {(3, 1)}
    for field in {"m_total", "rate_r", "distance"} - {axis}:
        assert len({getattr(s, field) for s in specs}) == 1, field
    if axis == "distance":
        assert {s.distance[1] for s in specs} == {3.0}


# ---------------------------------------------------------------------------
# errors
# ---------------------------------------------------------------------------


def test_usage_errors_exit_2(tmp_path, capsys):
    # window above the deadline
    assert run_cli("--scheme", "gts", "--blocks", "10", "--rate", "1",
                   "--snr-db", "2", "--window", "11", "--trials", "10") == 2
    # window without gts
    assert run_cli("--scheme", "mt", "--blocks", "10", "--rate", "1",
                   "--snr-db", "2", "--window", "2") == 2
    # missing required flags
    assert run_cli("--scheme", "mt", "--blocks", "10") == 2
    # distance without path loss
    assert run_cli("--scheme", "mt", "--blocks", "10", "--rate", "1",
                   "--snr-db", "2", "--distance", "2.0") == 2
    # preset combined with explicit scheme flags
    assert run_cli("--preset", "fig7", "--scheme", "mt") == 2
    # malformed sweep
    assert run_cli("--scheme", "mt", "--blocks", "10", "--rate", "1",
                   "--snr-db", "2", "--sweep", "nonsense=1,2") == 2
    # a preset seed outside 64 bits, as a single run rejects it
    assert run_cli("--preset", "fig5a", "--trials", "10", "--seed", str(2**64)) == 2
    assert capsys.readouterr().err.endswith("master_seed must fit in 64 bits\n")
    # the removed aje safety flag is unknown to the parser
    with pytest.raises(SystemExit) as exc:
        run_cli("--scheme", "aje", "--blocks", "10", "--rate", "1",
                "--snr-db", "2", "--alpha-safety", "0.9")
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "flags",
    [
        ("--distance", "nan", "--path-loss", "3"),
        ("--distance", "inf", "--path-loss", "3"),
        ("--distance", "10", "--path-loss", "400"),  # the received power underflows to 0
        ("--distance", "1e-10", "--path-loss", "400"),  # the path gain overflows
        ("--distance", "1", "--path-loss", "3", "--sweep", "distance=1,nan"),
    ],
    ids=["nan", "inf", "underflow", "overflow", "sweep"],
)
def test_distances_without_a_received_power_exit_2_before_any_pool(
    tmp_path, capsys, counting_pool, flags
):
    out = tmp_path / "out.csv"
    code = run_cli("--scheme", "mt", "--blocks", "10", "--rate", "1", "--snr-db", "2",
                   "--trials", "4000", "--workers", "2", *flags, "--out", str(out))
    assert code == 2
    assert counting_pool.starts == 0
    assert os.listdir(tmp_path) == []
    assert capsys.readouterr().err.startswith("fadestream: error: ")


@pytest.mark.parametrize("values", ["", " "])
def test_a_sweep_with_an_empty_value_exits_2_and_writes_nothing(tmp_path, capsys, values):
    """An empty value list is not a sweep of no points: it would write a
    table with a header and no rows."""
    out = tmp_path / "out.csv"
    code = run_cli("--scheme", "mt", "--blocks", "5", "--rate", "1", "--snr-db", "2",
                   "--trials", "10", "--sweep", f"rate_r={values}", "--out", str(out))
    assert code == 2
    assert os.listdir(tmp_path) == []
    assert capsys.readouterr().err.startswith("fadestream: error: bad sweep value list for rate_r")


def test_overflowing_snr_exits_2(tmp_path, capsys):
    """10**400 overflows a float: the power is rejected, not a traceback."""
    out = tmp_path / "out.csv"
    code = run_cli("--scheme", "mt", "--blocks", "5", "--rate", "1", "--snr-db", "4000",
                   "--trials", "10", "--out", str(out))
    assert code == 2
    assert os.listdir(tmp_path) == []
    assert capsys.readouterr().err.startswith("fadestream: error: ")


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["--does-not-exist"])
    assert exc.value.code == 2


def test_unwritable_output_exits_3_with_no_partial_file(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "out.csv"
    code = run_cli("--scheme", "mt", "--blocks", "4", "--rate", "1",
                   "--snr-db", "0", "--trials", "50", "--out", str(target))
    assert code == 3
    assert not target.exists()
    assert not os.path.exists(str(tmp_path / "missing-dir"))
    capsys.readouterr()


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_exit_2(tmp_path, capsys, workers):
    out = tmp_path / "out.csv"
    assert run_cli("--scheme", "mt", "--blocks", "4", "--rate", "1", "--snr-db", "0",
                   "--trials", "50", "--workers", workers, "--out", str(out)) == 2
    assert run_cli("--preset", "fig7", "--trials", "5", "--workers", workers,
                   "--out", str(out)) == 2
    assert not out.exists()
    assert "workers must be an integer >= 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "error",
    [
        QuadratureError("quadrature error 1e-3 exceeds tolerance 1e-6"),
        MemoryError(),
        BrokenProcessPool("A process in the process pool was\nterminated abruptly"),
    ],
    ids=lambda error: type(error).__name__,
)
def test_runtime_failures_exit_3_with_no_output(tmp_path, capsys, monkeypatch, error):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "run_specs", fail)
    out = tmp_path / "out.csv"
    code = run_cli("--scheme", "mt", "--blocks", "4", "--rate", "1", "--snr-db", "0",
                   "--trials", "50", "--out", str(out))
    assert code == 3
    assert os.listdir(tmp_path) == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"fadestream: error: run failed: {type(error).__name__}")


def _exit_worker(task):
    os._exit(1)


def test_a_dead_pool_worker_exits_3_with_no_output(tmp_path, capfd, monkeypatch):
    """A worker that dies mid-run breaks the pool (the forked workers run the
    patched task function)."""
    monkeypatch.setattr(engine, "_task_histogram", _exit_worker)
    out = tmp_path / "out.csv"
    code = run_cli("--preset", "fig4", "--trials", "40", "--workers", "2", "--out", str(out))
    assert code == 3
    assert os.listdir(tmp_path) == []
    captured = capfd.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("fadestream: error: run failed: BrokenProcessPool")


def _live_group_members(pgid):
    """The pids of the live (not zombie) processes of a process group."""
    members = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        state, _, group = stat[stat.rindex(")") + 2 :].split()[:3]
        if int(group) == pgid and state != "Z":
            members.append(int(pid))
    return members


def _wait_until(condition, timeout_s):
    deadline = time.monotonic() + timeout_s
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.05)
    return condition()


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads process groups from /proc")
def test_an_interrupted_pooled_run_leaves_no_file_and_no_worker(tmp_path):
    """SIGINT to the run's process group, once its two workers are up, ends
    the run with Python's KeyboardInterrupt (killed by SIGINT: status 130
    in a shell) and leaves no output, no temp file and no process.  The
    tasks already handed to the workers run to their end first, so the run
    is kept short."""
    src = os.path.dirname(os.path.dirname(fadestream.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = ["--preset", "fig4", "--trials", "40000", "--workers", "2", "--out", "out.csv"]
    run = subprocess.Popen(
        [sys.executable, "-m", "fadestream.cli", *argv], cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path}, start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    try:
        assert _wait_until(lambda: len(_live_group_members(run.pid)) >= 3, 60)
        os.killpg(run.pid, signal.SIGINT)
        _, stderr = run.communicate(timeout=60)
    finally:
        if run.poll() is None:
            os.killpg(run.pid, signal.SIGKILL)
            run.wait()
    assert run.returncode == -signal.SIGINT, f"the run printed:\n{stderr}"
    assert "KeyboardInterrupt" in stderr, f"the run printed:\n{stderr}"
    assert _wait_until(lambda: not _live_group_members(run.pid), 10), (
        f"live group members: {_live_group_members(run.pid)}"
    )
    assert os.listdir(tmp_path) == []


# ---------------------------------------------------------------------------
# start-up imports
# ---------------------------------------------------------------------------

_IMPORT_GUARD = """
import os, sys
import fadestream.cli as cli
assert "scipy" in sys.modules and "scipy.special" not in sys.modules
out = sys.argv[1]
aje = ["--scheme", "aje", "--blocks", "20", "--rate", "1", "--snr-db", "2", "--trials", "20"]
assert cli.main(aje + ["--out", os.path.join(out, "aje.csv")]) == 0
fig4 = ["--preset", "fig4", "--trials", "16", "--workers", "2"]
assert cli.main(fig4 + ["--out", os.path.join(out, "fig4.csv")]) == 0
assert "scipy.integrate" not in sys.modules
assert "scipy.special" not in sys.modules
import fadestream
power = fadestream.PowerBudget.from_db(2.0)
assert abs(fadestream.mt_pmf_exact(3, 0.5).probs[1] - 0.375) < 1e-15
assert "scipy.special" not in sys.modules
pmf = fadestream.je_pmf_exact_smallM(2, power, 1.0)
assert abs(pmf.probs.sum() - 1.0) < 1e-6
assert "scipy.integrate" in sys.modules
"""


def test_cli_runs_import_neither_scipy_integrate_nor_special(tmp_path):
    """A fresh interpreter imports the CLI with scipy but not scipy.special,
    and runs an aje point and a pooled preset without loading
    scipy.integrate or scipy.special; the mt pmf loads neither, and the
    exact small-M pmf still loads scipy.integrate on use."""
    src = os.path.dirname(os.path.dirname(fadestream.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_GUARD, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert sorted(os.listdir(tmp_path)) == ["aje.csv", "fig4.csv"]
