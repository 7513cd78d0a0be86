"""Command-line interface: records, determinism, presets, exit codes."""

import csv
import json
import os
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from fadestream import cli
from fadestream.cli import CSV_COLUMNS, main
from fadestream.engine import ExperimentSpec, run_experiment
from fadestream.channel import FadingModel, QuadratureError
from fadestream.schemes import MT


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
    assert header[0].startswith("# fadestream csv schema=1")
    assert len(rows) == 1
    row = rows[0]
    assert row["scheme"] == "mt"
    assert row["blocks"] == "50" and row["trials"] == "100000" and row["seed"] == "7"
    # binomial mean 50 * 0.4878 = 24.39, allow 3 sigma of the 1e5-trial estimate
    mean_decoded = float(row["mean_decoded"])
    se = np.sqrt(50 * 0.4878 * (1 - 0.4878) / 100000)
    assert abs(mean_decoded - 24.39) <= 3.0 * se + 0.01
    assert row["window"] == "" and row["m_prime"] == "" and row["distance"] == ""
    assert row["approx_flag"] == "false"
    assert list(rows[0].keys()) == list(CSV_COLUMNS)


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
    assert doc["schema"] == 1
    row = doc["rows"][0]
    spec = ExperimentSpec(
        model=FadingModel.rayleigh(), power_db=2.0, m_total=8, rate_r=1.0,
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
    capsys.readouterr()


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
    assert "--workers must be >= 1" in capsys.readouterr().err


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

    monkeypatch.setattr(cli, "run_experiment", fail)
    out = tmp_path / "out.csv"
    code = run_cli("--scheme", "mt", "--blocks", "4", "--rate", "1", "--snr-db", "0",
                   "--trials", "50", "--out", str(out))
    assert code == 3
    assert os.listdir(tmp_path) == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"fadestream: error: run failed: {type(error).__name__}")
