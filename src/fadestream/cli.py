"""Command-line front end: single runs, sweeps, and figure-style presets.

Emits one output record per operating point as CSV (scalar statistics) or
JSON (adds the decode-count cmf).  Identical invocations produce byte
identical output; headers record the run parameters, never timestamps.

Exit codes: 0 success, 2 usage/configuration error, 3 runtime error.  An
interrupt (SIGINT to the run's process group) ends the run with Python's
KeyboardInterrupt, killed by SIGINT (status 130 in a shell); the pool
workers stop at once, and the run leaves no output file, no .fadestream-*
temp file and no worker process.
"""

import argparse
import json
import os
import sys
import tempfile
from functools import lru_cache, partial

from . import __version__
from .bounds import InformedBound, ergodic_upper_bound
from .channel import PowerBudget, QuadratureError, ergodic_capacity
from .engine import (
    DECODERS,
    INT_AXES,
    SWEEP_AXES,
    ExperimentSpec,
    received_power,
    run_experiment,  # unused here; bench/child.py HOOKS wrap cli.run_experiment
    run_specs,
    sweep_specs,
)
from .schemes import AJE, GTS, JE, MT, ST, TS

SCHEMA_VERSION = 3


def _runtime_errors() -> tuple:
    """Failures of a valid run; they exit 3 like an unwritable output.  An
    except clause calls this only when an exception reaches it, so the
    process-pool stack is not imported for BrokenProcessPool at start-up."""
    from concurrent.futures.process import BrokenProcessPool

    return (QuadratureError, MemoryError, BrokenProcessPool)


def _flag_value(args, flag):
    return getattr(args, flag[2:].replace("-", "_"))


def _scheme_from_args(args):
    """The --scheme configuration, gts's with its --window."""
    scheme_class = next(cls for cls, entry in DECODERS.items() if entry.tag == args.scheme)
    if scheme_class is not GTS:
        return scheme_class()
    if args.window is None:
        raise ValueError(f"{args.scheme} requires --window")
    return GTS(window=args.window)


def _scheme_tag(scheme):
    return DECODERS[type(scheme)].tag


@lru_cache(maxsize=None)
def _cached_cbar(p_linear: float) -> float:
    return ergodic_capacity(PowerBudget(p_linear))


def _row(spec: ExperimentSpec, result) -> dict:
    """One output record; its keys but `cmf`, in order, are the CSV columns."""
    scheme = result.scheme
    c_bar = _cached_cbar(received_power(spec).p_linear)
    return {
        "scheme": _scheme_tag(scheme),
        "blocks": spec.m_total,
        "rate": spec.rate_r,
        "power_db": spec.power_db,
        "distance": None if spec.distance is None else spec.distance[0],
        "path_loss": None if spec.distance is None else spec.distance[1],
        "window": getattr(scheme, "window", None),
        "m_prime": getattr(scheme, "m_prime", None),
        "mean_rate": result.mean_rate,
        "rate_se": result.rate_se,
        "mean_decoded": result.mean_decoded,
        "ergodic_bound": ergodic_upper_bound(spec.rate_r, c_bar),
        "seed": spec.master_seed,
        "trials": result.trials_run,
        "cmf": result.cmf,  # a numpy array; only the JSON rendering lists it
    }


# ---------------------------------------------------------------------------
# figure-style presets, at desk scale
# ---------------------------------------------------------------------------


def _compared(gts_window=None):
    """The compared schemes in output order; gts where a preset fixes its window."""
    gts = () if gts_window is None else (GTS(window=gts_window),)
    return (MT(), JE(), AJE(), TS(), *gts, ST(), InformedBound())


def _grid(schemes, powers_db, m_total, trials, seed, *, rate_r=1.0, axis=None, values=(), distance=None):
    """The specs of one point per (power, scheme), each swept over `axis` if
    given; every point is seeded `seed`, so a pooled run samples the grid's
    gains once (see engine.run_specs)."""
    specs = []
    for power_db in powers_db:
        for scheme in schemes:
            base = ExperimentSpec(power_db, m_total, rate_r, scheme, trials, seed, distance)
            specs += [base] if axis is None else sweep_specs(base, axis, values)
    return specs


# each "build" is `_grid` short of its (trials, seed)
PRESETS = {
    "fig4": {
        "trials": 10000,
        "format": "csv",
        "note": "windowed time sharing vs window size; desk scale blocks=2000 instead of 10000",
        "build": partial(
            _grid, [GTS(window=1)], (0.0, 2.0), 2000,
            axis="window", values=[1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000],
        ),
    },
    "fig5a": {
        "trials": 100000,
        "format": "json",
        "note": "decode-count cmf, blocks=50 rate=1 snr=1.44dB, all schemes (gts window=10)",
        "build": partial(_grid, _compared(gts_window=10), (1.44,), 50),
    },
    "fig5b": {
        "trials": 100000,
        "format": "json",
        "note": "decode-count cmf, blocks=50 rate=1 snr=0dB, all schemes (gts window=50)",
        "build": partial(_grid, _compared(gts_window=50), (0.0,), 50),
    },
    "fig6a": {
        "trials": 10000,
        "format": "csv",
        "note": "mean decoded count vs deadline length, rate=1 snr=-3dB",
        "build": partial(_grid, _compared(), (-3.0,), 100, axis="m_total", values=range(1, 101)),
    },
    "fig6b": {
        "trials": 10000,
        "format": "csv",
        "note": "mean decoded count vs deadline length, rate=1 snr=2dB",
        "build": partial(_grid, _compared(), (2.0,), 100, axis="m_total", values=range(1, 101)),
    },
    "fig7": {
        "trials": 10000,
        "format": "csv",
        "note": "mean decoded rate vs message rate, blocks=100 snr=20dB, with bounds",
        "build": partial(
            _grid, _compared(), (20.0,), 100, axis="rate_r", values=[x / 2.0 for x in range(1, 21)]
        ),
    },
    "fig8": {
        "trials": 10000,
        "format": "csv",
        "note": "mean decoded rate vs distance, blocks=100 rate=1 snr=20dB path-loss=3",
        "build": partial(
            _grid, _compared(), (20.0,), 100,
            axis="distance", values=range(1, 11), distance=(1.0, 3.0),
        ),
    },
}


# ---------------------------------------------------------------------------
# argument parsing and validation
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fadestream",
        description="Monte Carlo comparison of streaming transmission schemes "
        "over block fading channels.",
    )
    parser.add_argument("--scheme", choices=[entry.tag for entry in DECODERS.values()])
    parser.add_argument("--blocks", type=int, help="number of messages / channel blocks M")
    parser.add_argument("--rate", type=float, help="per-message rate R in bpcu")
    parser.add_argument("--snr-db", type=float, help="average SNR in dB")
    parser.add_argument("--trials", type=int, help="Monte Carlo trials per operating point")
    parser.add_argument("--seed", type=int, default=1, help="64-bit master seed (default 1)")
    parser.add_argument("--window", type=int, help="gts window size W")
    parser.add_argument("--distance", type=float, help="transmitter-receiver distance")
    parser.add_argument("--path-loss", type=float, help="path loss exponent alpha")
    parser.add_argument("--sweep", metavar="AXIS=V1,V2,...", help=f"sweep one axis of {SWEEP_AXES}")
    parser.add_argument("--preset", choices=sorted(PRESETS))
    parser.add_argument("--out", default="-", help="output path ('-' for stdout)")
    parser.add_argument("--format", choices=("csv", "json"), dest="out_format")
    parser.add_argument(
        "--workers", type=int, default=1, help="parallel worker processes (at most one per CPU)"
    )
    return parser


def _parse_sweep(text: str):
    if "=" not in text:
        raise ValueError("sweep must look like axis=v1,v2,...")
    axis, _, rest = text.partition("=")
    axis = axis.strip()
    cast = int if axis in INT_AXES else float
    try:
        values = [cast(v) for v in rest.split(",")]
    except ValueError as exc:
        raise ValueError(f"bad sweep value list for {axis}: {exc}") from None
    return axis, values


def _validate_run_args(args):
    if args.preset is not None:
        point_flags = (
            "--scheme", "--blocks", "--rate", "--snr-db", "--window",
            "--distance", "--path-loss", "--sweep",
        )
        extra = [flag for flag in point_flags if _flag_value(args, flag) is not None]
        if extra:
            raise ValueError(f"--preset does not combine with {', '.join(extra)}")
        return
    for flag in ("--scheme", "--blocks", "--rate", "--snr-db"):
        if _flag_value(args, flag) is None:
            raise ValueError(f"{flag} is required without --preset")
    if args.window is not None and args.scheme != DECODERS[GTS].tag:
        raise ValueError(f"--window applies to the {DECODERS[GTS].tag} scheme only")
    if (args.distance is None) != (args.path_loss is None):
        raise ValueError("--distance and --path-loss must be given together")


def _single_or_sweep_specs(args):
    """The run header and the specs of a single run or a sweep."""
    trials = args.trials if args.trials is not None else 10000
    meta = {
        "scheme": args.scheme,
        "blocks": args.blocks,
        "rate": args.rate,
        "snr_db": args.snr_db,
        "trials": trials,
        "seed": args.seed,
    }
    axis, values = None, ()
    if args.sweep is not None:
        axis, values = _parse_sweep(args.sweep)
        meta["sweep"] = f"{axis}={','.join(str(v) for v in values)}"
    meta["format"] = args.out_format or "csv"
    distance = None if args.distance is None else (args.distance, args.path_loss)
    specs = _grid(
        [_scheme_from_args(args)], [args.snr_db], args.blocks, trials, args.seed,
        rate_r=args.rate, axis=axis, values=values, distance=distance,
    )
    return meta, specs


def _preset_specs(args):
    """The run header and the specs of a preset."""
    preset = PRESETS[args.preset]
    trials = args.trials if args.trials is not None else preset["trials"]
    meta = {
        "preset": args.preset,
        "trials": trials,
        "seed": args.seed,
        "note": preset["note"],
        "format": args.out_format or preset["format"],
    }
    return meta, preset["build"](trials, args.seed)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _render_csv(meta, rows) -> str:
    lines = [f"# fadestream csv schema={SCHEMA_VERSION} version={__version__}"]
    run_info = " ".join(f"{k}={v}" for k, v in meta.items() if k != "note")
    lines.append(f"# run: {run_info}")
    if "note" in meta:
        lines.append(f"# note: {meta['note']}")
    columns = [column for column in rows[0] if column != "cmf"]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_csv_cell(row[column]) for column in columns))
    return "\n".join(lines) + "\n"


def _render_json(meta, rows) -> str:
    doc = {
        "schema": SCHEMA_VERSION,
        "tool": "fadestream",
        "version": __version__,
        "run": meta,
        "rows": [{**row, "cmf": row["cmf"].tolist()} for row in rows],
    }
    return json.dumps(doc, indent=2) + "\n"


def _write_output(text: str, out: str):
    if out == "-":
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out))
    fd, tmp_path = tempfile.mkstemp(prefix=".fadestream-", dir=directory)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_path, out)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _validate_run_args(args)
        meta, specs = (_preset_specs if args.preset is not None else _single_or_sweep_specs)(args)
        rows = [_row(spec, result) for spec, result in zip(specs, run_specs(specs, args.workers))]
        text = (_render_csv if meta["format"] == "csv" else _render_json)(meta, rows)
    except ValueError as exc:
        print(f"fadestream: error: {exc}", file=sys.stderr)
        return 2
    except _runtime_errors() as exc:
        detail = " ".join(str(exc).split()) or "no details"
        print(f"fadestream: error: run failed: {type(exc).__name__}: {detail}", file=sys.stderr)
        return 3
    try:
        _write_output(text, args.out)
    except OSError as exc:
        print(f"fadestream: error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 3
    return 0


def app():
    raise SystemExit(main())


if __name__ == "__main__":
    app()
