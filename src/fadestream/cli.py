"""Command-line front end: single runs, sweeps, and figure-style presets.

Emits one output record per operating point as CSV (scalar statistics) or
JSON (adds the decode-count cmf).  Identical invocations produce byte
identical output; headers record the run parameters, never timestamps.

Exit codes: 0 success, 2 usage/configuration error, 3 runtime error.
"""

import argparse
import json
import os
import sys
import tempfile
from concurrent.futures.process import BrokenProcessPool
from functools import lru_cache

from . import __version__
from .bounds import InformedBound, ergodic_upper_bound
from .channel import PowerBudget, QuadratureError, ergodic_capacity
from .engine import (
    INT_AXES,
    SWEEP_AXES,
    ExperimentSpec,
    derive_seed,
    received_power,
    run_experiment,  # unused here; bench/child.py HOOKS wrap cli.run_experiment
    run_specs,
    sweep_specs,
)
from .schemes import AJE, GTS, JE, MT, ST, TS

# --scheme tag -> configuration class
_SCHEME_CLASSES = {
    "mt": MT,
    "je": JE,
    "aje": AJE,
    "ts": TS,
    "gts": GTS,
    "st": ST,
    "informed-bound": InformedBound,
}
SCHEME_TAGS = tuple(_SCHEME_CLASSES)

# scheme flag -> (tag of the only scheme it applies to, configuration field)
_SCHEME_FLAGS = {
    "--window": ("gts", "window"),
}

CSV_COLUMNS = (
    "scheme",
    "blocks",
    "rate",
    "power_db",
    "distance",
    "path_loss",
    "window",
    "m_prime",
    "mean_rate",
    "rate_se",
    "mean_decoded",
    "ergodic_bound",
    "seed",
    "trials",
)

SCHEMA_VERSION = 2

# failures of a valid run; they exit 3 like an unwritable output
_RUNTIME_ERRORS = (QuadratureError, MemoryError, BrokenProcessPool)


class UsageError(ValueError):
    """Inconsistent or invalid flag combination."""


def _flag_value(args, flag):
    return getattr(args, flag[2:].replace("-", "_"))


def _scheme_from_args(args):
    """The --scheme configuration; an absent flag keeps the field's default."""
    if args.scheme == "gts" and args.window is None:
        raise UsageError("gts requires --window")
    fields = {
        field: _flag_value(args, flag)
        for flag, (tag, field) in _SCHEME_FLAGS.items()
        if tag == args.scheme and _flag_value(args, flag) is not None
    }
    return _SCHEME_CLASSES[args.scheme](**fields)


def _scheme_tag(scheme):
    return next(tag for tag, cls in _SCHEME_CLASSES.items() if type(scheme) is cls)


@lru_cache(maxsize=None)
def _cached_cbar(p_linear: float) -> float:
    return ergodic_capacity(PowerBudget(p_linear))


def _row(spec: ExperimentSpec, result) -> dict:
    scheme = result.scheme
    c_bar = _cached_cbar(received_power(spec).p_linear)
    return {
        "scheme": _scheme_tag(scheme),
        "blocks": spec.m_total,
        "rate": spec.rate_r,
        "power_db": spec.power_db,
        "distance": None if spec.distance is None else spec.distance[0],
        "path_loss": None if spec.distance is None else spec.distance[1],
        "window": scheme.window if isinstance(scheme, GTS) else None,
        "m_prime": scheme.m_prime if isinstance(scheme, AJE) else None,
        "mean_rate": result.mean_rate,
        "rate_se": result.rate_se,
        "mean_decoded": result.mean_decoded,
        "ergodic_bound": ergodic_upper_bound(spec.rate_r, c_bar),
        "seed": spec.master_seed,
        "trials": result.trials_run,
        "cmf": result.cmf,  # a numpy array; only the JSON rendering lists it
    }


def _rows(specs, workers):
    return [_row(spec, result) for spec, result in zip(specs, run_specs(specs, workers))]


# ---------------------------------------------------------------------------
# figure-style presets, at desk scale
# ---------------------------------------------------------------------------


def _compared(gts_window=None):
    """The compared schemes in output order; gts where a preset fixes its window."""
    gts = () if gts_window is None else (GTS(window=gts_window),)
    return (MT(), JE(), AJE(), TS(), *gts, ST(), InformedBound())


def _preset(schemes, powers_db, m_total, axis=None, values=(), distance=None):
    """build(trials, seed) for one point per (power, scheme), each swept over
    `axis` if given; point i is seeded derive_seed(seed, i)."""

    def build(trials, seed):
        specs = []
        points = [(power_db, scheme) for power_db in powers_db for scheme in schemes]
        for idx, (power_db, scheme) in enumerate(points):
            base = ExperimentSpec(
                power_db=power_db,
                m_total=m_total,
                rate_r=1.0,
                scheme=scheme,
                trials=trials,
                master_seed=derive_seed(seed, idx),
                distance=distance,
            )
            specs += [base] if axis is None else sweep_specs(base, axis, values)
        return specs

    return build


PRESETS = {
    "fig4": {
        "trials": 10000,
        "format": "csv",
        "note": "windowed time sharing vs window size; desk scale blocks=2000 instead of 10000",
        "build": _preset(
            [GTS(window=1)], (0.0, 2.0), 2000,
            "window", [1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000],
        ),
    },
    "fig5a": {
        "trials": 100000,
        "format": "json",
        "note": "decode-count cmf, blocks=50 rate=1 snr=1.44dB, all schemes (gts window=10)",
        "build": _preset(_compared(gts_window=10), (1.44,), 50),
    },
    "fig5b": {
        "trials": 100000,
        "format": "json",
        "note": "decode-count cmf, blocks=50 rate=1 snr=0dB, all schemes (gts window=50)",
        "build": _preset(_compared(gts_window=50), (0.0,), 50),
    },
    "fig6a": {
        "trials": 10000,
        "format": "csv",
        "note": "mean decoded count vs deadline length, rate=1 snr=-3dB",
        "build": _preset(_compared(), (-3.0,), 100, "m_total", range(1, 101)),
    },
    "fig6b": {
        "trials": 10000,
        "format": "csv",
        "note": "mean decoded count vs deadline length, rate=1 snr=2dB",
        "build": _preset(_compared(), (2.0,), 100, "m_total", range(1, 101)),
    },
    "fig7": {
        "trials": 10000,
        "format": "csv",
        "note": "mean decoded rate vs message rate, blocks=100 snr=20dB, with bounds",
        "build": _preset(_compared(), (20.0,), 100, "rate_r", [x / 2.0 for x in range(1, 21)]),
    },
    "fig8": {
        "trials": 10000,
        "format": "csv",
        "note": "mean decoded rate vs distance, blocks=100 rate=1 snr=20dB path-loss=3",
        "build": _preset(_compared(), (20.0,), 100, "distance", range(1, 11), (1.0, 3.0)),
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
    parser.add_argument("--scheme", choices=SCHEME_TAGS)
    parser.add_argument("--blocks", type=int, help="number of messages / channel blocks M")
    parser.add_argument("--rate", type=float, help="per-message rate R in bpcu")
    parser.add_argument("--snr-db", type=float, help="average SNR in dB")
    parser.add_argument("--trials", type=int, help="Monte Carlo trials per operating point")
    parser.add_argument("--seed", type=int, help="64-bit master seed (default 1)")
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
        raise UsageError("sweep must look like axis=v1,v2,...")
    axis, _, rest = text.partition("=")
    axis = axis.strip()
    if axis not in SWEEP_AXES:
        raise UsageError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
    if not rest.strip():
        return axis, []
    cast = int if axis in INT_AXES else float
    try:
        values = [cast(v) for v in rest.split(",")]
    except ValueError as exc:
        raise UsageError(f"bad sweep value list for {axis}: {exc}") from None
    return axis, values


def _validate_run_args(args):
    if args.workers < 1:
        raise UsageError("--workers must be >= 1")
    if args.preset is not None:
        point_flags = (
            "--scheme", "--blocks", "--rate", "--snr-db", *_SCHEME_FLAGS,
            "--distance", "--path-loss", "--sweep",
        )
        extra = [flag for flag in point_flags if _flag_value(args, flag) is not None]
        if extra:
            raise UsageError(f"--preset does not combine with {', '.join(extra)}")
        return
    for flag in ("--scheme", "--blocks", "--rate", "--snr-db"):
        if _flag_value(args, flag) is None:
            raise UsageError(f"{flag} is required without --preset")
    for flag, (tag, _) in _SCHEME_FLAGS.items():
        if _flag_value(args, flag) is not None and args.scheme != tag:
            raise UsageError(f"{flag} applies to the {tag} scheme only")
    if (args.distance is None) != (args.path_loss is None):
        raise UsageError("--distance and --path-loss must be given together")


def _run_single_or_sweep(args):
    trials = args.trials if args.trials is not None else 10000
    seed = args.seed if args.seed is not None else 1
    distance = None if args.distance is None else (args.distance, args.path_loss)
    base = ExperimentSpec(
        power_db=args.snr_db,
        m_total=args.blocks,
        rate_r=args.rate,
        scheme=_scheme_from_args(args),
        trials=trials,
        master_seed=seed,
        distance=distance,
    )
    meta = {
        "scheme": args.scheme,
        "blocks": args.blocks,
        "rate": args.rate,
        "snr_db": args.snr_db,
        "trials": trials,
        "seed": seed,
    }
    specs = [base]
    if args.sweep is not None:
        axis, values = _parse_sweep(args.sweep)
        meta["sweep"] = f"{axis}={','.join(str(v) for v in values)}"
        specs = sweep_specs(base, axis, values)
    return meta, _rows(specs, args.workers)


def _run_preset(args):
    preset = PRESETS[args.preset]
    trials = args.trials if args.trials is not None else preset["trials"]
    seed = args.seed if args.seed is not None else 1
    rows = _rows(preset["build"](trials, seed), args.workers)
    meta = {
        "preset": args.preset,
        "trials": trials,
        "seed": seed,
        "note": preset["note"],
    }
    return meta, rows


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
    lines.append(",".join(CSV_COLUMNS))
    for row in rows:
        lines.append(",".join(_csv_cell(row[col]) for col in CSV_COLUMNS))
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
        if args.preset is not None:
            out_format = args.out_format or PRESETS[args.preset]["format"]
            meta, rows = _run_preset(args)
        else:
            out_format = args.out_format or "csv"
            meta, rows = _run_single_or_sweep(args)
        meta["format"] = out_format
        if out_format == "csv":
            text = _render_csv(meta, rows)
        else:
            text = _render_json(meta, rows)
    except (UsageError, ValueError) as exc:
        print(f"fadestream: error: {exc}", file=sys.stderr)
        return 2
    except _RUNTIME_ERRORS as exc:
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
