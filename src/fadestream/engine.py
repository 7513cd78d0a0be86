"""Deterministic Monte Carlo experiment runner.

Every trial gets its own counter-based random stream derived from
(master_seed, trial index), so results are independent of execution order,
chunking, and the number of workers.  Per-trial decoded counts are reduced
into an integer histogram, from which the mean rate, its standard error, and
the decode-count cmf all follow exactly.
"""

import dataclasses
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import schemes
from .bounds import InformedBound, informed_counts
from .channel import (
    FadingModel,
    PowerBudget,
    capacities,
    capacity_variance,
    effective_power,
    ergodic_capacity,
    trial_stream,
)
from .schemes import AJE, GTS, JE, MT, ST, TS, SchemeConfig

SWEEP_AXES = ("power_db", "rate_r", "m_total", "window", "distance")

# kernel(caps, rate_r, scheme) per scheme configuration, looked up by name at
# call time so that wrappers on the module attributes see every call; st
# decodes from the gains and has its own branch
_CAPACITY_KERNELS = {
    MT: lambda caps, rate_r, scheme: schemes.mt_counts(caps, rate_r),
    JE: lambda caps, rate_r, scheme: schemes.je_counts(caps, rate_r),
    AJE: lambda caps, rate_r, scheme: schemes.aje_counts(caps, rate_r, scheme.m_prime),
    TS: lambda caps, rate_r, scheme: schemes.ts_counts(caps, rate_r),
    GTS: lambda caps, rate_r, scheme: schemes.gts_counts(caps, rate_r, scheme.window),
    InformedBound: lambda caps, rate_r, scheme: informed_counts(caps, rate_r),
}

# elements of a chunk's trials x M gains.  At 2**14 one trials x M float64
# array is 128 KiB, so a chunk's gains, capacities and kernel temporaries
# (under 1 MiB together) stay in a core's 2 MiB L2 cache, and malloc reuses
# the same heap pages from chunk to chunk.  From 2**15 up, glibc's
# malloc often returned a chunk's freed arrays to the system and the next
# chunk faulted them back in: 10-18 minor page faults and about 25 us of
# system time per trial at M = 2000, none at 2**14.  Per trial at M = 2000
# (one worker on a 2-vCPU 2.1 GHz Xeon): gts (W=50) 68 us, je 78 us,
# informed bound 67 us, against 94, 110 and 108 us at the former 10**6
# budget.  The 4096-trial cap decides at M <= 4.
_CHUNK_ELEMENTS = 2**14

# tasks per worker in a pooled run, each a run of consecutive chunks whose
# histograms the worker sums: fig4 at 4000 trials on two workers took 3.7 s
# this way and 7.9 s with one task per chunk, whose hand-offs left the
# workers idle; a few tasks per worker still even out the last ones
_TASKS_PER_WORKER = 4


@dataclass(frozen=True)
class ExperimentSpec:
    """Full description of one Monte Carlo experiment."""

    model: FadingModel
    power_db: float
    m_total: int
    rate_r: float
    scheme: SchemeConfig | InformedBound
    trials: int
    master_seed: int
    distance: tuple[float, float] | None = None  # (distance, path_loss_exponent)

    def __post_init__(self):
        if not isinstance(self.scheme, (ST, *_CAPACITY_KERNELS)):
            raise ValueError(f"unknown scheme configuration: {self.scheme!r}")
        if self.m_total < 1:
            raise ValueError("m_total must be >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not (np.isfinite(self.rate_r) and self.rate_r > 0.0):
            raise ValueError("rate_r must be finite and positive")
        if not np.isfinite(self.power_db):
            raise ValueError("power_db must be finite")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master_seed must fit in 64 bits")
        if self.distance is not None:
            d, alpha = self.distance
            if d <= 0.0 or alpha <= 0.0:
                raise ValueError("distance and path_loss_exponent must be positive")
        if isinstance(self.scheme, GTS) and self.scheme.window > self.m_total:
            raise ValueError("gts window cannot exceed m_total")
        if isinstance(self.scheme, AJE) and self.scheme.m_prime is not None:
            if self.scheme.m_prime > self.m_total:
                raise ValueError("aje m_prime cannot exceed m_total")


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    """Aggregated statistics of one experiment."""

    mean_rate: float
    rate_se: float
    cmf: np.ndarray  # cmf[m] = Pr{decoded count <= m}, m = 0..M
    mean_decoded: float
    approx_flag: bool
    trials_run: int
    scheme: SchemeConfig | InformedBound  # as run: aje's m_prime resolved


def received_power(spec: ExperimentSpec) -> PowerBudget:
    """Power budget after the optional distance path loss."""
    power = PowerBudget.from_db(spec.power_db)
    if spec.distance is not None:
        power = effective_power(power, *spec.distance)
    return power


def resolve_scheme(spec: ExperimentSpec) -> SchemeConfig | InformedBound:
    """Fill in derived scheme parameters (the adaptive message count)."""
    scheme = spec.scheme
    if isinstance(scheme, AJE) and scheme.m_prime is None:
        power = received_power(spec)
        m_prime = schemes.choose_m_prime(
            ergodic_capacity(spec.model, power),
            spec.rate_r,
            spec.m_total,
            scheme.safety,
            c_var=capacity_variance(spec.model, power),
        )
        return AJE(m_prime=m_prime, safety=scheme.safety)
    return scheme


def _sample_gain_block(
    model: FadingModel, m_total: int, master_seed: int, start: int, count: int
) -> np.ndarray:
    """Gains of trials [start, start + count), one row per trial."""
    phis = np.empty((count, m_total))
    for k in range(count):
        model.sample_gains(trial_stream(master_seed, start + k), m_total, out=phis[k])
    return phis


def _decode_chunk(spec: ExperimentSpec, start: int, count: int) -> tuple[np.ndarray, bool]:
    """Decoded counts for trials [start, start + count) of a resolved spec."""
    power = received_power(spec)
    phis = _sample_gain_block(spec.model, spec.m_total, spec.master_seed, start, count)
    scheme = spec.scheme
    if isinstance(scheme, ST):
        return schemes.st_counts(
            phis,
            power.p_linear,
            spec.rate_r,
            scheme.exact_subset_limit,
            scheme.heuristic_subset_cap,
        )
    caps = capacities(phis, power)
    return _CAPACITY_KERNELS[type(scheme)](caps, spec.rate_r, scheme), False


def _chunk_ranges(trials: int, m_total: int):
    chunk = max(1, min(4096, _CHUNK_ELEMENTS // m_total))
    return [(start, min(chunk, trials - start)) for start in range(0, trials, chunk)]


def _chunk_histogram(spec: ExperimentSpec, start: int, count: int) -> tuple[np.ndarray, bool]:
    counts, approx = _decode_chunk(spec, start, count)
    return np.bincount(counts, minlength=spec.m_total + 1), approx


def _sum_histograms(parts, m_total: int) -> tuple[np.ndarray, bool]:
    """Sum (histogram, approximate flag) pairs as they arrive."""
    hist = np.zeros(m_total + 1, dtype=np.int64)
    approx = False
    for part, part_approx in parts:
        hist += part
        approx = approx or part_approx
    return hist, approx


def _task_histogram(args) -> tuple[np.ndarray, bool]:
    """Summed histogram of a run of consecutive chunks of one spec."""
    spec, ranges = args
    return _sum_histograms(
        (_chunk_histogram(spec, start, count) for start, count in ranges), spec.m_total
    )


def decode_counts(spec: ExperimentSpec) -> tuple[np.ndarray, bool]:
    """Per-trial decoded counts in trial order, plus the approximate flag.

    Mainly for paired per-trial comparisons (e.g. checking that no scheme
    ever beats the informed bound on the same realization).
    """
    spec = dataclasses.replace(spec, scheme=resolve_scheme(spec))
    parts = [_decode_chunk(spec, start, count) for start, count in _chunk_ranges(spec.trials, spec.m_total)]
    approx = any(a for _, a in parts)
    return np.concatenate([c for c, _ in parts]), approx


def run_experiment(spec: ExperimentSpec, workers: int = 1) -> ExperimentResult:
    """Run all trials and aggregate the decode-count statistics.

    The reduction is an integer histogram sum, so the result is bit-identical
    for any chunking and any number of workers.
    """
    spec = dataclasses.replace(spec, scheme=resolve_scheme(spec))
    ranges = _chunk_ranges(spec.trials, spec.m_total)
    if workers > 1 and len(ranges) > 1:
        size = -(-len(ranges) // (_TASKS_PER_WORKER * workers))
        tasks = [(spec, ranges[i : i + size]) for i in range(0, len(ranges), size)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            hist, approx = _sum_histograms(pool.map(_task_histogram, tasks), spec.m_total)
    else:
        hist, approx = _task_histogram((spec, ranges))
    return _result_from_histogram(hist, spec, approx)


def _result_from_histogram(hist: np.ndarray, spec: ExperimentSpec, approx: bool) -> ExperimentResult:
    n = int(hist.sum())
    m = np.arange(spec.m_total + 1, dtype=float)
    mean_decoded = float(m @ hist) / n
    second = float((m**2) @ hist) / n
    var = max(second - mean_decoded**2, 0.0) * (n / (n - 1) if n > 1 else 0.0)
    return ExperimentResult(
        mean_rate=spec.rate_r * mean_decoded / spec.m_total,
        rate_se=spec.rate_r * float(np.sqrt(var / n)) / spec.m_total,
        cmf=np.cumsum(hist) / n,
        mean_decoded=mean_decoded,
        approx_flag=approx,
        trials_run=n,
        scheme=spec.scheme,
    )


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def derive_seed(master_seed: int, index: int) -> int:
    """Independent 64-bit child seed for sweep point `index`."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(index,))
    return int(ss.generate_state(1, np.uint64)[0])


def sweep_specs(base: ExperimentSpec, axis: str, values) -> list[ExperimentSpec]:
    """The experiments of a sweep: point i sets `axis` to values[i] and is
    seeded derive_seed(base.master_seed, i)."""
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
    if axis == "window" and not isinstance(base.scheme, GTS):
        raise ValueError("window sweep applies to the gts scheme only")
    if axis == "distance" and base.distance is None:
        raise ValueError("distance sweep needs a base (distance, path_loss) pair")
    specs = []
    for index, value in enumerate(values):
        if axis == "window":
            change = {"scheme": GTS(window=int(value))}
        elif axis == "distance":
            change = {"distance": (float(value), base.distance[1])}
        else:
            change = {axis: int(value) if axis == "m_total" else float(value)}
        specs.append(
            dataclasses.replace(base, **change, master_seed=derive_seed(base.master_seed, index))
        )
    return specs


def sweep(
    base: ExperimentSpec, axis: str, values, workers: int = 1
) -> list[tuple[float, ExperimentResult]]:
    """One experiment per axis value, on the specs of sweep_specs."""
    values = list(values)
    specs = sweep_specs(base, axis, values)
    return [(value, run_experiment(spec, workers=workers)) for value, spec in zip(values, specs)]


def optimal_window(
    base: ExperimentSpec, candidates, workers: int = 1
) -> tuple[int, ExperimentResult]:
    """gts window from `candidates` that maximizes the mean decoded rate.

    Ties break toward the smaller window.
    """
    candidates = sorted({int(w) for w in candidates})
    if not candidates:
        raise ValueError("candidates must be non-empty")
    if candidates[0] < 1 or candidates[-1] > base.m_total:
        raise ValueError("candidates must lie in [1, m_total]")
    best = None
    for window, result in sweep(base, "window", candidates, workers=workers):
        if best is None or result.mean_rate > best[1].mean_rate:
            best = (int(window), result)
    return best
