"""Deterministic Monte Carlo experiment runner.

Every trial gets its own counter-based random stream derived from
(master_seed, trial index), so results are independent of execution order,
chunking, and the number of workers.  Per-trial decoded counts are reduced
into an integer histogram, from which the mean rate, its standard error, and
the decode-count cmf all follow exactly.
"""

import ctypes
import dataclasses
import itertools
import numbers
import operator
import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from . import schemes
from .bounds import InformedBound, informed_counts
from .channel import (
    FadingModel,
    PowerBudget,
    capacities,
    capacity_moments,
    effective_power,
    ergodic_capacity,  # unused here; bench/child.py HOOKS wrap engine.ergodic_capacity
    trial_stream,
)
from .schemes import AJE, GTS, JE, MT, ST, TS, SchemeConfig

SWEEP_AXES = ("power_db", "rate_r", "m_total", "window", "distance")
INT_AXES = ("m_total", "window")  # sweep axes whose values are integers

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
# (under 1 MiB together) stay in a core's 2 MiB L2 cache.  Per trial at
# M = 2000 (one worker on a 2-vCPU 2.1 GHz Xeon): gts (W=50) 68 us, je
# 78 us, informed bound 67 us, against 94, 110 and 108 us at the former
# 10**6 budget.  The 4096-trial cap decides at M <= 4.
_CHUNK_ELEMENTS = 2**14


# By default glibc's malloc serves an allocation of 128 KiB or more with its
# own mmap and unmaps it when it is freed (the threshold then follows the
# largest block freed), and it trims a free top of the heap over twice that.
# A chunk's arrays are about 128 KiB each, or one trial's M blocks above
# 2**14, so chunk after chunk faulted its pages back in.  In one process
# (2-vCPU 2.1 GHz Xeon), fig4 at 2000 trials took about 405000 minor page
# faults; gts (W=50) at M = 20000 and 40000 took 168 and 205 faults and 751
# and 1269 us per trial.  With the thresholds set below: 122 faults in all,
# and 0 faults and 503 and 850 us per trial.  Importing scipy.special used
# to raise the thresholds far enough for M = 2000 only.
def _keep_chunk_memory_in_heap():
    """Set the thresholds once per process, so that arrays below 4 MiB stay
    in the heap and the next chunk reuses their pages; pool workers inherit
    them through fork.  A no-op where the C library has no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no C library by name
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD (malloc.h)
    mallopt(-1, 8 << 20)  # M_TRIM_THRESHOLD


_keep_chunk_memory_in_heap()

# tasks per worker and spec in a pooled run, each a run of consecutive chunks
# whose histograms the worker sums.  One task per chunk left the workers idle
# in hand-offs (fig4, 4000 trials, two workers: 7.9 s against 3.7 s).  A
# single-spec run needs several tasks per worker to keep every worker busy
# to its end.  With one pool for all of fig4's specs (8000 trials, two
# workers) 1, 2, 4 and 8 tasks took 5.3-6.8 s each, no difference within
# the host's noise
_TASKS_PER_WORKER = 4


@dataclass(frozen=True)
class ExperimentSpec:
    """Full description of one Monte Carlo experiment."""

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
        for name in ("m_total", "trials", "master_seed"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer")
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
        received_power(self)  # a non-finite distance or a power lost to underflow raises
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
        c_mean, c_var = capacity_moments(received_power(spec))
        m_prime = schemes.choose_m_prime(c_mean, spec.rate_r, spec.m_total, c_var=c_var)
        return AJE(m_prime=m_prime)
    return scheme


def _sample_gain_block(m_total: int, master_seed: int, start: int, count: int) -> np.ndarray:
    """Gains of trials [start, start + count), one row per trial."""
    phis = np.empty((count, m_total))
    # looked up once per block, at call time, so that wrappers on these names see every call
    stream, sample = trial_stream, FadingModel.sample_gains
    for trial, row in enumerate(phis, start):
        sample(stream(master_seed, trial), m_total, row)
    return phis


def _decode_chunk(spec: ExperimentSpec, start: int, count: int) -> np.ndarray:
    """Decoded counts for trials [start, start + count) of a resolved spec."""
    power = received_power(spec)
    phis = _sample_gain_block(spec.m_total, spec.master_seed, start, count)
    scheme = spec.scheme
    if isinstance(scheme, ST):
        return schemes.st_counts(phis, power.p_linear, spec.rate_r)
    caps = capacities(phis, power)
    return _CAPACITY_KERNELS[type(scheme)](caps, spec.rate_r, scheme)


def _chunk_ranges(trials: int, m_total: int) -> range:
    """First trial of each chunk; the step is the chunk size, _CHUNK_ELEMENTS
    gains within [1, 4096] trials, and the last chunk ends at `trials`."""
    return range(0, trials, max(1, min(4096, _CHUNK_ELEMENTS // m_total)))


def _chunk_histogram(spec: ExperimentSpec, start: int, count: int) -> np.ndarray:
    return np.bincount(_decode_chunk(spec, start, count), minlength=spec.m_total + 1)


def _task_histogram(task) -> np.ndarray:
    """Summed histogram of chunks [first, end) of a resolved spec; a task is
    the compact tuple (spec, first, end)."""
    spec, first, end = task
    starts = _chunk_ranges(spec.trials, spec.m_total)[first:end]
    hist = np.zeros(spec.m_total + 1, dtype=np.int64)
    for start in starts:
        hist += _chunk_histogram(spec, start, min(starts.step, spec.trials - start))
    return hist


def _resolved(spec: ExperimentSpec) -> ExperimentSpec:
    return dataclasses.replace(spec, scheme=resolve_scheme(spec))


def decode_counts(spec: ExperimentSpec) -> np.ndarray:
    """Per-trial decoded counts in trial order.

    Mainly for paired per-trial comparisons (e.g. checking that no scheme
    ever beats the informed bound on the same realization).
    """
    spec = _resolved(spec)
    starts = _chunk_ranges(spec.trials, spec.m_total)
    return np.concatenate(
        [_decode_chunk(spec, start, min(starts.step, spec.trials - start)) for start in starts]
    )


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Run all trials in this process and aggregate the decode-count statistics.

    The reduction is an integer histogram sum, so the result is bit-identical
    for any chunking; run_specs([spec], workers)[0] is the same result from a
    process pool.
    """
    spec = _resolved(spec)
    chunks = len(_chunk_ranges(spec.trials, spec.m_total))
    return _result_from_histogram(_task_histogram((spec, 0, chunks)), spec)


def run_specs(specs, workers: int = 1) -> list[ExperimentResult]:
    """run_experiment of every spec, in order, with one process pool for all.

    Every spec is resolved first, so a failing resolution starts no pool.  At
    workers > 1 one pool of min(workers, CPUs) processes runs the chunk tasks
    of every spec, made lazily with at most two per process in flight; each
    task's histogram is added into its spec's, and the results are built once
    the pool has closed.  Seeds and chunking are each spec's own, so each
    result equals run_experiment's.  At workers == 1, or with a single chunk
    in all, every spec runs through run_experiment in this process.
    """
    specs = [_resolved(spec) for spec in specs]
    chunks = [len(_chunk_ranges(spec.trials, spec.m_total)) for spec in specs]
    if workers <= 1 or sum(chunks) <= 1:
        return [run_experiment(spec) for spec in specs]
    # the fork start method forks every process of the pool at its first task
    workers = min(workers, os.cpu_count() or 1)

    def tasks():
        for index, (spec, count) in enumerate(zip(specs, chunks)):
            size = -(-count // (_TASKS_PER_WORKER * workers))
            for first in range(0, count, size):
                yield index, (spec, first, min(first + size, count))

    hists = [np.zeros(spec.m_total + 1, dtype=np.int64) for spec in specs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for index, hist in _completed(pool, tasks(), 2 * workers):
            hists[index] += hist
    return [_result_from_histogram(hist, spec) for hist, spec in zip(hists, specs)]


def _completed(pool, tasks, limit: int):
    """(key, _task_histogram(task)) for each (key, task) of `tasks`, in order
    of completion, with at most `limit` tasks submitted and not yet yielded."""
    tasks = iter(tasks)
    in_flight = {}
    while True:
        for key, task in itertools.islice(tasks, limit - len(in_flight)):
            in_flight[pool.submit(_task_histogram, task)] = key
        if not in_flight:
            return
        done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
        for future in done:
            yield in_flight.pop(future), future.result()


def _result_from_histogram(hist: np.ndarray, spec: ExperimentSpec) -> ExperimentResult:
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
        trials_run=n,
        scheme=spec.scheme,
    )


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def derive_seed(master_seed: int, index: int) -> int:
    """Independent 64-bit child seed for sweep point `index`.

    Both arguments must be integers (numpy integers included), master_seed
    in [0, 2**64) and index non-negative; anything else raises ValueError.
    """
    try:
        master_seed, index = operator.index(master_seed), operator.index(index)
    except TypeError:
        raise ValueError("master_seed and index must be integers") from None
    if not 0 <= master_seed < 2**64:
        raise ValueError("master_seed must fit in 64 bits")
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
        if axis in INT_AXES:
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{axis} sweep values must be integers, not {value!r}")
            value = int(value)
        if axis == "window":
            change = {"scheme": GTS(window=value)}
        elif axis == "distance":
            change = {"distance": (float(value), base.distance[1])}
        else:
            change = {axis: value if axis in INT_AXES else float(value)}
        specs.append(
            dataclasses.replace(base, **change, master_seed=derive_seed(base.master_seed, index))
        )
    return specs


def sweep(
    base: ExperimentSpec, axis: str, values, workers: int = 1
) -> list[tuple[float, ExperimentResult]]:
    """One experiment per axis value, on the specs of sweep_specs, run by
    run_specs (one process pool for the sweep at workers > 1)."""
    values = list(values)
    return list(zip(values, run_specs(sweep_specs(base, axis, values), workers)))


def optimal_window(
    base: ExperimentSpec, candidates, workers: int = 1
) -> tuple[int, ExperimentResult]:
    """gts window from `candidates` that maximizes the mean decoded rate.

    Ties break toward the smaller window.
    """
    candidates = sorted(set(candidates))
    if not candidates:
        raise ValueError("candidates must be non-empty")
    if candidates[0] < 1 or candidates[-1] > base.m_total:
        raise ValueError("candidates must lie in [1, m_total]")
    best = None
    for window, result in sweep(base, "window", candidates, workers=workers):
        if best is None or result.mean_rate > best[1].mean_rate:
            best = (int(window), result)
    return best
