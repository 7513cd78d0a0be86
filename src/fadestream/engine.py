"""Deterministic Monte Carlo experiment runner.

Every trial gets its own counter-based random stream derived from
(master_seed, trial index), so results are independent of execution order,
chunking, and the number of workers.  Per-trial decoded counts are reduced
into an integer histogram, from which the mean rate, its standard error, and
the decode-count cmf all follow exactly.  Experiments that share
(master_seed, trials) share their gains, and a pooled run samples them once
for all of them (common random numbers).
"""

import ctypes
import dataclasses
import numbers
import os
import signal
import sys
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import schemes
from .bounds import InformedBound, informed_counts
from .channel import (
    ChannelRealization,
    FadingModel,
    PowerBudget,
    _aligned_empty,
    _check_count,
    _check_positive,
    _finite_real,
    capacities,
    capacity_moments,
    effective_power,
    ergodic_capacity,  # unused here; bench/child.py HOOKS wrap engine.ergodic_capacity
    trial_stream,
)
from .schemes import AJE, GTS, JE, MT, ST, TS, SchemeConfig

SWEEP_AXES = ("power_db", "rate_r", "m_total", "window", "distance")
INT_AXES = ("m_total", "window")  # sweep axes whose values are integers


def __getattr__(name):
    """engine.ProcessPoolExecutor, imported on first read: the process-pool
    stack (multiprocessing, logging) loads only when a run starts a pool.
    run_specs reads the class through this module, so a class set on the
    name replaces it."""
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class Decoder(NamedTuple):
    """How one scheme configuration class is decoded: its entry in DECODERS.

    kernel(matrix, rate_r, configs, power), called once per batch, decodes
    the batch's distinct configurations `configs` (all of this class, at
    one M and R; one, for a class without fields) from one trials x M
    matrix, of the gains if reads_gains, else of their capacities at
    `power`, and gives one row of per-trial counts per configuration.  It
    calls the batched kernel by its module attribute at call time, so that
    wrappers on those names see every call.  messages(cap, rate_r, scheme)
    marks the messages that decode on one realization's capacities, for the
    schemes whose decoded set need not be the prefix 1..count.
    """

    tag: str  # the --scheme value and the output's scheme column
    kernel: Callable
    reads_gains: bool = False
    messages: Callable | None = None


# the one place each scheme is defined: engine dispatch, spec validation, the
# CLI's tags and decode all read it
DECODERS = {
    MT: Decoder(
        "mt",
        lambda caps, rate_r, configs, power: [schemes.mt_counts(caps, rate_r)],
        messages=lambda cap, rate_r, scheme: schemes.mt_counts(cap[:, None], rate_r),  # a block a trial
    ),
    JE: Decoder("je", lambda caps, rate_r, configs, power: [schemes.je_counts(caps, rate_r)]),
    AJE: Decoder(  # one call per M', each summing its own trailing blocks
        "aje",
        lambda caps, rate_r, configs, power: [schemes.aje_counts(caps, rate_r, c.m_prime) for c in configs],
    ),
    TS: Decoder("ts", lambda caps, rate_r, configs, power: [schemes.ts_counts(caps, rate_r)]),
    GTS: Decoder(
        "gts",
        lambda caps, rate_r, configs, power: schemes.gts_counts(caps, rate_r, [c.window for c in configs]),
        messages=lambda cap, rate_r, scheme: (
            schemes.gts_accumulated_info(cap[None, :], scheme.window)[0] >= rate_r
        ),
    ),
    ST: Decoder(
        "st",
        lambda phis, rate_r, configs, power: [schemes.st_counts(phis, power.p_linear, rate_r)],
        reads_gains=True,
    ),
    InformedBound: Decoder(
        "informed-bound", lambda caps, rate_r, configs, power: [informed_counts(caps, rate_r)]
    ),
}


def _decoder(scheme) -> Decoder:
    """The DECODERS entry of a scheme configuration, by its exact class."""
    if type(scheme) not in DECODERS:
        raise ValueError(f"unknown scheme configuration: {scheme!r}")
    return DECODERS[type(scheme)]


@dataclass(frozen=True)
class DecodeOutcome:
    """Decoded message set with its count and delivered rate n_d * R / M."""

    decoded: frozenset
    n_d: int
    rate: float


def decode(
    scheme, real: ChannelRealization, rate_r: float, power: PowerBudget | None = None
) -> DecodeOutcome:
    """The messages that `scheme` decodes on one realization, by its entry in
    DECODERS: the per-message rule where the entry has one (mt, gts), else
    the first n messages, n being the kernel's count on a one-row batch.

    `power`, the budget of the realization's capacities, is read by st
    only, which decodes from the gains.  aje's m_prime must be set.  The
    delivered rate divides by the full M, so messages that aje drops count
    against it.
    """
    entry = _decoder(scheme)
    _check_positive("rate_r", rate_r)
    if entry.messages is not None:
        decoded = np.flatnonzero(entry.messages(real.cap, rate_r, scheme)) + 1
    elif entry.reads_gains and power is None:
        raise ValueError(f"{entry.tag} decodes from the gains and needs their power")
    else:
        matrix = real.phi if entry.reads_gains else real.cap
        decoded = range(1, int(entry.kernel(matrix[None, :], rate_r, [scheme], power)[0][0]) + 1)
    decoded = frozenset(int(i) for i in decoded)
    return DecodeOutcome(decoded=decoded, n_d=len(decoded), rate=len(decoded) * rate_r / real.m_blocks)


# elements of a chunk's trials x M gains per spec decoded from them.  At
# 2**14 one trials x M float64 array is 128 KiB, so a lone spec's gains,
# capacities and kernel temporaries (under 1 MiB) stay in a core's 2 MiB L2
# cache.  Per trial at M = 2000 (2-vCPU 2.1 GHz Xeon): gts (W=50) 28.6 us,
# je 24.5 us, informed bound 33.4 us with sampling, against 32.4, 29.3 and
# 38.2 us at the former 10**6 budget.  4096 trials decide at M <= 4.
_CHUNK_ELEMENTS = 2**14
# most specs that widen a chunk: fig4's group (22 specs, 2000 trials, one
# in-process task) decodes 181k, 233k, 258k and 237k spec-trials/s at 1, 2,
# 4 and 8 times 2**14 gains; 2**16 for lone specs raised fig5a's peak RSS by
# 2 MB
_CHUNK_SPECS = 4


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

# tasks per pool process for each (seed, trials) group of a pooled run, each
# a run of consecutive chunks whose histograms the worker sums.  A group's
# tasks are submitted together, so this also bounds the tasks per process in
# flight.  One task per chunk left the workers idle in hand-offs (fig4, 4000
# trials, two workers: 7.9 s against 3.7 s).  fig4 at 8000 trials in
# 32-trial chunks took 0.464, 0.464, 0.470 and 0.476 s at 1, 2, 4 and 8
# tasks per worker; with two, a worker can take a task from a slow one
_TASKS_PER_WORKER = 2


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
        _decoder(self.scheme)
        _check_count("m_total", self.m_total)
        _check_count("trials", self.trials)
        _check_positive("rate_r", self.rate_r)
        if not _finite_real(self.power_db):
            raise ValueError("power_db must be finite")
        if isinstance(self.master_seed, bool) or not isinstance(self.master_seed, numbers.Integral):
            raise ValueError("master_seed must be an integer")
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
    """Gains of trials [start, start + count), one row per trial, in a
    64-byte-aligned block."""
    phis = _aligned_empty((count, m_total))
    # looked up once per block, at call time, so that wrappers on these names see every call
    stream, sample = trial_stream, FadingModel.sample_gains
    for trial, row in enumerate(phis, start):
        sample(stream(master_seed, trial), row)
    return phis


class _Group(NamedTuple):
    """Resolved specs that share (master_seed, trials), decoded together.

    Trial k's first m gains are the same for every M >= m, and capacities
    are elementwise, so one block of gains at the largest M serves every
    spec: each decodes its [:, :M] prefix, the capacities of one received
    power are computed once for all the specs that decode from them, and
    the specs of one (power, scheme class, M, R) share one kernel call per
    chunk.  Each spec's counts are those of its own run, bit for bit.
    """

    specs: tuple[ExperimentSpec, ...]
    m_total: int  # the largest M, which sets the chunking
    # per received power, the batches of spec indices that decode from the
    # gains and those that decode from the capacities; see _decode_batches
    by_power: tuple[tuple[PowerBudget, tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]], ...]


def _group(specs) -> _Group:
    """The _Group of resolved specs that share (master_seed, trials)."""
    by_power = {}
    for index, spec in enumerate(specs):
        kind = type(spec.scheme)
        on_gains, on_caps = by_power.setdefault(received_power(spec), ({}, {}))
        batches = on_gains if DECODERS[kind].reads_gains else on_caps
        batches.setdefault((kind, spec.m_total, spec.rate_r), []).append(index)

    def frozen(batches):
        return tuple(tuple(indices) for indices in batches.values())

    return _Group(
        tuple(specs),
        max(spec.m_total for spec in specs),
        tuple((power, frozen(on_gains), frozen(on_caps)) for power, (on_gains, on_caps) in by_power.items()),
    )


def _group_chunks(group: _Group) -> range:
    """A group's chunks: its block of gains feeds every spec, so a chunk of
    several specs holds up to _CHUNK_SPECS times a lone spec's trials."""
    return _chunk_ranges(group.specs[0].trials, group.m_total, len(group.specs))


def _decode_chunk(group: _Group, start: int, count: int) -> list[np.ndarray]:
    """Decoded counts for trials [start, start + count) of every spec of a
    group, from one block of gains."""
    specs = group.specs
    phis = _sample_gain_block(group.m_total, specs[0].master_seed, start, count)
    counts = [None] * len(specs)
    for power, on_gains, on_caps in group.by_power:
        _decode_batches(specs, on_gains, phis, power, counts)
        if on_caps:
            _capacity_counts(specs, on_caps, phis, power, counts)
    return counts


def _capacity_counts(specs, batches, phis: np.ndarray, power: PowerBudget, counts: list):
    """_decode_batches on the capacities of the gains `phis` at one received
    power, computed once for all the batches."""
    # keep the next line once in this file and a top-level statement of this
    # body: bench/test_bench.py breaks a copy by adding a line at its indent
    caps = capacities(phis, power)
    _decode_batches(specs, batches, caps, power, counts)


def _decode_batches(specs, batches, matrix: np.ndarray, power: PowerBudget, counts: list):
    """Set counts[index] for every spec index of `batches`.  The specs of a
    batch share (scheme class, M, R) and one call of their DECODERS kernel,
    on the [:, :M] prefix of `matrix`, which decodes each distinct
    configuration once; specs of equal configurations share its row."""
    for indices in batches:
        spec = specs[indices[0]]
        configs = dict.fromkeys(specs[index].scheme for index in indices)
        kernel = DECODERS[type(spec.scheme)].kernel
        rows = dict(zip(configs, kernel(matrix[:, : spec.m_total], spec.rate_r, list(configs), power)))
        for index in indices:
            counts[index] = rows[specs[index].scheme]


def _chunk_ranges(trials: int, m_total: int, specs: int = 1) -> range:
    """First trial of each chunk; the step is the chunk size, _CHUNK_ELEMENTS
    gains for each of the `specs` decoded from them, up to _CHUNK_SPECS,
    within [1, 4096] trials, and the last chunk ends at `trials`."""
    elements = _CHUNK_ELEMENTS * min(specs, _CHUNK_SPECS)
    return range(0, trials, max(1, min(4096, elements // m_total)))


def _chunk_histogram(group: _Group, start: int, count: int, hists: list[np.ndarray]):
    """Add the decoded counts of trials [start, start + count) of every spec
    of a group into that spec's M + 1 bins in `hists`."""
    for hist, spec_counts in zip(hists, _decode_chunk(group, start, count)):
        hist += np.bincount(spec_counts, minlength=len(hist))


def _task_histogram(task) -> list[tuple[int, np.ndarray]]:
    """Summed histograms, one per spec, of chunks [first, end) of a group;
    a task is the compact tuple (group, first, end).

    Each histogram comes as its span (m, bins): the bins of decoded counts
    m, m + 1, ..., from its first nonzero bin to its last, so that a pool
    task sends back little more than the counts it saw.  (Sending all M + 1
    bins of fig4's 22 specs at M = 2000 raised the parent's peak RSS by
    1.3 MB.  Summing into them costs a task 0.17 MiB of tracemalloc peak:
    ten of its 32-trial group chunks peak at 2.92 MiB in all, against 2.75
    MiB for histograms grown only as far as the largest count seen.)
    """
    group, first, end = task
    starts = _group_chunks(group)[first:end]
    trials = group.specs[0].trials
    hists = [np.zeros(spec.m_total + 1, dtype=np.int64) for spec in group.specs]
    for start in starts:
        _chunk_histogram(group, start, min(starts.step, trials - start), hists)
    spans = []
    for hist in hists:
        nonzero = np.flatnonzero(hist)
        spans.append((int(nonzero[0]), hist[nonzero[0] : nonzero[-1] + 1]))
    return spans


def _group_results(group: _Group, task_outputs) -> list[ExperimentResult]:
    """The results of a group's specs, in order, from the _task_histogram
    outputs of tasks that cover each of its chunks once: every spec's spans
    add into one histogram of its M + 1 bins."""
    hists = [np.zeros(spec.m_total + 1, dtype=np.int64) for spec in group.specs]
    for spans in task_outputs:
        for hist, (low, bins) in zip(hists, spans):
            hist[low : low + len(bins)] += bins
    return [_result_from_histogram(hist, spec) for hist, spec in zip(hists, group.specs)]


def _resolved(spec: ExperimentSpec) -> ExperimentSpec:
    """The spec with resolve_scheme's scheme; the spec itself if that is
    its own, so that a resolved spec is not rebuilt and checked again."""
    scheme = resolve_scheme(spec)
    return spec if scheme is spec.scheme else dataclasses.replace(spec, scheme=scheme)


def decode_counts(specs) -> list[np.ndarray]:
    """Per-trial decoded counts in trial order, one array per spec.

    The specs must share (master_seed, trials), and each chunk's gains are
    sampled once for all of them (see _Group).  Mainly for paired per-trial
    comparisons (e.g. checking that no scheme ever beats the informed bound
    on the same realization).
    """
    specs = [_resolved(spec) for spec in specs]
    if len({(spec.master_seed, spec.trials) for spec in specs}) != 1:
        raise ValueError("decode_counts needs specs that share one (master_seed, trials)")
    group = _group(specs)
    starts = _group_chunks(group)
    trials = group.specs[0].trials
    chunks = [_decode_chunk(group, start, min(starts.step, trials - start)) for start in starts]
    return [np.concatenate(spec_counts) for spec_counts in zip(*chunks)]


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Run all trials in this process and aggregate the decode-count statistics.

    The reduction is an integer histogram sum, so the result is bit-identical
    for any chunking; run_specs([spec], workers)[0] is the same result from a
    process pool.
    """
    group = _group([_resolved(spec)])
    return _group_results(group, [_task_histogram((group, 0, len(_group_chunks(group))))])[0]


def run_specs(specs, workers: int = 1) -> list[ExperimentResult]:
    """run_experiment of every spec, in order, with one process pool for all.

    `workers` must be a positive integer, and every spec is resolved before
    anything runs, so a failing resolution starts no pool.  At workers == 1
    every spec runs through run_experiment in this process, and so do no
    specs, or specs of a single chunk in all.  Otherwise the specs are
    grouped by (master_seed, trials), and one pool of min(workers, CPUs)
    processes runs the groups one after another, each in _TASKS_PER_WORKER
    tasks per process.  A task samples each chunk's gains once for its
    whole group (see _Group) and returns one histogram span per spec;
    _group_results adds them up as run_experiment does, and histograms are
    integer sums, so each result equals run_experiment's.
    """
    _check_count("workers", workers)
    specs = [_resolved(spec) for spec in specs]
    members = {}
    for index, spec in enumerate(specs):
        members.setdefault((spec.master_seed, spec.trials), []).append(index)
    groups = [_group([specs[index] for index in indices]) for indices in members.values()]
    chunks = [len(_group_chunks(group)) for group in groups]
    if workers == 1 or sum(chunks) <= 1:
        return [run_experiment(spec) for spec in specs]
    # the fork start method forks every process of the pool at its first task
    workers = min(workers, os.cpu_count() or 1)
    results = [None] * len(specs)
    # a worker under Python's SIGINT handler would finish its task before an
    # interrupted run exits; with the default action it ends at once
    sigint_default = (signal.SIGINT, signal.SIG_DFL)
    pool_class = sys.modules[__name__].ProcessPoolExecutor  # see __getattr__
    with pool_class(workers, initializer=signal.signal, initargs=sigint_default) as pool:
        for indices, group, count in zip(members.values(), groups, chunks):
            size = -(-count // (_TASKS_PER_WORKER * workers))
            tasks = [(group, first, min(first + size, count)) for first in range(0, count, size)]
            for index, result in zip(indices, _group_results(group, pool.map(_task_histogram, tasks))):
                results[index] = result
    return results


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


def _int_value(axis: str, value) -> int:
    """A value of an integer sweep axis as an int; a float is refused, not
    truncated, and a bool, as the spec's own checks refuse it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{axis} sweep values must be integers, not {value!r}")
    return int(value)


def sweep_specs(base: ExperimentSpec, axis: str, values) -> list[ExperimentSpec]:
    """The experiments of a sweep: point i sets `axis` to values[i].  Every
    point keeps base.master_seed, so the points share their gains trial by
    trial (common random numbers) and a pooled run samples them once."""
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
    if axis == "window" and not isinstance(base.scheme, GTS):
        raise ValueError("window sweep applies to the gts scheme only")
    if axis == "distance" and base.distance is None:
        raise ValueError("distance sweep needs a base (distance, path_loss) pair")
    specs = []
    for value in values:
        if axis in INT_AXES:
            value = _int_value(axis, value)
        if axis == "window":
            change = {"scheme": GTS(window=value)}
        elif axis == "distance":
            change = {"distance": (float(value), base.distance[1])}
        else:
            change = {axis: value if axis in INT_AXES else float(value)}
        specs.append(dataclasses.replace(base, **change))
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

    Ties break toward the smaller window.  sweep_specs checks every
    candidate before equal windows merge, so 5.0 is refused beside 5.
    """
    specs = {spec.scheme.window: spec for spec in sweep_specs(base, "window", candidates)}
    if not specs:
        raise ValueError("candidates must be non-empty")
    windows = sorted(specs)
    results = zip(windows, run_specs([specs[window] for window in windows], workers))
    return max(results, key=lambda pair: pair[1].mean_rate)  # the first of ties: sorted windows
