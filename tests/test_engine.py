"""Experiment runner: determinism, statistics accounting, sweeps."""

import dataclasses
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import fadestream
from fadestream import cli, engine, schemes
from fadestream.bounds import InformedBound
from fadestream.channel import (
    capacities,
    capacity_moments,
    sample_realization,
    trial_stream,
)
from fadestream.engine import (
    ExperimentSpec,
    decode,
    decode_counts,
    optimal_window,
    received_power,
    resolve_scheme,
    run_experiment,
    run_specs,
    sweep,
    sweep_specs,
)
from fadestream.schemes import AJE, GTS, JE, MT, ST, TS


def make_spec(**overrides):
    base = dict(
        power_db=1.44,
        m_total=10,
        rate_r=1.0,
        scheme=MT(),
        trials=2000,
        master_seed=7,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_repeated_runs_are_bit_identical():
    spec = make_spec(scheme=JE(), trials=5000)
    a = run_experiment(spec)
    b = run_experiment(spec)
    assert a.mean_rate == b.mean_rate
    assert a.rate_se == b.rate_se
    assert a.mean_decoded == b.mean_decoded
    assert np.array_equal(a.cmf, b.cmf)


def test_worker_count_does_not_change_results():
    spec = make_spec(scheme=TS(), trials=9000, m_total=30)
    serial = run_experiment(spec)
    parallel = run_specs([spec], 3)[0]
    assert serial.mean_rate == parallel.mean_rate
    assert serial.rate_se == parallel.rate_se
    assert np.array_equal(serial.cmf, parallel.cmf)


def test_single_trial_reproduces_one_decode():
    spec = make_spec(trials=1, master_seed=123)
    result = run_experiment(spec)
    real = sample_realization(received_power(spec), spec.m_total, trial_stream(123, 0))
    out = decode(MT(), real, spec.rate_r)
    assert result.mean_decoded == out.n_d
    assert result.mean_rate == out.rate
    assert result.rate_se == 0.0


def test_distance_scales_power():
    spec = make_spec(power_db=20.0, distance=(2.0, 3.0))
    assert received_power(spec).p_linear == pytest.approx(12.5)


# ---------------------------------------------------------------------------
# statistics accounting
# ---------------------------------------------------------------------------


def test_result_invariants():
    spec = make_spec(scheme=JE(), trials=4000, m_total=12)
    res = run_experiment(spec)
    assert res.trials_run == 4000
    assert 0.0 <= res.mean_rate <= spec.rate_r
    assert res.mean_rate == pytest.approx(
        spec.rate_r * res.mean_decoded / spec.m_total, rel=1e-12
    )
    assert np.all(np.diff(res.cmf) >= 0.0)
    assert res.cmf[-1] == 1.0
    assert len(res.cmf) == spec.m_total + 1


def test_mean_from_cmf_tail_accounting():
    spec = make_spec(scheme=TS(), trials=3000, m_total=15)
    res = run_experiment(spec)
    tail_mean = float(np.sum(1.0 - res.cmf[:-1]))
    assert res.mean_decoded == pytest.approx(tail_mean, rel=1e-12, abs=1e-12)


def test_mt_mean_matches_binomial_oracle():
    # per-block success 0.4878 at 1.44 dB makes the decoded count binomial
    trials = 200000
    res = run_experiment(make_spec(scheme=MT(), m_total=50, trials=trials, master_seed=17))
    p = 0.4878270745922835
    se = np.sqrt(50 * p * (1 - p) / trials)
    assert res.mean_decoded == pytest.approx(50 * p, abs=3 * se)


def test_standard_error_scales_with_trials():
    small = run_experiment(make_spec(scheme=MT(), trials=20000, master_seed=5))
    large = run_experiment(make_spec(scheme=MT(), trials=80000, master_seed=6))
    ratio = small.rate_se / large.rate_se
    assert ratio == pytest.approx(2.0, rel=0.10)


def test_aje_resolves_adaptive_message_count():
    spec = make_spec(scheme=AJE(), power_db=20.0, m_total=100, rate_r=8.0, trials=10)
    resolved = resolve_scheme(spec)
    # A Monte Carlo sweep with M' pinned (50000 trials at the adaptive-encoding
    # acceptance seed) gives 66 -> 5.137, 67 -> 5.157, 68 -> 5.139,
    # 69 -> 5.057, 70 -> 4.873.
    assert resolved.m_prime == 67
    pinned = make_spec(scheme=AJE(m_prime=33), m_total=100, trials=10)
    assert resolve_scheme(pinned).m_prime == 33


def test_aje_rate_approaches_the_ergodic_capacity_at_long_deadlines():
    """At M = 10**4 the chosen message load M' R / (M c_bar) is 0.982.

    Measured once: 0.96956 c_bar with SE 0.00123 c_bar.  Any M' at or below
    0.95 M c_bar / R (6987 here) would hold the rate to at most 0.94996 c_bar.
    """
    spec = make_spec(scheme=AJE(), power_db=20.0, m_total=10**4, rate_r=8.0, trials=300,
                     master_seed=11)
    result = run_experiment(spec)
    c_bar = capacity_moments(received_power(spec))[0]
    assert result.scheme.m_prime == 7219
    assert result.mean_rate > 0.96 * c_bar


def test_aje_message_count_is_resolved_once_per_experiment(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return capacity_moments(*args, **kwargs)

    monkeypatch.setattr(engine, "capacity_moments", counted)
    spec = make_spec(scheme=AJE(), trials=9000, m_total=10)
    assert len(engine._chunk_ranges(spec.trials, spec.m_total)) == 6
    run_experiment(spec)
    decode_counts([spec])
    run_specs([spec], 2)  # resolved in the parent, not per task
    assert len(calls) == 3


def test_run_experiment_memory_is_bounded_at_long_deadlines():
    """gts at M=2000: a chunk of 4000 trials x 2000 blocks peaked at 448 MB."""
    spec = make_spec(scheme=GTS(window=50), power_db=2.0, m_total=2000, trials=4000)
    tracemalloc.start()
    try:
        result = run_experiment(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.trials_run == 4000
    assert peak < 100 * 2**20


def test_run_experiment_chunks_stay_cache_sized_at_long_deadlines():
    """The same run in 8-trial chunks peaks at 0.74 MiB (a chunk's gains,
    capacities and gts temporaries of 125 KiB each); the bound leaves 0.26
    MiB of margin.  A 2**15 budget peaks at 1.2 MiB, 2**16 at 2.2 MiB and
    the former 10**6 budget at 31 MiB."""
    spec = make_spec(scheme=GTS(window=50), power_db=2.0, m_total=2000, trials=4000)
    tracemalloc.start()
    try:
        result = run_experiment(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.trials_run == 4000
    assert peak < 2**20


def test_lone_specs_keep_their_chunks_and_groups_widen_theirs_up_to_four_times():
    """A lone spec's chunk is 2**14 gains within [1, 4096] trials (the step
    that bench/child.py recomputes with two arguments); a group's grows
    with its specs and stops at four times that."""
    for trials, m_total, step in ((4000, 2000, 8), (10, 10**4, 1), (10**5, 50, 327), (10**5, 2, 4096)):
        assert engine._chunk_ranges(trials, m_total).step == step
    specs = [make_spec(scheme=GTS(window=w), m_total=2000) for w in (1, 2, 5, 10, 20, 50)]
    steps = [engine._group_chunks(engine._group(specs[:n])).step for n in range(1, 7)]
    assert steps == [8, 16, 24, 32, 32, 32]
    assert engine._chunk_ranges(10, 10**4, 22).step == 6
    assert engine._chunk_ranges(10**5, 2, 22).step == 4096


def test_a_ten_chunk_fig4_task_stays_within_four_mib():
    """fig4's group (22 gts specs at M = 2000) runs in 32-trial chunks: the
    task peaks at 2.75 MiB (a chunk's gains and capacities and the shared
    window kernel's prefix sums), against 1.08 MiB in a lone spec's 8-trial
    chunks."""
    specs = [engine._resolved(spec) for spec in cli.PRESETS["fig4"]["build"](400, 7)]
    group = engine._group(specs)
    assert engine._group_chunks(group).step == 32
    tracemalloc.start()
    try:
        spans = engine._task_histogram((group, 0, 10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [int(bins.sum()) for _, bins in spans] == [320] * 22
    assert peak < 4 * 2**20


@pytest.mark.parametrize("size, chunks", [(1, 13), (2, 7), (22, 4)])
def test_wide_group_chunks_give_each_spec_its_own_counts(size, chunks):
    """1-, 2- and 22-spec groups, in chunks of 8, 16 and 32 trials at
    M = 2000 (the last one partial), decode each spec's own counts."""
    specs = cli.PRESETS["fig4"]["build"](100, 3)[:size]
    assert len(engine._group_chunks(engine._group(specs))) == chunks
    together = decode_counts(specs)
    for spec, counts in zip(specs, together, strict=True):
        assert np.array_equal(counts, decode_counts([spec])[0])


_PAGE_FAULTS = """
import resource, sys
from fadestream import cli, engine
from fadestream.schemes import GTS
assert "scipy.special" not in sys.modules
fig4 = cli.PRESETS["fig4"]["build"](400, 1)  # gts at M=2000: 22 specs of 50 chunks
wide = engine.ExperimentSpec(2.0, 20000, 1.0, GTS(window=50), 60, 1)
for specs in (fig4, [wide]):
    chunks = sum(len(engine._chunk_ranges(spec.trials, spec.m_total)) for spec in specs)
    engine.run_specs(specs, 1)  # the heap grows to its working size
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    engine.run_specs(specs, 1)
    print(chunks, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="mallopt thresholds are glibc's")
def test_chunks_reuse_heap_pages_without_scipy_special():
    """Fewer than one minor page fault per chunk once the heap has grown, in
    a process that never imported scipy.special (whose import used to raise
    glibc's thresholds): fig4's gts specs at M=2000, and gts at M=20000,
    where a chunk is one trial of 160 KB arrays.  With glibc's default
    thresholds the two took 68000-107000 and about 5200 faults."""
    src = os.path.dirname(os.path.dirname(fadestream.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _PAGE_FAULTS],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    for line in done.stdout.splitlines():
        chunks, faults = map(int, line.split())
        assert chunks >= 50
        assert faults < chunks, line


CHUNK_INVARIANCE_SCHEMES = [
    MT(),
    JE(),
    AJE(),
    TS(),
    GTS(window=4),
    InformedBound(),
    ST(),
]


@pytest.mark.parametrize("scheme", CHUNK_INVARIANCE_SCHEMES, ids=repr)
def test_results_do_not_depend_on_the_chunk_budget(monkeypatch, scheme):
    spec = make_spec(scheme=scheme, m_total=9, trials=700)
    runs = []
    for budget, chunks in ((3 * 9, 234), (10**9, 1)):  # 3 trials per chunk; one chunk
        monkeypatch.setattr(engine, "_CHUNK_ELEMENTS", budget)
        assert len(engine._chunk_ranges(spec.trials, spec.m_total)) == chunks
        runs.append((run_experiment(spec), decode_counts([spec])[0]))
    (small, small_counts), (large, large_counts) = runs
    assert np.array_equal(small.cmf, large.cmf)
    assert small.mean_rate == large.mean_rate
    assert small.rate_se == large.rate_se
    assert np.array_equal(small_counts, large_counts)
    assert 0 < small.mean_decoded < spec.m_total  # a nontrivial histogram


def test_decode_counts_matches_run_experiment():
    spec = make_spec(scheme=JE(), trials=5000, m_total=8)
    (counts,) = decode_counts([spec])
    res = run_experiment(spec)
    assert counts.mean() == pytest.approx(res.mean_decoded, rel=1e-12)
    assert np.array_equal(np.cumsum(np.bincount(counts, minlength=9)) / 5000, res.cmf)


def test_decode_counts_of_a_group_equal_those_of_each_spec_alone():
    """One sampled batch per chunk for specs of different M, power and
    scheme gives each spec its own counts."""
    specs = [
        make_spec(scheme=JE(), trials=900, m_total=8),
        make_spec(scheme=ST(), trials=900, m_total=5, power_db=0.0),
        make_spec(scheme=GTS(window=3), trials=900, m_total=40),
    ]
    together = decode_counts(specs)
    assert len(together) == len(specs)
    for spec, counts in zip(specs, together):
        assert np.array_equal(counts, decode_counts([spec])[0])


def test_a_lone_gts_window_takes_the_shared_sums_in_one_kernel_call_per_chunk(monkeypatch):
    """fig5a's gts spec, alone in its group: the engine hands gts_counts its
    window list, and the one window is decided from the shared prefix sums,
    so the exact rule sees only a chunk's band trials, fewer than the chunk
    has.  Calls made inside an open gts_counts call are not counted, as a
    kernel's are not in the benchmark's trace."""
    spec = make_spec(scheme=GTS(window=10), m_total=50, trials=1000)
    calls, open_calls, exact_rows = [], [], []
    gts_counts, exact = schemes.gts_counts, schemes.gts_accumulated_info

    def counted(caps, rate_r, window):
        if not open_calls:
            calls.append(window)
            exact_rows.append([len(caps)])
        open_calls.append(window)
        try:
            return gts_counts(caps, rate_r, window)
        finally:
            open_calls.pop()

    def counted_exact(caps, window):
        exact_rows[-1].append(len(caps))
        return exact(caps, window)

    monkeypatch.setattr(schemes, "gts_counts", counted)
    monkeypatch.setattr(schemes, "gts_accumulated_info", counted_exact)
    (counts,) = decode_counts([spec])
    chunks = engine._chunk_ranges(spec.trials, spec.m_total)
    assert len(chunks) == 4 and calls == [[10]] * len(chunks)
    assert all(sum(seen) < rows for rows, *seen in exact_rows)
    caps = capacities(engine._sample_gain_block(50, spec.master_seed, 0, spec.trials), received_power(spec))
    assert np.array_equal(counts, (exact(caps, 10) >= spec.rate_r).sum(axis=1))


@pytest.mark.parametrize("change", [{"master_seed": 8}, {"trials": 901}])
def test_decode_counts_refuses_specs_of_different_groups(change):
    spec = make_spec(scheme=JE(), trials=900, m_total=8)
    with pytest.raises(ValueError):
        decode_counts([spec, dataclasses.replace(spec, **change)])
    with pytest.raises(ValueError):
        decode_counts([])


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_spec_validation_rejects_bad_inputs():
    with pytest.raises(ValueError):
        make_spec(trials=0)
    with pytest.raises(ValueError):
        make_spec(m_total=0)
    with pytest.raises(ValueError):
        make_spec(rate_r=0.0)
    with pytest.raises(ValueError):
        make_spec(master_seed=-1)
    with pytest.raises(ValueError):
        make_spec(distance=(0.0, 3.0))
    with pytest.raises(ValueError):
        make_spec(scheme=GTS(window=11), m_total=10)
    with pytest.raises(ValueError):
        make_spec(scheme=AJE(m_prime=11), m_total=10)
    with pytest.raises(ValueError):
        make_spec(scheme="mt")
    for field, value in (("m_total", 4.5), ("m_total", 4.0), ("trials", 2.5), ("master_seed", 1.5)):
        with pytest.raises(ValueError):
            make_spec(**{field: value})
    # a bool is not a count, and a string or None is not a number: ValueError,
    # not a one-block spec or numpy's TypeError
    for field, value in (
        ("m_total", True), ("trials", True), ("master_seed", True), ("power_db", "2"),
        ("power_db", None), ("rate_r", None), ("rate_r", "1"), ("rate_r", 10**400),
        ("distance", ("4", 3.0)),
    ):
        with pytest.raises(ValueError):
            make_spec(**{field: value})
    assert make_spec(m_total=np.int64(4), trials=np.int32(5), master_seed=np.uint64(3)).m_total == 4


@pytest.mark.parametrize(
    "distance",
    [(np.nan, 3.0), (np.inf, 3.0), (2.0, np.nan), (10.0, 400.0)],
    ids=["nan", "inf", "nan-exponent", "underflow"],
)
def test_spec_rejects_distances_without_a_received_power(distance):
    """10**-400 underflows the received power to 0; the others are not numbers
    a path loss can use.  Each raises at construction, not in a run."""
    with pytest.raises(ValueError):
        make_spec(distance=distance)


# ---------------------------------------------------------------------------
# one process pool per call
# ---------------------------------------------------------------------------


def mixed_specs():
    """Specs of every kind run_specs meets: several M, one chunk or many,
    an unresolved aje, st, gts and the informed bound."""
    return [
        make_spec(scheme=JE(), m_total=2000, trials=60, power_db=2.0),  # 8 chunks
        make_spec(scheme=MT(), trials=300),  # a single chunk
        make_spec(scheme=AJE(), power_db=20.0, m_total=100, rate_r=8.0, trials=400),
        make_spec(scheme=ST(), m_total=30, trials=1200),
        make_spec(scheme=GTS(window=5), m_total=500, trials=200, master_seed=8),
        make_spec(scheme=InformedBound(), m_total=50, trials=1000),
    ]


def test_run_specs_matches_per_spec_runs(counting_pool):
    specs = mixed_specs()
    assert len(engine._chunk_ranges(specs[0].trials, specs[0].m_total)) == 8
    assert len(engine._chunk_ranges(specs[1].trials, specs[1].m_total)) == 1
    expected = [run_experiment(spec) for spec in specs]
    assert counting_pool.starts == 0
    for workers in (1, 2, 3):
        starts, counting_pool.peak = counting_pool.starts, 0
        got = run_specs(specs, workers)
        assert counting_pool.starts - starts == (workers > 1)
        assert counting_pool.peak <= 2 * workers
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            assert np.array_equal(a.cmf, b.cmf)
            assert a.mean_rate == b.mean_rate
            assert a.rate_se == b.rate_se
            assert a.scheme == b.scheme
    assert expected[2].scheme.m_prime == 67  # aje resolved


def one_group_of_specs():
    """Specs that share (master_seed, trials): M = 1..100, two powers and a
    distance point (a third received power), st, aje, gts and informed."""
    specs = [make_spec(scheme=JE(), m_total=m, power_db=2.0, trials=300) for m in range(1, 101)]
    for power_db in (2.0, 20.0):
        specs += [
            make_spec(scheme=scheme, m_total=m, power_db=power_db, trials=300)
            for m in (1, 7, 50, 100)
            for scheme in (MT(), AJE(), TS(), GTS(window=1), ST(), InformedBound())
        ]
    specs += [
        make_spec(scheme=scheme, m_total=60, power_db=20.0, trials=300, distance=(4.0, 3.0))
        for scheme in (JE(), AJE(), GTS(window=10), ST())
    ]
    specs.append(make_spec(scheme=AJE(m_prime=30), m_total=100, power_db=20.0, rate_r=8.0, trials=300))
    return specs


def test_pooled_group_matches_the_serial_runs_exactly(counting_pool, monkeypatch):
    """One group decoded from shared gains gives each spec its own run's
    result, bit for bit, whatever each spec's M and power."""
    monkeypatch.setattr(engine, "_CHUNK_ELEMENTS", 1000)  # 10 trials per lone chunk at M = 100
    monkeypatch.setattr(engine.os, "cpu_count", lambda: 2)
    specs = one_group_of_specs()
    serial = run_specs(specs, 1)
    assert counting_pool.starts == 0
    pooled = run_specs(specs, 2)
    assert counting_pool.starts == 1
    # 8 group chunks of 40 trials at the group's largest M, in 2 tasks per
    # pool process
    assert counting_pool.submits == 4
    for a, b in zip(pooled, serial, strict=True):
        assert a.cmf.tolist() == b.cmf.tolist()
        assert (a.mean_rate, a.rate_se, a.scheme) == (b.mean_rate, b.rate_se, b.scheme)


def test_a_group_task_samples_once_and_computes_capacities_once_per_power(monkeypatch):
    monkeypatch.setattr(engine, "_CHUNK_ELEMENTS", 2**12)  # 163 trials per group chunk at M = 100
    specs = [engine._resolved(spec) for spec in one_group_of_specs()]
    group = engine._group(specs)
    chunks = engine._group_chunks(group)
    assert group.m_total == 100 and len(chunks) == 2
    calls = {"sample": [], "capacities": []}
    sample, caps = engine._sample_gain_block, engine.capacities

    def counted_sample(m_total, *args):
        calls["sample"].append(m_total)
        return sample(m_total, *args)

    def counted_capacities(phis, power):
        calls["capacities"].append(power.p_linear)
        return caps(phis, power)

    monkeypatch.setattr(engine, "_sample_gain_block", counted_sample)
    monkeypatch.setattr(engine, "capacities", counted_capacities)
    spans = engine._task_histogram((group, 0, len(chunks)))
    assert calls["sample"] == [100] * len(chunks)
    powers = {received_power(spec).p_linear for spec in specs}
    assert len(powers) == 3
    assert len(calls["capacities"]) == 3 * len(chunks)
    assert set(calls["capacities"]) == powers
    for (low, bins), spec in zip(spans, specs, strict=True):
        assert int(bins.sum()) == 300 and bins[0] > 0 and bins[-1] > 0
        assert 0 <= low and low + len(bins) <= spec.m_total + 1


def test_a_group_of_st_specs_computes_no_capacities(monkeypatch):
    def refused(*args):
        raise AssertionError("capacities called")

    monkeypatch.setattr(engine, "capacities", refused)
    group = engine._group([make_spec(scheme=ST(), m_total=m, trials=50) for m in (3, 12)])
    assert [int(bins.sum()) for _, bins in engine._task_histogram((group, 0, 1))] == [50, 50]


def test_pooled_runs_keep_at_most_two_tasks_per_worker_in_flight(counting_pool, monkeypatch):
    monkeypatch.setattr(engine, "_CHUNK_ELEMENTS", 10)  # one trial per chunk at M = 10
    specs = [make_spec(scheme=JE(), trials=40, master_seed=seed) for seed in range(5)]
    expected = [run_experiment(spec) for spec in specs]
    got = run_specs(specs, workers=2)  # 4 tasks per group, 20 in all
    assert counting_pool.starts == 1
    assert 1 < counting_pool.peak <= 4
    assert [r.cmf.tolist() for r in got] == [r.cmf.tolist() for r in expected]


@pytest.mark.parametrize("workers", [2.5, True, 0, -3])
def test_run_specs_refuses_a_worker_count_that_is_not_a_positive_integer(workers, monkeypatch):
    """Before any spec is resolved: with four CPUs 2.5 used to fail in
    range() once every spec was resolved, and True, 0 and -3 ran serially."""
    monkeypatch.setattr(engine.os, "cpu_count", lambda: 4)

    def refused(spec):
        raise AssertionError("spec resolved")

    monkeypatch.setattr(engine, "_resolved", refused)
    base = make_spec(scheme=GTS(window=1), trials=9000)
    for run in (
        lambda: run_specs([base], workers),
        lambda: sweep(base, "window", [1, 2], workers),
        lambda: optimal_window(base, [1, 2], workers),
    ):
        with pytest.raises(ValueError, match="workers must be an integer >= 1"):
            run()


def test_run_specs_takes_numpy_worker_counts(counting_pool, monkeypatch):
    monkeypatch.setattr(engine.os, "cpu_count", lambda: 2)
    spec = make_spec(scheme=JE(), trials=9000)  # 6 chunks
    expected = run_experiment(spec)
    for workers, starts in ((np.int64(1), 0), (np.int32(2), 1)):
        (got,) = run_specs([spec], workers)
        assert counting_pool.starts == starts
        assert got.cmf.tolist() == expected.cmf.tolist()


def test_a_pool_has_at_most_one_process_per_cpu(monkeypatch):
    """The fork start method forks every process at the first task, so the
    pool size, not the requested worker count, is what a run forks."""

    class Refused(Exception):
        pass

    sizes = []

    def no_pool(max_workers):
        sizes.append(max_workers)
        raise Refused  # before any process starts

    monkeypatch.setattr(engine, "ProcessPoolExecutor", no_pool)
    spec = make_spec(trials=9000)  # 6 chunks
    for cpus, size in ((2, 2), (None, 1)):
        monkeypatch.setattr(engine.os, "cpu_count", lambda: cpus)
        with pytest.raises(Refused):
            run_specs([spec], 5000)
        assert sizes.pop() == size


def test_tasks_and_in_flight_limit_follow_the_pool_size(counting_pool, monkeypatch):
    monkeypatch.setattr(engine, "_CHUNK_ELEMENTS", 10)  # one trial per chunk at M = 10
    monkeypatch.setattr(engine.os, "cpu_count", lambda: 1)
    specs = [make_spec(scheme=JE(), trials=40, master_seed=seed) for seed in range(5)]
    expected = [run_experiment(spec) for spec in specs]
    got = run_specs(specs, workers=3)  # a pool of one process: 2 tasks per group
    assert (counting_pool.starts, counting_pool.submits) == (1, 10)
    assert counting_pool.peak <= 2
    assert [r.cmf.tolist() for r in got] == [r.cmf.tolist() for r in expected]


def test_sweeps_start_one_pool_per_call(counting_pool):
    base = make_spec(scheme=GTS(window=1), m_total=2000, trials=40)
    sweep(base, "window", [1, 10, 100], workers=1)
    optimal_window(base, [1, 10, 100], workers=1)
    assert counting_pool.starts == 0
    sweep(base, "window", [1, 10, 100], workers=2)
    assert counting_pool.starts == 1
    optimal_window(base, [1, 10, 100], workers=2)
    assert counting_pool.starts == 2
    run_specs([make_spec(trials=5)], 2)  # a single chunk runs in this process
    assert counting_pool.starts == 2


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def test_sweep_empty_values():
    assert sweep(make_spec(), "power_db", []) == []


def test_sweep_rejects_unknown_or_inapplicable_axis():
    with pytest.raises(ValueError):
        sweep(make_spec(), "bandwidth", [1.0])
    with pytest.raises(ValueError):
        sweep(make_spec(scheme=MT()), "window", [1, 2])
    with pytest.raises(ValueError):
        sweep(make_spec(distance=None), "distance", [1.0, 2.0])
    with pytest.raises(ValueError):
        sweep_specs(make_spec(), "m_total", [4.7])
    with pytest.raises(ValueError):
        sweep_specs(make_spec(), "m_total", [4.0])
    with pytest.raises(ValueError):
        sweep_specs(make_spec(scheme=GTS(window=1)), "window", [2.9])
    with pytest.raises(ValueError):
        sweep_specs(make_spec(scheme=GTS(window=1)), "window", [True])
    with pytest.raises(ValueError):
        sweep_specs(make_spec(), "m_total", [True])
    specs = sweep_specs(make_spec(scheme=GTS(window=1)), "window", [np.int64(2)])
    assert type(specs[0].scheme.window) is int
    assert type(sweep_specs(make_spec(), "m_total", [np.int64(4)])[0].m_total) is int


def test_sweep_points_share_the_base_seed():
    """Common random numbers: every point of a sweep draws the same gains,
    so the same operating point twice gives the same estimate."""
    base = make_spec(scheme=MT(), trials=4000)
    assert {s.master_seed for s in sweep_specs(base, "power_db", [1.44, 2.0])} == {7}
    results = sweep(base, "power_db", [1.44, 1.44])
    assert results[0][1].cmf.tolist() == results[1][1].cmf.tolist()


@pytest.mark.parametrize(
    "axis, base, values, field",
    [
        ("power_db", make_spec(), [0.0, 2.5], lambda s: s.power_db),
        ("rate_r", make_spec(), [0.5, 2.0], lambda s: s.rate_r),
        ("m_total", make_spec(), [3, 40], lambda s: s.m_total),
        ("window", make_spec(scheme=GTS(window=1)), [2, 7], lambda s: s.scheme.window),
        ("distance", make_spec(distance=(1.0, 3.0)), [2.0, 5.0], lambda s: s.distance[0]),
    ],
)
def test_sweep_runs_the_specs_it_lists(axis, base, values, field):
    specs = sweep_specs(base, axis, values)
    assert [field(s) for s in specs] == values
    assert [s.master_seed for s in specs] == [base.master_seed] * 2
    swept = {"window": "scheme"}.get(axis, axis)
    for spec in specs:
        for f in dataclasses.fields(base):
            if f.name != swept:
                assert getattr(spec, f.name) == getattr(base, f.name)
    for (value, result), spec in zip(sweep(base, axis, values), specs):
        assert result.cmf.tolist() == run_experiment(spec).cmf.tolist()


def test_sweep_layout_over_distance():
    base = make_spec(power_db=20.0, m_total=20, trials=500, distance=(1.0, 3.0))
    results = sweep(base, "distance", [1.0, 2.0, 4.0])
    assert [v for v, _ in results] == [1.0, 2.0, 4.0]
    rates = [r.mean_rate for _, r in results]
    assert rates[0] >= rates[-1]  # farther receivers decode less


def test_sweep_window_covers_gts_family():
    base = make_spec(scheme=GTS(window=1), m_total=12, trials=2000)
    results = sweep(base, "window", [1, 6, 12])
    assert len(results) == 3


# ---------------------------------------------------------------------------
# window optimization
# ---------------------------------------------------------------------------


def test_optimal_window_single_candidate(monkeypatch):
    runs = []

    def counted(specs, workers):
        runs.append(specs)
        return run_specs(specs, workers)

    monkeypatch.setattr(engine, "run_specs", counted)
    base = make_spec(scheme=GTS(window=1), m_total=12, trials=500)
    window, result = optimal_window(base, [np.int64(5), 5])  # equal values: one candidate
    assert [len(specs) for specs in runs] == [1]
    assert window == 5 and type(window) is int
    assert result.trials_run == 500


def test_optimal_window_breaks_ties_toward_small_windows():
    # at 60 dB every window decodes every message of all 50 trials
    base = make_spec(power_db=60.0, scheme=GTS(window=1), m_total=12, trials=50)
    window, result = optimal_window(base, [7, 3, 9])
    assert window == 3
    assert result.mean_rate == pytest.approx(1.0)


def test_optimal_window_rejects_bad_candidates():
    base = make_spec(scheme=GTS(window=1), m_total=12, trials=50)
    with pytest.raises(ValueError):
        optimal_window(base, [])
    with pytest.raises(ValueError):
        optimal_window(base, [0, 5])
    with pytest.raises(ValueError):
        optimal_window(base, [5, 13])
    with pytest.raises(ValueError):
        optimal_window(base, [2.7])  # as sweep(base, "window", [2.7]) refuses it


@pytest.mark.parametrize("candidates", [[5, 5.0], [5.0, 5]], ids=["int-first", "float-first"])
def test_optimal_window_refuses_a_float_in_either_order(candidates):
    base = make_spec(scheme=GTS(window=1), m_total=12, trials=50)
    with pytest.raises(ValueError, match="not 5.0"):
        optimal_window(base, candidates)


def test_optimal_window_prefers_full_window_below_capacity():
    # well below capacity the whole-deadline window (time sharing) wins;
    # at 0 dB the memoryless end actually wins, so this sits at -3 dB
    base = make_spec(
        scheme=GTS(window=1), power_db=-3.0, m_total=60, trials=20000, master_seed=11
    )
    window, _ = optimal_window(base, [1, 30, 60])
    assert window == 60


def test_optimal_window_interior_above_capacity():
    base = make_spec(
        scheme=GTS(window=1), power_db=5.0, m_total=100, trials=15000, master_seed=12
    )
    window, _ = optimal_window(base, [1, 2, 3, 5, 8, 12, 20, 30, 50, 70, 100])
    assert 1 < window < 100
