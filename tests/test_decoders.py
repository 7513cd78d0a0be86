"""The scheme table engine.DECODERS: one entry per configuration class, read
by the runner, the spec checks and the scalar `decode` alike (the CLI's tags:
tests/test_cli.py)."""

import numpy as np
import pytest

import oracles
from fadestream import engine, schemes
from fadestream.channel import ChannelRealization, FadingModel, trial_stream
from fadestream.engine import DECODERS, ExperimentSpec, decode, decode_counts, received_power, resolve_scheme
from fadestream.schemes import AJE, GTS, MT, ST

SEED, TRIALS, RATE = 19, 120, 1.0


def configs(cls, m_total):
    """Configurations of `cls` to run at M: gts at W = 1, ceil(M/2) and M,
    so that one chunk decides several windows together, and aje with its
    m_prime resolved by the runner and set by hand."""
    if cls is GTS:
        return [GTS(window=w) for w in sorted({1, -(-m_total // 2), m_total})]
    if cls is AJE:
        return [AJE(), AJE(m_prime=max(1, m_total - 1))]
    return [cls()]


@pytest.mark.parametrize("m_total", [1, 2, 50])
def test_decode_of_each_trial_matches_its_count_in_the_run(m_total):
    specs = [
        ExperimentSpec(1.44, m_total, RATE, scheme, TRIALS, SEED)
        for cls in DECODERS
        for scheme in configs(cls, m_total)
    ]
    power = received_power(specs[0])
    reals = [
        ChannelRealization.from_gains(FadingModel.sample_gains(trial_stream(SEED, k), np.empty(m_total)), power)
        for k in range(TRIALS)
    ]
    prefixes = 0
    for spec, counts in zip(specs, decode_counts(specs)):
        scheme = resolve_scheme(spec)
        entry = DECODERS[type(scheme)]
        assert len(counts) == TRIALS
        for real, count in zip(reals, counts):
            out = decode(scheme, real, RATE, power)
            assert out.n_d == count
            assert out.rate == out.n_d * RATE / m_total
            if entry.messages is None:
                assert out.decoded == frozenset(range(1, count + 1))
                prefixes += 1
            elif isinstance(scheme, MT):
                assert out.decoded == frozenset(np.flatnonzero(real.cap >= RATE) + 1)
            else:
                assert out.decoded == oracles.gts_decoded(real.cap, RATE, scheme.window)
    assert prefixes == TRIALS * (len(specs) - 1 - len(configs(GTS, m_total)))


@pytest.mark.parametrize(
    "name, configs, calls_per_chunk",
    [
        ("mt_counts", [MT(), MT()], 1),
        ("gts_counts", [GTS(window=10), GTS(window=10), GTS(window=20)], 1),
        ("aje_counts", [AJE(m_prime=5), AJE(m_prime=5), AJE(m_prime=7)], 2),
    ],
)
def test_a_batch_decodes_its_distinct_configurations_in_one_kernel_call(
    monkeypatch, name, configs, calls_per_chunk
):
    """Specs of one (power, M, R) make one batch; its kernel is called once
    per chunk (aje once per distinct M'), with each distinct configuration
    once, and every spec gets the counts of its own run."""
    m_total = 2000  # chunks of at most 24 trials, so 120 trials take several
    specs = [ExperimentSpec(1.44, m_total, RATE, scheme, TRIALS, SEED) for scheme in configs]
    alone = [decode_counts([spec])[0] for spec in specs]
    calls, kernel = [], getattr(schemes, name)
    monkeypatch.setattr(schemes, name, lambda *args: calls.append(args) or kernel(*args))
    together = decode_counts(specs)
    chunks = len(engine._chunk_ranges(TRIALS, m_total, len(specs)))
    assert chunks > 1
    assert len(calls) == calls_per_chunk * chunks
    if name == "gts_counts":
        assert all(list(args[2]) == [10, 20] for args in calls)
    for counts, own in zip(together, alone):
        assert counts.tobytes() == own.tobytes()


class NotAScheme:
    pass


class MTVariant(MT):
    pass


@pytest.mark.parametrize("scheme", [NotAScheme(), MTVariant(), MT, None, "mt"])
def test_schemes_outside_the_table_are_refused(scheme):
    with pytest.raises(ValueError, match="unknown scheme"):
        ExperimentSpec(1.44, 5, RATE, scheme, 10, 1)
    real = ChannelRealization(phi=np.ones(5), cap=np.ones(5))
    with pytest.raises(ValueError, match="unknown scheme"):
        decode(scheme, real, RATE)


def test_st_decode_needs_the_power_of_its_gains():
    real = ChannelRealization(phi=np.ones(3), cap=np.ones(3))
    with pytest.raises(ValueError, match="power"):
        decode(ST(), real, RATE)
    with pytest.raises(ValueError):
        decode(AJE(), real, RATE)  # m_prime unresolved
