"""The scheme table engine.DECODERS: one entry per configuration class, read
by the runner, the spec checks and the scalar `decode` alike (the CLI's tags:
tests/test_cli.py)."""

import numpy as np
import pytest

import oracles
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
