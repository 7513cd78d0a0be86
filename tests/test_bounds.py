"""Informed-transmitter and ergodic bound tests."""

import numpy as np
import pytest

from fadestream.bounds import ergodic_upper_bound, informed_counts, informed_upper_bound
from fadestream.channel import ChannelRealization, PowerBudget, ergodic_capacity
from fadestream.schemes import (
    decode_je,
    decode_mt,
    decode_st,
    decode_ts,
)

from oracles import informed_count, informed_feasible as _informed_feasible_bruteforce


def real_from_caps(caps):
    caps = np.asarray(caps, dtype=float)
    return ChannelRealization(phi=np.zeros_like(caps), cap=caps)


def test_informed_bound_hand_worked():
    # early outage is repaired by later blocks: all three messages fit
    assert informed_upper_bound(real_from_caps([0.0, 2.0, 2.0]), 1.0).n_d == 3
    # trailing dead blocks cannot host a second message
    assert informed_upper_bound(real_from_caps([2.0, 0.0, 0.0]), 1.0).n_d == 1
    assert informed_upper_bound(real_from_caps([0.0, 0.0, 0.0]), 1.0).n_d == 0


def test_informed_bound_is_prefix_with_exact_rate():
    out = informed_upper_bound(real_from_caps([0.0, 2.0, 2.0]), 1.0)
    assert out.decoded == frozenset({1, 2, 3})
    assert out.rate == pytest.approx(1.0)


def test_feasibility_is_monotone_and_scan_matches_bruteforce():
    rng = np.random.default_rng(20)
    for _ in range(400):
        m_total = int(rng.integers(1, 9))
        caps = rng.exponential(1.0, m_total)
        rate = float(rng.uniform(0.3, 2.0))
        feasible = [_informed_feasible_bruteforce(caps, rate, m) for m in range(m_total + 1)]
        # non-increasing in m: once infeasible, stays infeasible
        assert all(feasible[i] or not feasible[i + 1] for i in range(m_total))
        m_star = max(m for m in range(m_total + 1) if feasible[m])
        assert informed_upper_bound(real_from_caps(caps), rate).n_d == m_star
        assert informed_counts(caps[None, :], rate)[0] == m_star


def test_every_scheme_is_dominated_by_the_bound():
    rng = np.random.default_rng(21)
    power = PowerBudget.from_db(2.0)
    for _ in range(300):
        m_total = int(rng.integers(1, 10))
        phi = rng.exponential(1.0, m_total)
        real = ChannelRealization.from_gains(phi, power)
        rate = float(rng.uniform(0.3, 2.0))
        m_star = informed_upper_bound(real, rate).n_d
        assert decode_mt(real, rate).n_d <= m_star
        assert decode_je(real, rate).n_d <= m_star
        assert decode_ts(real, rate).n_d <= m_star
        assert decode_st(real, rate, power).n_d <= m_star


def test_mean_bound_rate_respects_ergodic_ceiling():
    rng = np.random.default_rng(22)
    trials, m_total, rate = 20000, 20, 1.0
    for db in (-3.0, 2.0):
        power = PowerBudget.from_db(db)
        caps = np.log1p(rng.exponential(1.0, (trials, m_total)) * power.p_linear) / np.log(2.0)
        rates = informed_counts(caps, rate) * rate / m_total
        se = rates.std(ddof=1) / np.sqrt(trials)
        ceiling = ergodic_upper_bound(rate, ergodic_capacity(power))
        assert rates.mean() <= ceiling + 3 * se


def test_ergodic_upper_bound_cases():
    assert ergodic_upper_bound(1.0, 5.88) == 1.0
    assert ergodic_upper_bound(8.0, 5.88) == 5.88
    assert ergodic_upper_bound(2.5, 2.5) == 2.5
    for rate_r, c_bar in ((0.0, 1.0), (np.nan, 1.0), (np.inf, 1.0), (1.0, np.nan), (1.0, np.inf)):
        with pytest.raises(ValueError):
            ergodic_upper_bound(rate_r, c_bar)


def test_batched_bound_matches_scalar():
    rng = np.random.default_rng(23)
    caps = rng.exponential(1.0, (200, 7))
    batched = informed_counts(caps, 1.0)
    for row in range(200):
        assert batched[row] == informed_count(caps[row], 1.0)
