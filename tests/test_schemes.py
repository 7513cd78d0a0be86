"""Decoder unit tests: frozen hand-worked cases, oracles, and invariants."""

import itertools
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtr

from fadestream import schemes
from fadestream.bounds import informed_counts
from fadestream.channel import (
    LN2,
    ChannelRealization,
    PowerBudget,
    capacities,
    capacity_moments,
    trial_stream,
)
from fadestream.schemes import (
    AJE,
    GTS,
    aje_counts,
    choose_m_prime,
    decode_aje,
    decode_gts,
    decode_je,
    decode_mt,
    decode_st,
    decode_ts,
    gts_accumulated_info,
    gts_counts,
    je_counts,
    mt_counts,
    normal_cdf,
    st_counts,
    st_power_allocation,
    st_subset_capacity,
    ts_counts,
)

import oracles
from oracles import je_prefix_feasible

UNIT_POWER = PowerBudget(1.0)


def real_from_caps(caps) -> ChannelRealization:
    """Realization with prescribed capacities; gains are placeholders."""
    caps = np.asarray(caps, dtype=float)
    return ChannelRealization(phi=np.zeros_like(caps), cap=caps)


def random_caps(rng, trials, m_total, scale=1.0):
    return rng.exponential(scale, (trials, m_total))


# ---------------------------------------------------------------------------
# memoryless transmission
# ---------------------------------------------------------------------------


def test_mt_all_blocks_above_rate():
    out = decode_mt(real_from_caps([2.0, 2.0, 2.0]), 1.0)
    assert out.decoded == frozenset({1, 2, 3})
    assert out.rate == pytest.approx(1.0)


def test_mt_nothing_decodes_on_dead_channel():
    out = decode_mt(real_from_caps([0.0, 0.0, 0.0]), 1.0)
    assert out.decoded == frozenset()
    assert out.n_d == 0 and out.rate == 0.0


def test_mt_pointwise_threshold_with_tie():
    out = decode_mt(real_from_caps([1.5, 0.5, 1.0]), 1.0)
    assert out.decoded == frozenset({1, 3})
    assert out.n_d == 2


# ---------------------------------------------------------------------------
# joint encoding
# ---------------------------------------------------------------------------


def test_je_prefix_feasible_cases():
    assert je_prefix_feasible([0.5, 1.6], 1.0, 2)  # 2.1 >= 2 and 1.6 >= 1
    assert not je_prefix_feasible([0.5, 1.6], 1.0, 1)  # 0.5 < 1
    assert je_prefix_feasible([0.5, 1.6], 1.0, 0)
    assert je_prefix_feasible([], 1.0, 0)


def test_je_decode_cases():
    assert decode_je(real_from_caps([2.0, 2.0]), 1.0).n_d == 2
    # joint decoding rescues message 1 from a weak first block
    assert decode_je(real_from_caps([0.5, 1.6]), 1.0).n_d == 2
    # but a weak second block caps the feasible prefix at one
    assert decode_je(real_from_caps([1.6, 0.5]), 1.0).n_d == 1
    assert decode_je(real_from_caps([0.9, 0.9, 0.9]), 1.0).n_d == 0


@pytest.mark.parametrize(
    "caps, expect",
    [
        ([0.0, 3.0], 2),  # prefix 1 is infeasible, prefix 2 is not
        ([1.0, 1.0], 2),  # the walk 0, 0, 0 ties its maximum: the last index counts
        ([0.5], 0),  # the walk never returns to 0
    ],
)
def test_je_count_is_the_last_maximum_of_the_walk(caps, expect):
    caps = np.array([caps])
    assert je_counts(caps, 1.0)[0] == expect
    assert aje_counts(caps, 1.0, caps.shape[1])[0] == expect


def test_je_decoded_set_is_prefix():
    rng = np.random.default_rng(5)
    for _ in range(200):
        caps = rng.exponential(1.0, rng.integers(1, 9))
        out = decode_je(real_from_caps(caps), 1.0)
        assert out.decoded == frozenset(range(1, out.n_d + 1))


def test_je_count_matches_exact_m_conditions():
    """Max-feasible-prefix equals the unique count from the two-sided rule.

    Oracle: exactly m decode iff every suffix run of the first m blocks
    meets its rate and every continuation run past m falls short.
    """
    rng = np.random.default_rng(42)
    trials = 12500
    rate = 1.0
    for m_total in range(1, 9):
        caps = random_caps(rng, trials, m_total)
        csum = np.concatenate([np.zeros((trials, 1)), np.cumsum(caps, axis=1)], axis=1)
        matches = np.full(trials, -1, dtype=int)
        hits = np.zeros(trials, dtype=int)
        for m in range(m_total + 1):
            cond = np.ones(trials, dtype=bool)
            for i in range(1, m + 1):
                cond &= csum[:, m] - csum[:, m - i] >= i * rate
            for i in range(1, m_total - m + 1):
                cond &= csum[:, m + i] - csum[:, m] < i * rate
            hits += cond
            matches = np.where(cond, m, matches)
        assert np.all(hits == 1), "two-sided conditions must pin a unique count"
        assert np.array_equal(matches, je_counts(caps, rate))


# ---------------------------------------------------------------------------
# adaptive joint encoding
# ---------------------------------------------------------------------------


def test_choose_m_prime_cases():
    c_mean, c_var = capacity_moments(PowerBudget.from_db(20.0))
    # 20 dB, R=8, M=100.  A Monte Carlo sweep with M' pinned (50000 trials at
    # the adaptive-encoding acceptance seed) gives mean rates 66 -> 5.137,
    # 67 -> 5.157, 68 -> 5.139, 69 -> 5.057, 70 -> 4.873: the best M' is 67.
    assert choose_m_prime(5.88, 8.0, 100, c_var=c_var) == 67
    # at M=1000 the message load M' R / (M c_bar) = 0.960 is above 0.95
    assert choose_m_prime(c_mean, 8.0, 1000, c_var=c_var) == 706
    assert choose_m_prime(2.0, 1.0, 100, c_var=c_var) == 100  # clamp at M
    low_mean, low_var = capacity_moments(PowerBudget.from_db(-10.0))
    assert choose_m_prime(low_mean, 1.0, 10, c_var=low_var) == 1  # clamp at 1


@pytest.mark.parametrize(
    "c_bar, rate_r, m_total",
    [
        (np.nan, 1.0, 10),
        (1.0, np.nan, 10),
        (np.inf, 1.0, 10),
        (1.0, np.inf, 10),
        (0.0, 1.0, 10),
        (1.0, -1.0, 10),
        (1.0, 1.0, 0),
        (1.0, 1.0, 10.0),
        (1.0, 1.0, 2.5),
    ],
)
@pytest.mark.parametrize("c_var", [0.0, 0.5])
def test_choose_m_prime_rejects_bad_inputs(c_bar, rate_r, m_total, c_var):
    """A NaN mean or rate fails every comparison, so it passes a bare
    `<= 0` check; M = 0 leaves the search nothing to search."""
    with pytest.raises(ValueError):
        choose_m_prime(c_bar, rate_r, m_total, c_var=c_var)


def test_normal_cdf_matches_scipy_ndtr():
    """Within one unit in the last place of 1.0 (2**-52) absolutely, and 4
    units relatively above 1e-300, on a dense grid over [-38, 38]; exactly 0.0
    and 1.0 where scipy's are."""
    x = np.concatenate([np.linspace(-38.0, 38.0, 1_000_001), [-40.0, -37.7, 8.5, 40.0]])
    got, want = normal_cdf(x), ndtr(x)
    assert np.abs(got - want).max() <= 2.0**-52
    normal = want > 1e-300
    assert (np.abs(got - want)[normal] <= 4 * np.spacing(want[normal])).all()
    assert np.array_equal(got == 0.0, want == 0.0)
    assert np.array_equal(got == 1.0, want == 1.0)
    grid = x[:1000].reshape(10, 100)
    assert np.array_equal(normal_cdf(grid), normal_cdf(grid.ravel()).reshape(10, 100))


def test_choose_m_prime_matches_the_scipy_ndtr_search():
    """The same M' as oracles.choose_m_prime on a grid from -10 to 44 dB, R
    from 0.25 to 12 and M from 1 to 200 (the preset points are in test_cli)."""
    for snr_db in range(-10, 45, 6):
        c_mean, c_var = capacity_moments(PowerBudget.from_db(float(snr_db)))
        for rate in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 12.0):
            for m_total in (1, 2, 3, 5, 8, 13, 20, 31, 50, 77, 100, 128, 200):
                want = oracles.choose_m_prime(c_mean, rate, m_total, c_var)
                assert choose_m_prime(c_mean, rate, m_total, c_var=c_var) == want, (
                    snr_db, rate, m_total,
                )


def test_choose_m_prime_blocks_give_the_one_block_answer(monkeypatch):
    """Rows of the (M', n) rectangle split across blocks give the same M'."""
    c_mean, c_var = capacity_moments(PowerBudget.from_db(20.0))
    want = choose_m_prime(c_mean, 8.0, 300, c_var=c_var)
    monkeypatch.setattr(schemes, "_SEARCH_BLOCK_ELEMENTS", 700)  # 2 rows a block
    assert choose_m_prime(c_mean, 8.0, 300, c_var=c_var) == want == 207


def test_choose_m_prime_constant_channel_is_exact():
    # Every block carries 1.07, so M' messages all decode iff M' <= M c / R
    # = 53.5, and none decode past it.
    caps = np.full((1, 100), 1.07)
    assert aje_counts(caps, 2.0, 53)[0] == 53
    assert aje_counts(caps, 2.0, 54)[0] == 0
    assert choose_m_prime(1.07, 2.0, 100, c_var=0.0) == 53
    assert choose_m_prime(0.001, 1.0, 10, c_var=0.0) == 1


def test_aje_with_full_message_set_is_je():
    rng = np.random.default_rng(6)
    for _ in range(100):
        caps = rng.exponential(1.0, rng.integers(1, 8))
        real = real_from_caps(caps)
        assert decode_aje(real, 1.0, len(caps)).n_d == decode_je(real, 1.0).n_d


def test_aje_surplus_rescues_kept_messages():
    out = decode_aje(real_from_caps([0.4, 0.4, 1.4]), 1.0, 2)
    # boosted capacities (1.1, 1.1): both kept messages decode
    assert out.decoded == frozenset({1, 2})
    assert out.rate == pytest.approx(2.0 / 3.0)


def test_aje_dead_channel():
    assert decode_aje(real_from_caps([0.0, 0.0, 0.0]), 1.0, 2).n_d == 0


def test_aje_rejects_bad_m_prime():
    with pytest.raises(ValueError):
        decode_aje(real_from_caps([1.0, 1.0]), 1.0, 0)
    with pytest.raises(ValueError):
        decode_aje(real_from_caps([1.0, 1.0]), 1.0, 3)
    with pytest.raises(ValueError):
        AJE(m_prime=2.5)


# ---------------------------------------------------------------------------
# time sharing
# ---------------------------------------------------------------------------


def test_ts_hand_worked_cases():
    # caps (3,3,3): accumulated info (5.5, 2.5, 1.0); the boundary entry decodes
    out = decode_ts(real_from_caps([3.0, 3.0, 3.0]), 1.0)
    assert out.decoded == frozenset({1, 2, 3})
    assert decode_ts(real_from_caps([3.0, 0.0, 0.0]), 1.0).n_d == 1
    assert decode_ts(real_from_caps([0.0, 0.0, 0.0]), 1.0).n_d == 0


def test_ts_decoded_set_is_prefix():
    rng = np.random.default_rng(7)
    for _ in range(500):
        caps = rng.exponential(1.0, rng.integers(1, 12))
        out = decode_ts(real_from_caps(caps), 1.0)
        assert out.decoded == frozenset(range(1, out.n_d + 1))


def test_gts_window_one_is_memoryless():
    rng = np.random.default_rng(8)
    for _ in range(300):
        caps = rng.exponential(1.0, rng.integers(1, 12))
        real = real_from_caps(caps)
        assert decode_gts(real, 1.0, 1).decoded == decode_mt(real, 1.0).decoded


def test_gts_full_window_is_time_sharing():
    rng = np.random.default_rng(9)
    for _ in range(300):
        caps = rng.exponential(1.0, rng.integers(1, 12))
        real = real_from_caps(caps)
        assert decode_gts(real, 1.0, len(caps)).decoded == decode_ts(real, 1.0).decoded


def test_gts_hand_worked_window():
    # W=2, caps (1,2,2): info (2, 2, 1); everything decodes, tail on equality
    out = decode_gts(real_from_caps([1.0, 2.0, 2.0]), 1.0, 2)
    assert out.decoded == frozenset({1, 2, 3})


@pytest.mark.parametrize("m_total", [1, 2, 3, 7, 40])
def test_gts_window_edges_match_oracle(m_total):
    """W in {1, 2, M-1, M}: where the full windows and the windows cut off
    by the deadline meet (one group is empty at W = 1 and the other at W = M
    or M = 1)."""
    caps = random_caps(np.random.default_rng(25), 80, m_total)
    for window in sorted({1, 2, m_total - 1, m_total} & set(range(1, m_total + 1))):
        counts = gts_counts(caps, 1.0, window)
        for row, cap in enumerate(caps):
            decoded = oracles.gts_decoded(cap, 1.0, window)
            assert counts[row] == len(decoded)
            assert decode_gts(real_from_caps(cap), 1.0, window).decoded == decoded


def test_capacity_and_gts_kernels_leave_their_inputs_alone():
    rng = np.random.default_rng(26)
    phis = rng.exponential(1.0, (5, 30))
    phis_before = phis.tobytes()
    caps = capacities(phis, PowerBudget.from_db(2.0))
    assert phis.tobytes() == phis_before
    caps_before = caps.tobytes()
    for window in (1, 4, 30):
        gts_accumulated_info(caps, window)
        gts_counts(caps, 1.0, window)
    assert caps.tobytes() == caps_before


def test_gts_rejects_bad_window():
    with pytest.raises(ValueError):
        decode_gts(real_from_caps([1.0, 1.0]), 1.0, 0)
    with pytest.raises(ValueError):
        decode_gts(real_from_caps([1.0, 1.0]), 1.0, 3)
    with pytest.raises(ValueError):
        GTS(window=2.5)


# ---------------------------------------------------------------------------
# superposition transmission
# ---------------------------------------------------------------------------


def test_st_power_allocation_columns():
    alloc = st_power_allocation(1, PowerBudget(4.0))
    assert alloc.shape == (1, 1) and alloc[0, 0] == 4.0
    alloc = st_power_allocation(2, PowerBudget(2.0))
    assert np.array_equal(alloc, [[2.0, 1.0], [0.0, 1.0]])
    alloc = st_power_allocation(3, PowerBudget(3.0))
    assert np.array_equal(alloc[:, 2], [1.0, 1.0, 1.0])
    rng = np.random.default_rng(10)
    for _ in range(20):
        m = int(rng.integers(1, 30))
        p = float(rng.uniform(0.1, 50.0))
        alloc = st_power_allocation(m, PowerBudget(p))
        assert np.allclose(alloc.sum(axis=0), p, rtol=1e-12)
        assert np.all(np.triu(np.ones((m, m))) * alloc == alloc)  # no power before arrival
    for m_total in (0, 2.5):
        with pytest.raises(ValueError):
            st_power_allocation(m_total, PowerBudget(1.0))


def test_st_subset_capacity_hand_worked():
    phi = [1.0, 1.0]
    alloc = st_power_allocation(2, PowerBudget(2.0))
    c1 = st_subset_capacity(phi, alloc, {1, 2}, {1})
    c2 = st_subset_capacity(phi, alloc, {1, 2}, {2})
    c12 = st_subset_capacity(phi, alloc, {1, 2}, {1, 2})
    assert c1 == pytest.approx(np.log2(3.0) + np.log2(1.5))  # ~2.170
    assert c2 == pytest.approx(np.log2(1.5))  # ~0.585
    assert c12 == pytest.approx(2.0 * np.log2(3.0))  # ~3.170


def test_st_subset_capacity_rejects_bad_subsets():
    alloc = st_power_allocation(2, PowerBudget(2.0))
    with pytest.raises(ValueError):
        st_subset_capacity([1.0, 1.0], alloc, {1, 2}, set())
    with pytest.raises(ValueError):
        st_subset_capacity([1.0, 1.0], alloc, {2}, {1})


def test_st_decode_hand_worked():
    power = PowerBudget(2.0)
    real = ChannelRealization.from_gains([1.0, 1.0], power)
    # first message decodes alone, then the second sees a clean block on equality
    out = decode_st(real, 1.0, power)
    assert out.decoded == frozenset({1, 2})
    out = decode_st(real, 1.5, power)
    assert out.decoded == frozenset({1})
    dead = ChannelRealization.from_gains([0.0, 0.0, 0.0], power)
    assert decode_st(dead, 1.0, power).n_d == 0


def test_st_single_message_equals_mt():
    rng = np.random.default_rng(11)
    power = PowerBudget.from_db(1.44)
    for _ in range(300):
        real = ChannelRealization.from_gains(rng.exponential(1.0, 1), power)
        assert decode_st(real, 1.0, power).n_d == decode_mt(real, 1.0).n_d


def _st_algorithm1_reference(phi, power, rate_r):
    """Literal greedy subset decoder built on st_subset_capacity.

    Enumerates all subsets of the undecoded set in size order, decodes the
    maximizer with lexicographic tie-break, and repeats.  Independent of the
    capacity profile scan used in production.
    """
    m_total = len(phi)
    alloc = st_power_allocation(m_total, power)
    undecoded = set(range(1, m_total + 1))
    decoded = set()
    while undecoded:
        progress = False
        for size in range(1, len(undecoded) + 1):
            candidates = itertools.combinations(sorted(undecoded), size)
            best_value, best_subset = -np.inf, None
            for cand in candidates:  # lexicographic order; strict > keeps the first max
                value = st_subset_capacity(phi, alloc, undecoded, cand)
                if value > best_value:
                    best_value, best_subset = value, set(cand)
            if best_subset is not None and size * rate_r <= best_value:
                undecoded -= best_subset
                decoded |= best_subset
                progress = True
                break
        if not progress:
            break
    return decoded


def test_st_decode_matches_subset_enumeration():
    """Production scan vs exhaustive Algorithm-1 enumeration, M <= 8."""
    rng = np.random.default_rng(12)
    for _ in range(150):
        m_total = int(rng.integers(1, 9))
        power = PowerBudget(float(rng.uniform(0.3, 8.0)))
        rate = float(rng.uniform(0.3, 2.0))
        phi = rng.exponential(1.0, m_total)
        real = ChannelRealization.from_gains(phi, power)
        expected = _st_algorithm1_reference(phi, power, rate)
        assert decode_st(real, rate, power).decoded == frozenset(expected)


def test_st_heuristic_never_beats_exact():
    """Decoded runs capped at 4 messages (the oracle's max_run) never beat
    the exact greedy decoder."""
    rng = np.random.default_rng(13)
    equal = 0
    cases = 400
    for _ in range(cases):
        m_total = int(rng.integers(2, 11))
        power = PowerBudget(float(rng.uniform(0.3, 10.0)))
        rate = float(rng.uniform(0.3, 2.0))
        phi = rng.exponential(1.0, m_total)
        exact = decode_st(ChannelRealization.from_gains(phi, power), rate, power).n_d
        heur = oracles.st_count(phi, power.p_linear, rate, max_run=4)
        assert heur <= exact
        equal += heur == exact
    print(f"\nheuristic equals exact on {equal}/{cases} realizations")
    assert equal > 0


# ---------------------------------------------------------------------------
# cross-cutting invariants
# ---------------------------------------------------------------------------


def test_outcome_rate_accounting_is_exact():
    rng = np.random.default_rng(14)
    for _ in range(100):
        caps = rng.exponential(1.0, rng.integers(1, 10))
        real = real_from_caps(caps)
        rate = float(rng.uniform(0.2, 2.0))
        for out in (decode_mt(real, rate), decode_je(real, rate), decode_ts(real, rate)):
            assert out.rate == out.n_d * rate / len(caps)
            assert 0 <= out.n_d <= len(caps)


def test_raising_a_capacity_never_hurts():
    rng = np.random.default_rng(15)
    decoders = [
        lambda r: decode_mt(r, 1.0).n_d,
        lambda r: decode_je(r, 1.0).n_d,
        lambda r: decode_ts(r, 1.0).n_d,
        lambda r: decode_gts(r, 1.0, 3).n_d,
    ]
    for _ in range(300):
        caps = rng.exponential(1.0, 8)
        bumped = caps.copy()
        bumped[rng.integers(0, 8)] += float(rng.uniform(0.0, 2.0))
        before, after = real_from_caps(caps), real_from_caps(bumped)
        for decode in decoders:
            assert decode(after) >= decode(before)


def test_equality_decodes_in_every_scheme():
    # accumulated information exactly equal to the required rate decodes
    assert decode_mt(real_from_caps([1.0]), 1.0).n_d == 1
    assert decode_je(real_from_caps([1.0, 1.0]), 1.0).n_d == 2
    assert decode_ts(real_from_caps([0.0, 0.0, 3.0]), 1.0).n_d == 3
    assert decode_gts(real_from_caps([1.0, 2.0]), 1.0, 2).n_d == 2
    power = PowerBudget(2.0)
    st_real = ChannelRealization.from_gains([1.0, 1.0], power)
    assert decode_st(st_real, 1.0, power).n_d == 2  # second step is exactly tight
    assert st_counts(st_real.phi[None, :], power.p_linear, 1.0)[0] == 2
    m_star = informed_counts(np.array([[0.0, 2.0, 2.0]]), 1.0)
    assert m_star[0] == 3
    assert informed_counts(np.array([[1.0, 1.0]]), 1.0)[0] == 2  # 2R = 1 + 1 and R = 1


def test_prefix_sum_probability_is_permutation_invariant():
    """Reordering the i.i.d. block stream leaves prefix-sum statistics alone."""
    m_total, m, rate, trials = 6, 4, 1.0, 40000
    perm = np.array([5, 2, 0, 4, 1, 3])

    def estimate(seed, permute):
        caps = np.empty((trials, m_total))
        for k in range(trials):
            g = trial_stream(seed, k)
            caps[k] = np.log2(1.0 + g.exponential(1.0, m_total) * 1.5849)
        if permute:
            caps = caps[:, perm]
        p = np.mean(caps[:, :m].sum(axis=1) >= m * rate)
        return p, np.sqrt(p * (1 - p) / trials)

    p1, se1 = estimate(21, permute=False)
    p2, se2 = estimate(22, permute=True)
    assert abs(p1 - p2) <= 3.0 * np.hypot(se1, se2)


def test_batched_decoders_match_scalar_decoders():
    rng = np.random.default_rng(16)
    power = PowerBudget.from_db(1.44)
    for m_total in (1, 2, 5, 9):
        phis = rng.exponential(1.0, (200, m_total))
        caps = np.log1p(phis * power.p_linear) / np.log(2.0)
        window = max(1, m_total // 2)
        m_prime = max(1, m_total - 1)
        counts_st = st_counts(phis, power.p_linear, 1.0)
        for row in range(200):
            cap = caps[row]
            assert mt_counts(caps, 1.0)[row] == oracles.mt_count(cap, 1.0)
            assert je_counts(caps, 1.0)[row] == oracles.je_count(cap, 1.0)
            assert ts_counts(caps, 1.0)[row] == oracles.ts_count(cap, 1.0)
            assert gts_counts(caps, 1.0, window)[row] == oracles.gts_count(cap, 1.0, window)
            assert aje_counts(caps, 1.0, m_prime)[row] == oracles.aje_count(cap, 1.0, m_prime)
            assert counts_st[row] == oracles.st_count(phis[row], power.p_linear, 1.0, m_total)


def test_kernels_match_oracles_on_exact_ties():
    """Half-integer capacities with R = 1: every sum is exact, so information
    often equals the need exactly, which decodes."""
    rng = np.random.default_rng(24)
    ties = 0
    for m_total in range(1, 9):
        caps = rng.choice([0.0, 0.5, 1.0, 1.5, 2.0], size=(400, m_total))
        checks = [
            (mt_counts(caps, 1.0), oracles.mt_count),
            (je_counts(caps, 1.0), oracles.je_count),
            (informed_counts(caps, 1.0), oracles.informed_count),
        ] + [
            (aje_counts(caps, 1.0, m), lambda cap, rate, m=m: oracles.aje_count(cap, rate, m))
            for m in (1, 2, 4) if m <= m_total
        ]
        for row, cap in enumerate(caps):
            # a repeated partial sum of cap - R: some block run holds exactly its need
            ties += len(set(np.cumsum(cap - 1.0)) | {0.0}) <= m_total
            assert all(counts[row] == oracle(cap, 1.0) for counts, oracle in checks)
    assert ties > 1000


@pytest.mark.parametrize("m_total", [20, 21, 50, 100])
@pytest.mark.parametrize("rate, expect", [(1e-3, "all"), (1.0, None), (3.0, None), (50.0, "none")])
def test_st_counts_match_full_profile_decoder(m_total, rate, expect):
    """Row-by-row batched scan vs the full-profile scan oracle, per trial,
    with decoded runs of any length."""
    power = PowerBudget.from_db(10.0)
    rng = np.random.default_rng(17)
    phis = rng.exponential(1.0, (150, m_total))
    counts = st_counts(phis, power.p_linear, rate)
    for row in range(len(phis)):
        assert counts[row] == oracles.st_count(phis[row], power.p_linear, rate, m_total)
    if expect == "all":
        assert np.all(counts == m_total)
    elif expect == "none":
        assert np.all(counts == 0)
    else:
        assert 0 < counts.mean() < m_total


def test_st_counts_memory_is_linear_in_blocks():
    """16 trials x 2000 blocks: the full (M+1) x M profile would need 64 MB."""
    phis = np.random.default_rng(18).exponential(1.0, (16, 2000))
    tracemalloc.start()
    try:
        counts = st_counts(phis, PowerBudget.from_db(2.0).p_linear, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.max() > 100  # the scan ran well past the first rows
    assert peak < 8 * 2**20


# ---------------------------------------------------------------------------
# st: the kernel that skips rows against the scan of every row
# ---------------------------------------------------------------------------

FIRST_PRUNED = min(m for m in range(1, 200) if schemes._st_step(m) > 1)


def _chunk_gains(m_total, seed):
    """One engine-sized chunk of Rayleigh gains: 2**14 gains, at most 4096 trials."""
    trials = max(1, min(4096, 2**14 // m_total))
    return np.random.default_rng(seed).exponential(1.0, (trials, m_total))


def _assert_same_counts(phis, power_db, rate):
    p_linear = PowerBudget.from_db(power_db).p_linear
    counts = st_counts(phis, p_linear, rate)
    assert np.array_equal(counts, oracles.st_counts_row_scan(phis, p_linear, rate))
    return counts


@pytest.mark.parametrize("rate", [x / 2.0 for x in range(1, 21)])
def test_st_counts_equal_the_row_scan_at_fig7(rate):
    for seed in range(3):
        _assert_same_counts(_chunk_gains(100, seed), 20.0, rate)


@pytest.mark.parametrize(
    "power_db, m_total, rate",
    [(1.44, 50, 1.0), (0.0, 50, 1.0), (-30.0, 100, 1.0), (-30.0, 100, 1e-3), (60.0, 100, 1.0),
     (60.0, 100, 15.0), (-3.0, 100, 1.0), (2.0, 100, 1.0)],
)
def test_st_counts_equal_the_row_scan_at_preset_and_extreme_powers(power_db, m_total, rate):
    for seed in range(3):
        _assert_same_counts(_chunk_gains(m_total, seed), power_db, rate)


@pytest.mark.parametrize(
    "m_total",
    sorted({1, 2, 3, FIRST_PRUNED - 1, FIRST_PRUNED, FIRST_PRUNED + 1, 49, 50, 56, 100, 2000}),
)
@pytest.mark.parametrize("power_db, rate", [(2.0, 1.0), (20.0, 6.0)])
def test_st_counts_equal_the_row_scan_at_any_deadline(m_total, power_db, rate):
    """Across the switch to skipped rows, and with a last bracket that ends
    at M (49 = 7^2, 56 = 8 x 7, 100 = 10^2) or short of it (50, 2000)."""
    counts = _assert_same_counts(_chunk_gains(m_total, m_total), power_db, rate)
    if m_total >= 50:
        assert 0 < counts.mean() < m_total


@pytest.mark.parametrize("m_total", [FIRST_PRUNED, 100])
def test_st_counts_equal_the_row_scan_when_scans_stop_at_once_or_never(m_total):
    phis = _chunk_gains(m_total, 5)
    # R exceeds every row-0 key: each scan stops at the first row after 0
    assert np.all(_assert_same_counts(phis, 2.0, 1e4) == 0)
    # no trial stops early (M R is below every row-0 key), and nearly all decode
    assert np.mean(_assert_same_counts(phis, 2.0, 1e-3) == m_total) > 0.9


@pytest.mark.parametrize("m_total", [49, 50, 100])
def test_st_counts_ties_go_to_the_last_row(m_total):
    """With R = 0 and the last blocks dead, every row from the last live
    block on has key 0.0 exactly, the minimum, on rows 0, B, 2B, ... and in
    between alike; the count is M whether row M is one of the former (49 =
    7^2, 100 = 10^2) or not (50)."""
    phis = _chunk_gains(m_total, 9)
    phis[:, m_total // 2 :] = 0.0
    counts = _assert_same_counts(phis, 20.0, 0.0)
    assert np.all(counts == m_total)


def _bracket_bounds(phis, p_linear, rate_r, keys, evaluated=None):
    """_st_bracket_bound on every bracket of st_counts' rows 0, B, 2B, ...,
    from the full profiles `keys`; `evaluated[i]` is the number of those
    rows trial i evaluated (all by default), the others count 0.0 as hi's
    log sum.  Returns the (trials, M + 1) bounds, -inf on rows 0, B, 2B, ..."""
    trials, m_total = phis.shape
    step = schemes._st_step(m_total)
    coarse = np.arange(0, m_total + 1, step)
    per_message = phis * (p_linear / np.arange(1, m_total + 1))
    sums = np.zeros((trials, len(coarse) + 1))
    sums[:, : len(coarse)] = (keys[:, coarse] - rate_r * coarse) * LN2
    if evaluated is not None:
        sums[np.arange(len(coarse) + 1) >= evaluated[:, None]] = 0.0
    weights = schemes._st_bound_weights(step)
    bounds = np.full(keys.shape, -np.inf)
    for row, lo in enumerate(coarse):
        width = min(step - 1, m_total - lo)
        if width:
            gains = per_message[:, lo : lo + width]
            bounds[:, lo + 1 : lo + width + 1] = schemes._st_bracket_bound(
                gains, sums[:, row], sums[:, row + 1], lo, weights, rate_r
            ).T
    return bounds


def _profiles(phis, p_linear, rate_r):
    return np.array([oracles.st_keys(phi, p_linear, rate_r) for phi in phis])


def _assert_bounds_hold(phis, power_db, rate_r, evaluated=None):
    p_linear = PowerBudget.from_db(power_db).p_linear
    keys = _profiles(phis, p_linear, rate_r)
    bounds = _bracket_bounds(phis, p_linear, rate_r, keys, evaluated)
    slack = schemes._ST_MARGIN * (keys[:, :1] + keys)
    assert np.all(bounds <= keys + slack)
    return keys, bounds


@pytest.mark.parametrize("m_total", [FIRST_PRUNED, 50, 100, 333])
@pytest.mark.parametrize("power_db", [-30.0, 2.0, 20.0, 60.0])
def test_st_bracket_bound_never_exceeds_the_key(m_total, power_db):
    """On Rayleigh gains, on gains from 1e-12 to 1e6 with exact zeros, and
    with row hi taken as unevaluated (log sum 0.0)."""
    rng = np.random.default_rng(m_total)
    phis = rng.exponential(1.0, (40, m_total))
    _assert_bounds_hold(phis, power_db, 1.0)
    extreme = 10.0 ** rng.uniform(-12.0, 6.0, (40, m_total))
    extreme[rng.random(extreme.shape) < 0.2] = 0.0
    extreme[0] = 0.0
    for rate in (1e-3, 1.0, 30.0):
        evaluated = rng.integers(1, m_total // schemes._st_step(m_total) + 2, len(extreme))
        _assert_bounds_hold(extreme, power_db, rate, evaluated)


def test_st_bracket_bound_prunes_most_rows_at_fig7():
    """At 20 dB, M = 100 and R = 0.5 the bounds leave under 5% of the rows
    between 0, B, 2B, ... for evaluation (2.2% measured), so a margin that
    loosened until it pruned nothing would fail here."""
    keys, bounds = _assert_bounds_hold(_chunk_gains(100, 0), 20.0, 0.5)
    coarse = np.arange(0, 101, schemes._st_step(100))
    minimum = keys[:, coarse].min(axis=1, keepdims=True)
    limit = minimum + schemes._ST_MARGIN * (keys[:, :1] + minimum)
    between = bounds > -np.inf
    assert between.sum() == 90 * len(keys)
    assert (bounds[between] <= np.broadcast_to(limit, bounds.shape)[between]).mean() < 0.05


@pytest.mark.parametrize(
    "trials, m_total, power_db, rate",
    [(163, 100, 20.0, 6.0), (163, 100, 20.0, 0.5), (327, 50, 1.44, 1.0), (8, 2000, 2.0, 1.0)],
)
def test_st_counts_peak_memory_is_no_higher_than_the_row_scan(trials, m_total, power_db, rate):
    """The benchmark's chunk shapes (fig7, fig5a and 2000 blocks): skipping
    rows keeps no more than the scan of every row did (515 KiB at 163 x 100)."""
    phis = np.random.default_rng(trials).exponential(1.0, (trials, m_total))
    p_linear = PowerBudget.from_db(power_db).p_linear
    peaks = []
    for kernel in (oracles.st_counts_row_scan, st_counts):
        tracemalloc.start()
        try:
            kernel(phis, p_linear, rate)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0]
