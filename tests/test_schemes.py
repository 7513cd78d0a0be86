"""Decoder unit tests: frozen hand-worked cases, oracles, and invariants."""

import itertools
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtr

from fadestream import engine, schemes
from fadestream.bounds import informed_counts
from fadestream.channel import (
    LN2,
    ChannelRealization,
    PowerBudget,
    capacities,
    capacity_moments,
    trial_stream,
)
from fadestream.engine import decode
from fadestream.schemes import (
    AJE,
    GTS,
    JE,
    MT,
    ST,
    TS,
    aje_counts,
    choose_m_prime,
    gts_accumulated_info,
    gts_counts,
    je_counts,
    mt_counts,
    normal_cdf,
    st_counts,
    ts_counts,
)

import oracles
from oracles import je_prefix_feasible, st_power_allocation, st_subset_capacity

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
    out = decode(MT(), real_from_caps([2.0, 2.0, 2.0]), 1.0)
    assert out.decoded == frozenset({1, 2, 3})
    assert out.rate == pytest.approx(1.0)


def test_mt_nothing_decodes_on_dead_channel():
    out = decode(MT(), real_from_caps([0.0, 0.0, 0.0]), 1.0)
    assert out.decoded == frozenset()
    assert out.n_d == 0 and out.rate == 0.0


def test_mt_pointwise_threshold_with_tie():
    out = decode(MT(), real_from_caps([1.5, 0.5, 1.0]), 1.0)
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
    assert decode(JE(), real_from_caps([2.0, 2.0]), 1.0).n_d == 2
    # joint decoding rescues message 1 from a weak first block
    assert decode(JE(), real_from_caps([0.5, 1.6]), 1.0).n_d == 2
    # but a weak second block caps the feasible prefix at one
    assert decode(JE(), real_from_caps([1.6, 0.5]), 1.0).n_d == 1
    assert decode(JE(), real_from_caps([0.9, 0.9, 0.9]), 1.0).n_d == 0


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
        out = decode(JE(), real_from_caps(caps), 1.0)
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


BAD_M_PRIME_INPUTS = [  # (c_bar, rate_r, m_total), each tried at c_var 0.0 and 0.5
    (np.nan, 1.0, 10),
    (1.0, np.nan, 10),
    (np.inf, 1.0, 10),
    (1.0, np.inf, 10),
    (0.0, 1.0, 10),
    (1.0, -1.0, 10),
    (1.0, 1.0, 0),
    (1.0, 1.0, 10.0),
    (1.0, 1.0, 2.5),
]
# neither a bool, a string, None nor an int beyond the float range is a
# finite real: each must raise ValueError, not pass or raise TypeError
NOT_FINITE_REALS = {"True": True, "str": "0.5", "None": None, "10**400": 10**400}


@pytest.mark.parametrize(
    "c_bar, rate_r, m_total, c_var",
    [
        pytest.param(*row, c_var, id="-".join(map(str, (c_var, *row))))
        for c_var in (0.0, 0.5)
        for row in BAD_M_PRIME_INPUTS
    ]
    + [
        pytest.param(value, 1.0, 10, c_var, id=f"{c_var}-c_bar={name}")
        for c_var in (0.0, 0.5)
        for name, value in NOT_FINITE_REALS.items()
    ]
    + [pytest.param(1.0, 1.0, 10, value, id=f"c_var={name}") for name, value in NOT_FINITE_REALS.items()],
)
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
        assert decode(AJE(m_prime=len(caps)), real, 1.0).n_d == decode(JE(), real, 1.0).n_d


def test_aje_surplus_rescues_kept_messages():
    out = decode(AJE(m_prime=2), real_from_caps([0.4, 0.4, 1.4]), 1.0)
    # boosted capacities (1.1, 1.1): both kept messages decode
    assert out.decoded == frozenset({1, 2})
    assert out.rate == pytest.approx(2.0 / 3.0)


def test_aje_dead_channel():
    assert decode(AJE(m_prime=2), real_from_caps([0.0, 0.0, 0.0]), 1.0).n_d == 0


def test_aje_rejects_bad_m_prime():
    with pytest.raises(ValueError):
        decode(AJE(m_prime=0), real_from_caps([1.0, 1.0]), 1.0)
    with pytest.raises(ValueError):
        decode(AJE(m_prime=3), real_from_caps([1.0, 1.0]), 1.0)
    with pytest.raises(ValueError):
        AJE(m_prime=2.5)


# ---------------------------------------------------------------------------
# time sharing
# ---------------------------------------------------------------------------


def test_ts_hand_worked_cases():
    # caps (3,3,3): accumulated info (5.5, 2.5, 1.0); the boundary entry decodes
    out = decode(TS(), real_from_caps([3.0, 3.0, 3.0]), 1.0)
    assert out.decoded == frozenset({1, 2, 3})
    assert decode(TS(), real_from_caps([3.0, 0.0, 0.0]), 1.0).n_d == 1
    assert decode(TS(), real_from_caps([0.0, 0.0, 0.0]), 1.0).n_d == 0


def test_ts_decoded_set_is_prefix():
    rng = np.random.default_rng(7)
    for _ in range(500):
        caps = rng.exponential(1.0, rng.integers(1, 12))
        out = decode(TS(), real_from_caps(caps), 1.0)
        assert out.decoded == frozenset(range(1, out.n_d + 1))


def test_gts_window_one_is_memoryless():
    rng = np.random.default_rng(8)
    for _ in range(300):
        caps = rng.exponential(1.0, rng.integers(1, 12))
        real = real_from_caps(caps)
        assert decode(GTS(window=1), real, 1.0).decoded == decode(MT(), real, 1.0).decoded


def test_gts_full_window_is_time_sharing():
    rng = np.random.default_rng(9)
    for _ in range(300):
        caps = rng.exponential(1.0, rng.integers(1, 12))
        real = real_from_caps(caps)
        assert decode(GTS(window=len(caps)), real, 1.0).decoded == decode(TS(), real, 1.0).decoded


def test_gts_hand_worked_window():
    # W=2, caps (1,2,2): info (2, 2, 1); everything decodes, tail on equality
    out = decode(GTS(window=2), real_from_caps([1.0, 2.0, 2.0]), 1.0)
    assert out.decoded == frozenset({1, 2, 3})


@pytest.mark.parametrize("m_total", [1, 2, 3, 7, 40])
def test_gts_window_edges_match_oracle(m_total):
    """W in {1, 2, M-1, M}: where the full windows and the windows cut off
    by the deadline meet (one group is empty at W = 1 and the other at W = M
    or M = 1)."""
    caps = random_caps(np.random.default_rng(25), 80, m_total)
    for window in sorted({1, 2, m_total - 1, m_total} & set(range(1, m_total + 1))):
        (counts,) = gts_counts(caps, 1.0, [window])
        for row, cap in enumerate(caps):
            decoded = oracles.gts_decoded(cap, 1.0, window)
            assert counts[row] == len(decoded)
            assert decode(GTS(window=window), real_from_caps(cap), 1.0).decoded == decoded


def test_capacity_and_gts_kernels_leave_their_inputs_alone():
    rng = np.random.default_rng(26)
    phis = rng.exponential(1.0, (5, 30))
    phis_before = phis.tobytes()
    caps = capacities(phis, PowerBudget.from_db(2.0))
    assert phis.tobytes() == phis_before
    caps_before = caps.tobytes()
    for window in (1, 4, 30):
        gts_accumulated_info(caps, window)
        gts_counts(caps, 1.0, [window])
    assert caps.tobytes() == caps_before


FIG4_WINDOWS = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000)


def per_window_counts(caps, rate_r, windows):
    """Each window's counts by the exact rule, the reference that
    gts_counts' window sets are held to."""
    return np.array([(gts_accumulated_info(caps, w) >= rate_r).sum(axis=1) for w in windows]).reshape(
        len(windows), len(caps)
    )


@pytest.mark.parametrize(
    "m_total, lone",
    [pytest.param(m, lone, id=f"{m}-lone" if lone else str(m)) for lone in (False, True) for m in (1, 2, 3, 50, 2000)],
)
def test_gts_window_set_counts_equal_per_window_counts(m_total, lone):
    """A window set's counts, decided from shared prefix sums, are each
    window's own counts bit for bit, at fig4's windows and the edges, taken
    all in one set or each as a set of one."""
    rng = np.random.default_rng(27)
    edges = {1, -(-m_total // 2), m_total - 1, m_total}
    windows = sorted(w for w in set(FIG4_WINDOWS) | edges if 1 <= w <= m_total)
    trials = max(16, min(400, 2**16 // m_total))
    for db in (0.0, 2.0):
        caps = capacities(rng.exponential(1.0, (trials, m_total)), PowerBudget.from_db(db))
        for window_set in [[w] for w in windows] if lone else [windows]:
            got = gts_counts(caps, 1.0, window_set)
            assert got.dtype == np.int64
            assert np.array_equal(got, per_window_counts(caps, 1.0, window_set))


@pytest.mark.parametrize("trials", [1, 3, 31, 33])
def test_gts_window_set_counts_equal_per_window_counts_at_odd_trial_counts(trials):
    """Trials are summed two to a complex128, an odd count above one with a
    zero column.  A capacity of 1e20 in one trial widens the band past R,
    so the zero column, whose information is 0.0, falls within it too."""
    rng = np.random.default_rng(trials)
    windows = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 1999)
    for db in (0.0, 2.0):
        caps = capacities(rng.exponential(1.0, (trials, 2000)), PowerBudget.from_db(db))
        assert np.array_equal(gts_counts(caps, 1.0, windows), per_window_counts(caps, 1.0, windows))
    caps[-1, 7] = 1e20
    assert np.array_equal(gts_counts(caps, 1.0, windows), per_window_counts(caps, 1.0, windows))


@pytest.mark.parametrize("db", [0.0, 2.0])
def test_gts_window_set_with_heads_that_reach_the_deadline(db):
    """Above W = (M + 2) / 2 a message before W also holds C[M]: windows
    1001 (the first whose head reaches M + 1 = 2 W - 1), 1500, 1999 and
    2000 at M = 2000, with fig4's set."""
    rng = np.random.default_rng(31)
    windows = sorted(set(FIG4_WINDOWS) | {1001, 1500, 1999, 2000})
    caps = capacities(rng.exponential(1.0, (32, 2000)), PowerBudget.from_db(db))
    assert np.array_equal(gts_counts(caps, 1.0, windows), per_window_counts(caps, 1.0, windows))


def test_gts_window_set_bounds_signed_capacities_by_sums_of_their_magnitudes():
    """4e15 added to block 4 and taken from block 5 leaves C[M] at the sum
    of the small capacities, while the prefix sums in between round to
    multiples of 0.5: with a negative capacity the margin comes from the
    sums of |cap|, not from C[M], and those trials take the exact rule."""
    caps = np.random.default_rng(33).uniform(0.5, 3.0, (300, 6))
    caps[:, 3] += 4e15
    caps[:, 4] -= 4e15
    windows = (1, 2, 3, 6)
    for rate_r in (0.5, 1.0, 1.5, 2.0):
        assert np.array_equal(gts_counts(caps, rate_r, windows), per_window_counts(caps, rate_r, windows))


def test_gts_window_set_peak_memory_fits_a_core_l2():
    """fig4's eleven windows in a 32 x 2000 group chunk: the prefix sums,
    without rows that repeat C[M], and the kernel's other arrays peak at
    1.60 MiB under tracemalloc (2.08 MiB with those rows)."""
    caps = capacities(np.random.default_rng(32).exponential(1.0, (32, 2000)), PowerBudget.from_db(2.0))
    tracemalloc.start()
    try:
        gts_counts(caps, 1.0, FIG4_WINDOWS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.75 * 2**20


@pytest.mark.parametrize(
    "rate_r, windows",
    [pytest.param(r, (1, 2, 4, 8, 16, 3), id=str(r)) for r in (0.5, 1.0, 2.0)]
    + [pytest.param(r, (w,), id=f"{r}-lone{w}") for r in (0.5, 1.0, 2.0) for w in (3, 4, 8)],
)
def test_gts_window_set_takes_the_exact_rule_on_ties(monkeypatch, rate_r, windows):
    """Integer capacities and power-of-two windows make the information equal
    R exactly; those trials, and only those, are decided by the exact rule,
    as each window's own count is.  A lone window is a set of one.  Other
    information is a rational of denominator at most lcm(1..16), so at
    least 1e-6 from R, far outside the band."""
    rng = np.random.default_rng(28)
    caps = rng.integers(0, 3, (300, 16)).astype(float)
    want = per_window_counts(caps, rate_r, windows)
    ties = [np.count_nonzero((abs(gts_accumulated_info(caps, w) - rate_r) < 1e-9).any(axis=1)) for w in windows]
    calls = []
    exact = schemes.gts_accumulated_info

    def counted(caps, window):
        calls.append(len(caps))
        return exact(caps, window)

    monkeypatch.setattr(schemes, "gts_accumulated_info", counted)
    assert np.array_equal(gts_counts(caps, rate_r, windows), want)
    assert calls and sum(calls) < len(caps) * len(windows)
    assert calls == [n for n in ties if n]


@pytest.mark.parametrize("rate_r", [0.5, 1.0, 2.0])
def test_gts_counts_decides_ties_in_one_call_of_itself(monkeypatch, rate_r):
    """On the tie data above, where the exact rule re-decides some trials,
    a wrapper on schemes.gts_counts sees only the call it wraps, as the
    benchmark's trace counts kernel calls."""
    rng = np.random.default_rng(28)
    caps = rng.integers(0, 3, (300, 16)).astype(float)
    windows = (1, 2, 4, 8, 16, 3)
    want = per_window_counts(caps, rate_r, windows)
    calls, exact_calls = [], []
    kernel, exact = schemes.gts_counts, schemes.gts_accumulated_info

    def counted(caps, rate_r, window):
        calls.append(window)
        return kernel(caps, rate_r, window)

    def counted_exact(caps, window):
        exact_calls.append(window)
        return exact(caps, window)

    monkeypatch.setattr(schemes, "gts_counts", counted)
    monkeypatch.setattr(schemes, "gts_accumulated_info", counted_exact)
    assert np.array_equal(schemes.gts_counts(caps, rate_r, windows), want)
    assert calls == [windows] and exact_calls


@pytest.mark.parametrize("rows", [1, 2, 3, 127, 128, 129, 255, 256, 257, 2000, 10**4])
def test_column_counts_are_the_column_sums(rows):
    """All-true columns of 256, 2000 and 10**4 rows overflow a uint8 if the
    rows are folded once more than _column_counts does."""
    rng = np.random.default_rng(rows)
    for columns in (1, 7, 32):
        shape = (rows, columns)
        for mask in (np.ones(shape, bool), np.zeros(shape, bool), rng.random(shape) < 0.5):
            got = schemes._column_counts(mask.copy())
            assert got.dtype == np.int64
            assert np.array_equal(got, mask.sum(axis=0))


def test_gts_window_set_in_any_order_and_on_any_values():
    """Unsorted and repeated windows, capacities of either sign, and a
    NaN or infinite capacity, which leaves every trial to the exact rule, in
    an odd number of trials (one zero lane) and alone."""
    rng = np.random.default_rng(29)
    windows = [50, 1, 50, 7, 3, 7, 49]
    caps = capacities(rng.exponential(1.0, (200, 50)), PowerBudget.from_db(1.0))
    assert np.array_equal(gts_counts(caps, 1.0, windows), per_window_counts(caps, 1.0, windows))
    signed = rng.normal(0.5, 2.0, (200, 50))
    assert np.array_equal(gts_counts(signed, 1.0, windows), per_window_counts(signed, 1.0, windows))
    for value in (np.nan, np.inf, -np.inf):
        bad = caps[:7].copy()
        bad[3, 10] = value
        for batch in (bad, bad[3:4]):
            with np.errstate(invalid="ignore"):  # inf - inf in the prefix differences
                assert np.array_equal(gts_counts(batch, 1.0, windows), per_window_counts(batch, 1.0, windows))
    # every message of this trial is estimated at +inf (2 H[1] overflows),
    # but the exact rule gives message 1 only about 1e304
    huge = np.array([[0.8989e308, -1.7976e308, np.inf]])
    with np.errstate(invalid="ignore", over="ignore"):
        assert np.array_equal(gts_counts(huge, 1e305, [2]), per_window_counts(huge, 1e305, [2]))


def test_gts_counts_shape_follows_the_window():
    caps = random_caps(np.random.default_rng(30), 7, 12)
    for windows in ([], [4], (4, 12), np.array([1, 4, 12])):
        assert gts_counts(caps, 1.0, windows).shape == (len(windows), 7)
    for window in (4, np.int64(4)):
        with pytest.raises(ValueError):
            gts_counts(caps, 1.0, window)
    with pytest.raises(ValueError):
        gts_counts(caps, 1.0, [4, 13])
    with pytest.raises(ValueError):
        gts_counts(caps, 1.0, [0, 4])
    with pytest.raises(ValueError):
        gts_counts(caps, 1.0, [[1, 4]])
    for windows in ([2.5], [np.float64(2.0)], [True, 2]):
        with pytest.raises(ValueError):
            gts_counts(caps, 1.0, windows)
    assert gts_counts(caps, 1.0, [np.int64(4)]).shape == (1, 7)


def test_gts_rejects_bad_window():
    with pytest.raises(ValueError):
        decode(GTS(window=0), real_from_caps([1.0, 1.0]), 1.0)
    with pytest.raises(ValueError):
        decode(GTS(window=3), real_from_caps([1.0, 1.0]), 1.0)
    with pytest.raises(ValueError):
        GTS(window=2.5)


# ---------------------------------------------------------------------------
# superposition transmission
# ---------------------------------------------------------------------------


def test_st_subset_capacity_hand_worked():
    phi = [1.0, 1.0]
    alloc = st_power_allocation(2, PowerBudget(2.0))
    c1 = st_subset_capacity(phi, alloc, {1, 2}, {1})
    c2 = st_subset_capacity(phi, alloc, {1, 2}, {2})
    c12 = st_subset_capacity(phi, alloc, {1, 2}, {1, 2})
    assert c1 == pytest.approx(np.log2(3.0) + np.log2(1.5))  # ~2.170
    assert c2 == pytest.approx(np.log2(1.5))  # ~0.585
    assert c12 == pytest.approx(2.0 * np.log2(3.0))  # ~3.170


def test_st_decode_hand_worked():
    power = PowerBudget(2.0)
    real = ChannelRealization.from_gains([1.0, 1.0], power)
    # first message decodes alone, then the second sees a clean block on equality
    out = decode(ST(), real, 1.0, power)
    assert out.decoded == frozenset({1, 2})
    out = decode(ST(), real, 1.5, power)
    assert out.decoded == frozenset({1})
    dead = ChannelRealization.from_gains([0.0, 0.0, 0.0], power)
    assert decode(ST(), dead, 1.0, power).n_d == 0


def test_st_single_message_equals_mt():
    rng = np.random.default_rng(11)
    power = PowerBudget.from_db(1.44)
    for _ in range(300):
        real = ChannelRealization.from_gains(rng.exponential(1.0, 1), power)
        assert decode(ST(), real, 1.0, power).n_d == decode(MT(), real, 1.0).n_d


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
        assert decode(ST(), real, rate, power).decoded == frozenset(expected)


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
        exact = decode(ST(), ChannelRealization.from_gains(phi, power), rate, power).n_d
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
        for out in (decode(MT(), real, rate), decode(JE(), real, rate), decode(TS(), real, rate)):
            assert out.rate == out.n_d * rate / len(caps)
            assert 0 <= out.n_d <= len(caps)


def test_raising_a_capacity_never_hurts():
    rng = np.random.default_rng(15)
    decoders = [
        lambda r: decode(MT(), r, 1.0).n_d,
        lambda r: decode(JE(), r, 1.0).n_d,
        lambda r: decode(TS(), r, 1.0).n_d,
        lambda r: decode(GTS(window=3), r, 1.0).n_d,
    ]
    for _ in range(300):
        caps = rng.exponential(1.0, 8)
        bumped = caps.copy()
        bumped[rng.integers(0, 8)] += float(rng.uniform(0.0, 2.0))
        before, after = real_from_caps(caps), real_from_caps(bumped)
        for count in decoders:
            assert count(after) >= count(before)


def test_equality_decodes_in_every_scheme():
    # accumulated information exactly equal to the required rate decodes
    assert decode(MT(), real_from_caps([1.0]), 1.0).n_d == 1
    assert decode(JE(), real_from_caps([1.0, 1.0]), 1.0).n_d == 2
    assert decode(TS(), real_from_caps([0.0, 0.0, 3.0]), 1.0).n_d == 3
    assert decode(GTS(window=2), real_from_caps([1.0, 2.0]), 1.0).n_d == 2
    power = PowerBudget(2.0)
    st_real = ChannelRealization.from_gains([1.0, 1.0], power)
    assert decode(ST(), st_real, 1.0, power).n_d == 2  # second step is exactly tight
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
            assert gts_counts(caps, 1.0, [window])[0, row] == oracles.gts_count(cap, 1.0, window)
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
    """One chunk of Rayleigh gains the size of a lone spec's in the engine."""
    trials = engine._chunk_ranges(1, m_total).step
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
    sorted({1, FIRST_PRUNED - 1, FIRST_PRUNED, FIRST_PRUNED + 1, 19, 20, 21, 49, 50, 56, 100, 2000}),
)
@pytest.mark.parametrize("power_db, rate", [(2.0, 1.0), (20.0, 6.0)])
def test_st_counts_equal_the_row_scan_at_any_deadline(m_total, power_db, rate):
    """Across the switch to skipped rows (B = 1 at M <= 2), at B = 4 and 5
    (M = 19 to 21), and with a last bracket that ends at M (49 = 7^2,
    56 = 8 x 7, 100 = 10^2) or short of it (50, 2000)."""
    counts = _assert_same_counts(_chunk_gains(m_total, m_total), power_db, rate)
    if m_total >= 50:
        assert 0 < counts.mean() < m_total


@pytest.mark.parametrize("m_total", [FIRST_PRUNED, 20, 100])
def test_st_counts_equal_the_row_scan_when_scans_stop_at_once_or_never(m_total):
    phis = _chunk_gains(m_total, 5)
    # R exceeds every row-0 key: each scan stops at the first row after 0
    assert np.all(_assert_same_counts(phis, 2.0, 1e4) == 0)
    # no trial stops early (M R is below every row-0 key), and nearly all decode
    assert np.mean(_assert_same_counts(phis, 2.0, 1e-3) == m_total) > 0.9


@pytest.mark.parametrize("m_total", [2, 49, 50, 56, 100, 2000])
def test_st_counts_ties_go_to_the_last_row(m_total):
    """With R = 0 and the blocks from `dead` on dead, every row from the
    last live block on has key 0.0 exactly, the minimum, on rows 0, B, 2B,
    ... and in between alike; the count is M whether row M is one of the
    former (2, 49 = 7^2, 56 = 8 x 7, 100 = 10^2) or not (50, 2000), and
    whether the tie spans all rows but the first, half of them or the last
    two."""
    for dead in sorted({1, m_total // 2, m_total - 1}):
        phis = _chunk_gains(m_total, 9)
        phis[:, dead:] = 0.0
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


@pytest.mark.parametrize("m_total", [FIRST_PRUNED, 20, 50, 100, 333])
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


@pytest.mark.parametrize("trials, m_total, power_db, rate", [(655, 100, 20.0, 6.0), (1310, 50, 1.44, 1.0)])
def test_st_counts_peak_memory_at_group_chunk_shapes(trials, m_total, power_db, rate):
    """Pooled fig7 and fig5a groups decode st in chunks four times a lone
    spec's: 1733 and 1795 KiB under tracemalloc, above the scan of every
    row (1677 and 1689 KiB), and pinned below 1.9 MiB."""
    phis = np.random.default_rng(trials).exponential(1.0, (trials, m_total))
    tracemalloc.start()
    try:
        st_counts(phis, PowerBudget.from_db(power_db).p_linear, rate)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.9 * 2**20


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
