"""Channel sampling, capacity statistics, and the trial-stream contract."""

import pickle

import numpy as np
import pytest
from scipy.special import gammainc

import oracles
from fadestream import channel, engine
from fadestream.channel import (
    ChannelRealization,
    FadingModel,
    PowerBudget,
    QuadratureError,
    capacity_moments,
    effective_power,
    ergodic_capacity,
    sample_realization,
    trial_stream,
)
from fadestream.analytic import je_pmf_exact_smallM, mt_pmf_exact, mt_success_prob
from fadestream.schemes import GTS, aje_counts, gts_accumulated_info


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------


def test_power_budget_db_roundtrip():
    for db in (-7.5, -3.0, 0.0, 1.44, 2.0, 20.0):
        p = PowerBudget.from_db(db)
        assert p.db == pytest.approx(db, rel=1e-12)
        assert PowerBudget.from_db(p.db).p_linear == pytest.approx(p.p_linear, rel=1e-12)


def test_power_budget_rejects_nonpositive():
    with pytest.raises(ValueError):
        PowerBudget(0.0)
    with pytest.raises(ValueError):
        PowerBudget(-1.0)
    with pytest.raises(ValueError):
        PowerBudget.from_db(4000.0)  # 10**400 overflows a float


@pytest.mark.parametrize("value", ["1", None, True, 1j, np.array([1.0]), 10**400, "0.5", float("nan")])
def test_power_and_rate_checks_refuse_non_numbers_with_value_error(value):
    """Not a finite real number: ValueError from every shared check, never
    numpy's TypeError from a finiteness test."""
    with pytest.raises(ValueError):
        PowerBudget(value)
    with pytest.raises(ValueError):
        PowerBudget.from_db(value)
    with pytest.raises(ValueError):
        effective_power(PowerBudget(1.0), value, 3.0)
    with pytest.raises(ValueError):
        channel._check_positive("rate_r", value)
    with pytest.raises(ValueError):
        mt_success_prob(PowerBudget(1.0), value)
    with pytest.raises(ValueError, match="p must be a probability"):
        mt_pmf_exact(3, value)


@pytest.mark.parametrize("value", [True, False, np.True_, 2.0, 2.5, "2", None])
def test_count_check_refuses_bools_and_non_integers(value):
    with pytest.raises(ValueError, match="blocks must be an integer >= 1"):
        channel._check_count("blocks", value)
    with pytest.raises(ValueError):
        GTS(window=value)
    caps = np.ones((2, 3))
    with pytest.raises(ValueError, match="m_prime must be an integer >= 1"):
        aje_counts(caps, 1.0, value)
    with pytest.raises(ValueError, match="window must be an integer >= 1"):
        gts_accumulated_info(caps, value)
    with pytest.raises(ValueError, match="m_total must be an integer >= 1"):
        je_pmf_exact_smallM(value, PowerBudget(1.0), 1.0)


def test_shared_checks_take_numpy_numbers():
    channel._check_count("blocks", np.int64(3))
    channel._check_positive("rate_r", np.float32(0.5))
    assert PowerBudget(np.float64(2.0)).p_linear == 2.0
    assert PowerBudget.from_db(np.int64(0)).p_linear == 1.0


def test_realization_validation():
    with pytest.raises(ValueError):
        ChannelRealization(phi=np.array([1.0, 2.0]), cap=np.array([1.0]))
    with pytest.raises(ValueError):
        ChannelRealization(phi=np.array([-1.0]), cap=np.array([0.5]))
    with pytest.raises(ValueError):
        ChannelRealization(phi=np.array([]), cap=np.array([]))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            ChannelRealization(phi=[bad], cap=[1.0])
        with pytest.raises(ValueError):
            ChannelRealization(phi=[1.0], cap=[bad])


def test_zero_gains_give_zero_capacity():
    real = ChannelRealization.from_gains([0.0, 0.0, 0.0], PowerBudget(1.0))
    assert np.all(real.cap == 0.0)


def test_unit_gain_capacities():
    assert ChannelRealization.from_gains([1.0], PowerBudget(1.0)).cap[0] == pytest.approx(1.0)
    assert ChannelRealization.from_gains([3.0], PowerBudget(1.0)).cap[0] == pytest.approx(2.0)


@pytest.mark.parametrize("shape", [(), (1,), (7,), (32, 2000), (4000, 32)])
def test_aligned_arrays_start_on_a_cache_line(shape):
    arrays = [channel._aligned_empty(shape) for _ in range(8)]  # wherever the heap puts each
    for array in arrays:
        assert array.ctypes.data % 64 == 0
        assert array.shape == shape and array.dtype == np.float64
        assert array.flags.c_contiguous and array.flags.writeable


def test_gain_blocks_and_capacities_are_aligned():
    for count, m_total in ((1, 2), (3, 7), (32, 2000), (5, 10**4)):
        phis = engine._sample_gain_block(m_total, 5, 0, count)
        assert phis.ctypes.data % 64 == 0
        for gains in (phis, phis[:, 1:], phis[0]):
            assert channel.capacities(gains, PowerBudget(2.0)).ctypes.data % 64 == 0


def test_rayleigh_sample_mean_is_one():
    rng = trial_stream(2024, 0)
    gains = FadingModel.sample_gains(rng, np.empty(10**6))
    assert gains.min() > 0.0
    assert gains.mean() == pytest.approx(1.0, abs=4.0 / np.sqrt(10**6))


# ---------------------------------------------------------------------------
# determinism / stream derivation
# ---------------------------------------------------------------------------


def test_sampling_is_deterministic_per_stream():
    a = sample_realization(PowerBudget.from_db(2.0), 16, trial_stream(99, 3))
    b = sample_realization(PowerBudget.from_db(2.0), 16, trial_stream(99, 3))
    assert np.array_equal(a.phi, b.phi)
    assert np.array_equal(a.cap, b.cap)


@pytest.mark.parametrize("m_blocks", [0, 2.5, None])
def test_sample_realization_rejects_bad_block_counts(m_blocks):
    with pytest.raises(ValueError):
        sample_realization(PowerBudget(1.0), m_blocks, trial_stream(1, 0))


def test_trial_streams_are_distinct():
    a = trial_stream(99, 0).random(8)
    b = trial_stream(99, 1).random(8)
    c = trial_stream(100, 0).random(8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_trial_stream_rejects_out_of_range_seed():
    for master_seed, trial in ((-1, 0), (2**64, 0), (0, -1), (0, 2**64), (-1, 2**64)):
        with pytest.raises(ValueError):
            trial_stream(master_seed, trial)


@pytest.mark.parametrize(
    "master_seed, trial", [(1.5, 0), (1, 2.9), (1.0, 0), (np.float64(3.0), 0), ("1", 0), (1, None)]
)
def test_trial_stream_rejects_non_integers(master_seed, trial):
    """A float is refused, not truncated to the integer key below it."""
    with pytest.raises(ValueError):
        trial_stream(master_seed, trial)


def test_trial_stream_takes_numpy_integers():
    for master_seed, trial in ((np.uint64(2**64 - 1), np.int64(3)), (np.int32(99), np.uint8(3))):
        expect = _keyed_philox(int(master_seed), int(trial))
        ours = trial_stream(master_seed, trial)
        assert repr(ours.bit_generator.state) == repr(expect.bit_generator.state)
        assert np.array_equal(ours.random(50), expect.random(50))


def _read_only(array):
    array.flags.writeable = False
    return array


@pytest.mark.parametrize(
    "out",
    [np.empty(10)[::2], np.empty(5, np.float32), np.empty(5, np.int64), _read_only(np.empty(5))],
    ids=["strided", "float32", "int64", "read-only"],
)
def test_sample_gains_refuses_an_out_it_cannot_fill_before_any_draw(out):
    """Only a contiguous, writable float64 `out` is filled; any other is
    refused with the stream still at its first draw."""
    rng = trial_stream(1, 0)
    with pytest.raises((TypeError, ValueError)):
        FadingModel.sample_gains(rng, out)
    assert repr(rng.bit_generator.state) == repr(trial_stream(1, 0).bit_generator.state)


def test_sample_gains_into_out_is_the_plain_draw():
    out = np.empty(5)
    assert FadingModel.sample_gains(trial_stream(1, 0), out) is out
    assert np.array_equal(out, -np.log1p(-trial_stream(1, 0).random(5)))


def test_fixed_key_refuses_any_other_request():
    """A bit generator that asks for other than two uint64 words gets no key."""
    key = channel._FixedKey((1, 2))
    assert key.generate_state(2, np.uint64) is key
    for n_words, dtype in ((2, np.uint32), (4, np.uint64), (1, np.uint64)):
        with pytest.raises(ValueError):
            key.generate_state(n_words, dtype)
    with pytest.raises(ValueError):
        np.random.PCG64(key)  # asks for four uint64 words
    with pytest.raises(ValueError):
        np.random.MT19937(key)  # asks for uint32 words


def _keyed_philox(master_seed, trial):
    """The stream trial_stream must reproduce, built the documented way."""
    key = np.array([master_seed, trial], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


EDGE_PAIRS = [(0, 0), (0, 2**64 - 1), (2**64 - 1, 0), (2**64 - 1, 2**64 - 1), (99, 3)]


@pytest.mark.parametrize("master_seed, trial", EDGE_PAIRS)
def test_trial_stream_equals_keyed_philox(master_seed, trial):
    ours = trial_stream(master_seed, trial)
    reference = _keyed_philox(master_seed, trial)
    assert ours.bit_generator.state["state"]["key"].tolist() == [master_seed, trial]
    assert repr(ours.bit_generator.state) == repr(reference.bit_generator.state)
    for size in (1, 3, 50, 2000):  # consecutive draws cross the 4-word buffer
        assert np.array_equal(ours.random(size), reference.random(size))
    for size in (1, 3, 50, 2000):
        fresh = trial_stream(master_seed, trial).random(size)
        assert np.array_equal(fresh, _keyed_philox(master_seed, trial).random(size))
    assert np.array_equal(
        trial_stream(master_seed, trial).exponential(1.0, 500),
        _keyed_philox(master_seed, trial).exponential(1.0, 500),
    )


@pytest.mark.parametrize("master_seed, trial", EDGE_PAIRS)
def test_sampled_rows_are_the_inverse_transform_of_the_keyed_stream(master_seed, trial):
    """In-place sampling gives bit for bit -log1p(-u) of the documented stream."""
    for m_total in (1, 5, 2000):
        expect = -np.log1p(-_keyed_philox(master_seed, trial).random(m_total))
        drawn = FadingModel.sample_gains(trial_stream(master_seed, trial), np.empty(m_total))
        assert drawn.tobytes() == expect.tobytes()
        block = np.full((3, m_total), np.nan)
        row = block[1]
        assert FadingModel.sample_gains(trial_stream(master_seed, trial), row) is row
        assert block[1].tobytes() == expect.tobytes()
        assert np.isnan(block[[0, 2]]).all()  # the neighbouring rows are untouched
    if trial >= 2:  # the engine's block: row k is trial start + k, at the benchmark's M too
        for m_total in (7, 50, 100, 2000):
            phis = engine._sample_gain_block(m_total, master_seed, trial - 2, 3)
            for k in range(3):
                expect = -np.log1p(-_keyed_philox(master_seed, trial - 2 + k).random(m_total))
                assert phis[k].tobytes() == expect.tobytes()


def test_trial_stream_survives_pickle():
    stream = trial_stream(2**64 - 1, 7)
    reference = _keyed_philox(2**64 - 1, 7)
    assert np.array_equal(stream.random(3), reference.random(3))
    restored = pickle.loads(pickle.dumps(stream))
    assert repr(restored.bit_generator.state) == repr(reference.bit_generator.state)
    assert np.array_equal(restored.random(50), reference.random(50))
    # the original carries on from where it was pickled, untouched by the copy
    assert np.array_equal(stream.random(50), _keyed_philox(2**64 - 1, 7).random(53)[3:])


def test_trial_stream_calls_are_independent_objects():
    a, b = trial_stream(5, 1), trial_stream(5, 1)
    assert a is not b and a.bit_generator is not b.bit_generator
    first = a.random(10)
    assert np.array_equal(b.random(10), first)  # drawing from a left b alone
    assert not np.array_equal(a.random(10), first)


# ---------------------------------------------------------------------------
# ergodic capacity and variance
# ---------------------------------------------------------------------------


def test_ergodic_capacity_reference_points():
    # quoted operating points for the unit-mean Rayleigh channel
    for db, expected in ((-3.0, 0.522), (0.0, 0.86), (1.44, 1.07), (2.0, 1.158)):
        c_bar = ergodic_capacity(PowerBudget.from_db(db))
        assert c_bar == pytest.approx(expected, abs=0.01)


def test_quadrature_matches_closed_form():
    for p_linear in (0.1, 0.5, 1.0, 1.585, 10.0, 100.0):
        power = PowerBudget(p_linear)
        assert ergodic_capacity(power) == pytest.approx(
            oracles.rayleigh_ergodic_closed_form(power), abs=1e-6
        )


@pytest.mark.parametrize("db", [-20.0, -10.0, 0.0, 1.44, 10.0, 20.0, 30.0, 40.0, 44.0, 50.0, 60.0])
def test_ergodic_capacity_matches_closed_form_to_rounding(db):
    power = PowerBudget.from_db(db)
    assert ergodic_capacity(power) == pytest.approx(
        oracles.rayleigh_ergodic_closed_form(power), rel=1e-13
    )


@pytest.mark.parametrize("db", [-10.0, -3.0, 0.0, 2.0, 10.0, 20.0, 30.0, 40.0])
def test_capacity_variance_matches_adaptive_quadrature(db):
    power = PowerBudget.from_db(db)
    mean, variance = capacity_moments(power)
    expect_mean, expect_variance = oracles.capacity_moments(power.p_linear)
    assert mean == pytest.approx(expect_mean, rel=1e-13)
    assert variance == pytest.approx(expect_variance, rel=1e-13)


@pytest.mark.parametrize("n_nodes", sorted(channel._LEGENDRE_HALVES))
def test_the_checked_in_quadrature_halves_rebuild_leggauss_bit_for_bit(n_nodes):
    """The package keeps half of each Gauss-Legendre rule as constants;
    numpy.polynomial, which it no longer imports, is their oracle."""
    from numpy.polynomial.legendre import leggauss

    nodes, weights = channel._gauss_legendre(n_nodes)
    expect_nodes, expect_weights = leggauss(n_nodes)
    assert nodes.tobytes() == expect_nodes.tobytes()
    assert weights.tobytes() == expect_weights.tobytes()


def test_a_tolerance_below_the_error_estimate_raises(monkeypatch):
    power = PowerBudget.from_db(20.0)

    def capacity(g):
        return np.log1p(g * power.p_linear) / channel.LN2

    assert channel._rayleigh_expectation(capacity) == ergodic_capacity(power)
    monkeypatch.setattr(channel, "_QUAD_TOL", 1e-18)
    with pytest.raises(QuadratureError):
        channel._rayleigh_expectation(capacity)


def test_an_upper_limit_cuts_the_expectation_at_it():
    """The integrals of exp(-g) and g exp(-g) over [0, u] are 1 - e^-u and
    1 - (1 + u) e^-u, the regularized incomplete gamma P(1, u) and P(2, u);
    scipy evaluates them without those forms' cancellation at small u.  An
    array of limits gives one integral per limit."""
    u = np.geomspace(1e-6, 40.0, 25)
    for k, f in ((1, np.ones_like), (2, lambda g: g)):
        expected = gammainc(k, u)
        assert channel._rayleigh_expectation(f, u) == pytest.approx(expected, rel=1e-14)
        assert [channel._rayleigh_expectation(f, x) for x in u] == pytest.approx(expected, rel=1e-14)


def test_ergodic_capacity_strictly_increasing_in_power():
    grid = np.logspace(-1.5, 2.5, 12)
    values = [ergodic_capacity(PowerBudget(p)) for p in grid]
    assert np.all(np.diff(values) > 0.0)


def test_sample_mean_capacity_matches_quadrature():
    power = PowerBudget.from_db(2.0)
    real = sample_realization(power, 10**6, trial_stream(7, 0))
    se = real.cap.std(ddof=1) / np.sqrt(len(real.cap))
    assert real.cap.mean() == pytest.approx(ergodic_capacity(power), abs=4 * se)


@pytest.mark.parametrize("db", [0.0, 2.0])
def test_capacity_variance_against_sample_variance(db):
    # independent oracle: sample variance over 1e7 draws via numpy's own
    # exponential sampler, not the package's inverse transform
    power = PowerBudget.from_db(db)
    gains = np.random.default_rng(123456).exponential(1.0, 10**7)
    caps = np.log2(1.0 + gains * power.p_linear)
    sample_var = caps.var(ddof=1)
    # SE of the sample variance via the fourth central moment
    fourth = np.mean((caps - caps.mean()) ** 4)
    se = np.sqrt((fourth - sample_var**2) / len(caps))
    assert capacity_moments(power)[1] == pytest.approx(sample_var, abs=3 * se)


# ---------------------------------------------------------------------------
# path loss
# ---------------------------------------------------------------------------


def test_effective_power_examples():
    p = PowerBudget(100.0)
    assert effective_power(p, 1.0, 3.0).p_linear == pytest.approx(100.0)
    assert effective_power(p, 10.0, 3.0).p_linear == pytest.approx(0.1)
    assert effective_power(p, 2.0, 3.0).p_linear == pytest.approx(12.5)


def test_effective_power_rejects_bad_distance():
    with pytest.raises(ValueError):
        effective_power(PowerBudget(1.0), 0.0, 3.0)
    with pytest.raises(ValueError):
        effective_power(PowerBudget(1.0), -2.0, 3.0)
    with pytest.raises(ValueError):
        effective_power(PowerBudget(1.0), 1e-10, 400.0)  # 1e-10**-400 overflows a float
