"""Block fading channel: gain sampling and capacity-level statistics.

The channel is modelled at the mutual-information level.  Each block t has a
random power gain phi[t]; a transmission at linear SNR P sees an instantaneous
capacity of log2(1 + phi[t] * P) bits per channel use (bpcu).  Everything
downstream (decoders, bounds, experiment runner) works on these per-block
capacities, never on channel symbols.
"""

import ctypes
import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np
import scipy  # unused here; bench/child.py reads sys.modules["scipy"].__version__

LN2 = float(np.log(2.0))

# looked up once here instead of once per Monte Carlo trial by
# FadingModel.sample_gains and trial_stream
_negative, _log1p = np.negative, np.log1p
_Generator, _Philox = np.random.Generator, np.random.Philox
_index = operator.index

# Gain integration cutoff: the exp(-g) tail beyond this point contributes
# less than 1e-9 to any expectation taken in this package.
_GAIN_CUTOFF = 40.0

# Edges of the quadrature pieces on [0, _GAIN_CUTOFF]: 0, then 40 * 2^-60,
# 40 * 2^-59, ..., 40.  Halving towards 0 keeps log1p(g P) smooth on every
# piece at any P: a piece [a, 2a] lies at least its own width a from the
# singularity at g = -1/P, and the first piece is narrower than 1/P up to
# P = 3e16 (164 dB).
_GAIN_EDGES = np.concatenate(([0.0], _GAIN_CUTOFF * 2.0 ** np.arange(-60.0, 1.0)))


class QuadratureError(RuntimeError):
    """Numerical integration did not reach the requested tolerance."""


def _finite_real(value) -> bool:
    """Whether value is a finite real number, numpy's included.  A bool, a
    string, None or an int beyond the float range is not: each gives False
    rather than the TypeError or OverflowError of a finiteness test."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _check_rate(rate_r: float):
    if not (_finite_real(rate_r) and rate_r > 0.0):
        raise ValueError("rate_r must be finite and positive")


def _check_count(name: str, value: int):
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral) and value >= 1):
        raise ValueError(f"{name} must be an integer >= 1")


class FadingModel:  # only the name under which the benchmark's trace hooks wrap sample_gains
    """The per-block channel power gain: unit-mean Rayleigh fading, density
    exp(-g) for g > 0, the one model of this package.

    The capacity statistics below are for this distribution.
    """

    @staticmethod
    def sample_gains(
        rng: np.random.Generator, n: int, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Draw n i.i.d. gains, into `out` if given.

        `out` must be a contiguous float64 vector of length n; it is filled
        and returned, so a caller can draw straight into a row of its block.
        Any other length raises ValueError.
        """
        if out is None:
            out = np.empty(n)
        elif len(out) != n:  # one comparison per trial on the engine's path
            raise ValueError(f"out must have length n = {n}, not {len(out)}")
        # inverse transform g = -ln(u), u uniform on (0, 1], in place:
        # the same draws and bits as -log1p(-rng.random(n))
        rng.random(out=out)  # no size: random() would check it against out
        _negative(out, out)
        _log1p(out, out)
        _negative(out, out)
        return out


def _power_or_inf(base: float, exponent: float) -> float:
    """base**exponent, or inf where Python's float power raises OverflowError;
    PowerBudget then rejects the inf with its ValueError."""
    try:
        return base**exponent
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class PowerBudget:
    """Average transmit power as a linear SNR against unit-variance noise."""

    p_linear: float

    def __post_init__(self):
        if not (_finite_real(self.p_linear) and self.p_linear > 0.0):
            raise ValueError("p_linear must be finite and positive")

    @classmethod
    def from_db(cls, snr_db: float) -> "PowerBudget":
        if not _finite_real(snr_db):
            raise ValueError("snr_db must be finite")
        return cls(p_linear=_power_or_inf(10.0, snr_db / 10.0))

    @property
    def db(self) -> float:
        return 10.0 * float(np.log10(self.p_linear))


def _aligned_empty(shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialised C-contiguous float64 array whose data starts on a
    64-byte cache line.

    A float64 ufunc writing to an array that does not start on a line took
    1.8 times as long (np.subtract of two aligned 2000 x 32 arrays into a
    third: 15 us aligned, 27 us at offsets 8, 16, 32 and 48 mod 64; AVX-512
    numpy 2.4, 2.1 GHz Xeon), and where the heap places an np.empty array
    changes with the size of earlier allocations, those of the package's
    own path included.  So the arrays of the chunk kernels come from here:
    7 more elements than needed, sliced at the first line, whose address a
    ctypes view reads in 0.5 us (1.4 us by ndarray.ctypes.data).
    """
    size = math.prod(shape)
    buffer = np.empty(size + 7)
    first = (-ctypes.addressof(ctypes.c_char.from_buffer(buffer)) % 64) // 8
    return buffer[first : first + size].reshape(shape)


def capacities(phi, power: PowerBudget) -> np.ndarray:
    """Instantaneous capacities log2(1 + phi * P) in bpcu, elementwise.

    One new array, 64-byte aligned, holds the result; log1p and the
    division by ln 2 run in place on it, so `phi` is left unchanged.
    """
    phi = np.asarray(phi, dtype=float)
    caps = np.multiply(phi, power.p_linear, out=_aligned_empty(phi.shape))
    np.log1p(caps, out=caps)
    caps /= LN2
    return caps


@dataclass(frozen=True)
class ChannelRealization:
    """One trial's block gains and the matching capacities (bpcu)."""

    phi: np.ndarray
    cap: np.ndarray

    def __post_init__(self):
        phi = np.atleast_1d(np.asarray(self.phi, dtype=float))
        cap = np.atleast_1d(np.asarray(self.cap, dtype=float))
        if phi.ndim != 1 or cap.ndim != 1 or len(phi) != len(cap) or len(phi) < 1:
            raise ValueError("phi and cap must be 1-d vectors of equal length >= 1")
        if not all(np.all(np.isfinite(x) & (x >= 0.0)) for x in (phi, cap)):
            raise ValueError("gains and capacities must be finite and non-negative")
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "cap", cap)

    @property
    def m_blocks(self) -> int:
        return len(self.phi)

    @classmethod
    def from_gains(cls, phi, power: PowerBudget) -> "ChannelRealization":
        phi = np.atleast_1d(np.asarray(phi, dtype=float))
        return cls(phi=phi, cap=capacities(phi, power))


def sample_realization(
    power: PowerBudget, m_blocks: int, rng: np.random.Generator
) -> ChannelRealization:
    """Draw one realization of m_blocks i.i.d. gains and their capacities."""
    _check_count("m_blocks", m_blocks)
    return ChannelRealization.from_gains(FadingModel.sample_gains(rng, m_blocks), power)


class _FixedKey(tuple, np.random.bit_generator.ISeedSequence):
    """The pair (master_seed, trial) as a seed sequence that hands Philox
    the pair itself as its key.

    np.random.Philox(key=...) still builds a SeedSequence() from OS entropy
    and discards it, which costs more than the draws of a short trial.
    Passed as the seed, this tuple is the key, so the bit generator's state
    is the one Philox(key=key) sets up: that key, counter 0, an empty
    buffer.  Being a tuple, it is built without an array or an __init__.
    """

    __slots__ = ()

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or dtype is not np.uint64:
            raise ValueError("a fixed Philox key is two uint64 words")
        return self


# Philox(seed, counter=None) converts the Python int 0 to its counter words,
# about 2 us per stream more than copying this array
_ZERO_COUNTER = np.zeros(4, dtype=np.uint64)


def trial_stream(master_seed: int, trial: int) -> np.random.Generator:
    """Independent random stream for one Monte Carlo trial.

    Streams are counter-based (Philox keyed by the pair (master_seed, trial)),
    so trial k's draws are derivable directly from the pair without generating
    any other trial.  This is what makes experiments order-independent and
    safely parallelizable.

    The stream is exactly Generator(Philox(key=[master_seed, trial])).  It is
    built from a fixed-key seed sequence (_FixedKey) and a zero counter,
    which skips the OS-entropy seed sequence that Philox(key=...) creates and
    throws away; every draw is bit-identical.  Both arguments must be
    integers (numpy integers included) in [0, 2**64).
    """
    try:
        key = _FixedKey((_index(master_seed), _index(trial)))
    except TypeError:
        raise ValueError("master_seed and trial must be integers") from None
    if (key[0] | key[1]) >> 64:  # nonzero iff either is negative or 2**64 and up
        raise ValueError("master_seed and trial must fit in 64 bits")
    return _Generator(_Philox(key, counter=_ZERO_COUNTER))


def _gauss_legendre_pieces(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """An n-node Gauss-Legendre rule on each piece between _GAIN_EDGES, with
    the exp(-g) density folded into the weights; one row per piece."""
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    lo, hi = _GAIN_EDGES[:-1, None], _GAIN_EDGES[1:, None]
    half = (hi - lo) / 2.0
    nodes = lo + half * (x + 1.0)
    return nodes, half * w * np.exp(-nodes)


_FINE_NODES, _FINE_WEIGHTS = _gauss_legendre_pieces(20)
_COARSE_NODES, _COARSE_WEIGHTS = _gauss_legendre_pieces(10)
_NODES = np.hstack((_FINE_NODES, _COARSE_NODES))  # one evaluation of f for both rules


# largest error estimate that ergodic_capacity and capacity_moments accept
_QUAD_TOL = 1e-6


def _rayleigh_expectation(f, tol: float) -> float:
    """Integral of f(g) * exp(-g) over g > 0 by a fixed composite rule.

    f takes an array of gains.  The value is the 20-node Gauss-Legendre
    rule on each piece of [0, _GAIN_CUTOFF]; the error estimate is the sum
    over pieces of its distance from the 10-node rule on the same piece.
    """
    values = f(_NODES)
    n_fine = _FINE_NODES.shape[1]
    fine = (values[:, :n_fine] * _FINE_WEIGHTS).sum(axis=1)
    coarse = (values[:, n_fine:] * _COARSE_WEIGHTS).sum(axis=1)
    abserr = float(np.abs(fine - coarse).sum())
    if abserr > tol:
        raise QuadratureError(
            f"quadrature error {abserr:.2e} exceeds tolerance {tol:.2e}"
        )
    return float(fine.sum())


def ergodic_capacity(power: PowerBudget) -> float:
    """Mean instantaneous capacity E[log2(1 + phi * P)] in bpcu."""
    p = power.p_linear
    return _rayleigh_expectation(lambda g: np.log1p(g * p) / LN2, _QUAD_TOL)


def capacity_moments(power: PowerBudget) -> tuple[float, float]:
    """Mean and variance of the instantaneous capacity, in bpcu and bpcu^2.

    One quadrature per moment: the mean is ergodic_capacity's, and the
    variance integrates the squared deviation from it, which avoids the
    cancellation of E[C^2] - E[C]^2 at high SNR.
    """
    mean = ergodic_capacity(power)
    p = power.p_linear
    variance = _rayleigh_expectation(lambda g: (np.log1p(g * p) / LN2 - mean) ** 2, _QUAD_TOL)
    return mean, variance


def effective_power(
    power: PowerBudget, distance: float, path_loss_exponent: float
) -> PowerBudget:
    """Received power budget at the given distance: P * d^(-alpha)."""
    if not (_finite_real(distance) and distance > 0.0):
        raise ValueError("distance must be positive")
    if not (_finite_real(path_loss_exponent) and path_loss_exponent > 0.0):
        raise ValueError("path_loss_exponent must be positive")
    return PowerBudget(p_linear=power.p_linear * _power_or_inf(distance, -path_loss_exponent))

