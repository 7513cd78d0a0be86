"""Per-realization decoders for the streaming transmission schemes.

One message of fixed rate R arrives per channel block; all M messages share a
common deadline at the end of block M.  Given one channel realization, each
decoder determines which messages the receiver has decoded by the deadline:

* mt  - memoryless: each message is sent only in its own arrival block.
* je  - joint encoding: every block's codeword indexes all messages so far;
        the receiver decodes the longest feasible prefix.
* aje - adaptive joint encoding: je restricted to the first M' messages, with
        the trailing blocks' capacity folded back in equal shares.
* ts  - time sharing: each block's channel uses split equally among all
        messages that have arrived.
* gts - windowed time sharing: like ts, but each message only occupies the
        window of W blocks following its arrival.
* st  - superposition: all arrived messages are superimposed with an equal
        power split; the receiver decodes subsets greedily, smallest first,
        subtracting decoded signals.

Decoding succeeds on exact equality (accumulated mutual information equal to
the required rate) in every scheme.

Each rule is implemented once, by the batched kernels (the *_counts
functions), which take (trials x blocks) matrices and return per-trial
decoded counts.  The scalar decode_* functions run those kernels on a
one-row batch of a ChannelRealization.  The test suite checks the kernels
against independent rule-by-definition implementations in tests/oracles.py.
"""

import numbers
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .channel import LN2, ChannelRealization, PowerBudget

# ---------------------------------------------------------------------------
# configuration and outcome types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MT:
    pass


@dataclass(frozen=True)
class JE:
    pass


@dataclass(frozen=True)
class AJE:
    """Adaptive joint encoding over the first m_prime of M messages.

    With m_prime=None the experiment runner picks it from the mean and the
    variance of the block capacity via choose_m_prime: the M' that maximizes
    the predicted decoded count.
    """

    m_prime: int | None = None

    def __post_init__(self):
        if self.m_prime is not None and not (
            isinstance(self.m_prime, numbers.Integral) and self.m_prime >= 1
        ):
            raise ValueError("m_prime must be an integer >= 1")


@dataclass(frozen=True)
class TS:
    pass


@dataclass(frozen=True)
class GTS:
    window: int

    def __post_init__(self):
        if not (isinstance(self.window, numbers.Integral) and self.window >= 1):
            raise ValueError("window must be an integer >= 1")


@dataclass(frozen=True)
class ST:
    pass


SchemeConfig = MT | JE | AJE | TS | GTS | ST


@dataclass(frozen=True)
class DecodeOutcome:
    """Decoded message set with its count and delivered rate n_d * R / M."""

    decoded: frozenset
    n_d: int
    rate: float


def _outcome(decoded, m_total: int, rate_r: float) -> DecodeOutcome:
    decoded = frozenset(int(i) for i in decoded)
    n_d = len(decoded)
    return DecodeOutcome(decoded=decoded, n_d=n_d, rate=n_d * rate_r / m_total)


def _check_rate(rate_r: float):
    if not (np.isfinite(rate_r) and rate_r > 0.0):
        raise ValueError("rate_r must be finite and positive")


def _decode_prefix(kernel, real: ChannelRealization, rate_r: float, *args) -> DecodeOutcome:
    """The first n_d messages, n_d being the kernel's count on the one-row batch."""
    _check_rate(rate_r)
    n_d = int(kernel(real.cap[None, :], rate_r, *args)[0])
    return _outcome(range(1, n_d + 1), real.m_blocks, rate_r)


# ---------------------------------------------------------------------------
# scalar decoders: one ChannelRealization through the batched kernels below
# ---------------------------------------------------------------------------


def decode_mt(real: ChannelRealization, rate_r: float) -> DecodeOutcome:
    """Message t decodes iff cap[t] >= R: mt_counts with each block a trial."""
    _check_rate(rate_r)
    decoded = np.flatnonzero(mt_counts(real.cap[:, None], rate_r)) + 1
    return _outcome(decoded, real.m_blocks, rate_r)


def decode_je(real: ChannelRealization, rate_r: float) -> DecodeOutcome:
    """Longest feasible prefix under joint encoding."""
    return _decode_prefix(je_counts, real, rate_r)


def decode_aje(real: ChannelRealization, rate_r: float, m_prime: int) -> DecodeOutcome:
    """Joint encoding restricted to the first m_prime messages.

    The delivered rate still divides by the full M: the M - m_prime dropped
    messages count against the scheme.
    """
    return _decode_prefix(aje_counts, real, rate_r, m_prime)


def decode_ts(real: ChannelRealization, rate_r: float) -> DecodeOutcome:
    """Time sharing; I_1 >= I_2 >= ... >= I_M, so the decoded set is a prefix."""
    return _decode_prefix(ts_counts, real, rate_r)


def decode_gts(real: ChannelRealization, rate_r: float, window: int) -> DecodeOutcome:
    """Windowed time sharing; the decoded set need not be a prefix."""
    _check_rate(rate_r)
    info = gts_accumulated_info(real.cap[None, :], window)[0]
    return _outcome(np.flatnonzero(info >= rate_r) + 1, real.m_blocks, rate_r)


def decode_st(real: ChannelRealization, rate_r: float, power: PowerBudget) -> DecodeOutcome:
    """Greedy subset decoding of the superimposed messages; see st_counts."""
    _check_rate(rate_r)
    n_d = st_counts(real.phi[None, :], power.p_linear, rate_r)[0]
    return _outcome(range(1, n_d + 1), real.m_blocks, rate_r)


# ---------------------------------------------------------------------------
# adaptive joint encoding: how many messages to keep
# ---------------------------------------------------------------------------


def choose_m_prime(c_bar: float, rate_r: float, m_total: int, *, c_var: float) -> int:
    """Number of messages to keep in adaptive joint encoding.

    Picks the M' in [1, M] that maximizes the predicted decoded count; ties
    go to the smaller M'.

    Given the trailing sum T = C_{M'+1} + ... + C_M, the boosted increments
    C_i + T/M' - R are exchangeable, and Sparre Andersen's fluctuation
    identity gives E[n_d] = sum_{n=1..M'} Pr{S_n >= 0} for their partial sums
    S_n.  Each term uses the normal approximation with mean n (M c_bar/M' - R)
    and variance c_var (n + n^2 (M - M') / M'^2), where c_var is the variance
    of one block's capacity.  With c_var = 0 every block carries c_bar, and
    the exact answer floor(M c_bar / R), clamped into [1, M], is returned.
    The search costs O(M^2).
    """
    if c_bar <= 0.0 or rate_r <= 0.0:
        raise ValueError("c_bar and rate_r must be positive")
    if not (np.isfinite(c_var) and c_var >= 0.0):
        raise ValueError("c_var must be finite and non-negative")
    if c_var == 0.0:
        return int(np.clip(np.floor(m_total * c_bar / rate_r), 1, m_total))
    predicted = np.empty(m_total)
    for m_prime in range(1, m_total + 1):
        n = np.arange(1, m_prime + 1, dtype=float)
        drift = n * (m_total * c_bar / m_prime - rate_r)
        spread = np.sqrt(c_var * (n + n * n * (m_total - m_prime) / m_prime**2))
        predicted[m_prime - 1] = ndtr(drift / spread).sum()
    return int(np.argmax(predicted)) + 1


# ---------------------------------------------------------------------------
# superposition transmission: the subset capacities that define greedy decoding
# ---------------------------------------------------------------------------


def st_power_allocation(m_total: int, power: PowerBudget) -> np.ndarray:
    """Equal power split: message i gets P/t in every block t >= i.

    Returns the (messages x blocks) matrix; each column sums to P.
    """
    if m_total < 1:
        raise ValueError("m_total must be >= 1")
    t = np.arange(1, m_total + 1)
    alloc = np.where(np.arange(1, m_total + 1)[:, None] <= t[None, :], power.p_linear / t, 0.0)
    return alloc


def st_subset_capacity(phi, p_alloc: np.ndarray, undecoded, subset) -> float:
    """Joint capacity of a candidate subset, remaining undecoded as noise.

    Sum over blocks of log2(1 + phi_t * S_t / (1 + phi_t * N_t)) where S_t is
    the subset's allocated power in block t and N_t the power of the still
    undecoded messages outside the subset.  Messages already decoded must
    have been removed from `undecoded` by the caller (their signals are
    subtracted before this test).
    """
    subset = frozenset(subset)
    undecoded = frozenset(undecoded)
    if not subset:
        raise ValueError("subset must be non-empty")
    if not subset <= undecoded:
        raise ValueError("subset must be contained in the undecoded set")
    phi = np.asarray(phi, dtype=float)
    rows_s = [s - 1 for s in subset]
    rows_n = [s - 1 for s in undecoded - subset]
    s_pow = p_alloc[rows_s, :].sum(axis=0)
    n_pow = p_alloc[rows_n, :].sum(axis=0) if rows_n else np.zeros_like(phi)
    return float(np.sum(np.log1p(phi * s_pow / (1.0 + phi * n_pow)) / LN2))


# ---------------------------------------------------------------------------
# batched decoders, the one implementation of each rule: caps / phis are
# (trials x blocks) matrices, the result is the per-trial decoded count
# ---------------------------------------------------------------------------


def mt_counts(caps: np.ndarray, rate_r: float) -> np.ndarray:
    return (caps >= rate_r).sum(axis=1)


def je_counts(caps: np.ndarray, rate_r: float) -> np.ndarray:
    """Longest feasible prefix, vectorized over trials.

    The first m messages are jointly decodable from blocks 1..m iff
    (m - j + 1) R <= cap[j] + ... + cap[m] for every j = 1..m.  With the walk
    p[0] = 0, p[m] = (cap[1] - R) + ... + (cap[m] - R), that is
    p[m] >= max(p[0..m-1]).  So the decoded count, the largest such m, is
    the last index at which p reaches its maximum over 0..M: p at every
    later index falls below that maximum, and the count is 0 when p[0] = 0
    is the strict maximum.
    """
    trials, m_total = caps.shape
    p = np.empty((trials, m_total + 1))
    p[:, 0] = 0.0
    np.subtract(caps, rate_r, out=p[:, 1:])
    np.cumsum(p, axis=1, out=p)
    return m_total - np.argmax(p[:, ::-1], axis=1)


def aje_counts(caps: np.ndarray, rate_r: float, m_prime: int) -> np.ndarray:
    """Joint encoding of the first m_prime messages on boosted blocks.

    Each of the blocks beyond m_prime is split into m_prime equal parts that
    repeat the original codewords, so message slot i <= m_prime accumulates
    cap[i] + (cap[m_prime+1] + ... + cap[M]) / m_prime.  At m_prime = M the
    surplus is 0.0 and this is je_counts.
    """
    m_total = caps.shape[1]
    if not 1 <= m_prime <= m_total:
        raise ValueError("m_prime must be in [1, M]")
    surplus = caps[:, m_prime:].sum(axis=1) / m_prime
    return je_counts(caps[:, :m_prime] + surplus[:, None], rate_r)


def ts_counts(caps: np.ndarray, rate_r: float) -> np.ndarray:
    """Equal time sharing: block t is split among the t arrived messages.

    Message i accumulates I_i = cap[i]/i + cap[i+1]/(i+1) + ... + cap[M]/M
    and decodes iff I_i >= R.
    """
    shares = caps / np.arange(1, caps.shape[1] + 1)
    info = np.cumsum(shares[:, ::-1], axis=1)[:, ::-1]
    return (info >= rate_r).sum(axis=1)


def gts_accumulated_info(caps: np.ndarray, window: int) -> np.ndarray:
    """Mutual information per message under windowed time sharing.

    Message i occupies blocks i .. min(i+W-1, M).  In block t the active
    messages are those with max(1, t-W+1) <= i <= t, so each active message
    receives the fraction 1/min(t, W) of the block.

    With prefix sums S[0] = 0, S[t] = share[1] + ... + share[t], message i
    holds S[min(i+W-1, M)] - S[i-1].  Messages 1..M-W+1 keep their whole
    window, S[i+W-1] - S[i-1]; the last W-1 messages are cut off by the
    deadline and hold S[M] - S[i-1].  Each group is one slice subtraction.
    """
    trials, m_total = caps.shape
    if not 1 <= window <= m_total:
        raise ValueError("window must be in [1, M]")
    full = m_total - window + 1  # messages whose window ends by the deadline
    csum = np.empty((trials, m_total + 1))
    csum[:, 0] = 0.0
    np.divide(caps, np.minimum(np.arange(1, m_total + 1), window), out=csum[:, 1:])
    np.cumsum(csum, axis=1, out=csum)
    info = np.empty((trials, m_total))
    np.subtract(csum[:, window:], csum[:, :full], out=info[:, :full])
    np.subtract(csum[:, m_total:], csum[:, full:m_total], out=info[:, full:])
    return info


def gts_counts(caps: np.ndarray, rate_r: float, window: int) -> np.ndarray:
    return (gts_accumulated_info(caps, window) >= rate_r).sum(axis=1)


def st_counts(phis: np.ndarray, p_linear: float, rate_r: float) -> np.ndarray:
    """Greedy superposition decoding: the decoded count of each trial.

    The greedy decoder repeatedly decodes the smallest subset size i whose
    best candidate clears i * R (st_subset_capacity), subtracts it, and
    restarts.  Under the equal power split the best candidate is the i
    earliest undecoded messages (each block term grows as a member index is
    lowered; it is also the lexicographic tie-break), and with s decoded,
    messages s+1..M decode jointly at H[s] = sum_t log2(1 + phi_t (P/t)
    max(t - s, 0)).  By the chain rule the earliest size-i run decodes iff
    K[s+i] <= K[s] for K[j] = H[j] + j R, so decoding jumps along the running
    minima of K, and the count is the last index attaining the minimum.

    Row j of K sums only the blocks t > j, the others being zero terms, and
    is built only for the trials still scanning, so memory is O(trials x M).
    A trial stops scanning once j R exceeds its running minimum: the log sum
    is >= 0, and adding a non-negative term to j R cannot round below j R, so
    K[j] and every later row are >= j R and can never move its minimum again.
    """
    trials, m_total = phis.shape
    t = np.arange(1, m_total + 1, dtype=float)
    per_message = phis * (p_linear / t)
    best = np.log1p(per_message * t).sum(axis=1) / LN2  # key row 0
    anchor = np.zeros(trials, dtype=np.int64)
    counts = np.zeros(trials, dtype=np.int64)
    running = np.arange(trials)  # trials still scanning; best, anchor, per_message follow
    for j in range(1, m_total + 1):
        going = rate_r * j <= best
        if not going.all():
            counts[running] = anchor
            running, best, anchor, per_message = (
                running[going], best[going], anchor[going], per_message[going]
            )
            if running.size == 0:
                break
        terms = per_message[:, j:] * t[: m_total - j]  # the blocks t > j, times t - j
        key = np.log1p(terms, out=terms).sum(axis=1) / LN2 + rate_r * j
        # <= moves the anchor to the last index attaining the running minimum
        improved = key <= best
        anchor[improved] = j
        best[improved] = key[improved]
    counts[running] = anchor
    return counts
