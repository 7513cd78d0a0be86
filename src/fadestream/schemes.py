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

Scalar decoders take a ChannelRealization; the batched counterparts at the
bottom of the module take (trials x blocks) matrices and return per-trial
decoded counts.  Both routes implement identical rules and are cross-checked
against each other in the test suite.
"""

from dataclasses import dataclass
from functools import lru_cache

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
    the predicted decoded count, no larger than safety * M * c_bar / R.
    """

    m_prime: int | None = None
    safety: float = 0.95

    def __post_init__(self):
        if self.m_prime is not None and self.m_prime < 1:
            raise ValueError("m_prime must be >= 1")
        if not 0.0 < self.safety <= 1.0:
            raise ValueError("safety must be in (0, 1]")


@dataclass(frozen=True)
class TS:
    pass


@dataclass(frozen=True)
class GTS:
    window: int

    def __post_init__(self):
        if self.window < 1:
            raise ValueError("window must be >= 1")


@dataclass(frozen=True)
class ST:
    """Superposition transmission with its subset-search bounds.

    Realizations with more than exact_subset_limit blocks switch the subset
    search to contiguous index runs of length <= heuristic_subset_cap, and
    the outcome is flagged approximate.
    """

    exact_subset_limit: int = 20
    heuristic_subset_cap: int = 4

    def __post_init__(self):
        if self.exact_subset_limit < 1 or self.heuristic_subset_cap < 1:
            raise ValueError("subset search bounds must be >= 1")


SchemeConfig = MT | JE | AJE | TS | GTS | ST


@dataclass(frozen=True)
class DecodeOutcome:
    """Decoded message set with its count and delivered rate n_d * R / M."""

    decoded: frozenset
    n_d: int
    rate: float
    approximate: bool = False


def _outcome(decoded, m_total: int, rate_r: float, approximate: bool = False) -> DecodeOutcome:
    decoded = frozenset(int(i) for i in decoded)
    n_d = len(decoded)
    return DecodeOutcome(
        decoded=decoded, n_d=n_d, rate=n_d * rate_r / m_total, approximate=approximate
    )


def _check_rate(rate_r: float):
    if not (np.isfinite(rate_r) and rate_r > 0.0):
        raise ValueError("rate_r must be finite and positive")


# ---------------------------------------------------------------------------
# memoryless transmission
# ---------------------------------------------------------------------------


def decode_mt(real: ChannelRealization, rate_r: float) -> DecodeOutcome:
    """Message t decodes iff its own block clears the rate: cap[t] >= R."""
    _check_rate(rate_r)
    decoded = np.nonzero(real.cap >= rate_r)[0] + 1
    return _outcome(decoded, real.m_blocks, rate_r)


# ---------------------------------------------------------------------------
# joint encoding
# ---------------------------------------------------------------------------


def je_prefix_feasible(cap, rate_r: float, m: int) -> bool:
    """Whether the first m messages are jointly decodable from blocks 1..m.

    Requires (m - j + 1) R <= cap[j] + ... + cap[m] for every j = 1..m;
    m = 0 is trivially feasible.
    """
    cap = np.asarray(cap, dtype=float)
    if not 0 <= m <= len(cap):
        raise ValueError("m out of range")
    if m == 0:
        return True
    suffix = np.cumsum(cap[:m][::-1])[::-1]  # suffix[j-1] = cap[j-1] + .. + cap[m-1]
    need = rate_r * np.arange(m, 0, -1)
    return bool(np.all(need <= suffix))


def decode_je(real: ChannelRealization, rate_r: float) -> DecodeOutcome:
    """Longest feasible prefix under joint encoding."""
    _check_rate(rate_r)
    for m in range(real.m_blocks, -1, -1):
        if je_prefix_feasible(real.cap, rate_r, m):
            return _outcome(range(1, m + 1), real.m_blocks, rate_r)
    raise AssertionError("m = 0 is always feasible")


@lru_cache(maxsize=256)
def choose_m_prime(
    c_bar: float, rate_r: float, m_total: int, safety: float = 0.95, *, c_var: float
) -> int:
    """Number of messages to keep in adaptive joint encoding.

    Picks the M' in [1, min(M, round(safety * M * c_bar / R))] that maximizes
    the predicted decoded count; ties go to the smaller M'.  The cap rounds
    half away from zero, so `safety` backs the largest message load off from
    the mean capacity.

    Given the trailing sum T = C_{M'+1} + ... + C_M, the boosted increments
    C_i + T/M' - R are exchangeable, and Sparre Andersen's fluctuation
    identity gives E[n_d] = sum_{n=1..M'} Pr{S_n >= 0} for their partial sums
    S_n.  Each term uses the normal approximation with mean n (M c_bar/M' - R)
    and variance c_var (n + n^2 (M - M') / M'^2), where c_var is the variance
    of one block's capacity.  With c_var = 0 every block carries c_bar, and
    the exact answer floor(M c_bar / R), clamped into [1, M], is kept under
    the same cap.

    Cached because the search costs O(M^2) and the experiment runner resolves
    the scheme once per chunk.
    """
    if c_bar <= 0.0 or rate_r <= 0.0:
        raise ValueError("c_bar and rate_r must be positive")
    if not (np.isfinite(c_var) and c_var >= 0.0):
        raise ValueError("c_var must be finite and non-negative")
    cap = int(np.clip(np.floor(safety * m_total * c_bar / rate_r + 0.5), 1, m_total))
    if c_var == 0.0:
        return int(np.clip(np.floor(m_total * c_bar / rate_r), 1, cap))
    predicted = np.empty(cap)
    for m_prime in range(1, cap + 1):
        n = np.arange(1, m_prime + 1, dtype=float)
        drift = n * (m_total * c_bar / m_prime - rate_r)
        spread = np.sqrt(c_var * (n + n * n * (m_total - m_prime) / m_prime**2))
        predicted[m_prime - 1] = ndtr(drift / spread).sum()
    return int(np.argmax(predicted)) + 1


def _aje_boosted_caps(cap: np.ndarray, m_prime: int) -> np.ndarray:
    """Per-message capacities after folding the surplus blocks back in.

    Each of the blocks beyond m_prime is split into m_prime equal parts that
    repeat the original codewords, so message slot i <= m_prime accumulates
    cap[i] + (cap[m_prime+1] + ... + cap[M]) / m_prime.
    """
    surplus = cap[m_prime:].sum() / m_prime
    return cap[:m_prime] + surplus


def decode_aje(real: ChannelRealization, rate_r: float, m_prime: int) -> DecodeOutcome:
    """Joint encoding restricted to the first m_prime messages.

    The delivered rate still divides by the full M: the M - m_prime dropped
    messages count against the scheme.
    """
    _check_rate(rate_r)
    m_total = real.m_blocks
    if not 1 <= m_prime <= m_total:
        raise ValueError("m_prime must be in [1, M]")
    boosted = _aje_boosted_caps(real.cap, m_prime)
    for m in range(m_prime, -1, -1):
        if je_prefix_feasible(boosted, rate_r, m):
            return _outcome(range(1, m + 1), m_total, rate_r)
    raise AssertionError("m = 0 is always feasible")


# ---------------------------------------------------------------------------
# time sharing
# ---------------------------------------------------------------------------


def ts_accumulated_info(cap) -> np.ndarray:
    """Mutual information per message under equal time sharing.

    Block t is split equally among the t arrived messages, so message i
    accumulates I_i = cap[i]/i + cap[i+1]/(i+1) + ... + cap[M]/M.
    """
    cap = np.asarray(cap, dtype=float)
    shares = cap / np.arange(1, len(cap) + 1)
    return np.cumsum(shares[::-1])[::-1]


def decode_ts(real: ChannelRealization, rate_r: float) -> DecodeOutcome:
    """Messages whose accumulated time-sharing information reaches R.

    I_1 >= I_2 >= ... >= I_M, so the decoded set is always a prefix.
    """
    _check_rate(rate_r)
    decoded = np.nonzero(ts_accumulated_info(real.cap) >= rate_r)[0] + 1
    return _outcome(decoded, real.m_blocks, rate_r)


def gts_accumulated_info(cap, window: int) -> np.ndarray:
    """Mutual information per message under windowed time sharing.

    Message i occupies blocks i .. min(i+W-1, M).  In block t the active
    messages are those with max(1, t-W+1) <= i <= t, so each active message
    receives the fraction 1/min(t, W) of the block.
    """
    cap = np.asarray(cap, dtype=float)
    m_total = len(cap)
    if not 1 <= window <= m_total:
        raise ValueError("window must be in [1, M]")
    shares = cap / np.minimum(np.arange(1, m_total + 1), window)
    csum = np.concatenate(([0.0], np.cumsum(shares)))
    starts = np.arange(m_total)
    ends = np.minimum(starts + window, m_total)
    return csum[ends] - csum[starts]


def decode_gts(real: ChannelRealization, rate_r: float, window: int) -> DecodeOutcome:
    """Windowed time sharing; the decoded set need not be a prefix."""
    _check_rate(rate_r)
    info = gts_accumulated_info(real.cap, window)
    decoded = np.nonzero(info >= rate_r)[0] + 1
    return _outcome(decoded, real.m_blocks, rate_r)


# ---------------------------------------------------------------------------
# superposition transmission
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


def st_joint_capacity_profile(phi, p_linear: float) -> np.ndarray:
    """Joint capacities of the message suffixes under the equal power split.

    Entry s is the capacity of decoding messages s+1..M together, with all
    earlier messages already subtracted:

        H[s] = sum_t log2(1 + phi_t * (P/t) * max(t - s, 0))

    because in block t exactly max(t - s, 0) of the remaining messages have
    arrived, each holding power P/t.  By the chain rule the best size-i
    subset from state s (which is the earliest-index run, see decode_st)
    has capacity H[s] - H[s+i].
    """
    phi = np.asarray(phi, dtype=float)
    m_total = len(phi)
    t = np.arange(1, m_total + 1)
    per_message = phi * (p_linear / t)
    remaining = np.clip(t[None, :] - np.arange(m_total + 1)[:, None], 0, None)
    return np.log1p(per_message[None, :] * remaining).sum(axis=1) / LN2


def _st_scan(profile: np.ndarray, rate_r: float, max_run: int) -> int:
    """Greedy subset decoding as a single pass over the capacity profile.

    From s decoded messages, the smallest decodable subset size i satisfies
    i * R <= H[s] - H[s+i]; with K[j] = H[j] + j * R this is K[s+i] <= K[s].
    Decoding therefore jumps along the running minima of K, and stops once
    the next minimum is more than max_run positions away.
    """
    m_total = len(profile) - 1
    key = profile + rate_r * np.arange(m_total + 1)
    anchor = 0
    for j in range(1, m_total + 1):
        if j - anchor > max_run:
            break
        if key[j] <= key[anchor]:
            anchor = j
    return anchor


def decode_st(
    real: ChannelRealization,
    rate_r: float,
    power: PowerBudget,
    config: ST = ST(),
) -> DecodeOutcome:
    """Greedy subset decoding of the superimposed messages.

    Repeatedly decodes the smallest subset size whose best candidate clears
    i * R, subtracts it, and restarts.  With the equal power split, the best
    size-i candidate is always the i earliest undecoded messages: every block
    term of the subset capacity grows when a member index is lowered, and
    the earliest run is also the lexicographic tie-break.  The search over
    subsets therefore reduces to the capacity profile scan above; the test
    suite cross-checks it against exhaustive subset enumeration.

    Beyond config.exact_subset_limit blocks the candidate runs are capped at
    config.heuristic_subset_cap and the outcome is flagged approximate.
    """
    _check_rate(rate_r)
    m_total = real.m_blocks
    approximate = m_total > config.exact_subset_limit
    max_run = config.heuristic_subset_cap if approximate else m_total
    profile = st_joint_capacity_profile(real.phi, power.p_linear)
    n_d = _st_scan(profile, rate_r, max_run)
    return _outcome(range(1, n_d + 1), m_total, rate_r, approximate=approximate)


# ---------------------------------------------------------------------------
# batched decoders: caps / phis are (trials x blocks) matrices, the result is
# the per-trial decoded count.  Same rules as the scalar routes above.
# ---------------------------------------------------------------------------


def mt_counts(caps: np.ndarray, rate_r: float) -> np.ndarray:
    return (caps >= rate_r).sum(axis=1)


def je_counts(caps: np.ndarray, rate_r: float) -> np.ndarray:
    """Longest feasible prefix, vectorized over trials.

    With excess e[t] = cap[t] - R and prefix sums p[m], the prefix m is
    feasible iff p[m] >= max(p[0..m-1]); the decoded count is the largest
    such m.
    """
    trials, m_total = caps.shape
    p = np.concatenate([np.zeros((trials, 1)), np.cumsum(caps - rate_r, axis=1)], axis=1)
    running_max = np.maximum.accumulate(p, axis=1)
    feasible = p[:, 1:] >= running_max[:, :-1]
    any_feasible = feasible.any(axis=1)
    last = m_total - 1 - np.argmax(feasible[:, ::-1], axis=1)
    return np.where(any_feasible, last + 1, 0)


def aje_counts(caps: np.ndarray, rate_r: float, m_prime: int) -> np.ndarray:
    m_total = caps.shape[1]
    if not 1 <= m_prime <= m_total:
        raise ValueError("m_prime must be in [1, M]")
    if m_prime == m_total:
        return je_counts(caps, rate_r)
    surplus = caps[:, m_prime:].sum(axis=1) / m_prime
    return je_counts(caps[:, :m_prime] + surplus[:, None], rate_r)


def ts_counts(caps: np.ndarray, rate_r: float) -> np.ndarray:
    shares = caps / np.arange(1, caps.shape[1] + 1)
    info = np.cumsum(shares[:, ::-1], axis=1)[:, ::-1]
    return (info >= rate_r).sum(axis=1)


def gts_counts(caps: np.ndarray, rate_r: float, window: int) -> np.ndarray:
    trials, m_total = caps.shape
    if not 1 <= window <= m_total:
        raise ValueError("window must be in [1, M]")
    shares = caps / np.minimum(np.arange(1, m_total + 1), window)
    csum = np.concatenate([np.zeros((trials, 1)), np.cumsum(shares, axis=1)], axis=1)
    starts = np.arange(m_total)
    ends = np.minimum(starts + window, m_total)
    info = csum[:, ends] - csum[:, starts]
    return (info >= rate_r).sum(axis=1)


def st_counts(
    phis: np.ndarray,
    p_linear: float,
    rate_r: float,
    exact_subset_limit: int = 20,
    heuristic_subset_cap: int = 4,
) -> tuple[np.ndarray, bool]:
    """Batched superposition decoding; returns (counts, approximate_flag).

    The scan of _st_scan, vectorized across trials: key row j (the profile
    entry H[j] plus j R, see st_joint_capacity_profile) is built only for the
    trials whose scan is still running, so memory stays O(trials x M) and a
    capped scan stops after the rows it reads.  Each row sums all M block
    terms, zeros included, so it is bit-identical to the full profile.
    """
    trials, m_total = phis.shape
    approximate = m_total > exact_subset_limit
    max_run = heuristic_subset_cap if approximate else m_total
    t = np.arange(1, m_total + 1)
    per_message = phis * (p_linear / t)
    best = np.log1p(per_message * t).sum(axis=1) / LN2  # key row 0
    anchor = np.zeros(trials, dtype=np.int64)
    running = np.arange(trials)  # trials whose scan has not stopped
    for j in range(1, m_total + 1):
        going = j - anchor[running] <= max_run
        if not going.all():
            running = running[going]
            per_message = per_message[going]
            if running.size == 0:
                break
        terms = per_message * np.maximum(t - j, 0)
        key = np.log1p(terms, out=terms).sum(axis=1) / LN2 + rate_r * j
        # <= moves the anchor to the last index attaining the running minimum
        improved = key <= best[running]
        moved = running[improved]
        anchor[moved] = j
        best[moved] = key[improved]
    return anchor, approximate
