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

from dataclasses import dataclass

import numpy as np

from .channel import LN2, ChannelRealization, PowerBudget, _check_count, _check_rate

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
        if self.m_prime is not None:
            _check_count("m_prime", self.m_prime)


@dataclass(frozen=True)
class TS:
    pass


@dataclass(frozen=True)
class GTS:
    window: int

    def __post_init__(self):
        _check_count("window", self.window)


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


# Cephes' rational approximations (ndtr.c): erf(x) = x T(x^2) / U(x^2) for
# |x| <= 1, and erfc(x) = exp(-x^2) P(x) / Q(x) for 1 <= x < 8, R(x) / S(x)
# from 8 on.  Coefficients run from the highest power down.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_SQRT1_2 = 0.70710678118654752440
_MAXLOG = 7.09782712893383996843e2  # log of the largest double: erfc is 0.0 past sqrt of it
# from a = 6 sqrt(2) = 8.49 up, the upper tail 0.5 erfc(a / sqrt(2)) is below
# 2**-54, and the cdf rounds to 1.0
_CDF_ONE = 6.0  # on the scale of a / sqrt(2)


def _polevl(x: np.ndarray, coefs) -> np.ndarray:
    y = np.full_like(x, coefs[0])
    for c in coefs[1:]:
        y *= x
        y += c
    return y


def _erf(x: np.ndarray) -> np.ndarray:
    """erf for |x| <= 1."""
    z = x * x
    return x * _polevl(z, _ERF_T) / _polevl(z, _ERF_U)


def _erfc(x: np.ndarray) -> np.ndarray:
    """erfc for 1 <= x with x^2 <= _MAXLOG."""
    near = x < 8.0
    out = np.empty_like(x)
    for part, num, den in ((near, _ERFC_P, _ERFC_Q), (~near, _ERFC_R, _ERFC_S)):
        xp = x[part]
        out[part] = np.exp(-xp * xp) * _polevl(xp, num) / _polevl(xp, den)
    return out


def normal_cdf(a) -> np.ndarray:
    """Standard normal cdf of each element, as Cephes' ndtr evaluates it.

    With x = a / sqrt(2): 0.5 + 0.5 erf(x) for |x| < 1/sqrt(2), else
    0.5 erfc(|x|) on the lower tail and 1 minus it on the upper, where
    erfc(z) = 1 - erf(z) for z < 1.  Within 1.2e-16 of scipy.special.ndtr
    from -38 to 38.  Only the elements below _CDF_ONE and inside _MAXLOG
    are evaluated; the others are exactly 1.0 or 0.0.
    """
    x = np.asarray(a, dtype=float) * _SQRT1_2
    out = (x >= _CDF_ONE).astype(float)
    live = (x < _CDF_ONE) & (x * x <= _MAXLOG)
    x = x[live]
    z = np.abs(x)
    inner = z < _SQRT1_2
    y = np.empty_like(x)
    y[inner] = 0.5 + 0.5 * _erf(x[inner])
    z = z[~inner]
    mid = z < 1.0
    half = np.empty_like(z)
    half[mid] = 1.0 - _erf(z[mid])
    half[~mid] = _erfc(z[~mid])
    half *= 0.5
    y[~inner] = np.where(x[~inner] > 0.0, 1.0 - half, half)
    out[live] = y
    return out


# elements of a block of choose_m_prime's (M', n) rectangle: at M = 10**4 a
# block is 13 rows, and each of its arrays is at most 1 MiB
_SEARCH_BLOCK_ELEMENTS = 2**17


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

    The search costs O(M^2), in one normal_cdf call per block of rows M':
    the terms n > M' of a block's rectangle are -inf, whose cdf is 0.0.
    """
    if not (np.isfinite(c_bar) and c_bar > 0.0):
        raise ValueError("c_bar must be finite and positive")
    _check_rate(rate_r)
    _check_count("m_total", m_total)
    if not (np.isfinite(c_var) and c_var >= 0.0):
        raise ValueError("c_var must be finite and non-negative")
    if c_var == 0.0:
        return int(np.clip(np.floor(m_total * c_bar / rate_r), 1, m_total))
    predicted = np.empty(m_total)
    step = max(1, _SEARCH_BLOCK_ELEMENTS // m_total)
    for first in range(1, m_total + 1, step):
        last = min(first + step - 1, m_total)
        m_prime = np.arange(first, last + 1, dtype=float)[:, None]
        n = np.arange(1, last + 1, dtype=float)
        drift = n * (m_total * c_bar / m_prime - rate_r)
        spread = np.sqrt(c_var * (n + n * n * (m_total - m_prime) / m_prime**2))
        z = np.where(n <= m_prime, drift / spread, -np.inf)
        predicted[first - 1 : last] = normal_cdf(z).sum(axis=1)
    return int(np.argmax(predicted)) + 1


# ---------------------------------------------------------------------------
# superposition transmission: the subset capacities that define greedy decoding
# ---------------------------------------------------------------------------


def st_power_allocation(m_total: int, power: PowerBudget) -> np.ndarray:
    """Equal power split: message i gets P/t in every block t >= i.

    Returns the (messages x blocks) matrix; each column sums to P.
    """
    _check_count("m_total", m_total)
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


# relative margin of st_counts' pruning test: far above the rounding of a
# key or a bound (a few ulps of the row-0 key times log2 M), far below any
# gap between keys that decides a count
_ST_MARGIN = 1e-9


def _st_step(m_total: int) -> int:
    """Spacing B of the rows that st_counts evaluates for every trial.

    Those rows cost about M^2 / (2B) block terms per trial, and the rows
    that their bounds leave in between grow with B; sqrt(M) balances the
    two (measured: within noise from B = 7 to 14 at M = 100 and from 32 to
    45 at M = 2000).  Below M = 20 the bounds save at most a few percent.
    """
    return 1 if m_total < 20 else round(m_total**0.5)


def _st_bound_weights(step: int) -> np.ndarray:
    """(step - 1) x (step + 1) weights of _st_bracket_bound, over ln 2: row
    v - 1 bounds row lo + v from row lo's log sum, row hi's and the head
    terms of the blocks lo + 1, ..., hi - 1, in that order."""
    v = np.arange(1, step, dtype=float)[:, None]
    u = v.T
    weights = np.empty((step - 1, step + 1))
    weights[:, :1] = 1.0 - v / step
    weights[:, 1:2] = v / step
    # a head term's own chord, less its part in the far blocks' chord
    weights[:, 2:] = np.maximum(u - v, 0.0) / u - (1.0 - v / step)
    weights /= LN2
    return weights


def _st_bracket_bound(
    gains: np.ndarray,
    sum_lo: np.ndarray,
    sum_hi: np.ndarray,
    lo: int,
    weights: np.ndarray,
    rate_r: float,
) -> np.ndarray:
    """st_counts' lower bounds on the keys K[lo+1], ..., K[lo+w], w < B.

    gains[:, u-1] is phi_t P / t of block t = lo + u, one row per trial;
    sum_lo and sum_hi are the log sums (natural log) of rows lo and lo + B,
    sum_hi 0.0 where that row was not evaluated; weights is
    _st_bound_weights(B).  Row v - 1 of the result bounds K[lo+v], one
    column per trial.
    """
    trials, width = gains.shape
    x = np.empty((width + 2, trials))
    x[0] = sum_lo
    x[1] = sum_hi
    head = x[2:]  # ln(1 + a_t (t - lo)), the first terms of row lo
    np.multiply(gains.T, np.arange(1.0, width + 1)[:, None], out=head)
    np.log1p(head, out=head)
    bound = weights[:width, : width + 2] @ x
    bound += rate_r * np.arange(lo + 1.0, lo + width + 1)[:, None]
    return bound


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
    is built only for the trials that need it, so memory is O(trials x M).
    Every row is evaluated by the same operations for any set of trials, so
    its key has the same bits whichever rows are skipped.

    First the rows 0, B, 2B, ... (B = _st_step(M)).  A trial stops there
    once j R exceeds its running minimum: the log sum is >= 0, and adding a
    non-negative term to j R cannot round below j R, so K[j] and every later
    row are >= j R and can never move its minimum again.  Then the rows
    between two of them, lo and hi = lo + B.  Each block term
    log2(1 + a_t max(t - j, 0)), a_t = phi_t P / t, is concave in j on
    [lo, t], so on a row lo < j < hi (_st_bracket_bound)
      - the blocks t >= hi sum to at least the chord between their sums on
        rows lo and hi (row lo's sum less its terms t < hi; 0 for row hi
        where the trial stopped before it);
      - a block lo < t < hi holds at least its term on row lo times
        max(t - j, 0) / (t - lo), its chord to the zero at j = t;
    and K[j] is at least their sum plus j R.  A row is evaluated only for
    the trials whose bound is within _ST_MARGIN (relative to the row-0 key
    plus the minimum, which covers the rounding of bound and key) of the
    minimum over the rows 0, B, 2B, ...  A skipped row's computed key thus
    lies above that minimum, so it is never the last index attaining the
    minimum of K, and the count is the last argmin over the rows evaluated.
    At B = 1 there are no rows in between: the scan of every row.
    """
    trials, m_total = phis.shape
    t = np.arange(1, m_total + 1, dtype=float)
    per_message = phis * (p_linear / t)
    step = _st_step(m_total)
    coarse = range(0, m_total + 1, step)
    # log sums (natural log) of the rows 0, B, 2B, ...; 0.0 where not evaluated,
    # as in the last column, row len(coarse) * B > M
    sums = np.zeros((trials, len(coarse) + 1)) if step > 1 else None
    terms = per_message * t
    row_sum = np.log1p(terms, out=terms).sum(axis=1)
    best = row_sum / LN2  # key row 0
    if step > 1:
        sums[:, 0] = row_sum
    anchor = np.zeros(trials, dtype=np.int64)
    counts = np.zeros(trials, dtype=np.int64)
    minimum = np.empty(trials)  # best, for every trial
    running = np.arange(trials)  # trials still scanning; best and anchor follow
    evaluated = [running]  # the trials that evaluated each of the rows 0, B, 2B, ...
    for row, j in enumerate(coarse[1:], 1):
        going = rate_r * j <= best
        if not going.all():
            counts[running], minimum[running] = anchor, best
            running, best, anchor = running[going], best[going], anchor[going]
            if running.size == 0:
                break
        evaluated.append(running)
        terms = per_message[running, j:]  # the blocks t > j, times t - j
        terms *= t[: m_total - j]
        row_sum = np.log1p(terms, out=terms).sum(axis=1)
        key = row_sum / LN2 + rate_r * j
        if step > 1:
            sums[running, row] = row_sum
        # <= moves the anchor to the last index attaining the running minimum
        improved = key <= best
        anchor[improved] = j
        best[improved] = key[improved]
    counts[running], minimum[running] = anchor, best
    if step == 1:
        return counts
    weights = _st_bound_weights(step)
    limit = minimum + _ST_MARGIN * (sums[:, 0] / LN2 + minimum)
    # log sums of the rows in between that are evaluated; +inf elsewhere
    keys = np.full((m_total + 1, trials), np.inf)
    for row, alive in enumerate(evaluated):
        lo = coarse[row]
        width = min(step - 1, m_total - lo)
        gains = per_message[alive, lo : lo + width]  # the blocks lo < t <= lo + width
        bound = _st_bracket_bound(gains, sums[alive, row], sums[alive, row + 1], lo, weights, rate_r)
        needed = bound <= limit[alive]
        for v in np.flatnonzero(needed.any(axis=1)):
            pick = alive[needed[v]]
            j = lo + v + 1
            terms = per_message[pick, j:]
            terms *= t[: m_total - j]
            keys[j, pick] = np.log1p(terms, out=terms).sum(axis=1)
    keys /= LN2
    keys[1:] += rate_r * t[:, None]  # the keys, j R added to row j
    # the last minimum of those rows, against that of the rows 0, B, 2B, ...
    low = keys.min(axis=0)
    last = m_total - np.argmin(keys[::-1], axis=0)
    return np.where((low < minimum) | ((low == minimum) & (last > counts)), last, counts)
