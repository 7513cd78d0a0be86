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
decoded counts.  engine.DECODERS names each configuration class's kernel,
and engine.decode runs it on a one-row batch of a ChannelRealization.  The
test suite checks the kernels against independent rule-by-definition
implementations in tests/oracles.py.
"""

from dataclasses import dataclass

import numpy as np

from .channel import LN2, _aligned_empty, _check_count, _check_positive, _finite_real

# ---------------------------------------------------------------------------
# configuration types
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
    _check_positive("c_bar", c_bar)
    _check_positive("rate_r", rate_r)
    _check_count("m_total", m_total)
    if not (_finite_real(c_var) and c_var >= 0.0):
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
    _check_count("m_prime", m_prime)
    if m_prime > caps.shape[1]:
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
    _check_count("window", window)
    if window > m_total:
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


def _gts_exact_counts(caps: np.ndarray, rate_r: float, window: int) -> np.ndarray:
    """The exact rule: per trial, the messages of gts_accumulated_info at or
    above R."""
    return (gts_accumulated_info(caps, window) >= rate_r).sum(axis=1)


# most mask rows that _column_counts adds into one uint8: with the one
# row left over that some get, no sum passes 129
_COLUMN_ROWS = 128


def _column_counts(mask: np.ndarray) -> np.ndarray:
    """mask.sum(axis=0) of a C-contiguous 2-D bool array.

    One column is counted whole.  Otherwise the mask is read as uint8, and
    its first k m rows, k <= _COLUMN_ROWS blocks of m rows, are added into
    one block in a single uint8 reduction; the rows left over, fewer than
    m, are added onto the block's first rows before its m rows are summed.
    At 2000 x 32 the comparison that fills the mask and this count take
    16 us, against 37 us for the comparison into a new mask and a float64
    product of a row of ones with it.
    """
    rows = mask.view(np.uint8)
    n, width = rows.shape
    if width == 1:
        return np.array([np.count_nonzero(rows)], dtype=np.int64)
    m = -(-n // _COLUMN_ROWS)
    k = n // m
    block = np.add.reduce(rows[: k * m].reshape(k, m * width), axis=0, dtype=np.uint8).reshape(m, width)
    block[: n - k * m] += rows[k * m :]
    return block.sum(axis=0, dtype=np.int64)


def gts_counts(caps: np.ndarray, rate_r: float, windows) -> np.ndarray:
    """Decoded counts under windowed time sharing, one row of counts per
    window W of the 1-D sequence `windows`: message i decodes iff
    gts_accumulated_info(caps, W)[:, i] >= R.

    Windows, one or many, are decided from two prefix sums shared by all of
    them, C[k] = cap[1] + ... + cap[k] and H[k] = cap[1]/1 + ... + cap[k]/k
    (k < max W), rows of blocks by columns of trials, summed down two
    columns to a complex128 add: each column keeps its trial's own bits in
    half the sequential adds.  An odd number of trials above one (one has no
    add to halve) gets a zero column, which no count reads.  With
    e = min(i+W-1, M), message i holds W I = C[e] - C[i-1] from i = W on,
    and W I = (C[e] - W H[i-1]) + (W H[W-1] - C[W-1]) before; from
    i = M - W + 2 on, C[e] is the row C[M].  The kernel compares W I with
    W (R +- d).  Let u = 2**-53 and S be the largest |cap[1]| + ... +
    |cap[M]| of the trials.  A computed prefix sum is within gamma_M S of
    its exact value, gamma_M = M u / (1 - M u) (Higham, Accuracy and
    Stability of Numerical Algorithms, 4.2, its divisions included), and
    each further operation adds u times its result, at most (W + 1) S.  So
    the exact rule's information is within (2 gamma_M + 2u) S of I, and
    the estimate within (4 gamma_M + 7u) S.  T is S as computed: the
    largest C[M] if no capacity is negative, else the largest sum of
    |cap|; either way T >= (1 - gamma_M) S.  So d = 16 (M + 1) u T is at
    least twice their sum; the rest covers the rounding of d and W (R +- d)
    where a message comes near them (only an I of at most about S can).  So
    a message estimated above W (R + d) decodes under the exact rule, one
    below W (R - d) does not, and the trials with a message in between are
    decided by the exact rule itself: each count is the exact rule's, bit
    for bit.  A T that is not finite leaves no message above or below the
    band, so every trial takes the exact rule.  A lone window takes
    this route too, as the presets run it for less: against the exact rule
    alone it costs 0.72 times as much in fig5a's 327 x 50 chunks at W = 10,
    0.48 at 4096 x 4 with W = 2, 0.79-0.85 at 8 x 2000 up to W = 200 and
    1.03 at W = 50 of one trial of 10^4 blocks, but 1.09 at W = M = 50,
    1.1-1.5 at W = 1000-2000 of M = 2000, 1.7 at W = M = 10^4 in one trial
    and 2.4 at 1 x 1; fig4's eleven windows, each alone in the 8 x 2000
    chunks of workers = 1, cost 0.93 times as much in sum.  Two windows cost
    0.44-0.62 times as much, and fig4's eleven 0.24 times as much in its
    group's 32-trial chunks at M = 2000 and 0.38 in 8-trial ones (M = 50:
    0.30-0.36 in 1310- to 327-trial chunks; 2-vCPU 2.1 GHz Xeon, AVX-512
    numpy 2.4).
    """
    trials, m_total = caps.shape
    for window in windows if np.ndim(windows) == 1 else ():
        _check_count("window", window)
    if np.ndim(windows) != 1 or not all(w <= m_total for w in windows):
        raise ValueError("windows must be a 1-D sequence of ints in [1, M]")
    counts = np.empty((len(windows), trials), dtype=np.int64)
    if not len(windows):
        return counts
    width = trials if trials == 1 else trials + trials % 2
    top = max(windows)
    csum = _aligned_empty((m_total + 1, width))
    csum[0] = 0.0
    csum[1:, :trials] = caps.T
    csum[1:, trials:] = 0.0
    hsum = _aligned_empty((top, width))
    hsum[0] = 0.0
    np.divide(csum[1:top], np.arange(1.0, top)[:, None], out=hsum[1:])
    for sums in (csum, hsum):
        lanes = sums if width == 1 else sums.view(np.complex128)
        np.cumsum(lanes, axis=0, out=lanes)
    last = csum[m_total]
    total = last[:trials] if caps.min(initial=0.0) >= 0.0 else np.abs(caps).sum(axis=1)
    margin = 16.0 * (m_total + 1) * 2.0**-53 * total.max(initial=0.0)
    info = _aligned_empty((m_total, width))
    mask = np.empty((m_total, width), dtype=bool)
    for row, w in zip(counts, windows):
        full = m_total - w + 1  # messages 1..full end their window by M
        head = info[: w - 1]
        np.multiply(hsum[: w - 1], w, out=head)
        if w - 1 <= full:  # every message before W is one of them
            np.subtract(csum[w : 2 * w - 1], head, out=head)
            np.subtract(csum[2 * w - 1 :], csum[w - 1 : full], out=info[w - 1 : full])
            np.subtract(last, csum[full:m_total], out=info[full:])
        else:  # none from W on is
            np.subtract(csum[w:], head[:full], out=head[:full])
            np.subtract(last, head[full:], out=head[full:])
            np.subtract(last, csum[w - 1 : m_total], out=info[w - 1 :])
        head += w * hsum[w - 1] - csum[w - 1]
        row[:] = _column_counts(np.greater(info, w * (rate_r + margin), out=mask))[:trials]
        # a trial's messages not below R - d are M minus those below; where
        # they are as many as its messages above R + d, none lies in the band
        # between (a zero column, left out of row, can only add to the first
        # total)
        below = np.less(info, w * (rate_r - margin), out=mask)
        if width * m_total - np.count_nonzero(below) != row.sum():
            near = np.flatnonzero(m_total - _column_counts(below)[:trials] != row)
            row[near] = _gts_exact_counts(caps[near], rate_r, w)
    return counts


# relative margin of st_counts' pruning test: far above the rounding of a
# key or a bound (a few ulps of the row-0 key times log2 M), far below any
# gap between keys that decides a count
_ST_MARGIN = 1e-9


def _st_step(m_total: int) -> int:
    """Spacing B of the rows that st_counts evaluates for every trial.

    Those rows cost about M^2 / (2B) block terms per trial, and the rows
    that their bounds leave in between grow with B; sqrt(M) balances the
    two (measured: within noise from B = 7 to 14 at M = 100 and from 32 to
    45 at M = 2000).  At M <= 2, B = 1 and there are no rows in between.
    """
    return round(m_total**0.5)


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
    best candidate clears i * R, subtracts it, and restarts.  A subset's
    capacity is sum_t log2(1 + phi_t S_t / (1 + phi_t N_t)), with S_t its
    power in block t and N_t that of the other undecoded messages, treated
    as noise.  Under the equal power split the best candidate is the i
    earliest undecoded messages (each block term grows as a member index is
    lowered; it is also the lexicographic tie-break), and with s decoded,
    messages s+1..M decode jointly at H[s] = sum_t log2(1 + phi_t (P/t)
    max(t - s, 0)).  By the chain rule the earliest size-i run decodes iff
    K[s+i] <= K[s] for K[j] = H[j] + j R, so decoding jumps along the running
    minima of K, and the count is the last index attaining the minimum.

    Row j of K sums only the blocks t > j, the others being zero terms, and
    is built only for the trials that need it, so memory is O(trials x M).
    Every row goes through one evaluator, log_sums, whatever the set of
    trials, so its key has the same bits whichever rows are skipped.  Each
    evaluated row's log sum goes into one (M + 1) x trials profile, +inf
    on the rows skipped, and the count is the last argmin of its keys.

    First the rows 0, B, 2B, ... (B = _st_step(M)), which keep only what
    pruning needs: each trial's running minimum and the rows' log sums.  A
    trial stops there once j R exceeds its running minimum: the log sum is
    >= 0, and adding a non-negative term to j R cannot round below j R, so
    K[j] and every later row are >= j R and can never move its minimum
    again.  Then the rows between two of them, lo and hi = lo + B.  Each
    block term log2(1 + a_t max(t - j, 0)), a_t = phi_t P / t, is concave
    in j on [lo, t], so on a row lo < j < hi (_st_bracket_bound)
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

    def log_sums(pick, j):
        """Natural-log sum of row j for the trials `pick`, an index array (a
        slice would be a view of per_message, which the products overwrite)."""
        terms = per_message[pick, j:]  # the blocks t > j, times t - j
        terms *= t[: m_total - j]
        return np.log1p(terms, out=terms).sum(axis=1)

    step = _st_step(m_total)
    coarse = range(0, m_total + 1, step)
    running = np.arange(trials)  # trials still scanning
    # log sums of the rows 0, B, 2B, ...; 0.0 where not evaluated, as in the
    # last column, row len(coarse) * B > M
    sums = np.zeros((trials, len(coarse) + 1))
    sums[:, 0] = log_sums(running, 0)
    minimum = sums[:, 0] / LN2  # key row 0
    evaluated = [running]  # the trials that evaluated each of the rows 0, B, 2B, ...
    for row, j in enumerate(coarse[1:], 1):
        going = rate_r * j <= minimum[running]
        if not going.all():
            running = running[going]
            if running.size == 0:
                break
        evaluated.append(running)
        sums[running, row] = log_sums(running, j)
        minimum[running] = np.minimum(minimum[running], sums[running, row] / LN2 + rate_r * j)
    weights = _st_bound_weights(step)
    limit = minimum + _ST_MARGIN * (sums[:, 0] / LN2 + minimum)
    keys = np.full((m_total + 1, trials), np.inf)  # the profile of log sums
    for row, alive in enumerate(evaluated):
        lo = coarse[row]
        keys[lo, alive] = sums[alive, row]
        width = min(step - 1, m_total - lo)
        gains = per_message[alive, lo : lo + width]  # the blocks lo < t <= lo + width
        bound = _st_bracket_bound(gains, sums[alive, row], sums[alive, row + 1], lo, weights, rate_r)
        needed = bound <= limit[alive]
        for v in np.flatnonzero(needed.any(axis=1)):
            pick = alive[needed[v]]
            keys[lo + v + 1, pick] = log_sums(pick, lo + v + 1)
    keys /= LN2
    keys[1:] += rate_r * t[:, None]  # the keys, j R added to row j
    return m_total - np.argmin(keys[::-1], axis=0)
