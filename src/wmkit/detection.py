"""Watermark detection: pivot extraction from text and the statistical tests.

Scores are folded pivots: a green token contributes its keyed uniform
``zeta``, a red token contributes ``1 - zeta``.  Under the null (text
independent of the key) every score is U[0,1]; under the watermark both
kinds are stochastically small.  Tests: the sum of scores against its
exact Irwin-Hall null at every n, the order-statistic max test with its
closed-form threshold, and higher criticism (HC* and the HC+
restriction) against a simulated null quantile, since its null law has
no closed form.  The baseline schemes' own tests, the Gumbel score sum
and the green-token count, are statistics of :func:`detect` too.
"""

from __future__ import annotations

import enum
import itertools
import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import _BLOCK_ELEMENTS, GeneratedText, _block_rows, counter_uniforms
from .keying import (
    ZETA_TAG,
    WatermarkKey,
    derive_seed_batch,
    derive_zeta,
    derive_zeta_batch,
    is_green,
    is_green_batch,
)

__all__ = [
    "Statistic",
    "HcDenom",
    "Side",
    "DetectionReport",
    "extract_scores",
    "extract_zeta_primes_batch",
    "irwin_hall_cdf",
    "sum_pvalue",
    "sum_test",
    "hc_statistic",
    "hc_batch",
    "RowStream",
    "max_test",
    "calibrate_null",
    "default_cache_dir",
    "detect",
    "TooShort",
    "EmptyScores",
    "TooFewScores",
    "OutOfRange",
]

class TooShort(ValueError):
    """Raised when a text has no full context window to score."""


class EmptyScores(ValueError):
    """Raised when a test receives no scores."""


class TooFewScores(ValueError):
    """Raised when a test needs more scores than provided."""


class OutOfRange(ValueError):
    """Raised for arguments outside a function's supported domain."""


class Statistic(str, enum.Enum):
    SUM = "sum"
    HC_PLUS = "hc+"
    HC_STAR = "hc*"
    MAX = "max"
    GUMBEL_SUM = "gumbel-sum"
    GREEN_COUNT = "green-count"


class HcDenom(str, enum.Enum):
    # sqrt(x(1-x)) standardizes the empirical process (the default);
    # x(1-x) is kept selectable for ablation.
    STANDARD_SQRT = "sqrt"
    PAPER_LINEAR = "linear"


class Side(str, enum.Enum):
    COMBINED = "combined"
    GREEN_ONLY = "green"


@dataclass(frozen=True)
class DetectionReport:
    """Outcome of one test; either a p-value or a calibrated threshold
    drives the decision, never both."""

    statistic: Statistic
    value: float
    p_value: float | None
    threshold: float | None
    n_scored: int
    reject: bool
    alpha: float


def _check_tokens(tokens: tuple[int, ...], vocab_size: int | None) -> None:
    """Raise :class:`OutOfRange` for a token outside [0, vocab_size), or,
    when vocab_size is unknown, outside [0, 2**63): every array path holds
    tokens as int64."""
    lo, hi = min(tokens, default=0), max(tokens, default=0)
    if lo < 0 or hi >= (1 << 63 if vocab_size is None else vocab_size):
        top = "vocab_size" if vocab_size is None else vocab_size
        raise OutOfRange(f"token {lo if lo < 0 else hi} outside [0, {top})")


def _first_occurrences(
    tokens: tuple[int, ...], k: int, vocab_size: int | None
) -> list[tuple[int, ...]]:
    """The (context..., token) tuples of the received tokens, from the first
    full context window, each kept at its first occurrence and in that
    order.  Tokens are checked by :func:`_check_tokens`."""
    if len(tokens) <= k:
        raise TooShort(f"text of length {len(tokens)} has no scorable position for k={k}")
    _check_tokens(tokens, vocab_size)
    # Zipping k + 1 shifted slices yields the windows tokens[t - k : t + 1],
    # t >= k, in half the time of slicing each one.
    return list(dict.fromkeys(zip(*(tokens[i:] for i in range(k + 1)))))


def _first_tuples(
    tokens: tuple[int, ...], k: int, vocab_size: int | None
) -> tuple[np.ndarray, np.ndarray]:
    """The :func:`_first_occurrences` table as (n, k) contexts and (n,)
    tokens."""
    tuples = _first_occurrences(tokens, k, vocab_size)
    # fromiter over the flattened tuples takes about half the time of np.array.
    table = np.fromiter(itertools.chain.from_iterable(tuples), dtype=np.int64).reshape(-1, k + 1)
    return table[:, :k], table[:, k]


def extract_scores(
    text: GeneratedText, key: WatermarkKey, vocab_size: int | None = None
) -> list[tuple[float, bool]]:
    """(folded pivot, green) for each first occurrence of a (context, token)
    tuple: recompute the keyed pivot, test green membership, and fold red
    pivots to 1 - zeta."""
    k = key.k
    scores = []
    for row in _first_occurrences(text.tokens, k, vocab_size):
        ctx = row[:k]
        zeta = derive_zeta(key, ctx)
        green = is_green(key, ctx, row[k], vocab_size)
        scores.append((zeta if green else 1.0 - zeta, green))
    return scores


def extract_zeta_primes_batch(
    tokens_2d: np.ndarray, key: WatermarkKey, vocab_size: int | None = None
) -> list[np.ndarray]:
    """Folded pivots for a batch of equal-length texts (rows), in the order
    :func:`extract_scores` returns them: one per first occurrence of a
    (context, token) tuple.  Rows of any dtype but a numpy integer one (such
    as an object array of Python ints beyond int64) are read as a
    :class:`GeneratedText` is, and every row is checked before its int64
    conversion.

    Perm-mode membership ranks each token's keyed word within its row (see
    :func:`is_green_batch`), which needs ``vocab_size``.
    """
    rows = np.asarray(tokens_2d)
    out = []
    for row in rows.tolist():
        if rows.dtype.kind not in "iu":
            row = GeneratedText(row).tokens
        ctxs, toks = _first_tuples(tuple(row), key.k, vocab_size)
        zetas = derive_zeta_batch(key, ctxs)
        green = is_green_batch(key, ctxs, toks, vocab_size)
        out.append(np.where(green, zetas, 1.0 - zetas))
    return out


def irwin_hall_cdf(s: float, n: int) -> float:
    """Exact CDF at s of a sum of n i.i.d. U[0,1] variables, for every n >= 1.

    The smaller tail F_n(x), x = min(s, n - s), comes from the recursion
    F_j(y) = F_{j-1}(y - 1) + (y / j) (F_{j-1}(y) - F_{j-1}(y - 1)) on the
    points y = x - i, i <= floor(x), from F_1(y) = clip(y, 0, 1).  Each
    step mixes two nonnegative values with weight y / j (both are 1 where
    y > j), so nothing cancels: against rational arithmetic the tail is
    within 2e-15 relative at n <= 300, down to tails of 1e-30.  The y / j
    rows are built in blocks of about core._BLOCK_ELEMENTS entries.  A
    sum outside [0, n] or NaN, or an n below 1, raises :class:`OutOfRange`.
    """
    if not n >= 1:
        raise OutOfRange(f"n must be >= 1, got {n}")
    # A NaN sum fails the comparison too.
    if not 0.0 <= s <= n:
        raise OutOfRange(f"sum must lie in [0, {n}], got {s}")
    x = min(s, n - s)  # exact for s >= n / 2 (Sterbenz)
    y = x - np.arange(math.floor(x) + 1)
    # F on the points, then F(y - 1) = 0 for the point below 1; numpy
    # reads an input that overlaps the output as if it were copied.
    f = np.zeros(len(y) + 1)
    here, below = f[:-1], f[1:]
    np.clip(y, 0.0, 1.0, out=here)
    step = np.empty(len(y))
    ratios = np.empty((_block_rows(n - 1, len(y)), len(y)))
    for lo in range(2, n + 1, len(ratios)):
        rows = ratios[: min(len(ratios), n + 1 - lo)]
        np.divide(y, np.arange(lo, lo + len(rows), dtype=np.float64)[:, None], out=rows)
        for ratio in rows:
            np.subtract(here, below, step)
            np.multiply(step, ratio, step)
            np.add(step, below, here)
    return float(f[0]) if s <= n - s else 1.0 - float(f[0])


# The lower-tail p-value of the score sum is its exact null CDF.
sum_pvalue = irwin_hall_cdf


def _check_scores(values: np.ndarray) -> None:
    # A NaN fails both comparisons: min and max propagate it.
    if values.size and not (values.min() >= 0.0 and values.max() <= 1.0):
        raise OutOfRange("scores must lie in [0, 1], and none may be NaN")


def _check_alpha(alpha: float) -> None:
    # A NaN level fails the comparison too.
    if not 0.0 < alpha < 1.0:
        raise OutOfRange(f"alpha must lie in (0, 1), got {alpha}")


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise OutOfRange(f"seed must be >= 0, got {seed}")


def _check_null(alpha: float, reps: int, seed: int) -> None:
    """The settings of a simulated null, in order: reps, alpha, tail, seed."""
    if reps < 1000:
        raise OutOfRange(f"reps must be >= 1000, got {reps}")
    _check_alpha(alpha)
    # A threshold set by a simulated null rests on the alpha * reps draws in
    # its rejection tail.  With fewer than 10 its size is far above alpha:
    # hc+ at n = 100, alpha = 1e-6 and 1000 reps rejects 1.3e-3 of nulls.
    if alpha * reps < 10:
        raise OutOfRange(
            f"alpha * reps must be >= 10 for a simulated threshold, got {alpha} * {reps}"
        )
    _check_seed(seed)


def sum_test(scores, alpha: float = 0.01) -> DetectionReport:
    """Reject when the score sum is too small: the watermark pulls folded
    pivots toward 0, so the signal sits in the lower tail."""
    _check_alpha(alpha)
    values = np.asarray(scores, dtype=np.float64)
    n = len(values)
    if n < 1:
        raise EmptyScores("sum test needs at least one score")
    _check_scores(values)
    s = float(values.sum())
    return _p_value_report(Statistic.SUM, s, sum_pvalue(s, n), n, alpha)


def _p_value_report(statistic: Statistic, value: float, p: float, n: int, alpha: float):
    """The report of a test whose p-value drives the decision."""
    return DetectionReport(statistic=statistic, value=value, p_value=p, threshold=None,
                           n_scored=n, reject=p < alpha, alpha=alpha)


# HC rows of at least _HC_PRUNE_FROM scores are scored through value buckets
# of about _HC_BUCKET_SCORES scores each; shorter rows are sorted and scored
# whole, which is faster there because nearly every bucket survives (on 2
# Xeon vCPUs the two cost the same per null score near m = 2500, and the
# buckets were 3x slower at m = 64 and 10% faster at m = 4096).
_HC_PRUNE_FROM = 4096
_HC_BUCKET_SCORES = 16
# Scores per block of the whole-row path (m < _HC_PRUNE_FROM): a worker's
# three float64 buffers take 1.5 MiB and stay in a 2 MiB L2 cache.  On 2
# shared Xeon vCPUs (2 MiB L2 each), the median of 60 (2000, 299) nulls on
# two threads was 7.3 ms in blocks of 2**18 scores (6 MiB of buffers per
# worker), 5.9 ms in blocks of 2**15 and 5.3 ms in blocks of 2**16.  The
# bucketed path keeps blocks of core._BLOCK_ELEMENTS.
_HC_ROW_BLOCK = 1 << 16
# A call of fewer scores runs on this thread.  On the same vCPUs, in runs
# of 30 to 60 nulls per shape, two threads had the higher median time in 12
# of 15 runs below 2**19 scores, and the lower one in 3 of 4 runs at
# (2000, 299) and in every run from (2000, 1000) up.
_HC_INLINE_BELOW = 1 << 19
# Slack of the bucket bounds, relative to the best lower bound plus 1: far
# above their few ulps of rounding.
_HC_MARGIN = 1e-12

_HC_STATISTICS = (Statistic.HC_PLUS, Statistic.HC_STAR)


def _hc_variant(variant) -> Statistic:
    variant = Statistic(variant)
    if variant not in _HC_STATISTICS:
        raise ValueError(f"variant must be hc+ or hc*, got {variant.value}")
    return variant


class RowStream:
    """A (reps, m) matrix of U[0,1) scores that is drawn block by block, so
    that :func:`hc_batch` draws and scores each block in its own buffer
    instead of holding the whole matrix.

    Row r is draws r * m .. (r + 1) * m - 1 of the PCG64 stream seeded with
    ``entropy`` (the stream of ``np.random.default_rng(entropy)``).
    ``transform(x, lo)``, when given, changes the drawn rows x, which start
    at row lo, in place.
    """

    def __init__(self, entropy, shape, *, transform=None):
        self.entropy = [int(e) for e in entropy]
        self.shape = (int(shape[0]), int(shape[1]))
        self.size = self.shape[0] * self.shape[1]
        self.transform = transform

    def fill(self, lo: int, hi: int, out: np.ndarray) -> None:
        """Draw rows lo..hi-1 into ``out``, a C-contiguous (hi - lo, m)
        float64 array, from a fresh generator advanced to row lo: each block
        is drawn on its own, in any thread."""
        bits = np.random.PCG64(self.entropy).advance(lo * self.shape[1])
        np.random.Generator(bits).random(out=out)
        if self.transform is not None:
            self.transform(out, lo)


def _hc_sd(s, denom: HcDenom, x=None, scratch=None) -> np.ndarray:
    """The HC denominator at scores s clipped to [1e-12, 1 - 1e-12]:
    sqrt(s (1 - s)), or s (1 - s) for the linear one, written to x."""
    if x is None:
        x, scratch = np.empty(np.shape(s)), np.empty(np.shape(s))
    np.clip(s, 1e-12, 1.0 - 1e-12, out=x)
    np.subtract(1.0, x, out=scratch)
    np.multiply(x, scratch, out=x)
    if denom is HcDenom.STANDARD_SQRT:
        np.sqrt(x, out=x)
    return x


def _hc_terms(s, t, m: int, variant: Statistic, denom: HcDenom, x=None, hc=None) -> np.ndarray:
    """HC terms sqrt(m) (t - s) / sd(s) of scores s at rank fractions t,
    written to hc with x as scratch (both allocated when not given).  Every
    term takes these steps in this order, so its bits depend on its
    (rank, score) pair alone."""
    if x is None:
        x, hc = np.empty(np.shape(s)), np.empty(np.shape(s))
    _hc_sd(s, denom, x, hc)
    np.subtract(t, s, out=hc)
    np.multiply(hc, math.sqrt(m), out=hc)
    np.divide(hc, x, out=hc)
    if variant is Statistic.HC_PLUS:
        # The + restriction is on the unclipped scores.
        np.copyto(hc, -np.inf, where=s < 1.0 / m)
    return hc


def _hc_bucket_edges(m: int, buckets: int, denom: HcDenom) -> tuple:
    """(lo, lo_scale, hi, hi_scale) for the value buckets 0..buckets, where
    bucket b holds the scores s with floor(s * buckets) = b (the last bucket
    only s = 1.0): lo is at or below every score of its bucket, including
    one that rounds up into it, hi is at or above every one, and a scale is
    sqrt(m) / sd at its edge."""
    b = np.arange(buckets + 1)
    lo = b / buckets * (1.0 - 2.0**-50)
    hi = (b + 1) / buckets
    return lo, math.sqrt(m) / _hc_sd(lo, denom), hi, math.sqrt(m) / _hc_sd(hi, denom)


def _hc_candidates(s: np.ndarray, idx: np.ndarray, edges: tuple):
    """The scores of a (rows, m) block that can hold their row's HC
    maximum: (scores, ranks, row_starts), with each row's scores sorted and
    given their 1-based rank in the row, and row_starts the index of each
    row's first one.  ``idx`` is a scratch intp array shaped like ``s``.

    Each term sqrt(m) (i/m - u) / sd(u) rises with the rank i and falls with
    the score u, under either denominator and its clip.  So within the
    bucket whose last rank is C, no term exceeds the one at (C, lo), and the
    score at rank C has a term at least the one at (C, hi).  Buckets whose
    upper bound is below the row's best lower bound, less a margin for
    rounding, cannot hold the maximum and are left out.  The bounds leave
    out the + restriction: an upper bound holds for HC+ as well, and a
    lower bound is used only past bucket 0, which holds every score below
    1/m.  Kept buckets are whole, so each kept score's rank is the count
    before its bucket plus its place in it, and its term has the bits it has
    in the whole sorted row.
    """
    rows, m = s.shape
    lo, lo_scale, hi, hi_scale = edges
    width = len(lo)
    # Bucket floor(s * buckets) of each score (the cast truncates), offset
    # by its row, so that one bincount counts every row of the block.
    np.multiply(s, width - 1, out=idx, casting="unsafe")
    idx += np.arange(0, rows * width, width)[:, None]
    counts = np.bincount(idx.ravel(), minlength=rows * width).reshape(rows, width)
    last = counts.cumsum(axis=1)
    t = last / m
    lower = (t - hi) * hi_scale
    # Only a rank past bucket 0 is sure to hold a score that HC+ counts.
    np.copyto(lower, -np.inf, where=last <= last[:, :1])
    best = lower.max(axis=1, keepdims=True)
    keep = (t - lo) * lo_scale >= best - _HC_MARGIN * (np.abs(best) + 1.0)
    scores = s[keep.ravel()[idx]]
    sizes = counts[keep]
    row_ends = (counts * keep).sum(axis=1).cumsum()
    row_starts = np.concatenate(([0], row_ends[:-1]))
    for a, e in zip(row_starts.tolist(), row_ends.tolist()):
        scores[a:e].sort()
    firsts = sizes.cumsum() - sizes
    ranks = np.arange(1, len(scores) + 1) + np.repeat((last - counts)[keep] - firsts, sizes)
    return scores, ranks, row_starts


def _hc_blocks(rows, variant: Statistic, denom: HcDenom) -> np.ndarray:
    """HC of each row of a (reps, m) score matrix or :class:`RowStream`, one
    block of rows at a time.

    Each block is copied (or drawn) into a float64 buffer.  Rows of at least
    _HC_PRUNE_FROM scores are bucketed by value and only the buckets that
    can hold the row's maximum are sorted and scored (see
    :func:`_hc_candidates`); shorter rows are sorted and scored whole.
    Every term takes the same steps (:func:`_hc_terms`), so a row's value
    is the whole sorted row's, bit for bit, and depends on that row alone:
    not on the block size, nor on how many threads run the blocks.  Blocks
    are shared out over the CPUs this process may use (numpy releases the
    GIL in drawing, sort and ufuncs); a call of one block, or of fewer than
    _HC_INLINE_BELOW scores, runs inline.  Array scores must lie in [0, 1].
    """
    reps, m = rows.shape
    if m < 2:
        raise TooFewScores("higher criticism needs at least two scores per row")
    if isinstance(rows, RowStream):
        fill = rows.fill
    else:
        _check_scores(rows)

        def fill(lo: int, hi: int, out: np.ndarray) -> None:
            np.copyto(out, rows[lo:hi])

    out = np.empty(reps)
    pruned = m >= _HC_PRUNE_FROM
    block = _block_rows(reps, m, _BLOCK_ELEMENTS if pruned else _HC_ROW_BLOCK)
    starts = range(0, reps, block)
    if pruned:
        edges = _hc_bucket_edges(m, m // _HC_BUCKET_SCORES, denom)
    else:
        t = np.arange(1, m + 1, dtype=np.float64) / m
    workers = 1
    if reps * m >= _HC_INLINE_BELOW:
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
        workers = max(1, min(len(starts), cpus))

    # Each worker's block buffers are allocated on this thread: allocated on
    # the workers, they stayed in the workers' malloc arenas, and a process
    # that ran a CLI corpus loop twelve times (three cold calibrations each)
    # peaked about 4 MB higher in RSS.
    def block_buffers() -> list[np.ndarray]:
        if pruned:
            return [np.empty((block, m)), np.empty((block, m), dtype=np.intp)]
        return [np.empty((block, m)), np.empty((block, m)), np.empty((block, m))]

    buffers = [block_buffers() for _ in range(workers)]

    def run(first: int) -> None:
        # Blocks first, first + workers, ...; each writes its own slice of out.
        s_buf, *scratch = buffers[first]
        for lo in starts[first::workers]:
            hi = min(lo + block, reps)
            s = s_buf[: hi - lo]
            fill(lo, hi, s)
            if pruned:
                scores, ranks, row_starts = _hc_candidates(s, scratch[0][: hi - lo], edges)
                hc = _hc_terms(scores, ranks / m, m, variant, denom)
                np.maximum.reduceat(hc, row_starts, out=out[lo:hi])
            else:
                s.sort(axis=1)
                hc = _hc_terms(s, t, m, variant, denom, *(buf[: hi - lo] for buf in scratch))
                hc.max(axis=1, out=out[lo:hi])

    if workers == 1:
        run(0)
    else:
        with ThreadPoolExecutor(workers) as pool:
            list(pool.map(run, range(workers)))
    return out


def hc_statistic(
    scores,
    variant: Statistic = Statistic.HC_PLUS,
    denom: HcDenom = HcDenom.STANDARD_SQRT,
) -> float:
    """Higher-criticism statistic: the maximum standardized gap between the
    empirical CDF of the scores and the uniform CDF.

    The + variant maximizes only over order statistics >= 1/n, which tames
    the heavy null tail; with no eligible order statistic it returns -inf
    (never rejects).  A score that is NaN or outside [0, 1] raises
    :class:`OutOfRange`.
    """
    values = np.asarray(scores, dtype=np.float64)
    return float(_hc_blocks(values[None, :], _hc_variant(variant), HcDenom(denom))[0])


def hc_batch(
    rows: np.ndarray,
    variant: Statistic = Statistic.HC_PLUS,
    denom: HcDenom = HcDenom.STANDARD_SQRT,
) -> np.ndarray:
    """Row-wise :func:`hc_statistic` for a (reps, m) matrix of scores,
    computed in float64; ``rows`` is not modified, and its scores must lie
    in [0, 1].  A :class:`RowStream` is drawn block by block inside the
    kernel and never held whole."""
    if not isinstance(rows, RowStream):
        rows = np.asarray(rows)
    return _hc_blocks(rows, _hc_variant(variant), HcDenom(denom))


def max_test(scores, alpha: float = 0.01) -> DetectionReport:
    """Order-statistic test on green pivots: reject iff max zeta <=
    alpha**(1/n), which has exact size alpha under the null.  The reported
    p-value max**n is informational; the threshold drives the decision."""
    _check_alpha(alpha)
    values = np.asarray(scores, dtype=np.float64)
    n = len(values)
    if n < 1:
        raise EmptyScores("max test needs at least one score")
    _check_scores(values)
    mx = float(values.max())
    threshold = alpha ** (1.0 / n)
    return DetectionReport(
        statistic=Statistic.MAX,
        value=mx,
        p_value=mx**n,
        threshold=threshold,
        n_scored=n,
        reject=mx <= threshold,
        alpha=alpha,
    )


# The statistics that read each setting of detect.  None means not given: a
# statistic takes the default of a setting it reads and refuses one it does
# not read.
_READS = {"side": (Statistic.SUM, *_HC_STATISTICS), "denom": _HC_STATISTICS,
          "reps": _HC_STATISTICS, "seed": _HC_STATISTICS}


def _critical_value(statistic: Statistic, null_values: np.ndarray, alpha: float) -> float:
    """The 1 - alpha quantile of an HC statistic's simulated null; HC
    rejects strictly above it.  A quantile that is not finite, as among HC+
    values of -inf (rows with no score >= 1/n), is refused."""
    with np.errstate(invalid="ignore"):
        q = np.quantile(null_values, 1.0 - alpha)
    if not np.isfinite(q):
        raise OutOfRange(f"the simulated {statistic.value} null has no finite critical value "
                         f"at alpha {alpha}")
    return float(q)


_STAT_CODE = {s: i for i, s in enumerate(Statistic)}
_CACHE_FILE = "calibrations.csv"
_CACHE_HEADER = "statistic,n,alpha,reps,seed,critical_value"


def default_cache_dir() -> Path:
    """Calibration cache location; WMKIT_CALIB_DIR overrides the default."""
    env = os.environ.get("WMKIT_CALIB_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "wmkit"


def _null_statistics(
    statistic: Statistic, n: int, reps: int, seed: int, denom: HcDenom
) -> np.ndarray:
    rows = RowStream((_STAT_CODE[statistic], n, reps, seed), (reps, n))
    return hc_batch(rows, statistic, denom)


def _parse_cache_row(line: str) -> tuple | None:
    # (statistic, n, alpha, reps, seed, critical_value), or None for a row
    # that does not parse or whose critical value is not finite.
    parts = line.split(",")
    if len(parts) != 6:
        return None
    try:
        n, alpha, reps, seed, critical = (
            int(parts[1]), float(parts[2]), int(parts[3]), int(parts[4]), float(parts[5])
        )
    except ValueError:
        return None
    return (parts[0], n, alpha, reps, seed, critical) if math.isfinite(critical) else None


def _cache_lookup(path: Path, statistic, n, alpha, reps, seed, denom) -> float | None:
    if not path.exists():
        return None
    # The statistic field carries the denominator ("hc+:sqrt"): a row
    # written without one ("hc+") never matches and is never reused.
    key = (f"{statistic.value}:{denom.value}", n, alpha, reps, seed)
    hit, malformed = None, False
    for line in path.read_text().splitlines()[1:]:
        row = _parse_cache_row(line)
        if row is None:
            malformed = malformed or bool(line.strip())
        elif row[:5] == key:
            hit = row[5]
            break
    if malformed:
        # The default warning filter prints this once per cache file.
        warnings.warn(f"ignoring malformed rows in calibration cache {path}", stacklevel=2)
    return hit


def _cache_append(path: Path, statistic, n, alpha, reps, seed, denom, critical_value) -> None:
    # Safe across processes: a new file appears with its header and first
    # row already in it (a hard link to a finished temporary file, which
    # fails if another process made the file first), and every other row is
    # one O_APPEND write, so concurrent writers never interleave or
    # overwrite rows.
    path.parent.mkdir(parents=True, exist_ok=True)
    line = f"{statistic.value}:{denom.value},{n},{alpha!r},{reps},{seed},{critical_value!r}\n"
    if not path.exists():
        tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}")
        with open(tmp, "x") as fh:
            fh.write(_CACHE_HEADER + "\n" + line)
        try:
            os.link(tmp, path)
            return
        except FileExistsError:
            pass  # another process made the file first
        finally:
            os.unlink(tmp)
    fd = os.open(path, os.O_WRONLY | os.O_APPEND)
    try:
        os.write(fd, line.encode())
    finally:
        os.close(fd)


def _check_calibration(statistic: Statistic, n: int, alpha: float, reps: int, seed: int) -> None:
    """The refusals of :func:`calibrate_null` before any cache lookup or
    draw."""
    if statistic not in _HC_STATISTICS:
        raise ValueError(f"no simulated null for the {statistic.value} statistic: "
                         "only hc+ and hc* are calibrated")
    _check_null(alpha, reps, seed)
    if n < 2:
        raise OutOfRange(f"calibration of {statistic.value} needs n >= 2, got {n}")


def calibrate_null(
    statistic: Statistic,
    n: int,
    alpha: float,
    reps: int = 2000,
    seed: int = 0,
    denom: HcDenom | None = None,
    cache_dir: Path | str | None = None,
) -> float:
    """Empirical critical value of HC+ or HC* over ``reps`` null
    simulations of n i.i.d. U[0,1] scores: their (1 - alpha) quantile.
    HC is the one statistic with no closed-form null law; the sum and max
    tests use their exact laws, and asking for either raises ValueError.

    Results are cached in a CSV keyed by (statistic, denominator, n, alpha,
    reps, seed), the denominator defaulting to sqrt.  It needs n >= 2 and
    alpha * reps >= 10.
    """
    statistic = Statistic(statistic)
    _check_calibration(statistic, n, alpha, reps, seed)
    denom = HcDenom.STANDARD_SQRT if denom is None else HcDenom(denom)
    cache_path = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    cache_path = cache_path / _CACHE_FILE
    hit = _cache_lookup(cache_path, statistic, n, alpha, reps, seed, denom)
    if hit is not None:
        return hit
    critical = _critical_value(statistic, _null_statistics(statistic, n, reps, seed, denom), alpha)
    _cache_append(cache_path, statistic, n, alpha, reps, seed, denom, critical)
    return critical


def _detect_settings(statistic: Statistic, alpha: float, side, denom, reps, seed, labels=None):
    """The refusals of :func:`detect` before it reads a text, then side,
    denom, reps and seed with their defaults filled in.  A setting given
    that the statistic does not read is refused, named by ``labels`` (as
    the CLI names it) when given."""
    given = {"side": side, "denom": denom, "reps": reps, "seed": seed}
    for name, value in given.items():
        if value is not None and statistic not in _READS[name]:
            label = name if labels is None else labels[name]
            raise ValueError(f"{label} does not apply to the {statistic.value} statistic")
    side = Side.COMBINED if side is None else Side(side)
    denom = HcDenom.STANDARD_SQRT if denom is None else HcDenom(denom)
    reps, seed = 2000 if reps is None else reps, 0 if seed is None else seed
    _check_alpha(alpha)
    if statistic in _HC_STATISTICS:  # the other tests are exact
        _check_null(alpha, reps, seed)
    return side, denom, reps, seed


def _baseline_test(text, key: WatermarkKey, statistic: Statistic, alpha: float, vocab_size):
    """The baseline schemes' own tests over the first-occurrence tuples.
    GUMBEL_SUM: the sum of -log(1 - U_token) against the Gamma(n, 1) upper
    tail.  GREEN_COUNT: the green-token count against the exact
    Binomial(n, gamma) upper tail under the key's green lists (DiPmark's
    is the keyed permutation's head: count it under a perm-mode key)."""
    ctxs, toks = _first_tuples(text.tokens, key.k, vocab_size)
    n = len(toks)
    if statistic is Statistic.GUMBEL_SUM:
        # U_token is draw token + 1 of the context's ZETA stream.
        value = 0.0
        for u in counter_uniforms(derive_seed_batch(key, ctxs, ZETA_TAG), toks + 1).tolist():
            value -= math.log1p(-u)
        # The Gamma(n, 1) upper tail, as scipy.stats.gamma.sf evaluates it.
        from scipy.special import gammaincc

        p = float(gammaincc(n, value))
    else:
        g = int(is_green_batch(key, ctxs, toks, vocab_size).sum())
        # No scipy.special function matches binom.sf bit for bit, so this
        # path alone pays for importing scipy.stats.
        from scipy.stats import binom

        value, p = float(g), float(binom.sf(g - 1, n, key.gamma))
    return _p_value_report(statistic, value, p, n, alpha)


def detect(
    text: GeneratedText,
    key: WatermarkKey,
    statistic: Statistic = Statistic.SUM,
    alpha: float = 0.01,
    side: Side | None = None,
    vocab_size: int | None = None,
    denom: HcDenom | None = None,
    reps: int | None = None,
    seed: int | None = None,
) -> DetectionReport:
    """Extract scores and run the chosen test.

    SUM and HC read the side: COMBINED (the default) uses folded pivots from
    green and red tokens, GREEN_ONLY green tokens' raw pivots, which MAX
    always takes.  HC alone reads the denominator (default sqrt) and its
    calibration's reps (2000) and seed (0).  GUMBEL_SUM and GREEN_COUNT (see
    :func:`_baseline_test`) read none.  A setting not read is refused.
    """
    statistic = Statistic(statistic)
    side, denom, reps, seed = _detect_settings(statistic, alpha, side, denom, reps, seed)
    if statistic in (Statistic.GUMBEL_SUM, Statistic.GREEN_COUNT):
        return _baseline_test(text, key, statistic, alpha, vocab_size)
    scores = extract_scores(text, key, vocab_size)
    keep_red = side is Side.COMBINED and statistic is not Statistic.MAX
    values = np.array([z for z, green in scores if green or keep_red], dtype=np.float64)
    if statistic is Statistic.SUM:
        return sum_test(values, alpha)
    if statistic is Statistic.MAX:
        return max_test(values, alpha)
    value = hc_statistic(values, statistic, denom)
    critical = calibrate_null(statistic, len(values), alpha, reps=reps, seed=seed, denom=denom)
    return DetectionReport(
        statistic=statistic,
        value=value,
        p_value=None,
        threshold=critical,
        n_scored=len(values),
        reject=value > critical,
        alpha=alpha,
    )
