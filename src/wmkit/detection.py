"""Watermark detection: pivot extraction from text and the statistical tests.

Scores are folded pivots: a green token contributes its keyed uniform
``zeta``, a red token contributes ``1 - zeta``.  Under the null (text
independent of the key) every score is U[0,1]; under the watermark both
kinds are stochastically small.  Tests: the sum of scores against its
exact Irwin-Hall null (normal approximation for n >= 15), higher
criticism (HC* and the HC+ restriction) against a simulated null
quantile, and the order-statistic max test with its closed-form
threshold.  Baseline detectors for the Gumbel-max and green/red-count
schemes are included for comparisons.
"""

from __future__ import annotations

import enum
import itertools
import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .core import GeneratedText, counter_uniforms
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
    "detect_baseline",
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
    """Exact CDF of a sum of n i.i.d. U[0,1] variables, for n < 15."""
    if not 1 <= n < 15:
        raise OutOfRange(f"exact branch supports 1 <= n < 15, got {n}")
    if not 0.0 <= s <= n:
        raise OutOfRange(f"sum must lie in [0, {n}], got {s}")
    acc = 0.0
    for j in range(int(math.floor(s)) + 1):
        acc += (-1.0) ** j * math.comb(n, j) * (s - j) ** n
    return min(1.0, max(0.0, acc / math.factorial(n)))


def sum_pvalue(s: float, n: int) -> float:
    """Lower-tail p-value of the score sum: exact Irwin-Hall for n < 15,
    normal approximation with matching moments for n >= 15."""
    if n < 15:
        return irwin_hall_cdf(s, n)
    # Imported here so that importing wmkit loads no scipy; ndtr is the
    # standard normal CDF that scipy.stats.norm.cdf evaluates.
    from scipy.special import ndtr

    return float(ndtr((s - n / 2.0) / math.sqrt(n / 12.0)))


def _check_alpha(alpha: float) -> None:
    # A NaN level fails the comparison too.
    if not 0.0 < alpha < 1.0:
        raise OutOfRange(f"alpha must lie in (0, 1), got {alpha}")


def _check_reps(reps: int) -> None:
    if reps < 1000:
        raise OutOfRange(f"reps must be >= 1000, got {reps}")


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise OutOfRange(f"seed must be >= 0, got {seed}")


def _check_tail(alpha: float, reps: int) -> None:
    # A threshold set by a simulated null rests on the alpha * reps draws in
    # its rejection tail.  With fewer than 10 its size is far above alpha:
    # hc+ at n = 100, alpha = 1e-6 and 1000 reps rejects 1.3e-3 of nulls.
    if alpha * reps < 10:
        raise OutOfRange(
            f"alpha * reps must be >= 10 for a simulated threshold, got {alpha} * {reps}"
        )


def _check_detect_levels(statistic: Statistic, alpha: float, reps: int) -> None:
    # The sum and max tests are exact; only HC takes its threshold from reps
    # simulated nulls.
    _check_alpha(alpha)
    _check_reps(reps)
    if statistic in _HC_STATISTICS:
        _check_tail(alpha, reps)


def sum_test(scores, alpha: float = 0.01) -> DetectionReport:
    """Reject when the score sum is too small: the watermark pulls folded
    pivots toward 0, so the signal sits in the lower tail."""
    _check_alpha(alpha)
    values = np.asarray(scores, dtype=np.float64)
    n = len(values)
    if n < 1:
        raise EmptyScores("sum test needs at least one score")
    s = float(values.sum())
    p = sum_pvalue(s, n)
    return DetectionReport(
        statistic=Statistic.SUM,
        value=s,
        p_value=p,
        threshold=None,
        n_scored=n,
        reject=p < alpha,
        alpha=alpha,
    )


# Rows per block of drawn or scored rows: about 2**18 scores, so each of an
# HC block's two buffers (the scores, and their bucket indices) takes about
# 2 MiB whatever m is; rows too short to prune take two scoring buffers in
# place of the indices.  A calibration null of 2000 rows of about 300
# scores is then three blocks, so it runs on two threads.
_BLOCK_ELEMENTS = 1 << 18

# HC rows of at least _HC_PRUNE_FROM scores are scored through value buckets
# of about _HC_BUCKET_SCORES scores each; shorter rows are sorted and scored
# whole, which is faster there because nearly every bucket survives (on 2
# Xeon vCPUs the two cost the same per null score near m = 2500, and the
# buckets were 3x slower at m = 64 and 10% faster at m = 4096).
_HC_PRUNE_FROM = 4096
_HC_BUCKET_SCORES = 16
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
    at row lo, in place.  With a ``reduce`` ufunc, each filled row's
    reduction (``np.add``: its sum) is written to ``reduced`` before the
    row is scored.
    """

    def __init__(self, entropy, shape, *, transform=None, reduce=None):
        self.entropy = [int(e) for e in entropy]
        self.shape = (int(shape[0]), int(shape[1]))
        self.size = self.shape[0] * self.shape[1]
        self.transform = transform
        self.reduce = reduce
        self.reduced = None if reduce is None else np.empty(self.shape[0])

    def fill(self, lo: int, hi: int, out: np.ndarray) -> None:
        """Draw rows lo..hi-1 into ``out``, a C-contiguous (hi - lo, m)
        float64 array, from a fresh generator advanced to row lo: each block
        is drawn on its own, in any thread."""
        bits = np.random.PCG64(self.entropy).advance(lo * self.shape[1])
        np.random.Generator(bits).random(out=out)
        if self.transform is not None:
            self.transform(out, lo)
        if self.reduce is not None:
            self.reduce.reduce(out, axis=1, out=self.reduced[lo:hi])

    def __array__(self, dtype=None, copy=None):
        out = np.empty(self.shape)
        self.fill(0, self.shape[0], out)
        return out if dtype is None else out.astype(dtype, copy=False)


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
    GIL in drawing, sort and ufuncs); a call of one block runs inline.
    Array scores must lie in [0, 1].
    """
    reps, m = rows.shape
    if m < 2:
        raise TooFewScores("higher criticism needs at least two scores per row")
    if isinstance(rows, RowStream):
        fill = rows.fill
    else:
        # A NaN fails both comparisons: min and max propagate it.
        if rows.size and not (rows.min() >= 0.0 and rows.max() <= 1.0):
            raise OutOfRange("HC scores must lie in [0, 1], and none may be NaN")

        def fill(lo: int, hi: int, out: np.ndarray) -> None:
            np.copyto(out, rows[lo:hi])

    out = np.empty(reps)
    block = max(1, min(reps, _BLOCK_ELEMENTS // m))
    starts = range(0, reps, block)
    pruned = m >= _HC_PRUNE_FROM
    if pruned:
        edges = _hc_bucket_edges(m, m // _HC_BUCKET_SCORES, denom)
    else:
        t = np.arange(1, m + 1, dtype=np.float64) / m
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


_CALIBRATABLE = (Statistic.SUM, Statistic.HC_PLUS, Statistic.HC_STAR, Statistic.MAX)
_LOWER_TAIL = (Statistic.SUM, Statistic.MAX)


def _critical_value(statistic: Statistic, null_values: np.ndarray, alpha: float) -> float:
    """The null quantile at level alpha in the statistic's rejection tail:
    the alpha quantile for SUM and MAX, the 1 - alpha quantile for HC.  A
    quantile that is not finite, as among HC+ values of -inf (rows with no
    score >= 1/n), is refused."""
    with np.errstate(invalid="ignore"):
        q = np.quantile(null_values, alpha if statistic in _LOWER_TAIL else 1.0 - alpha)
    if not np.isfinite(q):
        raise OutOfRange(f"the simulated {statistic.value} null has no finite critical value "
                         f"at alpha {alpha}")
    return float(q)


def _rejects(statistic: Statistic, values, critical: float):
    """Rejection, elementwise: strictly beyond the critical value in the
    statistic's tail."""
    return values < critical if statistic in _LOWER_TAIL else values > critical


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
    rows = RowStream(
        (_STAT_CODE[statistic], n, reps, seed),
        (reps, n),
        reduce={Statistic.SUM: np.add, Statistic.MAX: np.maximum}.get(statistic),
    )
    if rows.reduce is None:
        return hc_batch(rows, statistic, denom)
    # Sum and max: blocks of about 2**18 scores on this thread, reduced by fill.
    buf = np.empty((max(1, min(reps, _BLOCK_ELEMENTS // n)), n))
    for lo in range(0, reps, len(buf)):
        hi = min(lo + len(buf), reps)
        rows.fill(lo, hi, buf[: hi - lo])
    return rows.reduced


def _cache_statistic(statistic: Statistic, denom: HcDenom) -> str:
    # The statistic field of a cache row.  Only the HC nulls depend on the
    # denominator, so HC rows carry it ("hc+:sqrt"); an HC row written
    # without one ("hc+") never matches and is never reused.
    if statistic in _HC_STATISTICS:
        return f"{statistic.value}:{denom.value}"
    return statistic.value


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
    key = (_cache_statistic(statistic, denom), n, alpha, reps, seed)
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
    stat = _cache_statistic(statistic, denom)
    line = f"{stat},{n},{alpha!r},{reps},{seed},{critical_value!r}\n"
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
    """The refusals of :func:`calibrate_null` before any cache lookup or draw."""
    if statistic not in _CALIBRATABLE:
        raise ValueError(f"no simulated null for statistic {statistic}")
    _check_reps(reps)
    _check_alpha(alpha)
    _check_tail(alpha, reps)
    _check_seed(seed)
    least = 2 if statistic in _HC_STATISTICS else 1
    if n < least:
        raise OutOfRange(f"calibration of {statistic.value} needs n >= {least}, got {n}")


def calibrate_null(
    statistic: Statistic,
    n: int,
    alpha: float,
    reps: int = 2000,
    seed: int = 0,
    denom: HcDenom = HcDenom.STANDARD_SQRT,
    cache_dir: Path | str | None = None,
) -> float:
    """Empirical critical value of a statistic over ``reps`` null simulations
    of n i.i.d. U[0,1] scores: the (1-alpha) quantile for upper-tail
    statistics (HC) and the alpha quantile for lower-tail ones (SUM, MAX).

    Results are cached in a CSV keyed by (statistic, n, alpha, reps, seed)
    and, for HC, the denominator.  HC needs n >= 2, and every statistic
    needs alpha * reps >= 10.
    """
    statistic = Statistic(statistic)
    denom = HcDenom(denom)
    _check_calibration(statistic, n, alpha, reps, seed)
    cache_path = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    cache_path = cache_path / _CACHE_FILE
    hit = _cache_lookup(cache_path, statistic, n, alpha, reps, seed, denom)
    if hit is not None:
        return hit
    critical = _critical_value(statistic, _null_statistics(statistic, n, reps, seed, denom), alpha)
    _cache_append(cache_path, statistic, n, alpha, reps, seed, denom, critical)
    return critical


def detect(
    text: GeneratedText,
    key: WatermarkKey,
    statistic: Statistic = Statistic.SUM,
    alpha: float = 0.01,
    side: Side = Side.COMBINED,
    vocab_size: int | None = None,
    denom: HcDenom = HcDenom.STANDARD_SQRT,
    reps: int = 2000,
    seed: int = 0,
    cache_dir: Path | str | None = None,
) -> DetectionReport:
    """Extract scores and run the chosen test.

    COMBINED uses folded pivots from green and red tokens; GREEN_ONLY
    restricts to green tokens' raw pivots (the max test always does).
    """
    statistic = Statistic(statistic)
    side = Side(side)
    _check_detect_levels(statistic, alpha, reps)
    scores = extract_scores(text, key, vocab_size)
    keep_red = side is Side.COMBINED and statistic is not Statistic.MAX
    values = np.array([z for z, green in scores if green or keep_red], dtype=np.float64)
    if statistic is Statistic.SUM:
        return sum_test(values, alpha)
    if statistic is Statistic.MAX:
        return max_test(values, alpha)
    value = hc_statistic(values, statistic, denom)
    critical = calibrate_null(
        statistic, len(values), alpha, reps=reps, seed=seed, denom=denom, cache_dir=cache_dir
    )
    return DetectionReport(
        statistic=statistic,
        value=value,
        p_value=None,
        threshold=critical,
        n_scored=len(values),
        reject=_rejects(statistic, value, critical),
        alpha=alpha,
    )


def detect_baseline(
    text: GeneratedText,
    key: WatermarkKey,
    scheme,
    alpha: float = 0.01,
    vocab_size: int | None = None,
) -> DetectionReport:
    """Reference detectors for the baseline schemes.

    Gumbel-max: sum of -log(1 - U_token) over deduplicated tuples against
    the Gamma(n, 1) upper tail.  Every other scheme: green-token count
    against the exact Binomial(n, gamma) upper tail.  DiPmark's green set is
    the keyed permutation's head under every key mode, as it generates.
    """
    from .decoders import Scheme

    _check_alpha(alpha)
    scheme = Scheme(scheme)
    ctxs, toks = _first_tuples(text.tokens, key.k, vocab_size)
    n = len(toks)
    if scheme is Scheme.GUMBEL:
        # U_token is draw token + 1 of the context's ZETA stream.
        value = 0.0
        for u in counter_uniforms(derive_seed_batch(key, ctxs, ZETA_TAG), toks + 1).tolist():
            value -= math.log1p(-u)
        # The Gamma(n, 1) upper tail, as scipy.stats.gamma.sf evaluates it.
        from scipy.special import gammaincc

        statistic, p = Statistic.GUMBEL_SUM, float(gammaincc(n, value))
    else:
        if scheme is Scheme.DIPMARK:
            key = replace(key, green_mode="perm")
        g = int(is_green_batch(key, ctxs, toks, vocab_size).sum())
        # No scipy.special function matches binom.sf bit for bit, so this
        # path alone pays for importing scipy.stats.
        from scipy.stats import binom

        statistic, value, p = Statistic.GREEN_COUNT, float(g), float(binom.sf(g - 1, n, key.gamma))
    return DetectionReport(
        statistic=statistic,
        value=value,
        p_value=p,
        threshold=None,
        n_scored=n,
        reject=p < alpha,
        alpha=alpha,
    )
