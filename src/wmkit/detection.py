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
    "ScoredToken",
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
class ScoredToken:
    """One detection observation: token, its context, and the folded pivot."""

    position: int
    token: int
    context: tuple[int, ...]
    is_green: bool
    zeta_prime: float


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
    """Raise :class:`OutOfRange` for a token outside [0, vocab_size), or a
    negative one when vocab_size is unknown."""
    lo, hi = min(tokens, default=0), max(tokens, default=0)
    if lo < 0 or (vocab_size is not None and hi >= vocab_size):
        top = "vocab_size" if vocab_size is None else vocab_size
        raise OutOfRange(f"token {lo if lo < 0 else hi} outside [0, {top})")


def _first_occurrences(tokens: tuple[int, ...], k: int, vocab_size: int | None) -> list[int]:
    """Positions whose (context, token) tuple has not been seen before,
    walking the received tokens from the first full context window.  Tokens
    are checked by :func:`_check_tokens`."""
    if len(tokens) <= k:
        raise TooShort(f"text of length {len(tokens)} has no scorable position for k={k}")
    _check_tokens(tokens, vocab_size)
    first: dict[tuple[int, ...], int] = {}
    for t in range(k, len(tokens)):
        first.setdefault(tokens[t - k : t + 1], t)
    return list(first.values())


def _first_tuples(
    tokens: tuple[int, ...], k: int, vocab_size: int | None
) -> tuple[np.ndarray, np.ndarray]:
    """(n, k) contexts and (n,) tokens at the :func:`_first_occurrences`
    positions."""
    keep = np.array(_first_occurrences(tokens, k, vocab_size), dtype=np.int64)
    row = np.array(tokens, dtype=np.int64)
    return row[keep[:, None] + np.arange(-k, 0)], row[keep]


def extract_scores(
    text: GeneratedText, key: WatermarkKey, vocab_size: int | None = None
) -> list[ScoredToken]:
    """Score each first occurrence of a (context, token) tuple: recompute the
    keyed pivot, test green membership, and fold red pivots to 1 - zeta."""
    tokens, k = text.tokens, key.k
    scores = []
    for pos in _first_occurrences(tokens, k, vocab_size):
        ctx, tok = tokens[pos - k : pos], tokens[pos]
        zeta = derive_zeta(key, ctx)
        green = is_green(key, ctx, tok, vocab_size)
        scores.append(
            ScoredToken(
                position=pos,
                token=tok,
                context=ctx,
                is_green=green,
                zeta_prime=zeta if green else 1.0 - zeta,
            )
        )
    return scores


def extract_zeta_primes_batch(
    tokens_2d: np.ndarray, key: WatermarkKey, vocab_size: int | None = None
) -> list[np.ndarray]:
    """Folded pivots for a batch of equal-length texts (rows), at the
    positions :func:`extract_scores` scores.

    Perm-mode membership ranks each token's keyed word within its row (see
    :func:`is_green_batch`), which needs ``vocab_size``.
    """
    out = []
    for row in np.asarray(tokens_2d, dtype=np.int64):
        ctxs, toks = _first_tuples(tuple(row.tolist()), key.k, vocab_size)
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


# Rows per block of drawn or scored rows: about 2**20 scores, so each of an
# HC block's three float64 buffers takes about 8 MiB whatever m is.
_BLOCK_ELEMENTS = 1 << 20


def _hc_variant(variant) -> Statistic:
    variant = Statistic(variant)
    if variant not in (Statistic.HC_PLUS, Statistic.HC_STAR):
        raise ValueError(f"variant must be hc+ or hc*, got {variant.value}")
    return variant


class RowStream:
    """A (reps, m) matrix of U[0,1) scores that is drawn block by block, so
    that :func:`hc_batch` draws, sorts and scores each block in its own
    buffer instead of holding the whole matrix.

    The draws come from the PCG64 stream seeded with ``entropy`` (the stream
    of ``np.random.default_rng(entropy)``), read at offsets: rows are laid out
    in chunks of ``chunk_rows`` rows (default: one chunk), each holding its
    rows' m uniforms and then their ``extra`` uniforms, so chunk j starts at
    draw j * chunk_rows * (m + extra).  With no extra draws, row r starts at
    draw r * m.  ``transform(x, u)``, when given, changes rows x in place
    given their extra uniforms u (None when there are none).  With a
    ``reduce`` ufunc, each filled row's reduction (``np.add``: its sum) is
    written to ``reduced`` before anything sorts the row.
    """

    def __init__(self, entropy, shape, *, extra=0, chunk_rows=None, transform=None, reduce=None):
        self.entropy = [int(e) for e in entropy]
        self.shape = (int(shape[0]), int(shape[1]))
        self.size = self.shape[0] * self.shape[1]
        self.extra = int(extra)
        self.chunk_rows = int(chunk_rows or max(1, self.shape[0]))
        self.transform = transform
        self.reduce = reduce
        self.reduced = None if reduce is None else np.empty(self.shape[0])

    def _draws(self, offset: int) -> np.random.Generator:
        # A fresh generator at the given draw of the stream: each block is
        # drawn on its own, in any thread.
        return np.random.Generator(np.random.PCG64(self.entropy).advance(offset))

    def fill(self, lo: int, hi: int, out: np.ndarray) -> None:
        """Draw rows lo..hi-1 into ``out``, a C-contiguous (hi - lo, m)
        float64 array, one chunk segment at a time."""
        reps, m = self.shape
        k, rows_per_chunk = self.extra, self.chunk_rows
        a = lo
        while a < hi:
            first = a - a % rows_per_chunk
            c = min(rows_per_chunk, reps - first)
            b = min(hi, first + c)
            x = out[a - lo : b - lo]
            base = first * (m + k)
            self._draws(base + (a - first) * m).random(out=x)
            if self.transform is not None:
                u = self._draws(base + c * m + (a - first) * k).random((b - a, k)) if k else None
                self.transform(x, u)
            a = b
        if self.reduce is not None:
            self.reduce.reduce(out, axis=1, out=self.reduced[lo:hi])

    def __array__(self, dtype=None, copy=None):
        out = np.empty(self.shape)
        self.fill(0, self.shape[0], out)
        return out if dtype is None else out.astype(dtype, copy=False)


def _hc_blocks(rows, variant: Statistic, denom: HcDenom) -> np.ndarray:
    """HC of each row of a (reps, m) score matrix or :class:`RowStream`, one
    block of rows at a time.

    Each block is copied (or drawn) into a float64 buffer, sorted and scored
    in place in three block-sized buffers, with the same elementwise steps
    in every block, so a row's value depends on that row alone: not on the
    block size, nor on how many threads run the blocks.  Blocks are shared
    out over the CPUs this process may use (numpy releases the GIL in
    drawing, sort and ufuncs); a call of one block runs inline.
    """
    reps, m = rows.shape
    if m < 1:
        raise TooFewScores("higher criticism needs at least one score per row")
    if isinstance(rows, RowStream):
        fill = rows.fill
    else:
        def fill(lo: int, hi: int, out: np.ndarray) -> None:
            np.copyto(out, rows[lo:hi])

    out = np.empty(reps)
    block = max(1, min(reps, _BLOCK_ELEMENTS // m))
    starts = range(0, reps, block)
    t = np.arange(1, m + 1, dtype=np.float64) / m
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = max(1, min(len(starts), cpus))

    def run(first: int) -> None:
        # Blocks first, first + workers, ...; each writes its own slice of out.
        s_buf, x_buf, hc_buf = (np.empty((block, m)) for _ in range(3))
        for lo in starts[first::workers]:
            hi = min(lo + block, reps)
            s, x, hc = s_buf[: hi - lo], x_buf[: hi - lo], hc_buf[: hi - lo]
            fill(lo, hi, s)
            s.sort(axis=1)
            np.clip(s, 1e-12, 1.0 - 1e-12, out=x)
            np.subtract(1.0, x, out=hc)
            np.multiply(x, hc, out=x)
            if denom is HcDenom.STANDARD_SQRT:
                np.sqrt(x, out=x)
            np.subtract(t, s, out=hc)
            np.multiply(hc, math.sqrt(m), out=hc)
            np.divide(hc, x, out=hc)
            if variant is Statistic.HC_PLUS:
                # The + restriction is on the unclipped scores; a NaN score
                # fails it, as it fails s >= 1/m.
                np.copyto(hc, -np.inf, where=~(s >= 1.0 / m))
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
    (never rejects).
    """
    variant = _hc_variant(variant)
    values = np.asarray(scores, dtype=np.float64)
    if len(values) < 2:
        raise TooFewScores("higher criticism needs at least two scores")
    return float(_hc_blocks(values[None, :], variant, HcDenom(denom))[0])


def hc_batch(
    rows: np.ndarray,
    variant: Statistic = Statistic.HC_PLUS,
    denom: HcDenom = HcDenom.STANDARD_SQRT,
) -> np.ndarray:
    """Row-wise :func:`hc_statistic` for a (reps, m) matrix of scores,
    computed in float64; ``rows`` is not modified.  A :class:`RowStream` is
    drawn block by block inside the kernel and never held whole."""
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
    the alpha quantile for SUM and MAX, the 1 - alpha quantile for HC."""
    return float(np.quantile(null_values, alpha if statistic in _LOWER_TAIL else 1.0 - alpha))


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
    # Sum and max: blocks of about 2**20 scores on this thread, reduced by fill.
    buf = np.empty((max(1, min(reps, _BLOCK_ELEMENTS // n)), n))
    for lo in range(0, reps, len(buf)):
        hi = min(lo + len(buf), reps)
        rows.fill(lo, hi, buf[: hi - lo])
    return rows.reduced


def _cache_statistic(statistic: Statistic, denom: HcDenom) -> str:
    # The statistic field of a cache row.  Only the HC nulls depend on the
    # denominator, so HC rows carry it ("hc+:sqrt"); an HC row written
    # without one ("hc+") never matches and is never reused.
    if statistic in (Statistic.HC_PLUS, Statistic.HC_STAR):
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
    and, for HC, the denominator.
    """
    statistic = Statistic(statistic)
    denom = HcDenom(denom)
    if statistic not in _CALIBRATABLE:
        raise ValueError(f"no simulated null for statistic {statistic}")
    _check_reps(reps)
    _check_alpha(alpha)
    _check_seed(seed)
    if n < 1:
        raise OutOfRange(f"calibration needs n >= 1, got {n}")
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
    _check_alpha(alpha)
    _check_reps(reps)
    scores = extract_scores(text, key, vocab_size)
    keep_red = side is Side.COMBINED and statistic is not Statistic.MAX
    values = np.array([s.zeta_prime for s in scores if s.is_green or keep_red], dtype=np.float64)
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
