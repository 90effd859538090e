"""Watermark key material: per-context green lists and pivot uniforms.

Two keyed pseudorandom functions are realized by seeding the shared
mix-finalizer stream with a fold of (master secret XOR tag, previous k
tokens).  Distinct tag constants separate the green-list PRF, the pivot
PRF, and the permutation PRF, so their outputs are independent inputs to
the mixer.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import GOLDEN, MASK64, counter_uniforms, counter_words, mix64, mix64_array, seed64
from .core import _GOLDEN_U64, _INV_2_53, _block_rows, _mix64_inplace

__all__ = [
    "GREEN_TAG",
    "ZETA_TAG",
    "PERM_TAG",
    "GREEN_MODES",
    "WatermarkKey",
    "derive_seed",
    "derive_seed_batch",
    "derive_zeta",
    "derive_zeta_batch",
    "is_green",
    "green_mask",
    "green_mask_batch",
    "is_green_batch",
    "keyed_permutation",
    "keyed_permutation_batch",
    "perm_head",
    "format_key",
    "parse_key",
    "ContextLengthMismatch",
    "KeyFormatError",
]

GREEN_TAG = 0x11
ZETA_TAG = 0x22
PERM_TAG = 0x33

# hash:   per-context hash membership, O(1) per token, |green| ~ Binomial(V, gamma)
# single: one context-independent membership hash shared by every step
# perm:   per-context keyed permutation, exactly floor(gamma * V) green tokens
GREEN_MODES = ("hash", "single", "perm")


class ContextLengthMismatch(ValueError):
    """Raised when a context tuple does not have exactly k tokens."""


class KeyFormatError(ValueError):
    """Raised when a serialized key string cannot be parsed."""


@dataclass(frozen=True)
class WatermarkKey:
    """64-bit master secret with context width k and green fraction gamma."""

    master: int
    k: int
    gamma: float
    green_mode: str = "hash"

    def __post_init__(self):
        if not 0 <= self.master <= MASK64:
            raise ValueError("master must be a 64-bit integer")
        if self.k < 0:
            raise ValueError("context width k must be >= 0")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("green fraction gamma must lie in (0, 1)")
        if self.green_mode not in GREEN_MODES:
            raise ValueError(f"green_mode must be one of {GREEN_MODES}")


def format_key(key: WatermarkKey) -> str:
    """Serialize as ``<16 hex digits>:k=<int>:g=<float>:mode=<mode>``."""
    return f"{key.master:016x}:k={key.k}:g={key.gamma!r}:mode={key.green_mode}"


def parse_key(text: str) -> WatermarkKey:
    """Inverse of :func:`format_key`; raises :class:`KeyFormatError` on bad input."""
    parts = text.strip().split(":")
    if len(parts) != 4:
        raise KeyFormatError(f"expected 4 colon-separated fields, got {len(parts)}")
    master_s, k_s, g_s, mode_s = parts
    try:
        if not (1 <= len(master_s) <= 16):
            raise ValueError
        master = int(master_s, 16)
    except ValueError:
        raise KeyFormatError(f"master must be 1-16 hex digits, got {master_s!r}") from None
    for prefix, part in (("k=", k_s), ("g=", g_s), ("mode=", mode_s)):
        if not part.startswith(prefix):
            raise KeyFormatError(f"expected field starting with {prefix!r}, got {part!r}")
    try:
        k = int(k_s[2:])
        gamma = float(g_s[2:])
    except ValueError as exc:
        raise KeyFormatError(str(exc)) from None
    mode = mode_s[5:]
    try:
        return WatermarkKey(master=master, k=k, gamma=gamma, green_mode=mode)
    except ValueError as exc:
        raise KeyFormatError(str(exc)) from None


def _context_mismatch(key: WatermarkKey, ctx) -> ContextLengthMismatch:
    # The scalar functions test the length inline and raise this.
    return ContextLengthMismatch(f"context has {len(ctx)} tokens, key expects {key.k}")


def derive_seed(key: WatermarkKey, ctx, tag: int) -> int:
    """Deterministic 64-bit seed from (master XOR tag) folded with the context."""
    if len(ctx) != key.k:
        raise _context_mismatch(key, ctx)
    return seed64(key.master ^ tag, ctx)


def derive_seed_batch(key: WatermarkKey, ctxs: np.ndarray, tag: int) -> np.ndarray:
    """Vectorized :func:`derive_seed` for an (n, k) array of contexts."""
    ctxs = np.asarray(ctxs)
    if ctxs.ndim != 2 or ctxs.shape[1] != key.k:
        raise ContextLengthMismatch(f"context array must have shape (n, {key.k})")
    s = np.full(ctxs.shape[0], (key.master ^ tag) & MASK64, dtype=np.uint64)
    for col in range(key.k):
        tok = ctxs[:, col].astype(np.uint64)
        s = mix64_array(s * _GOLDEN_U64 + tok + np.uint64(1))
    return mix64_array(s)


@functools.lru_cache(maxsize=1 << 12)
def _token_hash(token: int) -> int:
    # Key-free, so memoized: a scalar membership test reuses its token's hash.
    return mix64(((int(token) + 1) * GOLDEN) & MASK64)


def _token_hashes(tokens: np.ndarray) -> np.ndarray:
    # Vectorized _token_hash; over np.arange(V) it is the vocabulary hash row.
    return mix64_array((tokens.astype(np.uint64) + np.uint64(1)) * _GOLDEN_U64)


@functools.lru_cache(maxsize=4)
def _vocab_hashes(vocab_size: int) -> np.ndarray:
    """The vocabulary hash row ``_token_hashes(np.arange(vocab_size))``,
    read-only: it does not depend on the key, so each V builds it once."""
    row = _token_hashes(np.arange(vocab_size))
    row.setflags(write=False)
    return row


@functools.lru_cache(maxsize=64)
def _gamma_threshold(gamma: float) -> int:
    """Green-word threshold: a draw (w >> 11) * 2^-53 is below gamma exactly
    when the word w is below ceil(gamma * 2^53) * 2^11, which is below 2^64
    for gamma < 1."""
    return math.ceil(gamma * 2**53) << 11


def _below_gamma(words: np.ndarray, gamma: float) -> np.ndarray:
    """``counter_uniforms``-style draws below gamma, compared on the words."""
    return words < np.uint64(_gamma_threshold(gamma))


def _green_seed(key: WatermarkKey, ctx) -> int:
    if key.green_mode == "single":
        # Context-independent: the membership hash is shared by every step.
        return mix64(key.master ^ GREEN_TAG)
    return derive_seed(key, ctx, GREEN_TAG)


def _head_size(gamma: float, vocab_size: int) -> int:
    return int(gamma * vocab_size)  # floor(gamma * V): the perm-mode green list's size


def perm_head(perms: np.ndarray, gamma: float) -> np.ndarray:
    """Green tokens of keyed permutation rows: the first floor(gamma * V)."""
    return perms[..., : _head_size(gamma, perms.shape[-1])]


def _perm_mask(perms: np.ndarray, gamma: float) -> np.ndarray:
    mask = np.zeros(perms.shape, dtype=bool)
    mask[np.arange(perms.shape[0])[:, None], perm_head(perms, gamma)] = True
    return mask


def _hash_rows(seeds, vocab_size: int, gamma: float) -> np.ndarray:
    """Hash-mode membership against the vocabulary hash row, for one uint64
    seed (one row) or an (n, 1) column of seeds (n rows): the first counter
    word of each (seed ^ token hash) stream, built in one buffer."""
    words = _vocab_hashes(vocab_size) ^ seeds
    words += _GOLDEN_U64
    return _below_gamma(_mix64_inplace(words), gamma)


def is_green(key: WatermarkKey, ctx, token: int, vocab_size: int | None = None) -> bool:
    """Green-list membership of one token under the keyed partition."""
    if key.green_mode == "perm":
        return bool(is_green_batch(key, np.array([ctx]), [token], vocab_size)[0])
    if key.green_mode == "single":
        ctx = ()  # no tokens to fold: mix64(master ^ GREEN_TAG), as in _green_seed
    elif len(ctx) != key.k:
        raise _context_mismatch(key, ctx)
    # The first counter word of the (seed ^ token hash) stream, in one call.
    return seed64(key.master ^ GREEN_TAG, ctx, _token_hash(token)) < _gamma_threshold(key.gamma)


def green_mask(key: WatermarkKey, ctx, vocab_size: int) -> np.ndarray:
    """Boolean membership vector over the whole vocabulary."""
    if key.green_mode == "perm":
        return _perm_mask(keyed_permutation(key, ctx, vocab_size)[None, :], key.gamma)[0]
    return _hash_rows(np.uint64(_green_seed(key, ctx)), vocab_size, key.gamma)


def _green_seeds(key: WatermarkKey, ctxs: np.ndarray) -> np.ndarray:
    # The seed of each context's green row: GREEN (hash, single) or PERM.
    if key.green_mode == "perm":
        return derive_seed_batch(key, ctxs, PERM_TAG)
    if key.green_mode == "single":
        return np.full(np.asarray(ctxs).shape[0], _green_seed(key, ()), dtype=np.uint64)
    return derive_seed_batch(key, ctxs, GREEN_TAG)


def green_mask_batch(key: WatermarkKey, ctxs: np.ndarray, vocab_size: int) -> np.ndarray:
    """(n, vocab_size) membership matrix for an (n, k) array of contexts."""
    seeds = _green_seeds(key, ctxs)
    if key.green_mode == "perm":
        return _perm_mask(keyed_permutation_batch(seeds, vocab_size), key.gamma)
    return _hash_rows(seeds[:, None], vocab_size, key.gamma)


def is_green_batch(
    key: WatermarkKey, ctxs: np.ndarray, tokens: np.ndarray, vocab_size: int | None = None
) -> np.ndarray:
    """Vectorized :func:`is_green` for paired (n, k) contexts and (n,) tokens.
    Perm mode needs ``vocab_size`` and builds no permutation: a token is green
    iff fewer than floor(gamma * V) words of its row (see :func:`_perm_words`)
    are smaller than its own, counted in blocks of rows of about
    ``core._BLOCK_ELEMENTS`` words."""
    tokens = np.asarray(tokens, dtype=np.int64)
    seeds = _green_seeds(key, ctxs)
    if key.green_mode != "perm":
        return _below_gamma(counter_words(seeds ^ _token_hashes(tokens), 1), key.gamma)
    if vocab_size is None:
        raise ValueError("perm mode needs vocab_size for membership queries")
    if tokens.size and not 0 <= tokens.min() <= tokens.max() < vocab_size:
        raise ValueError(f"perm-mode tokens must lie in [0, {vocab_size})")
    own = counter_words(seeds, tokens.astype(np.uint64) + np.uint64(1))
    rows = _block_rows(len(tokens), vocab_size)
    ranks = np.empty(len(tokens), dtype=np.int64)
    for lo in range(0, len(tokens), rows):
        below = _perm_words(seeds[lo : lo + rows], vocab_size) < own[lo : lo + rows, None]
        ranks[lo : lo + rows] = np.count_nonzero(below, axis=1)
    return ranks < _head_size(key.gamma, vocab_size)


def _perm_words(seeds: np.ndarray, vocab_size: int) -> np.ndarray:
    """(n, vocab_size) keyed words: token t's word in a PERM seed's row is the
    seed's counter word t + 1.  As mix64 is a bijection, no two words tie."""
    return counter_words(seeds[:, None], np.arange(1, vocab_size + 1, dtype=np.uint64)[None, :])


def keyed_permutation(key: WatermarkKey, ctx, vocab_size: int) -> np.ndarray:
    """Keyed uniform permutation of [0, vocab_size) for one context."""
    seed = np.array([derive_seed(key, ctx, PERM_TAG)], dtype=np.uint64)
    return keyed_permutation_batch(seed, vocab_size)[0]


def keyed_permutation_batch(seeds: np.ndarray, vocab_size: int) -> np.ndarray:
    """Keyed uniform permutation of [0, vocab_size), one row per seed: the
    tokens sorted by their keyed words, so token t sits at the slot of its
    word's rank in the row.  Words never tie, so the order is unique."""
    return np.argsort(_perm_words(np.asarray(seeds, dtype=np.uint64), vocab_size), axis=1)


def derive_zeta(key: WatermarkKey, ctx) -> float:
    """Keyed pivot uniform for one context: first draw of the ZETA stream,
    ``RngStream(derive_seed(key, ctx, ZETA_TAG)).next_uniform()``, whose
    word one :func:`~wmkit.core.seed64` call returns."""
    if len(ctx) != key.k:
        raise _context_mismatch(key, ctx)
    return (seed64(key.master ^ ZETA_TAG, ctx, 0) >> 11) * _INV_2_53


def derive_zeta_batch(key: WatermarkKey, ctxs: np.ndarray) -> np.ndarray:
    """Vectorized :func:`derive_zeta` for an (n, k) array of contexts."""
    return counter_uniforms(derive_seed_batch(key, ctxs, ZETA_TAG), 1)

