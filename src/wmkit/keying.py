"""Watermark key material: per-context green lists and pivot uniforms.

Two keyed pseudorandom functions are realized by seeding the shared
mix-finalizer stream with a fold of (master secret XOR tag, previous k
tokens).  Distinct tag constants separate the green-list PRF, the pivot
PRF, and the permutation PRF, so their outputs are independent inputs to
the mixer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import GOLDEN, MASK64, RngStream, counter_uniforms, fold64, mix64, mix64_array

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


def _check_context(key: WatermarkKey, ctx) -> None:
    if len(ctx) != key.k:
        raise ContextLengthMismatch(f"context has {len(ctx)} tokens, key expects {key.k}")


def derive_seed(key: WatermarkKey, ctx, tag: int) -> int:
    """Deterministic 64-bit seed from (master XOR tag) folded with the context."""
    _check_context(key, ctx)
    return mix64(fold64(key.master ^ tag, ctx))


def derive_seed_batch(key: WatermarkKey, ctxs: np.ndarray, tag: int) -> np.ndarray:
    """Vectorized :func:`derive_seed` for an (n, k) array of contexts."""
    ctxs = np.asarray(ctxs)
    if ctxs.ndim != 2 or ctxs.shape[1] != key.k:
        raise ContextLengthMismatch(f"context array must have shape (n, {key.k})")
    s = np.full(ctxs.shape[0], (key.master ^ tag) & MASK64, dtype=np.uint64)
    for col in range(key.k):
        tok = ctxs[:, col].astype(np.uint64)
        s = mix64_array(s * np.uint64(GOLDEN) + tok + np.uint64(1))
    return mix64_array(s)


def _token_hash(token: int) -> int:
    return mix64(((int(token) + 1) * GOLDEN) & MASK64)


def _token_hashes(tokens: np.ndarray) -> np.ndarray:
    # Vectorized _token_hash; over np.arange(V) it is the vocabulary hash row.
    return mix64_array((tokens.astype(np.uint64) + np.uint64(1)) * np.uint64(GOLDEN))


def _green_seed(key: WatermarkKey, ctx) -> int:
    if key.green_mode == "single":
        # Context-independent: the membership hash is shared by every step.
        return mix64(key.master ^ GREEN_TAG)
    return derive_seed(key, ctx, GREEN_TAG)


def perm_head(perms: np.ndarray, gamma: float) -> np.ndarray:
    """Green tokens of keyed permutation rows: the first floor(gamma * V)."""
    return perms[..., : int(gamma * perms.shape[-1])]


def _perm_mask(perms: np.ndarray, gamma: float) -> np.ndarray:
    mask = np.zeros(perms.shape, dtype=bool)
    mask[np.arange(perms.shape[0])[:, None], perm_head(perms, gamma)] = True
    return mask


def _green_rows(key: WatermarkKey, seeds: np.ndarray, vocab_size: int) -> np.ndarray:
    """(n, vocab_size) membership, one row per seed: a GREEN seed (hash and
    single modes) against the vocabulary hash row, or the permutation head
    of a PERM seed (perm mode)."""
    if key.green_mode == "perm":
        return _perm_mask(keyed_permutation_batch(seeds, vocab_size), key.gamma)
    hashes = _token_hashes(np.arange(vocab_size))
    return counter_uniforms(seeds[:, None] ^ hashes[None, :], 1) < key.gamma


def is_green(key: WatermarkKey, ctx, token: int, vocab_size: int | None = None) -> bool:
    """Green-list membership of one token under the keyed partition."""
    if key.green_mode == "perm":
        seed = np.array([derive_seed(key, ctx, PERM_TAG)], dtype=np.uint64)
        return bool(_perm_green(key, seed, np.array([token]), vocab_size)[0])
    state = _green_seed(key, ctx) ^ _token_hash(token)
    return RngStream(state).next_uniform() < key.gamma


def green_mask(key: WatermarkKey, ctx, vocab_size: int) -> np.ndarray:
    """Boolean membership vector over the whole vocabulary."""
    if key.green_mode == "perm":
        return _perm_mask(keyed_permutation(key, ctx, vocab_size)[None, :], key.gamma)[0]
    seed = np.array([_green_seed(key, ctx)], dtype=np.uint64)
    return _green_rows(key, seed, vocab_size)[0]


def _green_seeds(key: WatermarkKey, ctxs: np.ndarray) -> np.ndarray:
    # The seed of each context's green row, as _green_rows takes it.
    if key.green_mode == "perm":
        return derive_seed_batch(key, ctxs, PERM_TAG)
    if key.green_mode == "single":
        return np.full(np.asarray(ctxs).shape[0], _green_seed(key, ()), dtype=np.uint64)
    return derive_seed_batch(key, ctxs, GREEN_TAG)


def green_mask_batch(key: WatermarkKey, ctxs: np.ndarray, vocab_size: int) -> np.ndarray:
    """(n, vocab_size) membership matrix for an (n, k) array of contexts."""
    return _green_rows(key, _green_seeds(key, ctxs), vocab_size)


def is_green_batch(
    key: WatermarkKey, ctxs: np.ndarray, tokens: np.ndarray, vocab_size: int | None = None
) -> np.ndarray:
    """Vectorized :func:`is_green` for paired (n, k) contexts and (n,) tokens."""
    tokens = np.asarray(tokens, dtype=np.int64)
    if key.green_mode == "perm":
        return _perm_green(key, _green_seeds(key, ctxs), tokens, vocab_size)
    return counter_uniforms(_green_seeds(key, ctxs) ^ _token_hashes(tokens), 1) < key.gamma


def _perm_green(
    key: WatermarkKey, seeds: np.ndarray, tokens: np.ndarray, vocab_size: int | None
) -> np.ndarray:
    """Perm-mode membership of one token per PERM seed, without building the
    permutation: follow the token's slot through the Fisher-Yates swaps of
    :func:`keyed_permutation_batch` and test the final slot against the head.

    Step i moves the token only if it sits in slot i (to slot j_i <= i) or in
    slot j_i (to slot i, which no later step touches).  So from slot s the
    first later step with j_i = s, if any, fixes the token at slot i;
    otherwise step s sends it to j_s and the search repeats below s.
    """
    if vocab_size is None:
        raise ValueError("perm mode needs vocab_size for membership queries")
    head = int(key.gamma * vocab_size)
    out = np.empty(len(tokens), dtype=bool)
    for row, (seed, slot) in enumerate(zip(seeds, tokens.tolist())):
        # jumps[i] is j_i, the slot that step i swaps with slot i.
        jumps = np.zeros(vocab_size, dtype=np.int64)
        jumps[1:] = _fisher_yates_swaps(seed[None], vocab_size)[0, ::-1]
        top = vocab_size - 1
        while True:
            hits = np.flatnonzero(jumps[slot + 1 : top + 1] == slot)
            if hits.size:
                slot += 1 + int(hits[-1])
                break
            if jumps[slot] == slot:
                break
            top, slot = slot - 1, int(jumps[slot])
        out[row] = slot < head
    return out


def keyed_permutation(key: WatermarkKey, ctx, vocab_size: int) -> np.ndarray:
    """Fisher-Yates permutation of [0, vocab_size) driven by the keyed stream."""
    seed = np.array([derive_seed(key, ctx, PERM_TAG)], dtype=np.uint64)
    return keyed_permutation_batch(seed, vocab_size)[0]


def keyed_permutation_batch(seeds: np.ndarray, vocab_size: int) -> np.ndarray:
    """Fisher-Yates permutation of [0, vocab_size), one row per seed.

    Step i, for i from vocab_size - 1 down to 1, swaps slot i with slot
    floor(u * (i + 1)), where u is the next draw of the seed's stream.  The
    draws of all rows come from one vectorized pass; the swaps run on a
    Python list per row.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    slots = range(vocab_size - 1, 0, -1)
    identity = list(range(vocab_size))
    perms = np.empty((seeds.shape[0], vocab_size), dtype=np.int64)
    for row, js in enumerate(_fisher_yates_swaps(seeds, vocab_size)):
        perm = identity.copy()
        for i, j in zip(slots, js.tolist()):
            perm[i], perm[j] = perm[j], perm[i]
        perms[row] = perm
    return perms


def _fisher_yates_swaps(seeds: np.ndarray, vocab_size: int) -> np.ndarray:
    """(n, vocab_size - 1) swap targets j of the steps i = vocab_size - 1,
    ..., 1 in that order: j = floor(u * (i + 1)) with u the seed's next draw."""
    u = counter_uniforms(seeds[:, None], np.arange(1, vocab_size, dtype=np.uint64)[None, :])
    return (u * np.arange(vocab_size, 1, -1)).astype(np.int64)


def derive_zeta(key: WatermarkKey, ctx) -> float:
    """Keyed pivot uniform for one context: first draw of the ZETA stream."""
    return RngStream(derive_seed(key, ctx, ZETA_TAG)).next_uniform()


def derive_zeta_batch(key: WatermarkKey, ctxs: np.ndarray) -> np.ndarray:
    """Vectorized :func:`derive_zeta` for an (n, k) array of contexts."""
    return counter_uniforms(derive_seed_batch(key, ctxs, ZETA_TAG), 1)

