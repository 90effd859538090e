"""Shared domain types: validated next-token laws, token sequences, and a
counter-based deterministic RNG stream.

The RNG is a 64-bit mix-finalizer (SplitMix-style constants) evaluated at
``state + counter * GOLDEN``.  Random access by counter makes keyed,
reproducible draws cheap: the same (state, counter) pair yields the same
value on every platform, which all golden tests rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "GOLDEN",
    "MASK64",
    "mix64",
    "mix64_array",
    "fold64",
    "seed64",
    "counter_words",
    "counter_uniforms",
    "context_window",
    "RngStream",
    "make_ntp",
    "GeneratedText",
    "EmptyVector",
    "NegativeEntry",
    "NotNormalized",
]

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15

_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_INV_2_53 = 2.0**-53

# The same constants as numpy scalars, so array steps build none per call.
_GOLDEN_U64 = np.uint64(GOLDEN)
_MIX_A_U64 = np.uint64(_MIX_A)
_MIX_B_U64 = np.uint64(_MIX_B)
_U30, _U27, _U31, _U11 = np.uint64(30), np.uint64(27), np.uint64(31), np.uint64(11)

# Elements per block where a kernel works on a (rows, width) array a block of
# rows at a time: a float64 or 64-bit integer block buffer takes about 2 MiB.
_BLOCK_ELEMENTS = 1 << 18


class EmptyVector(ValueError):
    """Raised for empty or zero-length probability input."""


class NegativeEntry(ValueError):
    """Raised when a probability vector contains a negative entry."""


class NotNormalized(ValueError):
    """Raised when a probability vector cannot be (or, in strict mode, is not
    already) normalized."""


def mix64(z: int) -> int:
    """64-bit avalanche finalizer applied to ``z`` (mod 2**64)."""
    z &= MASK64
    z ^= z >> 30
    z = (z * _MIX_A) & MASK64
    z ^= z >> 27
    z = (z * _MIX_B) & MASK64
    z ^= z >> 31
    return z


def mix64_array(z: np.ndarray) -> np.ndarray:
    """Vectorized :func:`mix64` over a uint64 array; wraps modulo 2**64."""
    return _mix64_inplace(z.astype(np.uint64, copy=True))


def _mix64_inplace(z: np.ndarray) -> np.ndarray:
    """:func:`mix64_array` written over ``z``, a writable uint64 array;
    returns ``z``."""
    z ^= z >> _U30
    z *= _MIX_A_U64
    z ^= z >> _U27
    z *= _MIX_B_U64
    z ^= z >> _U31
    return z


def fold64(state: int, tokens) -> int:
    """Absorb a token sequence into a 64-bit state, one finalize per token."""
    s = state & MASK64
    for tok in tokens:
        s = mix64((s * GOLDEN + int(tok) + 1) & MASK64)
    return s


def seed64(state: int, tokens) -> int:
    """``mix64(fold64(state, tokens))`` in one loop with the finalizer
    written inline: the seed of a context's stream (key PRFs, Markov rows,
    the CLI's per-text streams), taken once per scored position or
    generated token."""
    z = state & MASK64
    for tok in tokens:
        z = (z * GOLDEN + int(tok) + 1) & MASK64
        z ^= z >> 30
        z = (z * _MIX_A) & MASK64
        z ^= z >> 27
        z = (z * _MIX_B) & MASK64
        z ^= z >> 31
    z ^= z >> 30
    z = (z * _MIX_A) & MASK64
    z ^= z >> 27
    z = (z * _MIX_B) & MASK64
    return z ^ (z >> 31)


def _unit_float(z: int) -> float:
    # Top 53 bits of the mixed word; half-open [0, 1).
    return (z >> 11) * _INV_2_53


def _block_rows(rows: int, width: int, elements: int = _BLOCK_ELEMENTS) -> int:
    """Rows per block when a (rows, width) array is worked on in blocks of
    about ``elements`` elements; at least one row."""
    return max(1, min(rows, elements // max(width, 1)))


def counter_words(states, counters) -> np.ndarray:
    """64-bit words ``mix64(state + c * GOLDEN)`` at the given counters of the
    streams seeded by ``states``, broadcast over uint64 arrays."""
    states = np.asarray(states, dtype=np.uint64)
    counters = np.asarray(counters, dtype=np.uint64)
    return _mix64_inplace(states + counters * _GOLDEN_U64)


def counter_uniforms(states, counters) -> np.ndarray:
    """Draws at the given counters of the streams seeded by ``states``: the
    :func:`counter_words` shifted right by 11 and scaled to [0, 1).  Entry for
    entry equal to ``RngStream(state).value_at(c)``.
    """
    return (counter_words(states, counters) >> _U11).astype(np.float64) * _INV_2_53


def context_window(history: Sequence[int], k: int) -> tuple[int, ...]:
    """Trailing k tokens of the history, left-padded with token 0 when the
    history is shorter than k."""
    if k == 0:
        return ()
    tail = tuple(map(int, history[-k:]))
    if len(tail) < k:
        tail = (0,) * (k - len(tail)) + tail
    return tail


class RngStream:
    """Counter-based uniform stream over [0, 1) with 53-bit mantissas.

    Draw ``i`` (1-based) is ``mix64(state + i * GOLDEN) >> 11`` scaled to
    [0, 1), so any position is addressable without generating its
    predecessors.  Instances are cheap and single-owner; concurrent use
    requires separate streams with distinct states.
    """

    __slots__ = ("state", "counter")

    def __init__(self, state: int):
        self.state = state & MASK64
        self.counter = 0

    def next_uniform(self) -> float:
        self.counter = (self.counter + 1) & MASK64
        return self.value_at(self.counter)

    def value_at(self, counter: int) -> float:
        """Draw at an absolute counter position without advancing the stream."""
        return _unit_float(mix64((self.state + (counter & MASK64) * GOLDEN) & MASK64))


def make_ntp(raw, strict: bool = False) -> np.ndarray:
    """Build a next-token law from raw weights: a 1-D, read-only float64
    array whose entries sum to 1 within 1e-9, safe to share.

    Non-strict mode rescales any finite nonnegative vector with positive
    sum; strict mode additionally rejects inputs whose sum deviates from 1
    by more than 1e-6 before normalization.  Both modes refuse a vector
    whose sum is not finite (a NaN or infinite entry, or overflow).
    """
    arr = np.asarray(raw, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise EmptyVector("probability vector must be non-empty and 1-D")
    if np.any(arr < 0):
        raise NegativeEntry("probability vector has a negative entry")
    total = float(arr.sum())
    # With no negative entry, the sum is finite only if every entry is.
    if not math.isfinite(total):
        raise NotNormalized(f"probability vector sums to {total!r}: an entry is NaN or too large")
    if total <= 0.0:
        raise NotNormalized("probability vector sums to zero")
    if strict and abs(total - 1.0) > 1e-6:
        raise NotNormalized(f"strict mode: sum {total!r} deviates from 1 by more than 1e-6")
    probs = arr / total
    probs.setflags(write=False)
    return probs


@dataclass(frozen=True)
class GeneratedText:
    """A token sequence with a count of leading prompt tokens."""

    tokens: tuple[int, ...]
    prompt_len: int = 0

    def __post_init__(self):
        # A token that int() would change (1.9, "3") is refused, not truncated.
        given = tuple(self.tokens)
        tokens = tuple(int(t) for t in given)
        if tokens != given:
            raise ValueError("tokens must be integers")
        object.__setattr__(self, "tokens", tokens)
        if not 0 <= self.prompt_len <= len(self.tokens):
            raise ValueError("prompt_len must lie in [0, len(tokens)]")

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def continuation(self) -> tuple[int, ...]:
        """Tokens after the prompt prefix."""
        return self.tokens[self.prompt_len :]
