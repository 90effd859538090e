"""Post-generation modification models for robustness experiments.

Two editors: i.i.d. random substitution of non-prompt tokens, and a
speculative-decoding loop that replays a watermarked draft through an
unwatermarked target model with a relaxed acceptance rule (the "lazy
editor").  The accept test uses fresh randomness, never the keyed pivots,
so the target stays independent of the watermark given context.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .core import GeneratedText, NtpDistribution, RngStream, context_window
from .decoders import (
    Scheme,
    VocabMismatch,
    _mc_weights,
    accept_or_resample,
    categorical_from_uniform,
    gumbel_max_step_full,
)
from .keying import WatermarkKey, derive_zeta, green_mask

__all__ = [
    "AttackKind",
    "AttackConfig",
    "SpecDecStats",
    "substitute",
    "specdec_postprocess",
    "merge_specdec_stats",
]


class AttackKind(str, enum.Enum):
    SUBSTITUTE = "substitute"
    SPECDEC = "specdec"


@dataclass(frozen=True)
class AttackConfig:
    """Editor selection and its parameters."""

    kind: AttackKind
    sub_rate: float = 0.1
    accept_scale: float = 0.5
    lookahead: int = 4

    def __post_init__(self):
        object.__setattr__(self, "kind", AttackKind(self.kind))
        if not 0.0 <= self.sub_rate <= 1.0:
            raise ValueError("sub_rate must lie in [0, 1]")
        if not 0.0 < self.accept_scale <= 1.0:
            raise ValueError("accept_scale must lie in (0, 1]")
        if self.lookahead < 1:
            raise ValueError("lookahead must be >= 1")


@dataclass
class SpecDecStats:
    """Acceptance bookkeeping over evaluated draft proposals.  The bonus
    token appended after a fully accepted run is not a draft proposal and
    is excluded."""

    n_evaluated: int = 0
    n_rejected: int = 0
    accepted_run_lengths: Counter = field(default_factory=Counter)

    @property
    def rejection_rate(self) -> float:
        if self.n_evaluated == 0:
            return 0.0
        return self.n_rejected / self.n_evaluated

    def to_dict(self) -> dict:
        return {
            "n_evaluated": self.n_evaluated,
            "n_rejected": self.n_rejected,
            "rejection_rate": self.rejection_rate,
            "accepted_run_lengths": {str(k): v for k, v in sorted(self.accepted_run_lengths.items())},
        }


def merge_specdec_stats(parts) -> SpecDecStats:
    total = SpecDecStats()
    for s in parts:
        total.n_evaluated += s.n_evaluated
        total.n_rejected += s.n_rejected
        total.accepted_run_lengths.update(s.accepted_run_lengths)
    return total


def substitute(
    text: GeneratedText, rate: float, rng: np.random.Generator | int, vocab_size: int
) -> GeneratedText:
    """Replace each non-prompt token independently with probability ``rate``
    by a uniformly random different token.  Length and prompt are preserved."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError("rate must lie in [0, 1]")
    if vocab_size < 2:
        raise ValueError("substitution needs at least two tokens in the vocabulary")
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    cont = np.array(text.continuation, dtype=np.int64)
    flips = rng.random(len(cont)) < rate
    # Uniform over the other vocab_size - 1 tokens: shift draws at or above
    # the original up by one.
    repl = rng.integers(0, vocab_size - 1, size=len(cont))
    repl = repl + (repl >= cont)
    new = np.where(flips, repl, cont)
    return GeneratedText(
        tokens=text.tokens[: text.prompt_len] + tuple(int(t) for t in new),
        prompt_len=text.prompt_len,
    )


def _draft_q(model, key: WatermarkKey, history: list[int], scheme: Scheme) -> NtpDistribution:
    """Watermarked next-token law of the draft decoder at this step, as an
    explicit vector usable in the target's accept test."""
    ctx = context_window(history, key.k)
    P = model.next(history)
    vocab = len(P)
    if scheme is Scheme.GUMBEL:
        # Deterministic argmax given key material: Q is one-hot.
        token = gumbel_max_step_full(P, key, ctx).token
        q = np.zeros(vocab)
        q[token] = 1.0
        return NtpDistribution(q)
    if scheme is Scheme.MC:
        weights, _ = _mc_weights(P.probs, green_mask(key, ctx, vocab), derive_zeta(key, ctx))
        return NtpDistribution(weights / weights.sum())
    raise ValueError(f"specdec drafts support mc and gumbel schemes, got {scheme.value}")


def specdec_postprocess(
    draft_model,
    target_model,
    key: WatermarkKey,
    config: AttackConfig,
    scheme: Scheme,
    prompt: GeneratedText,
    n: int,
    aux: RngStream,
    accept_rng: np.random.Generator | int,
) -> tuple[GeneratedText, SpecDecStats]:
    """Generate ``n`` tokens by speculative decoding: the watermarked draft
    proposes up to ``lookahead`` tokens per round, the target accepts a
    prefix under the scaled rejection rule and resamples the first rejected
    position from the excess.

    Models must derive their distribution from the passed history (replay
    sources with internal cursors would desynchronize between draft and
    target).  A fully accepted run earns one bonus token sampled from the
    target; it does not count as an evaluated proposal.
    """
    scheme = Scheme(scheme)
    if draft_model.vocab_size != target_model.vocab_size:
        raise VocabMismatch("draft and target models must share a vocabulary")
    if n < 1:
        raise ValueError("n must be >= 1")
    if isinstance(accept_rng, (int, np.integer)):
        accept_rng = np.random.default_rng(accept_rng)

    def accept_u() -> float:
        return float(accept_rng.random())

    history: list[int] = list(prompt.tokens)
    stats = SpecDecStats()
    target_n = len(prompt.tokens) + n
    while len(history) < target_n:
        lookahead = min(config.lookahead, target_n - len(history))
        draft_hist = list(history)
        proposals: list[tuple[int, NtpDistribution]] = []
        for _ in range(lookahead):
            q = _draft_q(draft_model, key, draft_hist, scheme)
            w = categorical_from_uniform(q.probs, aux.next_uniform())
            proposals.append((w, q))
            draft_hist.append(w)
        accepted = 0
        rejected = False
        for w, q in proposals:
            p = target_model.next(history)
            stats.n_evaluated += 1
            token, ok = accept_or_resample(p, q, w, accept_u(), accept_u, config.accept_scale)
            history.append(token)
            if ok:
                accepted += 1
                continue
            stats.n_rejected += 1
            rejected = True
            break
        if not rejected and len(history) < target_n:
            # Bonus token from the target after a fully accepted run.
            p = target_model.next(history)
            history.append(categorical_from_uniform(p.probs, accept_u()))
        stats.accepted_run_lengths[accepted] += 1
    text = GeneratedText(tokens=tuple(history[:target_n]), prompt_len=len(prompt.tokens))
    return text, stats
