"""Watermarked next-token samplers and the autoregressive generation loop.

The main decoder couples the model distribution P with a green-list
restriction Q through maximal coupling: a keyed pivot uniform picks the
overlap branch (min(P, Q), all green for the hard list) or the excess
branch (all red), so the token marginal stays exactly P while the pivot
carries the detectable signal.  Baselines: Gumbel-max, the soft
green/red-list reweighting (biased), and DiPmark reweighting over a keyed
permutation.  A soft variant of the coupling decoder keeps a small
probability of red tokens via rejection sampling against the soft Q.

Each token law is written once, as a kernel over one row or many: the
hard-list coupling weights (:func:`_mc_weights`), the soft reweight, the
Gumbel argmax and the DiPmark reweight.  The step functions run a kernel on
one context; the batch samplers (``*_batch``) run it on an array of
contexts, so statistical tests on 1e5 samples take seconds, and the
speculative-decoding draft reads its law from the same kernels.  Plain
draws, both for unwatermarked texts and for repeated contexts under
masking, are made only in :func:`generate`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import GeneratedText, NtpDistribution, RngStream, context_window, counter_uniforms
from .keying import (
    MaskLedger,
    WatermarkKey,
    PERM_TAG,
    ZETA_TAG,
    derive_seed,
    derive_seed_batch,
    derive_zeta,
    derive_zeta_batch,
    green_mask,
    green_mask_batch,
    keyed_permutation,
    keyed_permutation_batch,
    perm_head,
)

__all__ = [
    "Scheme",
    "Branch",
    "CouplingOutcome",
    "DecoderConfig",
    "StepResult",
    "GenerationResult",
    "categorical_from_uniform",
    "sample_maximal_coupling",
    "sample_rejection_coupling",
    "accept_or_resample",
    "hard_list_q",
    "mc_soft_q",
    "dipmark_q",
    "generate",
    "to_record",
    "text_from_record",
    "sample_mc_batch",
    "sample_gumbel_batch",
    "sample_soft_batch",
    "sample_dipmark_batch",
    "VocabMismatch",
    "ZeroGreenMass",
    "DegenerateExcess",
]


class VocabMismatch(ValueError):
    """Raised when two distributions cover different vocabularies."""


class ZeroGreenMass(Exception):
    """Signals that the green list carries no probability mass; callers fall
    back to sampling from the unmodified distribution."""


class DegenerateExcess(RuntimeError):
    """Raised if the excess branch is entered with no excess mass available."""


class Scheme(str, enum.Enum):
    MC = "mc"
    MC_SOFT = "mc-soft"
    GUMBEL = "gumbel"
    SOFT = "soft"
    DIPMARK = "dipmark"


class Branch(str, enum.Enum):
    OVERLAP = "OVERLAP"
    EXCESS = "EXCESS"


@dataclass(frozen=True)
class CouplingOutcome:
    """Token plus which coupling branch produced it."""

    token: int
    branch: Branch
    overlap_mass: float


@dataclass(frozen=True)
class DecoderConfig:
    """Scheme selection and its hyperparameters."""

    scheme: Scheme
    delta: float | None = None
    alpha_dip: float | None = None
    masking: bool = True

    def __post_init__(self):
        object.__setattr__(self, "scheme", Scheme(self.scheme))
        if self.scheme in (Scheme.MC_SOFT, Scheme.SOFT):
            if self.delta is None or self.delta < 0:
                raise ValueError(f"scheme {self.scheme.value} requires delta >= 0")
        if self.scheme is Scheme.DIPMARK:
            if self.alpha_dip is None or not 0.0 <= self.alpha_dip < 0.5:
                raise ValueError("dipmark requires alpha_dip in [0, 0.5)")


@dataclass(frozen=True)
class StepResult:
    """One decoding step with its diagnostics."""

    token: int
    masked: bool
    branch: Branch | None = None
    green_mass: float | None = None
    zero_green: bool = False


@dataclass(frozen=True)
class GenerationResult:
    text: GeneratedText
    steps: tuple[StepResult, ...]
    scheme: Scheme | None


def categorical_from_uniform(weights: np.ndarray, u: float) -> int:
    """Inverse-CDF draw over nonnegative weights in token-index order.

    Deterministic given ``u``; zero-weight tokens are never returned.
    """
    cdf = np.cumsum(weights)
    total = cdf[-1]
    if total <= 0.0:
        raise ValueError("categorical draw over all-zero weights")
    idx = int(np.searchsorted(cdf, u * total, side="right"))
    if idx >= len(weights):
        idx = int(np.flatnonzero(weights)[-1])
    return idx


def _check_vocab(P: NtpDistribution, Q: NtpDistribution) -> None:
    if len(P) != len(Q):
        raise VocabMismatch(f"vocab sizes differ: {len(P)} vs {len(Q)}")


def sample_maximal_coupling(
    P: NtpDistribution, Q: NtpDistribution, zeta: float, aux: RngStream
) -> CouplingOutcome:
    """Maximal-coupling token draw: overlap branch when ``zeta`` falls below
    the overlap mass sum(min(P, Q)), excess branch max(0, P - Q) otherwise.

    With ``zeta ~ U[0, 1)`` independent of ``aux`` the token marginal is
    exactly P.
    """
    _check_vocab(P, Q)
    overlap = np.minimum(P.probs, Q.probs)
    p = float(overlap.sum())
    if zeta <= p:
        token = categorical_from_uniform(overlap, aux.next_uniform())
        return CouplingOutcome(token=token, branch=Branch.OVERLAP, overlap_mass=p)
    excess = np.maximum(P.probs - Q.probs, 0.0)
    if float(excess.sum()) <= 0.0:
        raise DegenerateExcess("excess branch entered with zero excess mass")
    token = categorical_from_uniform(excess, aux.next_uniform())
    return CouplingOutcome(token=token, branch=Branch.EXCESS, overlap_mass=p)


def sample_rejection_coupling(
    P: NtpDistribution,
    Q: NtpDistribution,
    zeta: float,
    aux: RngStream,
    accept_scale: float = 1.0,
) -> tuple[int, bool]:
    """One-draw rejection form of the coupling: draw w ~ Q via ``aux``, keep
    it iff ``accept_scale * zeta * Q_w <= P_w``, else resample from the
    normalized excess max(0, P - Q).

    At ``accept_scale = 1`` and uniform ``zeta`` the token marginal equals P
    and the acceptance probability equals sum(min(P, Q)).  Unlike
    :func:`sample_maximal_coupling` the joint law of (zeta, token) makes
    ``zeta`` conditionally uniform on [0, P_w/Q_w]-style intervals, which is
    what the soft coupling decoder needs.
    """
    _check_vocab(P, Q)
    w = categorical_from_uniform(Q.probs, aux.next_uniform())
    return accept_or_resample(P, Q, w, zeta, aux.next_uniform, accept_scale)


def accept_or_resample(
    P: NtpDistribution,
    Q: NtpDistribution,
    w: int,
    zeta: float,
    resample_u: Callable[[], float],
    accept_scale: float = 1.0,
) -> tuple[int, bool]:
    """Accept test of the rejection coupling for a proposal ``w ~ Q``: keep
    it iff ``accept_scale * zeta * Q_w <= P_w``, else draw from the
    normalized excess max(0, P - Q) with one uniform from ``resample_u``,
    which is called only on rejection."""
    if accept_scale * zeta * Q.probs[w] <= P.probs[w]:
        return w, True
    excess = np.maximum(P.probs - Q.probs, 0.0)
    if float(excess.sum()) <= 0.0:
        raise DegenerateExcess("rejection with zero excess mass")
    return categorical_from_uniform(excess, resample_u()), False


def hard_list_q(P: NtpDistribution, green: np.ndarray) -> NtpDistribution:
    """Green-conditional restriction of P: Q_w = P_w 1{w green} / P_green.

    Raises :class:`ZeroGreenMass` when the green list carries no mass; the
    caller then samples from P unmodified.
    """
    mass = float(P.probs[green].sum())
    if mass <= 0.0:
        raise ZeroGreenMass
    q = np.where(green, P.probs / mass, 0.0)
    q.setflags(write=False)
    return NtpDistribution(q)


def mc_soft_q(P: NtpDistribution, green: np.ndarray, delta: float) -> NtpDistribution:
    """Soft green/red reweighting Q_w = e^delta P_w / C on green, P_w / C on
    red, with C = 1 + (e^delta - 1) P_green."""
    c = 1.0 + (math.exp(delta) - 1.0) * float(P.probs[green].sum())
    q = _soft_weights(P.probs, green, delta) / c
    q.setflags(write=False)
    return NtpDistribution(q)


def _soft_weights(probs: np.ndarray, green: np.ndarray, delta: float) -> np.ndarray:
    """Unnormalized soft reweight e^delta P_w on green, P_w on red, for one
    membership row or an (n, V) matrix of them."""
    return np.where(green, probs * math.exp(delta), probs)


def _mc_weights(probs: np.ndarray, green: np.ndarray, zeta) -> tuple[np.ndarray, np.ndarray]:
    """Closed form of the hard-list maximal coupling, for one membership row
    and pivot or an (n, V) matrix and (n,) pivots.

    Returns the unnormalized token weights and the green mass
    P_green = sum(P on green): P on green when zeta <= P_green (the overlap
    branch of :func:`sample_maximal_coupling` against :func:`hard_list_q`),
    P on red otherwise (its excess branch), and P itself when P_green = 0.
    """
    mass = np.where(green, probs, 0.0).sum(axis=-1)
    side = np.where(np.asarray(zeta <= mass)[..., None], green, ~green)
    keep = side | np.asarray(mass == 0.0)[..., None]
    return np.where(keep, probs, 0.0), mass


def mc_step_full(P: NtpDistribution, key: WatermarkKey, ctx, aux: RngStream) -> StepResult:
    """Hard-list coupling step: the token is green-conditional when
    zeta <= P_green and red-conditional otherwise (see :func:`_mc_weights`);
    with no green mass it is a plain draw flagged ``zero_green``."""
    zeta = derive_zeta(key, ctx)
    weights, mass = _mc_weights(P.probs, green_mask(key, ctx, len(P)), zeta)
    token = categorical_from_uniform(weights, aux.next_uniform())
    if mass == 0.0:
        return StepResult(token=token, masked=False, green_mass=0.0, zero_green=True)
    branch = Branch.OVERLAP if zeta <= mass else Branch.EXCESS
    return StepResult(token=token, masked=False, branch=branch, green_mass=float(mass))


def mc_soft_step_full(
    P: NtpDistribution, key: WatermarkKey, ctx, aux: RngStream, delta: float
) -> StepResult:
    """Coupling against the soft Q via rejection: conditioned on a green
    token, the pivot is uniform on [0, P_green + (1 - P_green) e^-delta]."""
    green = green_mask(key, ctx, len(P))
    mass = float(P.probs[green].sum())
    zeta = derive_zeta(key, ctx)
    Q = mc_soft_q(P, green, delta)
    token, accepted = sample_rejection_coupling(P, Q, zeta, aux, accept_scale=1.0)
    return StepResult(
        token=token,
        masked=False,
        branch=Branch.OVERLAP if accepted else Branch.EXCESS,
        green_mass=mass,
        zero_green=mass == 0.0,
    )


def gumbel_max_step_full(P: NtpDistribution, key: WatermarkKey, ctx) -> StepResult:
    """Deterministic Gumbel-max decoder: argmax_w log(U_w) / P_w with U from
    the context-seeded stream, ordered by token index.  Zero-probability
    tokens are excluded from the argmax."""
    seed = np.array([derive_seed(key, ctx, ZETA_TAG)], dtype=np.uint64)
    return StepResult(token=int(_gumbel_argmax(P, seed)[0]), masked=False)


def _gumbel_argmax(P: NtpDistribution, seeds: np.ndarray) -> np.ndarray:
    """argmax_w log(U_w) / P_w per ZETA seed, U_w being draw w + 1 of the
    seed's stream; zero-probability tokens never win."""
    u = counter_uniforms(seeds[:, None], np.arange(1, len(P) + 1, dtype=np.uint64)[None, :])
    scores = np.full(u.shape, -np.inf)
    pos = P.probs > 0.0
    scores[:, pos] = np.log(u[:, pos]) / P.probs[pos]
    return scores.argmax(axis=1).astype(np.int64)


def soft_step_full(
    P: NtpDistribution, key: WatermarkKey, ctx, aux: RngStream, delta: float
) -> StepResult:
    """Plain soft green/red watermark: sample from the reweighted Q.  This
    scheme is biased; the marginal does not equal P for delta > 0."""
    green = green_mask(key, ctx, len(P))
    token = categorical_from_uniform(_soft_weights(P.probs, green, delta), aux.next_uniform())
    return StepResult(token=token, masked=False, green_mass=float(P.probs[green].sum()))


def dipmark_q(P: NtpDistribution, perm: np.ndarray, alpha_dip: float) -> np.ndarray:
    """Token-indexed reweighted distribution: with S_i the cumulative mass
    along the reversed permutation, position i gets F_i - F_{i-1} where
    F_i = max(S_i - alpha, 0) + max(S_i - (1 - alpha), 0).

    Averaged over uniformly random permutations the result equals P for any
    alpha in [0, 0.5]; a single permutation shifts mass toward its head,
    which is the green set the green-count detector looks for.
    """
    order = perm[::-1]
    q = np.zeros(len(order))
    q[order] = _dipmark_reweight(P.probs[order], alpha_dip)
    return q


def _dipmark_reweight(p_order: np.ndarray, alpha_dip: float) -> np.ndarray:
    """DiPmark masses in ordering space: rows of P along reversed keyed
    permutations in, rows of F_i - F_{i-1} out (see :func:`dipmark_q`)."""
    s = np.cumsum(p_order, axis=-1)
    f = np.maximum(s - alpha_dip, 0.0) + np.maximum(s - (1.0 - alpha_dip), 0.0)
    return np.clip(np.diff(f, axis=-1, prepend=0.0), 0.0, None)


def dipmark_step_full(
    P: NtpDistribution, key: WatermarkKey, ctx, aux: RngStream, alpha_dip: float
) -> StepResult:
    """Distribution-preserving reweighting over the keyed permutation; see
    :func:`dipmark_q` for the construction."""
    perm = keyed_permutation(key, ctx, len(P))
    # Draw in ordering space (not token space) so the batch sampler can
    # reproduce the exact same inverse-CDF lookup.
    order = perm[::-1]
    q_order = _dipmark_reweight(P.probs[order], alpha_dip)
    token = int(order[categorical_from_uniform(q_order, aux.next_uniform())])
    mass = float(P.probs[perm_head(perm, key.gamma)].sum())
    return StepResult(token=token, masked=False, green_mass=mass)


def generate(
    model,
    key: WatermarkKey,
    config: DecoderConfig | None,
    prompt: GeneratedText,
    n: int,
    aux: RngStream,
) -> GenerationResult:
    """Autoregressively append ``n`` tokens to the prompt with the configured
    scheme, recording per-step diagnostics.

    Under masking, a context already seen in this text gets a plain draw
    from P (one ``aux`` uniform), recorded as a masked step.  With
    ``config=None`` every token is a plain draw and no step is recorded.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    history: list[int] = list(prompt.tokens)
    ledger = MaskLedger()
    steps: list[StepResult] = []
    for _ in range(n):
        ctx = context_window(history, key.k)
        P = model.next(history)
        if config is None or (config.masking and not ledger.check_and_record(ctx)):
            token = categorical_from_uniform(P.probs, aux.next_uniform())
            step = StepResult(token=token, masked=True)
        elif config.scheme is Scheme.MC:
            step = mc_step_full(P, key, ctx, aux)
        elif config.scheme is Scheme.MC_SOFT:
            step = mc_soft_step_full(P, key, ctx, aux, config.delta)
        elif config.scheme is Scheme.GUMBEL:
            step = gumbel_max_step_full(P, key, ctx)
        elif config.scheme is Scheme.SOFT:
            step = soft_step_full(P, key, ctx, aux, config.delta)
        else:
            step = dipmark_step_full(P, key, ctx, aux, config.alpha_dip)
        steps.append(step)
        history.append(step.token)
    text = GeneratedText(tokens=tuple(history), prompt_len=len(prompt.tokens))
    if config is None:
        return GenerationResult(text=text, steps=(), scheme=None)
    return GenerationResult(text=text, steps=tuple(steps), scheme=config.scheme)


def to_record(result: GenerationResult, vocab_size: int) -> dict:
    """JSON-serializable record for one generated text; a text without a
    scheme is recorded as unwatermarked ``plain``."""
    return {
        "tokens": list(result.text.tokens),
        "prompt_len": result.text.prompt_len,
        "scheme": "plain" if result.scheme is None else result.scheme.value,
        "vocab_size": vocab_size,
        "watermarked": result.scheme is not None,
        "diagnostics": [
            {
                "masked": s.masked,
                "branch": s.branch.value if s.branch is not None else None,
                "green_mass": s.green_mass,
                "zero_green": s.zero_green,
            }
            for s in result.steps
        ],
    }


def text_from_record(record: dict) -> GeneratedText:
    return GeneratedText(tokens=tuple(record["tokens"]), prompt_len=record.get("prompt_len", 0))


def _categorical_batch(weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Row-wise inverse-CDF draws; mirrors :func:`categorical_from_uniform`."""
    cdf = np.cumsum(weights, axis=1)
    total = cdf[:, -1]
    x = u * total
    hit = cdf > x[:, None]
    idx = hit.argmax(axis=1)
    stuck = ~hit.any(axis=1)
    if stuck.any():
        for row in np.flatnonzero(stuck):
            idx[row] = np.flatnonzero(weights[row])[-1]
    return idx.astype(np.int64)


def sample_mc_batch(
    P: NtpDistribution, key: WatermarkKey, ctxs: np.ndarray, u_aux: np.ndarray
) -> np.ndarray:
    """Vectorized hard-list coupling over (n, k) contexts with one aux
    uniform per row; matches :func:`mc_step_full` token-for-token."""
    green = green_mask_batch(key, ctxs, len(P))
    weights, _ = _mc_weights(P.probs, green, derive_zeta_batch(key, ctxs))
    return _categorical_batch(weights, u_aux)


def sample_gumbel_batch(P: NtpDistribution, key: WatermarkKey, ctxs: np.ndarray) -> np.ndarray:
    """Vectorized Gumbel-max decoding; matches :func:`gumbel_max_step_full`."""
    return _gumbel_argmax(P, derive_seed_batch(key, ctxs, ZETA_TAG))


def sample_soft_batch(
    P: NtpDistribution, key: WatermarkKey, ctxs: np.ndarray, u_aux: np.ndarray, delta: float
) -> np.ndarray:
    """Vectorized soft green/red sampling; matches :func:`soft_step_full`."""
    weights = _soft_weights(P.probs, green_mask_batch(key, ctxs, len(P)), delta)
    return _categorical_batch(weights, u_aux)


def sample_dipmark_batch(
    P: NtpDistribution, key: WatermarkKey, ctxs: np.ndarray, u_aux: np.ndarray, alpha_dip: float
) -> np.ndarray:
    """Vectorized DiPmark sampling; matches :func:`dipmark_step_full`."""
    seeds = derive_seed_batch(key, ctxs, PERM_TAG)
    order = keyed_permutation_batch(seeds, len(P))[:, ::-1]
    idx = _categorical_batch(_dipmark_reweight(P.probs[order], alpha_dip), u_aux)
    return order[np.arange(order.shape[0]), idx]
