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
speculative-decoding draft reads its law from the same kernels.  Kernels
over a V-length row select by multiplication (P times a membership mask
or a factor looked up by membership) or by a ufunc's ``where=``, not by
``np.where``, which costs several times more at V = 32k; on a finite law
both give the same bits.  Plain draws, both for unwatermarked texts and
for repeated contexts under masking, are made only in :func:`generate`.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .core import GeneratedText, RngStream, context_window, counter_uniforms
from .keying import (
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
    "DecoderConfig",
    "StepResult",
    "GenerationResult",
    "categorical_from_uniform",
    "sample_rejection_coupling",
    "accept_or_resample",
    "mc_soft_q",
    "generate",
    "sample_mc_batch",
    "sample_gumbel_batch",
    "sample_soft_batch",
    "sample_dipmark_batch",
    "VocabMismatch",
    "DegenerateExcess",
]


class VocabMismatch(ValueError):
    """Raised when two distributions cover different vocabularies."""


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


# The largest soft bias whose factor e^delta is a finite float; a NaN bias
# fails the range check too.
_MAX_DELTA = math.log(sys.float_info.max)


@dataclass(frozen=True)
class DecoderConfig:
    """Scheme selection and its hyperparameters."""

    scheme: Scheme
    delta: float | None = None
    alpha_dip: float | None = None
    masking: bool = True

    def __post_init__(self):
        object.__setattr__(self, "scheme", Scheme(self.scheme))
        # None means not given: a scheme refuses a parameter it would ignore.
        if self.scheme in (Scheme.MC_SOFT, Scheme.SOFT):
            if self.delta is None or not 0.0 <= self.delta <= _MAX_DELTA:
                raise ValueError(f"scheme {self.scheme.value} needs delta in [0, {_MAX_DELTA!r}]")
        elif self.delta is not None:
            raise ValueError(f"delta applies to the soft and mc-soft schemes, not {self.scheme.value}")
        if self.scheme is Scheme.DIPMARK:
            if self.alpha_dip is None or not 0.0 <= self.alpha_dip < 0.5:
                raise ValueError("dipmark requires alpha_dip in [0, 0.5)")
        elif self.alpha_dip is not None:
            raise ValueError(f"alpha_dip applies to the dipmark scheme, not {self.scheme.value}")


@dataclass(frozen=True)
class StepResult:
    """One decoding step with its diagnostics."""

    token: int
    masked: bool
    branch: Branch | None = None
    green_mass: float | None = None
    zero_green: bool = False

    def to_dict(self) -> dict:
        """The step's diagnostics, as a text record lists them: every field
        but the token.  A :class:`Branch` is a str enum; JSON writes its value."""
        return {name: getattr(self, name) for name in _DIAGNOSTICS}


_DIAGNOSTICS = tuple(f.name for f in fields(StepResult) if f.name != "token")


@dataclass(frozen=True)
class GenerationResult:
    text: GeneratedText
    steps: tuple[StepResult, ...]


def categorical_from_uniform(weights: np.ndarray, u: float) -> int:
    """Inverse-CDF draw over nonnegative weights in token-index order.

    Deterministic given ``u``; zero-weight tokens are never returned.
    """
    cdf = np.add.accumulate(weights)  # np.cumsum's loop, without its wrapper
    total = cdf[-1]
    if total <= 0.0:
        raise ValueError("categorical draw over all-zero weights")
    idx = int(cdf.searchsorted(u * total, side="right"))
    if idx >= len(weights):
        idx = int(np.flatnonzero(weights)[-1])
    return idx


def sample_rejection_coupling(
    P: np.ndarray, Q: np.ndarray, zeta: float, aux: RngStream
) -> tuple[int, bool]:
    """One-draw rejection form of the coupling: draw w ~ Q via ``aux``, keep
    it iff ``zeta * Q_w <= P_w``, else resample from the normalized excess
    max(0, P - Q).

    At uniform ``zeta`` the token marginal equals P and the acceptance
    probability equals sum(min(P, Q)).  Unlike the two-branch coupling (the
    overlap min(P, Q) when zeta <= sum(min(P, Q)), the excess otherwise) the
    joint law of (zeta, token) makes ``zeta`` conditionally uniform on
    [0, P_w/Q_w]-style intervals, which is what the soft coupling decoder
    needs.
    """
    if len(P) != len(Q):
        raise VocabMismatch(f"vocab sizes differ: {len(P)} vs {len(Q)}")
    w = categorical_from_uniform(Q, aux.next_uniform())
    return accept_or_resample(P, Q, w, zeta, aux.next_uniform)


def accept_or_resample(
    P: np.ndarray,
    Q: np.ndarray,
    w: int,
    zeta: float,
    resample_u: Callable[[], float],
    accept_scale: float = 1.0,
) -> tuple[int, bool]:
    """Accept test of the rejection coupling for a proposal ``w ~ Q``: keep
    it iff ``accept_scale * zeta * Q_w <= P_w``, else draw from the
    normalized excess max(0, P - Q) with one uniform from ``resample_u``,
    which is called only on rejection."""
    if accept_scale * zeta * Q[w] <= P[w]:
        return w, True
    excess = np.maximum(P - Q, 0.0)
    if float(excess.sum()) <= 0.0:
        raise DegenerateExcess("rejection with zero excess mass")
    return categorical_from_uniform(excess, resample_u()), False


def mc_soft_q(P: np.ndarray, green: np.ndarray, delta: float) -> np.ndarray:
    """Soft green/red reweighting Q_w = e^delta P_w / C on green, P_w / C on
    red, with C = 1 + (e^delta - 1) P_green."""
    c = 1.0 + (math.exp(delta) - 1.0) * _green_mass(P, green)
    q = _soft_weights(P, green, delta) / c
    q.setflags(write=False)
    return q


def _soft_weights(probs: np.ndarray, green: np.ndarray, delta: float) -> np.ndarray:
    """Unnormalized soft reweight e^delta P_w on green, P_w on red, for one
    membership row or an (n, V) matrix of them: P times a factor looked up
    by membership, 1 on red and e^delta on green."""
    return probs * np.array([1.0, math.exp(delta)])[green.astype(np.intp)]


def _green_mass(P: np.ndarray, green: np.ndarray) -> float:
    """P_green of one law: ``P[green].sum()``, compacted by ``np.compress``,
    which builds the same array and so gives the same bits, faster."""
    return float(np.compress(green, P).sum())


def _mc_weights(probs: np.ndarray, green: np.ndarray, zeta) -> tuple[np.ndarray, np.ndarray]:
    """Closed form of the maximal coupling of P with its green-conditional
    restriction Q_w = P_w 1{w green} / P_green, for one membership row and
    pivot or an (n, V) matrix and (n,) pivots.

    Returns the unnormalized token weights and the green mass
    P_green = sum(P on green).  One product P * green gives both: it is the
    overlap min(P, Q), of mass P_green, taken when zeta <= P_green; on the
    other side it is replaced in place by P - P * green, the excess
    max(0, P - Q), which is also P itself when P_green = 0.  That has the
    bits of a masked select: P - P = +0.0 on green, P - 0.0 = P on red.
    """
    weights = probs * green
    mass = np.add.reduce(weights, axis=-1)
    excess = np.asarray((mass < zeta) | (mass == 0.0))[..., None]
    return np.subtract(probs, weights, out=weights, where=excess), mass


def mc_step_full(P: np.ndarray, key: WatermarkKey, ctx, aux: RngStream) -> StepResult:
    """Hard-list coupling step: the token is green-conditional when
    zeta <= P_green and red-conditional otherwise (see :func:`_mc_weights`);
    with no green mass it is a plain draw flagged ``zero_green``."""
    zeta = derive_zeta(key, ctx)
    weights, mass = _mc_weights(P, green_mask(key, ctx, len(P)), zeta)
    token = categorical_from_uniform(weights, aux.next_uniform())
    if mass == 0.0:
        return StepResult(token=token, masked=False, green_mass=0.0, zero_green=True)
    branch = Branch.OVERLAP if zeta <= mass else Branch.EXCESS
    return StepResult(token=token, masked=False, branch=branch, green_mass=float(mass))


def mc_soft_step_full(
    P: np.ndarray, key: WatermarkKey, ctx, aux: RngStream, delta: float
) -> StepResult:
    """Coupling against the soft Q via rejection: conditioned on a green
    token, the pivot is uniform on [0, P_green + (1 - P_green) e^-delta]."""
    green = green_mask(key, ctx, len(P))
    mass = _green_mass(P, green)
    zeta = derive_zeta(key, ctx)
    Q = mc_soft_q(P, green, delta)
    token, accepted = sample_rejection_coupling(P, Q, zeta, aux)
    return StepResult(
        token=token,
        masked=False,
        branch=Branch.OVERLAP if accepted else Branch.EXCESS,
        green_mass=mass,
        zero_green=mass == 0.0,
    )


def gumbel_max_step_full(P: np.ndarray, key: WatermarkKey, ctx) -> StepResult:
    """Deterministic Gumbel-max decoder: argmax_w log(U_w) / P_w with U from
    the context-seeded stream, ordered by token index.  Zero-probability
    tokens are excluded from the argmax."""
    seed = np.array([derive_seed(key, ctx, ZETA_TAG)], dtype=np.uint64)
    return StepResult(token=int(_gumbel_argmax(P, seed)[0]), masked=False)


def _gumbel_argmax(P: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """argmax_w log(U_w) / P_w per ZETA seed, U_w being draw w + 1 of the
    seed's stream.  As U_w < 1, log(U_w) < 0, so a token with P_w = 0
    scores -inf and never wins; the divisor is |P|, because a law may hold
    -0.0 (``-0.0 < 0`` is false), which would score +inf."""
    u = counter_uniforms(seeds[:, None], np.arange(1, len(P) + 1, dtype=np.uint64)[None, :])
    with np.errstate(divide="ignore"):
        scores = np.log(u) / np.abs(P)
    return scores.argmax(axis=1).astype(np.int64)


def soft_step_full(
    P: np.ndarray, key: WatermarkKey, ctx, aux: RngStream, delta: float
) -> StepResult:
    """Plain soft green/red watermark: sample from the reweighted Q.  This
    scheme is biased; the marginal does not equal P for delta > 0."""
    green = green_mask(key, ctx, len(P))
    token = categorical_from_uniform(_soft_weights(P, green, delta), aux.next_uniform())
    return StepResult(token=token, masked=False, green_mass=_green_mass(P, green))


def _dipmark_reweight(p_order: np.ndarray, alpha_dip: float) -> np.ndarray:
    """DiPmark masses in ordering space, for one row of P along a reversed
    keyed permutation or an (n, V) matrix of them: with S_i the cumulative
    mass, position i gets F_i - F_{i-1} where
    F_i = max(S_i - alpha, 0) + max(S_i - (1 - alpha), 0).

    Averaged over uniformly random permutations the token law equals P for
    any alpha in [0, 0.5]; a single permutation shifts mass toward its head,
    which is the green set the green-count detector looks for.
    """
    s = np.cumsum(p_order, axis=-1)
    f = np.maximum(s - alpha_dip, 0.0) + np.maximum(s - (1.0 - alpha_dip), 0.0)
    return np.clip(np.diff(f, axis=-1, prepend=0.0), 0.0, None)


def dipmark_step_full(
    P: np.ndarray, key: WatermarkKey, ctx, aux: RngStream, alpha_dip: float
) -> StepResult:
    """Distribution-preserving reweighting over the keyed permutation; see
    :func:`_dipmark_reweight` for the construction."""
    perm = keyed_permutation(key, ctx, len(P))
    # Draw in ordering space (not token space) so the batch sampler can
    # reproduce the exact same inverse-CDF lookup.
    order = perm[::-1]
    q_order = _dipmark_reweight(P[order], alpha_dip)
    token = int(order[categorical_from_uniform(q_order, aux.next_uniform())])
    mass = float(P[perm_head(perm, key.gamma)].sum())
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
    seen: set[tuple[int, ...]] = set()
    steps: list[StepResult] = []
    for _ in range(n):
        ctx = context_window(history, key.k)
        P = model.next(history)
        if config is None or (config.masking and ctx in seen):
            token = categorical_from_uniform(P, aux.next_uniform())
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
        seen.add(ctx)
        steps.append(step)
        history.append(step.token)
    text = GeneratedText(tokens=tuple(history), prompt_len=len(prompt.tokens))
    return GenerationResult(text=text, steps=() if config is None else tuple(steps))


def _categorical_batch(weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Row-wise inverse-CDF draws; mirrors :func:`categorical_from_uniform`."""
    cdf = np.cumsum(weights, axis=1)
    total = cdf[:, -1]
    if np.any(total <= 0.0):
        raise ValueError("categorical draw over all-zero weights")
    x = u * total
    hit = cdf > x[:, None]
    idx = hit.argmax(axis=1)
    stuck = ~hit.any(axis=1)
    if stuck.any():
        for row in np.flatnonzero(stuck):
            idx[row] = np.flatnonzero(weights[row])[-1]
    return idx.astype(np.int64)


def sample_mc_batch(
    P: np.ndarray, key: WatermarkKey, ctxs: np.ndarray, u_aux: np.ndarray
) -> np.ndarray:
    """Vectorized hard-list coupling over (n, k) contexts with one aux
    uniform per row; matches :func:`mc_step_full` token-for-token."""
    green = green_mask_batch(key, ctxs, len(P))
    weights, _ = _mc_weights(P, green, derive_zeta_batch(key, ctxs))
    return _categorical_batch(weights, u_aux)


def sample_gumbel_batch(P: np.ndarray, key: WatermarkKey, ctxs: np.ndarray) -> np.ndarray:
    """Vectorized Gumbel-max decoding; matches :func:`gumbel_max_step_full`."""
    return _gumbel_argmax(P, derive_seed_batch(key, ctxs, ZETA_TAG))


def sample_soft_batch(
    P: np.ndarray, key: WatermarkKey, ctxs: np.ndarray, u_aux: np.ndarray, delta: float
) -> np.ndarray:
    """Vectorized soft green/red sampling; matches :func:`soft_step_full`."""
    weights = _soft_weights(P, green_mask_batch(key, ctxs, len(P)), delta)
    return _categorical_batch(weights, u_aux)


def sample_dipmark_batch(
    P: np.ndarray, key: WatermarkKey, ctxs: np.ndarray, u_aux: np.ndarray, alpha_dip: float
) -> np.ndarray:
    """Vectorized DiPmark sampling; matches :func:`dipmark_step_full`."""
    seeds = derive_seed_batch(key, ctxs, PERM_TAG)
    order = keyed_permutation_batch(seeds, len(P))[:, ::-1]
    idx = _categorical_batch(_dipmark_reweight(P[order], alpha_dip), u_aux)
    return order[np.arange(order.shape[0]), idx]
