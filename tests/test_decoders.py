"""Decoder behavior: coupling branches, marginal preservation, pivot laws,
and exact scalar/batch agreement."""

import json
import math
from dataclasses import dataclass

import numpy as np
import pytest
from scipy import stats as sstats

from wmkit.attacks import _draft_q
from wmkit.cli import text_from_record, text_record
from wmkit.core import GeneratedText, RngStream, context_window, counter_uniforms, make_ntp
from wmkit.decoders import (
    _MAX_DELTA,
    Branch,
    DecoderConfig,
    DegenerateExcess,
    Scheme,
    _categorical_batch,
    _dipmark_reweight,
    _green_mass,
    _gumbel_argmax,
    _mc_weights,
    _soft_weights,
    categorical_from_uniform,
    dipmark_step_full,
    generate,
    gumbel_max_step_full,
    mc_soft_q,
    mc_soft_step_full,
    mc_step_full,
    sample_dipmark_batch,
    sample_gumbel_batch,
    sample_mc_batch,
    sample_rejection_coupling,
    sample_soft_batch,
    soft_step_full,
    VocabMismatch,
)
from wmkit.keying import (
    ZETA_TAG,
    WatermarkKey,
    derive_seed_batch,
    derive_zeta,
    green_mask,
    green_mask_batch,
    is_green,
)
from wmkit.lm import MarkovSource

KEY = WatermarkKey(master=0x9E3779B97F4A7C15, k=2, gamma=0.5, green_mode="hash")
PERM_KEY = WatermarkKey(master=0xABCDEF, k=2, gamma=0.5, green_mode="perm")


class FixedStream:
    """Deterministic aux stand-in: pops scripted uniforms."""

    def __init__(self, values):
        self.values = list(values)

    def next_uniform(self):
        return self.values.pop(0)


class FixedModel:
    """Model stand-in: the same next-token law after every history."""

    def __init__(self, probs):
        self.P = make_ntp(probs)
        self.vocab_size = len(self.P)

    def next(self, history):
        return self.P


# Reference forms of the coupling laws that the decoder kernels compute in
# closed form: the explicit two-branch maximal coupling, the hard-list
# restriction Q it couples P with, and the token-indexed DiPmark law.


class ZeroGreenMass(Exception):
    """Signals that the green list carries no probability mass; callers fall
    back to sampling from the unmodified distribution."""


@dataclass(frozen=True)
class CouplingOutcome:
    """Token plus which coupling branch produced it."""

    token: int
    branch: Branch
    overlap_mass: float


def sample_maximal_coupling(P, Q, zeta, aux):
    """Maximal-coupling token draw: overlap branch when ``zeta`` falls below
    the overlap mass sum(min(P, Q)), excess branch max(0, P - Q) otherwise.

    With ``zeta ~ U[0, 1)`` independent of ``aux`` the token marginal is
    exactly P.
    """
    if len(P) != len(Q):
        raise VocabMismatch(f"vocab sizes differ: {len(P)} vs {len(Q)}")
    overlap = np.minimum(P, Q)
    p = float(overlap.sum())
    if zeta <= p:
        token = categorical_from_uniform(overlap, aux.next_uniform())
        return CouplingOutcome(token=token, branch=Branch.OVERLAP, overlap_mass=p)
    excess = np.maximum(P - Q, 0.0)
    if float(excess.sum()) <= 0.0:
        raise DegenerateExcess("excess branch entered with zero excess mass")
    token = categorical_from_uniform(excess, aux.next_uniform())
    return CouplingOutcome(token=token, branch=Branch.EXCESS, overlap_mass=p)


def hard_list_q(P, green):
    """Green-conditional restriction of P: Q_w = P_w 1{w green} / P_green.

    Raises :class:`ZeroGreenMass` when the green list carries no mass; the
    caller then samples from P unmodified.
    """
    mass = float(P[green].sum())
    if mass <= 0.0:
        raise ZeroGreenMass
    q = np.where(green, P / mass, 0.0)
    q.setflags(write=False)
    return q


def dipmark_q(P, perm, alpha_dip):
    """Token-indexed DiPmark law: :func:`wmkit.decoders._dipmark_reweight`
    along the reversed permutation, scattered back to token order."""
    order = perm[::-1]
    q = np.zeros(len(order))
    q[order] = _dipmark_reweight(P[order], alpha_dip)
    return q


def masked_mc_weights(probs, green, zeta):
    """Reference for :func:`wmkit.decoders._mc_weights`, written with masked
    selects: P on the pivot's side, P itself at zero green mass."""
    mass = np.where(green, probs, 0.0).sum(axis=-1)
    side = np.where(np.asarray(zeta <= mass)[..., None], green, ~green)
    keep = side | np.asarray(mass == 0.0)[..., None]
    return np.where(keep, probs, 0.0), mass


def masked_soft_weights(probs, green, delta):
    """Reference for :func:`wmkit.decoders._soft_weights`."""
    return np.where(green, probs * math.exp(delta), probs)


def masked_gumbel_argmax(P, seeds):
    """Reference for :func:`wmkit.decoders._gumbel_argmax`: scores only the
    tokens with P > 0, every other token scores -inf."""
    u = counter_uniforms(seeds[:, None], np.arange(1, len(P) + 1, dtype=np.uint64)[None, :])
    scores = np.full(u.shape, -np.inf)
    pos = P > 0.0
    scores[:, pos] = np.log(u[:, pos]) / P[pos]
    return scores.argmax(axis=1).astype(np.int64)


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _sparse_law(rng, vocab):
    # About half the tokens have probability exactly zero.
    probs = rng.dirichlet(np.ones(vocab)) * (rng.random(vocab) < 0.5)
    probs[rng.integers(vocab)] += 0.1
    return make_ntp(probs)


def _contexts(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2**20, size=(n, KEY.k))


class TestCategorical:
    def test_inverse_cdf_intervals(self):
        w = np.array([0.25, 0.25, 0.5])
        assert categorical_from_uniform(w, 0.0) == 0
        assert categorical_from_uniform(w, 0.2499) == 0
        assert categorical_from_uniform(w, 0.25) == 1
        assert categorical_from_uniform(w, 0.4999) == 1
        assert categorical_from_uniform(w, 0.5) == 2
        assert categorical_from_uniform(w, 0.9999) == 2

    def test_zero_weight_never_chosen(self):
        w = np.array([0.0, 1.0, 0.0])
        for u in np.linspace(0, 0.999999, 50):
            assert categorical_from_uniform(w, u) == 1

    def test_top_of_range_clamps_to_last_positive(self):
        w = np.array([0.5, 0.5, 0.0])
        assert categorical_from_uniform(w, 1.0 - 1e-16) == 1

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            categorical_from_uniform(np.zeros(3), 0.5)

    @pytest.mark.parametrize(
        "w,us",
        [
            ([0.25, 0.25, 0.5], [0.0, 0.2499, 0.25, 0.4999, 0.5, 0.9999]),
            ([0.0, 1.0, 0.0], np.linspace(0, 0.999999, 50)),
            # u = 1.0 puts u * total at the top of the CDF, past every bin.
            ([0.5, 0.5, 0.0], [1.0 - 1e-16, 1.0]),
            # Markov rows, whose float CDFs the scalar and batch draws must
            # accumulate bit for bit to agree at every u.
            *(
                (MarkovSource(order=0, vocab_size=v, seed=5).next([]), np.linspace(0.0, 1.0, 257))
                for v in (64, 32_000)
            ),
        ],
        ids=["intervals", "zero-weight", "top-clamp", "markov-v64", "markov-v32k"],
    )
    def test_batch_picks_the_scalar_index(self, w, us):
        weights = np.tile(np.array(w), (len(us), 1))
        got = _categorical_batch(weights, np.asarray(us))
        assert got.tolist() == [categorical_from_uniform(np.array(w), u) for u in us]

    def test_batch_all_zero_row_rejected(self):
        # Refused as the scalar draw refuses it, not an IndexError.
        weights = np.array([[0.5, 0.5, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="all-zero weights"):
            _categorical_batch(weights, np.array([0.3, 0.3]))


class TestRestrictions:
    def test_hard_list_hand_values(self):
        P = make_ntp([0.2, 0.3, 0.5])
        q = hard_list_q(P, np.array([True, False, True]))
        assert np.allclose(q, [2 / 7, 0.0, 5 / 7], atol=1e-12)

    def test_hard_list_zero_mass(self):
        P = make_ntp([1.0, 0.0])
        with pytest.raises(ZeroGreenMass):
            hard_list_q(P, np.array([False, True]))

    def test_soft_q_hand_values(self):
        P = make_ntp([0.1, 0.9])
        q0 = mc_soft_q(P, np.array([True, False]), 1.0)
        assert np.allclose(q0, [0.23196931668407395, 0.768030683315926], atol=1e-12)
        q1 = mc_soft_q(P, np.array([False, True]), 1.0)
        assert np.allclose(q1, [0.039270300550050576, 0.9607296994499496], atol=1e-12)

    def test_soft_q_delta_zero_is_identity(self):
        P = make_ntp([0.2, 0.3, 0.5])
        q = mc_soft_q(P, np.array([True, False, True]), 0.0)
        assert np.allclose(q, P, atol=1e-15)

    def test_dipmark_hand_values(self):
        P = make_ntp([0.6, 0.4])
        assert np.allclose(dipmark_q(P, np.array([1, 0]), 0.45), [0.2, 0.8], atol=1e-12)
        assert np.allclose(dipmark_q(P, np.array([0, 1]), 0.45), [1.0, 0.0], atol=1e-12)

    def test_dipmark_unbiased_over_permutations(self):
        # Averaging the reweighted law over all orderings recovers P exactly.
        from itertools import permutations

        rng = np.random.default_rng(3)
        P = make_ntp(rng.dirichlet(np.ones(4)))
        for alpha in (0.0, 0.2, 0.45):
            avg = np.mean(
                [dipmark_q(P, np.array(perm), alpha) for perm in permutations(range(4))],
                axis=0,
            )
            assert np.allclose(avg, P, atol=1e-12)

    def test_dipmark_alpha_zero_is_identity(self):
        rng = np.random.default_rng(4)
        P = make_ntp(rng.dirichlet(np.ones(6)))
        perm = rng.permutation(6)
        assert np.allclose(dipmark_q(P, perm, 0.0), P, atol=1e-12)


class TestMaximalCoupling:
    def test_identical_distributions_always_overlap(self):
        P = make_ntp([0.3, 0.7])
        for zeta in (0.01, 0.5, 0.999):
            out = sample_maximal_coupling(P, P, zeta, RngStream(1))
            assert out.branch is Branch.OVERLAP
            assert out.overlap_mass == pytest.approx(1.0)

    def test_disjoint_supports_always_excess(self):
        P = make_ntp([1.0, 0.0])
        Q = make_ntp([0.0, 1.0])
        out = sample_maximal_coupling(P, Q, 0.5, RngStream(1))
        assert out.branch is Branch.EXCESS
        assert out.token == 0
        assert out.overlap_mass == 0.0

    def test_hand_pair_branches(self):
        P = make_ntp([0.2, 0.3, 0.5])
        Q = make_ntp([0.5, 0.5, 0.0])
        # overlap = (0.2, 0.3, 0), mass 0.5; excess = (0, 0, 0.5)
        out = sample_maximal_coupling(P, Q, 0.7, FixedStream([0.5]))
        assert (out.branch, out.token) == (Branch.EXCESS, 2)
        out = sample_maximal_coupling(P, Q, 0.3, FixedStream([0.0]))
        assert (out.branch, out.token) == (Branch.OVERLAP, 0)
        out = sample_maximal_coupling(P, Q, 0.3, FixedStream([0.99]))
        assert (out.branch, out.token) == (Branch.OVERLAP, 1)
        assert out.overlap_mass == pytest.approx(0.5)

    def test_marginal_is_p(self):
        rng = np.random.default_rng(7)
        P = make_ntp(rng.dirichlet(np.ones(5) * 2))
        Q = make_ntp(rng.dirichlet(np.ones(5) * 2))
        n = 40_000
        counts = np.zeros(5)
        aux = RngStream(99)
        for zeta in rng.random(n):
            counts[sample_maximal_coupling(P, Q, float(zeta), aux).token] += 1
        assert sstats.chisquare(counts, P * n).pvalue > 1e-3

    def test_hard_list_branch_is_green_membership(self):
        rng = np.random.default_rng(8)
        for trial in range(50):
            P = make_ntp(rng.dirichlet(np.ones(8)))
            green = rng.random(8) < 0.5
            if not P[green].sum() or P[green].sum() >= 1.0:
                continue
            Q = hard_list_q(P, green)
            zeta = float(rng.random())
            out = sample_maximal_coupling(P, Q, zeta, RngStream(trial))
            mass = float(P[green].sum())
            assert (out.branch is Branch.OVERLAP) == (zeta <= mass)
            assert bool(green[out.token]) == (out.branch is Branch.OVERLAP)


class TestRejectionCoupling:
    def test_p_equals_q_always_accepts(self):
        P = make_ntp([0.4, 0.6])
        for zeta in (0.1, 0.5, 0.99):
            _, accepted = sample_rejection_coupling(P, P, zeta, RngStream(3))
            assert accepted

    def test_vocabulary_mismatch_rejected(self):
        with pytest.raises(VocabMismatch, match="vocab sizes differ: 2 vs 3"):
            sample_rejection_coupling(make_ntp([0.5, 0.5]), make_ntp([0.2, 0.3, 0.5]), 0.5,
                                      RngStream(3))

    def test_one_hot_q_hand_case(self):
        P = make_ntp([0.5, 0.5])
        Q = make_ntp([1.0, 0.0])
        # Draft token is always 0; accept iff zeta <= 0.5, else excess gives 1.
        tok, acc = sample_rejection_coupling(P, Q, 0.4, FixedStream([0.3]))
        assert (tok, acc) == (0, True)
        tok, acc = sample_rejection_coupling(P, Q, 0.6, FixedStream([0.3, 0.5]))
        assert (tok, acc) == (1, False)

    def test_marginal_is_p_at_scale_one(self):
        rng = np.random.default_rng(11)
        P = make_ntp(rng.dirichlet(np.ones(6) * 2))
        Q = make_ntp(rng.dirichlet(np.ones(6) * 2))
        n = 40_000
        counts = np.zeros(6)
        accepts = 0
        aux = RngStream(5)
        for zeta in rng.random(n):
            tok, acc = sample_rejection_coupling(P, Q, float(zeta), aux)
            counts[tok] += 1
            accepts += acc
        assert sstats.chisquare(counts, P * n).pvalue > 1e-3
        p_accept = float(np.minimum(P, Q).sum())
        assert abs(accepts / n - p_accept) < 3 * math.sqrt(p_accept * (1 - p_accept) / n)


class TestStepFunctions:
    def test_mc_unbiased_chi2(self):
        rng = np.random.default_rng(21)
        P = make_ntp(rng.dirichlet(np.ones(16) * 3))
        n = 50_000
        ctxs = np.stack([np.arange(n), np.full(n, 9)], axis=1)
        u_aux = rng.random(n)
        tokens = sample_mc_batch(P, KEY, ctxs, u_aux)
        counts = np.bincount(tokens, minlength=16)
        assert sstats.chisquare(counts, P * n).pvalue > 1e-3

    def test_gumbel_unbiased_chi2(self):
        rng = np.random.default_rng(22)
        P = make_ntp(rng.dirichlet(np.ones(16) * 3))
        n = 50_000
        ctxs = np.stack([np.arange(n), np.full(n, 4)], axis=1)
        tokens = sample_gumbel_batch(P, KEY, ctxs)
        counts = np.bincount(tokens, minlength=16)
        assert sstats.chisquare(counts, P * n).pvalue > 1e-3

    def test_dipmark_unbiased_chi2(self):
        rng = np.random.default_rng(23)
        P = make_ntp(rng.dirichlet(np.ones(16) * 3))
        n = 50_000
        ctxs = np.stack([np.arange(n), np.full(n, 2)], axis=1)
        tokens = sample_dipmark_batch(P, PERM_KEY, ctxs, rng.random(n), 0.45)
        counts = np.bincount(tokens, minlength=16)
        assert sstats.chisquare(counts, P * n).pvalue > 1e-3

    def test_mc_soft_unbiased_chi2(self):
        rng = np.random.default_rng(24)
        P = make_ntp(rng.dirichlet(np.ones(8) * 3))
        n = 20_000
        counts = np.zeros(8)
        aux = RngStream(77)
        for i in range(n):
            step = mc_soft_step_full(P, KEY, (i, 5), aux, 1.0)
            counts[step.token] += 1
        assert sstats.chisquare(counts, P * n).pvalue > 1e-3

    def test_soft_bias_matches_analysis(self):
        # Binary P(1)=0.9, delta=1, one green token chosen uniformly per
        # context: analysis gives expected P(1) = 0.8644.
        P = make_ntp([0.1, 0.9])
        n = 100_000
        rng = np.random.default_rng(25)
        ctxs = np.stack([np.arange(n), np.zeros(n, dtype=np.int64)], axis=1)
        tokens = sample_soft_batch(P, PERM_KEY, ctxs, rng.random(n), 1.0)
        assert 0.8544 <= tokens.mean() <= 0.8744

    def test_green_pivot_uniform_on_green_mass(self):
        # Hard list with fixed green mass 0.7: pivot | green ~ U[0, 0.7] and
        # folded pivot | red ~ U[0, 0.3].
        P = make_ntp([0.3, 0.35, 0.35])
        green = np.array([False, True, True])
        Q = hard_list_q(P, green)
        n = 10_000
        rng = np.random.default_rng(26)
        aux = RngStream(13)
        green_z, red_z = [], []
        for zeta in rng.random(n):
            out = sample_maximal_coupling(P, Q, float(zeta), aux)
            if green[out.token]:
                green_z.append(zeta)
            else:
                red_z.append(1.0 - zeta)
        assert sstats.kstest(np.array(green_z) / 0.7, "uniform").pvalue > 0.01
        assert sstats.kstest(np.array(red_z) / 0.3, "uniform").pvalue > 0.01

    def test_soft_green_pivot_uniform_on_extended_mass(self):
        # Soft coupling, green mass 0.7, delta 1: pivot | green token is
        # uniform on [0, 0.7 + 0.3/e].
        P = make_ntp([0.3, 0.35, 0.35])
        green = np.array([False, True, True])
        Q = mc_soft_q(P, green, 1.0)
        bound = 0.7 + 0.3 / math.e
        n = 10_000
        rng = np.random.default_rng(27)
        aux = RngStream(14)
        green_z = []
        for zeta in rng.random(n):
            tok, _ = sample_rejection_coupling(P, Q, float(zeta), aux)
            if green[tok]:
                green_z.append(zeta)
        assert max(green_z) <= bound + 1e-12
        assert sstats.kstest(np.array(green_z) / bound, "uniform").pvalue > 0.01

    def test_zero_green_falls_back_to_p(self):
        P = make_ntp([1.0, 0.0])
        ctx = None
        for c in range(500):
            mask = green_mask(KEY, (c, c), 2)
            if not mask[0]:
                ctx = (c, c)
                break
        assert ctx is not None
        step = mc_step_full(P, KEY, ctx, RngStream(1))
        assert step.zero_green and step.token == 0 and step.green_mass == 0.0

    def test_gumbel_deterministic_and_skips_zero_prob(self):
        P = make_ntp([0.5, 0.5, 0.0])
        for c in range(200):
            step = gumbel_max_step_full(P, KEY, (c, 1))
            assert step.token != 2
            assert step.token == gumbel_max_step_full(P, KEY, (c, 1)).token


class TestMcOracle:
    def test_closed_form_matches_reference_coupling(self):
        # The one hard-list kernel, as the step and as the specdec draft law,
        # against sample_maximal_coupling over hard_list_q.  Sparse rows make
        # zero green mass common.
        rng = np.random.default_rng(41)
        zero_green = 0
        for trial in range(400):
            vocab = int(rng.integers(2, 10))
            probs = rng.dirichlet(np.ones(vocab)) * (rng.random(vocab) < 0.5)
            probs[rng.integers(vocab)] += 0.1
            P = make_ntp(probs)
            ctx = tuple(int(t) for t in rng.integers(0, 2**20, size=KEY.k))
            green = green_mask(KEY, ctx, vocab)
            zeta = derive_zeta(KEY, ctx)
            step = mc_step_full(P, KEY, ctx, RngStream(trial))
            draft = _draft_q(FixedModel(P), KEY, list(ctx), Scheme.MC)
            try:
                Q = hard_list_q(P, green)
            except ZeroGreenMass:
                zero_green += 1
                plain = categorical_from_uniform(P, RngStream(trial).next_uniform())
                assert (step.token, step.branch, step.green_mass) == (plain, None, 0.0)
                assert step.zero_green
                assert np.allclose(draft, P, rtol=1e-12, atol=0.0)
                continue
            out = sample_maximal_coupling(P, Q, zeta, RngStream(trial))
            assert (step.token, step.branch, step.green_mass) == (
                out.token, out.branch, out.overlap_mass
            )
            assert not step.zero_green
            side = green if out.branch is Branch.OVERLAP else ~green
            ref = hard_list_q(P, side)
            assert np.array_equal(draft > 0, ref > 0)
            assert np.allclose(draft, ref, rtol=1e-12, atol=0.0)
        assert 20 <= zero_green <= 380


class TestKernelReferences:
    # Each kernel against its masked-select form, bit for bit.

    def test_mc_weights_one_row(self):
        rng = np.random.default_rng(51)
        cases = 0
        for trial in range(300):
            vocab = int(rng.integers(2, 40))
            P = _sparse_law(rng, vocab)
            green = rng.random(vocab) < 0.5
            if trial % 3 == 0:
                green &= P == 0.0  # zero green mass
            mass = masked_mc_weights(P, green, 0.0)[1]
            for zeta in (float(rng.random()), float(mass), 0.0, 1.0 - 2**-53):
                weights, got_mass = _mc_weights(P, green, zeta)
                ref_weights, ref_mass = masked_mc_weights(P, green, zeta)
                assert _same_bits(weights, ref_weights) and _same_bits(got_mass, ref_mass)
                cases += 1
        assert cases == 1200

    def test_mc_weights_matrix(self):
        rng = np.random.default_rng(52)
        P = _sparse_law(rng, 500)
        green = green_mask_batch(KEY, _contexts(64, seed=52), 500)
        green[:8] &= P == 0.0  # zero green mass
        mass = masked_mc_weights(P, green, np.zeros(64))[1]
        zeta = rng.random(64)
        zeta[8:16] = mass[8:16]  # zeta == mass, the overlap side
        weights, got_mass = _mc_weights(P, green, zeta)
        ref_weights, ref_mass = masked_mc_weights(P, green, zeta)
        assert _same_bits(weights, ref_weights) and _same_bits(got_mass, ref_mass)
        assert np.all(got_mass[:8] == 0.0) and np.array_equal(weights[:8], np.tile(P, (8, 1)))

    def test_mc_weights_matrix_on_one_side(self):
        # A batch with every row on one side keeps the masked select's bits.
        rng = np.random.default_rng(54)
        P = _sparse_law(rng, 500)
        green = green_mask_batch(KEY, _contexts(32, seed=54), 500)
        for zeta, excess in ((np.full(32, 1.0 - 2**-53), True), (np.zeros(32), False)):
            weights, got_mass = _mc_weights(P, green, zeta)
            ref_weights, ref_mass = masked_mc_weights(P, green, zeta)
            assert _same_bits(weights, ref_weights) and _same_bits(got_mass, ref_mass)
            assert np.all(((ref_mass < zeta) | (ref_mass == 0.0)) == excess)

    @pytest.mark.parametrize("delta", [0.0, 1.5, _MAX_DELTA])
    def test_soft_weights(self, delta):
        rng = np.random.default_rng(53)
        P = _sparse_law(rng, 700)
        green = green_mask_batch(KEY, _contexts(16, seed=53), 700)
        assert _same_bits(_soft_weights(P, green, delta), masked_soft_weights(P, green, delta))
        assert _same_bits(_soft_weights(P, green[0], delta), masked_soft_weights(P, green[0], delta))

    @pytest.mark.parametrize("vocab", [1, 7, 64, 32000])
    def test_green_mass(self, vocab):
        rng = np.random.default_rng(vocab)
        P = make_ntp(rng.dirichlet(np.ones(vocab)))
        for green in (rng.random(vocab) < 0.3, np.zeros(vocab, bool), np.ones(vocab, bool)):
            assert _same_bits(_green_mass(P, green), float(P[green].sum()))

    @pytest.mark.parametrize("vocab", [3, 64, 5000])
    def test_gumbel_argmax_with_zero_probability_tokens(self, vocab):
        rng = np.random.default_rng(54)
        P = _sparse_law(rng, vocab)
        seeds = derive_seed_batch(KEY, _contexts(500, seed=vocab), ZETA_TAG)
        tokens = _gumbel_argmax(P, seeds)
        assert np.array_equal(tokens, masked_gumbel_argmax(P, seeds))
        assert np.all(P[tokens] > 0.0)

    def test_gumbel_never_emits_a_negative_zero_token(self):
        # make_ntp keeps the -0.0, which log(U) / P would score +inf.
        P = make_ntp([-0.0, 0.5, 0.5])
        assert np.signbit(P[0])
        ctxs = _contexts(199, seed=55)
        assert np.all(sample_gumbel_batch(P, KEY, ctxs) != 0)
        for ctx in ctxs:
            assert gumbel_max_step_full(P, KEY, tuple(int(t) for t in ctx)).token != 0


class TestBatchAgreement:
    N = 300

    def test_mc_and_gumbel_at_v131072(self):
        rng = np.random.default_rng(35)
        P = _sparse_law(rng, 131072)
        ctxs = _contexts(6, seed=35)
        u_aux = np.array([RngStream(4000 + i).value_at(1) for i in range(6)])
        mc = sample_mc_batch(P, KEY, ctxs, u_aux)
        gumbel = sample_gumbel_batch(P, KEY, ctxs)
        for i in range(6):
            ctx = tuple(int(t) for t in ctxs[i])
            assert mc_step_full(P, KEY, ctx, RngStream(4000 + i)).token == mc[i]
            assert gumbel_max_step_full(P, KEY, ctx).token == gumbel[i]

    def test_mc(self):
        rng = np.random.default_rng(31)
        P = make_ntp(rng.dirichlet(np.ones(12)))
        ctxs = _contexts(self.N, seed=31)
        u_aux = np.array([RngStream(1000 + i).value_at(1) for i in range(self.N)])
        batch = sample_mc_batch(P, KEY, ctxs, u_aux)
        for i in range(self.N):
            step = mc_step_full(P, KEY, tuple(ctxs[i]), RngStream(1000 + i))
            assert step.token == batch[i]

    def test_gumbel(self):
        rng = np.random.default_rng(32)
        P = make_ntp(rng.dirichlet(np.ones(12)))
        ctxs = _contexts(self.N, seed=32)
        batch = sample_gumbel_batch(P, KEY, ctxs)
        for i in range(self.N):
            assert gumbel_max_step_full(P, KEY, tuple(ctxs[i])).token == batch[i]

    def test_soft(self):
        rng = np.random.default_rng(33)
        P = make_ntp(rng.dirichlet(np.ones(12)))
        ctxs = _contexts(self.N, seed=33)
        u_aux = np.array([RngStream(2000 + i).value_at(1) for i in range(self.N)])
        batch = sample_soft_batch(P, KEY, ctxs, u_aux, 1.5)
        for i in range(self.N):
            step = soft_step_full(P, KEY, tuple(ctxs[i]), RngStream(2000 + i), 1.5)
            assert step.token == batch[i]

    def test_dipmark(self):
        rng = np.random.default_rng(34)
        P = make_ntp(rng.dirichlet(np.ones(12)))
        ctxs = _contexts(self.N, seed=34)
        u_aux = np.array([RngStream(3000 + i).value_at(1) for i in range(self.N)])
        batch = sample_dipmark_batch(P, PERM_KEY, ctxs, u_aux, 0.45)
        for i in range(self.N):
            step = dipmark_step_full(P, PERM_KEY, tuple(ctxs[i]), RngStream(3000 + i), 0.45)
            assert step.token == batch[i]


class TestConfig:
    def test_soft_schemes_need_delta(self):
        with pytest.raises(ValueError):
            DecoderConfig(scheme="soft")
        with pytest.raises(ValueError):
            DecoderConfig(scheme="mc-soft", delta=-0.5)
        # e^delta must be a finite float: NaN, infinity and 710 are refused.
        for scheme in ("soft", "mc-soft"):
            for delta in (float("nan"), float("inf"), 710.0):
                with pytest.raises(ValueError):
                    DecoderConfig(scheme=scheme, delta=delta)
        assert DecoderConfig(scheme="soft", delta=1.0).delta == 1.0
        assert DecoderConfig(scheme="soft", delta=709.0).delta == 709.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"scheme": "mc", "delta": 5.0},
            {"scheme": "gumbel", "delta": 0.0},
            {"scheme": "dipmark", "alpha_dip": 0.3, "delta": 1.0},
            {"scheme": "mc", "alpha_dip": 0.3},
            {"scheme": "soft", "delta": 1.0, "alpha_dip": 0.0},
        ],
    )
    def test_parameter_the_scheme_ignores_is_refused(self, kwargs):
        with pytest.raises(ValueError, match="applies to the"):
            DecoderConfig(**kwargs)

    def test_dipmark_needs_alpha(self):
        with pytest.raises(ValueError):
            DecoderConfig(scheme="dipmark")
        with pytest.raises(ValueError):
            DecoderConfig(scheme="dipmark", alpha_dip=0.5)
        assert DecoderConfig(scheme="dipmark", alpha_dip=0.45).alpha_dip == 0.45

    def test_scheme_coerced_from_string(self):
        assert DecoderConfig(scheme="mc").scheme is Scheme.MC


class TestGeneration:
    def _model(self):
        return MarkovSource(order=2, vocab_size=32, seed=5)

    def test_deterministic(self):
        model = self._model()
        cfg = DecoderConfig(scheme="mc")
        prompt = GeneratedText(tokens=(1, 2), prompt_len=2)
        a = generate(model, KEY, cfg, prompt, 40, RngStream(9))
        b = generate(self._model(), KEY, cfg, prompt, 40, RngStream(9))
        assert a.text.tokens == b.text.tokens

    def test_branch_matches_membership_and_pivot(self):
        model = self._model()
        cfg = DecoderConfig(scheme="mc", masking=False)
        prompt = GeneratedText(tokens=(3, 4), prompt_len=2)
        res = generate(model, KEY, cfg, prompt, 200, RngStream(10))
        history = list(prompt.tokens)
        for step in res.steps:
            ctx = context_window(history, KEY.k)
            if not step.zero_green:
                green = is_green(KEY, ctx, step.token)
                zeta = derive_zeta(KEY, ctx)
                assert green == (step.branch is Branch.OVERLAP)
                assert green == (zeta <= step.green_mass + 1e-15)
            history.append(step.token)

    def test_repeated_context_masked(self):
        key0 = WatermarkKey(master=77, k=0, gamma=0.5, green_mode="hash")
        model = MarkovSource(order=1, vocab_size=8, seed=2)
        res = generate(model, key0, DecoderConfig(scheme="mc"), GeneratedText((), 0), 10, RngStream(3))
        assert res.steps[0].masked is False
        assert all(s.masked for s in res.steps[1:])

    def test_masked_step_samples_plain(self):
        # k = 0: every step after the first repeats the empty context, so it
        # takes one plain draw from P and has no branch.
        key0 = WatermarkKey(master=77, k=0, gamma=0.5, green_mode="hash")
        model = FixedModel([0.5, 0.5])
        res = generate(model, key0, DecoderConfig(scheme="mc"), GeneratedText((), 0), 2,
                       FixedStream([0.1, 0.7]))
        assert not res.steps[0].masked
        step = res.steps[1]
        assert step.masked and step.branch is None and step.token == 1

    def test_plain_without_config(self):
        model = FixedModel([0.25, 0.25, 0.5])
        res = generate(model, KEY, None, GeneratedText((1, 2), 2), 3, FixedStream([0.9, 0.3, 0.1]))
        assert res.text.tokens == (1, 2, 2, 1, 0)
        assert res.steps == ()

    @pytest.mark.parametrize("config", [None, DecoderConfig(scheme="mc")])
    def test_nothing_to_generate_is_refused(self, config):
        with pytest.raises(ValueError, match="n must be >= 1"):
            generate(self._model(), KEY, config, GeneratedText((1, 2), 2), 0, RngStream(0))

    def test_masking_off_never_masks(self):
        key0 = WatermarkKey(master=77, k=0, gamma=0.5, green_mode="hash")
        model = MarkovSource(order=1, vocab_size=8, seed=2)
        cfg = DecoderConfig(scheme="mc", masking=False)
        res = generate(model, key0, cfg, GeneratedText((), 0), 10, RngStream(3))
        assert not any(s.masked for s in res.steps)

    def test_record_round_trip(self):
        model = self._model()
        cfg = DecoderConfig(scheme="dipmark", alpha_dip=0.45)
        prompt = GeneratedText(tokens=(0, 1), prompt_len=2)
        res = generate(model, PERM_KEY, cfg, prompt, 15, RngStream(4))
        record = text_record(
            0, res.text, cfg.scheme.value, model.vocab_size, True,
            diagnostics=[step.to_dict() for step in res.steps],
        )
        rec = json.loads(json.dumps(record, allow_nan=False))
        assert list(rec) == ["text_id", "tokens", "prompt_len", "scheme", "vocab_size",
                             "watermarked", "diagnostics"]
        assert rec["scheme"] == "dipmark" and rec["watermarked"] is True
        assert len(rec["diagnostics"]) == 15
        assert list(rec["diagnostics"][0]) == ["masked", "branch", "green_mass", "zero_green"]
        text = text_from_record(rec)
        assert text.tokens == res.text.tokens
        assert text.prompt_len == 2

    def test_all_schemes_produce_n_tokens(self):
        model = self._model()
        prompt = GeneratedText(tokens=(5, 6), prompt_len=2)
        for cfg in (
            DecoderConfig(scheme="mc"),
            DecoderConfig(scheme="mc-soft", delta=1.0),
            DecoderConfig(scheme="gumbel"),
            DecoderConfig(scheme="soft", delta=1.0),
            DecoderConfig(scheme="dipmark", alpha_dip=0.45),
        ):
            key = PERM_KEY if cfg.scheme is Scheme.DIPMARK else KEY
            res = generate(model, key, cfg, prompt, 12, RngStream(8))
            assert len(res.text.tokens) == 14
            assert res.text.prompt_len == 2
