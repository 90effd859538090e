"""Decoder behavior: coupling branches, marginal preservation, pivot laws,
and exact scalar/batch agreement."""

import math

import numpy as np
import pytest
from scipy import stats as sstats

from wmkit.attacks import _draft_q
from wmkit.core import GeneratedText, RngStream, context_window, make_ntp
from wmkit.decoders import (
    Branch,
    DecoderConfig,
    Scheme,
    ZeroGreenMass,
    categorical_from_uniform,
    dipmark_q,
    dipmark_step_full,
    generate,
    gumbel_max_step_full,
    hard_list_q,
    mc_soft_q,
    mc_soft_step_full,
    mc_step_full,
    sample_dipmark_batch,
    sample_gumbel_batch,
    sample_maximal_coupling,
    sample_mc_batch,
    sample_rejection_coupling,
    sample_soft_batch,
    soft_step_full,
    text_from_record,
    to_record,
)
from wmkit.keying import WatermarkKey, derive_zeta, green_mask, is_green
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


class TestRestrictions:
    def test_hard_list_hand_values(self):
        P = make_ntp([0.2, 0.3, 0.5])
        q = hard_list_q(P, np.array([True, False, True])).probs
        assert np.allclose(q, [2 / 7, 0.0, 5 / 7], atol=1e-12)

    def test_hard_list_zero_mass(self):
        P = make_ntp([1.0, 0.0])
        with pytest.raises(ZeroGreenMass):
            hard_list_q(P, np.array([False, True]))

    def test_soft_q_hand_values(self):
        P = make_ntp([0.1, 0.9])
        q0 = mc_soft_q(P, np.array([True, False]), 1.0).probs
        assert np.allclose(q0, [0.23196931668407395, 0.768030683315926], atol=1e-12)
        q1 = mc_soft_q(P, np.array([False, True]), 1.0).probs
        assert np.allclose(q1, [0.039270300550050576, 0.9607296994499496], atol=1e-12)

    def test_soft_q_delta_zero_is_identity(self):
        P = make_ntp([0.2, 0.3, 0.5])
        q = mc_soft_q(P, np.array([True, False, True]), 0.0).probs
        assert np.allclose(q, P.probs, atol=1e-15)

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
            assert np.allclose(avg, P.probs, atol=1e-12)

    def test_dipmark_alpha_zero_is_identity(self):
        rng = np.random.default_rng(4)
        P = make_ntp(rng.dirichlet(np.ones(6)))
        perm = rng.permutation(6)
        assert np.allclose(dipmark_q(P, perm, 0.0), P.probs, atol=1e-12)


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
        assert sstats.chisquare(counts, P.probs * n).pvalue > 1e-3

    def test_hard_list_branch_is_green_membership(self):
        rng = np.random.default_rng(8)
        for trial in range(50):
            P = make_ntp(rng.dirichlet(np.ones(8)))
            green = rng.random(8) < 0.5
            if not P.probs[green].sum() or P.probs[green].sum() >= 1.0:
                continue
            Q = hard_list_q(P, green)
            zeta = float(rng.random())
            out = sample_maximal_coupling(P, Q, zeta, RngStream(trial))
            mass = float(P.probs[green].sum())
            assert (out.branch is Branch.OVERLAP) == (zeta <= mass)
            assert bool(green[out.token]) == (out.branch is Branch.OVERLAP)


class TestRejectionCoupling:
    def test_p_equals_q_always_accepts(self):
        P = make_ntp([0.4, 0.6])
        for zeta in (0.1, 0.5, 0.99):
            _, accepted = sample_rejection_coupling(P, P, zeta, RngStream(3))
            assert accepted

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
        assert sstats.chisquare(counts, P.probs * n).pvalue > 1e-3
        p_accept = float(np.minimum(P.probs, Q.probs).sum())
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
        assert sstats.chisquare(counts, P.probs * n).pvalue > 1e-3

    def test_gumbel_unbiased_chi2(self):
        rng = np.random.default_rng(22)
        P = make_ntp(rng.dirichlet(np.ones(16) * 3))
        n = 50_000
        ctxs = np.stack([np.arange(n), np.full(n, 4)], axis=1)
        tokens = sample_gumbel_batch(P, KEY, ctxs)
        counts = np.bincount(tokens, minlength=16)
        assert sstats.chisquare(counts, P.probs * n).pvalue > 1e-3

    def test_dipmark_unbiased_chi2(self):
        rng = np.random.default_rng(23)
        P = make_ntp(rng.dirichlet(np.ones(16) * 3))
        n = 50_000
        ctxs = np.stack([np.arange(n), np.full(n, 2)], axis=1)
        tokens = sample_dipmark_batch(P, PERM_KEY, ctxs, rng.random(n), 0.45)
        counts = np.bincount(tokens, minlength=16)
        assert sstats.chisquare(counts, P.probs * n).pvalue > 1e-3

    def test_mc_soft_unbiased_chi2(self):
        rng = np.random.default_rng(24)
        P = make_ntp(rng.dirichlet(np.ones(8) * 3))
        n = 20_000
        counts = np.zeros(8)
        aux = RngStream(77)
        for i in range(n):
            step = mc_soft_step_full(P, KEY, (i, 5), aux, 1.0)
            counts[step.token] += 1
        assert sstats.chisquare(counts, P.probs * n).pvalue > 1e-3

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
            draft = _draft_q(FixedModel(P.probs), KEY, list(ctx), Scheme.MC).probs
            try:
                Q = hard_list_q(P, green)
            except ZeroGreenMass:
                zero_green += 1
                plain = categorical_from_uniform(P.probs, RngStream(trial).next_uniform())
                assert (step.token, step.branch, step.green_mass) == (plain, None, 0.0)
                assert step.zero_green
                assert np.allclose(draft, P.probs, rtol=1e-12, atol=0.0)
                continue
            out = sample_maximal_coupling(P, Q, zeta, RngStream(trial))
            assert (step.token, step.branch, step.green_mass) == (
                out.token, out.branch, out.overlap_mass
            )
            assert not step.zero_green
            side = green if out.branch is Branch.OVERLAP else ~green
            ref = hard_list_q(P, side).probs
            assert np.array_equal(draft > 0, ref > 0)
            assert np.allclose(draft, ref, rtol=1e-12, atol=0.0)
        assert 20 <= zero_green <= 380


class TestBatchAgreement:
    N = 300

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
        assert DecoderConfig(scheme="soft", delta=1.0).delta == 1.0

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
        assert res.steps == () and res.scheme is None
        rec = to_record(res, model.vocab_size)
        assert (rec["scheme"], rec["watermarked"], rec["diagnostics"]) == ("plain", False, [])

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
        rec = to_record(res, model.vocab_size)
        assert rec["scheme"] == "dipmark" and rec["watermarked"] is True
        assert len(rec["diagnostics"]) == 15
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
