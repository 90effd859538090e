"""Attacks: i.i.d. substitution and the speculative-decoding lazy editor."""

import numpy as np
import pytest

from wmkit.core import GeneratedText, RngStream, make_ntp
from wmkit.decoders import Scheme, sample_rejection_coupling
from wmkit.attacks import (
    AttackConfig,
    AttackKind,
    SpecDecStats,
    merge_specdec_stats,
    specdec_postprocess,
    substitute,
)
from wmkit.keying import WatermarkKey
from wmkit.lm import MarkovSource

KEY = WatermarkKey(master=0x9E3779B97F4A7C15, k=2, gamma=0.5, green_mode="hash")


class FixedStream:
    """Deterministic stand-in for RngStream feeding scripted uniforms."""

    def __init__(self, values):
        self.values = list(values)

    def next_uniform(self):
        return self.values.pop(0)


class TestAttackConfig:
    def test_defaults(self):
        cfg = AttackConfig(kind=AttackKind.SUBSTITUTE)
        assert cfg.sub_rate == pytest.approx(0.1)
        assert cfg.accept_scale == pytest.approx(0.5)
        assert cfg.lookahead == 4

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sub_rate": -0.1},
            {"sub_rate": 1.5},
            {"accept_scale": 0.0},
            {"accept_scale": 1.5},
            {"lookahead": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            AttackConfig(kind=AttackKind.SPECDEC, **kwargs)


class TestSubstitute:
    def _text(self, n=200, prompt_len=3, seed=0, vocab=64):
        rng = np.random.default_rng(seed)
        return GeneratedText(
            tokens=tuple(int(t) for t in rng.integers(0, vocab, n)), prompt_len=prompt_len
        )

    def test_rate_zero_identity(self):
        text = self._text()
        assert substitute(text, 0.0, 1, 64).tokens == text.tokens

    def test_rate_one_changes_everything(self):
        text = self._text()
        out = substitute(text, 1.0, 1, 64)
        assert all(a != b for a, b in zip(out.continuation, text.continuation))
        assert out.tokens[:3] == text.tokens[:3]

    def test_partial_rate_counts(self):
        text = self._text(n=10_003)
        out = substitute(text, 0.1, 2, 64)
        changed = sum(a != b for a, b in zip(out.continuation, text.continuation))
        assert abs(changed - 1000) < 100

    def test_replacements_in_vocab(self):
        text = self._text(vocab=8)
        out = substitute(text, 1.0, 3, 8)
        assert all(0 <= t < 8 for t in out.continuation)

    def test_prompt_and_length_preserved(self):
        text = self._text()
        out = substitute(text, 0.5, 4, 64)
        assert len(out.tokens) == len(text.tokens)
        assert out.prompt_len == text.prompt_len
        assert out.tokens[: text.prompt_len] == text.tokens[: text.prompt_len]

    def test_int_seed_reproducible(self):
        text = self._text()
        assert substitute(text, 0.3, 7, 64).tokens == substitute(text, 0.3, 7, 64).tokens

    def test_replacement_uniform_over_others(self):
        # With rate 1 on a 3-token vocabulary the replacement law is uniform
        # on the two other tokens.
        text = GeneratedText(tokens=(0,) * 30_000, prompt_len=0)
        out = substitute(text, 1.0, 5, 3)
        counts = np.bincount(out.tokens, minlength=3)
        assert counts[0] == 0
        assert abs(counts[1] - 15_000) < 450

    def test_errors(self):
        text = self._text()
        with pytest.raises(ValueError):
            substitute(text, -0.1, 1, 64)
        with pytest.raises(ValueError):
            substitute(text, 0.5, 1, 1)


def _random_pq(rng, vocab):
    p = rng.dirichlet(np.full(vocab, 0.6))
    q = rng.dirichlet(np.full(vocab, 0.6))
    return make_ntp(p), make_ntp(q)


def _interval_midpoint(probs, w):
    cum = np.concatenate(([0.0], np.cumsum(probs)))
    return (cum[w] + cum[w + 1]) / 2.0


class TestOneStep:
    def test_identical_always_accepts(self):
        P = make_ntp(np.array([0.3, 0.7]))
        for zeta in (0.01, 0.5, 0.999):
            token, accepted = sample_rejection_coupling(P, P, zeta, FixedStream([0.6]))
            assert accepted and token == 1

    def test_marginal_is_target_semi_exact(self):
        # Enumerate the draft token and a fine acceptance-pivot grid; the
        # resulting marginal (with the analytic excess law on rejection)
        # must match P up to grid discretization.
        rng = np.random.default_rng(12)
        grid = (np.arange(1000) + 0.5) / 1000
        for _ in range(10):
            vocab = int(rng.integers(2, 7))
            P, Q = _random_pq(rng, vocab)
            marginal = np.zeros(vocab)
            reject_mass = 0.0
            for w in range(vocab):
                if Q.probs[w] == 0.0:
                    continue
                u_w = _interval_midpoint(Q.probs, w)
                for zeta in grid:
                    token, accepted = sample_rejection_coupling(
                        P, Q, float(zeta), FixedStream([u_w, 0.5])
                    )
                    if accepted:
                        assert token == w
                        marginal[w] += Q.probs[w] / len(grid)
                    else:
                        reject_mass += Q.probs[w] / len(grid)
            excess = np.maximum(np.asarray(P.probs) - np.asarray(Q.probs), 0.0)
            if excess.sum() > 0:
                marginal += reject_mass * excess / excess.sum()
            assert 0.5 * np.abs(marginal - np.asarray(P.probs)).sum() < 2e-3

    def test_resample_follows_excess_law(self):
        P = make_ntp(np.array([0.6, 0.1, 0.3]))
        Q = make_ntp(np.array([0.1, 0.8, 0.1]))
        # Token 1 with zeta near 1 always rejects: accept needs
        # zeta * 0.8 <= 0.1.
        u_w = _interval_midpoint(Q.probs, 1)
        excess = np.array([0.5, 0.0, 0.2])
        counts = np.zeros(3)
        grid = (np.arange(200) + 0.5) / 200
        for u2 in grid:
            token, accepted = sample_rejection_coupling(P, Q, 0.99, FixedStream([u_w, float(u2)]))
            assert not accepted
            counts[token] += 1
        assert counts[1] == 0
        assert np.allclose(counts / len(grid), excess / excess.sum(), atol=0.01)

    def test_acceptance_probability(self):
        rng = np.random.default_rng(13)
        P, Q = _random_pq(rng, 6)
        expected = float(np.minimum(P.probs, Q.probs).sum())
        stream = RngStream(99)
        n = 100_000
        zetas = rng.random(n)
        hits = sum(sample_rejection_coupling(P, Q, float(z), stream)[1] for z in zetas)
        assert abs(hits / n - expected) < 3 * np.sqrt(expected * (1 - expected) / n)

    def test_smaller_scale_accepts_more(self):
        rng = np.random.default_rng(14)
        P, Q = _random_pq(rng, 6)
        zetas = rng.random(20_000)
        full = sum(
            sample_rejection_coupling(P, Q, float(z), RngStream(i), 1.0)[1]
            for i, z in enumerate(zetas)
        )
        half = sum(
            sample_rejection_coupling(P, Q, float(z), RngStream(i), 0.5)[1]
            for i, z in enumerate(zetas)
        )
        assert half > full


class TestSpecDecStats:
    def test_rejection_rate(self):
        stats = SpecDecStats(n_evaluated=10, n_rejected=3)
        assert stats.rejection_rate == pytest.approx(0.3)
        assert SpecDecStats().rejection_rate == 0.0

    def test_merge(self):
        a = SpecDecStats(n_evaluated=5, n_rejected=1)
        a.accepted_run_lengths[2] = 2
        b = SpecDecStats(n_evaluated=7, n_rejected=2)
        b.accepted_run_lengths[2] = 1
        b.accepted_run_lengths[0] = 1
        merged = merge_specdec_stats([a, b])
        assert merged.n_evaluated == 12
        assert merged.n_rejected == 3
        assert merged.accepted_run_lengths == {2: 3, 0: 1}

    def test_to_dict_sorted_keys(self):
        stats = SpecDecStats(n_evaluated=4, n_rejected=1)
        stats.accepted_run_lengths[3] = 1
        stats.accepted_run_lengths[0] = 2
        d = stats.to_dict()
        assert d["n_evaluated"] == 4
        assert list(d["accepted_run_lengths"]) == ["0", "3"]


class TestSpecDecPostprocess:
    def _run(self, scheme, n=400, accept_scale=1.0, lookahead=4, seed=0):
        model = MarkovSource(order=2, vocab_size=64, seed=11)
        config = AttackConfig(kind=AttackKind.SPECDEC, accept_scale=accept_scale, lookahead=lookahead)
        return specdec_postprocess(
            model,
            model,
            KEY,
            config,
            scheme,
            GeneratedText((1, 2), 2),
            n,
            RngStream(seed),
            np.random.default_rng(seed),
        )

    def test_output_shape(self):
        text, _ = self._run(Scheme.MC, n=100)
        assert len(text.tokens) == 102
        assert text.prompt_len == 2
        assert text.tokens[:2] == (1, 2)

    def test_stats_balance(self):
        _, stats = self._run(Scheme.MC, n=300)
        accepted = sum(k * v for k, v in stats.accepted_run_lengths.items())
        assert stats.n_evaluated == accepted + stats.n_rejected
        assert 0.0 <= stats.rejection_rate <= 1.0
        assert max(stats.accepted_run_lengths) <= 4

    def test_deterministic(self):
        a_text, a_stats = self._run(Scheme.MC, seed=5)
        b_text, b_stats = self._run(Scheme.MC, seed=5)
        assert a_text.tokens == b_text.tokens
        assert a_stats.to_dict() == b_stats.to_dict()

    def test_hard_list_drafts_mostly_accepted(self):
        # Under the relaxed rule a half-mass hard-list draft overlaps the
        # target enough to pass almost always; the one-hot argmax draft does
        # not.  The rejection rates must order accordingly with a wide
        # margin.
        _, mc = self._run(Scheme.MC, n=400, accept_scale=0.5)
        _, gumbel = self._run(Scheme.GUMBEL, n=400, accept_scale=0.5)
        assert mc.rejection_rate < 0.2
        assert gumbel.rejection_rate > 0.5
        assert mc.rejection_rate < gumbel.rejection_rate

    def test_scale_relaxes_acceptance(self):
        _, strict = self._run(Scheme.GUMBEL, accept_scale=1.0)
        _, lazy = self._run(Scheme.GUMBEL, accept_scale=0.5)
        assert lazy.rejection_rate < strict.rejection_rate

    def test_unsupported_scheme(self):
        with pytest.raises(ValueError):
            self._run(Scheme.SOFT)

    def test_vocab_mismatch(self):
        a = MarkovSource(order=2, vocab_size=64, seed=11)
        b = MarkovSource(order=2, vocab_size=32, seed=11)
        config = AttackConfig(kind=AttackKind.SPECDEC)
        with pytest.raises(ValueError):
            specdec_postprocess(
                a, b, KEY, config, Scheme.MC, GeneratedText((1, 2), 2), 10, RngStream(0), 0
            )

    def test_weakened_watermark_still_sound_text(self):
        # The lazy editor must emit tokens from the shared vocabulary even
        # when nearly everything is resampled.
        text, stats = self._run(Scheme.GUMBEL, n=200, accept_scale=1.0, lookahead=8)
        assert all(0 <= t < 64 for t in text.tokens)
        assert stats.n_rejected > 0
