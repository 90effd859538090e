"""Attacks: i.i.d. substitution and the speculative-decoding lazy editor."""

import re

import numpy as np
import pytest

from wmkit.core import GeneratedText, RngStream, make_ntp
from wmkit.decoders import (
    Scheme,
    accept_or_resample,
    categorical_from_uniform,
    sample_rejection_coupling,
)
from wmkit.attacks import (
    AttackConfig,
    SpecDecStats,
    _draft_q,
    merge_specdec_stats,
    specdec_postprocess,
    substitute,
)
from wmkit.keying import WatermarkKey
from wmkit.lm import MarkovSource, TraceSource

KEY = WatermarkKey(master=0x9E3779B97F4A7C15, k=2, gamma=0.5, green_mode="hash")


class FixedStream:
    """Deterministic stand-in for RngStream feeding scripted uniforms."""

    def __init__(self, values):
        self.values = list(values)

    def next_uniform(self):
        return self.values.pop(0)


class TestAttackConfig:
    def test_defaults(self):
        cfg = AttackConfig()
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
            AttackConfig(**kwargs)


class TestSubstitute:
    def _text(self, n=200, prompt_len=3, seed=0, vocab=64):
        rng = np.random.default_rng(seed)
        return GeneratedText(
            tokens=tuple(int(t) for t in rng.integers(0, vocab, n)), prompt_len=prompt_len
        )

    def test_rate_zero_identity(self):
        text = self._text()
        assert substitute(text, 0.0, np.random.default_rng(1), 64).tokens == text.tokens

    def test_rate_one_changes_everything(self):
        text = self._text()
        out = substitute(text, 1.0, np.random.default_rng(1), 64)
        assert all(a != b for a, b in zip(out.continuation, text.continuation))
        assert out.tokens[:3] == text.tokens[:3]

    def test_partial_rate_counts(self):
        text = self._text(n=10_003)
        out = substitute(text, 0.1, np.random.default_rng(2), 64)
        changed = sum(a != b for a, b in zip(out.continuation, text.continuation))
        assert abs(changed - 1000) < 100

    def test_replacements_in_vocab(self):
        text = self._text(vocab=8)
        out = substitute(text, 1.0, np.random.default_rng(3), 8)
        assert all(0 <= t < 8 for t in out.continuation)

    def test_prompt_and_length_preserved(self):
        text = self._text()
        out = substitute(text, 0.5, np.random.default_rng(4), 64)
        assert len(out.tokens) == len(text.tokens)
        assert out.prompt_len == text.prompt_len
        assert out.tokens[: text.prompt_len] == text.tokens[: text.prompt_len]

    def test_int_seed_reproducible(self):
        text = self._text()
        a, b = (substitute(text, 0.3, np.random.default_rng(7), 64) for _ in range(2))
        assert a.tokens == b.tokens

    def test_replacement_uniform_over_others(self):
        # With rate 1 on a 3-token vocabulary the replacement law is uniform
        # on the two other tokens.
        text = GeneratedText(tokens=(0,) * 30_000, prompt_len=0)
        out = substitute(text, 1.0, np.random.default_rng(5), 3)
        counts = np.bincount(out.tokens, minlength=3)
        assert counts[0] == 0
        assert abs(counts[1] - 15_000) < 450

    def test_errors(self):
        text = self._text()
        with pytest.raises(ValueError):
            substitute(text, -0.1, np.random.default_rng(1), 64)
        with pytest.raises(ValueError):
            substitute(text, 0.5, np.random.default_rng(1), 1)

    @pytest.mark.parametrize("bad,msg", [(500, "token 500 outside [0, 64)"),
                                         (-3, "token -3 outside [0, 64)")])
    @pytest.mark.parametrize("rate", [0.0, 1.0])
    def test_out_of_vocabulary_token_rejected(self, bad, msg, rate):
        # The shifted draw repl + (repl >= token) is uniform over the other
        # tokens only for a token inside the vocabulary.
        text = GeneratedText(tokens=(1, 2, bad, 5), prompt_len=2)
        with pytest.raises(ValueError, match=re.escape(msg)):
            substitute(text, rate, np.random.default_rng(1), 64)


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
                if Q[w] == 0.0:
                    continue
                u_w = _interval_midpoint(Q, w)
                for zeta in grid:
                    token, accepted = sample_rejection_coupling(
                        P, Q, float(zeta), FixedStream([u_w, 0.5])
                    )
                    if accepted:
                        assert token == w
                        marginal[w] += Q[w] / len(grid)
                    else:
                        reject_mass += Q[w] / len(grid)
            excess = np.maximum(np.asarray(P) - np.asarray(Q), 0.0)
            if excess.sum() > 0:
                marginal += reject_mass * excess / excess.sum()
            assert 0.5 * np.abs(marginal - np.asarray(P)).sum() < 2e-3

    def test_resample_follows_excess_law(self):
        P = make_ntp(np.array([0.6, 0.1, 0.3]))
        Q = make_ntp(np.array([0.1, 0.8, 0.1]))
        # Token 1 with zeta near 1 always rejects: accept needs
        # zeta * 0.8 <= 0.1.
        u_w = _interval_midpoint(Q, 1)
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
        expected = float(np.minimum(P, Q).sum())
        stream = RngStream(99)
        n = 100_000
        zetas = rng.random(n)
        hits = sum(sample_rejection_coupling(P, Q, float(z), stream)[1] for z in zetas)
        assert abs(hits / n - expected) < 3 * np.sqrt(expected * (1 - expected) / n)

    def test_smaller_scale_accepts_more(self):
        # The acceptance scale is the one specdec reads: proposals w ~ Q with
        # the same pivots are kept more often at scale 0.5 than at 1.
        rng = np.random.default_rng(14)
        P, Q = _random_pq(rng, 6)
        zetas = rng.random(20_000)
        proposals = [categorical_from_uniform(Q, u) for u in rng.random(20_000)]

        def accepted(scale):
            return sum(accept_or_resample(P, Q, w, float(z), lambda: 0.5, scale)[1]
                       for w, z in zip(proposals, zetas))

        assert accepted(0.5) > accepted(1.0)


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
        config = AttackConfig(accept_scale=accept_scale, lookahead=lookahead)
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

    def test_nothing_to_generate_is_refused(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            self._run(Scheme.MC, n=0)

    def test_vocab_mismatch(self):
        a = MarkovSource(order=2, vocab_size=64, seed=11)
        b = MarkovSource(order=2, vocab_size=32, seed=11)
        config = AttackConfig()
        with pytest.raises(ValueError):
            specdec_postprocess(
                a, b, KEY, config, Scheme.MC, GeneratedText((1, 2), 2), 10, RngStream(0),
                np.random.default_rng(0),
            )

    @pytest.mark.parametrize("traced", ["draft", "target"])
    def test_trace_source_rejected(self, traced):
        # A trace's cursor advances on every call whatever the history, so
        # draft and target would read steps of different positions.
        model = MarkovSource(order=2, vocab_size=8, seed=11)
        steps = [model.next([1, 2, t % 8]) for t in range(40)]
        models = {"draft": model, "target": model, traced: TraceSource(8, steps)}
        with pytest.raises(ValueError, match="trace sources"):
            specdec_postprocess(
                models["draft"], models["target"], KEY, AttackConfig(), Scheme.MC,
                GeneratedText((1, 2), 2), 10, RngStream(0), np.random.default_rng(0),
            )

    def test_weakened_watermark_still_sound_text(self):
        # The lazy editor must emit tokens from the shared vocabulary even
        # when nearly everything is resampled.
        text, stats = self._run(Scheme.GUMBEL, n=200, accept_scale=1.0, lookahead=8)
        assert all(0 <= t < 64 for t in text.tokens)
        assert stats.n_rejected > 0


def _eager_specdec(draft_model, target_model, key, config, scheme, prompt, n, aux, accept_rng):
    """Reference two-phase loop: each round drafts all its proposals before
    the target evaluates any of them, reading one aux draw per proposal."""

    def accept_u():
        return float(accept_rng.random())

    history = list(prompt.tokens)
    stats = SpecDecStats()
    target_n = len(prompt.tokens) + n
    while len(history) < target_n:
        lookahead = min(config.lookahead, target_n - len(history))
        draft_hist = list(history)
        proposals = []
        for _ in range(lookahead):
            q = _draft_q(draft_model, key, draft_hist, scheme)
            w = categorical_from_uniform(q, aux.next_uniform())
            proposals.append((w, q))
            draft_hist.append(w)
        accepted = 0
        for w, q in proposals:
            p = target_model.next(history)
            stats.n_evaluated += 1
            token, ok = accept_or_resample(p, q, w, accept_u(), accept_u, config.accept_scale)
            history.append(token)
            if not ok:
                stats.n_rejected += 1
                break
            accepted += 1
        if accepted == lookahead and len(history) < target_n:
            p = target_model.next(history)
            history.append(categorical_from_uniform(p, accept_u()))
        stats.accepted_run_lengths[accepted] += 1
    return GeneratedText(tuple(history[:target_n]), len(prompt.tokens)), stats


class TestLazyDrafting:
    # n = 37 leaves a truncated last round at lookahead 3, 4 and 8.
    N = 37

    def _models(self, same):
        if same:
            # One-hot rows: the watermarked draft law is the target's, so
            # every proposal is accepted and full rounds earn a bonus token.
            model = MarkovSource(order=2, vocab_size=16, seed=5, concentration=1e-308)
            return model, model
        return (MarkovSource(order=2, vocab_size=16, seed=5),
                MarkovSource(order=2, vocab_size=16, seed=6))

    @pytest.mark.parametrize("same", [False, True])
    @pytest.mark.parametrize("accept_scale", [0.5, 1.0])
    @pytest.mark.parametrize("lookahead", [1, 3, 4, 8])
    @pytest.mark.parametrize("scheme", [Scheme.MC, Scheme.GUMBEL])
    def test_matches_eager_reference(self, scheme, lookahead, accept_scale, same):
        config = AttackConfig(accept_scale=accept_scale, lookahead=lookahead)
        runs = []
        for loop in (specdec_postprocess, _eager_specdec):
            draft, target = self._models(same)
            aux = RngStream(21)
            text, stats = loop(draft, target, KEY, config, scheme, GeneratedText((1, 2), 2),
                               self.N, aux, np.random.default_rng(21))
            runs.append((text.tokens, stats.to_dict(), aux.counter))
        assert runs[0] == runs[1]
        stats = runs[0][1]
        if same:
            assert stats["n_rejected"] == 0
            assert stats["accepted_run_lengths"].get(str(lookahead), 0) >= 1
        else:
            assert stats["n_rejected"] > 0

    @pytest.mark.parametrize("scheme", [Scheme.MC, Scheme.GUMBEL])
    def test_draft_called_once_per_evaluated_proposal(self, scheme):
        draft, target = self._models(False)
        calls = []
        next_row = draft.next
        draft.next = lambda history: calls.append(len(history)) or next_row(history)
        _, stats = specdec_postprocess(
            draft, target, KEY, AttackConfig(accept_scale=0.5), scheme,
            GeneratedText((1, 2), 2), 200, RngStream(3), np.random.default_rng(3),
        )
        assert stats.n_rejected > 0
        assert len(calls) == stats.n_evaluated
