"""Key material: seed derivation, green lists, pivots, and serialization."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sstats

from wmkit.core import GOLDEN, MASK64, GeneratedText, RngStream, counter_words, mix64
from wmkit.detection import detect_baseline
from wmkit.keying import (
    GREEN_TAG,
    PERM_TAG,
    ZETA_TAG,
    ContextLengthMismatch,
    KeyFormatError,
    WatermarkKey,
    derive_seed,
    derive_seed_batch,
    derive_zeta,
    derive_zeta_batch,
    format_key,
    green_mask,
    green_mask_batch,
    is_green,
    is_green_batch,
    keyed_permutation,
    keyed_permutation_batch,
    parse_key,
)

KEY = WatermarkKey(master=0x9E3779B97F4A7C15, k=2, gamma=0.5, green_mode="hash")


def _random_contexts(n, k, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2**20, size=(n, k))


class TestKeySerialization:
    def test_canonical_string_round_trip(self):
        text = "9e3779b97f4a7c15:k=2:g=0.5:mode=hash"
        key = parse_key(text)
        assert key == KEY
        assert format_key(key) == text

    def test_modes_round_trip(self):
        for mode in ("hash", "single", "perm"):
            key = WatermarkKey(master=123, k=3, gamma=0.25, green_mode=mode)
            assert parse_key(format_key(key)) == key

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "zzzz:k=2:g=0.5:mode=hash",
            "ff:k=2:g=0.5",
            "ff:k=-1:g=0.5:mode=hash",
            "ff:k=2:g=1.5:mode=hash",
            "ff:k=2:g=0.5:mode=nope",
            "ff:g=0.5:k=2:mode=hash",
            "ff:k=2:g=0.5:mode=hash:extra=1",
        ],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(KeyFormatError):
            parse_key(text)

    @given(
        st.integers(min_value=0, max_value=(1 << 64) - 1),
        st.integers(min_value=0, max_value=8),
        st.floats(min_value=0.01, max_value=0.99),
        st.sampled_from(["hash", "single", "perm"]),
    )
    def test_round_trip_property(self, master, k, gamma, mode):
        key = WatermarkKey(master=master, k=k, gamma=gamma, green_mode=mode)
        assert parse_key(format_key(key)) == key

    def test_invalid_fields_rejected(self):
        with pytest.raises(ValueError):
            WatermarkKey(master=1, k=-1, gamma=0.5, green_mode="hash")
        with pytest.raises(ValueError):
            WatermarkKey(master=1, k=2, gamma=0.0, green_mode="hash")
        with pytest.raises(ValueError):
            WatermarkKey(master=1, k=2, gamma=1.0, green_mode="hash")
        with pytest.raises(ValueError):
            WatermarkKey(master=1, k=2, gamma=0.5, green_mode="other")


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(KEY, (3, 4), GREEN_TAG) == derive_seed(KEY, (3, 4), GREEN_TAG)

    def test_context_length_checked(self):
        with pytest.raises(ContextLengthMismatch):
            derive_seed(KEY, (1,), GREEN_TAG)
        with pytest.raises(ContextLengthMismatch):
            derive_seed_batch(KEY, np.zeros((4, 3), dtype=np.int64), GREEN_TAG)

    def test_batch_matches_scalar(self):
        ctxs = _random_contexts(256, KEY.k)
        batch = derive_seed_batch(KEY, ctxs, ZETA_TAG)
        singles = [derive_seed(KEY, tuple(c), ZETA_TAG) for c in ctxs]
        assert batch.tolist() == singles

    def test_tag_separation(self):
        ctxs = _random_contexts(10_000, KEY.k)
        green = derive_seed_batch(KEY, ctxs, GREEN_TAG)
        zeta = derive_seed_batch(KEY, ctxs, ZETA_TAG)
        perm = derive_seed_batch(KEY, ctxs, PERM_TAG)
        assert int(np.sum(green == zeta)) < 3
        assert int(np.sum(green == perm)) < 3
        assert int(np.sum(zeta == perm)) < 3

    def test_avalanche_on_context_change(self):
        # Flipping one context token should flip about half the seed bits.
        weights = []
        for i in range(200):
            a = derive_seed(KEY, (i, 7), GREEN_TAG)
            b = derive_seed(KEY, (i + 1, 7), GREEN_TAG)
            weights.append(bin(a ^ b).count("1"))
        mean = np.mean(weights)
        assert 28.0 <= mean <= 36.0
        assert all(16 <= w <= 48 for w in weights)


class TestGreenLists:
    def test_membership_fraction_near_gamma(self):
        ctxs = _random_contexts(10_000, KEY.k, seed=1)
        toks = np.arange(10_000) % 64
        frac = is_green_batch(KEY, ctxs, toks).mean()
        assert abs(frac - KEY.gamma) < 3 * np.sqrt(0.25 / 10_000)

    def test_scalar_batch_and_mask_agree(self):
        ctxs = _random_contexts(50, KEY.k, seed=2)
        toks = np.arange(50) % 16
        batch = is_green_batch(KEY, ctxs, toks)
        for i in range(50):
            ctx = tuple(ctxs[i])
            assert is_green(KEY, ctx, int(toks[i])) == batch[i]
            assert green_mask(KEY, ctx, 16)[toks[i]] == batch[i]
        masks = green_mask_batch(KEY, ctxs, 16)
        assert np.array_equal(masks[np.arange(50), toks], batch)

    def test_single_mode_ignores_context(self):
        key = WatermarkKey(master=5, k=2, gamma=0.5, green_mode="single")
        m1 = green_mask(key, (1, 2), 32)
        m2 = green_mask(key, (9, 9), 32)
        assert np.array_equal(m1, m2)

    def test_hash_mode_varies_with_context(self):
        m1 = green_mask(KEY, (1, 2), 64)
        m2 = green_mask(KEY, (1, 3), 64)
        assert not np.array_equal(m1, m2)

    def test_perm_mode_exact_count(self):
        key = WatermarkKey(master=7, k=2, gamma=0.25, green_mode="perm")
        mask = green_mask(key, (4, 5), 64)
        assert int(mask.sum()) == 16
        head = keyed_permutation(key, (4, 5), 64)[:16]
        assert np.array_equal(np.flatnonzero(mask), np.sort(head))
        ctxs = np.array([[4, 5], [6, 7]])
        assert np.array_equal(green_mask_batch(key, ctxs, 64)[0], mask)

    @pytest.mark.parametrize("vocab", [2, 3, 17, 64, 1000, 32000])
    def test_perm_membership_matches_mask(self, vocab):
        # One token's rank among its row's words agrees with the head of the
        # whole permutation.  The mask matrix is capped at about 2^22 entries.
        key = WatermarkKey(master=0xC0FFEE, k=2, gamma=0.5, green_mode="perm")
        n = min(1000, 2**22 // vocab)
        ctxs = _random_contexts(n, key.k, seed=vocab)
        toks = np.random.default_rng(vocab).integers(0, vocab, size=n)
        masks = green_mask_batch(key, ctxs, vocab)
        expected = masks[np.arange(n), toks]
        assert np.array_equal(is_green_batch(key, ctxs, toks, vocab), expected)
        for i in range(0, n, 25):
            assert is_green(key, tuple(ctxs[i]), int(toks[i]), vocab) == expected[i]
            assert green_mask(key, tuple(ctxs[i]), vocab)[toks[i]] == expected[i]

    def test_perm_mode_needs_vocab(self):
        key = WatermarkKey(master=7, k=2, gamma=0.25, green_mode="perm")
        with pytest.raises(ValueError):
            is_green(key, (4, 5), 3)

    @pytest.mark.parametrize("token", [-1, 64])
    def test_perm_membership_refuses_token_outside_vocabulary(self, token):
        # A word outside the row would still get a rank; refuse the token.
        key = WatermarkKey(master=7, k=2, gamma=0.25, green_mode="perm")
        with pytest.raises(ValueError, match="must lie in"):
            is_green(key, (4, 5), token, 64)
        with pytest.raises(ValueError, match="must lie in"):
            is_green_batch(key, np.array([[4, 5], [6, 7]]), [3, token], 64)


def _reference_permutation(seed, vocab_size):
    # Tokens ordered by their keyed words, in Python-int arithmetic: token t's
    # word is mix64(seed + (t + 1) * GOLDEN).
    return sorted(range(vocab_size), key=lambda t: mix64((seed + (t + 1) * GOLDEN) & MASK64))


class TestPermutations:
    def test_bijection(self):
        perm = keyed_permutation(KEY, (11, 12), 101)
        assert sorted(perm.tolist()) == list(range(101))

    def test_batch_matches_scalar(self):
        ctxs = _random_contexts(40, KEY.k, seed=3)
        seeds = derive_seed_batch(KEY, ctxs, PERM_TAG)
        batch = keyed_permutation_batch(seeds, 33)
        for i in range(40):
            scalar = keyed_permutation(KEY, tuple(ctxs[i]), 33)
            assert batch[i].tolist() == scalar.tolist()

    def test_matches_reference_sort(self):
        seeds = derive_seed_batch(KEY, _random_contexts(30, KEY.k, seed=7), PERM_TAG)
        for vocab in (0, 1, 2, 33, 500):
            perms = keyed_permutation_batch(seeds, vocab)
            assert perms.shape == (30, vocab)
            for row, seed in zip(perms, seeds.tolist()):
                assert row.tolist() == _reference_permutation(seed, vocab)

    def test_row_words_distinct_v131072(self):
        # The permutation is the argsort of a row's words; with no ties it
        # needs no tie-break rule.
        seeds = derive_seed_batch(KEY, _random_contexts(3, KEY.k, seed=8), PERM_TAG)
        for seed in seeds:
            words = counter_words(seed, np.arange(1, 131073, dtype=np.uint64))
            assert np.unique(words).size == 131072

    def test_golden_v32000(self):
        # sha256 of the little-endian int64 permutation, captured when the
        # permutation became the sort of the row's keyed words.
        perm = keyed_permutation(KEY, (3, 4), 32000)
        digest = hashlib.sha256(perm.astype("<i8").tobytes()).hexdigest()
        assert digest == "a7c3a2b898300f751131851ca5b2edaba35da12407c3a7b3e55de6033e7b0596"

    def test_golden_batch_v64(self):
        ctxs = np.stack([np.arange(200), np.full(200, 7)], axis=1)
        perms = keyed_permutation_batch(derive_seed_batch(KEY, ctxs, PERM_TAG), 64)
        digest = hashlib.sha256(perms.astype("<i8").tobytes()).hexdigest()
        assert digest == "d8bc7be37d3019705c94ae88469049dc37378a6e7cc4447e26e761a10ab59a95"

    def test_near_uniform_first_element(self):
        # The first permutation slot should be close to uniform over tokens.
        ctxs = _random_contexts(4000, KEY.k, seed=4)
        seeds = derive_seed_batch(KEY, ctxs, PERM_TAG)
        first = keyed_permutation_batch(seeds, 8)[:, 0]
        counts = np.bincount(first, minlength=8)
        chi2 = sstats.chisquare(counts)
        assert chi2.pvalue > 1e-4


class TestPivots:
    def test_deterministic_and_context_keyed(self):
        assert derive_zeta(KEY, (1, 2)) == derive_zeta(KEY, (1, 2))
        assert derive_zeta(KEY, (1, 2)) != derive_zeta(KEY, (2, 1))

    def test_batch_matches_scalar(self):
        ctxs = _random_contexts(128, KEY.k, seed=5)
        batch = derive_zeta_batch(KEY, ctxs)
        singles = [derive_zeta(KEY, tuple(c)) for c in ctxs]
        assert batch.tolist() == singles

    def test_uniform_over_contexts(self):
        ctxs = np.stack([np.arange(10_000), np.zeros(10_000, dtype=np.int64)], axis=1)
        zetas = derive_zeta_batch(KEY, ctxs)
        ks = sstats.kstest(zetas, "uniform")
        assert ks.pvalue > 1e-3

    def test_gumbel_uniform_random_access(self):
        # The Gumbel baseline statistic reads U_token as draw token + 1 of the
        # context's ZETA stream, addressed without drawing its predecessors.
        tokens = (8, 9, 3, 8, 9, 3, 8, 9, 5, 60, 0, 8, 9, 5)
        first = []
        for t in range(KEY.k, len(tokens)):
            if tokens[t - KEY.k : t + 1] not in first:
                first.append(tokens[t - KEY.k : t + 1])
        stat = 0.0
        for *ctx, tok in first:
            u = RngStream(derive_seed(KEY, tuple(ctx), ZETA_TAG)).value_at(tok + 1)
            stat -= math.log1p(-u)
        report = detect_baseline(GeneratedText(tokens), KEY, "gumbel")
        assert report.n_scored == len(first) == 8  # four repeated tuples dropped
        assert report.value == stat

    def test_zeta_independent_of_green(self):
        # Correlation between the pivot and membership indicator stays small.
        ctxs = _random_contexts(20_000, KEY.k, seed=6)
        zetas = derive_zeta_batch(KEY, ctxs)
        greens = is_green_batch(KEY, ctxs, np.zeros(20_000, dtype=np.int64))
        assert abs(np.corrcoef(zetas, greens.astype(float))[0, 1]) < 0.025


@settings(max_examples=100)
@given(
    st.integers(min_value=0, max_value=(1 << 64) - 1),
    st.lists(st.integers(min_value=0, max_value=2**30), min_size=1, max_size=4),
)
def test_seed_derivation_stable_under_reconstruction(master, ctx):
    key = WatermarkKey(master=master, k=len(ctx), gamma=0.5, green_mode="hash")
    clone = parse_key(format_key(key))
    assert derive_seed(key, tuple(ctx), ZETA_TAG) == derive_seed(clone, tuple(ctx), ZETA_TAG)
    assert derive_zeta(key, tuple(ctx)) == derive_zeta(clone, tuple(ctx))
