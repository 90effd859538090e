"""Key material: seed derivation, green lists, pivots, and serialization."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sstats

from wmkit.core import (
    GOLDEN,
    MASK64,
    GeneratedText,
    RngStream,
    counter_uniforms,
    counter_words,
    mix64,
)
from wmkit.detection import Statistic, detect
from wmkit.keying import (
    GREEN_TAG,
    PERM_TAG,
    ZETA_TAG,
    ContextLengthMismatch,
    KeyFormatError,
    WatermarkKey,
    _below_gamma,
    _token_hashes,
    _vocab_hashes,
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
            ":k=2:g=0.5:mode=hash",
            "1" * 17 + ":k=2:g=0.5:mode=hash",
            "ff:k=two:g=0.5:mode=hash",
            "ff:k=2:g=half:mode=hash",
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
        for master in (-1, 1 << 64):
            with pytest.raises(ValueError, match="master must be a 64-bit integer"):
                WatermarkKey(master=master, k=2, gamma=0.5, green_mode="hash")
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


def _unmix64(z):
    # Inverse of core.mix64: undo each xorshift, and each multiply by its
    # inverse modulo 2^64.
    def unshift(x, r):
        y = x
        for _ in range(64 // r + 1):
            y = x ^ (y >> r)
        return y

    z = unshift(z, 31)
    z = (z * pow(0x94D049BB133111EB, -1, 1 << 64)) & MASK64
    z = unshift(z, 27)
    z = (z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & MASK64
    return unshift(z, 30)


class TestGammaThreshold:
    # The parent formula, kept as the reference: a hash-mode token is green
    # iff its draw, counter_uniforms(state, 1), is below gamma.
    GAMMAS = [5e-324, 0.1, 0.25, 0.5, 1 - 2**-53]

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_matches_uniform_compare_at_the_threshold(self, gamma):
        c = math.ceil(gamma * 2**53)
        words = [0, 1, 2**11 - 1, 2**11, c * 2**11 - 1, c * 2**11, c * 2**11 + 1, MASK64]
        words += np.random.default_rng(5).integers(0, MASK64, 200, dtype=np.uint64).tolist()
        # States whose first counter word is each hand-picked word.
        states = np.array([(_unmix64(w) - GOLDEN) & MASK64 for w in words], dtype=np.uint64)
        assert counter_words(states, 1).tolist() == words
        expected = counter_uniforms(states, 1) < gamma
        got = _below_gamma(np.array(words, dtype=np.uint64), gamma)
        assert np.array_equal(got, expected)
        assert got[words.index(c * 2**11 - 1)] and not got[words.index(c * 2**11)]

    @pytest.mark.parametrize("mode", ["hash", "single"])
    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_masks_and_membership_match_uniform_compare(self, mode, gamma):
        key = WatermarkKey(master=0x5EED, k=2, gamma=gamma, green_mode=mode)
        ctxs = _random_contexts(40, key.k, seed=6)
        seeds = np.array([mix64(key.master ^ GREEN_TAG)] * 40, dtype=np.uint64)
        if mode == "hash":
            seeds = derive_seed_batch(key, ctxs, GREEN_TAG)
        hashes = _token_hashes(np.arange(1000))
        expected = counter_uniforms(seeds[:, None] ^ hashes[None, :], 1) < gamma
        assert np.array_equal(green_mask_batch(key, ctxs, 1000), expected)
        toks = np.random.default_rng(6).integers(0, 1000, 40)
        assert np.array_equal(is_green_batch(key, ctxs, toks), expected[np.arange(40), toks])
        scalar = [is_green(key, tuple(c), int(t)) for c, t in zip(ctxs, toks)]
        assert scalar == expected[np.arange(40), toks].tolist()


def _chained_seed(state: int, ctx) -> int:
    # The seed of a context with one mix64 call per token and one at the
    # end: the reference of the fused loop behind derive_seed.
    s = state & MASK64
    for tok in ctx:
        s = mix64((s * GOLDEN + tok + 1) & MASK64)
    return mix64(s)


# Masters at and near 2**64, and tokens at and past 2**32 up to 2**64 - 1.
EDGE_MASTERS = (0, 0x9E3779B97F4A7C15, MASK64 - 2**32, MASK64 - 1, MASK64)
EDGE_TOKENS = (2**32 - 1, 2**32, 2**32 + 1, 2**63, MASK64 - 1, MASK64)


def _edge_contexts(k: int, n: int = 20, seed: int = 0) -> list[tuple[int, ...]]:
    # Random small-token contexts, then contexts of edge tokens.
    ctxs = list(map(tuple, _random_contexts(n, k, seed=seed).tolist()))
    return ctxs + [tuple(EDGE_TOKENS[(i + j) % len(EDGE_TOKENS)] for j in range(k))
                   for i in range(len(EDGE_TOKENS))]


def _reference_green(key: WatermarkKey, ctx, token: int) -> bool:
    # Per-token membership in Python-int arithmetic: the first draw of the
    # stream seeded by (green seed ^ token hash) is below gamma.
    if key.green_mode == "single":
        seed = mix64(key.master ^ GREEN_TAG)
    else:
        seed = _chained_seed(key.master ^ GREEN_TAG, ctx)
    token_hash = mix64(((token + 1) * GOLDEN) & MASK64)
    return RngStream(seed ^ token_hash).next_uniform() < key.gamma


class TestKeyedKernelOracles:
    @pytest.mark.parametrize("mode", ["hash", "single"])
    @pytest.mark.parametrize("vocab", [1, 64, 32000])
    def test_masks_and_membership_match_per_token_reference(self, mode, vocab):
        key = WatermarkKey(master=0xC0FFEE, k=2, gamma=0.3, green_mode=mode)
        n_ctx = 2 if vocab == 32000 else 20
        for ctx in map(tuple, _random_contexts(n_ctx, key.k, seed=vocab).tolist()):
            expected = [_reference_green(key, ctx, t) for t in range(vocab)]
            assert green_mask(key, ctx, vocab).tolist() == expected
            toks = range(0, vocab, 1 if vocab <= 64 else 97)
            assert [is_green(key, ctx, t) for t in toks] == [expected[t] for t in toks]

    @pytest.mark.parametrize("mode", ["hash", "single"])
    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_membership_at_edge_keys_and_tokens(self, mode, k):
        for master in EDGE_MASTERS:
            key = WatermarkKey(master=master, k=k, gamma=0.3, green_mode=mode)
            for ctx in _edge_contexts(k, n=5, seed=k):
                for token in (0, 7, *EDGE_TOKENS):
                    assert is_green(key, ctx, token) == _reference_green(key, ctx, token)

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_seeds_match_chained_mix64(self, k):
        for master in EDGE_MASTERS:
            key = WatermarkKey(master=master, k=k, gamma=0.5)
            for ctx in _edge_contexts(k, seed=k):
                for tag in (GREEN_TAG, ZETA_TAG, PERM_TAG):
                    assert derive_seed(key, ctx, tag) == _chained_seed(master ^ tag, ctx)

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_zeta_is_first_draw_of_the_zeta_stream(self, k):
        for master in EDGE_MASTERS:
            key = WatermarkKey(master=master, k=k, gamma=0.5)
            for ctx in _edge_contexts(k, n=50, seed=k):
                expected = RngStream(_chained_seed(master ^ ZETA_TAG, ctx)).next_uniform()
                assert derive_zeta(key, ctx) == expected


class TestVocabHashes:
    @pytest.mark.parametrize("vocab", [1, 64, 32000])
    def test_cached_row_matches_token_hashes(self, vocab):
        row = _vocab_hashes(vocab)
        assert np.array_equal(row, _token_hashes(np.arange(vocab)))
        assert _vocab_hashes(vocab) is row
        assert not row.flags.writeable
        with pytest.raises(ValueError):
            row[0] = 0

    @pytest.mark.parametrize("mode", ["hash", "single", "perm"])
    def test_written_masks_leave_the_next_unchanged(self, mode):
        key = WatermarkKey(master=0x5EED, k=2, gamma=0.5, green_mode=mode)
        ctxs = _random_contexts(3, key.k, seed=8)
        mask = green_mask(key, tuple(ctxs[0]), 64)
        expected = mask.copy()
        mask[:] = ~mask
        assert np.array_equal(green_mask(key, tuple(ctxs[0]), 64), expected)
        masks = green_mask_batch(key, ctxs, 64)
        expected = masks.copy()
        masks[:] = True
        assert np.array_equal(green_mask_batch(key, ctxs, 64), expected)


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
        report = detect(GeneratedText(tokens), KEY, Statistic.GUMBEL_SUM)
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


def _same_draw(scalar, batch_entry) -> bool:
    return np.float64(scalar).tobytes() == np.float64(batch_entry).tobytes()


class TestOneCallDrawsMatchBatchKernels:
    # The scalar draws compute their counter word in one seed64 or mix64
    # call; the batch kernels are their oracle, bit for bit.

    @settings(max_examples=300, deadline=None)
    @given(
        master=st.integers(0, MASK64),
        k=st.sampled_from([0, 1, 2, 3]),
        gamma=st.floats(0.01, 0.99),
        tokens=st.lists(st.integers(0, 2**63 - 1), min_size=4, max_size=4),
        cast=st.sampled_from([int, np.int64, np.uint64]),
    )
    def test_pivot_and_membership(self, master, k, gamma, tokens, cast):
        ctx = tuple(cast(t) for t in tokens[:k])
        ctxs = np.array(tokens[:k], dtype=np.int64).reshape(1, k)
        for mode in ("hash", "single", "perm"):
            key = WatermarkKey(master=master, k=k, gamma=gamma, green_mode=mode)
            vocab = 97 if mode == "perm" else None
            token = tokens[3] % 97 if mode == "perm" else tokens[3]
            assert _same_draw(derive_zeta(key, ctx), derive_zeta_batch(key, ctxs)[0])
            expected = bool(is_green_batch(key, ctxs, [token], vocab)[0])
            assert is_green(key, ctx, cast(token), vocab) is expected
            # A context one token too long: refused by the pivot and by hash
            # and perm membership; single mode reads no context.
            longer = ctx + (cast(1),)
            with pytest.raises(ContextLengthMismatch):
                derive_zeta(key, longer)
            if mode == "single":
                assert is_green(key, longer, cast(token), vocab) is expected
            else:
                with pytest.raises(ContextLengthMismatch):
                    is_green(key, longer, cast(token), vocab)

    @settings(max_examples=300, deadline=None)
    @given(
        state=st.integers(0, MASK64),
        counter=st.integers(0, 2**66),
        draws=st.integers(1, 4),
    )
    def test_stream_draws(self, state, counter, draws):
        stream = RngStream(state)
        # One-entry arrays: numpy warns on a scalar uint64 overflow.
        expected = counter_uniforms(state, np.array([counter & MASK64], dtype=np.uint64))
        assert _same_draw(stream.value_at(counter), expected[0])
        # next_uniform from the counter on, wrapping modulo 2**64.
        stream.counter = counter & MASK64
        got = [stream.next_uniform() for _ in range(draws)]
        counters = [(counter + i) & MASK64 for i in range(1, draws + 1)]
        expected = counter_uniforms(state, np.array(counters, dtype=np.uint64))
        assert all(_same_draw(g, e) for g, e in zip(got, expected))
        assert stream.counter == counters[-1]
