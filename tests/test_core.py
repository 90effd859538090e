"""The RNG primitives, probability-vector validation, and token sequences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sstats

from wmkit.core import (
    GOLDEN,
    MASK64,
    EmptyVector,
    GeneratedText,
    NegativeEntry,
    NotNormalized,
    RngStream,
    context_window,
    counter_uniforms,
    fold64,
    make_ntp,
    mix64,
    mix64_array,
    seed64,
)

# Published splitmix64 outputs for seed 1234567: output k equals the
# finalizer applied to seed + k*GOLDEN, which is exactly mix64.
_SPLITMIX_SEED = 1234567
_SPLITMIX_OUTPUTS = [
    6457827717110365317,
    3203168211198807973,
    9817491932198370423,
    4593380528125082431,
    16408922859458223821,
]


def _reference_finalizer(z: int) -> int:
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


class TestMix64:
    def test_matches_published_splitmix_vectors(self):
        for k, expected in enumerate(_SPLITMIX_OUTPUTS, start=1):
            assert mix64((_SPLITMIX_SEED + k * GOLDEN) & MASK64) == expected

    @given(st.integers(min_value=0, max_value=MASK64))
    def test_matches_reference_finalizer(self, z):
        assert mix64(z) == _reference_finalizer(z)

    @given(st.integers(min_value=0, max_value=MASK64))
    def test_array_matches_scalar(self, z):
        arr = np.array([z], dtype=np.uint64)
        assert int(mix64_array(arr)[0]) == mix64(z)

    def test_array_does_not_mutate_input(self):
        arr = np.array([1, 2, 3], dtype=np.uint64)
        mix64_array(arr)
        assert arr.tolist() == [1, 2, 3]

    def test_zero_maps_to_zero(self):
        # The finalizer fixes 0; streams avoid it by starting counters at 1.
        assert mix64(0) == 0


class TestFold64:
    def test_empty_sequence_is_identity(self):
        assert fold64(42, ()) == 42

    def test_order_sensitivity(self):
        assert fold64(0, (1, 2)) != fold64(0, (2, 1))

    @given(st.integers(min_value=0, max_value=MASK64), st.lists(st.integers(0, 2**32)))
    def test_deterministic(self, state, tokens):
        assert fold64(state, tokens) == fold64(state, tokens)

    def test_fold_and_seed_match_chained_finalizer(self):
        # No token, tokens at and past 2**32 up to 2**64 - 1, and states at
        # and near 2**64: one finalizer per token, and seed64 one more.
        contexts = [(), (0,), (2**32,), (2**32 - 1, 2**32), (2**63, MASK64), (MASK64, 0, 2**40)]
        for state in (0, 1, 2**63, MASK64 - 1, MASK64):
            for ctx in contexts:
                s = state
                for tok in ctx:
                    s = _reference_finalizer(s * GOLDEN + tok + 1)
                assert fold64(state, ctx) == s
                assert seed64(state, ctx) == _reference_finalizer(s)

    @given(st.integers(min_value=0, max_value=MASK64), st.lists(st.integers(0, MASK64)))
    def test_seed_is_finalized_fold(self, state, tokens):
        assert seed64(state, tokens) == mix64(fold64(state, tokens))


def _first_draws(state, n):
    # Draws 1..n of RngStream(state).
    return counter_uniforms(state, np.arange(1, n + 1, dtype=np.uint64))


class TestRngStream:
    def test_first_draw_uses_counter_one(self):
        stream = RngStream(_SPLITMIX_SEED)
        expected = (_SPLITMIX_OUTPUTS[0] >> 11) * 2.0**-53
        assert stream.next_uniform() == expected
        assert stream.counter == 1

    def test_counter_uniforms_match_value_at(self):
        states = np.array([0, 99, MASK64, 1234567], dtype=np.uint64)
        counters = np.array([0, 1, 2, 1000, MASK64], dtype=np.uint64)
        grid = counter_uniforms(states[:, None], counters[None, :])
        assert grid.shape == (4, 5)
        for i, state in enumerate(states.tolist()):
            for j, counter in enumerate(counters.tolist()):
                assert grid[i, j] == RngStream(state).value_at(counter)

    def test_value_at_is_random_access(self):
        stream = RngStream(123)
        draws = [stream.next_uniform() for _ in range(10)]
        probe = RngStream(123)
        assert probe.value_at(7) == draws[6]
        assert probe.counter == 0

    def test_zero_state_first_draw_not_degenerate(self):
        assert RngStream(0).next_uniform() != 0.0

    def test_range_half_open(self):
        u = _first_draws(2024, 10000)
        assert np.all(u >= 0.0) and np.all(u < 1.0)

    def test_uniformity_large_sample(self):
        u = _first_draws(31337, 1_000_000)
        assert abs(u.mean() - 0.5) < 4.0 / np.sqrt(12e6)
        ks = sstats.kstest(u, "uniform")
        assert ks.pvalue > 1e-4

    def test_distinct_states_decorrelated(self):
        a = _first_draws(1, 100_000)
        b = _first_draws(2, 100_000)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.01


class TestMakeNtp:
    def test_normalizes(self):
        dist = make_ntp([2.0, 6.0])
        assert dist.tolist() == [0.25, 0.75]
        assert dist.ndim == 1 and len(dist) == 2

    def test_empty_rejected(self):
        with pytest.raises(EmptyVector):
            make_ntp([])

    def test_two_dimensional_rejected(self):
        with pytest.raises(EmptyVector):
            make_ntp([[0.5, 0.5]])

    def test_negative_rejected(self):
        with pytest.raises(NegativeEntry):
            make_ntp([-0.1, 1.1])

    def test_zero_sum_rejected(self):
        with pytest.raises(NotNormalized):
            make_ntp([0.0, 0.0])

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize(
        "raw",
        [
            [np.nan, 1.0],
            [np.inf, 1.0],
            pytest.param(
                [1e308, 1e308], marks=pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
            ),
        ],
        ids=["nan", "inf", "overflow"],
    )
    def test_non_finite_rejected(self, raw, strict):
        with pytest.raises(NotNormalized):
            make_ntp(raw, strict=strict)

    def test_strict_rejects_unnormalized(self):
        with pytest.raises(NotNormalized):
            make_ntp([0.5, 0.6], strict=True)

    def test_strict_accepts_normalized(self):
        dist = make_ntp([0.5, 0.5], strict=True)
        assert dist.sum() == 1.0

    def test_read_only(self):
        dist = make_ntp([0.5, 0.5])
        with pytest.raises(ValueError):
            dist[0] = 1.0

    @settings(max_examples=50)
    @given(
        st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=32).filter(
            lambda w: sum(w) > 0
        )
    )
    def test_always_sums_to_one(self, weights):
        assert abs(make_ntp(weights).sum() - 1.0) < 1e-9


class TestGeneratedText:
    def test_prompt_and_continuation(self):
        text = GeneratedText(tokens=(1, 2, 3, 4), prompt_len=2)
        assert text.continuation == (3, 4)
        assert len(text) == 4

    def test_tokens_coerced_to_ints(self):
        text = GeneratedText(tokens=(np.int64(5), 6.0), prompt_len=0)
        assert text.tokens == (5, 6)
        assert all(isinstance(t, int) for t in text.tokens)

    @pytest.mark.parametrize("bad", [1.9, np.float64(0.5), "3"])
    def test_non_integral_tokens_rejected(self, bad):
        # int() would truncate them to another token.
        with pytest.raises(ValueError, match="tokens must be integers"):
            GeneratedText(tokens=(1, bad), prompt_len=0)

    def test_prompt_len_validated(self):
        with pytest.raises(ValueError):
            GeneratedText(tokens=(1,), prompt_len=2)
        with pytest.raises(ValueError):
            GeneratedText(tokens=(1,), prompt_len=-1)

    def test_empty_allowed(self):
        assert GeneratedText(tokens=(), prompt_len=0).continuation == ()


def test_context_window_pads_and_trims():
    assert context_window([5, 6, 7], 2) == (6, 7)
    assert context_window([7], 3) == (0, 0, 7)
    assert context_window([], 2) == (0, 0)
    assert context_window([1, 2], 0) == ()
