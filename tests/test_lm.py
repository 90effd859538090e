"""Synthetic sources: keyed-row Markov models and recorded-trace replay."""

import hashlib
import itertools
import json
import math

import numpy as np
import pytest
from scipy import stats as sstats

from wmkit.core import MASK64, GeneratedText, RngStream, fold64, make_ntp, mix64
from wmkit.decoders import DecoderConfig, generate
from wmkit.keying import WatermarkKey
from wmkit.lm import (
    _ROW_INC,
    _ROW_TAG,
    EndOfTrace,
    MalformedTrace,
    MarkovSource,
    TraceSource,
    _gamma_logs,
    load_trace,
    parse_model_spec,
    save_trace,
)

KEY = WatermarkKey(master=0x9E3779B97F4A7C15, k=2, gamma=0.5, green_mode="hash")

# sha256 over the rows of six MarkovSource configurations (seed 11), each
# row at history [ctx % V, (ctx * 7) % V]; captured when rows became one
# vectorized log-Gamma draw from a re-keyed PCG64 generator.
ROW_CONFIGS = (
    (dict(vocab_size=64, concentration=0.3, order=2), 300),
    (dict(vocab_size=64, concentration=1.5, order=2), 300),
    (dict(vocab_size=1000, concentration=0.3, temperature=0.5, order=1), 20),
    (dict(vocab_size=32000, concentration=0.3, order=0), 1),
    (dict(vocab_size=7, concentration=1.0, temperature=2.0, order=1), 300),
    (dict(vocab_size=64, concentration=0.05, order=1), 300),
)
GOLDEN_ROWS = "70dac63c94f17f6aec30e07299e0efcc2e271005dc975cc0446fc44ec448c0cc"


def _reference_row(src: MarkovSource, ctx: tuple[int, ...]) -> np.ndarray:
    """The row formula written plainly: a log of each draw row, an errstate
    for the boost and one for tempering, then make_ntp.  MarkovSource's
    one-buffer, in-place form must match it byte for byte."""
    bits = np.random.PCG64(0)
    bits.state = {
        "bit_generator": "PCG64",
        "state": {"state": mix64(fold64((src.seed ^ _ROW_TAG) & MASK64, ctx)), "inc": _ROW_INC},
        "has_uint32": 0,
        "uinteger": 0,
    }
    gen, shape, n = np.random.Generator(bits), src.concentration, src.vocab_size
    if shape < 1.0:
        log_g = np.log(gen.standard_gamma(shape + 1.0, n))
        log_u = np.log(gen.random(n))
        with np.errstate(over="ignore"):
            log_g += log_u / shape
        if log_g.max() == -np.inf:
            log_g = np.where(log_u == log_u.max(), 0.0, -np.inf)
    else:
        log_g = np.log(gen.standard_gamma(shape, n))
    with np.errstate(over="ignore"):
        x = log_g / src.temperature
        top = x.max()
        if not math.isfinite(top):
            x, top = (log_g - log_g.max()) / src.temperature, 0.0
        row = np.exp(x - top)
    return make_ntp(row / row.sum())


class TestGammaRow:
    # pyproject.toml makes RuntimeWarnings errors, so a missing np.errstate
    # fails here.
    @pytest.mark.parametrize("concentration", [1e-308, 1e-8, 0.3, 1.0, 2.5, 1e308])
    @pytest.mark.parametrize("vocab", [1, 2, 64, 1000])
    def test_row_bytes_match_reference(self, vocab, concentration):
        for temperature, seed in itertools.product((1e-308, 0.5, 1.0, 5.0), (0, 11, MASK64)):
            src = MarkovSource(
                order=2, vocab_size=vocab, concentration=concentration, seed=seed,
                temperature=temperature,
            )
            for ctx in ((0, 0), (1, vocab - 1), (vocab // 2, 7 % vocab), (3 % vocab, 2 % vocab)):
                assert src.next(ctx).tobytes() == _reference_row(src, ctx).tobytes()

    @pytest.mark.parametrize("order", [0, 1, 3])
    def test_row_state_at_edge_seeds_and_tokens(self, order):
        # Seeds at and near 2**64 (one XORs to row state 0), and contexts of
        # tokens at and past 2**32: the row state is the chained mix64 fold.
        edge = (2**32 - 1, 2**32, 2**63, MASK64 - 1, MASK64)
        for seed in (0, _ROW_TAG, MASK64 - 2**32, MASK64 - 1, MASK64):
            src = MarkovSource(order=order, vocab_size=7, concentration=0.3, seed=seed)
            for i in range(len(edge)):
                ctx = tuple(edge[(i + j) % len(edge)] for j in range(order))
                assert src.next(ctx).tobytes() == _reference_row(src, ctx).tobytes()

    def test_golden_rows(self):
        h = hashlib.sha256()
        for kwargs, n_ctx in ROW_CONFIGS:
            src = MarkovSource(seed=11, **kwargs)
            v = kwargs["vocab_size"]
            for ctx in range(n_ctx):
                h.update(src.next([ctx % v, (ctx * 7) % v]).tobytes())
        assert h.hexdigest() == GOLDEN_ROWS

    @pytest.mark.parametrize("shape", [0.3, 1.0, 2.5])
    def test_log_gamma_marginal_ks(self, shape):
        # Below shape 1 the draw is the boost log Gamma(a + 1) + log(U) / a.
        with np.errstate(over="ignore"):
            g = np.exp(_gamma_logs(np.random.default_rng(7), shape, 200_000)[0])
        assert sstats.kstest(g, "gamma", args=(shape,)).pvalue > 1e-3

    @pytest.mark.parametrize(
        "vocab, shape",
        [(64, 0.3), *itertools.product((1, 2, 5, 64), (0.05, 1.0, 1.5))],
    )
    def test_dirichlet_second_moment(self, vocab, shape):
        # A Dirichlet(a, ..., a) row over V tokens has E[sum p^2] =
        # (a + 1) / (V a + 1).  At V = 64 one seed's 4,096 order-2 contexts
        # give the rows; smaller vocabularies take further seeds.
        n_seeds = -(-4096 // vocab**2)
        sums = np.array([
            float(np.sum(src.next(ctx) ** 2))
            for src in (
                MarkovSource(order=2, vocab_size=vocab, concentration=shape, seed=s)
                for s in range(n_seeds)
            )
            for ctx in itertools.product(range(vocab), repeat=2)
        ])
        assert len(sums) >= 4096
        se = sums.std(ddof=1) / math.sqrt(len(sums))
        want = (shape + 1.0) / (vocab * shape + 1.0)
        assert abs(sums.mean() - want) <= 4.0 * se + 1e-12


@pytest.mark.parametrize("source", [
    lambda: MarkovSource(order=2, vocab_size=16, seed=3),
    lambda: _make_trace(vocab=16),
], ids=["markov", "trace"])
def test_next_returns_read_only_law(source):
    src = source()
    dist = src.next([4, 5])
    assert dist.dtype == np.float64 and dist.shape == (src.vocab_size,)
    assert abs(dist.sum() - 1.0) <= 1e-9
    with pytest.raises(ValueError):
        dist[0] = 0.5


class TestMarkovSource:
    def test_rows_are_distributions(self):
        src = MarkovSource(order=2, vocab_size=16, seed=3)
        dist = src.next([4, 5])
        assert len(dist) == 16
        assert float(np.sum(dist)) == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.asarray(dist) >= 0)

    def test_rows_deterministic_across_instances(self):
        a = MarkovSource(order=2, vocab_size=32, seed=7)
        b = MarkovSource(order=2, vocab_size=32, seed=7)
        assert np.array_equal(a.next([1, 2]), b.next([1, 2]))

    def test_seed_changes_rows(self):
        a = MarkovSource(order=2, vocab_size=32, seed=7)
        b = MarkovSource(order=2, vocab_size=32, seed=8)
        assert not np.array_equal(a.next([1, 2]), b.next([1, 2]))

    def test_short_history_left_padded(self):
        src = MarkovSource(order=3, vocab_size=16, seed=1)
        assert np.array_equal(src.next([5]), src.next([0, 0, 5]))

    def test_only_last_order_tokens_matter(self):
        src = MarkovSource(order=2, vocab_size=16, seed=1)
        assert np.array_equal(src.next([9, 3, 4]), src.next([7, 3, 4]))

    def test_high_temperature_flattens(self):
        hot = MarkovSource(order=2, vocab_size=64, seed=11, temperature=1e9)
        p = np.asarray(hot.next([3, 4]))
        assert 0.5 * np.abs(p - 1.0 / 64).sum() < 1e-6

    def test_low_temperature_sharpens(self):
        base = MarkovSource(order=2, vocab_size=64, seed=11)
        cold = MarkovSource(order=2, vocab_size=64, seed=11, temperature=0.25)
        assert np.max(cold.next([3, 4])) > np.max(base.next([3, 4]))

    @pytest.mark.parametrize(
        "concentration, temperature",
        [(0.3, 0.001), (5.0, 0.002), (5.0, 1e-308), (0.3, 1e-310)],
    )
    def test_underflowing_temperature_keeps_a_law(self, concentration, temperature):
        # row ** (1 / T) underflows to zeros here; the row is tempered
        # relative to its max instead.  In the last two cases log(row) / T
        # overflows too, so the logs are taken relative to the untempered max.
        kw = dict(order=1, vocab_size=64, seed=11, concentration=concentration)
        cold = MarkovSource(temperature=temperature, **kw).next([1])
        base = MarkovSource(**kw).next([1])
        assert np.all(np.isfinite(cold)) and np.all(cold >= 0)
        assert abs(cold.sum() - 1.0) < 1e-9
        assert np.argmax(cold) == np.argmax(base)
        assert cold.max() > base.max()

    def test_entropy_in_conversational_band(self):
        # Concentration 0.3 on a 64-token vocabulary gives rows that are
        # neither deterministic nor uniform.
        src = MarkovSource(order=2, vocab_size=64, seed=11, concentration=0.3)
        ents = []
        for i in range(300):
            p = np.asarray(src.next([i % 64, i // 64]))
            nz = p[p > 0]
            ents.append(float(-(nz * np.log(nz)).sum()))
        assert 1.5 < float(np.mean(ents)) < 4.0
        assert max(ents) < np.log(64)

    def test_cache_bounded(self):
        src = MarkovSource(order=2, vocab_size=16, seed=1, cache_size=4)
        for i in range(10):
            src.next([i, i])
        assert len(src._cache) <= 4

    def test_default_cache_bounded_by_bytes(self):
        # 256 MiB of float64 rows: 1,048 rows at V=32000, not 2**20 (256 GiB).
        big = MarkovSource(order=1, vocab_size=32000, seed=1)
        assert big.cache_size == 2**28 // (8 * 32000) == 1048
        assert MarkovSource(order=0, vocab_size=2**30, seed=1).cache_size == 1
        # A V=64 corpus of a few thousand contexts never evicts.
        assert MarkovSource(order=2, vocab_size=64, seed=1).cache_size > 4096
        assert MarkovSource(order=2, vocab_size=64, seed=1, cache_size=3).cache_size == 3
        # The bound counts V floats per row, so a cached row owns its memory
        # and is no view of a larger draw buffer.
        for conc, temp in itertools.product((1e-308, 0.3, 2.5), (1.0, 0.5)):
            src = MarkovSource(order=1, vocab_size=64, seed=1, concentration=conc, temperature=temp)
            for ctx in range(4):
                row = src.next([ctx])
                assert row.base is None or row.base.nbytes == 8 * 64

    def test_cache_eviction_keeps_determinism(self):
        src = MarkovSource(order=2, vocab_size=16, seed=1, cache_size=2)
        first = np.asarray(src.next([1, 2])).copy()
        for i in range(5):
            src.next([i + 3, i + 3])
        assert np.array_equal(src.next([1, 2]), first)

    def test_validation(self):
        with pytest.raises(ValueError):
            MarkovSource(order=-1, vocab_size=16, seed=1)
        with pytest.raises(ValueError):
            MarkovSource(order=2, vocab_size=0, seed=1)
        with pytest.raises(ValueError):
            MarkovSource(order=2, vocab_size=16, seed=1, concentration=0.0)
        with pytest.raises(ValueError):
            MarkovSource(order=2, vocab_size=16, seed=1, temperature=0.0)

    @pytest.mark.parametrize("cache_size", [0, -3, 2.5, 1.0, "4", True])
    def test_cache_size_must_be_an_integer_of_at_least_one(self, cache_size):
        with pytest.raises(ValueError, match="cache_size must be an integer >= 1"):
            MarkovSource(order=2, vocab_size=16, seed=1, cache_size=cache_size)

    def test_numpy_integer_cache_size(self):
        src = MarkovSource(order=2, vocab_size=16, seed=1, cache_size=np.int64(2))
        for i in range(4):
            src.next([i, i])
        assert len(src._cache) == 2

    def test_concentration_must_be_finite(self):
        # Gamma(inf) is no law; refused before any row is drawn.
        with pytest.raises(ValueError, match="finite"):
            MarkovSource(order=1, vocab_size=8, seed=1, concentration=math.inf)
        with pytest.raises(ValueError, match="finite"):
            parse_model_spec("markov:seed=1,vocab=8,order=1,conc=inf")

    def test_tiny_concentration_gives_near_one_hot_rows(self):
        # Gamma(a) = Gamma(a + 1) * U^(1/a) underflows to 0 for a tiny a;
        # in log space the largest variate still dominates its row.
        src = MarkovSource(order=1, vocab_size=64, seed=1, concentration=1e-8)
        for ctx in range(200):
            assert src.next([ctx % 64]).max() > 0.999

    def test_overflowing_log_gamma_keeps_finite_rows_silently(self):
        # At concentration 1e-308, log(U) / a overflows to -inf over most of
        # each row.  Rows with a finite entry keep the bits they had while
        # the overflow still warned (digest captured then).
        src = MarkovSource(order=1, vocab_size=64, seed=11, concentration=1e-308)
        h = hashlib.sha256()
        for ctx in range(64):
            h.update(src.next([ctx]).tobytes())
        assert h.hexdigest() == "34fd6eb57acfbe529282c9ce021c68f5fc307a62ab03171372d450d243d847d6"

    def test_log_gamma_overflowing_everywhere_is_one_hot_at_largest_uniform(self):
        assert MarkovSource(order=1, vocab_size=1, seed=11, concentration=1e-308).next(
            [0]
        ).tolist() == [1.0]
        everywhere = 0
        for seed in range(300):
            with np.errstate(over="ignore"):
                log_g = _gamma_logs(np.random.default_rng(seed), 1e-308, 2)[0]
            gen = np.random.default_rng(seed)
            gen.standard_gamma(1.0 + 1e-308, 2)
            u = gen.random(2)
            assert log_g.max() > -math.inf and int(log_g.argmax()) == int(u.argmax())
            if log_g.max() == 0.0:
                everywhere += 1
                assert sorted(log_g.tolist()) == [-math.inf, 0.0]
        assert everywhere > 0

    def test_huge_concentration_gives_uniform_rows(self):
        # The raw Gamma(1e308) variates sum past the largest float.
        src = MarkovSource(order=1, vocab_size=8, seed=1, concentration=1e308)
        for ctx in range(8):
            p = src.next([ctx])
            assert np.all(np.isfinite(p))
            np.testing.assert_allclose(p, 1.0 / 8, rtol=1e-12)

    def test_order_zero_ignores_history(self):
        src = MarkovSource(order=0, vocab_size=16, seed=1)
        assert np.array_equal(src.next([1, 2]), src.next([9]))

    def test_golden_generation(self):
        # Frozen end-to-end sequence; any drift in row construction, keying,
        # or the coupling sampler shows up here.
        model = MarkovSource(order=2, vocab_size=64, seed=11)
        out = generate(
            model,
            KEY,
            DecoderConfig(scheme="mc"),
            GeneratedText((1, 2), 2),
            12,
            RngStream(0),
        )
        assert out.text.tokens == (1, 2, 58, 5, 0, 54, 10, 4, 8, 53, 3, 56, 28, 50)


def _make_trace(n=5, vocab=8, seed=0):
    src = MarkovSource(order=1, vocab_size=vocab, seed=seed)
    return TraceSource(vocab_size=vocab, steps=[src.next([t]) for t in range(n)])


class TestTraceRoundTrip:
    def test_save_load_identical(self, tmp_path):
        trace = _make_trace()
        path = tmp_path / "t.jsonl"
        save_trace(trace, path)
        again = load_trace(path)
        assert again.vocab_size == trace.vocab_size
        assert len(again.steps) == len(trace.steps)
        for a, b in zip(again.steps, trace.steps):
            assert np.array_equal(a, b)

    def test_older_token_field_is_ignored(self, tmp_path):
        # Traces once recorded the token each step took; such a file loads
        # and replays the same laws, whatever the token says.
        trace = _make_trace(n=4)
        path = tmp_path / "t.jsonl"
        lines = [json.dumps({"vocab_size": 8, "n_steps": 4})]
        for t, (step, token) in enumerate(zip(trace.steps, [3, 8, -1, 1.5])):
            lines.append(json.dumps({"t": t, "probs": [float(p) for p in step], "token": token}))
        path.write_text("\n".join(lines) + "\n")
        src = load_trace(path)
        for want in trace.steps:
            assert np.array_equal(src.next([]), want)

    def test_header_first_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        save_trace(_make_trace(n=3), path)
        header = json.loads(path.read_text().splitlines()[0])
        assert header == {"vocab_size": 8, "n_steps": 3}


class TestTraceValidation:
    def _lines(self, tmp_path, n=3):
        path = tmp_path / "t.jsonl"
        save_trace(_make_trace(n=n), path)
        return path, path.read_text().splitlines()

    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text("")
        with pytest.raises(MalformedTrace):
            load_trace(path)

    def test_missing_header_key(self, tmp_path):
        path, lines = self._lines(tmp_path)
        lines[0] = json.dumps({"vocab_size": 8})
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedTrace):
            load_trace(path)

    def test_wrong_step_count(self, tmp_path):
        path, lines = self._lines(tmp_path)
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(MalformedTrace):
            load_trace(path)

    def test_bad_step_index(self, tmp_path):
        path, lines = self._lines(tmp_path)
        row = json.loads(lines[2])
        row["t"] = 7
        lines[2] = json.dumps(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedTrace):
            load_trace(path)

    def test_wrong_probs_length(self, tmp_path):
        path, lines = self._lines(tmp_path)
        row = json.loads(lines[1])
        row["probs"] = row["probs"][:-1]
        lines[1] = json.dumps(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedTrace):
            load_trace(path)

    def test_unnormalized_probs(self, tmp_path):
        path, lines = self._lines(tmp_path)
        row = json.loads(lines[1])
        row["probs"][0] += 1e-3
        lines[1] = json.dumps(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedTrace):
            load_trace(path)

    def test_probability_not_a_number(self, tmp_path):
        path, lines = self._lines(tmp_path)
        row = json.loads(lines[1])
        row["probs"][0] = {}
        lines[1] = json.dumps(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedTrace):
            load_trace(path)

    @pytest.mark.parametrize(
        "line, field, value",
        [
            (2, "probs", ["0.125"] * 8),  # numpy would parse these into a law
            (1, "probs", [True] + [False] * 7),
            (1, "probs", [float("nan")] + [0.125] * 7),
            (2, "t", True),  # JSON true equals 1, the index of the step on line 2
        ],
        ids=["probs-strings", "probs-booleans", "probs-nan", "t-boolean"],
    )
    def test_step_field_of_wrong_json_type(self, tmp_path, line, field, value):
        path, lines = self._lines(tmp_path)
        row = json.loads(lines[line])
        row[field] = value
        lines[line] = json.dumps(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedTrace):
            load_trace(path)

    def test_garbage_json(self, tmp_path):
        path = tmp_path / "g.jsonl"
        path.write_text("not json\n")
        with pytest.raises(MalformedTrace):
            load_trace(path)

    def test_step_line_not_an_object(self, tmp_path):
        path, lines = self._lines(tmp_path)
        lines[2] = json.dumps([0.5, 0.5])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedTrace):
            load_trace(path)

    def test_step_line_not_json(self, tmp_path):
        path, lines = self._lines(tmp_path)
        lines[2] = lines[2][:-1]  # the object's closing brace
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedTrace, match="bad step line 1"):
            load_trace(path)

    # Each header was once truncated by int() or let through unchecked.
    @pytest.mark.parametrize("header, probs", [
        ({"vocab_size": 2.7, "n_steps": 1}, [0.5, 0.5]),
        ({"vocab_size": True, "n_steps": 1}, [1.0]),
        ({"vocab_size": 2, "n_steps": 1.9}, [0.5, 0.5]),
        ({"vocab_size": 2, "n_steps": True}, [0.5, 0.5]),
        ({"vocab_size": 0, "n_steps": 0}, None),
    ], ids=["fractional-vocab", "boolean-vocab", "fractional-steps", "boolean-steps",
            "empty-vocab"])
    def test_header_counts_must_be_integers_in_range(self, tmp_path, header, probs):
        path = tmp_path / "t.jsonl"
        steps = [] if probs is None else [json.dumps({"t": 0, "probs": probs})]
        path.write_text("\n".join([json.dumps(header), *steps]) + "\n")
        with pytest.raises(MalformedTrace):
            load_trace(path)


class TestReplay:
    def test_next_bounds(self):
        trace = _make_trace(n=3)
        assert np.array_equal(trace.next([]), trace.steps[0])
        with pytest.raises(EndOfTrace):
            TraceSource(trace.vocab_size, trace.steps, cursor=3).next([])
        with pytest.raises(EndOfTrace):
            TraceSource(trace.vocab_size, trace.steps, cursor=-1).next([])

    def test_empty_trace_raises_immediately(self):
        with pytest.raises(EndOfTrace):
            TraceSource(vocab_size=4, steps=[]).next([])

    def test_cursor_semantics(self):
        src = _make_trace(n=3)
        seen = [src.next([99]) for _ in range(3)]
        for got, want in zip(seen, src.steps):
            assert np.array_equal(got, want)
        with pytest.raises(EndOfTrace):
            src.next([99])
        src.cursor = 0
        assert np.array_equal(src.next([99]), src.steps[0])

    def test_history_ignored(self):
        a, b = _make_trace(n=2), _make_trace(n=2)
        assert np.array_equal(a.next([1]), b.next([2, 3, 4]))

    def test_vocab_property(self):
        assert _make_trace(vocab=8).vocab_size == 8


class TestModelSpec:
    def test_markov_spec(self):
        src = parse_model_spec("markov:seed=7,vocab=64,order=2")
        assert isinstance(src, MarkovSource)
        assert (src.seed, src.vocab_size, src.order) == (7, 64, 2)
        assert src.concentration == pytest.approx(0.3)
        assert src.temperature == pytest.approx(1.0)

    def test_markov_optional_params(self):
        src = parse_model_spec("markov:seed=1,vocab=8,order=1,conc=0.5,temp=2.0")
        assert src.concentration == pytest.approx(0.5)
        assert src.temperature == pytest.approx(2.0)

    def test_markov_missing_required(self):
        with pytest.raises(ValueError):
            parse_model_spec("markov:seed=1,vocab=8")

    def test_markov_unknown_param(self):
        with pytest.raises(ValueError):
            parse_model_spec("markov:seed=1,vocab=8,order=1,flavor=mint")

    @pytest.mark.parametrize("spec", ["markov:seed=1,vocab=64,order=1,seed=2",
                                      "markov:seed=1,vocab=64,order=1, seed =1",
                                      "trace:path=a.jsonl,path=b.jsonl"])
    def test_repeated_param(self, spec):
        # A repeated key would silently keep its last value.
        with pytest.raises(ValueError, match="repeated model parameter"):
            parse_model_spec(spec)

    def test_trace_spec(self, tmp_path):
        path = tmp_path / "t.jsonl"
        save_trace(_make_trace(n=4), path)
        src = parse_model_spec(f"trace:path={path}")
        assert isinstance(src, TraceSource)
        assert src.vocab_size == 8

    def test_trace_requires_path(self):
        with pytest.raises(ValueError):
            parse_model_spec("trace:file=x.jsonl")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            parse_model_spec("gpt4:size=large")

    def test_malformed_parameter(self):
        with pytest.raises(ValueError):
            parse_model_spec("markov:seed")
