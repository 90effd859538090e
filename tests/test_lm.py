"""Synthetic sources: keyed-row Markov models and recorded-trace replay."""

import hashlib
import json
import math

import numpy as np
import pytest

from wmkit.core import GeneratedText, RngStream, mix64
from wmkit.decoders import DecoderConfig, generate
from wmkit.keying import WatermarkKey
from wmkit.lm import (
    _BLOCK_CAP,
    EndOfTrace,
    MalformedTrace,
    MarkovSource,
    NtpTrace,
    TraceSource,
    load_trace,
    parse_model_spec,
    _gamma_row,
    save_trace,
)

KEY = WatermarkKey(master=0x9E3779B97F4A7C15, k=2, gamma=0.5, green_mode="hash")

# sha256 over the rows of six MarkovSource configurations (seed 11), each
# row at history [ctx % V, (ctx * 7) % V]; captured from the per-draw
# Marsaglia-Tsang sampler before rows were drawn from uniform blocks.
ROW_CONFIGS = (
    (dict(vocab_size=64, concentration=0.3, order=2), 300),
    (dict(vocab_size=64, concentration=1.5, order=2), 300),
    (dict(vocab_size=1000, concentration=0.3, temperature=0.5, order=1), 20),
    (dict(vocab_size=32000, concentration=0.3, order=0), 1),
    (dict(vocab_size=7, concentration=1.0, temperature=2.0, order=1), 300),
    (dict(vocab_size=64, concentration=0.05, order=1), 300),
)
GOLDEN_ROWS = "41a7595420a7e35952e23f790d1648d77c4fb9c9cd5b689ddc9c83c05508c0dd"


def _reference_gamma_row(state, n, shape):
    """The per-draw sampler: each uniform from ``RngStream.next_uniform``.

    Returns the variates, the number of draws taken and the number of
    attempts rejected for ``v <= 0``.
    """
    stream = RngStream(state)
    nonpositive = 0

    def normal():
        u1 = 1.0 - stream.next_uniform()
        u2 = stream.next_uniform()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def gamma(a):
        nonlocal nonpositive
        if a < 1.0:
            u = 1.0 - stream.next_uniform()
            return gamma(a + 1.0) * u ** (1.0 / a)
        d = a - 1.0 / 3.0
        c = 1.0 / math.sqrt(9.0 * d)
        while True:
            x = normal()
            v = (1.0 + c * x) ** 3
            if v <= 0.0:
                nonpositive += 1
                continue
            u = 1.0 - stream.next_uniform()
            if math.log(u) < 0.5 * x * x + d - d * v + d * math.log(v):
                return d * v

    values = [gamma(shape) for _ in range(n)]
    return values, stream.counter, nonpositive


class TestGammaRow:
    def test_golden_rows(self):
        h = hashlib.sha256()
        for kwargs, n_ctx in ROW_CONFIGS:
            src = MarkovSource(seed=11, **kwargs)
            v = kwargs["vocab_size"]
            for ctx in range(n_ctx):
                h.update(src.next([ctx % v, (ctx * 7) % v]).tobytes())
        assert h.hexdigest() == GOLDEN_ROWS

    @pytest.mark.parametrize("shape", [0.3, 1.0, 2.5])
    def test_matches_reference_across_block_refills(self, shape):
        state = mix64(12345)
        want, draws, nonpositive = _reference_gamma_row(state, 6000, shape)
        # More draws than one capped block holds, so the row crosses refills.
        assert draws > _BLOCK_CAP
        if shape <= 1.0:
            assert nonpositive > 0
        assert _gamma_row(state, 6000, shape) == want

    @pytest.mark.parametrize("shape", [0.05, 1.0, 1.5])
    @pytest.mark.parametrize("n", [1, 2, 5, 64])
    def test_matches_reference_on_short_rows(self, shape, n):
        for seed in range(20):
            state = mix64(seed)
            assert _gamma_row(state, n, shape) == _reference_gamma_row(state, n, shape)[0]


@pytest.mark.parametrize("source", [
    lambda: MarkovSource(order=2, vocab_size=16, seed=3),
    lambda: TraceSource(_make_trace(vocab=16)),
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
        "concentration, temperature", [(0.3, 0.001), (5.0, 0.002)]
    )
    def test_underflowing_temperature_keeps_a_law(self, concentration, temperature):
        # row ** (1 / T) underflows to zeros here; the row is tempered
        # relative to its max instead.
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
        assert out.text.tokens == (1, 2, 53, 36, 2, 63, 14, 8, 13, 60, 32, 61, 40, 60)


def _make_trace(n=5, vocab=8, seed=0, with_tokens=False):
    src = MarkovSource(order=1, vocab_size=vocab, seed=seed)
    steps = [src.next([t]) for t in range(n)]
    tokens = list(range(n)) if with_tokens else None
    return NtpTrace(vocab_size=vocab, steps=steps, tokens_taken=tokens)


class TestTraceRoundTrip:
    def test_save_load_identical(self, tmp_path):
        trace = _make_trace(with_tokens=True)
        path = tmp_path / "t.jsonl"
        save_trace(trace, path)
        again = load_trace(path)
        assert again.vocab_size == trace.vocab_size
        assert again.tokens_taken == trace.tokens_taken
        for a, b in zip(again.steps, trace.steps):
            assert np.array_equal(a, b)

    def test_tokens_optional(self, tmp_path):
        trace = _make_trace(with_tokens=False)
        path = tmp_path / "t.jsonl"
        save_trace(trace, path)
        assert load_trace(path).tokens_taken is None

    def test_header_first_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        save_trace(_make_trace(n=3), path)
        header = json.loads(path.read_text().splitlines()[0])
        assert header == {"vocab_size": 8, "n_steps": 3}


class TestTraceValidation:
    def _lines(self, tmp_path, n=3):
        path = tmp_path / "t.jsonl"
        save_trace(_make_trace(n=n, with_tokens=True), path)
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

    def test_partial_tokens(self, tmp_path):
        path, lines = self._lines(tmp_path)
        row = json.loads(lines[2])
        del row["token"]
        lines[2] = json.dumps(row)
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

    @pytest.mark.parametrize("token", [1.6, True, 8, -1])
    def test_token_must_be_in_vocabulary(self, tmp_path, token):
        path, lines = self._lines(tmp_path)
        row = json.loads(lines[2])
        row["token"] = token
        lines[2] = json.dumps(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedTrace):
            load_trace(path)


class TestReplay:
    def test_next_bounds(self):
        trace = _make_trace(n=3)
        assert np.array_equal(TraceSource(trace).next([]), trace.steps[0])
        with pytest.raises(EndOfTrace):
            TraceSource(trace, cursor=3).next([])
        with pytest.raises(EndOfTrace):
            TraceSource(trace, cursor=-1).next([])

    def test_empty_trace_raises_immediately(self):
        trace = NtpTrace(vocab_size=4, steps=[])
        with pytest.raises(EndOfTrace):
            TraceSource(trace).next([])

    def test_cursor_semantics(self):
        trace = _make_trace(n=3)
        src = TraceSource(trace)
        seen = [src.next([99]) for _ in range(3)]
        for got, want in zip(seen, trace.steps):
            assert np.array_equal(got, want)
        with pytest.raises(EndOfTrace):
            src.next([99])
        src.cursor = 0
        assert np.array_equal(src.next([99]), trace.steps[0])

    def test_history_ignored(self):
        trace = _make_trace(n=2)
        a, b = TraceSource(trace), TraceSource(trace)
        assert np.array_equal(a.next([1]), b.next([2, 3, 4]))

    def test_vocab_property(self):
        assert TraceSource(_make_trace(vocab=8)).vocab_size == 8


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
