"""Token-distribution sources: seeded synthetic Markov models and replay
of recorded next-token-probability traces.

A source exposes ``vocab_size`` and ``next(history)``, which returns the
next-token law as a read-only float64 array (see :func:`~wmkit.core.make_ntp`),
and stands in for a language model.  MarkovSource synthesizes Dirichlet-like
rows lazily from the deterministic keyed stream, so identical (seed,
context) pairs reproduce identical rows across processes.  Traces are JSON
Lines files that let externally recorded model outputs drive the decoders
without any inference in-process.
"""

from __future__ import annotations

import json
import math
from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .core import (
    MASK64,
    context_window,
    counter_uniforms,
    fold64,
    make_ntp,
    mix64,
)

__all__ = [
    "MarkovSource",
    "NtpTrace",
    "TraceSource",
    "save_trace",
    "load_trace",
    "parse_model_spec",
    "MalformedTrace",
    "EndOfTrace",
]

# Domain tag separating row-synthesis streams from watermark key streams.
_ROW_TAG = 0x5A
# Most uniforms one row-synthesis block holds (128 KiB of float64).
_BLOCK_CAP = 1 << 14
# Default byte budget of a MarkovSource row cache.
_CACHE_BYTES = 1 << 28
# Smallest normal float64; a tempered row whose max is below it has underflowed.
_TINY = np.finfo(np.float64).tiny


class MalformedTrace(ValueError):
    """Raised when a trace file violates the trace format."""


class EndOfTrace(IndexError):
    """Raised when replay is asked for a step past the recorded horizon."""


def _uniform_blocks(state: int, size: int) -> Iterator[list[float]]:
    # Draws 1, 2, ... of RngStream(state), ``size`` per block.
    drawn = 0
    while True:
        counters = np.arange(drawn + 1, drawn + size + 1, dtype=np.uint64)
        yield counter_uniforms(state, counters).tolist()
        drawn += size


def _gamma_row(state: int, n: int, shape: float) -> list[float]:
    """``n`` Marsaglia-Tsang Gamma(shape) variates, bit-equal to drawing
    each in turn from ``RngStream(state).next_uniform()``.

    The uniforms are computed in blocks; the arithmetic stays on Python
    floats and ``math`` because numpy's log and power differ from them in
    the last bit on some inputs.  For shape < 1 each variate takes its
    boost draw U first: Gamma(a) = Gamma(a + 1) * U^(1/a).  Each attempt
    takes a Box-Muller normal (1 - u keeps the log argument in (0, 1]) and,
    unless ``v <= 0`` rejects it, one more draw.
    """
    boost = shape < 1.0
    inv_shape = 1.0 / shape
    d = (shape + 1.0 if boost else shape) - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    two_pi = 2.0 * math.pi
    log, sqrt, cos = math.log, math.sqrt, math.cos
    # About 4.2 draws per variate with the boost and 3.1 without.
    size = min((5 if boost else 4) * n + 16, _BLOCK_CAP)
    draw = chain.from_iterable(_uniform_blocks(state, size)).__next__
    scale = 1.0
    out: list[float] = []
    for _ in range(n):
        if boost:
            scale = (1.0 - draw()) ** inv_shape
        while True:
            x = sqrt(-2.0 * log(1.0 - draw())) * cos(two_pi * draw())
            v = (1.0 + c * x) ** 3
            if v > 0.0 and log(1.0 - draw()) < 0.5 * x * x + d - d * v + d * log(v):
                break
        out.append(d * v * scale)
    return out


@dataclass
class MarkovSource:
    """Order-k Markov model whose rows are lazily synthesized Dirichlet
    draws: normalized Gamma(concentration) variates from a stream keyed by
    (seed, context), then tempered by exponent 1/temperature.

    Rows are cached (bounded LRU) so long generations stay memory-stable
    and repeated contexts cost one synthesis.  ``cache_size`` counts rows;
    by default it is as many float64 rows as fit in 256 MiB.
    """

    order: int
    vocab_size: int
    concentration: float = 0.3
    seed: int = 0
    temperature: float = 1.0
    cache_size: int | None = None
    _cache: OrderedDict = field(default_factory=OrderedDict, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.order < 0:
            raise ValueError("order must be >= 0")
        if self.vocab_size < 1:
            raise ValueError("vocab_size must be >= 1")
        if not self.concentration > 0.0:
            raise ValueError("concentration must be > 0")
        if not self.temperature > 0.0:
            raise ValueError("temperature must be > 0")
        if self.cache_size is None:
            self.cache_size = max(1, _CACHE_BYTES // (8 * self.vocab_size))

    def _row(self, ctx: tuple[int, ...]) -> np.ndarray:
        cached = self._cache.get(ctx)
        if cached is not None:
            self._cache.move_to_end(ctx)
            return cached
        state = mix64(fold64((self.seed ^ _ROW_TAG) & MASK64, ctx))
        raw = np.array(_gamma_row(state, self.vocab_size, self.concentration))
        if raw.sum() <= 0.0:
            raw = np.ones(self.vocab_size)
        row = raw / raw.sum()
        if self.temperature != 1.0:
            tempered = row ** (1.0 / self.temperature)
            # A cold row underflows to (near) zeros; temper it relative to its max.
            if tempered.max() < _TINY:
                tempered = (row / row.max()) ** (1.0 / self.temperature)
            row = tempered
        dist = make_ntp(row)
        self._cache[ctx] = dist
        if len(self._cache) > self.cache_size:
            self._cache.popitem(last=False)
        return dist

    def next(self, history: Sequence[int]) -> np.ndarray:
        return self._row(context_window(history, self.order))


@dataclass
class NtpTrace:
    """Recorded per-step next-token distributions, optionally with the
    tokens the recording run actually took."""

    vocab_size: int
    steps: list[np.ndarray]
    tokens_taken: list[int] | None = None


def save_trace(trace: NtpTrace, path: Path | str) -> None:
    """Write the JSON Lines trace format: a header line with vocab_size and
    n_steps, then one line per step with full-precision probabilities."""
    lines = [json.dumps({"vocab_size": trace.vocab_size, "n_steps": len(trace.steps)})]
    for i, step in enumerate(trace.steps):
        row: dict = {"t": i, "probs": [float(p) for p in step]}
        if trace.tokens_taken is not None:
            row["token"] = int(trace.tokens_taken[i])
        lines.append(json.dumps(row))
    Path(path).write_text("\n".join(lines) + "\n")


def load_trace(path: Path | str) -> NtpTrace:
    """Parse and validate a trace file; any structural or numerical problem
    raises MalformedTrace."""
    raw_lines = Path(path).read_text().splitlines()
    if not raw_lines:
        raise MalformedTrace("empty trace file")
    try:
        header = json.loads(raw_lines[0])
    except json.JSONDecodeError as exc:
        raise MalformedTrace(f"bad header line: {exc}") from exc
    if not isinstance(header, dict) or "vocab_size" not in header or "n_steps" not in header:
        raise MalformedTrace("header must carry vocab_size and n_steps")
    vocab_size, n_steps = header["vocab_size"], header["n_steps"]
    # type(), not isinstance(): JSON true loads as a bool, which is an int.
    if type(vocab_size) is not int or vocab_size < 1:
        raise MalformedTrace(f"vocab_size must be an integer >= 1, got {vocab_size!r}")
    if type(n_steps) is not int or n_steps < 0:
        raise MalformedTrace(f"n_steps must be an integer >= 0, got {n_steps!r}")
    body = [ln for ln in raw_lines[1:] if ln.strip()]
    if len(body) != n_steps:
        raise MalformedTrace(f"header promises {n_steps} steps, found {len(body)}")
    steps: list[np.ndarray] = []
    tokens: list[int] = []
    for i, ln in enumerate(body):
        try:
            row = json.loads(ln)
        except json.JSONDecodeError as exc:
            raise MalformedTrace(f"bad step line {i}: {exc}") from exc
        if not isinstance(row, dict):
            raise MalformedTrace(f"step line {i} must be a JSON object")
        t = row.get("t")
        if type(t) is not int or t != i:
            raise MalformedTrace(f"step line {i} carries t={t!r}")
        probs = row.get("probs")
        if not isinstance(probs, list) or len(probs) != vocab_size:
            raise MalformedTrace(f"step {i} needs {vocab_size} probabilities")
        # numpy would parse "0.5" and true; only JSON numbers are probabilities.
        if not all(type(p) in (int, float) for p in probs):
            raise MalformedTrace(f"step {i}: probabilities must be JSON numbers")
        try:
            steps.append(make_ntp(probs, strict=True))
        except (TypeError, ValueError) as exc:
            raise MalformedTrace(f"step {i}: {exc}") from exc
        if "token" in row:
            token = row["token"]
            if type(token) is not int or not 0 <= token < vocab_size:
                raise MalformedTrace(f"step {i}: token must be an integer in [0, {vocab_size})")
            tokens.append(token)
    if tokens and len(tokens) != n_steps:
        raise MalformedTrace("tokens must be present on every step or none")
    return NtpTrace(vocab_size=vocab_size, steps=steps, tokens_taken=tokens or None)


@dataclass
class TraceSource:
    """Cursor-based source replaying a trace step by step; the history
    argument is ignored because the distributions were recorded offline."""

    trace: NtpTrace
    cursor: int = 0

    @property
    def vocab_size(self) -> int:
        return self.trace.vocab_size

    def next(self, history: Sequence[int]) -> np.ndarray:
        """Distribution recorded at the cursor; past the horizon (or at a
        negative cursor) raises EndOfTrace."""
        t, steps = self.cursor, self.trace.steps
        if not 0 <= t < len(steps):
            raise EndOfTrace(f"trace has {len(steps)} steps, asked for t={t}")
        self.cursor += 1
        return steps[t]


def parse_model_spec(spec: str):
    """Build a source from a compact spec string.

    ``markov:seed=7,vocab=64,order=2[,conc=0.3][,temp=1.0]`` or
    ``trace:path=file.jsonl``.
    """
    kind, _, rest = spec.partition(":")
    params: dict[str, str] = {}
    if rest:
        for part in rest.split(","):
            if "=" not in part:
                raise ValueError(f"malformed model parameter {part!r}")
            k, _, v = part.partition("=")
            params[k.strip()] = v.strip()
    if kind == "markov":
        known = {"seed", "vocab", "order", "conc", "temp"}
        unknown = set(params) - known
        if unknown:
            raise ValueError(f"unknown markov parameters: {sorted(unknown)}")
        missing = {"seed", "vocab", "order"} - set(params)
        if missing:
            raise ValueError(f"markov spec needs: {sorted(missing)}")
        return MarkovSource(
            order=int(params["order"]),
            vocab_size=int(params["vocab"]),
            concentration=float(params.get("conc", 0.3)),
            seed=int(params["seed"]),
            temperature=float(params.get("temp", 1.0)),
        )
    if kind == "trace":
        if set(params) != {"path"}:
            raise ValueError("trace spec needs exactly path=...")
        return TraceSource(load_trace(params["path"]))
    raise ValueError(f"unknown model kind {kind!r}")
