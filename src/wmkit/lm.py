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
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import (
    context_window,
    make_ntp,
    seed64,
)

__all__ = [
    "MarkovSource",
    "TraceSource",
    "save_trace",
    "load_trace",
    "parse_model_spec",
    "MalformedTrace",
    "EndOfTrace",
]

# Domain tag separating row-synthesis streams from watermark key streams.
_ROW_TAG = 0x5A
# PCG64 increment shared by every row stream; the (seed, context) hash is the state.
_ROW_INC = 0xDA3E39CB94B95BDB
# Default byte budget of a MarkovSource row cache.
_CACHE_BYTES = 1 << 28
# Concentrations at or above this cannot overflow log(U) / concentration: a
# nonzero uniform U of numpy's 53-bit grid has |log U| <= 53 log 2 < 36.8,
# and 36.8 / 1e-306 is below the largest float.  Overflow starts near 2e-307.
_OVERFLOW_CONC = 1e-306


class MalformedTrace(ValueError):
    """Raised when a trace file violates the trace format."""


class EndOfTrace(IndexError):
    """Raised when replay is asked for a step past the recorded horizon."""


def _gamma_logs(gen: np.random.Generator, shape: float, n: int) -> tuple[np.ndarray, float]:
    """Logs of ``n`` Gamma(shape) variates and their max, under the caller's
    errstate, from one buffer and one log; the logs are an array of their
    own, n floats long.  For shape < 1 each is log Gamma(shape + 1) +
    log(U) / shape (all Gamma draws first, then the uniforms), so a tiny
    shape gives very negative logs, not zeros.  If log(U) / shape overflows
    to -inf on every entry, the logs are 0 at the largest U and -inf
    elsewhere: the one-hot law that the row tends to as the shape goes to
    0."""
    boost = shape < 1.0
    buf = np.empty((1 + boost, n))
    gen.standard_gamma(shape + 1.0 if boost else shape, out=buf[0])
    if boost:
        gen.random(out=buf[1])
    np.log(buf, out=buf)
    log_g = buf[0] + buf[1] / shape if boost else buf[0]
    top = np.maximum.reduce(log_g)
    if top == -np.inf:
        return np.where(buf[1] == np.maximum.reduce(buf[1]), 0.0, -np.inf), 0.0
    return log_g, top


@dataclass
class MarkovSource:
    """Order-k Markov model whose rows are lazily synthesized Dirichlet
    draws: normalized Gamma(concentration) variates from a PCG64 stream
    keyed by (seed, context), then tempered by exponent 1/temperature.

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
    _bits: np.random.PCG64 = field(init=False, repr=False, compare=False)
    _gen: np.random.Generator = field(init=False, repr=False, compare=False)
    _state: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.order < 0:
            raise ValueError("order must be >= 0")
        if self.vocab_size < 1:
            raise ValueError("vocab_size must be >= 1")
        if not 0.0 < self.concentration < math.inf:
            raise ValueError("concentration must be finite and > 0")
        if not self.temperature > 0.0:
            raise ValueError("temperature must be > 0")
        if self.cache_size is None:
            self.cache_size = max(1, _CACHE_BYTES // (8 * self.vocab_size))
        size = self.cache_size
        # A bool is an int, but no count of rows.
        if isinstance(size, bool) or not isinstance(size, (int, np.integer)) or size < 1:
            raise ValueError(f"cache_size must be an integer >= 1, got {size!r}")
        # Each row re-keys this one generator from this one state dict, whose
        # 128-bit state it rewrites; seeding a fresh generator costs more
        # than a small row.
        self._bits = np.random.PCG64(0)
        self._gen = np.random.Generator(self._bits)
        self._state = {
            "bit_generator": "PCG64",
            "state": {"state": 0, "inc": _ROW_INC},
            "has_uint32": 0,
            "uinteger": 0,
        }

    def _row(self, ctx: tuple[int, ...]) -> np.ndarray:
        cached = self._cache.get(ctx)
        if cached is not None:
            self._cache.move_to_end(ctx)
            return cached
        self._state["state"]["state"] = seed64(self.seed ^ _ROW_TAG, ctx)
        self._bits.state = self._state
        # Tempering by exponent 1/T is a scale of the logs; the row is
        # exponentiated relative to its max, so it never underflows to zeros.
        # A scale that overflows the max is applied to logs relative to the
        # untempered max instead, where overflow only sends entries to -inf.
        # The tempered max is the scaled max, as division is monotone.  At
        # T = 1 the scale is skipped (x / 1.0 is x), and so is the errstate
        # unless log(U) / concentration can overflow (see _OVERFLOW_CONC).
        # Normalized twice in place, as make_ntp(row / row.sum()) would be;
        # make_ntp's checks cannot fail on a row whose max is exp(0) = 1.
        if self.temperature == 1.0 and self.concentration >= _OVERFLOW_CONC:
            dist, top = _gamma_logs(self._gen, self.concentration, self.vocab_size)
            dist -= top
        else:
            with np.errstate(over="ignore"):
                dist, top = _gamma_logs(self._gen, self.concentration, self.vocab_size)
                scaled = top / self.temperature
                if math.isfinite(scaled):
                    dist /= self.temperature
                    dist -= scaled
                else:
                    dist -= top
                    dist /= self.temperature
        np.exp(dist, out=dist)
        dist /= np.add.reduce(dist)
        dist /= np.add.reduce(dist)
        dist.setflags(write=False)
        self._cache[ctx] = dist
        if len(self._cache) > self.cache_size:
            self._cache.popitem(last=False)
        return dist

    def next(self, history: Sequence[int]) -> np.ndarray:
        return self._row(context_window(history, self.order))


@dataclass
class TraceSource:
    """Recorded per-step next-token laws, replayed step by step from
    ``cursor``; the history argument is ignored because the laws were
    recorded offline."""

    vocab_size: int
    steps: list[np.ndarray]
    cursor: int = 0

    def next(self, history: Sequence[int]) -> np.ndarray:
        """Distribution recorded at the cursor; past the horizon (or at a
        negative cursor) raises EndOfTrace."""
        t, steps = self.cursor, self.steps
        if not 0 <= t < len(steps):
            raise EndOfTrace(f"trace has {len(steps)} steps, asked for t={t}")
        self.cursor += 1
        return steps[t]


def save_trace(trace: TraceSource, path: Path | str) -> None:
    """Write the JSON Lines trace format: a header line with vocab_size and
    n_steps, then one line per step with full-precision probabilities."""
    lines = [json.dumps({"vocab_size": trace.vocab_size, "n_steps": len(trace.steps)})]
    for i, step in enumerate(trace.steps):
        lines.append(json.dumps({"t": i, "probs": [float(p) for p in step]}))
    Path(path).write_text("\n".join(lines) + "\n")


def load_trace(path: Path | str) -> TraceSource:
    """Parse and validate a trace file; any structural or numerical problem
    raises MalformedTrace.  Keys of a step line other than ``t`` and
    ``probs`` are ignored."""
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
    return TraceSource(vocab_size=vocab_size, steps=steps)


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
            k, _, v = (t.strip() for t in part.partition("="))
            if k in params:
                raise ValueError(f"repeated model parameter {k!r}")
            params[k] = v
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
        return load_trace(params["path"])
    raise ValueError(f"unknown model kind {kind!r}")
