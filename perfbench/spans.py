"""Span tracing for the traced run, installed from the benchmark's own files.

Timing wrappers go around the public functions of each ``wmkit`` module, at
the name the calling module looks them up by (``wmkit.cli.generate``,
``wmkit.decoders.green_mask``, ``MarkovSource.next``,
``wmkit.simulation.hc_batch``, ...), so nothing in ``src/wmkit`` changes.  A
span records its name, start, end, parent span and run id; the run id
counts top-level ``cli.main`` calls, one per CLI command.  Spans stay in
memory and are written out when the run ends.

``wmkit.core`` gets no spans: its scalar calls take under a microsecond
each and run several times per token and scored position, so wrapping them
would distort the run.  Their cost shows up in the self time of their
callers.
"""

from __future__ import annotations

import importlib
from collections import Counter, namedtuple
from time import perf_counter

Span = namedtuple("Span", "name start end parent run")

# (module, attribute, span name).  The part of a span name before the first
# dot is its layer, the wmkit module whose code runs inside the span.
_STEP_FUNCTIONS = ("mc_step_full", "mc_soft_step_full", "gumbel_max_step_full",
                   "soft_step_full", "dipmark_step_full")
TARGETS = (
    ("wmkit.cli", "main", "cli.main"),
    ("wmkit.cli", "generate", "decoders.generate"),
    ("wmkit.cli", "detect", "detection.detect"),
    ("wmkit.cli", "calibrate_null", "detection.calib"),
    ("wmkit.cli", "substitute", "attacks.substitute"),
    ("wmkit.cli", "specdec_postprocess", "attacks.specdec"),
    ("wmkit.cli", "run_power", "simulation.run_power"),
    ("wmkit.lm", "MarkovSource.next", "lm.next"),
    *(("wmkit.decoders", fn, "decoders.step") for fn in _STEP_FUNCTIONS),
    ("wmkit.decoders", "green_mask", "keying.green_mask"),
    ("wmkit.decoders", "derive_zeta", "keying.zeta"),
    ("wmkit.decoders", "keyed_permutation", "keying.permutation"),
    ("wmkit.attacks", "gumbel_max_step_full", "decoders.step"),
    ("wmkit.attacks", "green_mask", "keying.green_mask"),
    ("wmkit.attacks", "derive_zeta", "keying.zeta"),
    ("wmkit.keying", "green_mask", "keying.green_mask"),
    ("wmkit.keying", "keyed_permutation", "keying.permutation"),
    ("wmkit.detection", "extract_scores", "detection.extract"),
    ("wmkit.detection", "derive_zeta", "keying.zeta"),
    ("wmkit.detection", "is_green", "keying.is_green"),
    ("wmkit.detection", "sum_test", "detection.test"),
    ("wmkit.detection", "max_test", "detection.test"),
    ("wmkit.detection", "hc_statistic", "detection.test"),
    ("wmkit.detection", "calibrate_null", "detection.calib"),
    ("wmkit.detection", "hc_batch", "detection.hc_batch"),
    ("wmkit.simulation", "hc_batch", "detection.hc_batch"),
)


def _row_cache_size(args):
    # MarkovSource.next(self, history): a synthesized row grows the LRU.
    return len(args[0]._cache)


def _count_row(counts, args, kwargs, result, dur, size_before):
    if len(args[0]._cache) > size_before:
        counts["lm.rows"] += 1
        counts["lm.row_s"] += dur


def _count_positions(counts, args, kwargs, result, dur, _):
    # extract_scores(text, key, vocab_size): positions with a full context.
    text, key = args[0], args[1]
    counts["detection.positions_seen"] += max(0, len(text.tokens) - key.k)
    counts["detection.positions_scored"] += len(result)


def _count_hc_scores(counts, args, kwargs, result, dur, _):
    counts["detection.hc_scores"] += args[0].size


def _count_sim_scores(counts, args, kwargs, result, dur, _):
    # run_power(config): null and alternative draws, reps x m each.
    config = args[0]
    counts["simulation.scores"] += 2 * config.reps * sum(config.m_grid)


# Counts recorded at the same boundaries as the spans: (before, after).
_COUNTERS = {
    "lm.next": (_row_cache_size, _count_row),
    "detection.extract": (None, _count_positions),
    "detection.hc_batch": (None, _count_hc_scores),
    "simulation.run_power": (None, _count_sim_scores),
}


class Tracer:
    """Installs the span wrappers, collects spans and counts, and restores
    the original functions on :meth:`uninstall`."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.run_id = 0
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        spans, stack, counts = self.spans, self._stack, self.counts
        before, after = _COUNTERS.get(name, (None, None))

        def wrapper(*args, **kwargs):
            if not stack:
                self.run_id += 1
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            state = before(args) if before else None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = Span(name, start, end, parent, self.run_id)
            if after:
                after(counts, args, kwargs, result, end - start, state)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for module_name, attr, name in TARGETS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            self._installed.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(original, name))

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._installed):
            setattr(owner, leaf, original)
        self._installed.clear()

    def write(self, path) -> None:
        """Write the spans as CSV: id, name, start, end, parent, run."""
        lines = ["id,name,start,end,parent,run"]
        for i, s in enumerate(self.spans):
            parent = "" if s.parent is None else s.parent
            lines.append(f"{i},{s.name},{s.start!r},{s.end!r},{parent},{s.run}")
        path.write_text("\n".join(lines) + "\n")


def self_times(spans) -> tuple[Counter, Counter, Counter, float]:
    """Per span name: self seconds (duration minus the time of its direct
    children), inclusive seconds and calls; plus the summed duration of the
    top-level spans, which equals the sum of all self times."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    self_s, incl, calls = Counter(), Counter(), Counter()
    roots = 0.0
    for i, s in enumerate(spans):
        dur = s.end - s.start
        self_s[s.name] += dur - child[i]
        incl[s.name] += dur
        calls[s.name] += 1
        if s.parent is None:
            roots += dur
    return self_s, incl, calls, roots


def layer_self(self_s: Counter) -> Counter:
    """Self seconds summed per layer (the span-name prefix)."""
    out = Counter()
    for name, sec in self_s.items():
        out[name.split(".", 1)[0]] += sec
    return out


def child_time(spans, parent_name: str, child_name: str) -> float:
    """Seconds in ``child_name`` spans whose direct parent is ``parent_name``."""
    return sum(s.end - s.start for s in spans
               if s.name == child_name and s.parent is not None
               and spans[s.parent].name == parent_name)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(spans, counts: Counter, wall_s: float, untraced_wall_s: float,
                      calib_misses: int, records: int, diagnostics: Counter,
                      specdec: Counter) -> dict[str, float]:
    """The traced round's per-layer metrics.

    The ``*_s`` metrics below are self times, so ``cli.self_s`` + ``lm.next_s``
    + the four ``keying`` times + ``decoders.step_self_s`` + the four
    ``detection`` times + the two ``attacks`` times + ``simulation.self_s`` +
    ``trace.unattributed_s`` equals ``wall_s``.  A layer the workload does not
    reach reports 0.
    """
    self_s, incl, calls, roots = self_times(spans)
    rows = counts["lm.rows"]
    seen, scored = counts["detection.positions_seen"], counts["detection.positions_scored"]
    evaluated = specdec["evaluated"]
    return {
        "cli.self_s": self_s["cli.main"],
        "cli.records": float(records),
        "lm.next_calls": float(calls["lm.next"]),
        "lm.rows_synthesized": float(rows),
        "lm.row_hit_ratio": _ratio(calls["lm.next"] - rows, calls["lm.next"]),
        "lm.next_s": self_s["lm.next"],
        "lm.row_ms": 1e3 * _ratio(counts["lm.row_s"], rows),
        "keying.green_mask_calls": float(calls["keying.green_mask"]),
        "keying.green_mask_s": self_s["keying.green_mask"],
        "keying.is_green_calls": float(calls["keying.is_green"]),
        "keying.is_green_s": self_s["keying.is_green"],
        "keying.zeta_s": self_s["keying.zeta"],
        "keying.permutation_calls": float(calls["keying.permutation"]),
        "keying.permutation_s": self_s["keying.permutation"],
        "decoders.steps": float(calls["decoders.step"]),
        # The generate loop's own time counts with the steps it drives.
        "decoders.step_self_s": self_s["decoders.step"] + self_s["decoders.generate"],
        "decoders.masked_steps": float(diagnostics["masked"]),
        "decoders.zero_green_steps": float(diagnostics["zero_green"]),
        "decoders.excess_steps": float(diagnostics["excess"]),
        "detection.texts": float(calls["detection.detect"]),
        "detection.positions_seen": float(seen),
        "detection.positions_scored": float(scored),
        "detection.scored_ratio": _ratio(scored, seen),
        "detection.extract_s": self_s["detection.extract"],
        "detection.test_s": self_s["detection.detect"] + self_s["detection.test"],
        "detection.calib_calls": float(calls["detection.calib"]),
        "detection.calib_misses": float(calib_misses),
        "detection.calib_hit_ratio": _ratio(calls["detection.calib"] - calib_misses,
                                            calls["detection.calib"]),
        "detection.calib_s": self_s["detection.calib"],
        "detection.hc_batch_s": self_s["detection.hc_batch"],
        "detection.hc_scores": float(counts["detection.hc_scores"]),
        "attacks.substitute_s": self_s["attacks.substitute"],
        "attacks.specdec_self_s": self_s["attacks.specdec"],
        "attacks.specdec_evaluated": float(evaluated),
        "attacks.specdec_accept_ratio": _ratio(evaluated - specdec["rejected"], evaluated),
        "simulation.scores": float(counts["simulation.scores"]),
        "simulation.run_power_s": incl["simulation.run_power"],
        "simulation.self_s": self_s["simulation.run_power"],
        "simulation.hc_share": _ratio(
            child_time(spans, "simulation.run_power", "detection.hc_batch"),
            incl["simulation.run_power"]),
        "trace.overhead_s": wall_s - untraced_wall_s,
        "trace.unattributed_s": wall_s - roots,
    }


# Per-layer self-time metrics that together with trace.unattributed_s add up
# to the traced round's wall time.
SELF_TIME_METRICS = (
    "cli.self_s", "lm.next_s", "keying.green_mask_s", "keying.is_green_s", "keying.zeta_s",
    "keying.permutation_s", "decoders.step_self_s", "detection.extract_s", "detection.test_s",
    "detection.calib_s", "detection.hc_batch_s", "attacks.substitute_s",
    "attacks.specdec_self_s", "simulation.self_s", "trace.unattributed_s",
)
