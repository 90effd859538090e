"""Command-line surface: generate, detect, attack, specdec, simulate,
calibrate.

Records are JSON Lines, tabular results CSV.  Every command is
deterministic under a fixed --seed: per-text randomness is derived by
mixing the global seed with the text index, so re-runs produce
byte-identical outputs.  Exit codes: 0 success, 2 configuration error,
1 runtime error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .attacks import (
    AttackConfig,
    _check_specdec_models,
    merge_specdec_stats,
    specdec_postprocess,
    substitute,
)
from .core import GeneratedText, RngStream, seed64
from .decoders import DecoderConfig, Scheme, generate
from .detection import (
    _HC_STATISTICS,
    HcDenom,
    Side,
    Statistic,
    _check_calibration,
    _check_seed,
    _detect_settings,
    calibrate_null,
    detect,
    default_cache_dir,
)
from .keying import parse_key
from .lm import EndOfTrace, MalformedTrace, TraceSource, parse_model_spec
from .simulation import Regime, RegimeConfig, csv_text, power_csv, run_power

__all__ = ["main", "build_parser", "text_record", "text_from_record"]

# Domain separators for per-text stream derivation.
_GEN_ROLE = 0xA1
_ACCEPT_ROLE = 0xA2


class UsageError(Exception):
    """Configuration problem: maps to exit code 2."""


def _text_stream(seed: int, index: int, role: int) -> RngStream:
    return RngStream(seed64(seed, (role, index)))


@contextlib.contextmanager
def _usage(prefix: str = ""):
    """The one place where a ValueError becomes a usage error (exit 2).  A
    command turns its flags into a configuration inside this guard, and
    reads input, draws scores or writes files only after it.  A malformed
    trace file stays a runtime error."""
    try:
        yield
    except MalformedTrace:
        raise
    except ValueError as exc:
        raise UsageError(f"{prefix}{exc}") from exc


def _parse_key_arg(text: str):
    with _usage("bad key: "):
        return parse_key(text)


def _parse_model_arg(spec: str):
    with _usage("bad model spec: "):
        return parse_model_spec(spec)


def text_record(text_id, text: GeneratedText, scheme, vocab_size, watermarked, **fields) -> dict:
    """One text record, as :func:`_emit` writes it: the text and its
    provenance, then the command's own ``fields`` in the order given."""
    return {"text_id": text_id, "tokens": list(text.tokens), "prompt_len": text.prompt_len,
            "scheme": scheme, "vocab_size": vocab_size, "watermarked": watermarked, **fields}


def text_from_record(record) -> GeneratedText:
    """The text of a record written by :func:`text_record`.  Raises
    ValueError unless the record is an object whose ``tokens`` are a list of
    integers (JSON true and false are not) and whose ``prompt_len`` and
    ``vocab_size``, if given, are integers."""
    if not isinstance(record, dict):
        raise ValueError("a text record must be a JSON object")
    tokens, prompt_len = record.get("tokens"), record.get("prompt_len", 0)
    vocab_size = record.get("vocab_size")
    if not isinstance(tokens, list) or any(type(t) is not int for t in tokens):
        raise ValueError("tokens must be a list of integers")
    if type(prompt_len) is not int:
        raise ValueError(f"prompt_len must be an integer, got {prompt_len!r}")
    if vocab_size is not None and type(vocab_size) is not int:
        raise ValueError(f"vocab_size must be an integer, got {vocab_size!r}")
    return GeneratedText(tokens=tuple(tokens), prompt_len=prompt_len)


def _write(text: str, out: str | None) -> None:
    """Write ``text`` to the file ``out``, or to stdout."""
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _emit(records, out: str | None) -> None:
    """Write each record (a dict) as one line of strict JSON to ``out`` or to
    stdout: a NaN or infinity raises ValueError, and nothing is written."""
    _write("".join(json.dumps(record, allow_nan=False) + "\n" for record in records), out)


def _random_prompt(aux: RngStream, k: int, vocab_size: int) -> GeneratedText:
    tokens = tuple(int(aux.next_uniform() * vocab_size) for _ in range(k))
    return GeneratedText(tokens=tokens, prompt_len=len(tokens))


def _check_lengths(args) -> None:
    if args.n < 1:
        raise ValueError("--n must be >= 1")
    if args.texts < 1:
        raise ValueError("--texts must be >= 1")


def cmd_generate(args) -> int:
    with _usage():
        key = _parse_key_arg(args.key)
        _check_lengths(args)
        if args.plain:
            # None means not given: --plain refuses a decoder flag it would ignore.
            masking_flag = "--masking" if args.masking else "--no-masking"
            for flag, value in (("--scheme", args.scheme), ("--delta", args.delta),
                                ("--alpha-dip", args.alpha_dip), (masking_flag, args.masking)):
                if value is not None:
                    raise ValueError(f"{flag} does not apply to --plain")
            config = None
        else:
            config = DecoderConfig(
                scheme=args.scheme or Scheme.MC.value, delta=args.delta,
                alpha_dip=args.alpha_dip, masking=args.masking is not False,
            )
        model = _parse_model_arg(args.model)
    scheme = "plain" if config is None else config.scheme.value
    records = []
    for i in range(args.texts):
        if isinstance(model, TraceSource):
            model.cursor = 0  # every text replays the trace from its first step
        aux = _text_stream(args.seed, i, _GEN_ROLE)
        prompt = _random_prompt(aux, key.k, model.vocab_size)
        result = generate(model, key, config, prompt, args.n, aux)
        records.append(
            text_record(
                i, result.text, scheme, model.vocab_size, config is not None,
                diagnostics=[step.to_dict() for step in result.steps],
            )
        )
    _emit(records, args.out)
    return 0


# detect's statistics; calibrate simulates only the HC nulls, as the sum and
# max nulls are exact.
_STAT_CHOICES = sorted(s.value for s in (Statistic.SUM, Statistic.MAX, *_HC_STATISTICS))
_CALIBRATE_CHOICES = sorted(s.value for s in _HC_STATISTICS)
# The flags that set detect's settings, by setting.
_SETTING_FLAGS = {"side": "--side", "denom": "--hc-denom", "reps": "--calib-reps",
                  "seed": "--calib-seed"}


def _read_lines(path: str) -> list[str]:
    return [ln for ln in Path(path).read_text().splitlines() if ln.strip()]


def cmd_detect(args) -> int:
    with _usage():
        key = _parse_key_arg(args.key)
        statistic = Statistic(args.stat)
        _detect_settings(statistic, args.alpha, args.side, args.hc_denom, args.calib_reps,
                         args.calib_seed, _SETTING_FLAGS)
    lines = _read_lines(args.input)
    records = []
    n_wm = n_plain = rej_wm = rej_plain = 0
    for idx, line in enumerate(lines):
        base = {"text_id": idx}
        try:
            rec = json.loads(line)
            fields = rec if isinstance(rec, dict) else {}
            label = fields.get("watermarked")
            base = {"text_id": fields.get("text_id", idx)}
            if label is not None:
                base["watermarked"] = label
            report = detect(
                text_from_record(rec),
                key,
                statistic=statistic,
                alpha=args.alpha,
                side=args.side,
                vocab_size=fields.get("vocab_size"),
                denom=args.hc_denom,
                reps=args.calib_reps,
                seed=args.calib_seed,
            )
        except ValueError as exc:
            records.append({**base, "error": str(exc)})
            continue
        value = None if report.value == -np.inf else report.value  # HC+ with no score >= 1/n
        records.append({**base, **dataclasses.asdict(report), "value": value})
        if label is True:
            n_wm += 1
            rej_wm += int(report.reject)
        elif label is False:
            n_plain += 1
            rej_plain += int(report.reject)
    _emit(records, args.out)
    summary = f"texts={len(lines)}"
    if n_wm:
        summary += f" TPR={rej_wm / n_wm:.4f} (watermarked={n_wm})"
    if n_plain:
        summary += f" FPR={rej_plain / n_plain:.4f} (plain={n_plain})"
    print(summary, file=sys.stderr)
    return 0


def cmd_attack(args) -> int:
    with _usage():
        config = AttackConfig(sub_rate=args.rate)
        _check_seed(args.seed)
    records = []
    for idx, line in enumerate(_read_lines(args.input)):
        rec = json.loads(line)
        text = text_from_record(rec)
        vocab_size = rec.get("vocab_size")
        if vocab_size is None:
            raise ValueError("records must carry vocab_size for substitution")
        rng = np.random.default_rng([args.seed, idx])
        attacked = substitute(text, config.sub_rate, rng, vocab_size)
        records.append(
            text_record(
                rec.get("text_id", idx), attacked, rec.get("scheme"), vocab_size,
                rec.get("watermarked"), attack={"kind": args.kind, "rate": config.sub_rate},
            )
        )
    _emit(records, args.out)
    return 0


def cmd_specdec(args) -> int:
    with _usage():
        key = _parse_key_arg(args.key)
        scheme = Scheme(args.scheme)
        config = AttackConfig(accept_scale=args.accept_scale, lookahead=args.lookahead)
        _check_seed(args.seed)
        _check_lengths(args)
        # A trace source is refused by its spec's kind, before its file is read.
        if any(spec.partition(":")[0] == "trace" for spec in (args.draft, args.target)):
            raise ValueError("specdec needs models that read the history, not trace sources")
        draft, target = _parse_model_arg(args.draft), _parse_model_arg(args.target)
        _check_specdec_models(draft, target)
    attack = {"kind": "specdec", "accept_scale": config.accept_scale, "lookahead": config.lookahead}
    records = []
    all_stats = []
    for i in range(args.texts):
        aux = _text_stream(args.seed, i, _GEN_ROLE)
        prompt = _random_prompt(aux, key.k, draft.vocab_size)
        accept_rng = np.random.default_rng([args.seed, i, _ACCEPT_ROLE])
        text, stats = specdec_postprocess(
            draft, target, key, config, scheme, prompt, args.n, aux, accept_rng
        )
        all_stats.append(stats)
        records.append(
            text_record(
                i, text, scheme.value, draft.vocab_size, True,
                attack=attack, specdec_stats=stats.to_dict(),
            )
        )
    _emit(records, args.out)
    aggregate = merge_specdec_stats(all_stats).to_dict()
    if args.stats_out is None:
        print(json.dumps(aggregate), file=sys.stderr)
    else:
        _emit([aggregate], args.stats_out)
    return 0


# Bins of the statistic histogram when --histogram is given without --hist-bins.
_HIST_BINS = 50


def _numbers(text: str, flag: str) -> list[float]:
    """The comma-separated numbers of a list flag; a refusal names the flag."""
    try:
        return [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def _grid(text: str | None, flag: str) -> list:
    """The comma-separated values of a grid flag, which may not repeat one;
    [None] when the flag is not given."""
    if text is None:
        return [None]
    values = _numbers(text, flag)
    if len(set(values)) < len(values):
        raise ValueError(f"{flag} repeats a value: {text}")
    return values


def cmd_simulate(args) -> int:
    with _usage():
        m_grid = tuple(_numbers(args.m, "--m"))
        configs = [
            RegimeConfig(regime=Regime(args.regime), p=p, r=r, q=q, m_grid=m_grid,
                         reps=args.reps, alpha=args.alpha, seed=args.seed)
            for p in _grid(args.p, "--p")
            for q in _grid(args.q, "--q")
            for r in _grid(args.r, "--r")
        ]
        if args.histogram is None and args.hist_bins is not None:
            raise ValueError("--hist-bins does not apply without --histogram")
        if args.histogram is not None and len(configs) > 1:
            raise ValueError(f"--histogram takes one (p, q or r) cell, got {len(configs)}")
        hist_bins = _HIST_BINS if args.hist_bins is None else args.hist_bins
        if hist_bins < 1:
            raise ValueError("--hist-bins must be >= 1")
    curves = [run_power(config) for config in configs]
    _write(power_csv(curves), args.out)
    if args.histogram is not None:
        _write(csv_text(curves[0].histogram(hist_bins)), args.histogram)
    return 0


def cmd_calibrate(args) -> int:
    cache_dir = Path(args.cache_dir) if args.cache_dir is not None else default_cache_dir()
    with _usage():
        statistic = Statistic(args.stat)
        _check_calibration(statistic, args.n, args.alpha, args.reps, args.seed)
    critical = calibrate_null(
        statistic, n=args.n, alpha=args.alpha, reps=args.reps, seed=args.seed,
        denom=args.hc_denom, cache_dir=cache_dir,
    )
    record = {
        "statistic": args.stat,
        "n": args.n,
        "alpha": args.alpha,
        "reps": args.reps,
        "seed": args.seed,
        "critical_value": critical,
        "cache_dir": str(cache_dir),
    }
    _emit([record], None)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wmkit",
        description="Watermarked token generation, detection, attacks, and power studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate watermarked (or plain) texts as JSONL")
    g.add_argument("--model", required=True, help="markov:seed=S,vocab=V,order=K or trace:path=F")
    g.add_argument("--key", required=True, help="key string MASTER:k=K:g=G:mode=M")
    g.add_argument("--scheme", default=None, choices=[s.value for s in Scheme],
                   help=f"watermark scheme (default {Scheme.MC.value})")
    g.add_argument("--n", type=int, required=True, help="tokens to generate per text")
    g.add_argument("--texts", type=int, default=1)
    g.add_argument("--delta", type=float, default=None, help="bias for soft schemes")
    g.add_argument("--alpha-dip", type=float, default=None, help="reweight parameter for dipmark")
    g.add_argument("--masking", action=argparse.BooleanOptionalAction, default=None,
                   help="skip watermarking at repeated contexts (default on)")
    g.add_argument("--plain", action="store_true", help="sample from the model without watermark")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", default=None, help="output JSONL path (default stdout)")
    g.set_defaults(func=cmd_generate)

    d = sub.add_parser("detect", help="run a detection test over generated records")
    d.add_argument("--in", dest="input", required=True, help="input JSONL of text records")
    d.add_argument("--key", required=True)
    d.add_argument("--stat", default="sum", choices=_STAT_CHOICES)
    d.add_argument("--alpha", type=float, default=0.01)
    # A setting flag left out is None, and one that --stat does not read is
    # refused (see detection._READS).
    d.add_argument("--side", choices=[s.value for s in Side])
    d.add_argument("--hc-denom", choices=[h.value for h in HcDenom])
    d.add_argument("--calib-reps", type=int)
    d.add_argument("--calib-seed", type=int)
    d.add_argument("--out", default=None, help="output JSONL path (default stdout)")
    d.set_defaults(func=cmd_detect)

    a = sub.add_parser("attack", help="apply a post-generation edit to records")
    a.add_argument("--kind", default="substitute", choices=["substitute"])
    a.add_argument("--in", dest="input", required=True)
    a.add_argument("--rate", type=float, default=0.1)
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--out", default=None)
    a.set_defaults(func=cmd_attack)

    s = sub.add_parser("specdec", help="speculative-decoding lazy editor over a watermarked draft")
    s.add_argument("--draft", required=True, help="model spec for the watermarked draft")
    s.add_argument("--target", required=True, help="model spec for the unwatermarked target")
    s.add_argument("--key", required=True)
    s.add_argument("--scheme", default=Scheme.MC.value,
                   choices=[Scheme.MC.value, Scheme.GUMBEL.value])
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--texts", type=int, default=1)
    s.add_argument("--lookahead", type=int, default=4)
    s.add_argument("--accept-scale", type=float, default=0.5)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", default=None)
    s.add_argument("--stats-out", default=None, help="aggregate stats JSON path (default stderr)")
    s.set_defaults(func=cmd_specdec)

    m = sub.add_parser("simulate", help="sparse-mixture power curves as CSV")
    m.add_argument("--regime", required=True, choices=[r.value for r in Regime])
    m.add_argument("--p", required=True, help="comma-separated sparsity exponents")
    m.add_argument("--r", default=None, help="comma-separated strong-regime signal exponents")
    m.add_argument("--q", default=None, help="comma-separated weak-regime signal exponents")
    m.add_argument("--m", required=True, help="comma-separated ascending m grid")
    m.add_argument("--reps", type=int, default=2000)
    m.add_argument("--alpha", type=float, default=0.01)
    m.add_argument("--seed", type=int, default=0)
    m.add_argument("--out", default=None, help="power CSV path (default stdout)")
    m.add_argument("--histogram", default=None, help="optional statistic-histogram CSV path")
    m.add_argument("--hist-bins", type=int, default=None,
                   help=f"histogram bins, with --histogram only (default {_HIST_BINS})")
    m.set_defaults(func=cmd_simulate)

    c = sub.add_parser("calibrate", help="simulate and cache a null critical value")
    c.add_argument("--stat", required=True, choices=_CALIBRATE_CHOICES)
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--alpha", type=float, default=0.01)
    c.add_argument("--reps", type=int, default=2000)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--hc-denom", choices=[h.value for h in HcDenom])
    c.add_argument("--cache-dir", default=None,
                   help="cache directory (default WMKIT_CALIB_DIR or ~/.cache/wmkit)")
    c.set_defaults(func=cmd_calibrate)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built on its first call and kept for the
    process: a parse leaves no state in it, and building it takes longer
    than a short command.  :func:`build_parser` still builds a new one."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MalformedTrace, EndOfTrace, OSError, ValueError, KeyError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
