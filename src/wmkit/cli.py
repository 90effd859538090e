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
import json
import sys
from pathlib import Path

import numpy as np

from .attacks import AttackConfig, AttackKind, merge_specdec_stats, specdec_postprocess, substitute
from .core import MASK64, GeneratedText, RngStream, fold64, mix64
from .decoders import (
    DecoderConfig,
    Scheme,
    generate,
    text_from_record,
    to_record,
)
from .detection import (
    HcDenom,
    Side,
    Statistic,
    calibrate_null,
    detect,
    default_cache_dir,
)
from .keying import KeyFormatError, parse_key
from .lm import EndOfTrace, MalformedTrace, parse_model_spec
from .simulation import (
    Regime,
    RegimeConfig,
    histogram_to_csv,
    null_histogram,
    run_power,
)

__all__ = ["main", "build_parser"]

# Domain separators for per-text stream derivation.
_GEN_ROLE = 0xA1
_ACCEPT_ROLE = 0xA2


class UsageError(Exception):
    """Configuration problem: maps to exit code 2."""


def _text_stream(seed: int, index: int, role: int) -> RngStream:
    return RngStream(mix64(fold64(seed & MASK64, (role, index))))


def _parse_key_arg(text: str):
    try:
        return parse_key(text)
    except KeyFormatError as exc:
        raise UsageError(f"bad key: {exc}") from exc


def _parse_model_arg(spec: str):
    try:
        return parse_model_spec(spec)
    except MalformedTrace:
        raise
    except ValueError as exc:
        raise UsageError(f"bad model spec: {exc}") from exc


def _emit_lines(lines: list[str], out: str | None) -> None:
    payload = "\n".join(lines) + "\n" if lines else ""
    if out is None:
        sys.stdout.write(payload)
    else:
        Path(out).write_text(payload)


def _random_prompt(aux: RngStream, k: int, vocab_size: int) -> GeneratedText:
    tokens = tuple(int(aux.next_uniform() * vocab_size) for _ in range(k))
    return GeneratedText(tokens=tokens, prompt_len=len(tokens))


def cmd_generate(args) -> int:
    key = _parse_key_arg(args.key)
    model = _parse_model_arg(args.model)
    if args.n < 1:
        raise UsageError("--n must be >= 1")
    if args.texts < 1:
        raise UsageError("--texts must be >= 1")
    config = None
    if not args.plain:
        try:
            config = DecoderConfig(
                scheme=args.scheme,
                delta=args.delta,
                alpha_dip=args.alpha_dip,
                masking=args.masking,
            )
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    lines = []
    for i in range(args.texts):
        aux = _text_stream(args.seed, i, _GEN_ROLE)
        prompt = _random_prompt(aux, key.k, model.vocab_size)
        result = generate(model, key, config, prompt, args.n, aux)
        lines.append(json.dumps({"text_id": i, **to_record(result, model.vocab_size)}))
    _emit_lines(lines, args.out)
    return 0


_DETECT_STATS = {
    "sum": Statistic.SUM,
    "hc+": Statistic.HC_PLUS,
    "hc*": Statistic.HC_STAR,
    "max": Statistic.MAX,
}


def _read_records(path: str) -> list[dict]:
    records = []
    for ln in Path(path).read_text().splitlines():
        if ln.strip():
            records.append(json.loads(ln))
    return records


def cmd_detect(args) -> int:
    key = _parse_key_arg(args.key)
    statistic = _DETECT_STATS[args.stat]
    records = _read_records(args.input)
    lines = []
    n_wm = n_plain = rej_wm = rej_plain = 0
    for idx, rec in enumerate(records):
        text_id = rec.get("text_id", idx)
        label = rec.get("watermarked")
        base = {"text_id": text_id}
        if label is not None:
            base["watermarked"] = label
        try:
            report = detect(
                text_from_record(rec),
                key,
                statistic=statistic,
                alpha=args.alpha,
                side=Side(args.side),
                vocab_size=rec.get("vocab_size"),
                denom=HcDenom(args.hc_denom),
                reps=args.calib_reps,
                seed=args.calib_seed,
            )
        except ValueError as exc:
            lines.append(json.dumps({**base, "error": str(exc)}))
            continue
        lines.append(json.dumps({**base, **report.to_dict()}))
        if label is True:
            n_wm += 1
            rej_wm += int(report.reject)
        elif label is False:
            n_plain += 1
            rej_plain += int(report.reject)
    _emit_lines(lines, args.out)
    summary = f"texts={len(records)}"
    if n_wm:
        summary += f" TPR={rej_wm / n_wm:.4f} (watermarked={n_wm})"
    if n_plain:
        summary += f" FPR={rej_plain / n_plain:.4f} (plain={n_plain})"
    print(summary, file=sys.stderr)
    return 0


def cmd_attack(args) -> int:
    if args.kind != AttackKind.SUBSTITUTE.value:
        raise UsageError(f"unsupported attack kind {args.kind!r}")
    try:
        config = AttackConfig(kind=AttackKind.SUBSTITUTE, sub_rate=args.rate)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    records = _read_records(args.input)
    lines = []
    for idx, rec in enumerate(records):
        vocab_size = rec.get("vocab_size")
        if vocab_size is None:
            raise UsageError("records must carry vocab_size for substitution")
        rng = np.random.default_rng([args.seed, idx])
        attacked = substitute(text_from_record(rec), config.sub_rate, rng, vocab_size)
        out = {
            "text_id": rec.get("text_id", idx),
            "tokens": [int(t) for t in attacked.tokens],
            "prompt_len": attacked.prompt_len,
            "scheme": rec.get("scheme"),
            "vocab_size": vocab_size,
            "watermarked": rec.get("watermarked"),
            "attack": {"kind": config.kind.value, "rate": config.sub_rate},
        }
        lines.append(json.dumps(out))
    _emit_lines(lines, args.out)
    return 0


def cmd_specdec(args) -> int:
    key = _parse_key_arg(args.key)
    draft = _parse_model_arg(args.draft)
    target = _parse_model_arg(args.target)
    try:
        scheme = Scheme(args.scheme)
        config = AttackConfig(
            kind=AttackKind.SPECDEC,
            accept_scale=args.accept_scale,
            lookahead=args.lookahead,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if args.n < 1:
        raise UsageError("--n must be >= 1")
    if args.texts < 1:
        raise UsageError("--texts must be >= 1")
    lines = []
    all_stats = []
    for i in range(args.texts):
        aux = _text_stream(args.seed, i, _GEN_ROLE)
        prompt = _random_prompt(aux, key.k, draft.vocab_size)
        accept_rng = np.random.default_rng([args.seed, i, _ACCEPT_ROLE])
        text, stats = specdec_postprocess(
            draft, target, key, config, scheme, prompt, args.n, aux, accept_rng
        )
        all_stats.append(stats)
        lines.append(
            json.dumps(
                {
                    "text_id": i,
                    "tokens": [int(t) for t in text.tokens],
                    "prompt_len": text.prompt_len,
                    "scheme": scheme.value,
                    "vocab_size": draft.vocab_size,
                    "watermarked": True,
                    "attack": {
                        "kind": "specdec",
                        "accept_scale": config.accept_scale,
                        "lookahead": config.lookahead,
                    },
                    "specdec_stats": stats.to_dict(),
                }
            )
        )
    _emit_lines(lines, args.out)
    aggregate = json.dumps(merge_specdec_stats(all_stats).to_dict())
    if args.stats_out is None:
        print(aggregate, file=sys.stderr)
    else:
        Path(args.stats_out).write_text(aggregate + "\n")
    return 0


def cmd_simulate(args) -> int:
    try:
        regime = Regime(args.regime)
        config = RegimeConfig(
            regime=regime,
            p=args.p,
            r=args.r,
            q=args.q,
            m_grid=tuple(int(float(m)) for m in args.m.split(",")),
            reps=args.reps,
            alpha=args.alpha,
            seed=args.seed,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    curve = run_power(config)
    csv = curve.to_csv()
    if args.out is None:
        sys.stdout.write(csv)
    else:
        Path(args.out).write_text(csv)
    if args.histogram is not None:
        m = config.m_grid[-1]
        rows = []
        for stat in (Statistic.SUM, Statistic.HC_PLUS):
            rows.extend(
                null_histogram(
                    stat, m, reps=config.reps, bins=args.hist_bins, config=config
                )
            )
        Path(args.histogram).write_text(histogram_to_csv(rows))
    return 0


def cmd_calibrate(args) -> int:
    statistic = _DETECT_STATS[args.stat]
    try:
        calib = calibrate_null(
            statistic,
            n=args.n,
            alpha=args.alpha,
            reps=args.reps,
            seed=args.seed,
            denom=HcDenom(args.hc_denom),
            cache_dir=args.cache_dir,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    print(
        json.dumps(
            {
                "statistic": calib.statistic.value,
                "n": calib.n,
                "alpha": calib.alpha,
                "reps": calib.reps,
                "seed": calib.seed,
                "critical_value": calib.critical_value,
                "cache_dir": str(Path(args.cache_dir) if args.cache_dir else default_cache_dir()),
            }
        )
    )
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
    g.add_argument("--scheme", default=Scheme.MC.value, choices=[s.value for s in Scheme])
    g.add_argument("--n", type=int, required=True, help="tokens to generate per text")
    g.add_argument("--texts", type=int, default=1)
    g.add_argument("--delta", type=float, default=None, help="bias for soft schemes")
    g.add_argument("--alpha-dip", type=float, default=None, help="reweight parameter for dipmark")
    g.add_argument("--masking", action=argparse.BooleanOptionalAction, default=True,
                   help="skip watermarking at repeated contexts")
    g.add_argument("--plain", action="store_true", help="sample from the model without watermark")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", default=None, help="output JSONL path (default stdout)")
    g.set_defaults(func=cmd_generate)

    d = sub.add_parser("detect", help="run a detection test over generated records")
    d.add_argument("--in", dest="input", required=True, help="input JSONL of text records")
    d.add_argument("--key", required=True)
    d.add_argument("--stat", default="sum", choices=sorted(_DETECT_STATS))
    d.add_argument("--alpha", type=float, default=0.01)
    d.add_argument("--side", default=Side.COMBINED.value, choices=[s.value for s in Side])
    d.add_argument("--hc-denom", default=HcDenom.STANDARD_SQRT.value,
                   choices=[h.value for h in HcDenom])
    d.add_argument("--calib-reps", type=int, default=2000)
    d.add_argument("--calib-seed", type=int, default=0)
    d.add_argument("--out", default=None, help="output JSONL path (default stdout)")
    d.set_defaults(func=cmd_detect)

    a = sub.add_parser("attack", help="apply a post-generation edit to records")
    a.add_argument("--kind", default=AttackKind.SUBSTITUTE.value,
                   choices=[AttackKind.SUBSTITUTE.value])
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
    m.add_argument("--p", type=float, required=True)
    m.add_argument("--r", type=float, default=None)
    m.add_argument("--q", type=float, default=None)
    m.add_argument("--m", required=True, help="comma-separated ascending m grid")
    m.add_argument("--reps", type=int, default=2000)
    m.add_argument("--alpha", type=float, default=0.01)
    m.add_argument("--seed", type=int, default=0)
    m.add_argument("--out", default=None, help="power CSV path (default stdout)")
    m.add_argument("--histogram", default=None, help="optional statistic-histogram CSV path")
    m.add_argument("--hist-bins", type=int, default=50)
    m.set_defaults(func=cmd_simulate)

    c = sub.add_parser("calibrate", help="simulate and cache a null critical value")
    c.add_argument("--stat", required=True, choices=sorted(_DETECT_STATS))
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--alpha", type=float, default=0.01)
    c.add_argument("--reps", type=int, default=2000)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--hc-denom", default=HcDenom.STANDARD_SQRT.value,
                   choices=[h.value for h in HcDenom])
    c.add_argument("--cache-dir", default=None,
                   help="cache directory (default WMKIT_CALIB_DIR or ~/.cache/wmkit)")
    c.set_defaults(func=cmd_calibrate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
