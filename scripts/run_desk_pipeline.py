"""Desk-scale end-to-end pipeline: generate, detect, attack, re-detect.

Builds a corpus of watermarked texts from a synthetic Markov source,
measures detection rates for the sum, higher-criticism, and max tests,
then repeats detection after i.i.d. token substitution and reports
speculative-decoding rejection rates for hard-list and Gumbel drafts.

Example:
    python scripts/run_desk_pipeline.py --texts 200 --n 300 --sub-rate 0.1
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from wmkit.attacks import AttackConfig, specdec_postprocess, substitute
from wmkit.core import GeneratedText, RngStream
from wmkit.decoders import DecoderConfig, Scheme, generate
from wmkit.detection import Statistic, detect
from wmkit.keying import WatermarkKey
from wmkit.lm import MarkovSource

DETECT_STATS = (Statistic.SUM, Statistic.HC_PLUS, Statistic.MAX)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--texts", type=int, default=200)
    ap.add_argument("--n", type=int, default=300, help="generated tokens per text")
    ap.add_argument("--vocab", type=int, default=64)
    ap.add_argument("--order", type=int, default=2)
    ap.add_argument("--model-seed", type=int, default=11)
    ap.add_argument("--master", default="9e3779b97f4a7c15")
    ap.add_argument("--k", type=int, default=2)
    ap.add_argument("--gamma", type=float, default=0.5)
    ap.add_argument("--alpha", type=float, default=0.01)
    ap.add_argument("--sub-rate", type=float, default=0.1)
    ap.add_argument("--seed", type=int, default=1000)
    ap.add_argument("--specdec-texts", type=int, default=6)
    ap.add_argument("--out", type=Path, default=None, help="optional JSON report path")
    return ap.parse_args(argv)


def detection_rates(corpus, key, alpha):
    rates = {}
    for stat in DETECT_STATS:
        hits = sum(detect(t, key, stat, alpha=alpha).reject for t in corpus)
        rates[stat.value] = hits / len(corpus)
    return rates


def main(argv=None) -> int:
    args = parse_args(argv)
    key = WatermarkKey(
        master=int(args.master, 16), k=args.k, gamma=args.gamma, green_mode="hash"
    )
    model = MarkovSource(order=args.order, vocab_size=args.vocab, seed=args.model_seed)
    config = DecoderConfig(scheme="mc")

    t0 = time.time()
    corpus = []
    for i in range(args.texts):
        aux = RngStream(args.seed + i)
        prompt = GeneratedText(
            tuple(int(aux.next_uniform() * args.vocab) for _ in range(args.k)), args.k
        )
        corpus.append(generate(model, key, config, prompt, args.n, aux).text)
    gen_s = time.time() - t0

    report = {
        "texts": args.texts,
        "tokens_per_text": args.n,
        "clean": detection_rates(corpus, key, args.alpha),
    }
    attacked = [
        substitute(t, args.sub_rate, np.random.default_rng([7, i]), args.vocab)
        for i, t in enumerate(corpus)
    ]
    report[f"substituted_{args.sub_rate}"] = detection_rates(attacked, key, args.alpha)

    specdec = {}
    sd_config = AttackConfig(accept_scale=0.5, lookahead=4)
    for scheme in (Scheme.MC, Scheme.GUMBEL):
        rejected = evaluated = 0
        for i in range(args.specdec_texts):
            _, stats = specdec_postprocess(
                model,
                model,
                key,
                sd_config,
                scheme,
                GeneratedText((1, 2), 2),
                args.n,
                RngStream(40 + i),
                np.random.default_rng(40 + i),
            )
            rejected += stats.n_rejected
            evaluated += stats.n_evaluated
        specdec[scheme.value] = rejected / evaluated
    report["specdec_rejection_rate"] = specdec
    report["generation_seconds"] = round(gen_s, 1)

    print(json.dumps(report, indent=2))
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
