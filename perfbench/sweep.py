"""Layer sweep of the traced run: public wmkit functions at fixed sizes.

It measures the layer rates that no CLI workload drives on its own: Markov
row synthesis at three vocabularies, the key PRFs, the batch decoder
kernels (today called only by tests), the batch score extractor, the HC
kernel, and calibration cold and warm.  Each rate is the median of a few
repeats; inputs come from the workload seed.
"""

from __future__ import annotations

import statistics
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

from wmkit.decoders import sample_mc_batch
from wmkit.detection import HcDenom, Statistic, calibrate_null, extract_zeta_primes_batch, hc_batch
from wmkit.keying import GREEN_TAG, WatermarkKey, derive_seed_batch, keyed_permutation
from wmkit.lm import MarkovSource

from workloads import master_key

REPEATS = 3
ROWS = {"v64": (64, 200), "v1k": (1024, 30), "v32k": (32000, 3)}
SEED_CONTEXTS = 100_000
BATCH_ROWS = {"v64": 20_000, "v32k": 64}
EXTRACT_TEXTS, EXTRACT_TOKENS = 50, 302
HC_SHAPE = (20, 100_000)
CALIB_N = 300


def _median_time(fn) -> float:
    times = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def run(seed: int, work: Path) -> dict[str, float]:
    """All sweep metrics; ``work`` holds the sweep's calibration cache."""
    rng = np.random.default_rng([seed, 0x5EE9])
    key = WatermarkKey(master=int(master_key(seed), 16), k=2, gamma=0.5)
    out: dict[str, float] = {}

    rows = {}
    for label, (vocab, count) in ROWS.items():
        src = MarkovSource(order=1, vocab_size=vocab, seed=11)
        t0 = perf_counter()
        for ctx in range(count):
            rows[label] = src.next([ctx])
        out[f"lm.rows_per_s.{label}"] = count / (perf_counter() - t0)

    ctxs = rng.integers(0, 64, size=(SEED_CONTEXTS, key.k))
    out["keying.seeds_per_s"] = SEED_CONTEXTS / _median_time(
        lambda: derive_seed_batch(key, ctxs, GREEN_TAG))
    perm_ctx = tuple(int(t) for t in rng.integers(0, 32000, size=key.k))
    out["keying.permutation_ms.v32k"] = 1e3 * _median_time(
        lambda: keyed_permutation(key, perm_ctx, 32000))

    for label, n in BATCH_ROWS.items():
        P = rows[label]
        batch_ctxs = rng.integers(0, len(P), size=(n, key.k))
        u = rng.random(n)
        out[f"decoders.batch_tokens_per_s.{label}"] = n / _median_time(
            lambda: sample_mc_batch(P, key, batch_ctxs, u))

    texts = rng.integers(0, 64, size=(EXTRACT_TEXTS, EXTRACT_TOKENS))
    out["detection.batch_positions_per_s"] = EXTRACT_TEXTS * (EXTRACT_TOKENS - key.k) / (
        _median_time(lambda: extract_zeta_primes_batch(texts, key)))
    scores = rng.random(HC_SHAPE)
    out["detection.hc_scores_per_s"] = scores.size / _median_time(
        lambda: hc_batch(scores, Statistic.HC_PLUS, HcDenom.STANDARD_SQRT))

    with tempfile.TemporaryDirectory(dir=work) as cache:
        for label in ("cold", "warm"):
            t0 = perf_counter()
            calibrate_null(Statistic.HC_PLUS, CALIB_N, 0.01, reps=2000, seed=seed, cache_dir=cache)
            out[f"detection.calib_{label}_s"] = perf_counter() - t0
    return out
