"""Statistical acceptance gates for the toolkit.

Each test prints one PASS/FAIL line with the measured quantities, then
asserts.  Gates cover: sampler unbiasedness, the soft-watermark bias
baseline, conditional pivot laws, coupling/speculative-sampling agreement,
sparse-regime power and boundaries, size control for every statistic, the
order-statistic test's exact size and its collapse under substitution, the
end-to-end desk pipeline, and byte-level reproducibility.
"""

import json
import time

import numpy as np
import pytest
from scipy import stats as sstats

from wmkit.attacks import AttackConfig, specdec_postprocess, substitute
from wmkit.cli import main as cli_main
from wmkit.core import GeneratedText, RngStream, make_ntp
from wmkit.decoders import (
    DecoderConfig,
    Scheme,
    generate,
    sample_dipmark_batch,
    sample_gumbel_batch,
    sample_mc_batch,
    sample_soft_batch,
)
from wmkit.detection import (
    HcDenom,
    Statistic,
    calibrate_null,
    detect,
    extract_zeta_primes_batch,
    hc_batch,
    sum_pvalue,
)
from wmkit.keying import WatermarkKey, derive_zeta_batch, green_mask_batch
from wmkit.lm import MarkovSource
from wmkit.simulation import Regime, RegimeConfig, run_power

KEY = WatermarkKey(master=0x9E3779B97F4A7C15, k=2, gamma=0.5, green_mode="hash")
ALPHA = 0.01


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {name} ({detail})"
    print(line, flush=True)
    assert ok, line


class FixedStream:
    def __init__(self, values):
        self.values = list(values)

    def next_uniform(self):
        return self.values.pop(0)


@pytest.fixture(scope="module")
def desk_corpus():
    """200 watermarked texts: vocab-64 Markov source, hard-list coupling,
    k = 2, gamma = 0.5, 300 generated tokens each."""
    model = MarkovSource(order=2, vocab_size=64, seed=11)
    config = DecoderConfig(scheme="mc")
    texts = []
    for i in range(200):
        aux = RngStream(1000 + i)
        prompt = GeneratedText(
            (int(aux.next_uniform() * 64), int(aux.next_uniform() * 64)), 2
        )
        texts.append(generate(model, KEY, config, prompt, 300, aux).text)
    return texts


def _tpr(corpus, statistic):
    hits = sum(detect(t, KEY, statistic, alpha=ALPHA).reject for t in corpus)
    return hits / len(corpus)


def test_criterion_01_unbiased_samplers():
    rng = np.random.default_rng(0)
    P = make_ntp(rng.dirichlet(np.full(16, 0.8)))
    n = 100_000
    ctxs = np.stack([np.arange(n), np.full(n, 7)], axis=1)
    t0 = time.time()
    draws = {
        "mc": sample_mc_batch(P, KEY, ctxs, rng.random(n)),
        "gumbel": sample_gumbel_batch(P, KEY, ctxs),
        "dipmark": sample_dipmark_batch(P, KEY, ctxs, rng.random(n), 0.45),
    }
    pvals = {
        name: float(sstats.chisquare(np.bincount(t, minlength=16), np.asarray(P) * n).pvalue)
        for name, t in draws.items()
    }
    elapsed = time.time() - t0
    ok = all(p > 0.001 for p in pvals.values()) and elapsed < 10.0
    detail = ", ".join(f"{k} chi2 p={v:.4f}" for k, v in pvals.items())
    _verdict(1, "unbiased samplers at 1e5 draws", ok, f"{detail}; runtime {elapsed:.1f}s")


def test_criterion_02_soft_watermark_bias():
    # Binary source with P(1) = 0.9, additive log-bias 1, and a keyed
    # single-token green list: the emission probability must drift into the
    # documented band around 0.8644.
    perm_key = WatermarkKey(master=0xABCDEF, k=2, gamma=0.5, green_mode="perm")
    P = make_ntp(np.array([0.1, 0.9]))
    n = 100_000
    ctxs = np.stack([np.arange(n), np.full(n, 3)], axis=1)
    tokens = sample_soft_batch(P, perm_key, ctxs, np.random.default_rng(1).random(n), 1.0)
    freq = float(tokens.mean())
    ok = 0.8544 <= freq <= 0.8744
    _verdict(2, "soft-watermark bias band", ok, f"P(1)={freq:.5f}, band [0.8544, 0.8744]")


def test_criterion_03_conditional_pivot_laws():
    # Contexts whose keyed green set is exactly {1, 2} give green mass 0.7;
    # conditioned on the emitted branch the pivot is uniform on the
    # corresponding interval.
    P = make_ntp(np.array([0.3, 0.35, 0.35]))
    m = 400_000
    ctxs = np.stack([np.arange(m) % 700, np.arange(m) // 700], axis=1)
    masks = green_mask_batch(KEY, ctxs, 3)
    sel = (~masks[:, 0]) & masks[:, 1] & masks[:, 2]
    zetas = derive_zeta_batch(KEY, ctxs[sel])
    tokens = sample_mc_batch(P, KEY, ctxs[sel], np.random.default_rng(2).random(int(sel.sum())))
    green = tokens > 0
    zg = zetas[green][:10_000]
    zr = zetas[~green][:10_000]
    p_green = float(sstats.kstest(zg, "uniform", args=(0, 0.7)).pvalue)
    p_red = float(sstats.kstest(1.0 - zr, "uniform", args=(0, 0.3)).pvalue)
    ok = len(zg) == 10_000 and len(zr) == 10_000 and p_green > 0.01 and p_red > 0.01
    _verdict(
        3,
        "conditional pivot uniformity",
        ok,
        f"KS p: green|U[0,0.7]={p_green:.3f}, red|U[0,0.3]={p_red:.3f}, n=1e4 each",
    )


def _interval_midpoint(probs, w):
    cum = np.concatenate(([0.0], np.cumsum(probs)))
    return (cum[w] + cum[w + 1]) / 2.0


def test_criterion_04_specdec_matches_coupling():
    from wmkit.decoders import sample_rejection_coupling

    rng = np.random.default_rng(2025)
    grid = (np.arange(2000) + 0.5) / 2000
    worst_tv = 0.0
    for _ in range(50):
        vocab = int(rng.integers(2, 7))
        P = make_ntp(rng.dirichlet(np.full(vocab, 0.6)))
        Q = make_ntp(rng.dirichlet(np.full(vocab, 0.6)))
        marginal = np.zeros(vocab)
        reject_mass = 0.0
        for w in range(vocab):
            if Q[w] == 0.0:
                continue
            u_w = _interval_midpoint(Q, w)
            for z in grid:
                token, accepted = sample_rejection_coupling(P, Q, float(z), FixedStream([u_w, 0.5]))
                if accepted:
                    marginal[w] += Q[w] / len(grid)
                else:
                    reject_mass += Q[w] / len(grid)
        excess = np.maximum(np.asarray(P) - np.asarray(Q), 0.0)
        if excess.sum() > 0:
            marginal += reject_mass * excess / excess.sum()
        p_min = np.minimum(np.asarray(P), np.asarray(Q))
        coupled = p_min + (
            (1.0 - p_min.sum()) * excess / excess.sum() if excess.sum() > 0 else 0.0
        )
        worst_tv = max(worst_tv, 0.5 * float(np.abs(marginal - coupled).sum()))

    # Acceptance probability over fresh pivots.
    P = make_ntp(rng.dirichlet(np.full(6, 0.6)))
    Q = make_ntp(rng.dirichlet(np.full(6, 0.6)))
    expected = float(np.minimum(P, Q).sum())
    n = 100_000
    stream = RngStream(99)
    hits = sum(sample_rejection_coupling(P, Q, float(z), stream)[1] for z in rng.random(n))
    dev = abs(hits / n - expected)
    sigma = np.sqrt(expected * (1 - expected) / n)
    ok = worst_tv < 2e-3 and dev < 3 * sigma
    _verdict(
        4,
        "speculative sampling equals maximal coupling",
        ok,
        f"worst TV={worst_tv:.2e} over 50 pairs; accept-rate dev={dev:.5f} vs 3sigma={3 * sigma:.5f}",
    )


def _power_map(regime, p, q=None, r=None, m_grid=(100_000,), reps=2000, seed=0):
    config = RegimeConfig(
        regime=regime, p=p, q=q, r=r, m_grid=m_grid, reps=reps, alpha=ALPHA, seed=seed
    )
    return {(row.m, row.statistic): row.power for row in run_power(config).rows}


def test_criterion_05_dense_regime_power():
    lo = _power_map(Regime.STRONG, p=0.25, r=0.2)
    hi = _power_map(Regime.STRONG, p=0.75, r=0.2)
    lo_sum, lo_hc = lo[(100_000, Statistic.SUM)], lo[(100_000, Statistic.HC_PLUS)]
    hi_sum, hi_hc = hi[(100_000, Statistic.SUM)], hi[(100_000, Statistic.HC_PLUS)]
    ok = lo_sum >= 0.95 and lo_hc >= 0.95 and hi_sum <= 0.10 and hi_hc <= 0.10
    _verdict(
        5,
        "shrinking-mass regime power",
        ok,
        f"p=0.25: sum={lo_sum:.3f}, hc+={lo_hc:.3f} (>=0.95); "
        f"p=0.75: sum={hi_sum:.3f}, hc+={hi_hc:.3f} (<=0.10)",
    )


def test_criterion_06_sparse_regime_boundaries():
    on_sum_line = _power_map(Regime.WEAK, p=0.2, q=0.3, m_grid=(1000, 10_000, 100_000))
    sums = [on_sum_line[(m, Statistic.SUM)] for m in (1000, 10_000, 100_000)]
    hc_top = on_sum_line[(100_000, Statistic.HC_PLUS)]
    clause1 = all(0.15 <= s <= 0.45 for s in sums) and hc_top >= 0.9

    # Between the boundaries (p + q > 1/2, 2p + q < 1) the cell keeps q = 0.5
    # and takes p so that the HC exponent 1/2 - p - q/2 is 0.15, as at the
    # clause-1 cell (0.2, 0.3): that gives (0.1, 0.5).  (0.2, 0.5) cannot be
    # tested at m = 1e5: its signal is a deficit of m**(1-p-q) ~ 32 scores
    # above 1 - m**(-q), z = m**0.05 ~ 1.78, and even the Neyman-Pearson count
    # test, which knows q, has power ~ 0.29 at alpha = 0.01.
    bp, bq = 0.1, 0.5
    between = _power_map(Regime.WEAK, p=bp, q=bq)
    b_sum, b_hc = between[(100_000, Statistic.SUM)], between[(100_000, Statistic.HC_PLUS)]
    gap = b_hc - b_sum
    clause2 = gap >= 0.2

    null_a = _power_map(Regime.WEAK, p=0.2, q=0.6)
    null_b = _power_map(Regime.WEAK, p=0.3, q=0.4)
    edge = [
        null_a[(100_000, Statistic.SUM)],
        null_a[(100_000, Statistic.HC_PLUS)],
        null_b[(100_000, Statistic.SUM)],
        null_b[(100_000, Statistic.HC_PLUS)],
    ]
    clause3 = all(v <= 0.10 for v in edge)

    ok = clause1 and clause2 and clause3
    _verdict(
        6,
        "sparse-regime detection boundaries",
        ok,
        f"on p+q=1/2: sum={[round(s, 3) for s in sums]} in [0.15,0.45], hc+@1e5={hc_top:.3f}>=0.9; "
        f"between boundaries (p,q)=({bp},{bq}): sum={b_sum:.4f}, hc+={b_hc:.4f}, "
        f"gap={gap:.4f} (needs >=0.2); "
        f"on 2p+q=1: powers={[round(v, 4) for v in edge]} (<=0.10)",
    )


def test_criterion_07_small_m_sum_wins():
    cell = _power_map(Regime.WEAK, p=0.2, q=0.2, m_grid=(100,))
    s, h = cell[(100, Statistic.SUM)], cell[(100, Statistic.HC_PLUS)]
    _verdict(7, "sum beats higher criticism at m=100", s >= h, f"sum={s:.4f} >= hc+={h:.4f}")


def test_criterion_08_size_control_all_statistics(tmp_path):
    trials = 10_000
    rng = np.random.default_rng(2024)
    tokens = rng.integers(0, 64, size=(trials, 202))
    rows = extract_zeta_primes_batch(tokens, KEY, vocab_size=64)
    n = min(len(r) for r in rows)
    mat = np.stack([r[:n] for r in rows])

    fpr = {}
    sum_pvals = np.array([sum_pvalue(float(s), n) for s in mat.sum(axis=1)])
    fpr["sum"] = float(np.mean(sum_pvals < ALPHA))
    for stat in (Statistic.HC_PLUS, Statistic.HC_STAR):
        crit = calibrate_null(stat, n, ALPHA, reps=4000, seed=77, cache_dir=tmp_path)
        fpr[stat.value] = float(np.mean(hc_batch(mat, stat, HcDenom.STANDARD_SQRT) > crit))

    # Green-restricted and baseline statistics on their exact null laws:
    # fresh-tuple membership is Bernoulli(gamma) and pivots are uniform.
    g = rng.binomial(n, 0.5, size=trials)
    maxima = rng.random(trials) ** (1.0 / np.maximum(g, 1))
    fpr["max"] = float(np.mean(maxima <= ALPHA ** (1.0 / np.maximum(g, 1))))
    s_gum = rng.gamma(n, 1.0, size=trials)
    fpr["gumbel-sum"] = float(np.mean(sstats.gamma.sf(s_gum, a=n) < ALPHA))
    g2 = rng.binomial(n, 0.5, size=trials)
    fpr["green-count"] = float(np.mean(sstats.binom.sf(g2 - 1, n, 0.5) < ALPHA))

    ok = all(v <= 0.015 for v in fpr.values())
    detail = ", ".join(f"{k}={v:.4f}" for k, v in fpr.items())
    _verdict(8, "false-positive rate <= 0.015 at alpha=0.01", ok, f"n={n}: {detail}")


def test_criterion_09_order_statistic_test(desk_corpus):
    # Exact size, analytically and end to end on null token streams.
    analytic_dev = max(abs((ALPHA ** (1.0 / n)) ** n - ALPHA) for n in (1, 7, 50, 300))
    null_tokens = np.random.default_rng(3).integers(0, 64, size=(3000, 202))
    fpr = float(
        np.mean(
            [
                detect(
                    GeneratedText(tuple(int(x) for x in row)), KEY, Statistic.MAX, alpha=ALPHA
                ).reject
                for row in null_tokens
            ]
        )
    )
    size_ok = analytic_dev < 1e-12 and abs(fpr - ALPHA) <= 0.005

    # Half the tokens substituted: power collapses below the mixture bound,
    # and far below the sum test on the same attacked corpus.
    attacked = [
        substitute(t, 0.5, np.random.default_rng([8, i]), 64) for i, t in enumerate(desk_corpus)
    ]
    max_power = _tpr(attacked, Statistic.MAX)
    sum_power = _tpr(attacked, Statistic.SUM)
    bound = ALPHA**0.5 + 0.03
    mixture_ok = max_power <= bound
    ordering_ok = max_power < sum_power - 0.2

    ok = size_ok and mixture_ok and ordering_ok
    _verdict(
        9,
        "order-statistic size and substitution collapse",
        ok,
        f"analytic size dev={analytic_dev:.1e}, null FPR={fpr:.4f} (+-0.005); "
        f"half-substituted: max power={max_power:.3f} <= {bound:.2f}, "
        f"sum power={sum_power:.3f}, gap={sum_power - max_power:.3f} (needs >0.2)",
    )


def test_criterion_10_desk_pipeline(desk_corpus):
    clean_tpr = _tpr(desk_corpus, Statistic.SUM)
    attacked = [
        substitute(t, 0.1, np.random.default_rng([7, i]), 64) for i, t in enumerate(desk_corpus)
    ]
    attacked_tpr = _tpr(attacked, Statistic.SUM)

    model = MarkovSource(order=2, vocab_size=64, seed=11)
    config = AttackConfig(accept_scale=0.5, lookahead=4)
    rates = {}
    for scheme in (Scheme.MC, Scheme.GUMBEL):
        rejected = evaluated = 0
        for i in range(6):
            _, stats = specdec_postprocess(
                model,
                model,
                KEY,
                config,
                scheme,
                GeneratedText((1, 2), 2),
                200,
                RngStream(40 + i),
                np.random.default_rng(40 + i),
            )
            rejected += stats.n_rejected
            evaluated += stats.n_evaluated
        rates[scheme.value] = rejected / evaluated

    ok = (
        clean_tpr >= 0.95
        and attacked_tpr >= 0.8 * clean_tpr
        and rates["mc"] < rates["gumbel"]
    )
    _verdict(
        10,
        "desk pipeline detection and lazy-editor ordering",
        ok,
        f"clean TPR={clean_tpr:.3f} (>=0.95), 10%-substituted TPR={attacked_tpr:.3f} "
        f"(>= {0.8 * clean_tpr:.3f}); specdec rejection mc={rates['mc']:.3f} < "
        f"gumbel={rates['gumbel']:.3f}",
    )


def test_criterion_11_byte_reproducibility(tmp_path):
    gen_args = [
        "generate",
        "--model", "markov:seed=11,vocab=64,order=2",
        "--key", "9e3779b97f4a7c15:k=2:g=0.5:mode=hash",
        "--n", "80",
        "--texts", "3",
        "--seed", "5",
    ]
    sim_args = [
        "simulate",
        "--regime", "weak",
        "--p", "0.2",
        "--q", "0.4",
        "--m", "100,1000",
        "--reps", "1000",
    ]
    pairs = []
    for name, args in (("gen", gen_args), ("sim", sim_args)):
        a, b = tmp_path / f"{name}_a", tmp_path / f"{name}_b"
        assert cli_main([*args, "--out", str(a)]) == 0
        assert cli_main([*args, "--out", str(b)]) == 0
        pairs.append(a.read_bytes() == b.read_bytes())

    out = tmp_path / "gen_a"
    det_a, det_b = tmp_path / "det_a", tmp_path / "det_b"
    det_args = ["detect", "--in", str(out), "--key", "9e3779b97f4a7c15:k=2:g=0.5:mode=hash"]
    assert cli_main([*det_args, "--out", str(det_a)]) == 0
    assert cli_main([*det_args, "--out", str(det_b)]) == 0
    pairs.append(det_a.read_bytes() == det_b.read_bytes())

    record = json.loads((tmp_path / "gen_a").read_text().splitlines()[0])
    ok = all(pairs) and record["text_id"] == 0
    _verdict(
        11,
        "identical flags and seeds give identical bytes",
        ok,
        f"generate/simulate/detect reruns byte-equal: {pairs}",
    )
