"""Detection: score extraction, exact null laws, higher criticism, and
calibrated thresholds."""

import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sstats

from wmkit import detection, simulation
from wmkit.core import GeneratedText, RngStream, make_ntp
from wmkit.decoders import DecoderConfig, generate
from wmkit.detection import (
    EmptyScores,
    HcDenom,
    OutOfRange,
    RowStream,
    Side,
    Statistic,
    TooFewScores,
    TooShort,
    calibrate_null,
    default_cache_dir,
    detect,
    detect_baseline,
    extract_scores,
    extract_zeta_primes_batch,
    hc_batch,
    hc_statistic,
    irwin_hall_cdf,
    max_test,
    sum_pvalue,
    sum_test,
)
from wmkit.keying import (
    WatermarkKey,
    derive_zeta,
    is_green,
    is_green_batch,
    keyed_permutation,
    perm_head,
)
from wmkit.lm import MarkovSource

KEY = WatermarkKey(master=0x9E3779B97F4A7C15, k=2, gamma=0.5, green_mode="hash")


class TestIrwinHall:
    def test_hand_values(self):
        assert irwin_hall_cdf(1.0, 2) == pytest.approx(0.5)
        assert irwin_hall_cdf(1.0, 3) == pytest.approx(1.0 / 6.0)
        assert irwin_hall_cdf(0.5, 1) == pytest.approx(0.5)
        assert irwin_hall_cdf(0.0, 4) == 0.0
        assert irwin_hall_cdf(4.0, 4) == 1.0

    def test_symmetry(self):
        for n in (2, 5, 9, 14):
            for s in (0.3, 1.1, n / 3.0):
                assert irwin_hall_cdf(s, n) == pytest.approx(
                    1.0 - irwin_hall_cdf(n - s, n), abs=1e-9
                )

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            irwin_hall_cdf(-0.1, 3)
        with pytest.raises(OutOfRange):
            irwin_hall_cdf(3.1, 3)
        with pytest.raises(OutOfRange):
            irwin_hall_cdf(1.0, 0)
        with pytest.raises(OutOfRange):
            irwin_hall_cdf(1.0, 15)

    def test_matches_simulation(self):
        # Empirical CDF of 1e6 simulated five-uniform sums; DKW at 1e6
        # bounds the deviation well below 5e-3.
        rng = np.random.default_rng(42)
        sums = rng.random((1_000_000, 5)).sum(axis=1)
        for s in (1.0, 2.0, 2.5, 3.0, 4.0):
            assert irwin_hall_cdf(s, 5) == pytest.approx(float((sums <= s).mean()), abs=5e-3)

    def test_normal_branch_continuity(self):
        # At the exact/normal switchover the two laws agree to ~1e-2.
        for s in (5.0, 6.0, 7.0, 8.0, 9.0):
            exact = irwin_hall_cdf(s, 14)
            approx = float(sstats.norm.cdf((s - 7.0) / math.sqrt(14 / 12.0)))
            assert abs(exact - approx) < 0.01

    def test_sum_pvalue_dispatch(self):
        assert sum_pvalue(7.0, 14) == irwin_hall_cdf(7.0, 14)
        # The normal branch is scipy.stats.norm.cdf bit for bit.
        for n in (15, 40, 300, 3000):
            for s in np.linspace(0.0, n, 61):
                z = (s - n / 2.0) / math.sqrt(n / 12.0)
                assert sum_pvalue(s, n) == float(sstats.norm.cdf(z))


class TestSumTest:
    def test_small_scores_reject(self):
        report = sum_test(np.full(20, 0.05), alpha=0.01)
        assert report.reject and report.p_value < 1e-6
        assert report.statistic is Statistic.SUM

    def test_half_scores_do_not_reject(self):
        report = sum_test(np.full(10, 0.5), alpha=0.01)
        assert not report.reject
        assert report.p_value == pytest.approx(0.5)

    def test_empty_rejected(self):
        with pytest.raises(EmptyScores):
            sum_test(np.array([]))


class TestLevelChecks:
    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -1.0, float("nan")])
    def test_alpha_outside_unit_interval(self, tmp_path, alpha):
        scores = np.full(20, 0.5)
        text = _random_text(np.random.default_rng(0), length=40)
        for call in (
            lambda: sum_test(scores, alpha),
            lambda: max_test(scores, alpha),
            lambda: detect(text, KEY, Statistic.SUM, alpha=alpha),
            lambda: detect(text, KEY, Statistic.HC_PLUS, alpha=alpha, cache_dir=tmp_path),
            lambda: detect_baseline(text, KEY, "gumbel", alpha=alpha),
            lambda: detect_baseline(text, KEY, "soft", alpha=alpha),
            lambda: calibrate_null(Statistic.SUM, 30, alpha, reps=1000, cache_dir=tmp_path),
        ):
            with pytest.raises(OutOfRange, match="alpha"):
                call()
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("statistic", [Statistic.SUM, Statistic.HC_PLUS])
    def test_detect_checks_calibration_reps_before_scoring(self, tmp_path, statistic):
        # Too short to score: the reps check must come first.
        short = GeneratedText(tokens=(1, 2))
        with pytest.raises(OutOfRange, match="reps"):
            detect(short, KEY, statistic, reps=10, cache_dir=tmp_path)

    @pytest.mark.parametrize("statistic", [Statistic.HC_PLUS, Statistic.HC_STAR])
    def test_detect_refuses_unresolved_hc_level_before_scoring(self, tmp_path, statistic):
        short = GeneratedText(tokens=(1, 2))
        with pytest.raises(OutOfRange, match=r"alpha \* reps"):
            detect(short, KEY, statistic, alpha=1e-6, cache_dir=tmp_path)

    @pytest.mark.parametrize("statistic", [Statistic.SUM, Statistic.MAX])
    def test_exact_tests_take_any_level(self, statistic):
        # Their thresholds are exact, so alpha * reps does not matter.
        text = _random_text(np.random.default_rng(0), length=40)
        assert detect(text, KEY, statistic, alpha=1e-6).alpha == 1e-6


class TestHigherCriticism:
    def test_hand_values_sqrt_denominator(self):
        x = np.array([0.1, 0.9])
        star = hc_statistic(x, Statistic.HC_STAR)
        assert star == pytest.approx(math.sqrt(2) * (0.5 - 0.1) / 0.3)
        plus = hc_statistic(x, Statistic.HC_PLUS)
        assert plus == pytest.approx(math.sqrt(2) * (1.0 - 0.9) / 0.3)

    def test_hand_values_linear_denominator(self):
        x = np.array([0.1, 0.9])
        star = hc_statistic(x, Statistic.HC_STAR, HcDenom.PAPER_LINEAR)
        assert star == pytest.approx(math.sqrt(2) * (0.5 - 0.1) / 0.09)

    def test_plus_without_eligible_entries(self):
        # Both order statistics below 1/n: the restricted variant never
        # rejects.
        assert hc_statistic(np.array([0.1, 0.2]), Statistic.HC_PLUS) == -np.inf

    def test_plus_le_star(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.random(50)
            assert hc_statistic(x, Statistic.HC_PLUS) <= hc_statistic(x, Statistic.HC_STAR)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(2)
        x = rng.random(100)
        assert hc_statistic(x) == hc_statistic(x[rng.permutation(100)])

    def test_too_few(self):
        with pytest.raises(TooFewScores):
            hc_statistic(np.array([0.5]))
        with pytest.raises(ValueError):
            hc_statistic(np.array([0.1, 0.2]), Statistic.SUM)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(3)
        rows = rng.random((64, 40))
        for variant in (Statistic.HC_PLUS, Statistic.HC_STAR):
            for denom in HcDenom:
                batch = hc_batch(rows, variant, denom)
                singles = np.array([hc_statistic(r, variant, denom) for r in rows])
                assert batch.tobytes() == singles.tobytes()

    def test_signal_raises_statistic(self):
        rng = np.random.default_rng(4)
        null = rng.random(1000)
        alt = null.copy()
        alt[:100] *= 0.05
        assert hc_statistic(alt) > hc_statistic(null)

    @pytest.mark.parametrize("scores", [[np.nan, 0.5, 0.7], [-0.5, 0.5, 0.7], [1.5, 0.5, 0.2]])
    def test_scores_outside_unit_interval_refused(self, scores):
        with pytest.raises(OutOfRange):
            hc_statistic(np.array(scores))
        with pytest.raises(OutOfRange):
            hc_batch(np.array([[0.1, 0.2, 0.3], scores]))

    def test_exact_zero_and_one_are_scores(self):
        x = np.array([[0.0, 0.5, 1.0]])
        for variant in (Statistic.HC_PLUS, Statistic.HC_STAR):
            want = _hc_oracle(x, variant, HcDenom.STANDARD_SQRT)
            assert hc_batch(x, variant).tobytes() == want.tobytes()

    def test_variant_given_by_name(self):
        x = np.random.default_rng(5).random((3, 200))
        for variant in (Statistic.HC_PLUS, Statistic.HC_STAR):
            assert hc_statistic(x[0], variant.value) == hc_statistic(x[0], variant)
            assert np.array_equal(hc_batch(x, variant.value), hc_batch(x, variant))
        with pytest.raises(ValueError):
            hc_batch(x, Statistic.SUM)


def _hc_oracle(rows, variant, denom):
    # The whole-matrix HC that the block kernel replaced, kept as its oracle.
    sorted_rows = np.sort(rows, axis=1)
    m = sorted_rows.shape[1]
    t = np.arange(1, m + 1, dtype=np.float64) / m
    x = np.clip(sorted_rows, 1e-12, 1.0 - 1e-12)
    d = x * (1.0 - x)
    if denom is HcDenom.STANDARD_SQRT:
        d = np.sqrt(d)
    hc = math.sqrt(m) * (t[None, :] - sorted_rows) / d
    if variant is Statistic.HC_PLUS:
        hc = np.where(sorted_rows >= 1.0 / m, hc, -np.inf)
    return hc.max(axis=1)


def _hc_rows(reps, m, seed):
    # Uniform rows with the edge cases the kernel must keep: exact 0 and 1,
    # scores below 1/m, ties, scores equal to some t = i/m, and, for the
    # bucketed kernel, scores at the bucket edges k/B and their neighbours,
    # a row inside one bucket, and a row wholly below 1/m.
    rng = np.random.default_rng(seed)
    x = rng.random((reps, m))
    buckets = max(1, m // 16)
    edges = np.arange(m) % (buckets + 1) / buckets
    hard = [
        np.arange(1, m + 1) / m,
        edges,
        np.nextafter(edges, np.where(np.arange(m) % 2, 2.0, -1.0)).clip(0.0, 1.0),
        (buckets // 3 + 0.25 + 0.5 * rng.random(m)) / buckets,
        0.99 * rng.random(m) / m,
    ]
    x[0, :2] = (0.0, 1.0)
    if reps > 1:
        x[1, : max(1, m // 2)] = 0.4 / m
    if reps > 2:
        x[2] = np.round(x[2], 1)
    for row, values in zip(x[3:], hard):
        row[:] = values
    return x


class TestHcKernel:
    # (reps, m): the smallest m; one block; twelve blocks, the last one
    # partial, shared over the allowed CPUs; one row per block; and each
    # side of the bucketed kernel's crossover, up to m = 1e5.
    @pytest.mark.parametrize("reps,m", [
        (7, 2), (50, 300), (1000, 3000), (2, 2**20 + 1),
        (9, detection._HC_PRUNE_FROM - 1), (9, detection._HC_PRUNE_FROM), (300, 10_000),
        (9, 100_000),
    ])
    def test_bytes_match_whole_matrix_oracle(self, reps, m):
        rows = _hc_rows(reps, m, seed=reps + m)
        before = rows.copy()
        for variant in (Statistic.HC_PLUS, Statistic.HC_STAR):
            for denom in HcDenom:
                got = hc_batch(rows, variant, denom)
                assert got.tobytes() == _hc_oracle(rows, variant, denom).tobytes()
        assert np.array_equal(rows, before)

    @pytest.mark.parametrize("regime,role", [("weak", 0), ("weak", 1), ("strong", 1)])
    def test_cell_streams_match_oracle_at_1e5(self, regime, role):
        # The first 9 rows of a cell: a stream with the cell's entropy and
        # signal transform.
        config = simulation.RegimeConfig(regime, p=0.2, q=0.5, r=0.5, reps=1000, seed=6)
        cell = simulation._cell_rows(config, 100_000, role)
        rows = RowStream(cell.entropy, (9, 100_000), transform=cell.transform)
        whole = np.asarray(rows)
        for variant in (Statistic.HC_PLUS, Statistic.HC_STAR):
            for denom in HcDenom:
                got = hc_batch(rows, variant, denom)
                assert got.tobytes() == _hc_oracle(whole, variant, denom).tobytes()

    def test_null_rows_at_1e5_score_few_terms(self, monkeypatch):
        # Whole-row scoring would score all 1e6 terms; a null row keeps about
        # 750 of its 1e5 scores.
        scored, terms = [], detection._hc_terms
        monkeypatch.setattr(
            detection, "_hc_terms", lambda s, *a: scored.append(np.size(s)) or terms(s, *a)
        )
        rows = np.random.default_rng(14).random((10, 100_000))
        for variant in (Statistic.HC_PLUS, Statistic.HC_STAR):
            scored.clear()
            hc_batch(rows, variant)
            assert 0 < sum(scored) < rows.size // 20

    def test_threads_only_for_more_than_one_block(self, monkeypatch):
        pools = []

        def recording_pool(workers):
            pools.append(workers)
            return ThreadPoolExecutor(workers)

        monkeypatch.setattr(detection, "ThreadPoolExecutor", recording_pool)
        # 2**18 // 300 = 873 rows fit one block; 2**18 // 3000 = 87 rows
        # make three blocks of (250, 3000).
        one_block = np.random.default_rng(12).random((800, 300))
        hc_batch(one_block)
        hc_statistic(one_block[0])
        assert pools == []
        hc_batch(np.random.default_rng(13).random((250, 3000)))
        cpus = len(os.sched_getaffinity(0))
        assert pools == ([] if cpus == 1 else [min(3, cpus)])

    def test_scalar_does_not_mutate(self):
        x = np.random.default_rng(10).random(500)
        before = x.copy()
        hc_statistic(x)
        assert np.array_equal(x, before)

    def test_peak_memory_bounded_by_blocks(self):
        # Fifty blocks of 2 rows; each thread holds a (2, 1e5) float64 score
        # buffer and an intp bucket-index buffer (about 3 MiB), where the
        # whole-matrix kernel held about 390 MiB of (100, 1e5) temporaries.
        rows = np.random.default_rng(11).random((100, 100_000))
        workers = min(10, len(os.sched_getaffinity(0)))
        tracemalloc.start()
        try:
            hc_batch(rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (16 + 32 * workers) * 2**20

    @pytest.mark.parametrize("reps,m", [(7, 2), (1000, 3000)])
    def test_stream_matches_its_materialized_matrix(self, reps, m):
        rows = RowStream((4, m, reps), (reps, m))
        whole = np.asarray(rows)
        assert whole.tobytes() == np.random.default_rng([4, m, reps]).random((reps, m)).tobytes()
        for variant in (Statistic.HC_PLUS, Statistic.HC_STAR):
            for denom in HcDenom:
                got = hc_batch(rows, variant, denom)
                assert got.tobytes() == hc_batch(whole, variant, denom).tobytes()

    def test_fill_covers_every_row_once(self):
        # 250 rows of 3000 scores: three blocks of at most 87 rows, shared
        # over the threads.
        rows = RowStream((5,), (250, 3000), reduce=np.add)
        spans, lock, fill = [], threading.Lock(), rows.fill

        def recording_fill(lo, hi, out):
            with lock:
                spans.append((lo, hi))
            fill(lo, hi, out)

        rows.fill = recording_fill
        hc_batch(rows)
        spans.sort()
        assert spans[0][0] == 0 and spans[-1][1] == 250 and len(spans) == 3
        assert all(lo < hi == next_lo for (lo, hi), (next_lo, _) in zip(spans, spans[1:]))
        sums = np.random.default_rng([5]).random((250, 3000)).sum(axis=1)
        assert rows.reduced.tobytes() == sums.tobytes()


class TestMaxTest:
    def test_single_score(self):
        report = max_test(np.array([0.005]), alpha=0.01)
        assert report.reject and report.threshold == pytest.approx(0.01)
        report = max_test(np.array([0.02]), alpha=0.01)
        assert not report.reject

    def test_hand_values(self):
        report = max_test(np.array([0.3, 0.5]), alpha=0.01)
        assert report.value == pytest.approx(0.5)
        assert report.p_value == pytest.approx(0.25)
        assert report.threshold == pytest.approx(0.1)
        assert not report.reject

    def test_threshold_drives_decision_at_boundary(self):
        alpha = 0.04
        threshold = alpha ** (1.0 / 2.0)
        report = max_test(np.array([threshold, threshold / 2]), alpha=alpha)
        assert report.reject

    def test_exact_size(self):
        rng = np.random.default_rng(5)
        maxima = rng.random((10_000, 10)).max(axis=1)
        rate = float(np.mean(maxima <= 0.01 ** (1.0 / 10.0)))
        assert abs(rate - 0.01) <= 0.005

    def test_empty(self):
        with pytest.raises(EmptyScores):
            max_test(np.array([]))


class TestCalibration:
    def test_deterministic_and_cached(self, tmp_path):
        a = calibrate_null(Statistic.HC_PLUS, 50, 0.01, reps=1000, seed=3, cache_dir=tmp_path)
        b = calibrate_null(Statistic.HC_PLUS, 50, 0.01, reps=1000, seed=3, cache_dir=tmp_path)
        assert a == b
        lines = (tmp_path / "calibrations.csv").read_text().splitlines()
        assert lines[0] == "statistic,n,alpha,reps,seed,critical_value"
        assert len(lines) == 2

    def test_seed_changes_value(self, tmp_path):
        a = calibrate_null(Statistic.SUM, 30, 0.05, reps=1000, seed=0, cache_dir=tmp_path)
        b = calibrate_null(Statistic.SUM, 30, 0.05, reps=1000, seed=1, cache_dir=tmp_path)
        assert a != b

    def test_reps_floor(self, tmp_path):
        with pytest.raises(ValueError):
            calibrate_null(Statistic.SUM, 30, 0.05, reps=500, cache_dir=tmp_path)

    @pytest.mark.parametrize(
        "statistic,n,alpha",
        [
            (Statistic.HC_PLUS, 1, 0.01),
            (Statistic.HC_STAR, 1, 0.01),
            # The tail holds 1e-3 of a draw; the threshold it gives rejects
            # 1.3e-3 of fresh null rows, not 1e-6.
            (Statistic.HC_PLUS, 100, 1e-6),
            (Statistic.SUM, 30, 0.005),
        ],
    )
    def test_refused_before_drawing(self, tmp_path, monkeypatch, statistic, n, alpha):
        def no_draws(*args):
            raise AssertionError("the null was drawn")

        monkeypatch.setattr(detection, "_null_statistics", no_draws)
        with pytest.raises(OutOfRange, match=r"n >= 2|alpha \* reps"):
            calibrate_null(statistic, n, alpha, reps=1000, cache_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_critical_value_neither_returned_nor_cached(self, tmp_path):
        # A quarter of n = 2 null rows have no score >= 1/2, so their HC+ is
        # -inf, and the 0.1 quantile falls among them.
        with pytest.raises(OutOfRange, match="no finite critical value"):
            calibrate_null(Statistic.HC_PLUS, 2, 0.9, reps=1000, cache_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("n", [0, -3])
    def test_n_floor_checked_before_cache(self, tmp_path, n):
        # A row for n = 0, as an unchecked call once appended, is not served.
        cache = tmp_path / "calibrations.csv"
        cache.write_text(f"statistic,n,alpha,reps,seed,critical_value\nsum,{n},0.01,1000,0,0.0\n")
        before = cache.read_bytes()
        with pytest.raises(OutOfRange):
            calibrate_null(Statistic.SUM, n, 0.01, reps=1000, cache_dir=tmp_path)
        assert cache.read_bytes() == before

    def test_sum_tail_matches_exact_law(self, tmp_path):
        calib = calibrate_null(Statistic.SUM, 12, 0.05, reps=4000, seed=7, cache_dir=tmp_path)
        assert irwin_hall_cdf(calib, 12) == pytest.approx(0.05, abs=0.02)

    def test_max_tail_matches_exact_law(self, tmp_path):
        calib = calibrate_null(Statistic.MAX, 20, 0.01, reps=4000, seed=7, cache_dir=tmp_path)
        assert abs(calib - 0.01 ** (1.0 / 20.0)) < 0.04

    def test_sum_threshold_monotone_in_alpha(self, tmp_path):
        tight = calibrate_null(Statistic.SUM, 10, 0.01, reps=2000, seed=2, cache_dir=tmp_path)
        loose = calibrate_null(Statistic.SUM, 10, 0.10, reps=2000, seed=2, cache_dir=tmp_path)
        assert tight < loose

    def test_env_var_controls_default_dir(self):
        assert default_cache_dir() == Path(os.environ["WMKIT_CALIB_DIR"])

    def test_negative_seed_rejected_before_lookup(self, tmp_path):
        # A cached row for seed -1 is not an answer to the request.
        (tmp_path / "calibrations.csv").write_text(
            "statistic,n,alpha,reps,seed,critical_value\nsum,30,0.01,1000,-1,12.5\n"
        )
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            calibrate_null(Statistic.SUM, 30, 0.01, reps=1000, seed=-1, cache_dir=tmp_path)

    def test_uncalibratable_statistic(self, tmp_path):
        with pytest.raises(ValueError):
            calibrate_null(Statistic.GUMBEL_SUM, 10, 0.01, cache_dir=tmp_path)

    def test_hc_denominator_is_part_of_the_key(self, tmp_path):
        # A sqrt calibration must not answer a linear request (3.94 vs 49.95
        # at n=300, alpha=0.01): the two nulls differ by an order of magnitude.
        sqrt = calibrate_null(Statistic.HC_PLUS, 300, 0.01, denom="sqrt", cache_dir=tmp_path)
        linear = calibrate_null(Statistic.HC_PLUS, 300, 0.01, denom="linear", cache_dir=tmp_path)
        fresh = calibrate_null(Statistic.HC_PLUS, 300, 0.01, denom="linear",
                               cache_dir=tmp_path / "fresh")
        assert linear == fresh
        assert linear > 5 * sqrt
        again = calibrate_null(Statistic.HC_PLUS, 300, 0.01, denom="sqrt", cache_dir=tmp_path)
        assert again == sqrt
        assert len((tmp_path / "calibrations.csv").read_text().splitlines()) == 3

    def test_hc_row_without_denominator_not_reused(self, tmp_path):
        # Rows written before the denominator joined the key carry a bare
        # "hc+"; reusing one could hand a linear request a sqrt value.
        (tmp_path / "calibrations.csv").write_text(
            "statistic,n,alpha,reps,seed,critical_value\n"
            "hc+,300,0.01,2000,0,3.936\n"
            "sum,30,0.05,1000,0,12.5\n"
        )
        linear = calibrate_null(Statistic.HC_PLUS, 300, 0.01, denom="linear", cache_dir=tmp_path)
        assert linear != 3.936
        sqrt = calibrate_null(Statistic.HC_PLUS, 300, 0.01, cache_dir=tmp_path)
        assert sqrt != 3.936
        # The sum null has no denominator, so its rows stay valid.
        kept = calibrate_null(Statistic.SUM, 30, 0.05, reps=1000, cache_dir=tmp_path)
        assert kept == 12.5

    @pytest.mark.parametrize(
        "row",
        [
            "sum,abc,0.01,2000,0,1.0",
            "sum,30,0.01,2000,0,banana",
            "sum,30,0.01,2000,0,nan",
            "sum,30,0.01,2000,0,inf",
            "sum,30,0.01",
        ],
    )
    def test_malformed_row_skipped_and_recomputed(self, tmp_path, row):
        # A row that does not parse, or whose critical value is not finite,
        # is ignored with a warning; the lookup then recomputes.
        path = tmp_path / "calibrations.csv"
        path.write_text("statistic,n,alpha,reps,seed,critical_value\n" + row + "\n")
        fresh = calibrate_null(Statistic.SUM, 30, 0.01, cache_dir=tmp_path / "fresh")
        with pytest.warns(UserWarning, match="malformed rows"):
            got = calibrate_null(Statistic.SUM, 30, 0.01, cache_dir=tmp_path)
        assert got == fresh
        assert path.read_text().splitlines()[-1].endswith(repr(fresh))

    @pytest.mark.parametrize("statistic,n", [(Statistic.SUM, 100_000), (Statistic.HC_PLUS, 10_000)])
    def test_cold_calibration_memory_bounded(self, tmp_path, statistic, n):
        # The null is drawn in blocks of about 2**18 scores (2 MiB): on this
        # thread for the sum, and in the HC kernel's two buffers per thread
        # for HC.  A draw chunk of 2e7 scores (153 MiB) breaks the bound.
        threads = 0 if statistic is Statistic.SUM else min(10, len(os.sched_getaffinity(0)))
        tracemalloc.start()
        try:
            calibrate_null(statistic, n, 0.01, cache_dir=tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (16 + 24 * threads) * 2**20

    def test_concurrent_appends_keep_one_header_and_every_row(self, tmp_path):
        # Two processes append 25 rows each to the same 20 new cache files.
        code = (
            "import sys, time\n"
            "from pathlib import Path\n"
            "from wmkit.detection import HcDenom, Statistic, _cache_append\n"
            "root, who, start = Path(sys.argv[1]), int(sys.argv[2]), float(sys.argv[3])\n"
            "time.sleep(max(0.0, start - time.time()))\n"
            "for f in range(20):\n"
            "    for n in range(25):\n"
            "        _cache_append(root / str(f) / 'calibrations.csv', Statistic.SUM, n,\n"
            "                      0.01, 1000, who, HcDenom.STANDARD_SQRT, 0.5)\n"
        )
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
        )
        start = str(time.time() + 2.0)
        procs = [
            subprocess.Popen([sys.executable, "-c", code, str(tmp_path), str(who), start], env=env)
            for who in (1, 2)
        ]
        assert [proc.wait(timeout=120) for proc in procs] == [0, 0]
        header = "statistic,n,alpha,reps,seed,critical_value"
        want = sorted(f"sum,{n},0.01,1000,{who},0.5" for who in (1, 2) for n in range(25))
        for f in range(20):
            lines = (tmp_path / str(f) / "calibrations.csv").read_text().splitlines()
            assert lines[0] == header
            assert sorted(lines[1:]) == want
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(str(f) for f in range(20))
        assert all(p.name == "calibrations.csv" for d in tmp_path.iterdir() for p in d.iterdir())

    def test_malformed_rows_warn_once(self, tmp_path):
        (tmp_path / "calibrations.csv").write_text(
            "statistic,n,alpha,reps,seed,critical_value\n"
            "sum,abc,0.01,2000,0,1.0\n"
            "sum,30,0.01,2000,0,banana\n"
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            a = calibrate_null(Statistic.SUM, 30, 0.01, cache_dir=tmp_path)
            b = calibrate_null(Statistic.SUM, 30, 0.01, cache_dir=tmp_path)
        assert a == b
        assert len(caught) == 1


def _random_text(rng, length=120, vocab=64):
    return GeneratedText(tokens=tuple(int(t) for t in rng.integers(0, vocab, length)))


class TestExtractScores:
    def test_too_short(self):
        with pytest.raises(TooShort):
            extract_scores(GeneratedText(tokens=(1, 2)), KEY)

    def test_tuple_dedup(self):
        tokens = (1, 2, 3, 1, 2, 3)
        assert detection._first_occurrences(tokens, 2, None) == [(1, 2, 3), (2, 3, 1), (3, 1, 2)]
        assert len(extract_scores(GeneratedText(tokens), KEY)) == 3

    def test_same_context_new_token_scored(self):
        tokens = (1, 2, 3, 1, 2, 4)
        table = detection._first_occurrences(tokens, 2, None)
        assert table == [(1, 2, 3), (2, 3, 1), (3, 1, 2), (1, 2, 4)]
        assert len(extract_scores(GeneratedText(tokens), KEY)) == 4

    def test_fold_rule(self):
        rng = np.random.default_rng(6)
        text = _random_text(rng)
        table = detection._first_occurrences(text.tokens, KEY.k, None)
        scores = extract_scores(text, KEY)
        assert len(scores) == len(table)
        for row, (zeta_prime, green) in zip(table, scores):
            ctx, tok = row[:2], row[2]
            zeta = derive_zeta(KEY, ctx)
            assert green == is_green(KEY, ctx, tok)
            expected = zeta if green else 1.0 - zeta
            assert zeta_prime == expected

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_batch_matches_scalar(self, k):
        # k = 0 makes the tuple table (n, 1) and its contexts (n, 0).
        rng = np.random.default_rng(7)
        tokens = rng.integers(0, 32, size=(20, 80))
        for mode in ("hash", "single", "perm"):
            key = WatermarkKey(master=99, k=k, gamma=0.5, green_mode=mode)
            batch = extract_zeta_primes_batch(tokens, key, vocab_size=32)
            for i in range(20):
                text = GeneratedText(tuple(tokens[i].tolist()))
                scalar = extract_scores(text, key, vocab_size=32)
                assert batch[i].tolist() == [zeta_prime for zeta_prime, _ in scalar]
                ctxs, toks = detection._first_tuples(text.tokens, k, 32)
                assert ctxs.shape == (len(scalar), k)
                green = is_green_batch(key, ctxs, toks, 32).tolist()
                assert [g for _, g in scalar] == green
                for scheme in ("gumbel", "soft"):
                    report = detect_baseline(text, key, scheme, vocab_size=32)
                    assert report.n_scored == len(scalar)

    def test_perm_extraction_memory_bounded(self):
        # Perm-mode membership must not build a V-wide permutation and mask
        # per scored position: 200 positions at V=32000 stay under 16 MiB.
        import tracemalloc

        key = WatermarkKey(master=99, k=2, gamma=0.5, green_mode="perm")
        tokens = np.random.default_rng(9).integers(0, 32_000, size=(1, 202))
        tracemalloc.start()
        try:
            scores = extract_zeta_primes_batch(tokens, key, vocab_size=32_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(scores[0]) == 200
        assert peak < 16 * 2**20

    def test_perm_extraction_v131072(self):
        # At a 128k vocabulary, ranking each token's word in blocks agrees
        # with the head of the whole keyed permutation, in bounded memory.
        vocab = 131_072
        key = WatermarkKey(master=99, k=2, gamma=0.5, green_mode="perm")
        tokens = np.random.default_rng(10).integers(0, vocab, size=(1, 42))
        tracemalloc.start()
        try:
            (scores,) = extract_zeta_primes_batch(tokens, key, vocab_size=vocab)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        expected = []
        for t in range(key.k, tokens.shape[1]):
            ctx, tok = tuple(tokens[0, t - key.k : t].tolist()), int(tokens[0, t])
            green = tok in perm_head(keyed_permutation(key, ctx, vocab), key.gamma)
            zeta = derive_zeta(key, ctx)
            expected.append(zeta if green else 1.0 - zeta)
        assert scores.tolist() == expected

    @pytest.mark.parametrize("mode", ["hash", "perm"])
    @pytest.mark.parametrize(
        "tokens,vocab_size",
        [
            ((1, 2, 32, 4), 32),
            ((1, -1, 3, 4), 32),
            ((1, -1, 3, 4), None),
            ((1, 2, 2**64 + 3, 4), None),
        ],
    )
    def test_tokens_outside_vocabulary_rejected(self, mode, tokens, vocab_size):
        # Negative tokens, and tokens beyond int64, are refused even when the
        # vocabulary is unknown.
        key = WatermarkKey(master=99, k=2, gamma=0.5, green_mode=mode)
        text = GeneratedText(tokens)
        for call in (
            lambda: extract_scores(text, key, vocab_size),
            lambda: extract_zeta_primes_batch(np.array([tokens]), key, vocab_size),
            lambda: detect_baseline(text, key, "gumbel", vocab_size=vocab_size),
            lambda: detect_baseline(text, key, "mc", vocab_size=vocab_size),
        ):
            with pytest.raises(OutOfRange, match="outside"):
                call()

    def test_batch_refuses_fractional_tokens(self):
        # As GeneratedText does for the scalar path: 1.9 is not truncated to 1.
        with pytest.raises(ValueError, match="integers"):
            extract_zeta_primes_batch(np.array([[1.9, 2.2, 3.7, 4.1]]), KEY)

    def test_null_scores_uniform(self):
        rng = np.random.default_rng(8)
        tokens = rng.integers(0, 64, size=(100, 102))
        scores = np.concatenate(extract_zeta_primes_batch(tokens, KEY))
        assert sstats.kstest(scores, "uniform").pvalue > 1e-3


class TestDetectPipeline:
    def _watermarked_text(self, scheme="mc", n=150, seed=0, **cfg):
        model = MarkovSource(order=2, vocab_size=64, seed=11)
        config = DecoderConfig(scheme=scheme, **cfg)
        prompt = GeneratedText(tokens=(1, 2), prompt_len=2)
        return generate(model, KEY, config, prompt, n, RngStream(seed)).text

    def test_sum_detects_watermark(self):
        report = detect(self._watermarked_text(), KEY, Statistic.SUM, alpha=0.01)
        assert report.reject

    def test_wrong_key_does_not_detect(self):
        other = WatermarkKey(master=123456789, k=2, gamma=0.5, green_mode="hash")
        report = detect(self._watermarked_text(), other, Statistic.SUM, alpha=0.01)
        assert not report.reject

    def test_max_forces_green_only(self):
        text = self._watermarked_text()
        full = len(extract_scores(text, KEY))
        report = detect(text, KEY, Statistic.MAX, alpha=0.01)
        assert report.n_scored < full
        assert report.threshold == pytest.approx(0.01 ** (1.0 / report.n_scored))

    def test_green_side_restricts_scores(self):
        text = self._watermarked_text()
        scores = extract_scores(text, KEY)
        greens = [zeta_prime for zeta_prime, green in scores if green]
        report = detect(text, KEY, Statistic.SUM, side=Side.GREEN_ONLY)
        assert report.n_scored == len(greens)
        assert report.value == pytest.approx(sum(greens))

    def test_hc_uses_calibrated_threshold(self):
        report = detect(self._watermarked_text(n=200), KEY, Statistic.HC_PLUS, alpha=0.01)
        assert report.p_value is None and report.threshold is not None
        assert report.reject == (report.value > report.threshold)

    def test_sum_size_on_null_tokens(self):
        rng = np.random.default_rng(9)
        tokens = rng.integers(0, 64, size=(400, 102))
        rejects = 0
        for zp in extract_zeta_primes_batch(tokens, KEY):
            rejects += sum_test(zp, alpha=0.05).reject
        assert abs(rejects / 400 - 0.05) < 0.04


class TestBaselines:
    def test_gumbel_baseline_detects(self):
        model = MarkovSource(order=2, vocab_size=64, seed=11)
        text = generate(
            model, KEY, DecoderConfig(scheme="gumbel"), GeneratedText((1, 2), 2), 120, RngStream(1)
        ).text
        report = detect_baseline(text, KEY, "gumbel", alpha=0.01)
        assert report.statistic is Statistic.GUMBEL_SUM
        assert report.reject
        assert report.p_value == float(sstats.gamma.sf(report.value, a=report.n_scored))

    def test_gumbel_baseline_null_calibrated(self):
        rng = np.random.default_rng(10)
        reports = [detect_baseline(_random_text(rng), KEY, "gumbel") for _ in range(200)]
        for r in reports:
            assert r.p_value == float(sstats.gamma.sf(r.value, a=r.n_scored))
        assert sstats.kstest([r.p_value for r in reports], "uniform").pvalue > 1e-3

    def test_green_count_all_green_pvalue(self):
        # A 12-token text whose ten scored tuples are all green: under
        # gamma = 0.5 the Binomial(10, 1/2) upper tail at 10 is 2**-10.
        for seed in range(20_000):
            text = _random_text(np.random.default_rng(seed), length=12)
            scores = extract_scores(text, KEY)
            if len(scores) == 10 and all(green for _, green in scores):
                break
        else:
            pytest.fail("no all-green text among the seeds searched")
        report = detect_baseline(text, KEY, "soft", alpha=0.01)
        assert (report.n_scored, report.value) == (10, 10.0)
        assert report.p_value == 2.0**-10
        assert report.reject

    def test_soft_baseline_detects_soft_watermark(self):
        model = MarkovSource(order=2, vocab_size=64, seed=11)
        text = generate(
            model,
            KEY,
            DecoderConfig(scheme="soft", delta=2.0),
            GeneratedText((1, 2), 2),
            150,
            RngStream(2),
        ).text
        report = detect_baseline(text, KEY, "soft", alpha=0.01)
        assert report.statistic is Statistic.GREEN_COUNT
        assert report.reject

    def test_dipmark_baseline_counts_permutation_head_under_hash_key(self):
        # DiPmark generates toward the keyed permutation's head whatever the
        # key's mode, so its green count must use that head under a hash key.
        model = MarkovSource(order=2, vocab_size=64, seed=11)
        config = DecoderConfig(scheme="dipmark", alpha_dip=0.45)
        rejects = 0
        for i in range(20):
            text = generate(model, KEY, config, GeneratedText((1, 2), 2), 200, RngStream(i)).text
            rejects += detect_baseline(text, KEY, "dipmark", alpha=0.01, vocab_size=64).reject
        assert rejects / 20 >= 0.9

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            detect_baseline(_random_text(np.random.default_rng(0)), KEY, "nope")
