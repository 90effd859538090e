"""Sparse-mixture power study: regimes, drawn cells, power curves, and CSV
reporting."""

import os
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtr

from wmkit import simulation
from wmkit.detection import HcDenom, Statistic, hc_batch
from wmkit.simulation import (
    POWER_CSV_HEADER,
    PowerCurve,
    Regime,
    RegimeConfig,
    csv_text,
    power_csv,
    run_power,
    signal_count,
)


def _weak(p=0.2, q=0.4, m_grid=(100, 1000), reps=1000, alpha=0.01, seed=0):
    return RegimeConfig(regime=Regime.WEAK, p=p, q=q, m_grid=m_grid, reps=reps, alpha=alpha, seed=seed)


def _strong(p=0.3, r=0.5, m_grid=(100, 1000), reps=1000, alpha=0.01, seed=0):
    return RegimeConfig(regime=Regime.STRONG, p=p, r=r, m_grid=m_grid, reps=reps, alpha=alpha, seed=seed)


def _filled(rows):
    # The whole matrix of a RowStream, filled in one call.
    out = np.empty(rows.shape)
    rows.fill(0, rows.shape[0], out)
    return out


class TestRegimeConfig:
    def test_q_or_r(self):
        assert _weak(q=0.4).q_or_r == pytest.approx(0.4)
        assert _strong(r=0.5).q_or_r == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "factory,kwargs",
        [
            (_weak, {"p": 0.0}),
            (_weak, {"p": 1.0}),
            (_weak, {"reps": 500}),
            (_weak, {"alpha": 0.0}),
            (_weak, {"m_grid": ()}),
            (_weak, {"m_grid": (1000, 100)}),
            (_weak, {"m_grid": (0,)}),
            (_weak, {"q": 0.0}),
            (_weak, {"q": -0.5}),
            (_weak, {"q": float("nan")}),
            (_strong, {"r": 0.0}),
            (_strong, {"r": -1.0}),
            (_weak, {"alpha": 1.5}),
            (_weak, {"alpha": float("nan")}),
            (_weak, {"m_grid": (1, 100)}),
            (_weak, {"alpha": 0.005}),
            (_strong, {"alpha": 0.005, "reps": 1999}),
            (_weak, {"m_grid": (100, 100)}),
        ],
    )
    def test_validation(self, factory, kwargs):
        with pytest.raises(ValueError):
            factory(**kwargs)

    @pytest.mark.parametrize("m", [1500.7, float("inf"), float("nan")])
    def test_non_integral_m_rejected(self, m):
        with pytest.raises(ValueError, match="m_grid entries must be integers"):
            _weak(m_grid=(100, m))

    def test_integral_float_m_accepted(self):
        assert _weak(m_grid=(1e2, 1e4)).m_grid == (100, 10_000)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            _weak(seed=-1)

    def test_numpy_floats_write_the_same_csv(self):
        # The CSV writes floats by repr, which for a numpy scalar is
        # "np.float64(0.2)" under numpy 2.
        want = power_csv([run_power(_weak(m_grid=(100,)))])
        config = _weak(p=np.float64(0.2), q=np.float64(0.4), m_grid=(100,), alpha=np.float64(0.01))
        assert power_csv([run_power(config)]) == want

    def test_regime_parameter_required(self):
        with pytest.raises(ValueError):
            RegimeConfig(regime=Regime.WEAK, p=0.2, m_grid=(100,))
        with pytest.raises(ValueError):
            RegimeConfig(regime=Regime.STRONG, p=0.2, m_grid=(100,))

    def test_exponent_the_regime_ignores_is_refused(self):
        with pytest.raises(ValueError, match="r does not apply to the weak regime"):
            RegimeConfig(regime=Regime.WEAK, p=0.2, q=0.5, r=0.9, m_grid=(100,))
        with pytest.raises(ValueError, match="q does not apply to the strong regime"):
            RegimeConfig(regime=Regime.STRONG, p=0.2, r=0.5, q=0.5, m_grid=(100,))


class TestSampling:
    def test_signal_count(self):
        assert signal_count(_weak(p=0.5), 100) == 10
        assert signal_count(_weak(p=0.3), 10_000) == 631
        assert signal_count(_weak(p=0.99), 1000) == 1

    def test_weak_alternative_mean(self):
        config = _weak(p=0.1, q=0.3)
        m = 2000
        rows = _filled(simulation._cell_rows(config, m, 1)[0])
        n_sig = signal_count(config, m)
        shrink = 1.0 - m ** (-0.3)
        expected = 0.5 * (n_sig * shrink + (m - n_sig)) / m
        se = np.sqrt(1.0 / (12 * rows.size))
        assert abs(rows.mean() - expected) < 4 * se

    def test_strong_alternative_mean(self):
        config = _strong(p=0.1, r=0.5)
        m = 2000
        rows = _filled(simulation._cell_rows(config, m, 1)[0])
        n_sig = signal_count(config, m)
        lo = m ** (-0.5)
        expected = ((lo + 1.0) / 4.0 * n_sig + 0.5 * (m - n_sig)) / m
        assert abs(rows.mean() - expected) < 0.005

    def test_alternative_in_unit_interval(self):
        for config in (_weak(), _strong()):
            rows = _filled(simulation._cell_rows(config, 500, 1)[0])
            assert rows.shape == (config.reps, 500)
            assert np.all((rows >= 0) & (rows <= 1))


class TestRunPower:
    def test_row_layout(self):
        curve = run_power(_weak(m_grid=(100, 400)))
        assert isinstance(curve, PowerCurve)
        assert len(curve.rows) == 4
        assert [(r.m, r.statistic) for r in curve.rows] == [
            (100, Statistic.SUM),
            (100, Statistic.HC_PLUS),
            (400, Statistic.SUM),
            (400, Statistic.HC_PLUS),
        ]
        for row in curve.rows:
            assert 0.0 <= row.power <= 1.0

    def test_reproducible_csv(self):
        a = power_csv([run_power(_weak())])
        b = power_csv([run_power(_weak())])
        assert a == b

    def test_csv_shape(self):
        csv = power_csv([run_power(_weak(m_grid=(100,)))])
        lines = csv.splitlines()
        assert lines[0] == POWER_CSV_HEADER
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "weak" and first[3] == "100" and first[4] == "sum"

    def test_csv_of_several_curves_has_one_header(self):
        weak, strong = run_power(_weak(m_grid=(100,))), run_power(_strong(m_grid=(100,)))
        lines = power_csv([weak, strong]).splitlines()
        assert lines[0] == POWER_CSV_HEADER
        assert lines[1:] == (power_csv([weak]).splitlines()[1:]
                             + power_csv([strong]).splitlines()[1:])
        assert power_csv([]) == ""

    def test_negligible_signal_gives_size(self):
        # One signal coordinate in a thousand: power collapses to the test
        # size alpha.
        curve = run_power(_weak(p=0.99, q=0.4, m_grid=(1000,), reps=2000))
        for row in curve.rows:
            assert abs(row.power - 0.01) < 0.02

    def test_power_grows_with_m_inside_boundary(self):
        curve = run_power(_weak(p=0.2, q=0.4, m_grid=(100, 1000, 10_000), reps=1000))
        by_stat = {}
        for row in curve.rows:
            by_stat.setdefault(row.statistic, []).append(row.power)
        for powers in by_stat.values():
            drops = [max(a - b, 0.0) for a, b in zip(powers, powers[1:])]
            assert max(drops, default=0.0) <= 0.05

    def test_strong_regime_saturates(self):
        curve = run_power(_strong(p=0.3, r=0.5, m_grid=(10_000,), reps=1000))
        assert all(row.power > 0.95 for row in curve.rows)

    def test_seed_changes_draws(self):
        a = run_power(_weak(seed=0, m_grid=(200,)))
        b = run_power(_weak(seed=1, m_grid=(200,)))
        assert any(
            x.critical_value != y.critical_value for x, y in zip(a.rows, b.rows)
        )


def _sum_power_normal_law(config, m, critical):
    """Sum-test power at ``critical`` from the exact mean and variance of the
    alternative's score sum, under a normal law.  The sum holds m - n_sig
    null uniforms and n_sig signal scores U * P_G: P_G = 1 - m**-q in WEAK,
    P_G ~ U[f, 1] with f = m**-r in STRONG."""
    n_sig = signal_count(config, m)
    if config.regime is Regime.WEAK:
        c = 1.0 - m ** (-config.q)
        mean, second = c / 2.0, c * c / 3.0
    else:
        f = m ** (-config.r)
        mean, second = (1.0 + f) / 4.0, (1.0 + f + f * f) / 9.0
    mu = (m - n_sig) / 2.0 + n_sig * mean
    var = (m - n_sig) / 12.0 + n_sig * (second - mean * mean)
    return float(ndtr((critical - mu) / np.sqrt(var)))


def _np_count_power(config, m):
    """Power of the exact binomial Neyman-Pearson test of a WEAK cell.  A
    score's likelihood ratio takes one value below c = 1 - m**-q and another
    above it, so the test counts the scores above c: Binomial(m, m**-q)
    under the null, Binomial(m - n_sig, m**-q) under the alternative.  It
    rejects at counts k with null CDF(k) <= alpha, without randomizing."""
    from scipy.stats import binom

    tail = m ** (-config.q)
    k = int(binom.ppf(config.alpha, m, tail))
    if binom.cdf(k, m, tail) > config.alpha:
        k -= 1
    return float(binom.cdf(k, m - signal_count(config, m), tail))


class TestClosedFormPower:
    # m = 100 is left out: a normal law for a sum of 100 scores is coarse
    # in the 1% tail (z = -2.75 at STRONG (0.75, 0.2), seed 0).
    @pytest.mark.parametrize(
        "regime,p,exponent",
        [(Regime.WEAK, 0.2, 0.3), (Regime.WEAK, 0.1, 0.5), (Regime.WEAK, 0.2, 0.2),
         (Regime.STRONG, 0.25, 0.2), (Regime.STRONG, 0.75, 0.2)],
        ids=lambda v: getattr(v, "value", v),
    )
    def test_sum_power_matches_normal_law(self, regime, p, exponent):
        signal = {"q" if regime is Regime.WEAK else "r": exponent}
        config = RegimeConfig(regime=regime, p=p, m_grid=(1000, 10_000), reps=2000, seed=0,
                              **signal)
        rows = [row for row in run_power(config).rows if row.statistic is Statistic.SUM]
        assert [row.m for row in rows] == [1000, 10_000]
        for row in rows:
            want = _sum_power_normal_law(config, row.m, row.critical_value)
            se = np.sqrt(want * (1.0 - want) / config.reps)
            assert abs(row.power - want) <= 3 * se, (row.m, row.power, want)

    @pytest.mark.parametrize("m,power", [(1000, 0.138), (10_000, 0.236), (100_000, 0.297)])
    def test_neyman_pearson_count_power(self, m, power):
        # README quotes the m = 1e5 figure for (p, q) = (0.2, 0.5).
        assert _np_count_power(_weak(p=0.2, q=0.5), m) == pytest.approx(power, abs=5e-4)

    def test_simulated_power_within_neyman_pearson_bound(self):
        # The count test's size falls below alpha (0.0056 at m = 1000), so a
        # randomized count test of size alpha has more power (0.192 there)
        # and is the exact ceiling; the bound below is the stricter one.
        config = _weak(p=0.2, q=0.5, m_grid=(1000, 10_000), reps=2000)
        for row in run_power(config).rows:
            bound = _np_count_power(config, row.m)
            se = np.sqrt(bound * (1.0 - bound) / config.reps)
            assert row.power <= bound + 3 * se, (row.m, row.statistic, row.power, bound)


def _whole_draws(config, m, role):
    # A cell drawn whole: each row's m scores, then for the STRONG
    # alternative each row's P_G draws from the cell's own P_G stream.
    x = np.random.default_rng((config.seed, m, role)).random((config.reps, m))
    n_sig = signal_count(config, m)
    if role == 1 and config.regime is Regime.STRONG:
        pg = np.random.default_rng((config.seed, m, 1, simulation._PG_STREAM))
        floor = m ** (-config.r)
        x[:, :n_sig] *= floor + (1.0 - floor) * pg.random((config.reps, n_sig))
    elif role == 1:
        x[:, :n_sig] *= 1.0 - m ** (-config.q)
    return x


class TestDrawnCells:
    @pytest.mark.parametrize(
        "config,role", [(_weak(), 0), (_weak(), 1), (_strong(), 1)], ids=["null", "weak", "strong"]
    )
    def test_blocks_match_chunked_draws(self, config, role):
        # Filled in blocks of 7 and of 50 rows, a cell is the cell drawn whole.
        m = 300
        want = _whole_draws(config, m, role)
        for block in (7, 50):
            rows, sums = simulation._cell_rows(config, m, role)
            got = np.empty_like(want)
            for lo in range(0, config.reps, block):
                rows.fill(lo, min(lo + block, config.reps), got[lo : lo + block])
            assert got.tobytes() == want.tobytes()
            assert sums.tobytes() == want.sum(axis=1).tobytes()
        stats = simulation._stats_over_draws(config, m, role)
        assert stats[Statistic.SUM].tobytes() == want.sum(axis=1).tobytes()
        hc = hc_batch(want, Statistic.HC_PLUS, HcDenom.STANDARD_SQRT)
        assert stats[Statistic.HC_PLUS].tobytes() == hc.tobytes()

    @pytest.mark.parametrize("config", [_weak(), _strong()], ids=["weak", "strong"])
    def test_stream_matches_its_materialized_matrix(self, config):
        # Three HC blocks of the m = 3000 alternative, scored in threads; a
        # STRONG block draws its own rows of the P_G stream.
        rows, _ = simulation._cell_rows(config, 3000, 1)
        whole = _filled(rows)
        assert whole.tobytes() == _whole_draws(config, 3000, 1).tobytes()
        assert hc_batch(rows).tobytes() == hc_batch(whole).tobytes()
        stats = simulation._stats_over_draws(config, 3000, 1)
        assert stats[Statistic.SUM].tobytes() == whole.sum(axis=1).tobytes()

    @pytest.mark.parametrize(
        "config,role", [(_weak(), 0), (_weak(), 1), (_strong(), 1)], ids=["0", "1", "strong"]
    )
    def test_peak_memory_bounded_by_blocks(self, config, role):
        # Each thread draws and scores blocks of 10 rows in a (10, 1e5)
        # float64 score buffer and an intp bucket-index buffer, plus a STRONG
        # block's (10, n_sig) P_G draws; no (reps, m) chunk is held.
        workers = min(100, len(os.sched_getaffinity(0)))
        tracemalloc.start()
        try:
            simulation._stats_over_draws(config, 100_000, role)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (16 + 24 * workers) * 2**20


def _histogram(config, bins, statistic):
    # run_power's histogram rows of one statistic at the largest m, with the
    # bin midpoints and the null and alternative counts as arrays.
    rows = [r for r in run_power(config).histogram(bins) if r["statistic"] == statistic.value]
    mids = np.array([(r["bin_lo"] + r["bin_hi"]) / 2 for r in rows])
    null = np.array([r["null_count"] for r in rows], dtype=float)
    alt = np.array([r["alt_count"] for r in rows], dtype=float)
    return rows, mids, null, alt


class TestNullHistogram:
    def test_counts_sum_to_reps(self):
        rows = run_power(_weak(m_grid=(100,), reps=2000)).histogram(40)
        for stat in (Statistic.SUM, Statistic.HC_PLUS):
            cells = [r for r in rows if r["statistic"] == stat.value]
            assert len(cells) == 40
            assert sum(r["null_count"] for r in cells) == 2000
            assert sum(r["alt_count"] for r in cells) == 2000

    def test_sum_histogram_centered(self):
        _, mids, null, _ = _histogram(_weak(m_grid=(100,), reps=4000), 60, Statistic.SUM)
        mean = float((mids * null).sum() / null.sum())
        assert abs(mean - 50.0) < 0.5

    def test_hc_histogram_right_skewed(self):
        _, mids, null, _ = _histogram(
            _weak(p=0.6, q=0.5, m_grid=(500,), reps=2000), 60, Statistic.HC_PLUS
        )
        w = null / null.sum()
        mean = float((mids * w).sum())
        sd = float(np.sqrt(((mids - mean) ** 2 * w).sum()))
        skew = float(((mids - mean) ** 3 * w).sum() / sd**3)
        assert skew > 0.0

    def test_alternative_counts_included(self):
        _, mids, null, alt = _histogram(_weak(p=0.1, q=0.2, m_grid=(100,)), 30, Statistic.SUM)
        assert np.average(mids, weights=alt) < np.average(mids, weights=null)

    def test_csv_rendering(self):
        rows = run_power(_weak(m_grid=(50,))).histogram(10)
        lines = csv_text(rows).splitlines()
        assert lines[0] == "statistic,bin_lo,bin_hi,null_count,alt_count"
        assert len(lines) == 1 + 2 * 10
        assert lines[1].split(",")[1] == repr(rows[0]["bin_lo"])
        assert csv_text([]) == ""
