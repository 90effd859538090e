"""Sparse-mixture power study for the pivot tests.

Under the alternative only a fraction eps = m**(-p) of the m scores carry
watermark signal; the rest are null uniforms.  Two signal regimes: STRONG
draws the green mass P_G uniformly from [m**(-r), 1] and the pivot from
U[0, P_G]; WEAK pins P_G = 1 - m**(-q) so each signal pivot is barely
sub-uniform.  For each m the critical value is the empirical null quantile
and power is the rejection rate over fresh alternative replications,
mirroring the analytic detection boundaries p + q = 1/2 (sum test) and
2p + q = 1 (higher criticism).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .detection import HcDenom, RowStream, Statistic, hc_batch
from .detection import _check_null, _critical_value

__all__ = [
    "Regime",
    "RegimeConfig",
    "PowerRow",
    "PowerCurve",
    "run_power",
    "power_csv",
    "csv_text",
    "POWER_CSV_HEADER",
]

POWER_CSV_HEADER = "regime,p,q_or_r,m,statistic,reps,alpha,critical_value,power,seed"

# Last entropy word of a STRONG cell's P_G stream (seed, m, 1, _PG_STREAM):
# not 0, which numpy would seed as the cell's own (seed, m, 1) stream.
_PG_STREAM = 0x5047

_STATISTICS = (Statistic.SUM, Statistic.HC_PLUS)


class Regime(str, enum.Enum):
    STRONG = "strong"
    WEAK = "weak"


@dataclass(frozen=True)
class RegimeConfig:
    """One power-study cell: regime, sparsity/signal exponents, and the
    Monte-Carlo protocol."""

    regime: Regime
    p: float
    r: float | None = None
    q: float | None = None
    m_grid: tuple[int, ...] = (100, 1000, 10000, 100000)
    reps: int = 2000
    alpha: float = 0.01
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "regime", Regime(self.regime))
        if not all(float(m).is_integer() for m in self.m_grid):
            raise ValueError(f"m_grid entries must be integers, got {self.m_grid}")
        object.__setattr__(self, "m_grid", tuple(int(m) for m in self.m_grid))
        # Python floats, so that the CSVs write numpy scalars as plain numbers.
        for name in ("p", "r", "q", "alpha"):
            value = getattr(self, name)
            object.__setattr__(self, name, None if value is None else float(value))
        if not 0.0 < self.p < 1.0:
            raise ValueError("p must lie in (0, 1)")
        if self.regime is Regime.STRONG and (self.r is None or not self.r > 0.0):
            raise ValueError("STRONG regime requires r > 0")
        if self.regime is Regime.WEAK and (self.q is None or not self.q > 0.0):
            raise ValueError("WEAK regime requires q > 0")
        # None means not given: a regime refuses the exponent it would ignore.
        unused = "q" if self.regime is Regime.STRONG else "r"
        if getattr(self, unused) is not None:
            raise ValueError(f"{unused} does not apply to the {self.regime.value} regime")
        if not self.m_grid:
            raise ValueError("m_grid must not be empty")
        if any(m < 2 for m in self.m_grid):
            raise ValueError("m_grid entries must be >= 2: higher criticism needs two scores")
        if any(a >= b for a, b in zip(self.m_grid, self.m_grid[1:])):
            raise ValueError(f"m_grid must be strictly ascending, got {self.m_grid}")
        _check_null(self.alpha, self.reps, self.seed)

    @property
    def q_or_r(self) -> float:
        return self.r if self.regime is Regime.STRONG else self.q


@dataclass(frozen=True)
class PowerRow:
    m: int
    statistic: Statistic
    critical_value: float
    power: float


@dataclass(frozen=True)
class PowerCurve:
    config: RegimeConfig
    rows: tuple[PowerRow, ...]
    # Null and alternative values of each statistic at the largest m, kept
    # so that :meth:`histogram` bins them instead of drawing them again.
    largest_cell: tuple[dict, dict] = field(compare=False, repr=False)

    def histogram(self, bins: int = 50) -> list[dict]:
        """Binned null and alternative counts of each statistic at the
        largest m, from the draws :func:`run_power` made there.  Bins cover
        the pooled finite values."""
        null_stats, alt_stats = self.largest_cell
        rows = []
        for stat in _STATISTICS:
            rows.extend(_histogram_rows(stat, null_stats[stat], alt_stats[stat], bins))
        return rows


def signal_count(config: RegimeConfig, m: int) -> int:
    """Number of signal-bearing scores: m * m**(-p) rounded to nearest."""
    return int(m * m ** (-config.p) + 0.5)


def _add_signal(config: RegimeConfig, m: int, x: np.ndarray, lo: int) -> None:
    """Turn rows x of null uniforms, from row lo of the cell, into
    alternative scores in place, with the signals in the leading columns:
    STRONG scales them by P_G, uniform on [m**(-r), 1], with one row of n_sig
    P_G draws per cell row from the cell's P_G stream; WEAK by 1 - m**(-q).
    As m >= 2 and 0 < p < 1, m * m**(-p) > 1, so there is at least one."""
    n_sig = signal_count(config, m)
    if config.regime is Regime.STRONG:
        u = np.empty((len(x), n_sig))
        RowStream((config.seed, m, 1, _PG_STREAM), (config.reps, n_sig)).fill(lo, lo + len(x), u)
        floor = m ** (-config.r)
        x[:, :n_sig] *= floor + (1.0 - floor) * u
    else:
        x[:, :n_sig] *= 1.0 - m ** (-config.q)


def _cell_rows(config: RegimeConfig, m: int, role: int) -> tuple[RowStream, np.ndarray]:
    """The (reps, m) scores of one (m, role) cell, drawn lazily, and the
    row sums that filling them writes; role 0 = null, role 1 = alternative,
    which needs no per-row shuffle because the tests are
    permutation-invariant.  Streams are derived from (seed, m, role) so the
    two roles never share draws."""
    sums = np.empty(config.reps)

    def transform(x: np.ndarray, lo: int) -> None:
        if role == 1:
            _add_signal(config, m, x, lo)
        np.add.reduce(x, axis=1, out=sums[lo : lo + len(x)])

    return RowStream((config.seed, m, role), (config.reps, m), transform=transform), sums


def _stats_over_draws(config: RegimeConfig, m: int, role: int) -> dict[Statistic, np.ndarray]:
    """All reps of each statistic for one (m, role) cell; :func:`hc_batch`
    draws, sums and scores the rows block by block."""
    rows, sums = _cell_rows(config, m, role)
    hc = hc_batch(rows, Statistic.HC_PLUS, HcDenom.STANDARD_SQRT)
    return {Statistic.SUM: sums, Statistic.HC_PLUS: hc}


def run_power(config: RegimeConfig) -> PowerCurve:
    """Calibrate each statistic on null draws and measure rejection rates on
    alternative draws, for every m in the grid: the sum rejects strictly below
    its null's alpha quantile, HC strictly above its 1 - alpha quantile."""
    sums, hc = _STATISTICS
    rows: list[PowerRow] = []
    for m in config.m_grid:
        null_stats = _stats_over_draws(config, m, 0)
        alt_stats = _stats_over_draws(config, m, 1)
        crit = float(np.quantile(null_stats[sums], config.alpha))
        rows.append(PowerRow(m, sums, crit, float(np.mean(alt_stats[sums] < crit))))
        crit = _critical_value(hc, null_stats[hc], config.alpha)
        rows.append(PowerRow(m, hc, crit, float(np.mean(alt_stats[hc] > crit))))
    return PowerCurve(config=config, rows=tuple(rows), largest_cell=(null_stats, alt_stats))


def power_csv(curves) -> str:
    """The power CSV of any number of curves: one header, then their rows."""
    names, rows = POWER_CSV_HEADER.split(","), []
    for curve in curves:
        c = curve.config
        rows += [dict(zip(names, (c.regime.value, c.p, c.q_or_r, row.m, row.statistic.value,
                                  c.reps, c.alpha, row.critical_value, row.power, c.seed)))
                 for row in curve.rows]
    return csv_text(rows)


def _histogram_rows(
    statistic: Statistic, null_vals: np.ndarray, alt_vals: np.ndarray, bins: int
) -> list[dict]:
    pool = np.concatenate([null_vals, alt_vals])
    edges = np.histogram_bin_edges(pool[np.isfinite(pool)], bins=bins)
    null_counts, _ = np.histogram(null_vals, bins=edges)
    alt_counts, _ = np.histogram(alt_vals, bins=edges)
    return [
        {
            "statistic": statistic.value,
            "bin_lo": float(edges[i]),
            "bin_hi": float(edges[i + 1]),
            "null_count": int(null_counts[i]),
            "alt_count": int(alt_counts[i]),
        }
        for i in range(len(edges) - 1)
    ]


def csv_text(rows: list[dict]) -> str:
    """CSV text of row dicts that share their keys: a header line of the
    keys, then one line per row with floats written by repr and every other
    value by str.  No rows give no text."""
    if not rows:
        return ""
    lines = [",".join(rows[0])]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row.values()))
    return "\n".join(lines) + "\n"
