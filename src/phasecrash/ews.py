"""Rolling early-warning-signal estimators on log-price series.

Moment statistics (volatility, skewness, lag-1 autocorrelation,
cross-covariance) run on log-returns: a window of size ``w`` covers ``w``
consecutive returns and is stamped with the time of the price that closes
the window. Scaling statistics (the anomalous-dimension estimator, the
generalized Hurst exponents, the conformality index) run on the log-price
path itself: a window covers ``w`` consecutive prices and is stamped with
the last one. Both families advance by ``stride`` observations, so stride
``s`` output is exactly the stride-1 output subsampled every ``s`` windows.

Every estimator is a row-wise reduction over one kernel: the matrix whose
rows are the selected windows, read from a sliding-window view of the
series in row blocks of bounded size. Each row is reduced on its own, so
a window's value does not depend on the stride or on the blocking.
Moments are two-pass (window mean first, then centred sums), as in the
textbook formulas, so they avoid the cancellation of one-pass power
sums. The cross-covariance is the mean
pairwise covariance ``(Var(sum_i r_i) - sum_i Var(r_i)) / (k (k - 1))``.

The scaling exponent of a window is estimated from structure functions:
``S_q(tau) = mean_t |x(t+tau) - x(t)|**q`` over the lags in ``tau_grid``,
with ``log S_q`` regressed on ``log tau``; the reported exponent is
``slope / q``. The lagged differences ``x(t+tau) - x(t)`` are taken once
per lag for the whole series, and ``S_q`` of a window is the mean of
``|d|**q`` over its ``w - tau`` differences. Demeaning a window leaves
its differences unchanged; linear detrending subtracts the window's OLS
slope times ``tau`` from each of them. The regression on the fixed
``log tau_grid`` is one fixed projection vector. Second order
(``q = 2``) is the anomalous-dimension estimate, where self-similar
scaling with exponent ``D`` gives slope ``2 D``; additive constants are
absorbed into the regression intercept, and the generalized Hurst
exponent of order 2 equals it bitwise. The conformality index is the
standard deviation across ``tau_grid`` of the per-lag exponents implied
by that same fit: zero for an exact power law, large when scaling is
broken inside the window.

Windows without enough signal (zero variance, overflowing moments) yield
NaN, which downstream trend statistics skip.
"""

from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import AlignmentError

__all__ = [
    "PriceSeries",
    "WindowConfig",
    "EwsSeries",
    "signal_estimator",
    "rolling_volatility",
    "rolling_skewness",
    "rolling_lag1_autocorr",
    "anomalous_dimension",
    "generalized_hurst",
    "conformality_index",
    "cross_covariance",
]

VOLATILITY = "volatility"
SKEWNESS = "skewness"
LAG1_AUTOCORR = "lag1_autocorr"
ANOMALOUS_DIM = "anomalous_dim"
CONFORMALITY = "conformality"
CROSS_COV = "cross_cov"


def ghe_signal(order):
    return f"ghe{int(order)}"


@dataclass
class PriceSeries:
    """Timestamped log-price path for one asset."""

    times: np.ndarray
    log_prices: np.ndarray
    id: str = ""
    dates: tuple = None  # original ISO dates when loaded from CSV

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.log_prices = np.asarray(self.log_prices, dtype=float)
        if self.times.shape != self.log_prices.shape or self.times.ndim != 1:
            raise ValueError("times and log_prices must be 1-d and equal length")
        if self.times.size >= 2 and not np.all(np.diff(self.times) > 0):
            raise ValueError(f"timestamps of {self.id!r} must be strictly increasing")
        if not np.all(np.isfinite(self.log_prices)):
            raise ValueError(f"log-prices of {self.id!r} must be finite")

    def __len__(self):
        return self.times.size

    def returns(self):
        return np.diff(self.log_prices)

    def slice(self, start, stop):
        """Sub-series over observation indices [start, stop)."""
        dates = None if self.dates is None else tuple(self.dates[start:stop])
        return PriceSeries(
            self.times[start:stop], self.log_prices[start:stop], self.id, dates
        )


@dataclass(frozen=True)
class WindowConfig:
    """Rolling-window layout shared by the estimators.

    ``window`` counts returns for moment statistics and prices for
    scaling statistics; ``tau_grid`` holds the structure-function lags
    and ``orders`` the generalized-Hurst orders. ``detrend`` switches the
    scaling windows from demeaning to linear detrending (drifts bias
    structure functions at large lags).
    """

    window: int = 252
    stride: int = 5
    tau_grid: tuple = (2, 4, 8, 16, 32)
    orders: tuple = (1, 2)
    detrend: bool = False

    def __post_init__(self):
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        taus = tuple(int(t) for t in self.tau_grid)
        if len(taus) == 0:
            raise ValueError("tau_grid must be nonempty")
        if any(t < 2 for t in taus) or any(
            b <= a for a, b in zip(taus, taus[1:])
        ):
            raise ValueError("tau_grid must be strictly increasing with entries >= 2")
        if any(int(q) < 1 for q in self.orders):
            raise ValueError("orders must be positive integers")
        object.__setattr__(self, "tau_grid", taus)
        object.__setattr__(self, "orders", tuple(int(q) for q in self.orders))

    def check_scaling(self):
        """Lag-vs-window constraint, binding only where tau_grid is used.

        Moment statistics never touch tau_grid, so a small window paired
        with the default lags stays legal for them.
        """
        if self.window <= 4 * max(self.tau_grid):
            raise ValueError(
                f"window {self.window} must exceed 4 * max(tau_grid) = "
                f"{4 * max(self.tau_grid)} for scaling estimators"
            )


@dataclass
class EwsSeries:
    """Time-indexed rolling estimate of one early-warning signal."""

    times: np.ndarray
    values: np.ndarray
    signal: str
    id: str = ""

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.times.shape != self.values.shape:
            raise ValueError("times and values must have equal length")

    def __len__(self):
        return self.times.size

    @property
    def missing(self):
        return ~np.isfinite(self.values)


def _return_windows(series, cfg, min_window):
    if cfg.window < min_window:
        raise ValueError(f"window must be >= {min_window}, got {cfg.window}")
    if len(series) < cfg.window + 1:
        raise ValueError(
            f"series {series.id!r} has {len(series)} observations, "
            f"needs at least window + 1 = {cfg.window + 1}"
        )
    r = series.returns()
    starts = np.arange(0, r.size - cfg.window + 1, cfg.stride)
    times = series.times[starts + cfg.window]
    return r, starts, times


def _price_windows(series, cfg):
    cfg.check_scaling()
    if len(series) < cfg.window:
        raise ValueError(
            f"series {series.id!r} has {len(series)} observations, "
            f"needs at least window = {cfg.window}"
        )
    x = series.log_prices
    starts = np.arange(0, x.size - cfg.window + 1, cfg.stride)
    times = series.times[starts + cfg.window - 1]
    return x, starts, times


#: Most float64 values that one row block of a window matrix may hold.
#: At 256 kB a block and its temporaries stay near the core caches, and a
#: stride-1 call on a long series never builds the whole
#: n_windows x window matrix.
_BLOCK_ELEMENTS = 1 << 15


def _rowwise(v, starts, length, reduce, *row_args):
    """Per-window values of ``reduce`` over the windows of ``v``.

    Row ``j`` of the window matrix is ``v[..., starts[j] : starts[j] +
    length]``; ``reduce`` maps a block of rows, shaped ``(..., rows,
    length)``, to one value per row. Arrays in ``row_args`` hold one entry
    per window and reach ``reduce`` sliced to the same block. Each row is
    reduced on its own, so the result does not depend on the blocking.
    """
    view = sliding_window_view(v, length, axis=-1)
    step = max(1, _BLOCK_ELEMENTS // (length * (v.size // v.shape[-1])))
    blocks = [slice(lo, lo + step) for lo in range(0, starts.size, step)]
    return np.concatenate(
        [reduce(view[..., starts[b], :], *(a[b] for a in row_args)) for b in blocks]
    )


def _centered(w):
    return w - w.mean(axis=-1, keepdims=True)


def rolling_volatility(series, cfg):
    """Sample standard deviation (ddof=1) of log-returns per window."""
    r, starts, times = _return_windows(series, cfg, min_window=2)
    vals = _rowwise(r, starts, cfg.window, lambda w: w.std(axis=-1, ddof=1))
    return EwsSeries(times, vals, VOLATILITY, series.id)


def _skew_rows(w):
    n = w.shape[-1]
    c = _centered(w)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        m2 = np.mean(c * c, axis=-1)
        g1 = np.mean(c * c * c, axis=-1) / m2**1.5
    g1[m2 == 0.0] = np.nan
    return g1 * np.sqrt(n * (n - 1.0)) / (n - 2.0)


def rolling_skewness(series, cfg):
    """Adjusted Fisher-Pearson skewness of log-returns per window."""
    r, starts, times = _return_windows(series, cfg, min_window=3)
    vals = _rowwise(r, starts, cfg.window, _skew_rows)
    return EwsSeries(times, vals, SKEWNESS, series.id)


def _lag1_rows(w):
    da, db = _centered(w[..., :-1]), _centered(w[..., 1:])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        va, vb = (da * da).sum(axis=-1), (db * db).sum(axis=-1)
        rho = (da * db).sum(axis=-1) / np.sqrt(va * vb)
    rho[(va == 0.0) | (vb == 0.0)] = np.nan
    return rho


def rolling_lag1_autocorr(series, cfg):
    """Pearson correlation of consecutive log-return pairs per window."""
    r, starts, times = _return_windows(series, cfg, min_window=4)
    vals = _rowwise(r, starts, cfg.window, _lag1_rows)
    return EwsSeries(times, vals, LAG1_AUTOCORR, series.id)


def _row_mean(m):
    return m.mean(axis=-1)


def _log_structure(series, cfg, order):
    """Window end times and per-window ``log S_order(tau)``, one column
    per lag in ``cfg.tau_grid``; rows with a zero or non-finite structure
    function are all NaN."""
    x, starts, times = _price_windows(series, cfg)
    w = cfg.window
    if cfg.detrend:
        # OLS slope on centred time; shifting each row by its first value
        # keeps the slope of a constant window exactly zero
        t = np.arange(w) - (w - 1) / 2.0
        slopes = _rowwise(
            x, starts, w, lambda m: ((m - m[:, :1]) * t).sum(axis=-1)
        ) / (t * t).sum()

        def detrended_moment(m, trend):
            return np.mean(np.abs(m - trend[:, None]) ** order, axis=-1)

    cols = []
    # overflowing or vanishing moments become missing windows
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for tau in cfg.tau_grid:
            d = x[tau:] - x[:-tau]
            if cfg.detrend:
                s = _rowwise(d, starts, w - tau, detrended_moment, slopes * tau)
            else:
                s = _rowwise(np.abs(d) ** order, starts, w - tau, _row_mean)
            cols.append(s)
        logs = np.log(np.column_stack(cols))
    logs[~np.isfinite(logs).all(axis=1)] = np.nan
    return times, logs


def _loglog_fit(logs, taus):
    """Per-row OLS (slope, intercept) of ``logs`` on ``log taus``."""
    log_tau = np.log(np.asarray(taus, dtype=float))
    lc = log_tau - log_tau.mean()
    slope = (logs * (lc / (lc * lc).sum())).sum(axis=1)
    return slope, logs.mean(axis=1) - slope * log_tau.mean()


def _rolling_exponent(series, cfg, order):
    times, logs = _log_structure(series, cfg, order)
    slope, _ = _loglog_fit(logs, cfg.tau_grid)
    return times, slope / order


def anomalous_dimension(series, cfg):
    """Second-order structure-function scaling exponent per window."""
    times, vals = _rolling_exponent(series, cfg, order=2)
    return EwsSeries(times, vals, ANOMALOUS_DIM, series.id)


def generalized_hurst(series, cfg):
    """Per-order scaling exponents; order 2 matches anomalous_dimension."""
    if not cfg.orders:
        raise ValueError("cfg.orders must be nonempty")
    out = []
    for order in cfg.orders:
        times, vals = _rolling_exponent(series, cfg, order)
        out.append(EwsSeries(times, vals, ghe_signal(order), series.id))
    return out


def conformality_index(series, cfg):
    """Dispersion of per-lag exponents around the second-order fit.

    For each window the second-order fit supplies an intercept; the
    per-lag exponent ``(log S_2(tau) - intercept) / (2 log tau)`` would be
    constant under exact power-law scaling, and the reported index is the
    sample standard deviation of those values across ``tau_grid``.
    """
    if len(cfg.tau_grid) < 3:
        raise ValueError("conformality index needs at least 3 lags in tau_grid")
    times, logs = _log_structure(series, cfg, order=2)
    _, intercept = _loglog_fit(logs, cfg.tau_grid)
    log_tau = np.log(np.asarray(cfg.tau_grid, dtype=float))
    per_tau = (logs - intercept[:, None]) / (2.0 * log_tau)
    vals = per_tau.std(axis=1, ddof=1)
    return EwsSeries(times, vals, CONFORMALITY, series.id)


def check_aligned(series_list):
    """Raise :class:`AlignmentError` naming every series whose timestamps
    differ from those of the first."""
    ref = series_list[0]
    bad = [s.id for s in series_list[1:] if not np.array_equal(s.times, ref.times)]
    if bad:
        raise AlignmentError(f"series not aligned with {ref.id!r}: {bad}", ids=bad)


def cross_covariance(series_list, cfg):
    """Mean pairwise covariance of log-returns across an aligned panel."""
    if len(series_list) < 2:
        raise ValueError("cross_covariance needs at least 2 series")
    check_aligned(series_list)
    ref = series_list[0]
    _, starts, times = _return_windows(ref, cfg, min_window=2)
    rets = np.stack([s.returns() for s in series_list])
    k = rets.shape[0]

    # Var(sum_i r_i) = sum_i Var(r_i) + 2 * sum_{i<j} Cov(r_i, r_j)
    def mean_pair_cov(w):
        var = w.var(axis=-1, ddof=1)
        return (var[-1] - var[:-1].sum(axis=0)) / (k * (k - 1))

    panel = np.vstack([rets, rets.sum(axis=0)])
    vals = _rowwise(panel, starts, cfg.window, mean_pair_cov)
    label = "|".join(s.id for s in series_list) if k <= 4 else f"panel[{k}]"
    return EwsSeries(times, vals, CROSS_COV, label)


def signal_estimator(name):
    """The estimator ``f(series, cfg) -> EwsSeries`` of the univariate
    signal ``name``; ``ghe<n>`` is the generalized Hurst exponent of order
    ``n >= 1``. Any other name, ``cross_cov`` included, raises ValueError."""
    # built per call from the module globals, so a wrapper bound to one of
    # these names (the benchmark's tracer) sees every call
    table = {
        VOLATILITY: rolling_volatility,
        SKEWNESS: rolling_skewness,
        LAG1_AUTOCORR: rolling_lag1_autocorr,
        ANOMALOUS_DIM: anomalous_dimension,
        CONFORMALITY: conformality_index,
    }
    if name in table:
        return table[name]
    digits = name[3:]
    if name.startswith("ghe") and digits.isdecimal() and int(digits) >= 1:
        order = int(digits)

        def ghe_one(series, cfg):
            return generalized_hurst(series, replace(cfg, orders=(order,)))[0]

        return ghe_one
    raise ValueError(f"unknown signal {name!r}")
