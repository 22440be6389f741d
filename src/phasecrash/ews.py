"""Rolling early-warning-signal estimators on log-price series.

Moment statistics (volatility, skewness, lag-1 autocorrelation,
cross-covariance) run on log-returns, and scaling statistics (the
anomalous-dimension estimator, the generalized Hurst exponents, the
conformality index) on the log-price path itself; a window of size ``w``
covers ``w`` consecutive values. The window starting at value ``start``
is stamped ``times[start + w - 1 + lag]``, with ``lag = len(series) -
len(values)``: the time of the price that closes it. Both families
advance by ``stride`` observations, so stride ``s`` output is exactly the
stride-1 output subsampled every ``s`` windows.

Every estimator is a row-wise reduction over one kernel: the matrix whose
rows are the selected windows, read from a sliding-window view of the
series in row blocks of bounded size. Each row is reduced on its own, so
a window's value does not depend on the stride or on the blocking.
Moments are two-pass (window mean first, then centred sums), as in the
textbook formulas, so they avoid the cancellation of one-pass power
sums. The cross-covariance, the only code that aligns a panel, is the
mean pairwise covariance ``(Var(sum_i r_i) - sum_i Var(r_i)) / (k (k - 1))``
over the dates that all its series share.

The scaling exponent of a window is estimated from structure functions:
``S_q(tau) = mean_t |x(t+tau) - x(t)|**q`` over the lags in ``tau_grid``,
with ``log S_q`` regressed on ``log tau``; the reported exponent is
``slope / q``. The lagged differences ``x(t+tau) - x(t)`` are taken once
per lag for the whole series, and ``S_q`` of a window is the mean of
``|d|**q`` over its ``w - tau`` differences. Demeaning a window leaves
its differences unchanged, and windows are not detrended: a linear drift
adds ``drift * tau`` to each difference. The regression on the fixed
``log tau_grid`` is one fixed projection vector. Second order
(``q = 2``) is the anomalous-dimension estimate, where self-similar
scaling with exponent ``D`` gives slope ``2 D``; additive constants are
absorbed into the regression intercept, and the generalized Hurst
exponent of order 2 equals it bitwise. The conformality index is the
standard deviation across ``tau_grid`` of the per-lag exponents implied
by that same fit: zero for an exact power law, large when scaling is
broken inside the window.

A panel is estimated in one pass per signal: :func:`estimate_panel` lays
the series' log-prices end to end and reads them with one row-wise
kernel, from window starts that never cross into the next series, so
each window takes the value the series alone gives it. Each per-series
estimator is that kernel on a panel of one.

Windows without enough signal (zero variance, overflowing moments) yield
NaN, which downstream trend statistics skip.
"""

from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InsufficientDataError, check_int

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
    "estimate_panel",
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
    dates: tuple = None  # YYYY-MM-DD dates when loaded from CSV

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.log_prices = np.asarray(self.log_prices, dtype=float)
        if self.times.shape != self.log_prices.shape or self.times.ndim != 1:
            raise ValueError("times and log_prices must be 1-d and equal length")
        if self.times.size >= 2 and not np.all(np.diff(self.times) > 0):
            raise ValueError(f"timestamps of {self.id!r} must be strictly increasing")
        if not np.all(np.isfinite(self.log_prices)):
            raise ValueError(f"log-prices of {self.id!r} must be finite")
        if self.dates is not None and len(self.dates) != self.times.size:
            raise ValueError(
                f"{self.id!r} has {len(self.dates)} dates for {self.times.size} prices"
            )

    def __len__(self):
        return self.times.size

    def returns(self):
        return np.diff(self.log_prices)


@dataclass(frozen=True)
class WindowConfig:
    """Rolling-window layout shared by the estimators.

    ``window`` counts returns for moment statistics and prices for
    scaling statistics; ``tau_grid`` holds the structure-function lags
    and ``orders`` the generalized-Hurst orders. Scaling windows are read
    as they are: a drift adds ``drift * tau`` to every lagged difference.
    """

    window: int = 252
    stride: int = 5
    tau_grid: tuple = (2, 4, 8, 16, 32)
    orders: tuple = (1, 2)

    def __post_init__(self):
        for key in ("window", "stride"):
            object.__setattr__(self, key, check_int(key, getattr(self, key), 1))
        for key, lo in (("tau_grid", 2), ("orders", 1)):
            ints = (check_int(f"{key}[{i}]", v, lo) for i, v in enumerate(getattr(self, key)))
            object.__setattr__(self, key, tuple(ints))
        taus = self.tau_grid
        if not taus:
            raise ValueError("tau_grid must be nonempty")
        if any(b <= a for a, b in zip(taus, taus[1:])):
            raise ValueError("tau_grid must be strictly increasing")

    def check_scaling(self):
        """Lag rules, binding only where tau_grid is used: a log-log fit
        needs two lags, and the window must exceed four times the largest.

        Moment statistics never touch tau_grid, so a small window or a
        single lag stays legal for them.
        """
        if len(self.tau_grid) < 2:
            raise ValueError(
                f"scaling estimators need at least 2 lags in tau_grid, "
                f"got {self.tau_grid}"
            )
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


#: Most float64 values that one row block of a window matrix may hold.
#: At 256 kB a block and its temporaries stay near the core caches, and a
#: stride-1 call on a long series never builds the whole
#: n_windows x window matrix.
_BLOCK_ELEMENTS = 1 << 15


def _rowwise(v, starts, length, reduce):
    """Per-window values of ``reduce`` over the windows of ``v``.

    Row ``j`` of the window matrix is ``v[..., starts[j] : starts[j] +
    length]``; ``reduce`` maps a block of rows, shaped ``(..., rows,
    length)``, to one value per row. Each row is reduced on its own, so
    the result does not depend on the blocking.
    """
    view = sliding_window_view(v, length, axis=-1)
    step = max(1, _BLOCK_ELEMENTS // (length * (v.size // v.shape[-1])))
    return np.concatenate(
        [reduce(view[..., starts[lo : lo + step], :]) for lo in range(0, starts.size, step)]
    )


def _centered(w):
    return w - w.mean(axis=-1, keepdims=True)


def _std_rows(w):
    return w.std(axis=-1, ddof=1)


def _skew_rows(w):
    n = w.shape[-1]
    c = _centered(w)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        m2 = np.mean(c * c, axis=-1)
        g1 = np.mean(c * c * c, axis=-1) / m2**1.5
    g1[m2 == 0.0] = np.nan
    return g1 * np.sqrt(n * (n - 1.0)) / (n - 2.0)


def _lag1_rows(w):
    da, db = _centered(w[..., :-1]), _centered(w[..., 1:])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        va, vb = (da * da).sum(axis=-1), (db * db).sum(axis=-1)
        rho = (da * db).sum(axis=-1) / np.sqrt(va * vb)
    rho[(va == 0.0) | (vb == 0.0)] = np.nan
    return rho


def _row_mean(m):
    return m.mean(axis=-1)


def _log_structure(x, starts, cfg, order):
    """Per-window ``log S_order(tau)`` of log-prices ``x``, one column per
    lag in ``cfg.tau_grid``; rows with a zero or non-finite structure
    function are all NaN."""
    columns = []
    # overflowing or vanishing moments become missing windows
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for tau in cfg.tau_grid:
            d = x[tau:] - x[:-tau]
            np.abs(d, out=d)
            d **= order
            columns.append(_rowwise(d, starts, cfg.window - tau, _row_mean))
        logs = np.log(np.column_stack(columns))
    logs[~np.isfinite(logs).all(axis=1)] = np.nan
    return logs


def _loglog_fit(logs, taus):
    """Per-row OLS (slope, intercept) of ``logs`` on ``log taus``."""
    log_tau = np.log(np.asarray(taus, dtype=float))
    lc = log_tau - log_tau.mean()
    slope = (logs * (lc / (lc * lc).sum())).sum(axis=1)
    return slope, logs.mean(axis=1) - slope * log_tau.mean()


def _conformality(logs, taus):
    """Sample standard deviation across ``taus`` of the per-lag exponents
    ``(log S_2(tau) - intercept) / (2 log tau)`` of the second-order fit."""
    _, intercept = _loglog_fit(logs, taus)
    log_tau = np.log(np.asarray(taus, dtype=float))
    return ((logs - intercept[:, None]) / (2.0 * log_tau)).std(axis=1, ddof=1)


#: Moment signals: the least window each can use and its row reduction.
_MOMENTS = {VOLATILITY: (2, _std_rows), SKEWNESS: (3, _skew_rows), LAG1_AUTOCORR: (4, _lag1_rows)}


def _ghe_order(name):
    """``n`` for the signal name ``ghe<n>`` with ``n >= 1``, else None."""
    digits = name[3:]
    if name.startswith("ghe") and digits.isdecimal() and int(digits) >= 1:
        return int(digits)
    return None


def _kernel(name, cfg):
    """``(lag, rows)`` of the univariate signal ``name`` under ``cfg``.

    A window spans ``cfg.window + lag`` log-prices: ``lag`` is 1 for a
    moment signal, whose window holds ``cfg.window`` log-returns, and 0
    for a scaling one. ``rows(x, starts)`` gives one value per window from
    log-prices ``x`` and the index in ``x`` of each window's first price.
    An unknown name, or a ``cfg`` the signal cannot use, raises ValueError.
    """
    if name in _MOMENTS:
        min_window, reduce = _MOMENTS[name]
        if cfg.window < min_window:
            raise ValueError(f"window must be >= {min_window}, got {cfg.window}")
        return 1, lambda x, starts: _rowwise(np.diff(x), starts, cfg.window, reduce)
    if name == CONFORMALITY:
        if len(cfg.tau_grid) < 3:
            raise ValueError("conformality index needs at least 3 lags in tau_grid")
        cfg.check_scaling()
        return 0, lambda x, starts: _conformality(_log_structure(x, starts, cfg, 2), cfg.tau_grid)
    order = 2 if name == ANOMALOUS_DIM else _ghe_order(name)
    if order is None:
        raise ValueError(f"unknown signal {name!r}")
    cfg.check_scaling()

    def exponent(x, starts):
        slope, _ = _loglog_fit(_log_structure(x, starts, cfg, order), cfg.tau_grid)
        return slope / order

    return 0, exponent


def _stamps(series, cfg, lag):
    """The time of the price that closes each window of ``series``: window
    ``j`` spans prices ``j * cfg.stride`` to ``j * cfg.stride + cfg.window
    + lag - 1``. A series too short for one raises InsufficientDataError."""
    span = cfg.window + lag
    if len(series) < span:
        raise InsufficientDataError(
            f"series {series.id!r} has {len(series)} observations, "
            f"needs at least window{' + 1' if lag else ''} = {span}"
        )
    return series.times[span - 1 :: cfg.stride]


def _estimate(name, series, cfg):
    """The signal ``name`` over one series: :func:`estimate_panel`'s
    kernel on a panel of one."""
    lag, rows = _kernel(name, cfg)
    times = _stamps(series, cfg, lag)
    starts = np.arange(len(series) - cfg.window - lag + 1)[:: cfg.stride]
    return EwsSeries(times, rows(series.log_prices, starts), name, series.id)


def estimate_panel(name, panel, cfg):
    """Per-window values of the univariate signal ``name`` over every
    series of ``panel``, series after series, with each series' window
    count and the prices a window spans.

    Window ``j`` of a series opens at its price ``j * cfg.stride``, as in
    the series' own estimate, and takes the same value bit for bit. The
    series' log-prices are laid end to end and read in one row-wise pass,
    from window starts that never cross into the next series; a series
    too short for one window has none.
    """
    lag, rows = _kernel(name, cfg)
    span = cfg.window + lag
    sizes = np.array([len(s) for s in panel], dtype=np.int64)
    stride = min(cfg.stride, int(sizes.max(initial=1)))  # a longer one opens no second window
    counts = np.maximum(sizes - span, -1) // stride + 1
    if not counts.sum():
        return np.empty(0), counts, span
    ends = np.cumsum(counts)
    step = np.arange(ends[-1]) - np.repeat(ends - counts, counts)
    starts = np.repeat(np.cumsum(sizes) - sizes, counts) + stride * step
    return rows(np.concatenate([s.log_prices for s in panel]), starts), counts, span


def rolling_volatility(series, cfg):
    """Sample standard deviation (ddof=1) of log-returns per window."""
    return _estimate(VOLATILITY, series, cfg)


def rolling_skewness(series, cfg):
    """Adjusted Fisher-Pearson skewness of log-returns per window."""
    return _estimate(SKEWNESS, series, cfg)


def rolling_lag1_autocorr(series, cfg):
    """Pearson correlation of consecutive log-return pairs per window."""
    return _estimate(LAG1_AUTOCORR, series, cfg)


def anomalous_dimension(series, cfg):
    """Second-order structure-function scaling exponent per window."""
    return _estimate(ANOMALOUS_DIM, series, cfg)


def generalized_hurst(series, cfg):
    """Per-order scaling exponents; order 2 matches anomalous_dimension."""
    if not cfg.orders:
        raise ValueError("cfg.orders must be nonempty")
    return [_estimate(ghe_signal(order), series, cfg) for order in cfg.orders]


def conformality_index(series, cfg):
    """Dispersion of per-lag exponents around the second-order fit.

    For each window the second-order fit supplies an intercept; the
    per-lag exponent ``(log S_2(tau) - intercept) / (2 log tau)`` would be
    constant under exact power-law scaling, and the reported index is the
    sample standard deviation of those values across ``tau_grid``.
    """
    return _estimate(CONFORMALITY, series, cfg)


def cross_covariance(series_list, cfg):
    """Mean pairwise covariance of log-returns across a panel, over the keys
    that all its series share: dates, or times for a series without dates,
    so a dated and an undated series share none. Returns run between shared
    keys, and windows are stamped with the first series' times."""
    if len(series_list) < 2:
        raise ValueError("cross_covariance needs at least 2 series")
    ref, *rest = series_list
    if any(s.dates != ref.dates or not np.array_equal(s.times, ref.times) for s in rest):
        keys = [s.times.tolist() if s.dates is None else s.dates for s in series_list]
        shared = set(keys[0]).intersection(*keys[1:])
        if len(shared) < cfg.window + 1:
            raise InsufficientDataError(
                f"the panel shares {len(shared)} dates, needs at least window + 1 = "
                f"{cfg.window + 1}"
            )
        keep = (np.fromiter(map(shared.__contains__, key), bool, len(key)) for key in keys)
        series_list = [PriceSeries(s.times[m], s.log_prices[m], s.id)
                       for s, m in zip(series_list, keep)]
    if cfg.window < 2:
        raise ValueError(f"window must be >= 2, got {cfg.window}")
    times = _stamps(series_list[0], cfg, 1)
    starts = np.arange(len(series_list[0]) - cfg.window)[:: cfg.stride]
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
    ``n >= 1``; these are the study's signals. Any other name raises
    ValueError, even ``cross_cov``, which :func:`cross_covariance` computes."""
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
    order = _ghe_order(name)
    if order is not None:

        def ghe_one(series, cfg):
            return generalized_hurst(series, replace(cfg, orders=(order,)))[0]

        return ghe_one
    raise ValueError(f"unknown signal {name!r}")
