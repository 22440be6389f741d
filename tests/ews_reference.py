"""Slow per-window reference oracles for the rolling EWS estimators.

Each oracle walks the windows one at a time with the textbook formula:
demean the window, build the structure functions lag by lag, and fit
``log S_q`` on ``log tau`` with ``np.polyfit``. The fast estimators in
``phasecrash.ews`` must agree with these values to a fixed tolerance and
be missing in exactly the same windows. Every oracle returns the value
array only; window times are checked separately.
"""

import numpy as np


def _return_starts(series, cfg):
    return np.arange(0, len(series) - cfg.window, cfg.stride)


def _price_starts(series, cfg):
    return np.arange(0, len(series) - cfg.window + 1, cfg.stride)


def volatility(series, cfg):
    r = series.returns()
    starts = _return_starts(series, cfg)
    return np.array([r[s : s + cfg.window].std(ddof=1) for s in starts])


def _adjusted_skew(x):
    n = x.size
    c = x - x.mean()
    m2 = np.mean(c * c)
    if m2 == 0.0:
        return np.nan
    g1 = np.mean(c * c * c) / m2**1.5
    return g1 * np.sqrt(n * (n - 1.0)) / (n - 2.0)


def skewness(series, cfg):
    r = series.returns()
    return np.array(
        [_adjusted_skew(r[s : s + cfg.window]) for s in _return_starts(series, cfg)]
    )


def _lag1_pearson(x):
    a, b = x[:-1], x[1:]
    da, db = a - a.mean(), b - b.mean()
    va, vb = np.dot(da, da), np.dot(db, db)
    if va == 0.0 or vb == 0.0:
        return np.nan
    return np.dot(da, db) / np.sqrt(va * vb)


def lag1_autocorr(series, cfg):
    r = series.returns()
    return np.array(
        [_lag1_pearson(r[s : s + cfg.window]) for s in _return_starts(series, cfg)]
    )


def _demeaned(x):
    return x - x.mean()


def _structure_fit(x, taus, order):
    """(slope, intercept) of log S_order(tau) on log tau, or None."""
    svals = np.empty(len(taus))
    with np.errstate(over="ignore"):  # overflowing moments become missing
        for i, tau in enumerate(taus):
            d = x[tau:] - x[:-tau]
            svals[i] = np.mean(np.abs(d) ** order)
    if not np.all(np.isfinite(svals)) or np.any(svals <= 0.0):
        return None, svals
    fit = np.polyfit(np.log(taus), np.log(svals), 1)
    return fit, svals


def scaling_exponent(series, cfg, order):
    """Per-window ``slope / order`` of the structure-function fit."""
    x = series.log_prices
    starts = _price_starts(series, cfg)
    vals = np.full(starts.size, np.nan)
    for j, s in enumerate(starts):
        w = _demeaned(x[s : s + cfg.window])
        fit, _ = _structure_fit(w, cfg.tau_grid, order)
        if fit is not None:
            vals[j] = fit[0] / order
    return vals


def conformality(series, cfg):
    x = series.log_prices
    starts = _price_starts(series, cfg)
    log_tau = np.log(np.asarray(cfg.tau_grid, dtype=float))
    vals = np.full(starts.size, np.nan)
    for j, s in enumerate(starts):
        w = _demeaned(x[s : s + cfg.window])
        fit, svals = _structure_fit(w, cfg.tau_grid, order=2)
        if fit is None:
            continue
        per_tau = (np.log(svals) - fit[1]) / (2.0 * log_tau)
        vals[j] = per_tau.std(ddof=1)
    return vals


def cross_covariance(series_list, cfg):
    rets = np.stack([s.returns() for s in series_list])
    k = rets.shape[0]
    iu = np.triu_indices(k, 1)
    starts = _return_starts(series_list[0], cfg)
    vals = np.empty(starts.size)
    for j, s in enumerate(starts):
        cov = np.cov(rets[:, s : s + cfg.window], ddof=1)
        vals[j] = cov[iu].mean()
    return vals
