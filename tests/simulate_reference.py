"""Reference oracles for the Euler simulators: the per-route loops that
``phasecrash.simulate`` ran before its routes shared one Euler step.

The critical and stochastic oracles step a scalar state on Python floats
and stop at the first non-finite state; the multivariate oracle steps
the whole asset vector with numpy per time step. Each returns
``(values, step)``: the state path and ``None``, or ``None`` and the
index of the first non-finite state. Noise comes from the package's own
samplers with the same seeds. The simulators run the step folded to
``x * (a - b*x*x) + c``, so they reproduce the oracles to rounding; with
``r = lam = mu = 0`` the fold is ``x + w`` and they match bitwise.

:func:`euler` is the folded kernel of phasecrash 0.17.0, one chain per
call, each state appended to a list that is then copied into an array;
``folded_cpt``, ``folded_spt`` and ``folded_multivariate`` are that
version's simulators around it, drawing their noise as its sampler did.
The package must reproduce them bitwise, divergent paths included.
"""

import math

import numpy as np

import phasecrash as pc
from phasecrash.simulate import CPT_LAM


def cpt(params, n, dt, seed):
    dw = pc.sample_gaussian_increments(n, dt, seed).increments.tolist()
    mu = params.mu_schedule.values(n).tolist()
    r, sig = params.r, params.sigma
    out = np.empty(n + 1)
    out[0] = x = params.p0
    for k in range(n):
        x = x + (-mu[k] + r * x - x * x * x) * dt + sig * dw[k]
        if not math.isfinite(x):
            return None, k + 1
        out[k + 1] = x
    return out, None


def spt(params, n, dt, seed):
    dw = pc.sample_gaussian_increments(n, dt, seed).increments.tolist()
    r, lam, a = params.r, params.lam, params.alpha_vol
    out = np.empty(n + 1)
    out[0] = x = params.p0
    for k in range(n):
        x = x + (r * x - lam * x * x * x) * dt + (a * k * dt) * dw[k]
        if not math.isfinite(x):
            return None, k + 1
        out[k + 1] = x
    return out, None


def multivariate(params, n, dt, seed):
    """Values have one column per asset."""
    chol = np.linalg.cholesky(params.coupling_matrix())
    k = params.k
    rng = np.random.default_rng(seed)
    dw = (rng.standard_normal((n, k)) @ chol.T) * np.sqrt(dt)
    mu = params.mu_schedule.values(n)
    r = np.asarray(params.r, dtype=float)
    lam = np.asarray(params.lam, dtype=float)
    sig = np.asarray(params.sigma, dtype=float)
    p0 = np.zeros(k) if params.p0 is None else np.asarray(params.p0, dtype=float)
    out = np.empty((n + 1, k))
    out[0] = x = p0
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(n):
            x = x + (-mu[step] + r * x - lam * x**3) * dt + sig * dw[step]
            if not np.all(np.isfinite(x)):
                return None, step + 1
            out[step + 1] = x
    return out, None


def euler(x, a, b, c):
    """All ``len(c) + 1`` states from ``x`` of the Euler step folded to
    ``x * (a - b*x*x) + c[k]``, ``a = 1 + r*dt``, ``b = lam*dt``, ``c = w - mu*dt``."""
    x, a, b = float(x), float(a), float(b)  # Python floats beat numpy scalars here
    out = [x]
    append = out.append
    for ck in c.tolist():
        x = x * (a - b * x * x) + ck
        append(x)
    return np.array(out)


def _gaussian_increments(n, dt, seed):
    z = np.random.default_rng(seed).standard_normal(n)
    return z * np.sqrt(dt)


def folded_cpt(params, n, dt, seed):
    dw = _gaussian_increments(n, dt, seed)
    c = params.sigma * dw - params.mu_schedule.values(n) * dt
    return euler(params.p0, 1 + params.r * dt, CPT_LAM * dt, c)


def folded_spt(params, n, dt, seed):
    dw = _gaussian_increments(n, dt, seed)
    w = (params.alpha_vol * np.arange(n) * dt) * dw
    return euler(params.p0, 1 + params.r * dt, params.lam * dt, w)


def folded_multivariate(params, n, dt, seed):
    """Values have one row per asset."""
    chol = np.linalg.cholesky(params.coupling_matrix())
    k = params.k
    w = _gaussian_increments(n * k, 1.0, seed).reshape(n, k) @ chol.T
    w *= np.sqrt(dt)
    w *= np.asarray(params.sigma, dtype=float)
    w -= (params.mu_schedule.values(n) * dt)[:, None]
    p0 = (0.0,) * k if params.p0 is None else params.p0
    return np.array([
        euler(p0[i], 1 + params.r[i] * dt, params.lam[i] * dt, w[:, i])
        for i in range(k)
    ])
