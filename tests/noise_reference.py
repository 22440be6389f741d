"""Reference oracle for ramped-Hurst paths.

``ramped_increments`` is the exact per-row construction that
``phasecrash.noise.synth_fbm`` approximates for a ramped schedule. For
every step ``r`` it builds the circulant-embedding weights ``w(h_r)`` of
unit-step fractional Gaussian noise at that step's H from the
autocovariance, and takes the real part of their discrete Fourier sum
against the seed's complex normal vector ``zeta`` at frequency ``r``:

    inc_r = Re sum_k w_k(h_r) zeta_k exp(-2 pi i k r / 2n)

by a direct sum, with no FFT over ``zeta`` and no interpolation across
H. That is O(n**2) work, done a block of rows at a time. ``synth_fbm``
draws the same ``zeta`` from the same seed (before its ``dt**h_start``
scale), so the two agree to the accuracy of its interpolation.
"""

import numpy as np

_BLOCK = 128  # rows of phases at a time: 128 x 2n complex values


def embedding_weights(h, n):
    """``sqrt(eigenvalues / 2n)`` of the circulant embedding of ``n`` steps
    of fractional Gaussian noise, one row for each H in ``h``."""
    k = np.arange(n + 1.0)
    h2 = 2.0 * np.asarray(h, dtype=float)[:, None]
    gamma = 0.5 * ((k + 1) ** h2 - 2 * k**h2 + np.abs(k - 1) ** h2)
    row = np.concatenate([gamma, gamma[:, n - 1 : 0 : -1]], axis=1)
    lam = np.fft.fft(row, axis=1).real
    return np.sqrt(np.clip(lam, 0.0, None) / row.shape[1])


def ramped_increments(schedule, n, seeds):
    """Unit-step increments of ``schedule`` over ``n`` steps, one row for
    each seed in ``seeds``."""
    h = schedule.values(n)
    m = 2 * n
    z = np.array([np.random.default_rng(s).standard_normal(2 * m) for s in seeds])
    zeta = z[:, :m] + 1j * z[:, m:]
    twiddle = np.exp(-2j * np.pi * np.arange(m) / m)
    k = np.arange(m)
    out = np.empty((len(seeds), n))
    for a in range(0, n, _BLOCK):
        r = np.arange(a, min(a + _BLOCK, n))
        levels, which = np.unique(h[r], return_inverse=True)
        w = embedding_weights(levels, n)[which]
        out[:, r] = ((w * twiddle[np.outer(r, k) % m]) @ zeta.T).real.T
    return out
