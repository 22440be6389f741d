import numpy as np
import pytest

import phasecrash as pc
from phasecrash.io import derive_seed


def series_from_increments(inc, asset_id="x"):
    lp = np.concatenate([[0.0], np.cumsum(inc)])
    return pc.PriceSeries(np.arange(lp.size, dtype=float), lp, asset_id)


@pytest.fixture(scope="session")
def dpt_hurst_trend_taus():
    """Per-seed Kendall tau of windowed scaling exponents along a
    0.5 -> 0.9 Hurst ramp; shared by the noise, simulator, and estimator
    trend tests (identical computation in all three contracts)."""
    sch = pc.HurstSchedule(0.5, 0.9)
    params = pc.DptParams(sch, scale=0.01)
    cfg = pc.WindowConfig(window=512, stride=128, tau_grid=(2, 4, 8, 16, 32))
    taus = []
    for i in range(100):
        path = pc.simulate_dpt(params, 2048, 1.0, derive_seed(404, i))
        series = path.to_price_series("dpt")
        ews = pc.anomalous_dimension(series, cfg)
        taus.append(pc.kendall_tau_trend(ews)[0])
    return np.array(taus)
