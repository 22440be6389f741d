import os
import re
import subprocess
import sys

import numpy as np
import pytest

import phasecrash as pc
from phasecrash.io import derive_seed


def readme_json_blocks():
    """The JSON files the README writes with ``cat > name.json``, by name."""
    path = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(path, encoding="utf-8") as fh:
        readme = fh.read()
    return dict(re.findall(r"cat > (\w+\.json) <<'EOF'\n(.*?)\nEOF", readme, re.S))


def fresh_python(code):
    """The stdout of ``python -c code`` in a fresh interpreter that imports
    the package from this checkout."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout


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
