"""The three benchmark workloads: inputs from a seed, one op, and the
output checks.

Inputs go through the most stable entry points the package has: corpus
spec dicts and CLI argument vectors for ``study_panel``, and
``window_config_from_dict`` for the rolling-window layouts. The direct
constructor calls that remain (schedules, simulator parameters, LPPL
truth and search, price series) all live in :func:`route_params`,
:func:`lppl_search` and :func:`lppl_series`, so a refactor of those
types needs a change in one place only. ``workloads.json`` lists the
public names each workload uses.

Every workload is a closed loop with one client: the next op starts
when the previous one has returned.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np

import hostspeed
import phasecrash as pc
from phasecrash.io import window_config_from_dict

HERE = os.path.dirname(os.path.abspath(__file__))
CLI_CHILD = os.path.join(HERE, "cli_child.py")

# A CLI child that takes longer than this has hung; the op fails.
CHILD_TIMEOUT_S = 120


def derive(seed, *keys):
    """Child seed for (seed, keys...), one independent stream per key.
    The benchmark splits seeds itself so that its inputs stay put when
    the package's own seed splitting changes."""
    seq = np.random.SeedSequence([int(seed), *(int(k) for k in keys)])
    return int(seq.generate_state(1, dtype=np.uint64)[0])


# ---------------------------------------------------------------- study_panel

def readme_spec(crash=20, control=20):
    """The README 40-asset corpus: Hurst-ramp crash assets and BM controls."""
    return {"groups": [
        {"kind": "dpt_hurst", "count": crash, "n": 2520,
         "params": {"onset": 0.7, "scale": 0.0015},
         "forced_drop": 0.25, "drop_len": 40, "id_prefix": "CRASH"},
        {"kind": "bm", "count": control, "n": 2560,
         "params": {"sigma": 0.001}, "id_prefix": "CTRL"},
    ]}


README_STUDY = {
    "pre_crash_window": 756,
    "exclusion_margin": 504,
    "signals": ["volatility", "skewness", "lag1_autocorr", "anomalous_dim", "ghe1"],
    "ews": {"window": 126, "stride": 10, "tau_grid": [2, 4, 8, 16], "orders": [1]},
}


def run_cli(argv, result_path, trace):
    """Run one ``phasecrash`` command in a fresh interpreter.

    Returns the child's record: exit code, set-up time, host-speed
    readings, peak RSS and, when traced, its spans.
    """
    spawn = time.monotonic()
    cmd = [sys.executable, CLI_CHILD, result_path, repr(spawn),
           "1" if trace else "0", "--", *argv]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    try:
        with open(result_path, encoding="utf-8") as fh:
            record = json.load(fh)
        os.unlink(result_path)
    except (OSError, ValueError):
        record = {"rc": proc.returncode, "spans": [], "readings": []}
    record["exit"] = proc.returncode
    record["stderr"] = proc.stderr[-2000:]
    return record


class StudyPanel:
    """``phasecrash synth`` then ``phasecrash study --input`` on the
    README spec and config, each in a fresh interpreter; op ``i`` uses
    corpus seed ``derive(seed, i)``."""

    name = "study_panel"
    in_process = False
    cycle = 1

    def __init__(self, seed, work, crash=20, control=20):
        self.seed = seed
        self.work = work
        self.crash, self.control = crash, control

    def setup(self):
        self.spec_path = os.path.join(self.work, "spec.json")
        self.config_path = os.path.join(self.work, "study.json")
        for path, obj in ((self.spec_path, readme_spec(self.crash, self.control)),
                          (self.config_path, README_STUDY)):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(obj, fh)

    def op(self, i, tracer=None):
        corpus_dir = os.path.join(self.work, "corpus")
        study_dir = os.path.join(self.work, "study")
        seed = str(derive(self.seed, i))
        commands = (
            ["synth", "--spec", self.spec_path, "--seed", seed, "--out", corpus_dir],
            ["study", "--input", os.path.join(corpus_dir, "corpus.csv"),
             "--config", self.config_path, "--seed", seed, "--out", study_dir],
        )
        setup, rss, readings = [], 0.0, []
        for argv in commands:
            rec = run_cli(argv, os.path.join(self.work, "child.json"), tracer is not None)
            readings.extend(rec["readings"])
            if tracer is not None:
                tracer.adopt(rec["spans"], tracer.current())
            if rec["rc"] != 0 or rec["exit"] != 0:
                raise RuntimeError(
                    f"phasecrash {argv[0]} exited {rec['exit']}: {rec['stderr']}")
            # interpreter start + import, with the readings taken during it
            setup.append((rec["setup_s"],
                          hostspeed.factor(rec["readings"][:rec["setup_readings"]])))
            rss = max(rss, rec["maxrss_kb"] / 1024.0)
        # rss_mb: the larger child's peak RSS
        return {"report": self.load_report(os.path.join(study_dir, "report.json")),
                "setup_s": setup, "rss_mb": rss, "host_readings": readings}

    @staticmethod
    def load_report(path):
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)

    def check(self, out):
        """Criterion 7 on the README panel: the anomalous dimension rises
        more before crashes than in normal times, significantly."""
        report = out["report"]
        problems = []
        if report["n_assets"] != self.crash + self.control:
            problems.append(f"n_assets {report['n_assets']} != {self.crash + self.control}")
        if not report["n_events"] >= self.crash:
            problems.append(f"n_events {report['n_events']} < {self.crash}")
        adim = report["signals"]["anomalous_dim"]
        if not adim["mean_tau_pre"] > adim["mean_tau_normal"]:
            problems.append("anomalous_dim: pre tau not above normal tau")
        if not adim["p_value"] < 0.01:
            problems.append(f"anomalous_dim: p = {adim['p_value']} not < 0.01")
        return problems

    def pooled(self, outcomes):
        return {}

    def extra(self, outcomes):
        return {}


# ---------------------------------------------------------------- route_ensemble

MOMENT_CFG = {"window": 150, "stride": 15, "tau_grid": [2, 4, 8, 16]}
SCALING_CFG = {"window": 512, "stride": 128, "tau_grid": [2, 4, 8, 16, 32], "orders": [1]}

#: Signals whose pooled mean Kendall tau must be positive (README and
#: acceptance criteria 5-6): the documented fingerprint of each route.
FINGERPRINTS = ("cpt_acf", "cpt_vol", "spt_vol", "dpt_alpha_ghe1",
                "dpt_hurst_adim", "multi_xcov")

FBM_SIZES = ((0.3, 1024), (0.5, 1024), (0.7, 1024), (0.9, 1024), (0.7, 8192))


def route_params(k=10):
    """Demo 01 and criterion 6 parameters for the three routes."""
    coupling = tuple(tuple(1.0 if a == b else 0.5 for b in range(k)) for a in range(k))
    return {
        "cpt": pc.CptParams(r=1.0, mu_schedule=pc.MuSchedule(0.0, 0.36), sigma=0.03, p0=1.0),
        "spt": pc.SptParams(r=1.0, lam=1.0, alpha_vol=0.008, p0=1.0),
        "dpt_alpha": pc.DptParams(
            pc.StableSchedule(2.0, 1.2, ramp="linear", scale=0.01), scale=1.0),
        "dpt_hurst": pc.DptParams(pc.HurstSchedule(0.5, 0.9, ramp="linear"), scale=0.01),
        "multi": pc.MultiParams(
            r=(1.0,) * k, lam=(1.0,) * k, mu_schedule=pc.MuSchedule(0.0, 0.36),
            sigma=(0.03,) * k, coupling=coupling, p0=(1.0,) * k),
        "fbm": tuple((pc.HurstSchedule(h), n) for h, n in FBM_SIZES),
    }


class RouteEnsemble:
    """One Monte Carlo replicate of every crash route per op, on seed
    ``derive(seed, 0, i)``."""

    name = "route_ensemble"
    in_process = True
    cycle = 1

    def __init__(self, seed):
        self.seed = seed

    def setup(self):
        self.params = route_params()
        self.moment = window_config_from_dict(MOMENT_CFG)
        self.scaling = window_config_from_dict(SCALING_CFG)

    def warmup(self):
        self.replicate(derive(self.seed, 1, 0))

    def op(self, i, tracer=None):
        return self.replicate(derive(self.seed, 0, i))

    def replicate(self, seed):
        p, mom, sca = self.params, self.moment, self.scaling
        trend = lambda ews: pc.kendall_tau_trend(ews)[0]
        taus = {}
        s = pc.simulate_cpt(p["cpt"], 40_000, 0.02, seed).to_price_series("cpt", 20)
        taus["cpt_vol"] = trend(pc.rolling_volatility(s, mom))
        taus["cpt_acf"] = trend(pc.rolling_lag1_autocorr(s, mom))
        s = pc.simulate_spt(p["spt"], 10_000, 0.01, seed).to_price_series("spt")
        taus["spt_vol"] = trend(pc.rolling_volatility(s, mom))
        taus["spt_acf"] = trend(pc.rolling_lag1_autocorr(s, mom))
        s = pc.simulate_dpt(p["dpt_alpha"], 4096, 1.0, seed).to_price_series("dpt_alpha")
        taus["dpt_alpha_ghe1"] = trend(pc.generalized_hurst(s, sca)[0])
        taus["dpt_alpha_acf"] = trend(pc.rolling_lag1_autocorr(s, mom))
        s = pc.simulate_dpt(p["dpt_hurst"], 2048, 1.0, seed).to_price_series("dpt_hurst")
        taus["dpt_hurst_adim"] = trend(pc.anomalous_dimension(s, sca))
        taus["dpt_hurst_conf"] = trend(pc.conformality_index(s, sca))
        paths = pc.simulate_multivariate(p["multi"], 20_000, 0.02, seed)
        panel = [path.to_price_series(f"a{j}", 10) for j, path in enumerate(paths)]
        taus["multi_xcov"] = trend(pc.cross_covariance(panel, mom))
        fbm_ok = all(
            len(inc) == n and np.all(np.isfinite(inc))
            for inc, n in ((pc.synth_fbm(n, sch, 1.0, seed).increments, n)
                           for sch, n in p["fbm"])
        )
        return {"taus": taus, "fbm_ok": fbm_ok}

    def check(self, out):
        problems = [f"{k}: tau {v}" for k, v in out["taus"].items() if not math.isfinite(v)]
        if not out["fbm_ok"]:
            problems.append("fBm path has the wrong length or a non-finite increment")
        return problems

    def pooled(self, outcomes):
        """Pooled over the run, every fingerprint trend is positive; a
        wrong sign fails every op of the run."""
        failed = [k for k in FINGERPRINTS
                  if not np.mean([o["taus"][k] for o in outcomes.values()]) > 0.0]
        if not failed:
            return {}
        return {i: f"pooled tau not positive: {', '.join(failed)}" for i in outcomes}

    def extra(self, outcomes):
        return {}


# ---------------------------------------------------------------- lppl_fits

LPPL_SIZES = (250, 500, 1000)
# Criterion 2: at least this share of bubble fits lands within TC_TOL of tc.
TC_HIT_SHARE = 0.9
TC_TOL = 10.0


def lppl_search():
    """The default search whose bounds every fit must respect."""
    return pc.SearchConfig()


def lppl_series(kind, n, rng):
    """A criterion-2 bubble (tc = 1.1 n, 1% noise) or an iid-return walk
    (sigma 0.01); returns (series, true tc or None)."""
    t = np.arange(float(n))
    if kind == "bubble":
        true = pc.LpplParams(A=7.0, B=-0.5, C1=0.05, C2=0.05, m=0.5, omega=8.0, tc=1.1 * n)
        y = pc.lppl_log_price(true, t) + 0.01 * rng.standard_normal(n)
        return pc.PriceSeries(t, y, f"bubble{n}"), true.tc
    y = np.cumsum(0.01 * rng.standard_normal(n))
    return pc.PriceSeries(t, y, f"walk{n}"), None


class LpplFits:
    """``fit_lppl`` with the default search; ops cycle through a fixed
    batch of bubbles and walks at every size, ``per_size`` of each."""

    name = "lppl_fits"
    in_process = True

    def __init__(self, seed, sizes=LPPL_SIZES, per_size=4):
        self.seed = seed
        self.sizes, self.per_size = sizes, per_size

    def setup(self):
        self.batch = []
        for rep in range(self.per_size):
            for n in self.sizes:
                for k, kind in enumerate(("bubble", "walk")):
                    rng = np.random.default_rng(derive(self.seed, n, rep, k))
                    self.batch.append(lppl_series(kind, n, rng))
        self.cycle = 2 * len(self.sizes)  # one fit of each kind and size
        self.search = lppl_search()

    def warmup(self):
        pc.fit_lppl(self.batch[0][0])

    def op(self, i, tracer=None):
        series, true_tc = self.batch[i % len(self.batch)]
        return {"fit": pc.fit_lppl(series), "true_tc": true_tc,
                "last_t": float(series.times[-1])}

    def check(self, out):
        fit, s = out["fit"].params, self.search
        problems = []
        if not math.isfinite(out["fit"].ssr):
            problems.append(f"ssr {out['fit'].ssr} not finite")
        if not fit.tc > out["last_t"]:
            problems.append(f"tc {fit.tc} not after the last observation")
        if not s.m_bounds[0] <= fit.m <= s.m_bounds[1]:
            problems.append(f"m {fit.m} outside {s.m_bounds}")
        if not s.omega_bounds[0] <= fit.omega <= s.omega_bounds[1]:
            problems.append(f"omega {fit.omega} outside {s.omega_bounds}")
        return problems

    @staticmethod
    def _hit(out):
        return abs(out["fit"].params.tc - out["true_tc"]) <= TC_TOL

    def pooled(self, outcomes):
        """Criterion 2 per run: at least 90% of bubble fits hit tc within
        +-10. Below that share, every missed bubble fit fails."""
        bubbles = {i: o for i, o in outcomes.items() if o["true_tc"] is not None}
        misses = {i: o for i, o in bubbles.items() if not self._hit(o)}
        if len(bubbles) - len(misses) >= TC_HIT_SHARE * len(bubbles):
            return {}
        return {i: f"tc {o['fit'].params.tc:.2f} vs true {o['true_tc']:.2f}"
                for i, o in misses.items()}

    def extra(self, outcomes):
        bubbles = [o for o in outcomes.values() if o["true_tc"] is not None]
        return {
            "grid_evals": sum(o["fit"].grid_evals for o in outcomes.values()),
            "converged": sum(o["fit"].converged for o in outcomes.values()),
            "bubbles": len(bubbles),
            "tc_hits": sum(self._hit(o) for o in bubbles),
        }


def make(name, seed, work):
    if name == "study_panel":
        return StudyPanel(seed, work)
    if name == "route_ensemble":
        return RouteEnsemble(seed)
    if name == "lppl_fits":
        return LpplFits(seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("study_panel", "route_ensemble", "lppl_fits")
