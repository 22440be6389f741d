"""Command-line surface.

Subcommands: ``synth`` (corpus spec -> price CSV), ``simulate`` (one
generator -> path CSV), ``fit-lppl`` (price CSV -> fit JSON), ``ews``
(price CSV -> long-format signal CSV), ``detect-crashes`` (price CSV ->
events JSON), ``study`` (price CSV or corpus spec -> trend report JSON
and CSVs). ``simulate`` draws a corpus kind through the builder that
``synth`` uses, from the flags named like the kind's params, with
``--t-start`` in place of ``onset``; a flag left out takes the kind's
``PARAM_DEFAULTS`` value, and a flag the kind does not read is refused.
Only ``multi``, coupled critical-route assets, is built here, from the
``cpt`` row. The other commands' flags default to the ``SearchConfig``,
``WindowConfig`` and ``StudyConfig`` fields they fill. A run writes a
``manifest.json`` beside its outputs, after them and only when it exits
0; all randomness flows from ``--seed``. Exit codes: 0 success, ``--help``
or ``--version``; 1 a usage error, a ``ValueError`` or an ``OSError``; 2 a
``ComputationError`` or ``ArithmeticError``. ``PHASECRASH_LOG`` sets the
log level.
"""

import argparse
import json
import logging
import os
import sys

import numpy as np

from . import __version__
from .errors import ComputationError, check_int
from .ews import (
    CROSS_COV,
    PriceSeries,
    WindowConfig,
    cross_covariance,
    signal_estimator,
)
from .io import (
    PARAM_DEFAULTS,
    CorpusSpec,
    RunManifest,
    _to_dict,
    load_price_csv,
    simulate_asset,
    study_config_from_dict,
    synth_corpus,
    write_events_json,
    write_ews_csv,
    write_fit_json,
    write_price_csv,
    write_report_csv,
    write_report_json,
    write_segments_csv,
)
from .lppl import SearchConfig, fit_lppl
from .noise import MAX_SEED
from .simulate import CPT_LAM, MultiParams, MuSchedule, simulate_multivariate
from .study import StudyConfig, _check_signal_list, _check_window, detect_panel, run_study

log = logging.getLogger("phasecrash")

#: The ``simulate`` flags named like corpus params; ``--t-start`` replaces ``onset``.
_PARAM_KEYS = sorted({key for row in PARAM_DEFAULTS.values() for key in row} - {"onset"})

#: ``multi``'s own flags, which every manifest records, with their defaults.
_MULTI_FLAGS = {"k": 2, "coupling": 0.5}

#: ``multi`` couples critical-route assets, so it reads the cpt row.
_MULTI_DEFAULTS = {**PARAM_DEFAULTS["cpt"], "lam": CPT_LAM, **_MULTI_FLAGS}


def _items(text):
    items = tuple(x.strip() for x in text.split(","))
    if not all(items):  # "3,,4" or "3,4," is a typo, not (3, 4)
        raise argparse.ArgumentTypeError(f"empty item in {text!r}")
    return items


def _int_list(text):
    return tuple(int(x) for x in _items(text))


def _grid_counts(text):
    counts = _int_list(text)
    if len(counts) != 3:
        raise argparse.ArgumentTypeError(f"need three counts, got {text!r}")
    return counts


def build_parser():
    parser = argparse.ArgumentParser(prog="phasecrash", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0, help="master RNG seed (u64)")
        p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("synth", help="synthesise a corpus from a spec JSON")
    common(p)
    p.add_argument("--spec", required=True, help="corpus spec JSON file")

    p = sub.add_parser("simulate", help="simulate one path")
    common(p)
    p.add_argument(
        "--kind",
        required=True,
        choices=[k.replace("_", "-") for k in PARAM_DEFAULTS] + ["multi"],
    )
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--sample-every", type=int, default=1)
    p.add_argument(
        "--t-start", type=int, default=0, help="first step of the mu, H or alpha ramp"
    )
    for key in _PARAM_KEYS:
        p.add_argument(f"--{key.replace('_', '-')}", type=float, default=None,
                       help="default: the kind's PARAM_DEFAULTS value")
    p.add_argument("--k", type=int, default=None, help="asset count (multi; default 2)")
    p.add_argument(
        "--coupling", type=float, default=None, help="off-diagonal D_ij (multi; default 0.5)"
    )

    p = sub.add_parser("fit-lppl", help="calibrate the bubble model")
    common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--ticker", default=None, help="default: first ticker in file")
    p.add_argument("--tc-min", type=float, default=None)
    p.add_argument("--tc-max", type=float, default=None)
    p.add_argument("--m-min", type=float, default=SearchConfig.m_bounds[0])
    p.add_argument("--m-max", type=float, default=SearchConfig.m_bounds[1])
    p.add_argument("--omega-min", type=float, default=SearchConfig.omega_bounds[0])
    p.add_argument("--omega-max", type=float, default=SearchConfig.omega_bounds[1])
    grid = (SearchConfig.n_tc, SearchConfig.n_m, SearchConfig.n_omega)
    p.add_argument("--grid", type=_grid_counts, default=grid, metavar="TC,M,OMEGA")
    p.add_argument("--top-k", type=int, default=SearchConfig.refine_top_k)

    p = sub.add_parser("ews", help="rolling early-warning signals")
    common(p)
    p.add_argument("--input", required=True)
    p.add_argument(
        "--signals",
        type=_items,
        default=StudyConfig.signals,
        help="comma list (volatility, skewness, lag1_autocorr, anomalous_dim, "
        "conformality, ghe<n>, cross_cov)",
    )
    p.add_argument("--window", type=int, default=WindowConfig.window)
    p.add_argument("--stride", type=int, default=WindowConfig.stride)
    p.add_argument("--tau-grid", type=_int_list, default=WindowConfig.tau_grid)

    p = sub.add_parser("detect-crashes", help="drawdown event detection")
    common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--threshold", type=float, default=StudyConfig.crash_threshold)
    p.add_argument("--lookback", type=int, default=StudyConfig.lookback)

    p = sub.add_parser("study", help="pre-crash vs normal-time trend study")
    common(p)
    p.add_argument("--input", default=None, help="price CSV panel")
    p.add_argument("--spec", default=None, help="corpus spec JSON (synthetic panel)")
    p.add_argument("--config", default=None, help="study config JSON")

    return parser


def _outpath(args, name):
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _load_json(path):
    """The JSON document in the file ``path``; one that cannot be parsed
    raises a ValueError naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # a JSONDecodeError or a UnicodeDecodeError
            raise ValueError(f"{path}: {exc}") from exc


def _cmd_synth(args):
    spec = CorpusSpec.from_dict(_load_json(args.spec))
    corpus = synth_corpus(spec, args.seed)
    write_price_csv(corpus, _outpath(args, "corpus.csv"))
    log.info("wrote %d series to %s", len(corpus), args.out)
    return spec.to_dict(), RunManifest.digest_file(args.spec)


def _cmd_simulate(args):
    check_int("sample_every", args.sample_every, 1)
    n, dt, seed = args.n, args.dt, args.seed
    if 0 < n <= args.t_start:  # the ramp would never start
        raise ValueError(f"t_start must lie in [0, n), got {args.t_start} with n = {n}")
    kind = args.kind.replace("-", "_")
    row = _MULTI_DEFAULTS if kind == "multi" else PARAM_DEFAULTS[kind]
    given = {key: v for key, v in vars(args).items() if v is not None}
    unread = [f"--{key.replace('_', '-')}" for key in (*_PARAM_KEYS, *_MULTI_FLAGS)
              if key in given and key not in row]
    if unread:
        raise ValueError(f"simulate --kind {args.kind} does not read {', '.join(unread)}")
    p = {key: given.get(key, v) for key, v in row.items() if key != "onset"}
    if kind == "multi":
        k = p["k"]
        coupling = tuple(
            tuple(1.0 if i == j else p["coupling"] for j in range(k)) for i in range(k)
        )
        params = MultiParams(
            **{key: (p[key],) * k for key in ("r", "lam", "sigma", "p0")},
            mu_schedule=MuSchedule(p["mu_start"], p["mu_end"], t_start=args.t_start),
            coupling=coupling,
        )
        paths = [path.values for path in simulate_multivariate(params, n, dt, seed)]
    else:
        paths = [simulate_asset(kind, p, n, dt, args.t_start, seed)]
    # serialise every sample_every-th state on an integer observation grid
    series = []
    for i, values in enumerate(paths):
        lp = values[:: args.sample_every]
        series.append(PriceSeries(np.arange(lp.size, dtype=float), lp, f"SIM{i:03d}"))
    write_price_csv(series, _outpath(args, "path.csv"))
    skip = ("command", "seed", "out", *_PARAM_KEYS, *_MULTI_FLAGS)
    cfg = {key: v for key, v in vars(args).items() if key not in skip} | _MULTI_FLAGS | p
    return cfg, RunManifest.digest_config(cfg)


def _pick_series(series_list, ticker, path):
    if not series_list:
        raise ValueError(f"{path}: no series loaded")
    if ticker is None:
        return series_list[0]
    for s in series_list:
        if s.id == ticker:
            return s
    raise ValueError(f"{path}: ticker {ticker!r} not found")


def _cmd_fit_lppl(args):
    if (args.tc_min is None) != (args.tc_max is None):
        raise ValueError("fit-lppl needs both --tc-min and --tc-max, or neither")
    tc_bounds = None if args.tc_min is None else (args.tc_min, args.tc_max)
    series = _pick_series(load_price_csv(args.input), args.ticker, args.input)
    n_tc, n_m, n_omega = args.grid
    search = SearchConfig(
        m_bounds=(args.m_min, args.m_max),
        omega_bounds=(args.omega_min, args.omega_max),
        tc_bounds=tc_bounds,
        n_tc=n_tc,
        n_m=n_m,
        n_omega=n_omega,
        refine_top_k=args.top_k,
    )
    fit = fit_lppl(series, search)
    write_fit_json(fit, _outpath(args, "fit.json"))
    cfg = {
        "ticker": series.id,
        "m_bounds": list(search.m_bounds),
        "omega_bounds": list(search.omega_bounds),
        "tc_bounds": list(tc_bounds) if tc_bounds else None,
        "grid": [n_tc, n_m, n_omega],
        "top_k": args.top_k,
    }
    log.info("fit %s: tc=%.3f ssr=%.4g", series.id, fit.params.tc, fit.ssr)
    return cfg, RunManifest.digest_file(args.input)


def _cmd_ews(args):
    cfg = WindowConfig(window=args.window, stride=args.stride, tau_grid=args.tau_grid)
    # every name and window is checked before the panel is read, but cross_cov's
    # window rule reads the panel's shared dates
    _check_window([s for s in args.signals if s != CROSS_COV], cfg)
    _check_signal_list(args.signals)
    series_list = load_price_csv(args.input)
    out = []
    for name in args.signals:
        if name == CROSS_COV:
            out.append(cross_covariance(series_list, cfg))
        else:
            estimator = signal_estimator(name)
            out.extend(estimator(s, cfg) for s in series_list)
    write_ews_csv(out, _outpath(args, "signals.csv"))
    cfg_dict = {
        "signals": list(args.signals),
        "window": args.window,
        "stride": args.stride,
        "tau_grid": list(args.tau_grid),
    }
    return cfg_dict, RunManifest.digest_file(args.input)


def _cmd_detect(args):
    series_list = load_price_csv(args.input)
    cfg = StudyConfig(
        crash_threshold=args.threshold,
        lookback=args.lookback,
    )
    scanned, skipped = detect_panel(series_list, cfg)
    events = [ev for _, found in scanned for ev in found]
    write_events_json(events, _outpath(args, "events.json"), skipped)
    cfg_dict = {
        "threshold": args.threshold,
        "lookback": args.lookback,
    }
    log.info(
        "%d events across %d series, %d skipped",
        len(events),
        len(series_list),
        len(skipped),
    )
    return cfg_dict, RunManifest.digest_file(args.input)


def _cmd_study(args):
    if (args.input is None) == (args.spec is None):
        raise ValueError("study needs exactly one of --input or --spec")
    if args.config is None:
        cfg = StudyConfig()
    else:
        cfg = study_config_from_dict(_load_json(args.config))
    if args.input is not None:
        assets = load_price_csv(args.input)
        digest = RunManifest.digest_file(args.input)
    else:
        assets = synth_corpus(CorpusSpec.from_dict(_load_json(args.spec)), args.seed)
        digest = RunManifest.digest_file(args.spec)
    report = run_study(assets, cfg)
    write_report_json(report, _outpath(args, "report.json"))
    write_report_csv(report, _outpath(args, "report.csv"))
    write_segments_csv(report, _outpath(args, "segments.csv"))
    log.info(
        "study: %d assets (%d skipped), %d events, %d signals",
        report.n_assets,
        len(report.skipped),
        report.n_events,
        len(report.signals),
    )
    return _to_dict(cfg), digest


#: Each writes its outputs and returns the manifest's config and input
#: digest; ``cli_dispatch`` writes the manifest after, so a failure leaves none.
_COMMANDS = {
    "synth": _cmd_synth,
    "simulate": _cmd_simulate,
    "fit-lppl": _cmd_fit_lppl,
    "ews": _cmd_ews,
    "detect-crashes": _cmd_detect,
    "study": _cmd_study,
}

def cli_dispatch(argv):
    """Run one command line; returns the exit code instead of exiting."""
    level = os.environ.get("PHASECRASH_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has printed the help, version or usage error
        return 1 if exc.code else 0
    try:
        check_int("seed", args.seed, 0, MAX_SEED)
        config, digest = _COMMANDS[args.command](args)
        manifest = RunManifest(args.command, config, args.seed, input_digest=digest)
        manifest.write(_outpath(args, "manifest.json"))
        return 0
    except (ValueError, OSError) as exc:
        log.debug("validation failure", exc_info=True)
        print(f"phasecrash: error: {exc}", file=sys.stderr)
        return 1
    except (ComputationError, ArithmeticError) as exc:
        log.debug("computation failure", exc_info=True)
        print(f"phasecrash: computation failed: {exc}", file=sys.stderr)
        return 2


def main():
    raise SystemExit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
