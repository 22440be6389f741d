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
``WindowConfig`` and ``StudyConfig`` fields they fill. Every run writes
a ``manifest.json`` beside its outputs; all randomness flows from
``--seed``. Exit codes: 0 success, 1 validation or usage error, 2
computation failure. ``PHASECRASH_LOG`` sets the log level.
"""

import argparse
import json
import logging
import os
import sys

import numpy as np

from . import __version__
from .errors import (
    AlignmentError,
    CsvParseError,
    DegenerateDesignError,
    FitFailureError,
    GenerationError,
    InsufficientDataError,
    SimulationOverflowError,
)
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
from .simulate import CPT_LAM, MultiParams, MuSchedule, simulate_multivariate
from .study import StudyConfig, detect_panel, run_study

log = logging.getLogger("phasecrash")

#: The ``simulate`` flags named like corpus params; ``--t-start`` replaces ``onset``.
_PARAM_KEYS = sorted({key for row in PARAM_DEFAULTS.values() for key in row} - {"onset"})

#: ``multi`` couples critical-route assets, so it reads the cpt row.
_MULTI_DEFAULTS = {**PARAM_DEFAULTS["cpt"], "lam": CPT_LAM}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _int_list(text):
    return tuple(int(x) for x in text.split(",") if x.strip())


def _grid_counts(text):
    counts = _int_list(text)
    if len(counts) != 3:
        raise argparse.ArgumentTypeError(f"need three counts, got {text!r}")
    return counts


def build_parser():
    parser = _Parser(prog="phasecrash", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", metavar="command")

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
    p.add_argument("--k", type=int, default=2, help="asset count (multi)")
    p.add_argument(
        "--coupling", type=float, default=0.5, help="off-diagonal D_ij (multi)"
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
        default=",".join(StudyConfig.signals),
        help="comma list (volatility, skewness, lag1_autocorr, anomalous_dim, "
        "conformality, ghe<n>, cross_cov)",
    )
    p.add_argument("--window", type=int, default=WindowConfig.window)
    p.add_argument("--stride", type=int, default=WindowConfig.stride)
    p.add_argument("--tau-grid", type=_int_list, default=WindowConfig.tau_grid)
    p.add_argument("--detrend", action="store_true")
    p.add_argument("--calendar", choices=["as-is", "intersect"], default="as-is")

    p = sub.add_parser("detect-crashes", help="drawdown event detection")
    common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--threshold", type=float, default=StudyConfig.crash_threshold)
    p.add_argument("--lookback", type=int, default=StudyConfig.lookback)
    p.add_argument("--recovery", type=float, default=StudyConfig.recovery_fraction)

    p = sub.add_parser("study", help="pre-crash vs normal-time trend study")
    common(p)
    p.add_argument("--input", default=None, help="price CSV panel")
    p.add_argument("--spec", default=None, help="corpus spec JSON (synthetic panel)")
    p.add_argument("--config", default=None, help="study config JSON")

    return parser


def _outpath(args, name):
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _manifest(args, command, config, digest):
    return RunManifest(
        command=command, config=config, seed=args.seed, input_digest=digest
    )


def _cmd_synth(args):
    with open(args.spec, encoding="utf-8") as fh:
        spec_dict = json.load(fh)
    spec = CorpusSpec.from_dict(spec_dict)
    corpus = synth_corpus(spec, args.seed)
    write_price_csv(corpus, _outpath(args, "corpus.csv"))
    _manifest(args, "synth", spec.to_dict(), RunManifest.digest_file(args.spec)).write(
        _outpath(args, "manifest.json")
    )
    log.info("wrote %d series to %s", len(corpus), args.out)
    return 0


def _cmd_simulate(args):
    if args.sample_every < 1:
        raise ValueError("sample_every must be >= 1")
    n, dt, seed = args.n, args.dt, args.seed
    if 0 < n <= args.t_start:  # the ramp would never start
        raise ValueError(f"t_start must lie in [0, n), got {args.t_start} with n = {n}")
    kind = args.kind.replace("-", "_")
    row = _MULTI_DEFAULTS if kind == "multi" else PARAM_DEFAULTS[kind]
    given = {key: v for key, v in vars(args).items() if v is not None}
    unread = [f"--{key.replace('_', '-')}" for key in _PARAM_KEYS
              if key in given and key not in row]
    if unread:
        raise ValueError(f"simulate --kind {args.kind} does not read {', '.join(unread)}")
    p = {key: given.get(key, v) for key, v in row.items() if key != "onset"}
    if kind == "multi":
        k = args.k
        coupling = tuple(
            tuple(1.0 if i == j else args.coupling for j in range(k)) for i in range(k)
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
    skip = ("command", "seed", "out", *_PARAM_KEYS)
    cfg = {key: v for key, v in vars(args).items() if key not in skip} | p
    _manifest(args, "simulate", cfg, RunManifest.digest_config(cfg)).write(
        _outpath(args, "manifest.json")
    )
    return 0


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
    series = _pick_series(load_price_csv(args.input), args.ticker, args.input)
    tc_bounds = None
    if args.tc_min is not None and args.tc_max is not None:
        tc_bounds = (args.tc_min, args.tc_max)
    elif args.tc_min is not None or args.tc_max is not None:
        log.warning("--tc-min and --tc-max apply only together; ignoring the one given")
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
    _manifest(args, "fit-lppl", cfg, RunManifest.digest_file(args.input)).write(
        _outpath(args, "manifest.json")
    )
    log.info("fit %s: tc=%.3f ssr=%.4g", series.id, fit.params.tc, fit.ssr)
    return 0


def _cmd_ews(args):
    calendar = "intersect" if args.calendar == "intersect" else "as_is"
    signals = tuple(s.strip() for s in args.signals.split(",") if s.strip())
    # resolve every name before the panel is read; None marks cross_cov
    estimators = [None if s == CROSS_COV else signal_estimator(s) for s in signals]
    cfg = WindowConfig(
        window=args.window,
        stride=args.stride,
        tau_grid=args.tau_grid,
        detrend=args.detrend,
    )
    series_list = load_price_csv(args.input, calendar)
    out = []
    for estimator in estimators:
        if estimator is None:
            out.append(cross_covariance(series_list, cfg))
        else:
            out.extend(estimator(s, cfg) for s in series_list)
    write_ews_csv(out, _outpath(args, "signals.csv"))
    cfg_dict = {
        "signals": list(signals),
        "window": args.window,
        "stride": args.stride,
        "tau_grid": list(args.tau_grid),
        "detrend": args.detrend,
        "calendar": calendar,
    }
    _manifest(args, "ews", cfg_dict, RunManifest.digest_file(args.input)).write(
        _outpath(args, "manifest.json")
    )
    return 0


def _cmd_detect(args):
    series_list = load_price_csv(args.input)
    cfg = StudyConfig(
        crash_threshold=args.threshold,
        lookback=args.lookback,
        recovery_fraction=args.recovery,
    )
    scanned, skipped = detect_panel(series_list, cfg)
    events = [ev for _, found in scanned for ev in found]
    write_events_json(events, _outpath(args, "events.json"), skipped)
    cfg_dict = {
        "threshold": args.threshold,
        "lookback": args.lookback,
        "recovery": args.recovery,
    }
    _manifest(args, "detect-crashes", cfg_dict, RunManifest.digest_file(args.input)).write(
        _outpath(args, "manifest.json")
    )
    log.info(
        "%d events across %d series, %d skipped",
        len(events),
        len(series_list),
        len(skipped),
    )
    return 0


def _cmd_study(args):
    if (args.input is None) == (args.spec is None):
        raise ValueError("study needs exactly one of --input or --spec")
    if args.config is not None:
        with open(args.config, encoding="utf-8") as fh:
            cfg_dict = json.load(fh)
        cfg = study_config_from_dict(cfg_dict)
    else:
        cfg_dict, cfg = {}, StudyConfig()
    if args.input is not None:
        calendar = "intersect" if CROSS_COV in cfg.signals else "as_is"
        assets = load_price_csv(args.input, calendar)
        digest = RunManifest.digest_file(args.input)
    else:
        with open(args.spec, encoding="utf-8") as fh:
            spec = CorpusSpec.from_dict(json.load(fh))
        assets = synth_corpus(spec, args.seed)
        digest = RunManifest.digest_file(args.spec)
    report = run_study(assets, cfg)
    write_report_json(report, _outpath(args, "report.json"))
    write_report_csv(report, _outpath(args, "report.csv"))
    write_segments_csv(report, _outpath(args, "segments.csv"))
    _manifest(args, "study", cfg_dict, digest).write(_outpath(args, "manifest.json"))
    log.info(
        "study: %d assets (%d skipped), %d events, %d signals",
        report.n_assets,
        len(report.skipped),
        report.n_events,
        len(report.signals),
    )
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "simulate": _cmd_simulate,
    "fit-lppl": _cmd_fit_lppl,
    "ews": _cmd_ews,
    "detect-crashes": _cmd_detect,
    "study": _cmd_study,
}

_VALIDATION_ERRORS = (
    ValueError,
    CsvParseError,
    AlignmentError,
    InsufficientDataError,
    FileNotFoundError,
    json.JSONDecodeError,
)
_COMPUTATION_ERRORS = (
    FitFailureError,
    GenerationError,
    DegenerateDesignError,
    SimulationOverflowError,
    ArithmeticError,
)


def cli_dispatch(argv):
    """Run one command line; returns the exit code instead of exiting."""
    level = os.environ.get("PHASECRASH_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(parser.format_usage(), file=sys.stderr, end="")
        print(f"phasecrash: error: {exc}", file=sys.stderr)
        return 1
    if args.command is None:
        print(parser.format_usage(), file=sys.stderr, end="")
        return 1
    if not 0 <= args.seed < 2**64:
        print("phasecrash: error: --seed must be an unsigned 64-bit int", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except _VALIDATION_ERRORS as exc:
        log.debug("validation failure", exc_info=True)
        print(f"phasecrash: error: {exc}", file=sys.stderr)
        return 1
    except _COMPUTATION_ERRORS as exc:
        log.debug("computation failure", exc_info=True)
        print(f"phasecrash: computation failed: {exc}", file=sys.stderr)
        return 2


def main():
    raise SystemExit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
