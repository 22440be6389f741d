"""CSV/JSON ingestion and serialisation, corpus synthesis, run manifests.

Price files use the fixed schema ``date,ticker,close`` (ISO dates, UTF-8,
header required). Timestamps become integer observation indices per
ticker; calendar gaps are not interpolated. On write, closes carry 17
significant digits and are nudged within a few ulps so that
``log(parse(close))`` reproduces the in-memory log-price bit-exactly
for |log-price| >= 1, that is, for prices outside (1/e, e). Closer to
1.0 the log grid outruns the price grid, and the round trip is exact
only to one representable price, under 3e-16. Write/load/write is
byte-stable in all cases.

JSON configs and corpus specs are keyed by dataclass field names;
unknown keys raise a ``ValueError`` that names them, and so does a
value of the wrong type that the dataclass refuses.

Every CLI command emits a ``manifest.json`` recording the resolved
configuration, seed, tool version, and a content hash of the inputs;
re-running the command with the same manifest inputs reproduces outputs
byte-identically. All files are written atomically (temp file + rename).
"""

import csv
import hashlib
import json
import logging
import math
import os
import tempfile
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from datetime import date, timedelta
from io import StringIO

import numpy as np

from . import __version__
from .errors import CsvParseError
from .ews import PriceSeries, WindowConfig
from .noise import HurstSchedule, StableSchedule, sample_gaussian_increments
from .simulate import (
    CptParams,
    DptParams,
    MuSchedule,
    SptParams,
    simulate_cpt,
    simulate_dpt,
    simulate_spt,
)
from .study import StudyConfig

__all__ = [
    "load_price_csv",
    "write_price_csv",
    "write_ews_csv",
    "write_events_json",
    "write_fit_json",
    "write_report_json",
    "write_report_csv",
    "write_segments_csv",
    "AssetGroupSpec",
    "CorpusSpec",
    "PARAM_DEFAULTS",
    "simulate_asset",
    "synth_corpus",
    "derive_seed",
    "RunManifest",
    "study_config_from_dict",
    "window_config_from_dict",
]

log = logging.getLogger("phasecrash")

_BASE_DATE = date(2000, 1, 3)  # synthetic calendars start here


def derive_seed(master, *indices):
    """Deterministic child seed for (master, index...): the splitting
    rule used for per-asset and per-piece RNG streams."""
    seq = np.random.SeedSequence([int(master), *[int(i) for i in indices]])
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def _atomic_write(path, text):
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path, header, rows):
    """Write the comma-separated column names ``header``, then ``rows``;
    only fields holding a comma, a quote or a line break get quoted."""
    buf = StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header.split(","))
    writer.writerows(rows)
    _atomic_write(path, buf.getvalue())


def _dump_json(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _close_repr(log_price):
    """Decimal close whose parse-then-log reproduces ``log_price`` exactly.

    exp followed by log is not the identity in floating point; trying the
    neighbouring representable closes recovers an exact preimage in
    practice, and the raw exp is kept as fallback.
    """
    c = math.exp(log_price)
    for cand in (
        c,
        math.nextafter(c, 0.0),
        math.nextafter(c, math.inf),
        math.nextafter(math.nextafter(c, 0.0), 0.0),
        math.nextafter(math.nextafter(c, math.inf), math.inf),
    ):
        if cand > 0 and math.log(cand) == log_price:
            return format(cand, ".17g")
    return format(c, ".17g")


def load_price_csv(path, calendar="as_is"):
    """Read ``date,ticker,close`` rows into one PriceSeries per ticker.

    ``calendar="intersect"`` restricts every series to the common date
    set, which aligns the panel for cross-covariance work.
    """
    if calendar not in ("as_is", "intersect"):
        raise ValueError(f"unknown calendar mode {calendar!r}")
    by_ticker = {}
    seen = set()
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header] != [
            "date",
            "ticker",
            "close",
        ]:
            raise CsvParseError(
                f"{path}: expected header 'date,ticker,close', got {header}", line=1
            )
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 3:
                raise CsvParseError(f"{path}:{lineno}: expected 3 fields", line=lineno)
            raw_date, ticker, raw_close = (f.strip() for f in row)
            try:
                date.fromisoformat(raw_date)
            except ValueError as exc:
                raise CsvParseError(
                    f"{path}:{lineno}: bad date {raw_date!r}: {exc}", line=lineno
                ) from exc
            if not ticker:
                raise CsvParseError(f"{path}:{lineno}: empty ticker", line=lineno)
            try:
                close = float(raw_close)
            except ValueError as exc:
                raise CsvParseError(
                    f"{path}:{lineno}: bad close {raw_close!r}", line=lineno
                ) from exc
            if not close > 0 or not math.isfinite(close):
                raise CsvParseError(
                    f"{path}:{lineno}: close must be positive and finite, "
                    f"got {raw_close}",
                    line=lineno,
                )
            if (ticker, raw_date) in seen:
                raise CsvParseError(
                    f"{path}:{lineno}: duplicate (ticker, date) = "
                    f"({ticker}, {raw_date})",
                    line=lineno,
                )
            seen.add((ticker, raw_date))
            by_ticker.setdefault(ticker, []).append((raw_date, close))

    if calendar == "intersect" and by_ticker:
        common = set.intersection(*(set(d for d, _ in rows) for rows in by_ticker.values()))
        if not common:
            log.warning("%s: no common dates across tickers; empty result", path)
            return []
        by_ticker = {
            t: [(d, c) for d, c in rows if d in common]
            for t, rows in by_ticker.items()
        }

    out = []
    for ticker, rows in by_ticker.items():
        rows.sort(key=lambda r: r[0])
        dates = tuple(d for d, _ in rows)
        lp = np.log([c for _, c in rows])
        out.append(
            PriceSeries(np.arange(len(rows), dtype=float), lp, ticker, dates)
        )
    return out


def write_price_csv(series_list, path):
    """Serialise series back to ``date,ticker,close`` with 17-digit closes.

    Ids with leading or trailing whitespace are refused: the loader strips
    every field, so they would not come back unchanged.
    """
    padded = [s.id for s in series_list if s.id != s.id.strip()]
    if padded:
        raise ValueError(f"ids with leading or trailing whitespace: {padded!r}")

    def rows():
        for s in series_list:
            dates = s.dates
            if dates is None:
                dates = [(_BASE_DATE + timedelta(days=i)).isoformat() for i in range(len(s))]
            for d, lp in zip(dates, s.log_prices):
                yield d, s.id, _close_repr(float(lp))

    _write_csv(path, "date,ticker,close", rows())


def write_ews_csv(ews_list, path):
    """Long-format signal CSV: asset_id, signal, window_end_time, value,
    missing_flag."""
    rows = []
    for e in ews_list:
        for t, v in zip(e.times, e.values):
            missing = not np.isfinite(v)
            val = "" if missing else format(float(v), ".17g")
            rows.append((e.id, e.signal, format(float(t), ".17g"), val, int(missing)))
    _write_csv(path, "asset_id,signal,window_end_time,value,missing_flag", rows)


def write_events_json(events, path, skipped=()):
    """Events and the ``{asset_id, reason}`` records of skipped series."""
    doc = {"events": [e.to_dict() for e in events], "skipped": list(skipped)}
    _atomic_write(path, _dump_json(doc))


def write_fit_json(fit, path):
    _atomic_write(path, _dump_json(fit.to_dict()))


def write_report_json(report, path):
    _atomic_write(path, _dump_json(report.to_dict()))


def write_report_csv(report, path):
    rows = []
    for name, st in report.signals.items():
        p = format(st.p_value, ".17g")
        rows.append((name, "pre", format(st.mean_tau_pre, ".17g"), st.n_pre, p))
        rows.append((name, "normal", format(st.mean_tau_normal, ".17g"), st.n_normal, p))
    _write_csv(path, "signal,group,mean_tau,n,p_value", rows)


def write_segments_csv(report, path):
    header = "asset_id,signal,group,segment_index,start_time,end_time,n_windows,tau,p_value"
    rows = [
        (r.asset_id, r.signal, r.group, r.segment_index, format(r.start_time, ".17g"),
         format(r.end_time, ".17g"), r.n_windows, format(r.tau, ".17g"),
         format(r.p_value, ".17g"))
        for r in report.segments
    ]
    _write_csv(path, header, rows)


# --------------------------------------------------------------------- #
# corpus synthesis

#: Every ``params`` key each asset kind reads, with its default.
PARAM_DEFAULTS = {
    "bm": dict(p0=0.0, sigma=0.001),
    "cpt": dict(r=1.0, mu_start=0.0, mu_end=0.36, sigma=0.03, p0=1.0),
    "spt": dict(r=1.0, lam=1.0, alpha_vol=0.01, p0=1.0),
    "dpt_hurst": dict(onset=0.0, scale=0.0015, h_start=0.5, h_end=0.9, p0=0.0),
    "dpt_stable": dict(onset=0.0, scale=0.0015, alpha_start=2.0, alpha_end=1.2, p0=0.0),
}
_KINDS = tuple(PARAM_DEFAULTS)


@dataclass
class AssetGroupSpec:
    """One homogeneous group of synthetic assets.

    ``n`` counts simulation steps; the observed series keeps every
    ``sample_every``-th point. ``forced_drop``, when set, appends a
    ``drop_len``-observation linear decline of that total fraction so a
    crash event is guaranteed at the end of the path.
    """

    kind: str
    count: int
    n: int = 2520
    dt: float = 1.0
    params: dict = field(default_factory=dict)
    sample_every: int = 1
    forced_drop: float = None
    drop_len: int = 40
    id_prefix: str = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown asset kind {self.kind!r}; pick from {_KINDS}")
        known = sorted(PARAM_DEFAULTS[self.kind])
        unknown = sorted(set(self.params) - set(known))
        if unknown:
            raise ValueError(f"unknown {self.kind} params {unknown}; known {known}")
        if self.count < 0 or self.n < 1 or self.dt <= 0 or self.sample_every < 1:
            raise ValueError("count, n, dt, sample_every out of range")
        if self.forced_drop is not None and not 0.0 < self.forced_drop < 1.0:
            raise ValueError("forced_drop must lie in (0, 1)")

    def to_dict(self):
        return asdict(self)


@dataclass
class CorpusSpec:
    groups: list = field(default_factory=list)

    @classmethod
    def from_dict(cls, d):
        groups = _from_dict(cls, d, "corpus spec").groups
        return cls([_from_dict(AssetGroupSpec, g, "asset group") for g in groups])

    def to_dict(self):
        return {"groups": [g.to_dict() for g in self.groups]}


def simulate_asset(kind, p, n, dt, t_start, seed):
    """Log-price path of ``n`` steps for asset ``kind``, a key of
    :data:`PARAM_DEFAULTS`, from its params ``p`` with every key given
    (``onset`` is not read); the kind's mu, H or alpha ramp starts at
    step ``t_start``. ``synth`` and ``simulate`` both draw through here."""
    if t_start < 0:
        raise ValueError(f"t_start must be an integer >= 0, got {t_start!r}")
    if kind == "bm":
        noise = sample_gaussian_increments(n, dt, seed)
        return p["p0"] + p["sigma"] * noise.path()
    if kind == "cpt":
        mu = MuSchedule(p["mu_start"], p["mu_end"], t_start=t_start)
        params = CptParams(r=p["r"], mu_schedule=mu, sigma=p["sigma"], p0=p["p0"])
        return simulate_cpt(params, n, dt, seed).values
    if kind == "spt":
        params = SptParams(r=p["r"], lam=p["lam"], alpha_vol=p["alpha_vol"], p0=p["p0"])
        return simulate_spt(params, n, dt, seed).values
    scale = p["scale"]  # dpt_hurst | dpt_stable: a flat noise law, then a ramp
    if kind == "dpt_hurst":
        sch = HurstSchedule(p["h_start"], p["h_end"], t_start=t_start)
    else:
        a0, a1 = p["alpha_start"], p["alpha_end"]
        sch = StableSchedule(a0, a1, t_start=t_start, scale=scale)
        scale = 1.0  # the stable schedule carries the scale
    return simulate_dpt(DptParams(sch, scale=scale, p0=p["p0"]), n, dt, seed).values


def synth_corpus(spec, seed):
    """Deterministic synthetic panel; asset ``j`` overall uses the RNG
    stream derived from ``(seed, j)``, and ``onset`` starts a group's
    ramp at step ``int(onset * n)``."""
    if isinstance(spec, dict):
        spec = CorpusSpec.from_dict(spec)
    out = []
    asset_index = 0
    for gi, group in enumerate(spec.groups):
        prefix = group.id_prefix if group.id_prefix is not None else f"{group.kind}{gi}_"
        p = {**PARAM_DEFAULTS[group.kind], **group.params}
        t_start = int(p.get("onset", 0.0) * group.n)
        for i in range(group.count):
            seed_i = derive_seed(seed, asset_index)
            values = simulate_asset(group.kind, p, group.n, group.dt, t_start, seed_i)
            values = values[:: group.sample_every]
            if group.forced_drop is not None:
                steps = np.arange(1, group.drop_len + 1) / group.drop_len
                values = np.concatenate(
                    [values, values[-1] + math.log1p(-group.forced_drop) * steps]
                )
            out.append(
                PriceSeries(
                    np.arange(values.size, dtype=float),
                    values,
                    f"{prefix}{i:03d}",
                )
            )
            asset_index += 1
    return out


# --------------------------------------------------------------------- #
# manifests and config parsing


@dataclass
class RunManifest:
    command: str
    config: dict
    seed: int
    tool_version: str = __version__
    input_digest: str = ""

    @staticmethod
    def digest_file(path):
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
        return h.hexdigest()

    @staticmethod
    def digest_config(obj):
        return hashlib.sha256(_dump_json(obj).encode()).hexdigest()

    def write(self, path):
        _atomic_write(path, _dump_json(asdict(self)))


#: JSON keys that differ from the field they fill.
_JSON_KEYS = {"ews_cfg": "ews"}

#: JSON value types a field takes besides its annotated type.
_ALSO_ACCEPTED = {float: (int,), tuple: (list,)}


def _from_dict(cls, d, what):
    """Dataclass ``cls`` from the JSON object ``d``.

    Keys are the field names (``ews`` for ``ews_cfg``); unknown or
    missing required keys raise ``ValueError``, and so does a value whose
    type is not the field's annotated type, an int for a float, a list for
    a tuple, or None where the default is None. Lists become tuples, and
    an object under a dataclass-typed field is built the same way.
    """
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(d).__name__}")
    by_key = {_JSON_KEYS.get(f.name, f.name): f for f in fields(cls)}
    unknown = sorted(set(d) - set(by_key))
    missing = [
        k for k, f in by_key.items()
        if k not in d and f.default is MISSING and f.default_factory is MISSING
    ]
    if unknown:
        raise ValueError(f"{what}: unknown keys {unknown}; known: {sorted(by_key)}")
    if missing:
        raise ValueError(f"{what}: missing keys {missing}")
    kw = {}
    for key, value in d.items():
        f = by_key[key]
        accepted = (f.type, *_ALSO_ACCEPTED.get(f.type, ()))
        if is_dataclass(f.type):
            value = _from_dict(f.type, value, key)
        elif type(value) not in accepted and not (value is None and f.default is None):
            raise ValueError(
                f"{what}: {key} must be {f.type.__name__}, got {type(value).__name__}"
            )
        elif isinstance(value, list):
            value = tuple(value)
        kw[f.name] = value
    try:
        return cls(**kw)
    except TypeError as exc:  # an element of the wrong JSON type
        raise ValueError(f"{what}: {exc}") from exc


def window_config_from_dict(d):
    return _from_dict(WindowConfig, d, "window config")


def study_config_from_dict(d):
    return _from_dict(StudyConfig, d, "study config")
