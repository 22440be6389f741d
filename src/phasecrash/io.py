"""CSV/JSON ingestion and serialisation, corpus synthesis, run manifests.

Price files use the fixed schema ``date,ticker,close`` (ISO dates, UTF-8,
header required). Dates load as ``YYYY-MM-DD`` however they are spelt,
and sort, match and intersect in that form. Timestamps become integer
observation indices per ticker; calendar gaps are not interpolated. On
write, closes carry 17 significant digits and are nudged within a few
ulps so that the loader's ``np.log(float(close))`` reproduces the
in-memory log-price bit-exactly for |log-price| >= 1, that is, for
prices outside (1/e, e). Closer to 1.0 the log grid outruns the price
grid, and the round trip is exact only to one representable price,
under 3e-16. Write/load/write is byte-stable in all cases. Ids must be
nonempty, unpadded, free of carriage returns and unique, or they would
not load back; the writer and ``synth_corpus`` refuse any other. The
loader parses ``_CHUNK_ROWS`` records at a time and keeps three numbers
a row (ticker code, date ordinal, close), and the writer streams one
series at a time. Every other CSV writes a float cell with 17
significant digits, which parses back to the same double.

JSON configs and corpus specs are keyed by dataclass field names;
unknown keys raise a ``ValueError`` that names them, and so does a
value of the wrong type that the dataclass refuses.

Every CLI command emits a ``manifest.json`` recording the resolved
configuration, seed, tool version, and a content hash of the inputs;
re-running the command with the same manifest inputs reproduces outputs
byte-identically. All files are written atomically (temp file + rename).
JSON outputs are strict JSON: a non-finite float is written as ``null``.
"""

import csv
import hashlib
import json
import logging
import math
import os
import tempfile
from collections import Counter
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from datetime import date, timedelta
from io import StringIO
from itertools import chain, islice
from operator import attrgetter

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
    _check_finite,
    simulate_cpt,
    simulate_dpt,
    simulate_spt,
)
from .study import SegmentTrend, StudyConfig

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


@contextmanager
def _atomic_file(path):
    """A text handle on a temp file that replaces ``path`` when the block
    exits normally, and is removed when it raises."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write(path, text):
    with _atomic_file(path) as fh:
        fh.write(text)


def _write_csv(path, header, rows):
    """Write the comma-separated column names ``header``, then ``rows``;
    a float cell is written with 17 significant digits, and only fields
    holding a comma, a quote or a line break get quoted."""
    buf = StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header.split(","))
    cells = ([format(v, ".17g") if isinstance(v, float) else v for v in row] for row in rows)
    writer.writerows(cells)
    _atomic_write(path, buf.getvalue())


def _dump_json(obj):
    strict = json.loads(json.dumps(obj), parse_constant=lambda _: None)
    return json.dumps(strict, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _raise_first_bad_row(path):
    """Raise the CsvParseError of the first bad data row of the price file
    at ``path`` (file lines 2, 3, ...); a row is checked in the order below."""
    seen = set()
    with open(path, encoding="utf-8", newline="") as fh:
        records = csv.reader(fh)
        next(records, None)  # the header
        for lineno, row in enumerate(records, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            where = f"{path}:{lineno}"
            if len(row) != 3:
                raise CsvParseError(f"{where}: expected 3 fields", line=lineno)
            raw_date, ticker, raw_close = (f.strip() for f in row)
            try:
                day = date.fromisoformat(raw_date)
            except ValueError as exc:
                msg = f"bad date {raw_date!r}: {exc}"
                raise CsvParseError(f"{where}: {msg}", line=lineno) from exc
            if not ticker:
                raise CsvParseError(f"{where}: empty ticker", line=lineno)
            try:
                close = float(raw_close)
            except ValueError as exc:
                msg = f"bad close {raw_close!r}"
                raise CsvParseError(f"{where}: {msg}", line=lineno) from exc
            if not close > 0 or not math.isfinite(close):
                msg = f"close must be positive and finite, got {raw_close}"
                raise CsvParseError(f"{where}: {msg}", line=lineno)
            if (ticker, day) in seen:
                msg = f"duplicate (ticker, date) = ({ticker}, {raw_date})"
                raise CsvParseError(f"{where}: {msg}", line=lineno)
            seen.add((ticker, day))


#: Records parsed at a time by load_price_csv: only one chunk's row lists
#: are alive, a few MB of Python objects.
_CHUNK_ROWS = 1 << 14


def _chunk_columns(reader, rank, code, ordinal):
    """Ticker codes, date ordinals and closes of the next ``_CHUNK_ROWS``
    records of ``reader``; None once it is exhausted, and ``()`` if a
    data row fails a check. ``rank`` (stripped ticker -> rank of its
    first appearance), ``code`` (raw ticker -> rank) and ``ordinal`` (raw
    date -> ordinal) carry over from chunk to chunk."""
    records = list(islice(reader, _CHUNK_ROWS))
    if not records:
        return None
    rows = [row for row in records if len(row) > 1 or (row and row[0].strip())]
    if any(len(row) != 3 for row in rows):
        return ()
    raw_dates, raw_tickers, raw_closes = ([row[k] for row in rows] for k in range(3))
    for t in dict.fromkeys(raw_tickers):
        if t not in code:
            code[t] = rank.setdefault(t.strip(), len(rank))
    try:
        for s in set(raw_dates).difference(ordinal):
            ordinal[s] = date.fromisoformat(s.strip()).toordinal()
        closes = np.array(raw_closes, dtype=float)  # parses as float() does
    except ValueError:
        return ()
    if "" in rank or not np.all((closes > 0) & np.isfinite(closes)):
        return ()
    tick = np.array([code[t] for t in raw_tickers], dtype=np.int64)
    day = np.array([ordinal[s] for s in raw_dates], dtype=np.int64)
    return tick, day, closes


def load_price_csv(path, calendar="as_is"):
    """Read ``date,ticker,close`` rows into one PriceSeries per ticker, in
    first-appearance order, each sorted by its ``YYYY-MM-DD`` dates.

    ``calendar="intersect"`` restricts every series to the common date
    set, which aligns the panel for cross-covariance work.
    """
    if calendar not in ("as_is", "intersect"):
        raise ValueError(f"unknown calendar mode {calendar!r}")
    rank, code, ordinal, parts = {}, {}, {}, []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if [h.strip().lower() for h in header or ()] != ["date", "ticker", "close"]:
            msg = f"expected header 'date,ticker,close', got {header}"
            raise CsvParseError(f"{path}: {msg}", line=1)
        # Each check runs once per column or per distinct value; when one
        # fails, the file is read again to report its first bad row.
        while part := _chunk_columns(reader, rank, code, ordinal):
            parts.append(part)
    if part is not None:  # a row failed a check
        _raise_first_bad_row(path)
    if not rank:
        return []
    tick, day, closes = map(np.concatenate, zip(*parts))
    del parts
    order = np.lexsort((day, tick))
    tick, day, lp = tick[order], day[order], np.log(closes)[order]
    if np.any((tick[1:] == tick[:-1]) & (day[1:] == day[:-1])):
        _raise_first_bad_row(path)
    if calendar == "intersect":
        _, inverse, per_day = np.unique(day, return_inverse=True, return_counts=True)
        common = per_day[inverse] == len(rank)
        if not common.any():
            log.warning("%s: no common dates across tickers; empty result", path)
            return []
        tick, day, lp = tick[common], day[common], lp[common]
    cuts = np.flatnonzero(np.diff(tick)) + 1
    iso = {o: date.fromordinal(o).isoformat() for o in np.unique(day).tolist()}
    return [
        PriceSeries(np.arange(d.size, dtype=float), x, t, tuple(iso[o] for o in d.tolist()))
        for t, d, x in zip(rank, np.split(day, cuts), np.split(lp, cuts))
    ]


def _csv_field(text):
    """``text`` quoted as the csv module quotes one field of a row."""
    buf = StringIO()
    csv.writer(buf, lineterminator="\n").writerow((text, ""))
    return buf.getvalue()[:-2]  # drop the empty second field's "," and the "\n"


def _closes(log_prices):
    """Closes whose ``np.log``, the loader's log, gives back ``log_prices``: the
    first of exp, down, up, down², up² (nearest doubles) that does, else exp."""
    c = np.exp(log_prices)
    down, up = np.nextafter(c, 0.0), np.nextafter(c, np.inf)
    cands = [c, down, up, np.nextafter(down, 0.0), np.nextafter(up, np.inf)]
    with np.errstate(divide="ignore"):  # an exp that underflowed to 0
        exact = [(k > 0) & (np.log(k) == log_prices) for k in cands]
    return np.select(exact, cands, default=c)


def _check_ids(ids):
    """Refuse ids that would not load back as distinct tickers: the loader
    refuses an empty ticker, strips every field, ends a row at a carriage
    return (csv leaves it unquoted) and merges the rows of one ticker."""
    for what, bad in (
        ("empty ids", [i for i in ids if not i]),
        ("ids with leading or trailing whitespace", [i for i in ids if i != i.strip()]),
        ("ids with a carriage return", [i for i in ids if "\r" in i]),
        ("duplicate ids", [i for i, n in Counter(ids).items() if n > 1]),
    ):
        if bad:
            raise ValueError(f"{what}: {bad!r}")


def write_price_csv(series_list, path):
    """Serialise series back to ``date,ticker,close`` with 17-digit closes;
    ids that break the id rule of :func:`_check_ids` are refused."""
    _check_ids([s.id for s in series_list])
    n_synthetic = max((len(s) for s in series_list if s.dates is None), default=0)
    calendar = [(_BASE_DATE + timedelta(days=i)).isoformat() for i in range(n_synthetic)]
    with _atomic_file(path) as fh:
        fh.write("date,ticker,close\n")
        for s in series_list:
            row = "%s," + _csv_field(s.id).replace("%", "%%") + ",%.17g\n"
            dates = calendar[: len(s)] if s.dates is None else s.dates
            closes = _closes(s.log_prices).tolist()
            fh.write(row * len(s) % tuple(chain.from_iterable(zip(dates, closes))))


def write_ews_csv(ews_list, path):
    """Long-format signal CSV: asset_id, signal, window_end_time, value,
    missing_flag."""
    rows = []
    for e in ews_list:
        for t, v in zip(e.times.tolist(), e.values.tolist()):
            missing = not math.isfinite(v)
            rows.append((e.id, e.signal, t, "" if missing else v, int(missing)))
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
        rows.append((name, "pre", st.mean_tau_pre, st.n_pre, st.p_value))
        rows.append((name, "normal", st.mean_tau_normal, st.n_normal, st.p_value))
    _write_csv(path, "signal,group,mean_tau,n,p_value", rows)


def write_segments_csv(report, path):
    names = [f.name for f in fields(SegmentTrend)]
    _write_csv(path, ",".join(names), map(attrgetter(*names), report.segments))


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
    crash event is guaranteed at the end of the path. ``dpt_hurst`` with H
    0.5 -> 0.9 over 2520 steps raises GenerationError for ``onset`` > ~0.985.
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
        for key, value in self.params.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(
                    f"{self.kind} params: {key} must be float, got {type(value).__name__}"
                )
        onset = self.params.get("onset", 0.0)
        if not 0.0 <= onset < 1.0:
            raise ValueError(f"{self.kind} params: onset must lie in [0, 1), got {onset!r}")
        for name, lo in (("count", 0), ("n", 1), ("sample_every", 1), ("drop_len", 1)):
            value = getattr(self, name)
            if value < lo:
                raise ValueError(f"asset group: {name} must be >= {lo}, got {value!r}")
        if not 0 < self.dt < math.inf:
            raise ValueError(f"asset group: dt must be finite and > 0, got {self.dt!r}")
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
        _check_finite(sigma=p["sigma"], p0=p["p0"])
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
    ramp at step ``int(onset * n)``. Ids are checked before any draw."""
    if isinstance(spec, dict):
        spec = CorpusSpec.from_dict(spec)
    ids = []
    for gi, group in enumerate(spec.groups):
        prefix = group.id_prefix if group.id_prefix is not None else f"{group.kind}{gi}_"
        ids.append([f"{prefix}{i:03d}" for i in range(group.count)])
    _check_ids([i for group_ids in ids for i in group_ids])
    out = []
    asset_index = 0
    for group, group_ids in zip(spec.groups, ids):
        p = {**PARAM_DEFAULTS[group.kind], **group.params}
        t_start = int(p.get("onset", 0.0) * group.n)
        for asset_id in group_ids:
            seed_i = derive_seed(seed, asset_index)
            values = simulate_asset(group.kind, p, group.n, group.dt, t_start, seed_i)
            values = values[:: group.sample_every]
            if group.forced_drop is not None:
                steps = np.arange(1, group.drop_len + 1) / group.drop_len
                values = np.concatenate(
                    [values, values[-1] + math.log1p(-group.forced_drop) * steps]
                )
            out.append(PriceSeries(np.arange(values.size, dtype=float), values, asset_id))
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
