"""CSV/JSON ingestion and serialisation, corpus synthesis, run manifests.

Price files use the fixed schema ``date,ticker,close`` (ISO dates, UTF-8,
header required). Dates load as ``YYYY-MM-DD`` however they are spelt,
and sort and match in that form. Timestamps become integer observation
indices per ticker, each on its own dates; gaps are not interpolated. On
write, closes carry 17 significant digits and are nudged within a few
ulps so that the loader's ``np.log(float(close))`` reproduces the
in-memory log-price bit-exactly for |log-price| >= 1, that is, for
prices outside (1/e, e). Closer to 1.0 the log grid outruns the price
grid, and the round trip is exact only to one representable price,
under 3e-16. Write/load/write is byte-stable in all cases. Ids must be
nonempty, unpadded, free of carriage returns and unique, or they would
not load back; the writer and ``synth_corpus`` refuse any other. The
loader reads the file once, in chunks of whole lines of about 64 K
characters. A chunk with no quote, NUL or carriage return, other than
those that end a line as ``\\r\\n`` does in a Windows export, is split with
``str.split`` and checked a column at a time: each distinct date
spelling and raw ticker once, every close by one ``map(float, ...)``.
From the first chunk that is not plain, or that holds a row with a wrong
field count, a blank row or a bad field, the csv reader takes the rows
one at a time to the end of the file, and only it words an error. Both
paths keep four numbers a row (ticker rank, date-spelling index, close,
first line). Every CSV streams into its atomic file, the price and signal CSVs a
series at a time through one ``%`` template each. Floats other than
closes are written with 17 significant digits, which parse back to the
same doubles. The loader skips a leading UTF-8 byte-order mark, as
spreadsheets write.

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
import math
import os
import tempfile
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from datetime import date, timedelta
from io import StringIO
from itertools import chain
from operator import attrgetter

import numpy as np

from . import __version__
from .errors import CsvParseError, check_int, check_real
from .ews import PriceSeries, WindowConfig
from .noise import HurstSchedule, StableSchedule, _seed_list, sample_gaussian_increments
from .simulate import (
    CptParams,
    DptParams,
    MuSchedule,
    SptParams,
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

_BASE_DATE = date(2000, 1, 3)  # synthetic calendars start here


def derive_seed(master, *indices):
    """Deterministic child seed for (master, index...): the splitting
    rule used for per-asset and per-piece RNG streams."""
    seq = np.random.SeedSequence([int(master), *[int(i) for i in indices]])
    return int(seq.generate_state(1, dtype=np.uint64)[0])


@contextmanager
def _atomic_file(path):
    """A text handle on a temp file that replaces ``path`` when the block
    exits normally, and is removed when it raises. The file gets the mode
    ``open`` would give it under the umask, not mkstemp's 0600."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            yield fh
        umask = os.umask(0)  # the only way to read it; the package runs no threads
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write(path, text):
    with _atomic_file(path) as fh:
        fh.write(text)


def _write_csv(path, header, rows):
    """Stream the column names ``header``, then ``rows``, into the atomic
    file at ``path``; a float cell is written with 17 significant digits,
    and only fields holding a comma, a quote or a line break get quoted."""
    with _atomic_file(path) as fh:
        fh.write(header + "\n")
        cells = ([format(v, ".17g") if isinstance(v, float) else v for v in row] for row in rows)
        csv.writer(fh, lineterminator="\n").writerows(cells)


def _dump_json(obj):
    strict = json.loads(json.dumps(obj), parse_constant=lambda _: None)
    return json.dumps(strict, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _undecodable_byte(path, start, row):
    """The CsvParseError naming the first byte of ``row`` that is not UTF-8,
    at that byte's own line, or None if every byte decodes. ``row`` is a
    record read with ``errors="surrogateescape"`` that starts on line
    ``start``."""
    text = ",".join(row)
    try:
        text.encode("utf-8")  # an escaped byte is a lone surrogate, which does not encode
    except UnicodeEncodeError as exc:
        head = text[: exc.start]  # only a quoted field holds line breaks, kept as read
        line = start + head.count("\n") + head.count("\r") - head.count("\r\n")
        msg = f"cannot decode byte 0x{ord(text[exc.start]) - 0xDC00:02x} as UTF-8"
        return CsvParseError(f"{path}:{line}: {msg}", line=line)
    return None


#: Characters the loader reads at a time, then up to the end of that line.
#: A chunk shorter than csv's field size limit cannot hold a field over it.
_CHUNK = 1 << 16


def _plain_rows(text, spelling, ordinals, code, rank):
    """The ticker ranks, date-spelling indices and closes of ``text``, whole
    lines of ``date,ticker,close`` rows, split by column; or None when a
    row needs the csv reader's row loop: ``text`` holds a quote, a NUL, a
    carriage return that is not the first half of a ``\\r\\n`` or a byte
    that is not UTF-8, is as long as csv's field size limit, or has a row
    with a wrong field count (a blank row among them) or a field that the
    row loop refuses. Each ``\\r\\n`` reads as ``\\n``, as the csv reader
    ends a row at either. Each distinct date spelling and raw ticker is
    checked once, and a new one is entered in ``spelling`` and
    ``ordinals``, or ``code`` and ``rank``, as the row loop enters it."""
    if not text or len(text) >= csv.field_size_limit():
        return None
    if "\r" in text:  # "in" clears an LF chunk some 80 times faster than replace
        text = text.replace("\r\n", "\n")
    if any(c in text for c in '"\r\0'):
        return None
    try:
        text.encode("utf-8")  # a byte that is not UTF-8 was read as a lone surrogate
    except UnicodeEncodeError:
        return None
    body = text[:-1] if text[-1] == "\n" else text
    n = body.count("\n") + 1
    # each line break ends the field before it: a row's close, when every
    # row has three fields and every break sits in a close
    fields = body.replace("\n", "\n,").split(",")
    dates, tickers, raw_closes = fields[0::3], fields[1::3], fields[2::3]
    if len(fields) != 3 * n or "".join(raw_closes).count("\n") != n - 1:
        return None
    try:
        closes = array("d", map(float, raw_closes))  # float() strips as str.strip() does
    except ValueError:
        return None
    c = np.frombuffer(closes)
    if not ((c > 0.0) & (c < math.inf)).all():
        return None
    for raw_date in set(dates).difference(spelling):
        try:
            ordinals.append(date.fromisoformat(raw_date.strip()).toordinal())
        except ValueError:
            return None
        spelling[raw_date] = len(spelling)
    for raw_ticker in dict.fromkeys(tickers):  # first-appearance order
        if raw_ticker not in code:
            ticker = raw_ticker.strip()
            if not ticker:
                return None
            code[raw_ticker] = rank.setdefault(ticker, len(rank))
    ticks = array("i", map(code.__getitem__, tickers))
    return ticks, array("i", map(spelling.__getitem__, dates)), closes


def load_price_csv(path):
    """Read ``date,ticker,close`` rows into one PriceSeries per ticker, in
    first-appearance order, each sorted by its ``YYYY-MM-DD`` dates.

    The file is read in chunks of whole lines. A plain chunk is split by
    columns (:func:`_plain_rows`); from the first chunk that is not, the
    csv reader takes each row in turn to the end of the file and checks
    its field count, date, ticker and close, each distinct date spelling
    and raw ticker only on first sight. Either way a row keeps four
    numbers. A failing row is reported by its first line, or by the line
    of a byte in it that is not UTF-8; a row that repeats an earlier
    row's (ticker, date) pair is found by one stable sort, at the end or
    at the first other failure, and is reported if it comes first."""
    rank, code, spelling, ordinals = {}, {}, {}, []
    # per data row: ticker rank, date-spelling index, close, first line
    ticks, spells, closes, lines = array("i"), array("i"), array("d"), array("q")
    error = None
    with open(path, encoding="utf-8-sig", errors="surrogateescape", newline="") as fh:
        reader, before = csv.reader(fh), 0  # before: lines ahead of the reader's first
        try:
            header = next(reader, None)
            if [h.strip().lower() for h in header or ()] != ["date", "ticker", "close"]:
                msg = f"expected header 'date,ticker,close', got {header}"
                raise _undecodable_byte(path, 1, header or ()) or CsvParseError(
                    f"{path}: {msg}", line=1
                )
            start = reader.line_num + 1
            while True:
                text = fh.read(_CHUNK)
                if text[-1:] not in ("\n", ""):
                    text += fh.readline()
                plain = _plain_rows(text, spelling, ordinals, code, rank)
                if plain is None:
                    break
                for column, values in zip((ticks, spells, closes), plain):
                    column.extend(values)
                lines.frombytes(np.arange(start, start + len(plain[0])).tobytes())
                start += text.count("\n")
            reader, before = csv.reader(chain(StringIO(text, newline=""), fh)), start - 1
            for row in reader:
                lineno, start = start, before + reader.line_num + 1
                if len(row) != 3:
                    if len(row) > 1 or (row and row[0].strip()):
                        msg = "expected 3 fields"
                        break
                    continue  # a blank row
                raw_date, raw_ticker, raw_close = row
                d = spelling.get(raw_date)
                if d is None:
                    try:
                        ordinals.append(date.fromisoformat(raw_date.strip()).toordinal())
                    except ValueError as exc:
                        msg = f"bad date {raw_date.strip()!r}: {exc}"
                        break
                    d = spelling[raw_date] = len(spelling)
                t = code.get(raw_ticker)
                if t is None:
                    ticker = raw_ticker.strip()
                    # a bad byte fails a date's parse but not this check: look for it
                    if not ticker or _undecodable_byte(path, lineno, row):
                        msg = "empty ticker"
                        break
                    t = code[raw_ticker] = rank.setdefault(ticker, len(rank))
                try:
                    close = float(raw_close)  # float() strips as str.strip() does
                except ValueError:
                    msg = f"bad close {raw_close.strip()!r}"
                    break
                if not 0.0 < close < math.inf:
                    msg = f"close must be positive and finite, got {raw_close.strip()}"
                    break
                ticks.append(t)
                spells.append(d)
                closes.append(close)
                lines.append(lineno)
            else:
                row = None
            if row is not None:  # the first failing row, checked for a bad byte first
                error = _undecodable_byte(path, lineno, row) or CsvParseError(
                    f"{path}:{lineno}: {msg}", line=lineno
                )
        except csv.Error as exc:
            line = before + reader.line_num
            error = CsvParseError(f"{path}:{line}: {exc}", line=line)
    tick = np.frombuffer(ticks, dtype=np.int32)
    day = np.array(ordinals, dtype=np.int32)[np.frombuffer(spells, dtype=np.int32)]
    order = np.lexsort((day, tick))
    tick, day = tick[order], day[order]
    dup = (tick[1:] == tick[:-1]) & (day[1:] == day[:-1])
    if dup.any():  # the stable sort puts a pair's later rows after its first
        i = int(order[1:][dup].min())
        lineno, ticker, raw_date = lines[i], list(rank)[ticks[i]], list(spelling)[spells[i]]
        msg = f"duplicate (ticker, date) = ({ticker}, {raw_date.strip()})"
        raise CsvParseError(f"{path}:{lineno}: {msg}", line=lineno)
    if error is not None:
        raise error
    lp = np.frombuffer(closes)[order]
    del ticks, spells, closes, lines, order  # the series built below set the peak
    np.log(lp, out=lp)
    cuts = np.flatnonzero(np.diff(tick)) + 1
    iso = {o: date.fromordinal(o).isoformat() for o in ordinals}
    return [
        PriceSeries(np.arange(d.size, dtype=float), x, t, tuple(map(iso.__getitem__, d.tolist())))
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
    missing_flag; a missing value is an empty cell with flag 1. Each
    series goes through one ``%`` template, a row of it per window."""
    with _atomic_file(path) as fh:
        fh.write("asset_id,signal,window_end_time,value,missing_flag\n")
        for e in ews_list:
            head = f"{_csv_field(e.id)},{_csv_field(e.signal)},".replace("%", "%%")
            rows = (head + "%.17g,%.17g,0\n", head + "%.17g,%.0s,1\n")  # %.0s prints nothing
            template = "".join(map(rows.__getitem__, e.missing.tolist()))
            cells = chain.from_iterable(zip(e.times.tolist(), e.values.tolist()))
            fh.write(template % tuple(cells))


def write_events_json(events, path, skipped=()):
    """Events and the ``{asset_id, reason}`` records of skipped series."""
    doc = {"events": [e.to_dict() for e in events], "skipped": list(skipped)}
    _atomic_write(path, _dump_json(doc))


def write_fit_json(fit, path):
    _atomic_write(path, _dump_json(fit.to_dict()))


def write_report_json(report, path):
    _atomic_write(path, _dump_json(report.to_dict()))


def write_report_csv(report, path):
    def rows():
        for name, st in report.signals.items():
            yield name, "pre", st.mean_tau_pre, st.n_pre, st.p_value
            yield name, "normal", st.mean_tau_normal, st.n_normal, st.p_value

    _write_csv(path, "signal,group,mean_tau,n,p_value", rows())


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
    ``drop_len``-observation linear decline of that total fraction at the
    end of the path. It need not be the asset's crash event: a path that
    falls past the crash threshold before the drop has its event there.
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
        check_real("[0, 1)", **{f"{self.kind} params: onset": self.params.get("onset")})
        for name, lo in (("count", 0), ("n", 1), ("sample_every", 1), ("drop_len", 1)):
            setattr(self, name, check_int(f"asset group: {name}", getattr(self, name), lo))
        check_real("(0, inf)", **{"asset group: dt": self.dt})
        check_real("(0, 1)", **{"asset group: forced_drop": self.forced_drop})

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
    step ``t_start``. ``synth`` and ``simulate`` both draw through here.

    ``seed`` is an int, for one path, or a sequence of ints, for a list of
    paths, each the one its seed draws alone; ``dpt_hurst`` draws the
    sequence in one :func:`~phasecrash.simulate.simulate_dpt` call."""
    check_int("t_start", t_start, 0)
    seeds, one = _seed_list(seed)
    if kind == "bm":
        check_real(p0=p["p0"])
        check_real("[0, inf)", sigma=p["sigma"])
        paths = [p["p0"] + p["sigma"] * sample_gaussian_increments(n, dt, s).path()
                 for s in seeds]
    elif kind == "cpt":
        mu = MuSchedule(p["mu_start"], p["mu_end"], t_start=t_start)
        params = CptParams(r=p["r"], mu_schedule=mu, sigma=p["sigma"], p0=p["p0"])
        paths = [simulate_cpt(params, n, dt, s).values for s in seeds]
    elif kind == "spt":
        params = SptParams(r=p["r"], lam=p["lam"], alpha_vol=p["alpha_vol"], p0=p["p0"])
        paths = [simulate_spt(params, n, dt, s).values for s in seeds]
    else:
        scale = p["scale"]  # dpt_hurst | dpt_stable: a flat noise law, then a ramp
        if kind == "dpt_hurst":
            sch = HurstSchedule(p["h_start"], p["h_end"], t_start=t_start)
        else:
            a0, a1 = p["alpha_start"], p["alpha_end"]
            sch = StableSchedule(a0, a1, t_start=t_start, scale=scale)
            scale = 1.0  # the stable schedule carries the scale
        params = DptParams(sch, scale=scale, p0=p["p0"])
        paths = [path.values for path in simulate_dpt(params, n, dt, seeds)]
    return paths[0] if one else paths


def synth_corpus(spec, seed):
    """Deterministic synthetic panel; asset ``j`` overall uses the RNG
    stream derived from ``(seed, j)``, and ``onset`` starts a group's
    ramp at step ``int(onset * n)``. Ids are checked before any draw, and
    each group is drawn in one :func:`simulate_asset` call."""
    if isinstance(spec, dict):
        spec = CorpusSpec.from_dict(spec)
    ids = []
    for gi, group in enumerate(spec.groups):
        prefix = group.id_prefix if group.id_prefix is not None else f"{group.kind}{gi}_"
        ids.append([f"{prefix}{i:03d}" for i in range(group.count)])
    _check_ids([i for group_ids in ids for i in group_ids])
    out = []
    for group, group_ids in zip(spec.groups, ids):
        p = {**PARAM_DEFAULTS[group.kind], **group.params}
        t_start = int(p.get("onset", 0.0) * group.n)
        seeds = [derive_seed(seed, len(out) + i) for i in range(group.count)]
        paths = simulate_asset(group.kind, p, group.n, group.dt, t_start, seeds)
        for asset_id, values in zip(group_ids, paths):
            values = values[:: group.sample_every]
            if group.forced_drop is not None:
                steps = np.arange(1, group.drop_len + 1) / group.drop_len
                values = np.concatenate(
                    [values, values[-1] + math.log1p(-group.forced_drop) * steps]
                )
            out.append(PriceSeries(np.arange(values.size, dtype=float), values, asset_id))
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
    return cls(**kw)


def _to_dict(obj):
    """Dataclass ``obj`` keyed as :func:`_from_dict` reads it."""
    return {_JSON_KEYS.get(k, k): v for k, v in asdict(obj).items()}


def window_config_from_dict(d):
    return _from_dict(WindowConfig, d, "window config")


def study_config_from_dict(d):
    return _from_dict(StudyConfig, d, "study config")
