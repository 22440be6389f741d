"""Slow reference oracles for the CSV functions of ``phasecrash.io``.

``write_price_csv`` picks each close with scalar ``math.exp`` and
``math.log`` and writes every row through ``csv.writer``;
``phasecrash.io`` picks all closes of a series at once with ``np.exp``,
``np.nextafter`` and the loader's own ``np.log``. Both try the same
candidates in the same order, so they differ only where ``math`` and
``numpy`` disagree in the last bit.

``write_ews_csv`` writes every row through ``csv.writer``, each float
with ``format(v, ".17g")``; ``phasecrash.io`` writes a series through
one ``%`` template. The two files must be byte-identical.

``load_price_csv`` checks, canonicalises and collects one row at a
time, and finds a repeated (ticker, date) pair with a set as it goes;
``phasecrash.io`` splits plain chunks of lines by column, parses each
distinct date spelling and ticker once, keeps four numbers a row and
finds repeated pairs with one sort. Both must return the same series,
and raise the same error, message and line.
"""

import csv
import math
from datetime import date, timedelta

import numpy as np

from phasecrash.errors import CsvParseError
from phasecrash.ews import PriceSeries

_BASE_DATE = date(2000, 1, 3)


def close_repr(log_price):
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


def write_price_csv(series_list, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("date", "ticker", "close"))
        for s in series_list:
            dates = s.dates
            if dates is None:
                dates = [(_BASE_DATE + timedelta(days=i)).isoformat() for i in range(len(s))]
            for d, lp in zip(dates, s.log_prices):
                writer.writerow((d, s.id, close_repr(float(lp))))


def write_ews_csv(ews_list, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("asset_id", "signal", "window_end_time", "value", "missing_flag"))
        for e in ews_list:
            for t, v, gap in zip(e.times.tolist(), e.values.tolist(), e.missing.tolist()):
                value = "" if gap else format(v, ".17g")
                writer.writerow((e.id, e.signal, format(t, ".17g"), value, int(gap)))


def load_price_csv(path, calendar="as_is"):
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
        start = reader.line_num + 1  # a record is named by its first line
        for row in reader:
            lineno, start = start, reader.line_num + 1
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 3:
                raise CsvParseError(f"{path}:{lineno}: expected 3 fields", line=lineno)
            raw_date, ticker, raw_close = (f.strip() for f in row)
            try:
                day = date.fromisoformat(raw_date).isoformat()
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
            if (ticker, day) in seen:
                raise CsvParseError(
                    f"{path}:{lineno}: duplicate (ticker, date) = "
                    f"({ticker}, {raw_date})",
                    line=lineno,
                )
            seen.add((ticker, day))
            by_ticker.setdefault(ticker, []).append((day, close))

    if calendar == "intersect" and by_ticker:
        common = set.intersection(*(set(d for d, _ in rows) for rows in by_ticker.values()))
        if not common:
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
        out.append(PriceSeries(np.arange(len(rows), dtype=float), lp, ticker, dates))
    return out
