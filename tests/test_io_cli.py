import csv
import gc
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import astuple
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

import phasecrash as pc
import phasecrash.cli as pc_cli
import phasecrash.io as pc_io
from phasecrash.cli import build_parser, cli_dispatch
from phasecrash.errors import (
    AlignmentError,
    CsvParseError,
    DegenerateDesignError,
    FitFailureError,
    GenerationError,
    InsufficientDataError,
    SimulationOverflowError,
)
from phasecrash.io import (
    PARAM_DEFAULTS,
    AssetGroupSpec,
    CorpusSpec,
    RunManifest,
    derive_seed,
    load_price_csv,
    study_config_from_dict,
    synth_corpus,
    write_ews_csv,
    write_price_csv,
    write_report_csv,
    write_segments_csv,
)
from phasecrash.simulate import CptParams, MuSchedule, simulate_cpt
from phasecrash.study import SegmentTrend, SignalTrend, TrendReport

import io_reference
from conftest import readme_json_blocks


def _read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _write(tmp_path, text, name="prices.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------- loading


def test_load_two_rows(tmp_path):
    path = _write(tmp_path, "date,ticker,close\n2020-01-02,AAA,100\n2020-01-03,AAA,110\n")
    series = load_price_csv(path)
    assert len(series) == 1
    s = series[0]
    assert s.id == "AAA"
    assert np.array_equal(s.times, [0.0, 1.0])
    assert np.allclose(s.log_prices, [math.log(100), math.log(110)])
    assert s.dates == ("2020-01-02", "2020-01-03")


def test_load_sorts_by_date(tmp_path):
    path = _write(tmp_path, "date,ticker,close\n2020-01-03,A,110\n2020-01-02,A,100\n")
    (s,) = load_price_csv(path)
    assert s.dates == ("2020-01-02", "2020-01-03")
    assert s.log_prices[0] == math.log(100)


def test_load_intersect_disjoint_warns_empty(tmp_path, caplog):
    text = "date,ticker,close\n2020-01-02,A,100\n2020-01-03,B,50\n"
    path = _write(tmp_path, text)
    with caplog.at_level("WARNING", logger="phasecrash"):
        out = load_price_csv(path, calendar="intersect")
    assert out == []
    assert any("no common dates" in r.message for r in caplog.records)


def test_load_intersect_aligns(tmp_path):
    text = (
        "date,ticker,close\n"
        "2020-01-02,A,100\n2020-01-03,A,101\n2020-01-06,A,102\n"
        "2020-01-03,B,50\n2020-01-06,B,51\n"
    )
    out = load_price_csv(_write(tmp_path, text), calendar="intersect")
    assert {s.id for s in out} == {"A", "B"}
    for s in out:
        assert s.dates == ("2020-01-03", "2020-01-06")
        assert np.array_equal(s.times, [0.0, 1.0])


def test_load_nonpositive_close_names_line(tmp_path):
    path = _write(tmp_path, "date,ticker,close\n2020-01-02,A,100\n2020-01-03,A,-5\n")
    with pytest.raises(CsvParseError) as exc:
        load_price_csv(path)
    assert exc.value.line == 3


_MALFORMED = [
    ("2020-01-02,A,100\n2020-01-02,A,101\n", 3),  # duplicate (ticker, date)
    ("02/01/2020,A,100\n", 2),  # bad date
    ("2020-01-02,A,ten\n", 2),  # bad close
    ("2020-01-02,,100\n", 2),  # empty ticker
    ("2020-01-02,A\n", 2),  # wrong arity
]


@pytest.mark.parametrize("body,line", _MALFORMED)
def test_load_malformed_rows(tmp_path, body, line):
    path = _write(tmp_path, "date,ticker,close\n" + body)
    with pytest.raises(CsvParseError) as exc:
        load_price_csv(path)
    assert exc.value.line == line


def test_load_bad_header(tmp_path):
    path = _write(tmp_path, "time,symbol,price\n2020-01-02,A,100\n")
    with pytest.raises(CsvParseError) as exc:
        load_price_csv(path)
    assert exc.value.line == 1


needs_311 = pytest.mark.skipif(
    sys.version_info < (3, 11), reason="date.fromisoformat reads only YYYY-MM-DD before 3.11"
)


@needs_311
def test_load_same_date_in_three_spellings_is_a_duplicate(tmp_path):
    body = "2000-01-04,A,101\n2000-01-03,A,100\n20000103,A,102\n2000-W01-1,A,103\n"
    path = _write(tmp_path, "date,ticker,close\n" + body)
    with pytest.raises(CsvParseError) as exc:
        load_price_csv(path)
    assert exc.value.line == 4
    assert str(exc.value) == f"{path}:4: duplicate (ticker, date) = (A, 20000103)"


@needs_311
def test_load_mixed_date_spellings_sort_and_intersect_in_calendar_order(tmp_path):
    text = (
        "date,ticker,close\n"
        "2000-01-04,A,101\n20000106,A,103\n2000-W01-1,A,100\n2000-01-05,A,102\n"
        "2000-01-03,B,50\n2000-W01-4,B,53\n"
    )
    path = _write(tmp_path, text)
    a, b = load_price_csv(path)
    assert a.dates == ("2000-01-03", "2000-01-04", "2000-01-05", "2000-01-06")
    assert np.array_equal(a.log_prices, np.log([100.0, 101.0, 102.0, 103.0]))
    assert b.dates == ("2000-01-03", "2000-01-06")
    out = load_price_csv(path, calendar="intersect")
    assert [s.dates for s in out] == [("2000-01-03", "2000-01-06")] * 2
    assert np.array_equal(out[0].log_prices, np.log([100.0, 103.0]))


def _assert_same_series(got, want):
    assert [s.id for s in got] == [s.id for s in want]
    for g, w in zip(got, want):
        assert g.dates == w.dates
        assert g.times.tobytes() == w.times.tobytes()
        assert g.log_prices.tobytes() == w.log_prices.tobytes()  # bit-identical


def test_load_matches_reference_on_a_mixed_file(tmp_path):
    # explicit dates out of order, quoted ids, padded fields, blank rows
    text = (
        "date,ticker,close\n"
        '2020-01-03,"BRK,A",101.5\n'
        "\n"
        " 2020-01-02 , plain , 7.25 \n"
        '2020-01-02,"say ""hi""",3\n'
        "   \n"
        '2020-01-02,"BRK,A",100\n'
        "2020-01-06,plain,7.5\n"
        '2020-01-06,"say ""hi""",3.5\n'
        "2020-01-03,plain,1_000\n"
        '2020-01-06,"BRK,A",1e2\n'
    )
    path = _write(tmp_path, text)
    for calendar in ("as_is", "intersect"):
        got = load_price_csv(path, calendar)
        _assert_same_series(got, io_reference.load_price_csv(path, calendar))
    assert [s.id for s in got] == ["BRK,A", "plain", 'say "hi"']


@pytest.mark.parametrize(
    "body,line",
    _MALFORMED
    + [
        ("2020-01-02,A,-5\n", 2),  # non-positive close
        ("2020-01-02,A,nan\n", 2),  # non-finite close
        ("2020-01-02,A,inf\n", 2),
        ("\n2020-01-02,A,100\n  \n2020-01-03,A,1,2\n", 5),  # arity, after blank rows
        ("2020-01-02,A,100\n2020-01-03,,x\n", 3),  # empty ticker is checked before close
        ("2020-01-02,A,100\n2020-01-03,A,0\n2020-01-04,B\n", 3),  # earlier row wins
        ("2020-01-03,A,100\n2020-01-02,A,1\nbad,B,1\n2020-01-03,A,5\n", 4),
    ],
)
def test_load_errors_match_reference(tmp_path, body, line):
    path = _write(tmp_path, "date,ticker,close\n" + body)
    with pytest.raises(CsvParseError) as got:
        load_price_csv(path)
    with pytest.raises(CsvParseError) as want:
        io_reference.load_price_csv(path)
    assert (got.value.line, str(got.value)) == (want.value.line, str(want.value))
    assert got.value.line == line


def test_load_bad_close_deep_in_a_large_file_matches_reference(tmp_path):
    day0 = date(2000, 1, 3).toordinal()
    rows = [f"{date.fromordinal(day0 + i).isoformat()},T{i % 3},{100 + i % 7}"
            for i in range(60_000)]
    rows[49_999] = rows[49_999].rsplit(",", 1)[0] + ",ten"  # data row 50,000
    rows[54_999] = "2000-01-03,T0"  # a later failure must not be the one reported
    path = _write(tmp_path, "date,ticker,close\n" + "\n".join(rows) + "\n")
    with pytest.raises(CsvParseError) as got:
        load_price_csv(path)
    with pytest.raises(CsvParseError) as want:
        io_reference.load_price_csv(path)
    assert (got.value.line, str(got.value)) == (want.value.line, str(want.value))
    assert str(got.value) == f"{path}:50001: bad close 'ten'"


# A file read a few records at a time: blank records fall on chunk
# boundaries, every ticker's rows span chunks, 2020-01-07 is first seen
# in a late chunk, one row is padded, and the quoted ids hold ",", '"'
# and "%".
_CHUNKED = (
    "date,ticker,close\n"
    '2020-01-03,"BRK,A",101.5\n'
    "\n"
    "   \n"
    '2020-01-02,"say ""hi""",3\n'
    "2020-01-02,50%,7.25\n"
    '2020-01-02,"BRK,A",100\n'
    "\n"
    "2020-01-02,%s,9.5\n"
    "2020-01-06,50%,7.5\n"
    '2020-01-06,"say ""hi""",3.5\n'
    " 2020-01-03 , 50% , 1_000 \n"
    '2020-01-06,"BRK,A",1e2\n'
    "2020-01-07,%s,9\n"
    '2020-01-07,"say ""hi""",4\n'
    "2020-01-07,50%,8\n"
    '2020-01-07,"BRK,A",102\n'
    "\n"
)


@pytest.mark.parametrize("chunk", [1, 2, 7])
def test_load_across_chunk_boundaries_matches_reference(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(pc_io, "_CHUNK_ROWS", chunk)
    path = _write(tmp_path, _CHUNKED)
    for calendar in ("as_is", "intersect"):
        got = load_price_csv(path, calendar)
        _assert_same_series(got, io_reference.load_price_csv(path, calendar))
        assert [s.id for s in got] == ["BRK,A", 'say "hi"', "50%", "%s"]
    assert got[0].dates == ("2020-01-02", "2020-01-07")


def _good_rows(count):
    day0 = date(2000, 1, 3).toordinal()
    return "".join(f"{date.fromordinal(day0 + i).isoformat()},T{i % 3},{100 + i}\n"
                   for i in range(count))


_LATE_FAILURES = {
    "close": (_good_rows(20) + "2000-01-05,T1,ten\n", 22, "bad close 'ten'"),
    "arity": (_good_rows(20) + "\n2000-02-01,T1\n", 23, "expected 3 fields"),
    "duplicate": (_good_rows(20) + "2000-01-04,T1,5\n", 22,
                  "duplicate (ticker, date) = (T1, 2000-01-04)"),
    # the first bad row is reported, not the first bad chunk's kind of failure
    "close-then-arity": (_good_rows(9) + "2000-01-03,T0,0\n" + _good_rows(5) + "x,T1\n", 11,
                         "close must be positive and finite, got 0"),
    "duplicate-then-date": (_good_rows(9) + "2000-01-03,T0,1\n" + _good_rows(5) + "x,T1,1\n",
                            11, "duplicate (ticker, date) = (T0, 2000-01-03)"),
}


@pytest.mark.parametrize("chunk", [1, 2, 7])
@pytest.mark.parametrize("body, line, message", _LATE_FAILURES.values(), ids=_LATE_FAILURES)
def test_load_errors_across_chunk_boundaries_match_reference(tmp_path, monkeypatch, chunk,
                                                             body, line, message):
    monkeypatch.setattr(pc_io, "_CHUNK_ROWS", chunk)
    path = _write(tmp_path, "date,ticker,close\n" + body)
    with pytest.raises(CsvParseError) as got:
        load_price_csv(path)
    with pytest.raises(CsvParseError) as want:
        io_reference.load_price_csv(path)
    assert (got.value.line, str(got.value)) == (want.value.line, str(want.value))
    assert str(got.value) == f"{path}:{line}: {message}"


@pytest.mark.parametrize("failure", ["header", *_LATE_FAILURES])
def test_failed_load_leaves_no_open_file(tmp_path, monkeypatch, failure):
    monkeypatch.setattr(pc_io, "_CHUNK_ROWS", 2)
    if failure == "header":
        path = _write(tmp_path, "time,ticker,close\n" + _good_rows(3))
    else:
        path = _write(tmp_path, "date,ticker,close\n" + _LATE_FAILURES[failure][0])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(CsvParseError):
            load_price_csv(path)
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_write_matches_reference_bytes_for_quoted_ids(tmp_path):
    # a close of 1 everywhere: numpy's log and math.log can pick different
    # closes for the same log-price elsewhere (see the README round trip)
    ids = ["BRK,A", 'say "hi"', "50%", "%s", "%%d", "plain"]
    t = np.arange(40.0)
    series = [pc.PriceSeries(t, np.zeros(40), i) for i in ids]
    dates = tuple((date(2020, 1, 1) + timedelta(days=i)).isoformat() for i in range(40))
    series[2] = pc.PriceSeries(t, series[2].log_prices, "50%", dates)
    new, ref = str(tmp_path / "new.csv"), str(tmp_path / "ref.csv")
    write_price_csv(series, new)
    io_reference.write_price_csv(series, ref)
    assert Path(new).read_bytes() == Path(ref).read_bytes()
    assert [s.id for s in load_price_csv(new)] == ids


def test_price_csv_peak_memory_on_the_readme_corpus(tmp_path):
    # measured 0.47 MB (writer) and 7.56 MB (loader) for the 3.8 MB file;
    # whole-file buffers peaked at 17.3 and 37.9 MB
    corpus = synth_corpus(json.loads(readme_json_blocks()["spec.json"]), 7)
    path = str(tmp_path / "corpus.csv")
    peaks = []
    for run in (lambda: write_price_csv(corpus, path), lambda: load_price_csv(path)):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 0.6 * 2**20
    assert peaks[1] <= 8.0 * 2**20


# --------------------------------------------------------------- roundtrip


def test_roundtrip_bit_exact_away_from_unit_price(tmp_path):
    # prices near 100: every log-price has a decimal preimage, so the
    # write/load round trip is bit-identical
    base = math.log(100.0)
    spec = {
        "groups": [
            {"kind": "dpt_stable", "count": 2, "n": 300,
             "params": {"onset": 0.5, "scale": 0.002, "p0": base}},
            {"kind": "bm", "count": 1, "n": 300, "params": {"sigma": 0.01, "p0": base}},
        ]
    }
    corpus = synth_corpus(spec, 11)
    path = str(tmp_path / "c.csv")
    write_price_csv(corpus, path)
    loaded = load_price_csv(path)
    assert [s.id for s in loaded] == [s.id for s in corpus]
    for a, b in zip(corpus, loaded):
        assert np.array_equal(a.log_prices, b.log_prices)  # bit-identical
        assert np.array_equal(a.times, b.times)


def test_roundtrip_near_unit_price_within_one_price_ulp(tmp_path):
    # around price 1.0 the log grid is finer than the price grid; round
    # trip holds to one representable price
    corpus = synth_corpus(
        {"groups": [{"kind": "bm", "count": 2, "n": 300, "params": {"sigma": 0.01}}]}, 11
    )
    path = str(tmp_path / "c.csv")
    write_price_csv(corpus, path)
    for a, b in zip(corpus, load_price_csv(path)):
        assert np.max(np.abs(a.log_prices - b.log_prices)) < 3e-16


def test_roundtrip_idempotent_bytes(tmp_path):
    corpus = synth_corpus(
        {"groups": [{"kind": "bm", "count": 2, "n": 100, "params": {"sigma": 0.02}}]}, 5
    )
    p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    write_price_csv(corpus, p1)
    write_price_csv(load_price_csv(p1), p2)
    assert Path(p1).read_bytes() == Path(p2).read_bytes()


def test_roundtrip_ids_with_comma_and_quote(tmp_path):
    # ids that need CSV quoting survive every writer
    ids = ["BRK,A", 'say "hi"', "plain"]
    t = np.arange(5.0)
    series = [pc.PriceSeries(t, 4.0 + 0.01 * (k + 1) * t, i) for k, i in enumerate(ids)]
    path = str(tmp_path / "q.csv")
    write_price_csv(series, path)
    loaded = load_price_csv(path)
    assert [s.id for s in loaded] == ids
    for a, b in zip(series, loaded):
        assert np.array_equal(a.log_prices, b.log_prices)
    text = Path(path).read_text(encoding="utf-8")
    assert ',"BRK,A",' in text and ',"say ""hi""",' in text and ",plain," in text

    cfg = pc.WindowConfig(window=3, stride=1, tau_grid=(2,))
    ews_path = str(tmp_path / "q_ews.csv")
    write_ews_csv([pc.rolling_volatility(s, cfg) for s in series], ews_path)
    with open(ews_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["asset_id", "signal", "window_end_time", "value", "missing_flag"]
    assert {r[0] for r in rows[1:]} == set(ids)
    assert all(len(r) == 5 for r in rows)


def _closes_in(path):
    with open(path, encoding="utf-8") as fh:
        return np.array([float(line.rsplit(",", 1)[1]) for line in fh.read().splitlines()[1:]])


def test_readme_corpus_round_trip_matches_reference(tmp_path):
    corpus = synth_corpus(json.loads(readme_json_blocks()["spec.json"]), 7)
    lp = np.concatenate([s.log_prices for s in corpus])
    new, ref = str(tmp_path / "new.csv"), str(tmp_path / "ref.csv")
    write_price_csv(corpus, new)
    io_reference.write_price_csv(corpus, ref)
    for calendar in ("as_is", "intersect"):
        got = load_price_csv(new, calendar)
        _assert_same_series(got, io_reference.load_price_csv(new, calendar))
    # the two writers differ in close digits only, and never in exactness
    # where the oracle's close reloads exactly
    new_lines, ref_lines = (Path(p).read_text(encoding="utf-8").splitlines() for p in (new, ref))
    assert [r.rsplit(",", 1)[0] for r in new_lines] == [r.rsplit(",", 1)[0] for r in ref_lines]
    ref_exact = np.log(_closes_in(ref)) == lp
    assert np.all((np.log(_closes_in(new)) == lp)[ref_exact])


@pytest.mark.parametrize(
    "low,high,exact", [(1, 3, True), (-3, -1, True), (0.25, 0.5, False), (-1, -0.25, False)]
)
def test_roundtrip_bound_on_random_log_prices(tmp_path, low, high, exact):
    # bit-exact for |log-price| >= 1; closer to price 1 the reloaded
    # log-price is within one ulp of the close, relative to the close
    lp = np.random.default_rng(int(100 * (low + 3))).uniform(low, high, 20_000)
    half = lp.size // 2
    dates = tuple((date(1990, 1, 1) + timedelta(days=2 * i)).isoformat()
                  for i in range(lp.size - half))
    series = [
        pc.PriceSeries(np.arange(half, dtype=float), lp[:half], "SYN"),
        pc.PriceSeries(np.arange(lp.size - half, dtype=float), lp[half:], "DATED", dates),
    ]
    path, again, ref = (str(tmp_path / f"{name}.csv") for name in ("a", "b", "ref"))
    write_price_csv(series, path)
    reloaded = load_price_csv(path)
    loaded = np.concatenate([s.log_prices for s in reloaded])
    closes = _closes_in(path)
    if exact:
        assert loaded.tobytes() == lp.tobytes()
    else:
        assert np.all(np.abs(loaded - lp) <= np.spacing(closes) / closes)
    write_price_csv(reloaded, again)
    assert Path(path).read_bytes() == Path(again).read_bytes()
    io_reference.write_price_csv(series, ref)
    ref_exact = np.log(_closes_in(ref)) == lp
    assert np.all((loaded == lp)[ref_exact])


def test_write_refuses_ids_with_outer_whitespace(tmp_path):
    # the loader strips fields, so " PAD " would come back as "PAD"
    t = np.arange(3.0)
    series = [pc.PriceSeries(t, 4.0 + t, i) for i in ("PAD", " PAD ")]
    path = tmp_path / "pad.csv"
    with pytest.raises(ValueError, match="' PAD '"):
        write_price_csv(series, str(path))
    assert not path.exists()


def test_write_refuses_ids_with_a_carriage_return(tmp_path):
    # csv leaves "\r" unquoted, and the loader ends the row there
    t = np.arange(3.0)
    series = [pc.PriceSeries(t, 4.0 + t, i) for i in ("A", "A\rB")]
    path = tmp_path / "cr.csv"
    with pytest.raises(ValueError, match=re.escape("carriage return: " + repr(["A\rB"]))):
        write_price_csv(series, str(path))
    assert not path.exists()


@pytest.mark.parametrize(
    "ids, message",
    [(("A", ""), "empty ids: ['']"),  # the loader refuses an empty ticker
     (("A", "B", "A"), "duplicate ids: ['A']")],  # one ticker's rows merge on load
)
def test_write_refuses_empty_and_duplicate_ids(tmp_path, ids, message):
    t = np.arange(3.0)
    series = [pc.PriceSeries(t, 4.0 + t, i) for i in ids]
    path = tmp_path / "ids.csv"
    with pytest.raises(ValueError, match=re.escape(message)):
        write_price_csv(series, str(path))
    assert not path.exists()


def _assert_csv_cells(path, header, rows):
    """``path`` holds ``header`` and ``rows``; a float cell must parse back
    to the value in memory, and a NaN is written as ``nan``."""
    with open(path, newline="", encoding="utf-8") as fh:
        got = list(csv.reader(fh))
    assert got[0] == header
    assert len(got) == len(rows) + 1
    for cells, row in zip(got[1:], rows):
        assert len(cells) == len(row)
        for cell, v in zip(cells, row):
            if isinstance(v, float) and math.isnan(v):
                assert cell == "nan"
            elif isinstance(v, float):
                assert float(cell) == v
            else:
                assert cell == str(v)


def test_study_and_signal_csvs_write_declared_columns_and_exact_floats(tmp_path):
    floats = [0.1 + 0.2, 1 / 3, -2.5e-300, 2.0**60 + 2**8, *np.random.default_rng(3).random(6)]
    nan = float("nan")
    segments = [
        SegmentTrend("BRK,A", "volatility", "pre", 0, 12.0, floats[0], 13, floats[1]),
        SegmentTrend("B", "ghe1", "normal", 4, floats[3], floats[4], 7, nan),
    ]
    signals = {
        "volatility": SignalTrend("volatility", floats[6:8], floats[8:], floats[3]),
        "ghe1": SignalTrend("ghe1", [floats[1]], [], nan, "no normal segments"),
    }
    report = TrendReport(signals, segments, n_assets=2, n_events=1)
    path = tmp_path / "segments.csv"
    write_segments_csv(report, path)
    _assert_csv_cells(path, ["asset_id", "signal", "group", "segment_index", "start_time",
                             "end_time", "n_windows", "tau"], [astuple(r) for r in segments])
    path = tmp_path / "report.csv"
    write_report_csv(report, path)
    _assert_csv_cells(path, ["signal", "group", "mean_tau", "n", "p_value"], [
        row for name, st in signals.items()
        for row in ((name, "pre", st.mean_tau_pre, st.n_pre, st.p_value),
                    (name, "normal", st.mean_tau_normal, st.n_normal, st.p_value))
    ])
    values = np.array([floats[0], nan, floats[2], np.inf, floats[4]])
    ews = pc.EwsSeries(np.array(floats[5:10]), values, "volatility", "X")
    path = tmp_path / "signals.csv"
    write_ews_csv([ews], path)
    # a missing value is an empty cell with missing_flag 1
    _assert_csv_cells(path, ["asset_id", "signal", "window_end_time", "value", "missing_flag"], [
        ("X", "volatility", t, v if np.isfinite(v) else "", int(not np.isfinite(v)))
        for t, v in zip(floats[5:10], values.tolist())
    ])


# ------------------------------------------------------------------ corpus


@pytest.mark.parametrize(
    "groups, message",
    [([("A", 2), ("A", 2)], "duplicate ids: ['A000', 'A001']"),
     # {i:03d} grows a fourth digit at 1000, so A's 1000th id is A1's first
     ([("A", 1001), ("A1", 1)], "duplicate ids: ['A1000']"),
     ([("B", 1), (" A", 1)], "ids with leading or trailing whitespace: [' A000']")],
)
def test_synth_refuses_ids_that_would_not_load_back_before_any_draw(monkeypatch, groups,
                                                                   message):
    def no_draw(*args):
        raise AssertionError("a path was drawn")

    monkeypatch.setattr(pc_io, "simulate_asset", no_draw)
    spec = {"groups": [{"kind": "bm", "count": count, "n": 1, "id_prefix": prefix}
                       for prefix, count in groups]}
    with pytest.raises(ValueError, match=re.escape(message)):
        synth_corpus(spec, 1)


@pytest.mark.parametrize("command", ["synth", "study"])
def test_cli_refuses_a_spec_whose_ids_collide(tmp_path, capsys, command):
    spec = tmp_path / "spec.json"
    group = {"kind": "bm", "count": 2, "n": 300, "id_prefix": "A"}
    spec.write_text(json.dumps({"groups": [group, group]}))
    out = tmp_path / "out"
    assert cli_dispatch([command, "--spec", str(spec), "--out", str(out)]) == 1
    assert "duplicate ids: ['A000', 'A001']" in capsys.readouterr().err
    assert not out.exists()


def test_synth_corpus_deterministic():
    spec = {
        "groups": [
            {"kind": "dpt_hurst", "count": 3, "n": 200, "params": {"onset": 0.5}},
            {"kind": "bm", "count": 3, "n": 220},
        ]
    }
    a = synth_corpus(spec, 42)
    b = synth_corpus(spec, 42)
    assert len(a) == 6
    for x, y in zip(a, b):
        assert x.id == y.id
        assert np.array_equal(x.log_prices, y.log_prices)
    c = synth_corpus(spec, 43)
    assert not np.array_equal(a[0].log_prices, c[0].log_prices)


def test_bm_is_scaled_gaussian_cumsum(tmp_path):
    # synth and simulate share one Brownian source: p0 + sigma * cumsum(dW)
    spec = {"groups": [{"kind": "bm", "count": 2, "n": 300, "dt": 0.5,
                        "params": {"sigma": 0.02, "p0": 1.5}}]}
    for j, s in enumerate(synth_corpus(spec, 8)):
        dw = pc.sample_gaussian_increments(300, 0.5, derive_seed(8, j))
        assert np.array_equal(s.log_prices, 1.5 + 0.02 * dw.path())
    out = str(tmp_path / "bm")
    rc = cli_dispatch(["simulate", "--kind", "bm", "--n", "300", "--dt", "0.5",
                       "--sigma", "0.02", "--p0", "1.5", "--sample-every", "3",
                       "--seed", "8", "--out", out])
    assert rc == 0
    (s,) = load_price_csv(os.path.join(out, "path.csv"))
    expected = (1.5 + 0.02 * pc.sample_gaussian_increments(300, 0.5, 8).path())[::3]
    assert np.max(np.abs(s.log_prices - expected)) < 1e-15


@pytest.mark.parametrize("kind", ["bm", "dpt_hurst", "dpt_stable"])
def test_synth_corpus_honours_p0(kind):
    # p0 is a plain offset for these kinds, so the path starts exactly there
    spec = {"groups": [{"kind": kind, "count": 1, "n": 200, "params": {"p0": 5.0}}]}
    (s,) = synth_corpus(spec, 3)
    assert s.log_prices[0] == 5.0


def test_synth_corpus_empty():
    assert synth_corpus({"groups": []}, 1) == []


def test_synth_corpus_zero_noise_cpt_matches_simulator():
    spec = {
        "groups": [
            {
                "kind": "cpt",
                "count": 1,
                "n": 500,
                "dt": 0.01,
                "params": {"r": 1.0, "mu_start": 0.0, "mu_end": 0.5, "sigma": 0.0, "p0": 1.0},
            }
        ]
    }
    (series,) = synth_corpus(spec, 9)
    params = CptParams(1.0, MuSchedule(0.0, 0.5), 0.0, 1.0)
    direct = simulate_cpt(params, 500, 0.01, derive_seed(9, 0))
    assert np.array_equal(series.log_prices, direct.values)


def test_synth_corpus_forced_drop_triggers_event():
    spec = {
        "groups": [
            {
                "kind": "bm",
                "count": 1,
                "n": 400,
                "params": {"sigma": 0.001},
                "forced_drop": 0.25,
                "drop_len": 10,
            }
        ]
    }
    (series,) = synth_corpus(spec, 2)
    cfg = pc.StudyConfig(lookback=50, pre_crash_window=64,
                         signals=("volatility", "skewness", "lag1_autocorr"),
                         ews_cfg=pc.WindowConfig(window=16, tau_grid=(2,)))
    events = pc.detect_crashes(series, cfg)
    assert len(events) == 1
    assert events[0].drawdown >= 0.20


def test_asset_group_spec_validation():
    with pytest.raises(ValueError):
        AssetGroupSpec(kind="lppl", count=1)
    with pytest.raises(ValueError):
        AssetGroupSpec(kind="bm", count=1, forced_drop=1.5)
    for key, value, rule in [("count", -1, ">= 0"), ("n", 0, ">= 1"),
                             ("dt", 0.0, "finite and > 0"), ("dt", -1.0, "finite and > 0"),
                             ("dt", math.inf, "finite and > 0"),
                             ("dt", math.nan, "finite and > 0"), ("sample_every", 0, ">= 1"),
                             ("drop_len", 0, ">= 1"), ("drop_len", -3, ">= 1")]:
        kw = {"kind": "bm", "count": 1, "forced_drop": 0.25, key: value}
        message = f"asset group: {key} must be {rule}, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            AssetGroupSpec(**kw)
    spec = CorpusSpec.from_dict({"groups": [{"kind": "bm", "count": 1}]})
    assert spec.to_dict()["groups"][0]["kind"] == "bm"


def test_study_config_from_dict():
    cfg = study_config_from_dict(
        {
            "crash_threshold": 0.25,
            "signals": ["volatility", "ghe1"],
            "ews": {"window": 63, "stride": 7, "tau_grid": [2, 4, 8]},
        }
    )
    assert cfg.crash_threshold == 0.25
    assert cfg.signals == ("volatility", "ghe1")
    assert cfg.ews_cfg.window == 63
    assert cfg.ews_cfg.tau_grid == (2, 4, 8)


@pytest.mark.parametrize(
    "d, name",
    [
        ({"crash_treshold": 0.3}, "crash_treshold"),
        ({"ews": {"windw": 63}}, "windw"),
        ({"ews_cfg": {"window": 63}}, "ews_cfg"),
        ({"min_trend_points": 10}, "min_trend_points"),  # a fixed 10 since 0.9.0
    ],
)
def test_study_config_refuses_unknown_keys(d, name):
    with pytest.raises(ValueError, match=f"unknown keys \\['{name}'\\]"):
        study_config_from_dict(d)


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"groups": [{"kind": "bm", "count": 1, "colour": 1}]}, "'colour'"),
        ({"groups": [{"count": 1}]}, "missing keys \\['kind'\\]"),
        ({"grups": []}, "'grups'"),
        ({"groups": [{"kind": "bm", "count": 1, "params": {"sigmaa": 5}}]}, "'sigmaa'"),
        # a key of another kind is as unknown as a typo
        ({"groups": [{"kind": "dpt_hurst", "count": 1, "params": {"alpha_end": 1}}]},
         "'alpha_end'"),
    ],
)
def test_corpus_spec_refuses_unknown_keys(spec, message):
    with pytest.raises(ValueError, match=message):
        CorpusSpec.from_dict(spec)


def test_readme_configs_parse_under_strict_readers():
    blocks = readme_json_blocks()
    spec = CorpusSpec.from_dict(json.loads(blocks["spec.json"]))
    assert [(g.kind, g.count) for g in spec.groups] == [("dpt_hurst", 20), ("bm", 20)]
    cfg = study_config_from_dict(json.loads(blocks["study.json"]))
    assert cfg.ews_cfg.tau_grid == (2, 4, 8, 16)


# --------------------------------------------------------------------- cli


def _spec_file(tmp_path, n_crash=3, n_bm=3):
    spec = {
        "groups": [
            {
                "kind": "dpt_hurst",
                "count": n_crash,
                "n": 1260,
                "params": {"onset": 0.6, "scale": 0.0015},
                "forced_drop": 0.25,
                "drop_len": 20,
                "id_prefix": "H",
            },
            {"kind": "bm", "count": n_bm, "n": 1280, "params": {"sigma": 0.001}, "id_prefix": "B"},
        ]
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return str(path)


def test_cli_synth_and_detect(tmp_path):
    spec = _spec_file(tmp_path)
    out = str(tmp_path / "o1")
    assert cli_dispatch(["synth", "--spec", spec, "--seed", "7", "--out", out]) == 0
    corpus_csv = os.path.join(out, "corpus.csv")
    assert os.path.exists(corpus_csv)
    manifest = _read_json(os.path.join(out, "manifest.json"))
    assert manifest["command"] == "synth"
    assert manifest["seed"] == 7
    assert manifest["input_digest"] == RunManifest.digest_file(spec)

    out2 = str(tmp_path / "o2")
    assert cli_dispatch(["detect-crashes", "--input", corpus_csv, "--out", out2]) == 0
    events = _read_json(os.path.join(out2, "events.json"))["events"]
    assert len(events) == 3
    assert all(e["drawdown"] >= 0.20 for e in events)


def _panel_with_short_ticker(tmp_path):
    # 3 crash and 3 control assets of the CLI spec plus a ticker of
    # exactly `lookback` (126) rows, too short to scan for crashes
    corpus = synth_corpus(_read_json(_spec_file(tmp_path)), 7)
    short = pc.PriceSeries(np.arange(126.0), np.linspace(4.6, 4.7, 126), "SHORT")
    path = str(tmp_path / "panel.csv")
    write_price_csv(corpus + [short], path)
    return path


def test_cli_detect_records_short_ticker_as_skip(tmp_path):
    panel = _panel_with_short_ticker(tmp_path)
    out = str(tmp_path / "ev")
    assert cli_dispatch(["detect-crashes", "--input", panel, "--out", out]) == 0
    doc = _read_json(os.path.join(out, "events.json"))
    assert len(doc["events"]) == 3
    assert doc["skipped"] == [
        {"asset_id": "SHORT", "reason": "126 observations, needs more than lookback = 126"}
    ]


def test_cli_study_records_short_ticker_as_skip(tmp_path):
    panel = _panel_with_short_ticker(tmp_path)
    cfg_path = tmp_path / "study.json"
    cfg_path.write_text(json.dumps({"pre_crash_window": 504, "exclusion_margin": 504,
                                    "signals": ["volatility"]}))
    out = str(tmp_path / "st")
    rc = cli_dispatch(["study", "--input", panel, "--config", str(cfg_path), "--out", out])
    assert rc == 0
    report = _read_json(os.path.join(out, "report.json"))
    assert report["n_assets"] == 7 and report["n_skipped"] == 1
    assert [s["asset_id"] for s in report["skipped"]] == ["SHORT"]
    assert report["n_events"] == 3
    volatility = report["signals"]["volatility"]
    assert volatility["inconclusive"] is False
    assert volatility["inconclusive_reason"] is None


def _strict_json(path):
    def refuse(constant):
        raise ValueError(f"{path} holds {constant}, which is not JSON")

    with open(path, encoding="utf-8") as fh:
        return json.loads(fh.read(), parse_constant=refuse)


def test_cli_inconclusive_report_is_strict_json(tmp_path):
    # controls alone have no crash, so the pre group and the p-value are empty
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"groups": [{"kind": "bm", "count": 3, "n": 2560,
                                            "params": {"sigma": 0.001}, "id_prefix": "CTRL"}]}))
    cfg_path = tmp_path / "study.json"
    cfg_path.write_text(json.dumps({"signals": ["volatility"]}))
    out = tmp_path / "o"
    rc = cli_dispatch(["study", "--spec", str(spec), "--config", str(cfg_path),
                       "--seed", "7", "--out", str(out)])
    assert rc == 0
    volatility = _strict_json(out / "report.json")["signals"]["volatility"]
    assert volatility["inconclusive_reason"] == "no pre segments"
    assert volatility["mean_tau_pre"] is None and volatility["p_value"] is None
    assert volatility["n_normal"] > 0 and math.isfinite(volatility["mean_tau_normal"])
    # report.csv keeps its nan cells
    assert ",nan" in (out / "report.csv").read_text()


def test_json_writer_writes_every_non_finite_float_as_null(tmp_path):
    inf, nan = float("inf"), float("nan")
    doc = {"a": [inf, -inf, nan, 1.5, np.float64(nan)], "b": {"c": (nan, 2)}, "d": "nan"}
    path = tmp_path / "x.json"
    pc_io._atomic_write(path, pc_io._dump_json(doc))
    assert _strict_json(path) == {"a": [None, None, None, 1.5, None], "b": {"c": [None, 2]},
                                  "d": "nan"}


def test_cli_simulate_byte_identical_reruns(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        rc = cli_dispatch(
            ["simulate", "--kind", "dpt-hurst", "--h-start", "0.5", "--h-end", "0.9",
             "--n", "300", "--dt", "1", "--scale", "0.01", "--seed", "7", "--out", out]
        )
        assert rc == 0
        outs.append(Path(os.path.join(out, "path.csv")).read_bytes())
    assert outs[0] == outs[1]


def test_cli_simulate_dpt_stable_honours_t_start(tmp_path):
    def cli_path(t_start):
        out = str(tmp_path / f"t{t_start}")
        rc = cli_dispatch(
            ["simulate", "--kind", "dpt-stable", "--alpha-end", "1.2", "--t-start",
             str(t_start), "--n", "400", "--dt", "1", "--scale", "0.01", "--p0", "0",
             "--seed", "7", "--out", out]
        )
        assert rc == 0
        return load_price_csv(os.path.join(out, "path.csv"))[0].log_prices

    sch = pc.StableSchedule(2.0, 1.2, t_start=300, scale=0.01)
    expected = pc.simulate_dpt(pc.DptParams(sch, scale=1.0), 400, 1.0, 7).values
    got = cli_path(300)
    assert np.max(np.abs(got - expected)) < 1e-12
    assert not np.allclose(got, cli_path(0))


#: Non-default params per corpus kind, passed to ``simulate`` as the
#: flags of the same names.
_KIND_PARAMS = {
    "bm": {"p0": 1.5, "sigma": 0.02},
    "cpt": {"r": 1.0, "mu_start": 0.05, "mu_end": 0.3, "sigma": 0.05, "p0": 1.0},
    "spt": {"r": 1.0, "lam": 1.5, "alpha_vol": 0.02, "p0": 1.0},
    "dpt_hurst": {"scale": 0.01, "h_start": 0.5, "h_end": 0.85, "p0": 0.5},
    "dpt_stable": {"scale": 0.01, "alpha_start": 1.9, "alpha_end": 1.3, "p0": 0.5},
}


@pytest.mark.parametrize("kind", sorted(_KIND_PARAMS))
def test_cli_simulate_draws_what_a_one_asset_synth_group_draws(tmp_path, kind):
    # onset = 0.5 at n = 400 is --t-start 200; cpt's mu ramp starts at step 0 in both
    params = dict(_KIND_PARAMS[kind])
    flags = [f"--{k.replace('_', '-')}={v}" for k, v in params.items()]
    if kind.startswith("dpt"):
        params["onset"] = 0.5
        flags.append("--t-start=200")
    group = {"kind": kind, "count": 1, "n": 400, "dt": 0.01, "params": params,
             "sample_every": 2, "id_prefix": "SIM"}
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"groups": [group]}))
    synth_out, sim_out = str(tmp_path / "synth"), str(tmp_path / "sim")
    assert cli_dispatch(["synth", "--spec", str(spec), "--seed", "5", "--out", synth_out]) == 0
    rc = cli_dispatch(["simulate", "--kind", kind.replace("_", "-"), "--n", "400",
                       "--dt", "0.01", "--sample-every", "2", *flags,
                       "--seed", str(derive_seed(5, 0)), "--out", sim_out])
    assert rc == 0
    corpus = Path(os.path.join(synth_out, "corpus.csv")).read_bytes()
    assert Path(os.path.join(sim_out, "path.csv")).read_bytes() == corpus


@pytest.mark.parametrize("kind", sorted(PARAM_DEFAULTS))
def test_cli_simulate_without_param_flags_draws_a_default_synth_group(tmp_path, kind):
    # every param flag left out takes the kind's PARAM_DEFAULTS value, as synth does
    group = {"kind": kind, "count": 1, "n": 400, "dt": 0.01, "params": {},
             "id_prefix": "SIM"}
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"groups": [group]}))
    synth_out, sim_out = str(tmp_path / "synth"), str(tmp_path / "sim")
    assert cli_dispatch(["synth", "--spec", str(spec), "--seed", "5", "--out", synth_out]) == 0
    rc = cli_dispatch(["simulate", "--kind", kind.replace("_", "-"), "--n", "400",
                       "--dt", "0.01", "--seed", str(derive_seed(5, 0)), "--out", sim_out])
    assert rc == 0
    corpus = Path(os.path.join(synth_out, "corpus.csv")).read_bytes()
    assert Path(os.path.join(sim_out, "path.csv")).read_bytes() == corpus
    config = _read_json(os.path.join(sim_out, "manifest.json"))["config"]
    row = {key: v for key, v in PARAM_DEFAULTS[kind].items() if key != "onset"}
    assert config == {"kind": kind.replace("_", "-"), "n": 400, "dt": 0.01,
                      "sample_every": 1, "t_start": 0, "k": 2, "coupling": 0.5, **row}


def test_cli_defaults_are_the_library_defaults(tmp_path):
    parser = build_parser()
    search, study, window = pc.SearchConfig(), pc.StudyConfig(), pc.WindowConfig()
    fit = parser.parse_args(["fit-lppl", "--input", "x.csv"])
    assert (fit.m_min, fit.m_max) == search.m_bounds
    assert (fit.omega_min, fit.omega_max) == search.omega_bounds
    assert (fit.tc_min, fit.tc_max) == (None, None) and search.tc_bounds is None
    assert fit.grid == (search.n_tc, search.n_m, search.n_omega)
    assert fit.top_k == search.refine_top_k
    detect = parser.parse_args(["detect-crashes", "--input", "x.csv"])
    assert detect.threshold == study.crash_threshold
    assert detect.lookback == study.lookback
    assert detect.recovery == study.recovery_fraction
    ews = parser.parse_args(["ews", "--input", "x.csv"])
    assert tuple(ews.signals.split(",")) == study.signals
    assert (ews.window, ews.stride, ews.detrend) == (window.window, window.stride,
                                                     window.detrend)
    assert tuple(ews.tau_grid) == window.tau_grid
    # multi couples critical-route assets: the cpt row, with the route's lam = 1
    out = str(tmp_path / "multi")
    assert cli_dispatch(["simulate", "--kind", "multi", "--n", "50", "--out", out]) == 0
    config = _read_json(os.path.join(out, "manifest.json"))["config"]
    assert config == {"kind": "multi", "n": 50, "dt": 0.01, "sample_every": 1,
                      "t_start": 0, "k": 2, "coupling": 0.5, **PARAM_DEFAULTS["cpt"],
                      "lam": 1.0}


@pytest.mark.parametrize("kind", ["bm", "cpt", "spt", "dpt-hurst", "dpt-stable", "multi"])
@pytest.mark.parametrize(
    "flag, message",
    [(["--sample-every", "0"], "sample_every must be >= 1"),
     (["--t-start", "-5"], "t_start must be an integer >= 0, got -5"),
     (["--dt", "-1"], "dt must be positive and finite, got -1.0"),
     (["--dt", "inf"], "dt must be positive and finite, got inf"),
     (["--n", "0"], "n must be a positive integer, got 0"),
     # a ramp that starts at or past the path's end would ignore its end flag
     (["--t-start", "50"], "t_start must lie in [0, n), got 50 with n = 50"),
     (["--t-start", "500"], "t_start must lie in [0, n), got 500 with n = 50")],
)
def test_cli_simulate_refuses_bad_sample_every_and_t_start(tmp_path, capsys, kind, flag,
                                                           message):
    rc = cli_dispatch(["simulate", "--kind", kind, "--n", "50", *flag,
                       "--out", str(tmp_path)])
    assert rc == 1
    assert f"phasecrash: error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["bm", "cpt", "spt", "dpt-hurst", "dpt-stable", "multi"])
def test_cli_simulate_refuses_param_flags_the_kind_does_not_read(tmp_path, capsys, kind):
    row = (PARAM_DEFAULTS["cpt"] | {"lam": 1.0} if kind == "multi"
           else PARAM_DEFAULTS[kind.replace("-", "_")])
    unread = sorted({key for r in PARAM_DEFAULTS.values() for key in r} - {"onset"} - set(row))
    flags = [f"--{key.replace('_', '-')}" for key in unread]
    # --k and --coupling shape the coupled panel, which only multi builds
    multi = {"--k": "3", "--coupling": "0.25"}
    flags += [] if kind == "multi" else list(multi)
    values = {flag: multi.get(flag, "0.5") for flag in flags}
    out = tmp_path / "sim"
    base = ["simulate", "--kind", kind, "--n", "50", "--out", str(out)]
    for flag in flags:
        assert cli_dispatch([*base, flag, values[flag]]) == 1
        message = f"phasecrash: error: simulate --kind {kind} does not read {flag}\n"
        assert capsys.readouterr().err == message
    assert cli_dispatch([*base, *(arg for flag in flags for arg in (flag, values[flag]))]) == 1
    assert f"does not read {', '.join(flags)}\n" in capsys.readouterr().err
    assert not out.exists()
    read = [arg for key, v in row.items() if key != "onset"
            for arg in (f"--{key.replace('_', '-')}", str(v))]
    read += [arg for item in multi.items() for arg in item] if kind == "multi" else []
    assert cli_dispatch([*base, *read]) == 0
    if kind == "multi":
        config = _read_json(out / "manifest.json")["config"]
        assert (config["k"], config["coupling"]) == (3, 0.25)
        assert len(load_price_csv(str(out / "path.csv"))) == 3


def test_cli_simulate_negative_t_start_is_a_clear_error(tmp_path, capsys):
    rc = cli_dispatch(["simulate", "--kind", "dpt-hurst", "--h-end", "0.9", "--n", "50",
                       "--t-start", "-5", "--out", str(tmp_path)])
    assert rc == 1
    assert "t_start must be an integer >= 0, got -5" in capsys.readouterr().err


def test_cli_ews_schema(tmp_path):
    spec = _spec_file(tmp_path, n_crash=1, n_bm=1)
    out = str(tmp_path / "o")
    cli_dispatch(["synth", "--spec", spec, "--seed", "3", "--out", out])
    rc = cli_dispatch(
        ["ews", "--input", os.path.join(out, "corpus.csv"), "--window", "126",
         "--stride", "10", "--tau-grid", "2,4,8,16", "--signals",
         "volatility,anomalous_dim,ghe1", "--out", out]
    )
    assert rc == 0
    lines = Path(os.path.join(out, "signals.csv")).read_text(encoding="utf-8").splitlines()
    assert lines[0] == "asset_id,signal,window_end_time,value,missing_flag"
    signals = {ln.split(",")[1] for ln in lines[1:]}
    assert signals == {"volatility", "anomalous_dim", "ghe1"}


def test_cli_ews_has_no_orders_flag(tmp_path):
    # a ghe<n> name fixes its own order, so --orders would select nothing
    spec = _spec_file(tmp_path, n_crash=0, n_bm=1)
    out = str(tmp_path / "o")
    cli_dispatch(["synth", "--spec", spec, "--seed", "3", "--out", out])
    corpus = os.path.join(out, "corpus.csv")
    assert cli_dispatch(["ews", "--input", corpus, "--orders", "1", "--out", out]) == 1
    assert cli_dispatch(["ews", "--input", corpus, "--signals", "ghe1", "--out", out]) == 0
    manifest = _read_json(os.path.join(out, "manifest.json"))
    assert "orders" not in manifest["config"]


def test_cli_fit_lppl_fixture(tmp_path):
    params = pc.LpplParams(A=7.0, B=-0.5, C1=0.05, C2=0.05, m=0.5, omega=8.0, tc=550.0)
    t = np.arange(500.0)
    series = pc.PriceSeries(t, pc.lppl_log_price(params, t), "LPPL")
    csv_path = str(tmp_path / "lppl.csv")
    write_price_csv([series], csv_path)
    out = str(tmp_path / "fit")
    assert cli_dispatch(["fit-lppl", "--input", csv_path, "--out", out]) == 0
    fit = _read_json(os.path.join(out, "fit.json"))
    assert abs(fit["tc"] - 550.0) <= 1.0
    assert abs(fit["m"] - 0.5) <= 0.02
    assert abs(fit["omega"] - 8.0) <= 0.1


@pytest.mark.parametrize("given", [["--tc-min", "510"], ["--tc-max", "600"]])
def test_cli_fit_lppl_refuses_a_one_sided_tc_range(tmp_path, capsys, given):
    # refused before the input is read, so a missing input is never reported
    out = tmp_path / "fit"
    rc = cli_dispatch(["fit-lppl", "--input", str(tmp_path / "absent.csv"), "--out", str(out),
                       *given])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "phasecrash: error: fit-lppl needs both --tc-min and --tc-max, or neither\n"
    assert not out.exists()


def test_cli_fit_lppl_refuses_a_tc_range_before_the_last_observation(tmp_path, capsys):
    t = np.arange(60.0)
    csv_path = str(tmp_path / "up.csv")
    write_price_csv([pc.PriceSeries(t, 5.0 + 0.001 * t, "UP")], csv_path)
    out = tmp_path / "fit"
    rc = cli_dispatch(["fit-lppl", "--input", csv_path, "--tc-min", "10", "--tc-max", "50",
                       "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "tc_bounds (10.0, 50.0)" in err and "last observation time 59.0" in err
    assert not out.exists()


def test_cli_synth_unknown_group_key_is_a_validation_error(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"groups": [{"kind": "bm", "count": 1, "colour": 1}]}))
    rc = cli_dispatch(["synth", "--spec", str(spec), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "'colour'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "cfg",  # (config, expected message)
    [
        ({"crash_threshold": "0.3"}, "study config: crash_threshold must be float, got str"),
        ({"lookback": "126"}, "study config: lookback must be int, got str"),
        ({"ews": {"window": "126"}}, "ews: window must be int, got str"),
    ],
)
def test_cli_study_config_value_of_wrong_type_is_a_validation_error(tmp_path, capsys, cfg):
    cfg, message = cfg
    cfg_path = tmp_path / "study.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = cli_dispatch(["study", "--spec", _spec_file(tmp_path), "--config", str(cfg_path),
                       "--out", str(tmp_path / "o")])
    assert rc == 1
    assert f"phasecrash: error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "signals, message",
    [("volatility", "signals must be tuple, got str"),
     (["volatility", "ghe0"], "unknown signal 'ghe0'"),
     ([], "signals must name at least one signal"),
     (["volatility", "volatility"], "signals repeats 'volatility'")],
)
def test_cli_study_refuses_bad_signals_before_reading_the_panel(tmp_path, capsys, signals,
                                                                message):
    cfg_path = tmp_path / "study.json"
    cfg_path.write_text(json.dumps({"signals": signals}))
    rc = cli_dispatch(["study", "--input", str(tmp_path / "absent.csv"),
                       "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "signal, ews, message",
    [("anomalous_dim", {"window": 30, "tau_grid": [2, 4, 8, 16]},
      "window 30 must exceed 4 * max(tau_grid) = 64 for scaling estimators"),
     ("lag1_autocorr", {"window": 3}, "window must be >= 4, got 3"),
     ("conformality", {"tau_grid": [2, 4]},
      "conformality index needs at least 3 lags in tau_grid")],
)
def test_cli_study_refuses_window_rules_before_synthesis(tmp_path, capsys, monkeypatch,
                                                        signal, ews, message):
    def no_synthesis(*_args):
        raise AssertionError("synth_corpus ran before the config was checked")

    monkeypatch.setattr(pc_cli, "synth_corpus", no_synthesis)
    spec = tmp_path / "spec.json"
    spec.write_text(readme_json_blocks()["spec.json"])
    cfg_path = tmp_path / "study.json"
    cfg_path.write_text(json.dumps({"signals": [signal], "ews": ews}))
    out = tmp_path / "o"
    rc = cli_dispatch(["study", "--spec", str(spec), "--config", str(cfg_path),
                       "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"phasecrash: error: {message}\n"
    assert not out.exists()


def test_cli_synth_group_value_of_wrong_type_is_a_validation_error(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"groups": [{"kind": "bm", "count": "2"}]}))
    rc = cli_dispatch(["synth", "--spec", str(spec), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "phasecrash: error: asset group: count must be int, got str" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, params, message",
    [("dpt_stable", {"onset": 1.5}, "dpt_stable params: onset must lie in [0, 1), got 1.5"),
     ("dpt_stable", {"onset": 1.0}, "dpt_stable params: onset must lie in [0, 1), got 1.0"),
     ("dpt_stable", {"onset": -0.1}, "dpt_stable params: onset must lie in [0, 1), got -0.1"),
     ("bm", {"sigma": "0.001"}, "bm params: sigma must be float, got str"),
     ("bm", {"sigma": True}, "bm params: sigma must be float, got bool"),
     # refused before the draw, not when the writer meets a NaN log-price
     ("bm", {"sigma": math.nan}, "sigma must be finite, got nan"),
     ("bm", {"p0": -math.inf}, "p0 must be finite, got -inf")],
)
def test_cli_synth_refuses_bad_param_values(tmp_path, capsys, kind, params, message):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"groups": [{"kind": kind, "count": 1, "n": 200,
                                            "params": params}]}))
    rc = cli_dispatch(["synth", "--spec", str(spec), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert f"phasecrash: error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("dt", [math.inf, math.nan, -math.inf])
def test_cli_synth_refuses_a_dt_that_is_not_finite_and_positive(tmp_path, capsys, dt):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"groups": [{"kind": "bm", "count": 1, "n": 200, "dt": dt}]}))
    rc = cli_dispatch(["synth", "--spec", str(spec), "--out", str(tmp_path / "o")])
    assert rc == 1
    message = f"asset group: dt must be finite and > 0, got {dt!r}"
    assert f"phasecrash: error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_ews_refuses_unknown_signal_before_reading_input(tmp_path, capsys):
    rc = cli_dispatch(["ews", "--input", str(tmp_path / "absent.csv"),
                       "--signals", "cross_cov,bogus", "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "phasecrash: error: unknown signal 'bogus'" in capsys.readouterr().err


def _fresh_python(code):
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout


def test_cli_import_leaves_scipy_unloaded():
    code = "import sys, phasecrash.cli; print('scipy' in sys.modules)"
    assert _fresh_python(code).split() == ["False"]


def test_fit_lppl_and_its_cli_never_import_scipy(tmp_path):
    csv_path = str(tmp_path / "x.csv")
    t = np.arange(60.0)
    write_price_csv([pc.PriceSeries(t, 0.01 * np.sin(t) + 0.001 * t, "X")], csv_path)
    code = (
        "import sys, numpy as np, phasecrash as pc\n"
        "from phasecrash.cli import cli_dispatch\n"
        "t = np.arange(60.0)\n"
        "s = pc.PriceSeries(t, 0.01 * np.sin(t) + 0.001 * t, 'x')\n"
        "fit = pc.fit_lppl(s, pc.SearchConfig(n_tc=3, n_m=3, n_omega=3, refine_top_k=2))\n"
        "assert fit.grid_evals > 27\n"  # Nelder-Mead ran
        "print('scipy' in sys.modules)\n"
        f"rc = cli_dispatch(['fit-lppl', '--input', {csv_path!r}, '--out', {str(tmp_path)!r}])\n"
        "print(rc, 'scipy' in sys.modules)\n"
    )
    assert _fresh_python(code).split() == ["False", "0", "False"]
    assert os.path.exists(tmp_path / "fit.json")


@pytest.mark.parametrize(
    "grid, top_k, message",
    [("5", "0", "usage:"), ("5,6,7,8", "0", "usage:"), ("4,x,3", "0", "usage:"),
     # SearchConfig refuses counts that cannot form a search
     ("0,9,12", "0", "error: n_tc must be >= 1, got 0"),
     ("4,3,3", "-1", "error: refine_top_k must be >= 0, got -1")],
    ids=["5", "5,6,7,8", "4,x,3", "0,9,12", "top-k"],
)
def test_cli_fit_lppl_grid_takes_three_positive_counts(tmp_path, capsys, grid, top_k,
                                                       message):
    t = np.arange(60.0)
    csv_path = str(tmp_path / "up.csv")
    write_price_csv([pc.PriceSeries(t, 5.0 + 0.001 * t, "UP")], csv_path)
    rc = cli_dispatch(["fit-lppl", "--input", csv_path, "--grid", grid,
                       "--top-k", top_k, "--out", str(tmp_path / "fit")])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "fit")


def test_cli_study_replay_byte_identical(tmp_path):
    spec = _spec_file(tmp_path)
    cfg = {
        "pre_crash_window": 504,
        "exclusion_margin": 504,
        "signals": ["volatility", "anomalous_dim"],
        "ews": {"window": 126, "stride": 10, "tau_grid": [2, 4, 8, 16], "orders": [1]},
    }
    cfg_path = tmp_path / "study.json"
    cfg_path.write_text(json.dumps(cfg))
    blobs = []
    for name in ("r1", "r2"):
        out = str(tmp_path / name)
        rc = cli_dispatch(
            ["study", "--spec", spec, "--config", str(cfg_path), "--seed", "11",
             "--out", out]
        )
        assert rc == 0
        blobs.append(
            tuple(
                Path(os.path.join(out, f)).read_bytes()
                for f in ("report.json", "report.csv", "segments.csv", "manifest.json")
            )
        )
    assert blobs[0] == blobs[1]
    report = json.loads(blobs[0][0])
    assert report["n_events"] == 3
    assert "anomalous_dim" in report["signals"]


def test_cli_study_requires_one_input(tmp_path):
    assert cli_dispatch(["study", "--out", str(tmp_path)]) == 1


def test_cli_exit_codes(tmp_path, capsys):
    assert cli_dispatch(["bogus"]) == 1
    capsys.readouterr()
    # a bare phasecrash is a usage error
    assert cli_dispatch([]) == 1
    assert capsys.readouterr().err.startswith("usage: phasecrash")
    assert cli_dispatch(["ews", "--input", "/does/not/exist.csv"]) == 1
    # diverging simulation is a computation failure
    rc = cli_dispatch(
        ["simulate", "--kind", "cpt", "--dt", "1.0", "--p0", "3.0", "--n", "50",
         "--out", str(tmp_path)]
    )
    assert rc == 2
    out = tmp_path / "bad"
    out.mkdir()
    rc = cli_dispatch(["simulate", "--kind", "cpt", "--n", "50", "--t-start", "50",
                       "--out", str(out)])
    assert rc == 1
    # only a command that exits 0 leaves a manifest
    assert not (tmp_path / "manifest.json").exists()
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("kind, flag, value", [("cpt", "--sigma", "nan"),
                                               ("cpt", "--p0", "inf"),
                                               ("spt", "--lam", "nan"),
                                               ("dpt-hurst", "--scale", "nan"),
                                               ("multi", "--mu-start", "nan"),
                                               ("multi", "--lam", "-1"),
                                               ("bm", "--sigma", "nan"),
                                               ("bm", "--p0", "inf"),
                                               ("cpt", "--dt", "inf"),
                                               ("multi", "--dt", "inf")])
def test_cli_simulate_bad_param_is_a_usage_error(tmp_path, capsys, kind, flag, value):
    # refused before any draw, so it exits 1 naming the field, not 2 as a divergence
    out = tmp_path / "o"
    rc = cli_dispatch(["simulate", "--kind", kind, "--n", "50", flag, value,
                       "--seed", "1", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("phasecrash: error: ")
    assert flag[2:].replace("-", "_") in err
    assert not out.exists()


@pytest.mark.parametrize("seed, rc", [("-1", 1), (str(2**64), 1), (str(2**64 - 1), 0)])
@pytest.mark.parametrize("command", ["simulate", "detect-crashes"])
def test_cli_seed_must_be_an_unsigned_64_bit_int(tmp_path, capsys, seed, rc, command):
    # detect-crashes draws nothing, so only the dispatcher checks its seed
    prices = _write(tmp_path, "date,ticker,close\n2020-01-02,A,100\n")
    out = tmp_path / "out"
    args = {"simulate": ["simulate", "--kind", "bm", "--n", "50"],
            "detect-crashes": ["detect-crashes", "--input", prices]}[command]
    assert cli_dispatch([*args, "--seed", seed, "--out", str(out)]) == rc
    if rc:
        assert "seed" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("argv", [["--version"], ["ews", "--help"]])
def test_cli_help_and_version_return_zero(capsys, argv):
    assert cli_dispatch(argv) == 0
    out = capsys.readouterr().out
    if argv == ["--version"]:
        assert out == f"{pc.__version__}\n"
    else:
        assert out.startswith("usage: phasecrash ews")


@pytest.mark.parametrize("case", ["input-is-a-directory", "out-under-a-file"])
def test_cli_unreadable_input_or_unwritable_out_exits_1(tmp_path, capsys, case):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    argv = {"input-is-a-directory": ["ews", "--input", str(tmp_path),
                                     "--out", str(tmp_path / "o")],
            "out-under-a-file": ["simulate", "--kind", "bm", "--n", "50",
                                 "--out", str(blocker / "sub")]}[case]
    assert cli_dispatch(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("phasecrash: error:") and "Traceback" not in err


def test_error_families():
    for cls in (GenerationError, SimulationOverflowError, DegenerateDesignError,
                FitFailureError):
        assert issubclass(cls, pc.ComputationError) and not issubclass(cls, ValueError)
    for cls in (CsvParseError, AlignmentError, InsufficientDataError):
        assert issubclass(cls, ValueError) and not issubclass(cls, pc.ComputationError)


@pytest.mark.parametrize(
    "exc, rc",
    [(GenerationError("no factor"), 2),
     (SimulationOverflowError("diverged", step=3), 2),
     (DegenerateDesignError("rank 2"), 2),
     (FitFailureError("no node"), 2),
     (ZeroDivisionError("division by zero"), 2),
     (ValueError("bad value"), 1),
     (CsvParseError("bad row", line=2), 1),
     (AlignmentError("not aligned", ids=["B"]), 1),
     (InsufficientDataError("too short"), 1),
     (json.JSONDecodeError("bad json", "{", 1), 1),
     (FileNotFoundError("absent"), 1),
     (IsADirectoryError("a directory"), 1)],
    ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v),
)
def test_cli_error_type_picks_the_exit_code(tmp_path, capsys, monkeypatch, exc, rc):
    def command(args):
        raise exc

    monkeypatch.setitem(pc_cli._COMMANDS, "detect-crashes", command)
    out = tmp_path / "o"
    assert cli_dispatch(["detect-crashes", "--input", "x.csv", "--out", str(out)]) == rc
    what = "error" if rc == 1 else "computation failed"
    assert capsys.readouterr().err == f"phasecrash: {what}: {exc}\n"
    assert not out.exists()


def test_cli_env_log_level(tmp_path, monkeypatch):
    monkeypatch.setenv("PHASECRASH_LOG", "DEBUG")
    out = str(tmp_path / "env")
    rc = cli_dispatch(
        ["simulate", "--kind", "bm", "--n", "50", "--dt", "1", "--seed", "1", "--out", out]
    )
    assert rc == 0


def test_no_command_mutates_inputs(tmp_path):
    spec = _spec_file(tmp_path, n_crash=1, n_bm=1)
    before = Path(spec).read_bytes()
    out = str(tmp_path / "o")
    cli_dispatch(["synth", "--spec", spec, "--seed", "1", "--out", out])
    corpus = os.path.join(out, "corpus.csv")
    raw = Path(corpus).read_bytes()
    cli_dispatch(["detect-crashes", "--input", corpus, "--out", str(tmp_path / "o2")])
    assert Path(spec).read_bytes() == before
    assert Path(corpus).read_bytes() == raw


def test_cli_simulate_multi_writes_panel(tmp_path):
    out = str(tmp_path / "multi")
    rc = cli_dispatch(
        ["simulate", "--kind", "multi", "--k", "3", "--coupling", "0.5", "--n", "200",
         "--dt", "0.01", "--sigma", "0.05", "--seed", "4", "--out", out]
    )
    assert rc == 0
    loaded = load_price_csv(os.path.join(out, "path.csv"))
    assert [s.id for s in loaded] == ["SIM000", "SIM001", "SIM002"]
    assert all(len(s) == 201 for s in loaded)


def test_cli_ews_cross_cov_intersect(tmp_path):
    spec = _spec_file(tmp_path, n_crash=0, n_bm=3)
    out = str(tmp_path / "cc")
    cli_dispatch(["synth", "--spec", spec, "--seed", "5", "--out", out])
    rc = cli_dispatch(
        ["ews", "--input", os.path.join(out, "corpus.csv"), "--signals", "cross_cov",
         "--window", "126", "--stride", "21", "--tau-grid", "2,4,8", "--calendar",
         "intersect", "--out", out]
    )
    assert rc == 0
    lines = Path(os.path.join(out, "signals.csv")).read_text(encoding="utf-8").splitlines()
    assert all(ln.split(",")[1] == "cross_cov" for ln in lines[1:])
    assert len(lines) > 10
