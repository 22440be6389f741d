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
    window_config_from_dict,
    write_ews_csv,
    write_price_csv,
    write_report_csv,
    write_segments_csv,
)
from phasecrash.simulate import CptParams, MuSchedule, simulate_cpt
from phasecrash.study import SegmentTrend, SignalTrend, TrendReport

import io_reference
from conftest import fresh_python, readme_json_blocks


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


def _cross_cov_against_the_intersect_oracle(path, cfg):
    """cross_cov of the panel at ``path`` as it loads, checked against the
    oracle loader's panel restricted to the dates every ticker has."""
    got = pc.cross_covariance(load_price_csv(path), cfg)
    want = pc.cross_covariance(io_reference.load_price_csv(path, "intersect"), cfg)
    assert np.array_equal(got.values, want.values)
    assert (got.signal, got.id) == (want.signal, want.id)
    return got, want


def test_cross_cov_refuses_a_loaded_panel_with_no_common_dates(tmp_path):
    text = "date,ticker,close\n2020-01-02,A,100\n2020-01-03,B,50\n"
    path = _write(tmp_path, text)
    assert [s.dates for s in load_price_csv(path)] == [("2020-01-02",), ("2020-01-03",)]
    assert io_reference.load_price_csv(path, "intersect") == []
    with pytest.raises(InsufficientDataError) as exc:
        pc.cross_covariance(load_price_csv(path), pc.WindowConfig(window=2))
    assert str(exc.value) == "the panel shares 0 dates, needs at least window + 1 = 3"


def test_cross_cov_pairs_a_loaded_panel_on_its_common_dates(tmp_path):
    text = (
        "date,ticker,close\n"
        "2020-01-02,A,100\n2020-01-03,A,101\n2020-01-06,A,102\n2020-01-07,A,104\n"
        "2020-01-03,B,50\n2020-01-06,B,51\n2020-01-07,B,53\n"
    )
    path = _write(tmp_path, text)
    a, b = load_price_csv(path)
    assert (len(a), len(b)) == (4, 3)  # each ticker keeps its own dates
    got, want = _cross_cov_against_the_intersect_oracle(path, pc.WindowConfig(window=2))
    assert got.values.size == 1
    # stamped with A's index of 2020-01-07, where the oracle renumbers
    assert (got.times.tolist(), want.times.tolist()) == ([3.0], [2.0])


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


_HUGE = "X" * 200_000  # one field over csv.field_size_limit(), 131072 by default
_HUGE_ROW = "date,ticker,close\n2020-01-02,A,100\n2020-01-03," + _HUGE + ",101\n"


@pytest.mark.parametrize(
    "text, line, message",
    [(_HUGE_ROW, 3, "field larger than field limit"),
     # a bad row before the unreadable one is the first bad row
     (_HUGE_ROW.replace("A,100", "A,ten"), 2, "bad close 'ten'"),
     ("date," + _HUGE + ",close\n2020-01-02,A,100\n", 1, "field larger than field limit")],
    ids=["row", "earlier_bad_row", "header"],
)
def test_load_a_field_over_the_csv_limit_names_its_line(tmp_path, text, line, message):
    path = _write(tmp_path, text)
    with pytest.raises(CsvParseError) as exc:
        load_price_csv(path)
    assert exc.value.line == line
    assert str(exc.value).startswith(f"{path}:{line}: {message}")


def test_cli_study_reports_an_unreadable_csv_record_without_a_traceback(tmp_path, capsys):
    path = _write(tmp_path, _HUGE_ROW)
    out = tmp_path / "study"
    rc = cli_dispatch(["study", "--input", path, "--out", str(out)])
    assert rc == 1
    limit = csv.field_size_limit()
    err = capsys.readouterr().err
    assert err == f"phasecrash: error: {path}:3: field larger than field limit ({limit})\n"
    assert not out.exists()


def test_load_takes_no_calendar(tmp_path):
    path = _write(tmp_path, "date,ticker,close\n2020-01-02,A,100\n")
    with pytest.raises(TypeError) as exc:
        load_price_csv(path, "intersect")
    assert str(exc.value) == "load_price_csv() takes 1 positional argument but 2 were given"


@pytest.mark.parametrize("exists", [True, False])
def test_atomic_file_that_raises_leaves_no_temp_file_and_the_old_target(tmp_path, exists):
    path = tmp_path / "out.json"
    if exists:
        path.write_text("old\n", encoding="utf-8")
    with pytest.raises(RuntimeError, match="disk gone"):
        with pc_io._atomic_file(str(path)) as fh:
            fh.write("new\n")
            raise RuntimeError("disk gone")
    assert sorted(p.name for p in tmp_path.iterdir()) == (["out.json"] if exists else [])
    if exists:
        assert path.read_text(encoding="utf-8") == "old\n"


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
def test_load_mixed_date_spellings_sort_and_pair_in_calendar_order(tmp_path):
    text = (
        "date,ticker,close\n"
        "2000-01-04,A,101\n20000106,A,103\n2000-W01-1,A,100\n2000-01-05,A,102\n"
        "2000-01-03,B,50\n2000-W01-4,B,53\n2000-W01-3,B,52\n"
    )
    path = _write(tmp_path, text)
    a, b = load_price_csv(path)
    assert a.dates == ("2000-01-03", "2000-01-04", "2000-01-05", "2000-01-06")
    assert np.array_equal(a.log_prices, np.log([100.0, 101.0, 102.0, 103.0]))
    assert b.dates == ("2000-01-03", "2000-01-05", "2000-01-06")
    got, _ = _cross_cov_against_the_intersect_oracle(path, pc.WindowConfig(window=2))
    r = np.diff(np.log([[100.0, 102.0, 103.0], [50.0, 52.0, 53.0]]))
    assert got.values[0] == pytest.approx(np.cov(r)[0, 1], rel=1e-12)
    assert got.times.tolist() == [3.0]


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
    got = load_price_csv(path)
    _assert_same_series(got, io_reference.load_price_csv(path))
    assert [s.id for s in got] == ["BRK,A", "plain", 'say "hi"']
    # the tickers share 2020-01-02 and 2020-01-06, one return: too few
    assert [len(s) for s in io_reference.load_price_csv(path, "intersect")] == [2, 2, 2]
    with pytest.raises(InsufficientDataError) as exc:
        pc.cross_covariance(got, pc.WindowConfig(window=2))
    assert str(exc.value) == "the panel shares 2 dates, needs at least window + 1 = 3"


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
        # B's repeat comes first in the file, A's first in (ticker, date) order
        ("2020-01-02,A,1\n2020-01-03,B,1\n\n2020-01-03,B,2\n2020-01-02,A,3\n", 5),
        ("2020-01-02,A,1\n2020-01-02,A,2\n2020-01-02,A,3\n", 3),
        # a row is named by the line it starts on, after a quoted line break
        ('2020-01-02,"A\nB",100\n2020-01-03,C,ten\n', 4),
        ('2020-01-02,"A\nB",100\n2020-01-03,C,1\n2020-01-03,C,2\n', 5),
        ('2020-01-02,"A\n\nB",100\n\n2020-01-03,"C",1\n2020-01-03,C,2\n', 7),
        ('2020-01-02,A,1\n2020-01-03,A,"1\n2"\n', 3),
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


# Blank records between rows, every ticker's rows interleaved with the
# others', 2020-01-07 first seen near the end, one row padded, quoted ids
# holding ",", '"' and "%", and four tickers that share three dates.
_INTERLEAVED = (
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
    "2020-01-06,%s,9.25\n"
    "2020-01-07,%s,9\n"
    '2020-01-07,"say ""hi""",4\n'
    "2020-01-07,50%,8\n"
    '2020-01-07,"BRK,A",102\n'
    "\n"
)


def test_load_of_interleaved_tickers_matches_reference(tmp_path):
    path = _write(tmp_path, _INTERLEAVED)
    got = load_price_csv(path)
    _assert_same_series(got, io_reference.load_price_csv(path))
    assert [s.id for s in got] == ["BRK,A", 'say "hi"', "50%", "%s"]
    assert got[0].dates == ("2020-01-02", "2020-01-03", "2020-01-06", "2020-01-07")
    cc, _ = _cross_cov_against_the_intersect_oracle(path, pc.WindowConfig(window=2))
    assert cc.times.tolist() == [3.0]  # "BRK,A"'s index of 2020-01-07


def _good_rows(count):
    day0 = date(2000, 1, 3).toordinal()
    return "".join(f"{date.fromordinal(day0 + i).isoformat()},T{i % 3},{100 + i}\n"
                   for i in range(count))


_LATE_FAILURES = {
    "close": (_good_rows(20) + "2000-01-05,T1,ten\n", 22, "bad close 'ten'"),
    "arity": (_good_rows(20) + "\n2000-02-01,T1\n", 23, "expected 3 fields"),
    "duplicate": (_good_rows(20) + "2000-01-04,T1,5\n", 22,
                  "duplicate (ticker, date) = (T1, 2000-01-04)"),
    # the first bad row is reported, whatever kind of failure comes later
    "close-then-arity": (_good_rows(9) + "2000-01-03,T0,0\n" + _good_rows(5) + "x,T1\n", 11,
                         "close must be positive and finite, got 0"),
    "duplicate-then-date": (_good_rows(9) + "2000-01-03,T0,1\n" + _good_rows(5) + "x,T1,1\n",
                            11, "duplicate (ticker, date) = (T0, 2000-01-03)"),
}


@pytest.mark.parametrize("body, line, message", _LATE_FAILURES.values(), ids=_LATE_FAILURES)
def test_load_errors_after_good_rows_match_reference(tmp_path, body, line, message):
    path = _write(tmp_path, "date,ticker,close\n" + body)
    with pytest.raises(CsvParseError) as got:
        load_price_csv(path)
    with pytest.raises(CsvParseError) as want:
        io_reference.load_price_csv(path)
    assert (got.value.line, str(got.value)) == (want.value.line, str(want.value))
    assert str(got.value) == f"{path}:{line}: {message}"


@pytest.mark.parametrize("chunk", [64, pc_io._CHUNK], ids=["chunk64", "default"])
@pytest.mark.parametrize("body, line, message", _LATE_FAILURES.values(), ids=_LATE_FAILURES)
def test_load_errors_in_a_crlf_file_name_the_lf_file_lines(tmp_path, monkeypatch, body, line,
                                                           message, chunk):
    # 64-character chunks load the good rows by columns before the bad one
    monkeypatch.setattr(pc_io, "_CHUNK", chunk)
    path = tmp_path / "prices.csv"
    path.write_bytes(("date,ticker,close\n" + body).replace("\n", "\r\n").encode())
    with pytest.raises(CsvParseError) as got:
        load_price_csv(path)
    assert (got.value.line, str(got.value)) == (line, f"{path}:{line}: {message}")


@pytest.mark.parametrize("failure", ["header", *_LATE_FAILURES])
def test_failed_load_leaves_no_open_file(tmp_path, failure):
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


@pytest.mark.parametrize("failure", [None, *_LATE_FAILURES])
def test_load_opens_its_file_once(tmp_path, monkeypatch, failure):
    body = _good_rows(30) if failure is None else _LATE_FAILURES[failure][0]
    path = _write(tmp_path, "date,ticker,close\n" + body)
    opened = []

    def counting_open(*args, **kwargs):
        opened.append(args[0])
        return open(*args, **kwargs)

    monkeypatch.setattr(pc_io, "open", counting_open, raising=False)
    if failure is None:
        assert [s.id for s in load_price_csv(path)] == ["T0", "T1", "T2"]
    else:
        with pytest.raises(CsvParseError):
            load_price_csv(path)
    assert opened == [path]


_DECODE = "cannot decode byte 0xe9 as UTF-8"


@pytest.mark.parametrize(
    "data, line, message",
    [(b"date,ticker,close\n2020-01-02,A,100\n2020-01-03,Caf\xe9,101\n", 3, _DECODE),
     # a bad row before the byte is the first bad row, though the reader decodes ahead
     (b"date,ticker,close\n2020-01-02,A,ten\n2020-01-03,Caf\xe9,101\n", 2, "bad close 'ten'"),
     (b"date,ticker,clos\xe9\n2020-01-02,A,100\n", 1, _DECODE),
     # the byte's own line, after a quoted line break or a carriage return
     (b'date,ticker,close\n2020-01-02,"A\r\nB\xe9",100\n', 3, _DECODE),
     (b"date,ticker,close\r2020-01-02,A,100\r2020-01-03,\xe9,101\r", 3, _DECODE),
     # a UTF-8 encoded surrogate is not UTF-8 either
     (b"date,ticker,close\n2020-01-02,A\xed\xa0\x80,100\n", 2,
      "cannot decode byte 0xed as UTF-8"),
     # far past the first 8 KB the text reader decodes at once
     (b"date,ticker,close\n" + _good_rows(5000).encode() + b"2020-01-02,\xe9,1\n", 5002,
      _DECODE)],
    ids=["row", "earlier_bad_row", "header", "quoted_break", "carriage_returns", "surrogate",
         "deep"],
)
def test_load_a_byte_that_is_not_utf8_names_its_line(tmp_path, data, line, message):
    path = tmp_path / "prices.csv"
    path.write_bytes(data)
    with pytest.raises(CsvParseError) as exc:
        load_price_csv(str(path))
    assert exc.value.line == line
    assert str(exc.value) == f"{path}:{line}: {message}"


@pytest.mark.parametrize("width", [1, 10_000], ids=["within_8kb", "past_8kb"])
def test_load_a_wrong_header_wins_over_a_bad_byte_on_line_3(tmp_path, width):
    # the text reader decodes the file 8 KB at a time: where the byte falls
    # must not decide which error is reported
    path = tmp_path / "prices.csv"
    line_2 = f"2020-01-02,{'A' * width},100\n".encode()
    path.write_bytes(b"time,ticker,close\n" + line_2 + b"2020-01-03,Caf\xe9,101\n")
    with pytest.raises(CsvParseError) as exc:
        load_price_csv(str(path))
    assert exc.value.line == 1
    assert str(exc.value) == (
        f"{path}: expected header 'date,ticker,close', got ['time', 'ticker', 'close']"
    )


def test_cli_detect_reports_a_byte_that_is_not_utf8_by_line(tmp_path, capsys):
    path = tmp_path / "prices.csv"
    path.write_bytes(b"date,ticker,close\n2020-01-02,A,100\n2020-01-03,Caf\xe9,101\n")
    out = tmp_path / "events"
    assert cli_dispatch(["detect-crashes", "--input", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"phasecrash: error: {path}:3: {_DECODE}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "bad_row, message",
    [(b"2020-01-03,A,ten\n", "bad close 'ten'"), (b"2020-01-03,Caf\xe9,101\n", _DECODE)],
    ids=["bad-close", "bad-byte"],
)
def test_load_a_price_csv_that_starts_with_a_byte_order_mark(tmp_path, bad_row, message):
    # spreadsheet exports start a UTF-8 file with the mark EF BB BF
    bom = b"\xef\xbb\xbf"
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    write_price_csv(synth_corpus(json.loads(readme_json_blocks()["spec.json"]), 7), str(plain))
    marked.write_bytes(bom + plain.read_bytes())
    _assert_same_series(load_price_csv(str(marked)), load_price_csv(str(plain)))
    # the mark takes no line: a bad row on line 3 is still named line 3
    marked.write_bytes(bom + b"date,ticker,close\n2020-01-02,A,100\n" + bad_row)
    with pytest.raises(CsvParseError) as exc:
        load_price_csv(str(marked))
    assert exc.value.line == 3
    assert str(exc.value) == f"{marked}:3: {message}"


def test_load_a_crlf_copy_of_the_readme_corpus_by_columns(tmp_path, monkeypatch):
    # Windows spreadsheets end each line with CR LF
    lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
    write_price_csv(synth_corpus(json.loads(readme_json_blocks()["spec.json"]), 7), str(lf))
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    real, taken = pc_io._plain_rows, []

    def spy(text, *state):
        out = real(text, *state)
        taken.append((bool(text), out is not None))
        return out

    monkeypatch.setattr(pc_io, "_plain_rows", spy)
    got = load_price_csv(str(crlf))
    # every chunk loads by columns; the empty read at the end of the file ends the loop
    assert len(taken) > 50 and taken == [(True, True)] * (len(taken) - 1) + [(False, False)]
    _assert_same_series(got, load_price_csv(str(lf)))


#: Rows that need the csv reader's row loop, save the CRLF row, each placed
#: at row 3 of a file of 25-byte rows (line 5; the header is line 1).
_SEAM_ROWS = {
    "quoted_comma": b'2021-06-01,"A,B",101\n',
    "quoted_break": b'2021-06-01,"A\nB",101\n',
    "crlf": b"2021-06-01,T1,101\r\n",  # loads by columns, like its LF rows
    "lone_cr": b"2021-06-01,T1,101\r",
    "blank": b"\n",
    "bad_close": b"2021-06-01,T1,ten\n",
    "bad_byte": b"2021-06-01,Caf\xe9,101\n",
    "duplicate": b"2020-01-02,T1,101\n",  # row 2's pair
    # two fields, then four: split at every comma, the fields would line up
    "two_then_four": b"2021-06-01,A\n7.5,2021-06-02,B,8.5\n",
}


def _seam_file(tmp_path, special, tail):
    rows = [f"{date(2020, 1, 1) + timedelta(days=i // 2)},T{i % 2},{100 + i:.6f}\n".encode()
            for i in range(12)]
    assert {len(r) for r in rows} == {25}
    path = tmp_path / "seam.csv"
    path.write_bytes(b"date,ticker,close\n" + b"".join(rows[:3]) + special
                     + b"".join(rows[3:]) + tail)
    return str(path)


@pytest.mark.parametrize("tail", [b"", b"2021-07-01,T0,0\n"], ids=["clean", "late_bad_close"])
@pytest.mark.parametrize("case", list(_SEAM_ROWS))
def test_load_matches_reference_with_a_row_loop_row_at_every_chunk_seam(tmp_path, monkeypatch,
                                                                        case, tail):
    # chunks of 40 to 129 characters end before, inside and after the row at
    # 75-100, and some of them between its carriage return and line feed
    path = _seam_file(tmp_path, _SEAM_ROWS[case], tail)
    if case == "bad_byte":
        want = f"{path}:5: cannot decode byte 0xe9 as UTF-8"
    else:
        try:
            want = io_reference.load_price_csv(path)
        except CsvParseError as exc:
            want = str(exc)
    for chunk in range(40, 130):
        monkeypatch.setattr(pc_io, "_CHUNK", chunk)
        if isinstance(want, str):
            with pytest.raises(CsvParseError) as exc:
                load_price_csv(path)
            assert (str(exc.value), exc.value.line) == (want, int(want.split(":")[1])), chunk
        else:
            _assert_same_series(load_price_csv(path), want)


def test_seam_cases_reach_the_row_loop_from_plain_chunks(tmp_path, monkeypatch):
    # the cases above load some chunks by columns before the row loop takes
    # over, save the CRLF row, which never needs it
    real, taken = pc_io._plain_rows, []

    def spy(text, *state):
        out = real(text, *state)
        taken.append((bool(text), out is not None))
        return out

    monkeypatch.setattr(pc_io, "_plain_rows", spy)
    monkeypatch.setattr(pc_io, "_CHUNK", 60)
    for case, special in _SEAM_ROWS.items():
        taken.clear()
        path = _seam_file(tmp_path, special, b"")
        try:
            load_price_csv(path)
        except CsvParseError:
            pass
        if case == "crlf":  # only the empty read at the end of the file is refused
            assert taken == [(True, True)] * (len(taken) - 1) + [(False, False)], case
        else:
            assert taken[0] == (True, True) and not taken[-1][1], case


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


def test_signal_csv_peak_memory_streams_its_rows(tmp_path):
    # 20 series of 10,000 windows, an 8.3 MB file: measured 1.33 MB with one
    # template a series, 0.85 MB row by row through csv.writer; a list of
    # row tuples and a StringIO copy of the file peaked at 43.4 MB
    t = np.arange(10_000.0)
    values = np.random.default_rng(5).random(t.size)
    values[::97] = np.nan
    ews = [pc.EwsSeries(t, values, "volatility", f"T{i:02d}") for i in range(20)]
    path = tmp_path / "signals.csv"
    tracemalloc.start()
    try:
        write_ews_csv(ews, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.0 * 2**20
    with open(path, encoding="utf-8") as fh:
        assert sum(1 for _ in fh) == 1 + 20 * t.size


def test_signal_csv_matches_the_csv_writer_oracle(tmp_path):
    # missing and non-finite windows, ids and a signal that need quoting
    # or hold a %, -0.0, an empty series and an empty id
    rng = np.random.default_rng(11)
    values = rng.standard_normal(40) * 10.0 ** rng.integers(-300, 300, 40)
    values[[0, 3, 4, 17, 39]] = [np.nan, np.inf, -np.inf, np.nan, np.nan]
    values[5] = -0.0
    times = np.cumsum(rng.random(40)) - 3.0
    ews = [pc.EwsSeries(times, values, "volatility", name)
           for name in ("X", 'a,b "c"', "50%s%%", "line\nbreak", "cr\r", " pad ", "")]
    ews += [pc.EwsSeries(times[:3], values[:3], "sig,%d", "Y"),
            pc.EwsSeries([], [], "skewness", "empty"),
            pc.EwsSeries(times[:2], [np.nan, np.nan], "skewness", "gaps")]
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_ews_csv(ews, got)
    io_reference.write_ews_csv(ews, want)
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize(
    "bad_row, message, bound_mb",
    [
        # measured 7.56 MB (the clean load's peak) and 10.98 MB; a walk that
        # kept every row before the duplicate in a set peaked at 12.64 MB, and
        # sets of (ticker, date) tuples at 22.35 and 20.69 MB
        (lambda first: first, "duplicate (ticker, date) = (CRASH000, 2000-01-03)", 8.0),
        (lambda first: "2099-01-03,CRASH000,ten", "bad close 'ten'", 11.5),
    ],
    ids=["duplicate", "bad-close"],
)
def test_failed_load_peak_memory_on_the_readme_corpus(tmp_path, bad_row, message, bound_mb):
    path = tmp_path / "corpus.csv"
    write_price_csv(synth_corpus(json.loads(readme_json_blocks()["spec.json"]), 7), str(path))
    text = path.read_text(encoding="utf-8")
    path.write_text(text + bad_row(text.splitlines()[1]) + "\n", encoding="utf-8")
    tracemalloc.start()
    try:
        with pytest.raises(CsvParseError) as exc:
            load_price_csv(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == f"{path}:102442: {message}"
    assert peak <= bound_mb * 2**20


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
    _assert_same_series(load_price_csv(new), io_reference.load_price_csv(new))
    got, want = _cross_cov_against_the_intersect_oracle(new, pc.WindowConfig())
    assert np.array_equal(got.times, want.times)  # an aligned panel
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
    for key, value, rule in [("count", -1, "be >= 0"), ("n", 0, "be >= 1"),
                             ("dt", 0.0, "lie in (0, inf)"), ("dt", -1.0, "lie in (0, inf)"),
                             ("dt", math.inf, "lie in (0, inf)"),
                             ("dt", math.nan, "lie in (0, inf)"), ("sample_every", 0, "be >= 1"),
                             ("drop_len", 0, "be >= 1"), ("drop_len", -3, "be >= 1")]:
        kw = {"kind": "bm", "count": 1, "forced_drop": 0.25, key: value}
        message = f"asset group: {key} must {rule}, got {value!r}"
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
        ({"recovery_fraction": 0.05}, "recovery_fraction"),  # a fixed 5% since 0.14.0
        ({"ews": {"detrend": False}}, "detrend"),  # no detrending since 0.14.0
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


def test_window_config_from_dict():
    cfg = window_config_from_dict({"window": 126, "stride": 10, "tau_grid": [2, 4, 8, 16]})
    assert cfg == pc.WindowConfig(window=126, stride=10, tau_grid=(2, 4, 8, 16))
    assert window_config_from_dict({}) == pc.WindowConfig()


@pytest.mark.parametrize(
    "d, message",
    [
        ({"detrend": True}, "window config: unknown keys ['detrend']; known: "
                            "['orders', 'stride', 'tau_grid', 'window']"),
        ({"window": 126.0}, "window config: window must be int, got float"),
        ([126], "window config must be a JSON object, got list"),
        ({"stride": 0}, "stride must be >= 1, got 0"),
        # int() would have run these as lags (2, 4, 8, 16) and order 1
        ({"tau_grid": [2, 4, 8.9, "16"]}, "tau_grid[2] must be an integer, got 8.9"),
        ({"tau_grid": [2, "4"]}, "tau_grid[1] must be an integer, got '4'"),
        ({"tau_grid": [2, None]}, "tau_grid[1] must be an integer, got None"),
        ({"orders": [True]}, "orders[0] must be an integer, got True"),
        ({"orders": [1.5, 2]}, "orders[0] must be an integer, got 1.5"),
    ],
    ids=["detrend", "float-window", "not-an-object", "zero-stride", "float-lag", "string-lag",
         "null-lag", "bool-order", "float-order"],
)
def test_window_config_from_dict_refusals(d, message):
    with pytest.raises(ValueError) as exc:
        window_config_from_dict(d)
    assert str(exc.value) == message


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


@pytest.mark.parametrize("config", [None, {"signals": ["volatility", "ghe1"]}],
                         ids=["default", "config"])
def test_cli_study_probes_each_configured_signal_once(tmp_path, monkeypatch, config):
    # a --config run builds no default StudyConfig, so it never probes the
    # four default signals
    import phasecrash.study as pc_study

    probed = []

    def probe(signals, cfg, check=pc_study._check_window):
        probed.extend(signals)
        return check(signals, cfg)

    monkeypatch.setattr(pc_study, "_check_window", probe)
    panel = _panel_with_short_ticker(tmp_path)
    argv = ["study", "--input", panel, "--out", str(tmp_path / "st")]
    if config is not None:
        cfg_path = tmp_path / "study.json"
        cfg_path.write_text(json.dumps(config))
        argv[3:3] = ["--config", str(cfg_path)]
    assert cli_dispatch(argv) == 0
    want = config["signals"] if config else list(pc_study.StudyConfig.signals)
    assert probed == want


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


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask-022", "umask-077"])
def test_written_files_take_their_mode_from_the_umask(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        pc_io._atomic_write(tmp_path / "x.json", "{}\n")
        write_price_csv([pc.PriceSeries([0.0, 1.0], [1.0, 2.0], "A")], str(tmp_path / "p.csv"))
    finally:
        os.umask(old)
    assert [(f.name, f.stat().st_mode & 0o777) for f in sorted(tmp_path.iterdir())] == [
        ("p.csv", mode), ("x.json", mode)
    ]


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


def _outputs_under_blas_threads(work, threads):
    """Every file that the README ``synth``, a no-head ``dpt_hurst``
    ``synth``, ``simulate --kind dpt-hurst``, ``study --input``, the README
    ``fit-lppl`` and ``ews`` on that corpus, and ``simulate --kind multi``
    write, each run in a fresh interpreter with BLAS limited to ``threads``
    threads, by path relative to ``work``."""
    work.mkdir()
    for name, text in readme_json_blocks().items():
        (work / name).write_text(text + "\n", encoding="utf-8")
    (work / "nohead.json").write_text(json.dumps({"groups": [
        {"kind": "dpt_hurst", "count": 3, "n": 2048, "params": {"h_start": 0.6}}]}))
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "OMP_NUM_THREADS": str(threads),
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    for argv in (["synth", "--spec", "spec.json", "--seed", "7", "--out", "corpus"],
                 ["synth", "--spec", "nohead.json", "--seed", "7", "--out", "nohead"],
                 ["simulate", "--kind", "dpt-hurst", "--n", "2520", "--t-start", "1764",
                  "--seed", "5", "--out", "sim"],
                 ["study", "--input", "corpus/corpus.csv", "--config", "study.json",
                  "--seed", "7", "--out", "study"],
                 ["fit-lppl", "--input", "corpus/corpus.csv", "--ticker", "CRASH000",
                  "--out", "fit"],
                 ["ews", "--input", "corpus/corpus.csv", "--signals",
                  "volatility,anomalous_dim,ghe1", "--out", "signals"],
                 # the noise mix of ten coupled assets is a BLAS matmul
                 ["simulate", "--kind", "multi", "--k", "10", "--n", "2000", "--dt", "0.02",
                  "--seed", "5", "--out", "multi"]):
        subprocess.run([sys.executable, "-m", "phasecrash.cli", *argv], cwd=work, env=env,
                       check=True, capture_output=True)
    return {str(p.relative_to(work)): p.read_bytes()
            for p in sorted(work.rglob("*")) if p.parent != work}


def test_cli_outputs_are_byte_identical_under_any_blas_thread_count(tmp_path):
    # one and two threads write the same bytes, manifests included
    one = _outputs_under_blas_threads(tmp_path / "one", 1)
    two = _outputs_under_blas_threads(tmp_path / "two", 2)
    assert sorted(one) == sorted(two)
    assert {"corpus/corpus.csv", "nohead/manifest.json", "sim/path.csv",
            "study/report.json", "fit/fit.json", "signals/signals.csv",
            "multi/path.csv"} <= set(one)
    assert [name for name in one if one[name] != two[name]] == []


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


@pytest.mark.parametrize("j", [0, 4])
def test_cli_simulate_draws_an_asset_of_a_five_asset_dpt_hurst_group(tmp_path, j):
    # synth draws the group's ramped-Hurst paths in one pass over the head;
    # simulate draws asset j alone from its derived seed, to the same bits
    params = dict(_KIND_PARAMS["dpt_hurst"], onset=0.5)
    flags = [f"--{k.replace('_', '-')}={v}" for k, v in _KIND_PARAMS["dpt_hurst"].items()]
    group = {"kind": "dpt_hurst", "count": 5, "n": 400, "dt": 0.01, "params": params,
             "id_prefix": "SIM"}
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"groups": [group]}))
    synth_out, sim_out = str(tmp_path / "synth"), str(tmp_path / "sim")
    assert cli_dispatch(["synth", "--spec", str(spec), "--seed", "5", "--out", synth_out]) == 0
    rc = cli_dispatch(["simulate", "--kind", "dpt-hurst", "--n", "400", "--dt", "0.01",
                       "--t-start=200", *flags, "--seed", str(derive_seed(5, j)),
                       "--out", sim_out])
    assert rc == 0
    with open(os.path.join(synth_out, "corpus.csv"), encoding="utf-8") as fh:
        corpus = [(d, c) for d, ticker, c in csv.reader(fh) if ticker == f"SIM{j:03d}"]
    with open(os.path.join(sim_out, "path.csv"), encoding="utf-8") as fh:
        path = [(d, c) for d, _, c in list(csv.reader(fh))[1:]]
    assert len(path) == 401 and path == corpus


@pytest.mark.parametrize("kind", sorted(_KIND_PARAMS))
def test_simulate_asset_draws_a_seed_sequence_as_its_seeds_alone(kind):
    params = {**PARAM_DEFAULTS[kind], **_KIND_PARAMS[kind]}
    seeds = [derive_seed(9, j) for j in range(3)]
    alone = [pc_io.simulate_asset(kind, params, 300, 0.01, 150, s) for s in seeds]
    for group in (seeds, tuple(seeds), np.array(seeds, dtype=np.uint64)):
        paths = pc_io.simulate_asset(kind, params, 300, 0.01, 150, group)
        assert isinstance(paths, list) and len(paths) == 3
        assert all(np.array_equal(a, b) for a, b in zip(paths, alone))
    assert pc_io.simulate_asset(kind, params, 300, 0.01, 150, []) == []
    with pytest.raises(ValueError, match="seed must be an integer"):
        pc_io.simulate_asset(kind, params, 300, 0.01, 150, [seeds[0], True])


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
    ews = parser.parse_args(["ews", "--input", "x.csv"])
    assert ews.signals == study.signals
    assert (ews.window, ews.stride) == (window.window, window.stride)
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
    [(["--sample-every", "0"], "sample_every must be >= 1, got 0"),
     (["--t-start", "-5"], "t_start must be >= 0, got -5"),
     (["--dt", "-1"], "dt must lie in (0, inf), got -1.0"),
     (["--dt", "inf"], "dt must lie in (0, inf), got inf"),
     (["--n", "0"], "n must be >= 1, got 0"),
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
    assert "t_start must be >= 0, got -5" in capsys.readouterr().err


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


def test_cli_ews_estimates_every_signal_before_it_writes(tmp_path, capsys):
    # the writer streams its rows, so a signal estimated inside it would
    # fail after the output directory was made
    t = np.arange(300.0)
    path = str(tmp_path / "prices.csv")
    write_price_csv([pc.PriceSeries(t, 0.001 * t, "LONG"),
                     pc.PriceSeries(t[:50], np.zeros(50), "SHORT")], path)
    out = tmp_path / "signals"
    # a window both signals can use, which the command checks before it reads
    rc = cli_dispatch(["ews", "--input", path, "--signals", "volatility,anomalous_dim",
                       "--window", "126", "--tau-grid", "2,4,8,16", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == ("phasecrash: error: series 'SHORT' has 50 observations, "
                   "needs at least window + 1 = 127\n")
    assert not out.exists()


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


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (["ews", "--detrend"], None, "unrecognized arguments: --detrend"),
        (["detect-crashes", "--recovery", "0.05"], None,
         "unrecognized arguments: --recovery 0.05"),
        (["study"], {"recovery_fraction": 0.05},
         "study config: unknown keys ['recovery_fraction']"),
        (["study"], {"ews": {"detrend": True}}, "ews: unknown keys ['detrend']"),
    ],
    ids=["ews-detrend", "detect-recovery", "study-recovery-key", "study-detrend-key"],
)
def test_cli_refuses_the_retired_detrend_and_recovery_settings(tmp_path, capsys, argv, config,
                                                               message):
    # refused before the input is read, so a missing input is never reported
    if config is not None:
        (tmp_path / "study.json").write_text(json.dumps(config))
        argv = [*argv, "--config", str(tmp_path / "study.json")]
    out = tmp_path / "o"
    rc = cli_dispatch([*argv, "--input", str(tmp_path / "absent.csv"), "--out", str(out)])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def _two_tickers(tmp_path):
    t = np.arange(200.0)
    params = pc.LpplParams(A=7.0, B=-0.5, C1=0.05, C2=0.05, m=0.5, omega=8.0, tc=220.0)
    series = [pc.PriceSeries(t, 5.0 + 0.001 * t, "FLAT"),
              pc.PriceSeries(t, pc.lppl_log_price(params, t), "BUBBLE")]
    path = str(tmp_path / "two.csv")
    write_price_csv(series, path)
    return path


@pytest.mark.parametrize("ticker", [None, "FLAT", "BUBBLE"])
def test_cli_fit_lppl_picks_the_named_ticker(tmp_path, ticker):
    path = _two_tickers(tmp_path)
    out = str(tmp_path / "fit")
    given = [] if ticker is None else ["--ticker", ticker]
    assert cli_dispatch(["fit-lppl", "--input", path, "--grid", "4,3,3", *given,
                         "--out", out]) == 0
    manifest = _read_json(os.path.join(out, "manifest.json"))
    assert manifest["config"]["ticker"] == (ticker or "FLAT")


@pytest.mark.parametrize(
    "body, ticker, message",
    [("", None, "no series loaded"),
     ("", "FLAT", "no series loaded"),
     (None, "ABSENT", "ticker 'ABSENT' not found"),
     (None, "flat", "ticker 'flat' not found")],
)
def test_cli_fit_lppl_refuses_a_missing_ticker(tmp_path, capsys, body, ticker, message):
    path = _two_tickers(tmp_path) if body is None else _write(tmp_path, "date,ticker,close\n")
    out = tmp_path / "fit"
    given = [] if ticker is None else ["--ticker", ticker]
    assert cli_dispatch(["fit-lppl", "--input", path, *given, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"phasecrash: error: {path}: {message}\n"
    assert not out.exists()


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


@pytest.mark.parametrize(
    "flags, bounds",
    [(["--tc-min", "10", "--tc-max", "50"], "tc_bounds (10.0, 50.0)"),
     # a one-node tc grid sits at --tc-min, before the data end
     (["--tc-min", "50", "--tc-max", "200", "--grid", "1,9,12"],
      "tc_bounds (50.0, 200.0) with n_tc = 1")],
    ids=["range", "one_node"],
)
def test_cli_fit_lppl_refuses_a_tc_range_before_the_last_observation(tmp_path, capsys, flags,
                                                                     bounds):
    t = np.arange(60.0)
    csv_path = str(tmp_path / "up.csv")
    write_price_csv([pc.PriceSeries(t, 5.0 + 0.001 * t, "UP")], csv_path)
    out = tmp_path / "fit"
    rc = cli_dispatch(["fit-lppl", "--input", csv_path, *flags, "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert bounds in err and "last observation time 59.0" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, message",
    [(["--omega-max", "inf"], "omega_bounds must lie in (0, inf), got (2.0, inf)"),
     (["--tc-min", "400", "--tc-max", "inf"], "tc_bounds must be finite, got (400.0, inf)"),
     (["--m-min", "nan"], "m_bounds must lie in (0, 1), got (nan, 0.9)")],
    ids=["omega", "tc", "m"],
)
def test_cli_fit_lppl_refuses_a_bound_that_is_not_finite(tmp_path, capsys, flags, message):
    path = _two_tickers(tmp_path)
    out = tmp_path / "fit"
    assert cli_dispatch(["fit-lppl", "--input", path, *flags, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"phasecrash: error: {message}\n"
    assert not out.exists()


_NOT_OBJECT = "Expecting property name enclosed in double quotes: line 2 column 1 (char 2)"


@pytest.mark.parametrize(
    "command, flag, data, message",
    [("synth", "--spec", b"{\n", _NOT_OBJECT),
     ("study", "--spec", b"{\n", _NOT_OBJECT),
     ("study", "--config", b'{"signals": }', "Expecting value: line 1 column 13 (char 12)"),
     ("synth", "--spec", b'{"groups": [\xe9]}',
      "'utf-8' codec can't decode byte 0xe9 in position 12: invalid continuation byte")],
    ids=["synth", "study_spec", "study_config", "not_utf8"],
)
def test_cli_names_a_json_file_that_cannot_be_parsed(tmp_path, capsys, command, flag, data,
                                                     message):
    bad = tmp_path / "bad.json"
    bad.write_bytes(data)
    argv = [command, flag, str(bad)]
    if flag == "--config":  # the study also needs a panel
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"groups": [{"kind": "bm", "count": 1, "n": 300}]}))
        argv += ["--spec", str(spec)]
    out = tmp_path / "out"
    assert cli_dispatch([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"phasecrash: error: {bad}: {message}\n"
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
        ({"ews": {"tau_grid": [2, 4, 8.9, "16"]}}, "tau_grid[2] must be an integer, got 8.9"),
        ({"ews": {"orders": [1, True]}}, "orders[1] must be an integer, got True"),
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
     (["volatility", "volatility"], "signals repeats 'volatility'"),
     ([1], "signals must be a list of names, got (1,)"),
     (["volatility", ["ghe1"]], "signals must be a list of names, got ('volatility', ['ghe1'])"),
     # since 0.15.0 cross_cov is an ews signal only
     (["volatility", "cross_cov"], "unknown signal 'cross_cov'")],
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


@pytest.mark.parametrize(
    "flags, message",
    [(["--signals", "lag1_autocorr", "--window", "3"], "window must be >= 4, got 3"),
     (["--signals", "volatility,anomalous_dim", "--window", "30", "--tau-grid", "2,4,8,16"],
      "window 30 must exceed 4 * max(tau_grid) = 64 for scaling estimators"),
     (["--signals", "conformality", "--tau-grid", "2,4"],
      "conformality index needs at least 3 lags in tau_grid"),
     (["--signals", "volatility", "--window", "0"], "window must be >= 1, got 0")],
    ids=["moment-window", "scaling-window", "conformality-lags", "zero-window"],
)
def test_cli_ews_refuses_a_window_its_signals_cannot_use_before_reading_the_input(
        tmp_path, capsys, flags, message):
    out = tmp_path / "badwin"
    rc = cli_dispatch(["ews", "--input", str(tmp_path / "missing.csv"), *flags,
                       "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"phasecrash: error: {message}\n"
    assert not out.exists()


def test_cli_ews_cross_cov_checks_its_window_once_the_panel_is_read(tmp_path, capsys):
    # cross_cov's window rule reads the dates the panel shares, so a window
    # it cannot use is refused only after the input is read
    rc = cli_dispatch(["ews", "--input", str(tmp_path / "missing.csv"), "--signals",
                       "cross_cov", "--window", "1", "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "missing.csv" in capsys.readouterr().err


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
     ("bm", {"sigma": math.nan}, "sigma must lie in [0, inf), got nan"),
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
    message = f"asset group: dt must lie in (0, inf), got {dt!r}"
    assert f"phasecrash: error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_ews_refuses_unknown_signal_before_reading_input(tmp_path, capsys):
    rc = cli_dispatch(["ews", "--input", str(tmp_path / "absent.csv"),
                       "--signals", "cross_cov,bogus", "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "phasecrash: error: unknown signal 'bogus'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "signals, message",
    [("volatility,volatility", "signals repeats 'volatility'"),
     ("cross_cov,ghe1,cross_cov,ghe1", "signals repeats 'cross_cov', 'ghe1'")],
)
def test_cli_ews_refuses_a_repeated_signal(tmp_path, capsys, signals, message):
    rc = cli_dispatch(["ews", "--input", str(tmp_path / "absent.csv"),
                       "--signals", signals, "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err == f"phasecrash: error: {message}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("signals", ["volatility,,skewness", "volatility,", ",", " , ", ""])
def test_cli_ews_refuses_an_empty_signal_item_as_a_usage_error(tmp_path, capsys, signals):
    # an empty item is a typo, not a shorter list, as in --grid and --tau-grid
    rc = cli_dispatch(["ews", "--input", str(tmp_path / "absent.csv"),
                       "--signals", signals, "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: phasecrash ews")
    assert err.endswith(f"error: argument --signals: empty item in {signals!r}\n")
    assert not (tmp_path / "o").exists()


def test_cli_import_leaves_scipy_unloaded():
    code = "import sys, phasecrash.cli; print('scipy' in sys.modules)"
    assert fresh_python(code).split() == ["False"]


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
    assert fresh_python(code).split() == ["False", "0", "False"]
    assert os.path.exists(tmp_path / "fit.json")


@pytest.mark.parametrize(
    "grid, top_k, message",
    [("5", "0", "usage:"), ("5,6,7,8", "0", "usage:"), ("4,x,3", "0", "usage:"),
     # an empty item is a typo, not a shorter list
     ("3,,4,5", "0", "argument --grid: empty item in '3,,4,5'"),
     ("3,4,", "0", "argument --grid: empty item in '3,4,'"),
     # SearchConfig refuses counts that cannot form a search
     ("0,9,12", "0", "error: n_tc must be >= 1, got 0"),
     ("4,3,3", "-1", "error: refine_top_k must be >= 0, got -1")],
    ids=["5", "5,6,7,8", "4,x,3", "3,,4,5", "3,4,", "0,9,12", "top-k"],
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


@pytest.mark.parametrize("tau_grid", ["2,,4,8", "2,4,8,", ""])
def test_cli_ews_refuses_an_empty_tau_grid_item(tmp_path, capsys, tau_grid):
    rc = cli_dispatch(["ews", "--input", str(tmp_path / "absent.csv"),
                       "--tau-grid", tau_grid, "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert f"error: argument --tau-grid: empty item in {tau_grid!r}" in err
    assert not (tmp_path / "o").exists()


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


@pytest.mark.parametrize("with_config", [False, True])
def test_cli_study_manifest_records_the_resolved_config(tmp_path, with_config):
    spec = _spec_file(tmp_path, n_crash=1, n_bm=1)
    argv = ["study", "--spec", spec, "--seed", "3", "--out", str(tmp_path / "o")]
    cfg = pc.StudyConfig()
    if with_config:  # a partial config: the rest takes the defaults
        partial = {"signals": ["volatility", "ghe1"], "ews": {"window": 126, "tau_grid": [2, 4, 8]}}
        (tmp_path / "study.json").write_text(json.dumps(partial))
        argv += ["--config", str(tmp_path / "study.json")]
        cfg = study_config_from_dict(partial)
    assert cli_dispatch(argv) == 0
    recorded = _read_json(tmp_path / "o" / "manifest.json")["config"]
    assert sorted(recorded) == ["crash_threshold", "ews", "exclusion_margin", "lookback",
                                "pre_crash_window", "signals"]
    assert sorted(recorded["ews"]) == ["orders", "stride", "tau_grid", "window"]
    assert study_config_from_dict(recorded) == cfg


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
    for cls in (CsvParseError, InsufficientDataError):
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


def test_cli_ews_cross_cov(tmp_path):
    spec = _spec_file(tmp_path, n_crash=0, n_bm=3)
    out = str(tmp_path / "cc")
    cli_dispatch(["synth", "--spec", spec, "--seed", "5", "--out", out])
    rc = cli_dispatch(
        ["ews", "--input", os.path.join(out, "corpus.csv"), "--signals", "cross_cov",
         "--window", "126", "--stride", "21", "--tau-grid", "2,4,8", "--out", out]
    )
    assert rc == 0
    lines = Path(os.path.join(out, "signals.csv")).read_text(encoding="utf-8").splitlines()
    assert all(ln.split(",")[1] == "cross_cov" for ln in lines[1:])
    assert len(lines) > 10


def test_cli_ews_cross_cov_pairs_tickers_by_date(tmp_path):
    # two 300-day tickers 200 days apart: only 100 dates pair up
    rng = np.random.default_rng(derive_seed(22, 0))
    day0 = date(2020, 1, 1)
    panel = [
        pc.PriceSeries(np.arange(300.0), 4.6 + np.cumsum(0.01 * rng.standard_normal(300)),
                       ticker, tuple((day0 + timedelta(days=offset + i)).isoformat()
                                     for i in range(300)))
        for ticker, offset in (("A", 0), ("B", 200))
    ]
    path = str(tmp_path / "panel.csv")
    write_price_csv(panel, path)
    out = tmp_path / "o"
    argv = ["ews", "--input", path, "--signals", "cross_cov", "--window", "63"]
    assert cli_dispatch([*argv, "--out", str(out)]) == 0
    with open(out / "signals.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    cfg = pc.WindowConfig(window=63)
    want = pc.cross_covariance(io_reference.load_price_csv(path, "intersect"), cfg)
    assert [float(r["value"]) for r in rows] == want.values.tolist()
    # stamped with A's own index: the shared dates start at its day 200
    assert [float(r["window_end_time"]) for r in rows] == (200.0 + want.times).tolist()
    assert "calendar" not in _read_json(out / "manifest.json")["config"]


def test_cli_ews_has_no_calendar_flag(tmp_path, capsys):
    out = tmp_path / "o"
    argv = ["ews", "--input", str(tmp_path / "absent.csv"), "--calendar", "intersect"]
    assert cli_dispatch([*argv, "--out", str(out)]) == 1
    assert "unrecognized arguments: --calendar intersect" in capsys.readouterr().err
    assert not out.exists()


def test_cli_ews_stride_past_the_int64_range_gives_one_window(tmp_path):
    spec = _spec_file(tmp_path, n_crash=1, n_bm=2)
    out = str(tmp_path / "o")
    cli_dispatch(["synth", "--spec", spec, "--seed", "5", "--out", out])
    rc = cli_dispatch(
        ["ews", "--input", os.path.join(out, "corpus.csv"), "--signals",
         "volatility,anomalous_dim,cross_cov", "--window", "126", "--tau-grid", "2,4,8",
         "--stride", str(2**63), "--out", out]
    )
    assert rc == 0
    with open(os.path.join(out, "signals.csv"), newline="", encoding="utf-8") as fh:
        rows = [(r["asset_id"], r["signal"]) for r in csv.DictReader(fh)]
    ids = ["H000", "B000", "B001"]
    assert rows == [*((i, "volatility") for i in ids), *((i, "anomalous_dim") for i in ids),
                    ("H000|B000|B001", "cross_cov")]
