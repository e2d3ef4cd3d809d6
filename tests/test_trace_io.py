"""Trace and scan-table text formats: round trips, unit conversion and
hard failures on malformed input.
"""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from echofit.trace import (
    CONDITION_AXES,
    QUANTITY_IDS,
    EchoTrace,
    ScanTable,
    load_table,
    load_trace,
    write_table,
    write_trace,
)


def _trace(**over):
    kw = dict(sequence="2ppe",
              time_ms=np.array([0.00025, 0.001, 0.005, 0.02]),
              intensity=np.array([1.0, 0.8, 0.4, 0.05]),
              temperature_k=0.007,
              field_t=0.09,
              provenance="unit test")
    kw.update(over)
    return EchoTrace(**kw)


# ---------------------------------------------------------------------------
# trace round trips
# ---------------------------------------------------------------------------

def test_trace_round_trip_is_bit_exact(tmp_path):
    tr = _trace()
    p = tmp_path / "a.txt"
    write_trace(tr, p)
    back = load_trace(p)
    np.testing.assert_array_equal(back.time_ms, tr.time_ms)
    np.testing.assert_array_equal(back.intensity, tr.intensity)
    assert back.sequence == tr.sequence
    assert back.temperature_k == tr.temperature_k
    assert back.field_t == tr.field_t
    assert back.provenance == "unit test"


@pytest.mark.parametrize("unit,scale", [("ns", 1e-6), ("us", 1e-3),
                                        ("ms", 1.0), ("s", 1e3)])
def test_unit_declaration_converts_to_ms(tmp_path, unit, scale):
    p = tmp_path / "u.txt"
    body = (f"# unit-time: {unit}\n# sequence: 2ppe\n"
            "# temperature_K: 0.007\n# field_T: 0\n"
            "1 1.0\n2 0.5\n4 0.2\n")
    p.write_text(body)
    tr = load_trace(p)
    np.testing.assert_allclose(tr.time_ms, np.array([1.0, 2.0, 4.0]) * scale)


def test_three_pulse_trace_round_trip(tmp_path):
    tr = _trace(sequence="3ppe-vs-t23", t12_us=0.33,
                time_ms=np.array([0.05, 0.3, 2.0, 7.5]))
    p = tmp_path / "b.txt"
    write_trace(tr, p, unit_time="ms")
    back = load_trace(p)
    assert back.t12_us == 0.33
    np.testing.assert_array_equal(back.time_ms, tr.time_ms)


def test_write_then_load_twice_is_stable(tmp_path):
    tr = _trace()
    p1, p2 = tmp_path / "one.txt", tmp_path / "two.txt"
    write_trace(tr, p1)
    write_trace(load_trace(p1), p2)
    assert p1.read_text() == p2.read_text()


def test_minimal_three_row_file(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("# unit-time: us\n# sequence: 2ppe\n"
                 "# temperature_K: 1.8\n# field_T: 2\n"
                 "0.25 0.9\n1.0 0.5\n5.0 0.1\n")
    tr = load_trace(p)
    assert tr.n_points == 3
    assert tr.temperature_k == 1.8


# ---------------------------------------------------------------------------
# malformed trace files fail loudly
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("missing", ["unit-time", "sequence",
                                     "temperature_K", "field_T"])
def test_missing_required_header_is_fatal(tmp_path, missing):
    headers = {"unit-time": "us", "sequence": "2ppe",
               "temperature_K": "0.007", "field_T": "0"}
    del headers[missing]
    body = "".join(f"# {k}: {v}\n" for k, v in headers.items())
    body += "0.25 0.9\n1.0 0.5\n5.0 0.1\n"
    p = tmp_path / "bad.txt"
    p.write_text(body)
    with pytest.raises(ValueError, match=missing):
        load_trace(p)


def test_unknown_unit_is_fatal(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("# unit-time: fortnights\n# sequence: 2ppe\n"
                 "# temperature_K: 0.007\n# field_T: 0\n0.25 0.9\n")
    with pytest.raises(ValueError, match="fortnights"):
        load_trace(p)


def test_non_numeric_row_reports_line_number(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("# unit-time: us\n# sequence: 2ppe\n"
                 "# temperature_K: 0.007\n# field_T: 0\n"
                 "0.25 0.9\nhello world\n")
    with pytest.raises(ValueError, match=":6"):
        load_trace(p)


def test_wrong_column_count_is_fatal(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("# unit-time: us\n# sequence: 2ppe\n"
                 "# temperature_K: 0.007\n# field_T: 0\n"
                 "0.25 0.9 7\n")
    with pytest.raises(ValueError, match="two columns"):
        load_trace(p)


def test_table_non_numeric_cell_reports_file_and_line(tmp_path):
    # used to fail with float()'s text alone, naming neither
    p = tmp_path / "bad.csv"
    p.write_text("# condition-axis: field\n# quantity: gamma_eff\n"
                 "# columns: condition,value,stderr,flag\n"
                 "0.0,1.0,0.1,\n0.1,abc,0.2,\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(p))}:5: non-numeric data "
                                         "'0.1,abc,0.2'$"):
        load_table(p)


@pytest.mark.parametrize("late", ["# field_T: 0", "# a comment", "#"])
def test_trace_header_after_the_first_row_is_refused(tmp_path, late):
    # a header after the rows used to be read as one, overriding an earlier value
    p = tmp_path / "late.txt"
    p.write_text("# unit-time: us\n# sequence: 2ppe\n"
                 "# temperature_K: 0.007\n# field_T: 0.5\n\n"
                 f"0.25 0.9\n1.0 0.5\n{late}\n5.0 0.1\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(p))}:8: header "
                                         f"{re.escape(repr(late))} after the first data row$"):
        load_trace(p)


@pytest.mark.parametrize("load, head", [
    (load_table, "# condition-axis: field\n# quantity: gamma_eff\n"),
    (load_trace, "# unit-time: us\n# sequence: 2ppe\n# temperature_K: 0.007\n"
                 "# field_T: 0\n"),
], ids=["table", "trace"])
def test_header_without_a_colon_is_refused(tmp_path, load, head):
    # a table used to skip such a line
    p = tmp_path / "bad.txt"
    p.write_text(head + "\n# no colon here\n0.25,0.9,0.1,\n")
    line = head.count("\n") + 2
    with pytest.raises(ValueError, match=f"^{re.escape(str(p))}:{line}: malformed header "
                                         "'# no colon here'$"):
        load(p)


def test_table_header_block_ends_at_the_first_row(tmp_path):
    # a required header after the first row is no header
    p = tmp_path / "late.csv"
    p.write_text("# quantity: gamma_eff\n0.0,1.0,0.1,\n# condition-axis: field\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: missing required "
                                         "'# condition-axis:' header$"):
        load_table(p)


def test_non_monotone_times_rejected(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("# unit-time: us\n# sequence: 2ppe\n"
                 "# temperature_K: 0.007\n# field_T: 0\n"
                 "1.0 0.9\n0.5 0.5\n2.0 0.1\n")
    with pytest.raises(ValueError, match="increasing"):
        load_trace(p)


def test_trace_validation_direct():
    with pytest.raises(ValueError, match="sequence"):
        _trace(sequence="4ppe")
    with pytest.raises(ValueError, match="unknown sequence"):
        _trace(sequence="3ppe-vs-t12")
    with pytest.raises(ValueError, match="temperature"):
        _trace(temperature_k=0.0)
    with pytest.raises(ValueError, match="field"):
        _trace(field_t=-0.1)
    with pytest.raises(ValueError, match="t12_us"):
        _trace(sequence="3ppe-vs-t23")
    with pytest.raises(ValueError, match="finite"):
        _trace(intensity=np.array([1.0, np.nan, 0.4, 0.05]))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="times must be finite"):
            _trace(time_ms=np.array([0.00025, 0.001, 0.005, bad]))
    with pytest.raises(ValueError, match="times must be finite"):
        _trace(time_ms=np.array([0.00025, np.nan, 0.005, 0.02]))


@pytest.mark.parametrize("provenance", [
    "run 7\nby hand", "run 7\rby hand", "run 7\r\n", "  run 7 ", "run 7\t", None,
    "run \ud800"])
def test_a_provenance_the_format_cannot_hold_is_refused(provenance):
    # Written as given, the first two made files that failed to load, the next
    # four read back as "run 7" or "", and the last failed to write.
    with pytest.raises(ValueError) as err:
        _trace(provenance=provenance)
    assert str(err.value) == ("provenance must be one line of UTF-8 text without "
                              f"surrounding whitespace, got {provenance!r}")


# ---------------------------------------------------------------------------
# scan tables
# ---------------------------------------------------------------------------

def _table():
    return ScanTable(condition_axis="field", quantity_id="gamma_eff",
                     condition=np.array([0.0, 0.09, 0.5, 2.0]),
                     value=np.array([40.0, 28.5, 12.2, 19.9]),
                     stderr=np.array([0.5, 0.4, 0.2, 0.3]),
                     flag=["", "", "", ""])


def test_table_round_trip(tmp_path):
    tbl = _table()
    p = tmp_path / "scan.csv"
    write_table(tbl, p)
    back = load_table(p)
    assert back.condition_axis == "field"
    assert back.quantity_id == "gamma_eff"
    np.testing.assert_array_equal(back.condition, tbl.condition)
    np.testing.assert_array_equal(back.value, tbl.value)
    np.testing.assert_array_equal(back.stderr, tbl.stderr)
    assert back.flag == tbl.flag


def test_table_sorts_rows_by_condition():
    tbl = ScanTable(condition_axis="temperature", quantity_id="gamma_eff",
                    condition=np.array([1.0, 0.007, 0.1]),
                    value=np.array([30.0, 10.0, 20.0]),
                    stderr=np.zeros(3), flag=["a", "b", "c"])
    np.testing.assert_array_equal(tbl.condition, [0.007, 0.1, 1.0])
    np.testing.assert_array_equal(tbl.value, [10.0, 20.0, 30.0])
    assert tbl.flag == ["b", "c", "a"]


def test_table_keeps_failed_rows_with_nan():
    tbl = ScanTable(condition_axis="field", quantity_id="x",
                    condition=np.array([0.0, 0.1]),
                    value=np.array([1.3, np.nan]),
                    stderr=np.array([0.02, np.nan]),
                    flag=["", "failed: solver diverged"])
    assert tbl.n_rows == 2
    assert np.isnan(tbl.value[1])
    # a clean row must not carry a negative quoted error
    with pytest.raises(ValueError, match="stderr"):
        ScanTable(condition_axis="field", quantity_id="x",
                  condition=np.array([0.0, 0.1]),
                  value=np.array([1.3, 1.2]),
                  stderr=np.array([0.02, -0.5]),
                  flag=["", ""])


def test_table_rejects_unknown_axis_and_quantity():
    with pytest.raises(ValueError):
        ScanTable(condition_axis="pressure", quantity_id="gamma_eff",
                  condition=np.array([0.0]), value=np.array([1.0]),
                  stderr=np.array([0.0]), flag=[""])
    with pytest.raises(ValueError):
        ScanTable(condition_axis="field", quantity_id="resistance",
                  condition=np.array([0.0]), value=np.array([1.0]),
                  stderr=np.array([0.0]), flag=[""])


def test_table_flagged_round_trip(tmp_path):
    tbl = ScanTable(condition_axis="field", quantity_id="gamma_eff",
                    condition=np.array([0.0, 0.5]),
                    value=np.array([40.0, np.nan]),
                    stderr=np.array([0.5, np.nan]),
                    flag=["", "failed: no decay visible"])
    p = tmp_path / "flagged.csv"
    write_table(tbl, p)
    back = load_table(p)
    assert back.flag[1] == "failed: no decay visible"
    assert np.isnan(back.value[1])


def test_table_flags_with_commas_and_quotes_round_trip(tmp_path):
    flags = ["",
             "failed: all restarts failed: need at least 4 points inside "
             "the window, got 3; need at least 4 points inside the window, got 3",
             'failed: bad value "x", expected "y"',
             '"',
             "unbounded:g2;not-converged"]
    tbl = ScanTable(condition_axis="field", quantity_id="gamma_eff",
                    condition=np.arange(5.0), value=np.arange(5.0),
                    stderr=np.full(5, 0.1), flag=flags)
    p = tmp_path / "flags.csv"
    write_table(tbl, p, fmt="%.6g")
    assert load_table(p).flag == flags
    # rows whose flag needs no quoting keep the plain comma-joined form
    rows = p.read_text().splitlines()[3:]
    assert rows[0] == "0,0,0.1,"
    assert rows[4] == "4,4,0.1,unbounded:g2;not-converged"


def test_table_flag_with_a_lone_carriage_return_round_trips(tmp_path):
    # csv's minimal quoting left the "\r" bare, and the file failed to load
    tbl = ScanTable(condition_axis="field", quantity_id="x",
                    condition=np.arange(3.0), value=np.arange(3.0),
                    stderr=np.full(3, 0.1), flag=["a\rb", "", "\r"])
    p = tmp_path / "cr.csv"
    write_table(tbl, p, fmt="%.6g")
    assert load_table(p).flag == tbl.flag
    assert p.read_bytes().split(b"\n")[3:6] == [b'"0","0","0.1","a\rb"', b"1,1,0.1,",
                                                 b'"2","2","0.1","\r"']


def test_table_flags_with_newlines_round_trip(tmp_path):
    flags = ["failed: first line\nsecond, line", "", 'a "quoted"\r\nbreak',
             "\n# not a header\n", "unbounded:g2"]
    tbl = ScanTable(condition_axis="temperature", quantity_id="x",
                    condition=np.arange(5.0), value=np.arange(5.0),
                    stderr=np.full(5, 0.1), flag=flags)
    p = tmp_path / "newlines.csv"
    write_table(tbl, p)
    back = load_table(p)
    assert back.flag == flags
    np.testing.assert_array_equal(back.value, tbl.value)
    write_table(back, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == p.read_bytes()


# ---------------------------------------------------------------------------
# round-trip properties
# ---------------------------------------------------------------------------

def _same_floats(a, b):
    """Equal bit for bit, except that any NaN equals any NaN: a NaN is
    written as "nan" whatever its sign and payload."""
    a, b = np.asarray(a), np.asarray(b)
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and a[~nan].tobytes() == b[~nan].tobytes())


# Flag text from tokens that csv must quote (comma, quote, LF, CRLF, a
# lone CR) and plain ones, "#" included, which starts a header line.
_FLAGS = st.lists(st.sampled_from(["a", "Z", "0", " ", ":", ";", "#", "failed: ",
                                   ",", '"', "\n", "\r\n", "\r"]),
                  max_size=6).map("".join)


@st.composite
def _tables(draw):
    n = draw(st.integers(1, 8))
    flags = draw(st.lists(_FLAGS, min_size=n, max_size=n))
    # a clean row's stderr is NaN or >= 0; a flagged row's is anything
    stderr = [draw(st.floats() if f else
                   st.floats(min_value=0.0) | st.just(np.nan)) for f in flags]
    floats = st.lists(st.floats(), min_size=n, max_size=n)
    return ScanTable(draw(st.sampled_from(CONDITION_AXES)),
                     draw(st.sampled_from(QUANTITY_IDS)),
                     condition=draw(floats), value=draw(floats),
                     stderr=stderr, flag=flags)


def _assert_same_table(back, table, flags):
    assert (back.condition_axis, back.quantity_id) == (table.condition_axis,
                                                       table.quantity_id)
    for column in ("condition", "value", "stderr"):
        assert _same_floats(getattr(back, column), getattr(table, column)), column
    assert back.flag == flags


@settings(max_examples=100, deadline=None)
@given(table=_tables())
def test_table_round_trip_property(tmp_path_factory, table):
    p = tmp_path_factory.getbasetemp() / "scan.csv"
    write_table(table, p)
    _assert_same_table(load_table(p), table, table.flag)


@settings(max_examples=100, deadline=None)
@given(table=_tables())
def test_table_with_crlf_line_endings_loads_the_same(tmp_path_factory, table):
    # every line ending of the file turned into CRLF, the ones inside
    # quoted flags too, as a text editor or unix2dos does
    p = tmp_path_factory.getbasetemp() / "scan.csv"
    write_table(table, p)
    p.write_bytes(p.read_bytes().replace(b"\n", b"\r\n"))
    _assert_same_table(load_table(p), table,
                       [f.replace("\n", "\r\n") for f in table.flag])


@st.composite
def _increasing(draw, finite):
    times = sorted(set(draw(st.lists(finite, min_size=1, max_size=12))))
    return np.array(times)


# A time is stored in ms.  Written as t / scale and read back as
# float(text) * scale, it used to come back one ulp off in ns, us or s.
@pytest.mark.parametrize("unit", ["ns", "us", "ms", "s"])
@settings(max_examples=100, deadline=None)
@given(times=_increasing(st.floats(-1e290, 1e290)),
       intensity=st.floats(allow_nan=False, allow_infinity=False),
       provenance=st.text(st.characters(exclude_characters="\n\r",
                                        exclude_categories=["Cs"])).map(str.strip))
@example(times=np.array([7.94831875850697]), intensity=1.0,   # was one ulp off in all three
         provenance="")
def test_trace_round_trip_property(tmp_path_factory, unit, times, intensity, provenance):
    tr = _trace(time_ms=times, intensity=np.full(times.size, intensity),
                sequence="3ppe-vs-t23", t12_us=0.33, provenance=provenance)
    p = tmp_path_factory.getbasetemp() / "trace.txt"
    write_trace(tr, p, unit_time=unit)
    back = load_trace(p)
    assert back.time_ms.tobytes() == tr.time_ms.tobytes()
    assert back.intensity.tobytes() == tr.intensity.tobytes()
    assert (back.sequence, back.t12_us, back.temperature_k, back.field_t, back.provenance) \
        == (tr.sequence, tr.t12_us, tr.temperature_k, tr.field_t, tr.provenance)


def test_table_refuses_a_negative_stderr_only_on_a_clean_row_after_sorting():
    # each row keeps its own flag and stderr through the sort
    kept = ScanTable(condition_axis="field", quantity_id="x",
                     condition=np.array([1.0, 0.0, 0.5]),
                     value=np.array([np.nan, 1.0, 1.1]),
                     stderr=np.array([-0.5, 0.1, np.nan]),
                     flag=["failed: no decay visible", "", ""])
    assert kept.flag == ["", "", "failed: no decay visible"]
    np.testing.assert_array_equal(kept.stderr, [0.1, np.nan, -0.5])
    with pytest.raises(ValueError) as exc:
        ScanTable(condition_axis="field", quantity_id="x",
                  condition=np.array([1.0, 0.0]), value=np.array([1.0, 1.1]),
                  stderr=np.array([0.1, -0.5]), flag=["failed: no decay visible", ""])
    assert str(exc.value) == "stderr must be >= 0 on clean rows"
