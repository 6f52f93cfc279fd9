import io
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from minicar import logs
from minicar.errors import ConfigError, ParseError
from minicar.logs import FORMAT_BLOCK_ROWS, RawLog, dump_log, format_table, load_log, save_log
from minicar.scenarios import Scenario, constant


def _csv(rows, header="t,tau,s,v_enc,omega_imu"):
    return header + "\n" + "\n".join(",".join(str(x) for x in r) for r in rows)


def test_load_wellformed_three_rows():
    text = _csv([[0.0, 0.1, 0.0, 0.5, 0.01], [0.01, 0.1, 0.0, 0.52, 0.0], [0.02, 0.1, 0.0, 0.53, 0.0]])
    log = load_log(text.encode())
    assert len(log) == 3
    assert log.mocap is None
    assert log.dt == pytest.approx(0.01)


def test_a_loaded_log_finds_its_grid_step_once(monkeypatch):
    calls, grid_step = [], logs.grid_step

    def counting(t, *args):
        calls.append(t)
        return grid_step(t, *args)

    monkeypatch.setattr(logs, "grid_step", counting)
    log = load_log(_csv([[k * 0.01, 0.1, 0.0, 0.5, 0.0] for k in range(5)]).encode())
    assert [log.dt for _ in range(3)] == [pytest.approx(0.01)] * 3
    assert len(calls) == 1


def test_a_well_formed_log_is_parsed_without_the_row_loop(monkeypatch):
    monkeypatch.setattr(logs, "_parse_rows", lambda *args: pytest.fail("the row loop ran"))
    rows = [[k * 0.01, 0.1, -0.2, 0.5, 0.01, 1.0 + k, -2.0, 0.3] for k in range(50)]
    log = load_log(_csv(rows, "t,tau,s,v_enc,omega_imu,x_t,y_t,eta_t").encode())
    assert len(log) == 50 and log.mocap.x_t[-1] == 50.0


@pytest.mark.parametrize("excess, accepted", [(5e-10, True), (2e-9, False)])
def test_scenarios_and_logs_share_one_command_tolerance(excess, accepted):
    command = 1 + excess
    scenario = Scenario(name="edge", duration=0.04, dt=0.01, model="kinematic",
                        throttle=constant(0.2), steering=constant(command))
    text = _csv([[k * 0.01, 0.2, command, 0.0, 0.0] for k in range(5)]).encode()
    if accepted:
        assert scenario.sample_inputs()[1][0] == command
        assert load_log(text).s[0] == command
        return
    with pytest.raises(ConfigError, match="steering schedule leaves"):
        scenario.sample_inputs()
    with pytest.raises(ParseError, match="row 1"):
        load_log(text)


def test_load_decreasing_time_names_row():
    rows = [[i * 0.01, 0.0, 0.0, 0.0, 0.0] for i in range(10)]
    rows[6][0] = 0.01  # row 7 (1-based) goes back in time
    with pytest.raises(ParseError, match="row 7"):
        load_log(_csv(rows).encode())


def test_load_mocap_columns():
    text = _csv(
        [[0.0, 0, 0, 0, 0, 1.0, 2.0, 0.1], [0.01, 0, 0, 0, 0, 1.1, 2.0, 0.1], [0.02, 0, 0, 0, 0, 1.2, 2.0, 0.1]],
        header="t,tau,s,v_enc,omega_imu,x_t,y_t,eta_t",
    )
    log = load_log(text.encode())
    assert log.mocap is not None
    np.testing.assert_allclose(log.mocap.x_t, [1.0, 1.1, 1.2])


def test_load_rejects_bad_field_count():
    text = "t,tau,s,v_enc,omega_imu\n0.0,0.0,0.0,0.0\n"
    with pytest.raises(ParseError, match="row 1"):
        load_log(text.encode())


def test_load_rejects_non_numeric():
    text = "t,tau,s,v_enc,omega_imu\n0.0,0.0,0.0,0.0,0.0\n0.01,oops,0.0,0.0,0.0\n"
    with pytest.raises(ParseError, match="row 2"):
        load_log(text.encode())


@pytest.mark.parametrize("column", ["t", "v_enc", "omega_imu"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
def test_load_rejects_non_finite_field(column, value):
    rows = [[i * 0.01, 0.0, 0.0, 0.0, 0.0] for i in range(4)]
    rows[2][("t", "tau", "s", "v_enc", "omega_imu").index(column)] = value
    with pytest.raises(ParseError, match=rf"non-finite {column} \(row 3\)"):
        load_log(_csv(rows).encode())


def test_load_rejects_non_uniform_grid():
    rows = [[t, 0.0, 0.0, 0.0, 0.0] for t in (0.0, 0.01, 0.5, 0.51)]
    with pytest.raises(ParseError, match="uniform time grid.*row 3"):
        load_log(_csv(rows).encode())


@pytest.mark.parametrize("t, row", [([0.0, math.nan, 0.02], 2), ([0.0, 0.01, math.inf], 3),
                                    ([-math.inf, 0.0, 0.01], 1)])
def test_grid_step_refuses_a_non_finite_time_naming_its_row(t, row):
    with pytest.raises(ParseError, match=rf"time must be finite \(row {row}\)"):
        logs.grid_step(np.array(t))
    columns = {name: np.zeros(3) for name in ("tau", "s", "v_enc", "omega_imu")}
    with pytest.raises(ParseError, match=rf"time must be finite \(row {row}\)"):
        RawLog(t=np.array(t), **columns)


def test_load_accepts_rounding_jitter_in_time():
    rows = [[i * 0.01 + (1e-12 if i % 2 else 0.0), 0.0, 0.0, 0.0, 0.0] for i in range(5)]
    assert load_log(_csv(rows).encode()).dt == pytest.approx(0.01)


def test_load_rejects_duplicate_columns():
    with pytest.raises(ParseError, match="duplicate"):
        load_log(b"t,tau,s,v_enc,omega_imu,t\n0,0,0,0,0,0\n")


def test_load_rejects_out_of_range_inputs():
    text = _csv([[0.0, 1.5, 0.0, 0.0, 0.0], [0.01, 0.0, 0.0, 0.0, 0.0]])
    with pytest.raises(ParseError, match=r"\[-1, 1\]"):
        load_log(text.encode())


def test_load_rejects_unknown_header(tmp_path):
    """Both header errors name the file, as every parse error does."""
    path = tmp_path / "log.csv"
    for header, error in (("time,throttle", "expected header starting with"),
                          ("t,tau", "expected header starting with"),
                          ("t,tau,s,v_enc,omega_imu,x_t", "unrecognized extra columns")):
        text = f"{header}\n{','.join('0' for _ in header.split(','))}\n"
        with pytest.raises(ParseError, match=f"^<stream>: {error}"):
            load_log(text.encode())
        path.write_text(text)
        with pytest.raises(ParseError) as refused:
            load_log(path)
        assert str(refused.value).startswith(f"{path}: {error}")


def test_load_rejects_empty():
    with pytest.raises(ParseError):
        load_log(b"")


def test_load_accepts_text_stream():
    text = _csv([[0.0, 0, 0, 0, 0], [0.01, 0, 0, 0, 0]])
    assert len(load_log(io.StringIO(text))) == 2


@pytest.mark.parametrize("kind", ["path", "bytes", "text stream", "binary stream"])
def test_a_log_with_a_byte_order_mark_loads_like_one_without(tmp_path, kind):
    """Spreadsheet exports often start with U+FEFF; one leading mark is
    dropped after decoding, whatever the source."""
    text = _csv([[0.0, 0.1, 0.0, 0.5, 0.01, 0.0, 0.0, 0.0],
                 [0.01, 0.1, 0.0, 0.52, 0.0, 0.005, 0.0, 0.0]],
                header="t,tau,s,v_enc,omega_imu,x_t,y_t,eta_t")

    def load(body, name):
        data = body.encode()
        if kind == "path":
            path = tmp_path / name
            path.write_bytes(data)
            return load_log(path, name="log")
        return load_log({"bytes": data, "text stream": io.StringIO(body),
                         "binary stream": io.BytesIO(data)}[kind])

    plain, marked = load(text, "plain.csv"), load("\ufeff" + text, "marked.csv")
    assert dump_log(marked) == dump_log(plain)
    assert marked.name == plain.name and marked.mocap is not None


@pytest.mark.parametrize("end", ["\r\n", "\r"])
def test_crlf_and_lone_cr_read_as_lf_from_every_source(tmp_path, end):
    """A line may end in CR LF or a lone CR; a path, bytes, a text stream
    and a binary stream all give the columns of the LF file."""
    body = _csv([[0.0, 0.1, 0.0, 0.5, 0.01], [0.01, 0.1, 0.0, 0.52, 0.0]]) + "\n"
    expected = logs.read_table(body.encode())
    text = body.replace("\n", end)
    path = tmp_path / "log.csv"
    path.write_bytes(text.encode())
    for source in (path, text.encode(), io.StringIO(text), io.BytesIO(text.encode())):
        table = logs.read_table(source)
        assert list(table) == list(expected)
        assert all(table[c].tobytes() == expected[c].tobytes() for c in expected)


@pytest.mark.parametrize("spoil, error, row", [
    (lambda rows: rows[2].__setitem__(0, 0.01), "time must be strictly increasing", 3),
    (lambda rows: rows[2].__setitem__(0, 0.025), "samples must lie on a uniform time grid", 3),
    (lambda rows: rows[1].__setitem__(1, 1.5), "throttle and steering must lie in [-1, 1]", 2),
], ids=["non-increasing", "non-uniform", "command"])
def test_every_log_rule_names_the_file_in_load_log_and_fit(tmp_path, caplog, spoil, error, row):
    """RawLog's own rules (a time step and the command range) fail with a
    ParseError that starts with the log's path and keeps its row, as the
    parser's do, and ``fit`` reports that error."""
    from minicar.cli import main

    rows = [[i * 0.01, 0.2, 0.0, 0.5, 0.0] for i in range(10)]
    spoil(rows)
    path = tmp_path / "logs" / "steer" / "a.csv"
    path.parent.mkdir(parents=True)
    path.write_text(_csv(rows) + "\n")
    with pytest.raises(ParseError) as refused:
        load_log(path)
    assert str(refused.value) == f"{path}: {error} (row {row})"
    assert refused.value.row == row
    out = tmp_path / "fit" / "p.json"
    assert main(["fit", "--logs", str(path.parent.parent), "--out", str(out)]) == 2
    (message,) = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert message == str(refused.value)
    assert not out.parent.exists()


def test_dump_load_round_trip(tmp_path, rng):
    n = 20
    log = RawLog(
        t=np.arange(n) * 0.01,
        tau=np.clip(rng.normal(0.2, 0.1, n), -1, 1),
        s=np.clip(rng.normal(0, 0.3, n), -1, 1),
        v_enc=rng.normal(1.0, 0.1, n),
        omega_imu=rng.normal(0, 0.5, n),
        name="roundtrip",
    )
    path = tmp_path / "log.csv"
    save_log(log, path)
    back = load_log(path)
    np.testing.assert_array_equal(back.t, log.t)
    np.testing.assert_array_equal(back.v_enc, log.v_enc)
    assert dump_log(back) == dump_log(log)


def test_rawlog_rejects_ragged_columns():
    with pytest.raises(ParseError):
        RawLog(
            t=np.array([0.0, 0.01]),
            tau=np.zeros(3),
            s=np.zeros(2),
            v_enc=np.zeros(2),
            omega_imu=np.zeros(2),
        )


def test_the_sample_period_of_a_one_row_log_is_refused():
    log = RawLog(t=np.zeros(1), tau=np.zeros(1), s=np.zeros(1), v_enc=np.zeros(1),
                 omega_imu=np.zeros(1))
    with pytest.raises(ParseError, match="^log too short to define a sample period$"):
        log.dt


def test_rawlog_arrays_become_readonly():
    log = RawLog(
        t=np.array([0.0, 0.01]),
        tau=np.zeros(2),
        s=np.zeros(2),
        v_enc=np.zeros(2),
        omega_imu=np.zeros(2),
    )
    with pytest.raises(ValueError):
        log.t[0] = 5.0


def _repr_per_field(header, columns):
    """The reference CSV text: one ``repr`` per field, in rows that stop
    at the shortest column."""
    rows = zip(*(np.asarray(c, dtype=float).tolist() for c in columns))
    return "\n".join([",".join(header), *(",".join(map(repr, row)) for row in rows)]) + "\n"


@pytest.mark.parametrize("rows", [0, 1, FORMAT_BLOCK_ROWS - 1, FORMAT_BLOCK_ROWS,
                                  FORMAT_BLOCK_ROWS + 1, 2 * FORMAT_BLOCK_ROWS + 3])
def test_format_table_blocks_match_whole_table_formatting(rows):
    """Formatting in row blocks gives the text of formatting every row at once."""
    rng = np.random.default_rng(rows)
    columns = [rng.normal(size=rows), np.arange(rows, dtype=float) * 0.01, rng.uniform(-1, 1, rows)]
    assert format_table(("a", "b", "c"), columns) == _repr_per_field(("a", "b", "c"), columns)


# A few values, so that fields repeat within a block, and the ones whose
# bit patterns and repr are easy to confuse: the signed zeros, NaN and the
# infinities.
_POOL = (0.0, -0.0, 0.1, -0.1, 1.0, 5e-324, 1e300, math.nan, math.inf, -math.inf)
_ROWS = [k * FORMAT_BLOCK_ROWS + d for k in range(3) for d in (-1, 0, 1) if k or d >= 0]
# A column: runs of values, as piecewise-constant commands have, repeated
# to its length.
_RUNS = st.lists(st.tuples(st.sampled_from(_POOL) | st.floats(),
                           st.integers(1, FORMAT_BLOCK_ROWS + 1)), min_size=1, max_size=6)


@example(runs=[[(0.0, 1), (-0.0, 1), (math.nan, 1), (math.inf, 1), (-math.inf, 1)]],
         rows=FORMAT_BLOCK_ROWS + 1, extra=[0], duplicate=None)
@given(runs=st.lists(_RUNS, min_size=1, max_size=4),
       rows=st.sampled_from(_ROWS) | st.integers(0, 3 * FORMAT_BLOCK_ROWS),
       extra=st.lists(st.integers(0, 2), min_size=4, max_size=4),
       duplicate=st.none() | st.integers(0, 3))
def test_format_table_equals_a_repr_per_field(runs, rows, extra, duplicate):
    """Formatting each distinct bit pattern once per block gives the bytes
    of a ``repr`` per field: on runs and repeats, signed zeros, NaN and
    infinities in one block, a column that duplicates another, row counts
    on either side of a block boundary, and columns of unequal length,
    where the shortest decides."""
    columns = [np.resize(np.repeat(*zip(*r)), rows + more) for r, more in zip(runs, extra)]
    if duplicate is not None:
        columns.append(columns[duplicate % len(columns)].copy())
    header = [f"c{j}" for j in range(len(columns))]
    assert format_table(header, columns) == _repr_per_field(header, columns)


def test_format_table_formats_a_constant_once_per_block(monkeypatch):
    """Three columns holding one value make one repr call per block."""
    calls = []
    monkeypatch.setattr(logs, "repr", lambda x: calls.append(x) or repr(x), raising=False)
    text = format_table("abc", [np.full(1000, 0.25)] * 3)
    assert text == "a,b,c\n" + "0.25,0.25,0.25\n" * 1000
    assert len(calls) <= math.ceil(1000 / FORMAT_BLOCK_ROWS) == 4


def _outcome(text):
    """What read_table makes of ``text``: each column's bytes, or the
    message and row of its ParseError."""
    try:
        table = logs.read_table(io.StringIO(text))
    except ParseError as exc:
        return str(exc), exc.row
    return {name: column.tobytes() for name, column in table.items()}


def _row_loop_outcome(text):
    """``_outcome`` with the one-call parse refusing every table."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(logs, "_parse_at_once", lambda lines, width: None)
        return _outcome(text)


@given(rows=st.integers(1, 8).flatmap(lambda width: st.lists(
    st.lists(st.floats(width=64), min_size=width, max_size=width), min_size=1, max_size=30)))
def test_the_one_call_parse_and_the_row_loop_agree_bit_for_bit(rows):
    """The one-call parse accepts every table format_table writes and
    gives the row loop's columns, or its ParseError for a non-finite
    field."""
    header = [f"c{j}" for j in range(len(rows[0]))]
    text = format_table(header, np.array(rows).T)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(logs, "_parse_rows", lambda *args: pytest.fail("the row loop ran"))
        outcome = _outcome(text)
    assert outcome == _row_loop_outcome(text)


def _columns(*rows):
    return {name: np.array(column, dtype=float).tobytes() for name, column in zip("ab", zip(*rows))}


@pytest.mark.parametrize("body, expected", [
    ("1_0,2", _columns((10.0, 2.0))),
    ("\u0661,2", _columns((1.0, 2.0))),
    ("1,2\r\n3,4\r\n", _columns((1.0, 2.0), (3.0, 4.0))),
    ("1,2\n\n3,4\n", _columns((1.0, 2.0), (3.0, 4.0))),
    ("1,2\n \t\n3,4\n", _columns((1.0, 2.0), (3.0, 4.0))),
    ("1,2\x0c3,4\n", _columns((1.0, 2.0), (3.0, 4.0))),
    ("1,\x852\n", ("<stream>: non-numeric field: could not convert string to float: '' (row 1)",
                    1)),
    ("1,2,\n", ("<stream>: expected 2 fields, got 3 (row 1)", 1)),
    ("1\x1f,2\n", ("<stream>: non-numeric field: could not convert string to float: "
                   "'1\\x1f' (row 1)", 1)),
    ('1,2\n"3",4\n', ("<stream>: non-numeric field: could not convert string to float: "
                       "'\"3\"' (row 2)", 2)),
    ("1,2\n3,nan\n", ("<stream>: non-finite b (row 2)", 2)),
    ("1e400,2\n", ("<stream>: non-finite a (row 1)", 1)),
])
def test_edge_cases_read_as_the_row_loop_reads_them(body, expected):
    text = "a,b\n" + body
    assert _outcome(text) == _row_loop_outcome(text) == expected
