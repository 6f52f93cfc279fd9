import io

import numpy as np
import pytest

from minicar.errors import ParseError
from minicar.logs import FORMAT_BLOCK_ROWS, RawLog, dump_log, format_table, load_log, save_log


def _csv(rows, header="t,tau,s,v_enc,omega_imu"):
    return header + "\n" + "\n".join(",".join(str(x) for x in r) for r in rows)


def test_load_wellformed_three_rows():
    text = _csv([[0.0, 0.1, 0.0, 0.5, 0.01], [0.01, 0.1, 0.0, 0.52, 0.0], [0.02, 0.1, 0.0, 0.53, 0.0]])
    log = load_log(text.encode())
    assert len(log) == 3
    assert log.mocap is None
    assert log.dt == pytest.approx(0.01)


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


def test_load_rejects_unknown_header():
    with pytest.raises(ParseError, match="header"):
        load_log(b"time,throttle\n0,0\n")


def test_load_rejects_empty():
    with pytest.raises(ParseError):
        load_log(b"")


def test_load_accepts_text_stream():
    text = _csv([[0.0, 0, 0, 0, 0], [0.01, 0, 0, 0, 0]])
    assert len(load_log(io.StringIO(text))) == 2


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


@pytest.mark.parametrize("rows", [0, 1, FORMAT_BLOCK_ROWS - 1, FORMAT_BLOCK_ROWS,
                                  FORMAT_BLOCK_ROWS + 1, 2 * FORMAT_BLOCK_ROWS + 3])
def test_format_table_blocks_match_whole_table_formatting(rows):
    """Formatting in row blocks gives the text of formatting every row at once."""
    rng = np.random.default_rng(rows)
    columns = [rng.normal(size=rows), np.arange(rows, dtype=float) * 0.01, rng.uniform(-1, 1, rows)]
    whole = "\n".join(["a,b,c", *(",".join(map(repr, row))
                                  for row in zip(*(c.tolist() for c in columns)))]) + "\n"
    assert format_table(("a", "b", "c"), columns) == whole
