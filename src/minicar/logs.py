"""Raw driving logs and their CSV representation.

A log is one uniform-rate recording from the robot: commanded inputs,
encoder speed, IMU yaw rate and, when an external tracking system was
running, the global pose. CSV schema (header required)::

    t,tau,s,v_enc,omega_imu[,x_t,y_t,eta_t]

UTF-8, '.' decimal separator, SI units, one row per sample on a
uniform time grid. Row numbers in parse errors are 1-based over data
rows (the header does not count).

This module owns the CSV dialect for every file minicar reads or
writes: ``read_table`` parses any header-labelled numeric CSV
(trajectory exports included) and ``format_table`` writes one, with
floats in ``repr`` form so files are byte-stable and re-read without
precision loss (each distinct bit pattern of a row block is formatted
once, to the same bytes). ``load_log`` and ``dump_log`` add the RawLog
header rules on top.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import MinicarError, ParseError

REQUIRED_COLUMNS = ("t", "tau", "s", "v_enc", "omega_imu")
MOCAP_COLUMNS = ("x_t", "y_t", "eta_t")
# The inputs after the actuation delays, which a trajectory export adds.
APPLIED_COLUMNS = ("tau_applied", "s_applied")

# A step may differ from the median step by this much, relative to
# max(dt, 1 s), and the grid still counts as uniform.
GRID_TOLERANCE = 1e-6

# A command may leave [-1, 1] by this much and still count as in range.
COMMAND_TOLERANCE = 1e-9

FORMAT_BLOCK_ROWS = 256


def median(x) -> float:
    """``np.median`` of a non-empty sequence without NaNs, to the same bits,
    but without the NaN check for which ``np.median`` imports ``numpy.ma``."""
    lo, hi = (len(x) - 1) // 2, len(x) // 2
    return float(np.mean(np.partition(x, [lo, hi])[lo : hi + 1]))


def grid_step(t: np.ndarray, error: type[MinicarError] = ParseError) -> float:
    """Median step of a time column of at least two samples. Raises ``error``
    naming the 1-based row where the column is not finite, stops increasing
    or has a step that strays from the median by more than GRID_TOLERANCE."""
    if (bad := np.flatnonzero(~np.isfinite(t))).size:
        raise error("time must be finite", row=int(bad[0]) + 1)
    steps = np.diff(t)
    back = np.flatnonzero(steps <= 0)
    if back.size:
        raise error("time must be strictly increasing", row=int(back[0]) + 2)
    dt = median(steps)
    off = np.flatnonzero(np.abs(steps - dt) > GRID_TOLERANCE * max(dt, 1.0))
    if off.size:
        raise error("samples must lie on a uniform time grid", row=int(off[0]) + 2)
    return dt


def command_out_of_range(*columns: np.ndarray) -> int | None:
    """Index of the first row at which a command column leaves [-1, 1]
    by more than COMMAND_TOLERANCE (None when every row is in range)."""
    outside = np.any(np.abs(np.stack(columns)) > 1 + COMMAND_TOLERANCE, axis=0)
    return int(np.argmax(outside)) if outside.any() else None


@dataclass(frozen=True)
class MocapBlock:
    """Globally referenced pose track from an external tracking system."""

    x_t: np.ndarray
    y_t: np.ndarray
    eta_t: np.ndarray


@dataclass(frozen=True)
class RawLog:
    """Time-stamped sensor and command series as recorded on the robot."""

    t: np.ndarray
    tau: np.ndarray
    s: np.ndarray
    v_enc: np.ndarray
    omega_imu: np.ndarray
    mocap: MocapBlock | None = None
    name: str = ""
    _dt: float | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        arrays = [self.t, self.tau, self.s, self.v_enc, self.omega_imu]
        if self.mocap is not None:
            arrays += [self.mocap.x_t, self.mocap.y_t, self.mocap.eta_t]
        n = self.t.size
        if any(a.size != n for a in arrays):
            raise ParseError("all log columns must have equal length")
        object.__setattr__(self, "_dt", grid_step(self.t) if n >= 2 else None)
        if (bad := command_out_of_range(self.tau, self.s)) is not None:
            raise ParseError("throttle and steering must lie in [-1, 1]", row=bad + 1)
        for a in arrays:
            a.setflags(write=False)

    def __len__(self) -> int:
        return int(self.t.size)

    @property
    def dt(self) -> float:
        """The grid step, as ``grid_step`` found it on construction."""
        if self._dt is None:
            raise ParseError("log too short to define a sample period")
        return self._dt


def _parse_at_once(lines: list[str], width: int) -> np.ndarray | None:
    """The rows after the header line as one (rows, width) array from one
    numpy call, or None when numpy refuses a field or finds another
    shape. Where the text holds no unit separator (U+001F), numpy reads
    a strict subset of what ``float`` reads, to the same floats."""
    try:
        data = np.loadtxt(lines[1:], delimiter=",", comments=None, ndmin=2, dtype=float)
    except ValueError:
        return None
    return data if data.shape == (len(lines) - 1, width) else None


def _parse_rows(lines: list[str], width: int, where: str) -> np.ndarray:
    """The rows after the header line parsed one by one; ParseError naming
    the first row with a wrong field count or a non-numeric field."""
    rows = []
    for i, line in enumerate(lines[1:], start=1):
        parts = line.split(",")
        if len(parts) != width:
            raise ParseError(f"{where}: expected {width} fields, got {len(parts)}", row=i)
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise ParseError(f"{where}: non-numeric field: {exc}", row=i) from exc
    return np.asarray(rows, dtype=float)


def read_table(source, name: str = "") -> dict[str, np.ndarray]:
    """Parse a header line and numeric rows into named float columns.

    ``source`` is a path, bytes, or a text or binary stream, read whole;
    bytes are decoded once, a line ends where ``str.splitlines`` ends one
    (LF, CR LF, CR, VT, FF, FS, GS, RS, NEL, LS or PS), and one leading
    byte-order mark (U+FEFF) is dropped. Raises ParseError, naming the
    1-based row where there is one, for text that is not UTF-8, an empty
    file, duplicate column names, a header without rows, a wrong field
    count and a non-numeric or non-finite field. The rows are parsed in
    one numpy call; a table it refuses is re-read row by row, and that
    re-read names the faulty row.
    """
    if isinstance(source, (str, Path)):
        name = name or str(source)
        text = Path(source).read_bytes()  # bound to ``text`` alone, so decoding frees it
    else:
        text = source if isinstance(source, bytes) else source.read()
    where = name or "<stream>"
    try:
        text = text.decode("utf-8") if isinstance(text, bytes) else text
    except UnicodeDecodeError as exc:
        raise ParseError(f"{where}: not UTF-8 text: {exc}") from exc

    lines = list(filter(str.strip, text.removeprefix("\ufeff").splitlines()))
    if not lines:
        raise ParseError(f"{where}: empty file")
    header = [h.strip() for h in lines[0].split(",")]
    if len(set(header)) != len(header):
        raise ParseError(f"{where}: duplicate column names in {lines[0]!r}")
    if len(lines) == 1:
        raise ParseError(f"{where}: header but no rows")
    # numpy strips "\x1f" around a number as whitespace; float does not.
    data = None if "\x1f" in text else _parse_at_once(lines, len(header))
    if data is None:
        data = _parse_rows(lines, len(header), where)

    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        i, j = bad[0]
        raise ParseError(f"{where}: non-finite {header[j]}", row=int(i) + 1)
    return {column: data[:, j] for j, column in enumerate(header)}


def load_log(source, name: str = "") -> RawLog:
    """Parse a RawLog from a path, text or binary stream.

    Raises ParseError, starting with the path (or ``name``, or
    ``<stream>``), with a 1-based row number for malformed rows,
    non-finite fields, non-monotone or non-uniform time and
    out-of-range inputs.
    """
    if isinstance(source, (str, Path)):
        name = name or str(source)
    table = read_table(source, name)
    where, header = name or "<stream>", tuple(table)
    if header[: len(REQUIRED_COLUMNS)] != REQUIRED_COLUMNS:
        raise ParseError(f"{where}: expected header starting with "
                         f"{','.join(REQUIRED_COLUMNS)}, got {','.join(header)!r}")
    extras = header[len(REQUIRED_COLUMNS) :]
    if extras not in ((), MOCAP_COLUMNS):
        raise ParseError(f"{where}: unrecognized extra columns {extras}")
    mocap = MocapBlock(*(table[c] for c in MOCAP_COLUMNS)) if extras else None
    try:
        return RawLog(*(table[c] for c in REQUIRED_COLUMNS), mocap=mocap, name=name)
    except ParseError as exc:  # RawLog's rules name the row, not the file
        raise exc.named(where) from None


def format_table(header, columns) -> str:
    """CSV text of equal-length float columns under a header line.

    Rows are formatted FORMAT_BLOCK_ROWS at a time, so only one block's
    Python floats and lines are alive at once, not a whole log's. Within
    a block, ``repr`` runs once per distinct bit pattern (0.0 and -0.0
    differ), which gives the bytes of one ``repr`` per field.
    """
    columns = [np.asarray(c, dtype=float) for c in columns]
    n = min((len(c) for c in columns), default=0)
    blocks = [",".join(header)]
    for start in range(0, n, FORMAT_BLOCK_ROWS):
        block = np.stack([c[start:min(start + FORMAT_BLOCK_ROWS, n)] for c in columns])
        bits, inverse = np.unique(block.view(np.int64), return_inverse=True)
        texts = np.array(list(map(repr, bits.view(float).tolist())), dtype=object)[inverse]
        blocks.append("\n".join(map(",".join, zip(*texts.reshape(block.shape).tolist()))))
    return "\n".join(blocks) + "\n"


def dump_log(log: RawLog) -> str:
    """Serialize a RawLog back to its CSV text form."""
    columns = [log.t, log.tau, log.s, log.v_enc, log.omega_imu]
    header = list(REQUIRED_COLUMNS)
    if log.mocap is not None:
        columns += [log.mocap.x_t, log.mocap.y_t, log.mocap.eta_t]
        header += list(MOCAP_COLUMNS)
    return format_table(header, columns)


def save_log(log: RawLog, path: str | Path) -> None:
    Path(path).write_text(dump_log(log), encoding="utf-8")
