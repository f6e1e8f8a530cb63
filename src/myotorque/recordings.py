"""Reading and writing recordings as CSV files under one JSON index.

Layout of a session directory:

    session.json               index: joint, both sample rates, the two
                               calibration file names, and per take its
                               velocity, index and two data file names
    take_v<vel>_t<idx>_hi.csv  high-rate channels (time, angle, torque, EMG)
    take_v<vel>_t<idx>_fmg.csv FMG channels at their own rate
    calibration_standing.csv   relaxed FMG channels at the FMG rate
    calibration_angle.csv      initial-pose angle at the high rate

``session.json`` is the only JSON file. A synthetic session keeps its
generator spec there under ``spec`` for provenance; nothing reads it back.

Channels recorded at different rates live in separate files; within one
file every channel shares the time column, which must be strictly
increasing and uniform to within a part per million.

File format: a header row (``time_s`` first, then the channel labels),
then one row per sample. Every cell is ``%.17g`` of a float64 (17
significant digits, so ``-0`` and subnormals keep their exact value)
and every line ends in CRLF: the bytes ``csv.writer`` produces from
``format(x, ".17g")`` cells.

Writing: :func:`write_float_table`, the one writer of every CSV the
package writes, takes float columns and literal (``str``) columns and
formats 1024 rows at a time. A float cell with 1e-6 < |x| < 1e16 takes
the vectorized fast path: the 17 digits are round-half-even(|x| *
10**(16 - k)), computed exactly with Dekker's two-product against the
exact double 10**(16 - k), and laid out in %g's fixed or exponent form by
per-class byte masks and shifts. The other float cells (zeros,
subnormals, tiny, huge and non-finite values, about 0.25 % of a simulated
session) go through Python's ``%``; both give ``format(x, ".17g")``'s
bytes. A literal column is the same bytes on every row.

Reading: :func:`read_recording_csv` first checks every row's width in one
vectorized pass over the file's bytes, then parses the time and the
selected columns with numpy's correctly rounded C parser
(``np.loadtxt``), so a write/read cycle reproduces every float64 value
bit for bit. Cells of the columns it does not parse are not checked.
:func:`load_take` and :func:`load_session` take the model configs a
command uses and select the high-rate channels those configs read
(:func:`~myotorque.preprocess.input_channels`); the FMG file and the
calibration files are always read whole.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, InvalidSpec, MissingChannel
from .preprocess import Joint, input_channels
from .synthgen import SyntheticSession, _checked, _field, _member
from .timeseries import MultiChannelRecording, TimeSeries

_FORMAT_VERSION = 2
_INDEX_FILE = "session.json"
TIME_COLUMN = "time_s"
_CHUNK_ROWS = 1024  # rows formatted per write; bounds the memory held at once

# The vectorized %.17g formatter. A cell in its fast path, 1e-6 < |x| < 1e16,
# has a decimal exponent X (x = d.ddd... * 10**X after rounding to 17
# digits) from _MIN_EXP to _MAX_EXP. %g writes it in fixed notation for
# X >= -4 and as d.ddde-0X below; either way the cell is a constant prefix,
# one or two runs of the 17 digits (split by the decimal point) and a
# constant suffix, with trailing zero digits dropped. A cell's class
# (sign, X, significant digits, terminator) fixes that layout.
_MIN_EXP, _MAX_EXP = -6, 15
_N_EXP = _MAX_EXP - _MIN_EXP + 1
_SLOT = 32  # bytes per formatted cell: four uint64 words, NUL-padded
_LEAD_BYTE = 7  # the leading digit's byte in a cell's digit row


def _cell_layouts():
    """Per cell class, as uint64 words (one row per word) or per-class
    shifts: the masks picking the digit runs before and after the decimal
    point out of the digit row, the bit shifts that move each run to its
    place in the cell, and the cell's constant bytes."""
    n = 2 * _N_EXP * 17 * 2
    run_a, run_b, const = (np.zeros((n, _SLOT), np.uint8) for _ in range(3))
    shift_a, shift_b = np.zeros(n, np.uint64), np.zeros(n, np.uint64)
    classes = itertools.product((0, 1), range(_MIN_EXP, _MAX_EXP + 1),
                                range(1, 18), (0, 1))
    for i, (negative, exp, digits, last) in enumerate(classes):
        cell = "-" if negative else ""
        if exp < -4:  # d.ddde-0X
            n_a, at_a = 1, len(cell)
            cell += "d" + ("." + "d" * (digits - 1) if digits > 1 else "")
            cell += f"e-0{-exp}"
        elif exp < 0:  # 0.000ddd
            cell += "0." + "0" * (-exp - 1)
            n_a, at_a = digits, len(cell)
            cell += "d" * digits
        else:  # ddd.ddd
            n_a, at_a = exp + 1, len(cell)
            cell += "d" * n_a + ("." + "d" * (digits - n_a) if digits > n_a else "")
        cell += "\r\n" if last else ","
        run_a[i, _LEAD_BYTE : _LEAD_BYTE + n_a] = 0xFF
        run_b[i, _LEAD_BYTE + n_a : _LEAD_BYTE + digits] = 0xFF
        shift_a[i] = 8 * (_LEAD_BYTE - at_a)
        shift_b[i] = 8 * (_LEAD_BYTE - at_a - 1)  # run b follows the point
        const[i, : len(cell)] = np.frombuffer(cell.replace("d", "\0").encode(), np.uint8)
    words = lambda b: b.view("<u8").astype(np.uint64).T.copy()
    return words(run_a), words(run_b), shift_a, shift_b, words(const)


_RUN_A, _RUN_B, _SHIFT_A, _SHIFT_B, _CONST = _cell_layouts()
_GROUPS = np.arange(10_000)
# Four ASCII digits of 0..9999 in one word, most significant digit first.
_ASCII4 = sum(
    ((_GROUPS // 10 ** (3 - j) % 10 + 48) << (8 * j)).astype(np.uint64)
    for j in range(4)
)
# Trailing zero digits of each four-digit group (4 for 0000).
_ZEROS4 = sum((_GROUPS % 10**j == 0).astype(np.intp) for j in range(1, 5))
# Exact doubles: 10**p = 2**p * 5**p, and 5**22 < 2**53.
_POW10 = np.array([float(10**p) for p in range(23)])
_DEKKER = 134217729.0  # 2**27 + 1, splits a double into two 26-bit halves


def _split(a):
    c = _DEKKER * a
    high = c - (c - a)
    return high, a - high


_POW10_HIGH, _POW10_LOW = _split(_POW10)


def _times_pow10(a, p):
    """(hi, lo) with hi + lo == a * 10**p exactly (Dekker's two-product)."""
    hi = a * _POW10[p]
    a_high, a_low = _split(a)
    p_high, p_low = _POW10_HIGH[p], _POW10_LOW[p]
    lo = ((a_high * p_high - hi) + a_high * p_low + a_low * p_high) + a_low * p_low
    return hi, lo


def _decimal(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(k, n) for every 1e-6 < a < 1e16: the decimal exponent k and the 17
    digits n = round-half-even(a * 10**(16 - k)), 10**16 <= n < 10**17."""
    # log10 can miss k by one near a power of ten; the exact product
    # (hi, lo) tells.
    k = np.floor(np.log10(a)).astype(np.intp)
    np.clip(k, _MIN_EXP, _MAX_EXP, out=k)
    hi, lo = _times_pow10(a, 16 - k)
    below = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    above = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    off = below | above
    if off.any():
        k += above
        k -= below
        hi[off], lo[off] = _times_pow10(a[off], 16 - k[off])
    # hi >= 1e16 > 2**53 is an even integer, so rounding lo half to even
    # rounds hi + lo half to even, as %g does.
    n = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    carry = n == 10**17
    n[carry] = 10**16
    k += carry
    return k, n


def _digit_row(n: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """The ASCII digits of every 17-digit n as a row of three uint64 words
    (the leading digit in byte 7 of the first, then four groups of four
    digits), and the count of its significant digits."""
    lead, rest = np.divmod(n, 10**16)
    g12, g34 = np.divmod(rest, 10**8)
    g1, g2 = np.divmod(g12, 10**4)
    g3, g4 = np.divmod(g34, 10**4)
    zeros = _ZEROS4[g4]
    tail = g4 == 0
    for group in (g3, g2, g1):
        zeros += tail * _ZEROS4[group]
        tail &= group == 0
    row = [(lead.astype(np.uint64) + np.uint64(48)) << np.uint64(56),
           _ASCII4[g1] | (_ASCII4[g2] << np.uint64(32)),
           _ASCII4[g3] | (_ASCII4[g4] << np.uint64(32))]
    return row, 17 - zeros


def _format_g17(x: np.ndarray, last: np.ndarray) -> np.ndarray:
    """``format(v, ".17g")`` of every cell of the 2-D array ``x``, then its
    terminator (CRLF in the columns ``last`` marks, else a comma),
    NUL-padded to :data:`_SLOT` bytes: an array of shape ``x.shape + (_SLOT,)``.

    Cells in the fast path (1e-6 < |v| < 1e16) are formatted here; the
    rest (zeros, subnormals, tiny, huge and non-finite values) by ``%``.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    a = np.abs(x)
    fast = (a > 1e-6) & (a < 1e16)
    a[~fast] = 1.0  # a stand-in; ``%`` formats these cells below
    k, n = _decimal(a.ravel())
    row, digits = _digit_row(n)
    cls = ((np.signbit(x).ravel() * _N_EXP + (k - _MIN_EXP)) * 17 + (digits - 1)) * 2
    cls += np.broadcast_to(last, x.shape).ravel()
    # Each run of digits moves down by 1 to 7 bytes, so a word takes its
    # high bytes from the next word.
    up_a, up_b = _SHIFT_A[cls], _SHIFT_B[cls]
    down_a, down_b = np.uint64(64) - up_a, np.uint64(64) - up_b
    a0, a1, a2 = (d & mask[cls] for d, mask in zip(row, _RUN_A))
    b0, b1, b2 = (d & mask[cls] for d, mask in zip(row, _RUN_B))
    words = np.empty((cls.size, 4), np.uint64)
    words[:, 0] = _CONST[0][cls] | (a0 >> up_a) | (a1 << down_a) | (b0 >> up_b) | (b1 << down_b)
    words[:, 1] = _CONST[1][cls] | (a1 >> up_a) | (a2 << down_a) | (b1 >> up_b) | (b2 << down_b)
    words[:, 2] = _CONST[2][cls] | (a2 >> up_a) | (b2 >> up_b)
    words[:, 3] = _CONST[3][cls]
    cells = words.astype("<u8", copy=False).view(np.uint8)

    slow = np.flatnonzero(~fast)
    if slow.size:
        ends = np.broadcast_to(last, x.shape).ravel()[slow].tolist()
        text = b"".join(
            ("%.17g" % v + ("\r\n" if end else ",")).encode().ljust(_SLOT, b"\0")
            for v, end in zip(x.ravel()[slow].tolist(), ends)
        )
        cells[slow] = np.frombuffer(text, np.uint8).reshape(-1, _SLOT)
    return cells.reshape(x.shape + (_SLOT,))


def write_float_table(fh, header, columns) -> None:
    """Write a table to the open text file ``fh`` as CSV.

    ``header`` (a list of names, or None for no header row) goes through
    :mod:`csv`. A column is either a sequence of floats, written as
    ``%.17g`` cells by :func:`_format_g17`, or a ``str``, written as that
    literal on every row; the float columns share one length, the row
    count. Rows end in CRLF, so open ``fh`` with ``newline=""``.
    """
    if header is not None:
        csv.writer(fh).writerow(header)
    last = len(columns) - 1
    literals = {
        i: np.frombuffer((c + ("\r\n" if i == last else ",")).encode(), np.uint8)
        for i, c in enumerate(columns) if isinstance(c, str)
    }
    at = [i for i in range(len(columns)) if i not in literals]
    floats = [np.asarray(columns[i], dtype=np.float64) for i in at]
    ends = np.array(at) == last
    for start in range(0, len(floats[0]), _CHUNK_ROWS):
        chunk = np.column_stack([c[start : start + _CHUNK_ROWS] for c in floats])
        cells = _format_g17(chunk, ends)
        if literals:
            # The cells as NUL-padded byte blocks, joined row by row.
            blocks = iter(cells.transpose(1, 0, 2))
            cells = np.concatenate([
                np.broadcast_to(literals[i], (len(chunk), literals[i].size))
                if i in literals else next(blocks)
                for i in range(len(columns))
            ], axis=1)
        fh.write(cells.tobytes().translate(None, b"\0").decode())


def _column_rank(label: str) -> tuple[int, str]:
    if label == "angle_deg":
        return (0, label)
    if label == "torque_nm":
        return (1, label)
    if label.startswith("emg_"):
        return (2, label)
    if label.startswith("fmg_"):
        return (3, label)
    return (4, label)


def write_recording_csv(recording: MultiChannelRecording, path) -> None:
    """One CSV with a shared time column; all channels must share the grid."""
    labels = sorted(recording.labels(), key=_column_rank)
    if not labels:
        raise DataError("recording has no channels to write")
    first = recording[labels[0]]
    for label in labels[1:]:
        ch = recording[label]
        if (
            ch.sample_rate_hz != first.sample_rate_hz
            or ch.start_time_s != first.start_time_s
            or len(ch) != len(first)
        ):
            raise DataError(
                f"channel {label!r} is not on the same grid as {labels[0]!r}; "
                "write it to a separate file"
            )
    columns = [first.times] + [recording[l].values for l in labels]
    with open(path, "w", newline="") as fh:
        write_float_table(fh, [TIME_COLUMN] + labels, columns)


def _check_row_widths(path: Path, width: int) -> None:
    """Raise :class:`DataError` naming the first data row of ``path``
    that does not have ``width`` cells.

    One vectorized pass over the file's bytes counts the commas per line.
    Lines end at CR or LF and empty lines are skipped, as ``np.loadtxt``
    splits and skips them in a text-mode read; the first line is the
    header.
    """
    text = np.frombuffer(path.read_bytes(), np.uint8)
    # The commas and line ends in file order (all are bytes <= ','), then
    # a line end past the last byte.
    at = np.flatnonzero(text <= ord(","))
    kind = text[at]
    is_end = (kind == ord("\n")) | (kind == ord("\r"))
    marks = is_end | (kind == ord(","))
    at = np.append(at[marks], text.size)
    ends = np.flatnonzero(np.append(is_end[marks], True))
    cells = np.diff(ends)  # per line after the header: its commas + 1
    rows = np.diff(at[ends]) > 1  # the line is not empty
    bad = np.flatnonzero(rows & (cells != width))
    if bad.size:
        raise DataError(
            f"{path}: ragged rows: data row {np.count_nonzero(rows[: bad[0] + 1])} "
            f"has {cells[bad[0]]} cells, the header {width}"
        )


def _body_error(path: Path, header: list[str], parsed: list[int],
                exc: ValueError) -> DataError:
    """The diagnostic for a body ``np.loadtxt`` rejected: the first data
    row with a cell that is not a number in one of the ``parsed``
    columns, else the parser's own message.

    Runs only on the error path, after :func:`_check_row_widths`; rows are
    counted as the parser counts them, skipping empty lines.
    """
    try:
        with open(path) as fh:
            fh.readline()
            lines = (line.rstrip("\n") for line in fh)
            for row, line in enumerate(filter(None, lines), start=1):
                cells = line.split(",")
                for j in parsed:
                    try:
                        float(cells[j])
                    except ValueError:
                        return DataError(
                            f"{path}: non-numeric cell {cells[j]!r} in column "
                            f"{header[j]!r}, data row {row}"
                        )
    except (OSError, ValueError):
        pass
    return DataError(f"{path}: non-numeric cell: {exc}")


def read_recording_csv(path, sample_rate_hz: float,
                       channels=None) -> MultiChannelRecording:
    """Inverse of :func:`write_recording_csv`.

    The sample rate comes from the caller (normally the session index) and
    must match the time steps. ``channels``, a collection of labels, names
    the columns to parse besides the time; None parses every column. Every
    row's width is checked (:func:`_check_row_widths`); cells of the
    columns not parsed are not.
    """
    path = Path(path)
    try:
        with open(path) as fh:
            line = fh.readline()
            try:
                header = next(csv.reader([line]), None)
            except csv.Error as exc:
                raise DataError(f"{path}: unreadable header: {exc}") from None
            if not header or header[0] != TIME_COLUMN:
                raise DataError(
                    f"{path}: first column must be {TIME_COLUMN!r}, "
                    f"got {header[0] if header else 'nothing'!r}"
                )
            _check_row_widths(path, len(header))
            parsed = [j for j, label in enumerate(header)
                      if j == 0 or channels is None or label in channels]
            try:
                with warnings.catch_warnings():
                    # An empty body is reported below as "no data rows".
                    warnings.simplefilter("ignore", UserWarning)
                    data = np.loadtxt(
                        fh, delimiter=",", comments=None, ndmin=2, dtype=np.float64,
                        usecols=parsed if len(parsed) < len(header) else None,
                    )
            except ValueError as exc:
                raise _body_error(path, header, parsed, exc) from exc
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise DataError(f"{path}: non-numeric cell: {exc}") from exc
    if len(data) == 0:
        raise DataError(f"{path}: no data rows")
    bad_rows, bad_cols = np.nonzero(~np.isfinite(data))
    if bad_rows.size:
        raise DataError(
            f"{path}: column {header[parsed[bad_cols[0]]]!r} has a "
            f"non-finite value in data row {bad_rows[0] + 1}"
        )
    times = data[:, 0]
    if len(times) > 1:
        steps = np.diff(times)
        if np.any(steps <= 0):
            raise DataError(f"{path}: time column must be strictly increasing")
        mid = float(np.median(steps))
        if float(np.max(steps) - np.min(steps)) > 1e-6 * mid:
            raise DataError(
                f"{path}: sample interval varies by more than one part per "
                "million; resample before writing"
            )
        if abs(mid * sample_rate_hz - 1.0) > 1e-6:
            raise DataError(f"{path}: time steps of {mid:.9g} s disagree "
                            f"with the given rate of {sample_rate_hz:g} Hz")
    recording = {
        header[j]: TimeSeries(
            label=header[j],
            sample_rate_hz=sample_rate_hz,
            start_time_s=float(times[0]),
            values=data[:, i],
        )
        for i, j in enumerate(parsed) if i > 0
    }
    return MultiChannelRecording(channels=recording)


@dataclass
class LoadedTake:
    velocity_deg_s: float
    take_index: int
    recording: MultiChannelRecording


@dataclass
class LoadedSession:
    joint: Joint
    standing: MultiChannelRecording
    initial_angle: TimeSeries
    takes: list[LoadedTake]


@dataclass(frozen=True)
class TakeEntry:
    """One take as session.json lists it; its files are not read yet."""

    velocity_deg_s: float
    take_index: int
    high_rate_file: str
    fmg_file: str


@dataclass
class SessionIndex:
    """A session directory's session.json, parsed and checked once."""

    root: Path
    joint: Joint
    high_rate_hz: float
    fmg_rate_hz: float
    standing_file: str
    initial_angle_file: str
    takes: list[TakeEntry]


def write_session(session: SyntheticSession, out_dir) -> Path:
    """Write a full session (calibration, every take, session.json) to a
    directory; session.json keeps the generator spec for provenance.

    A take's files are named by its velocity rounded to an integer and its
    index; two takes that would share a name raise :class:`DataError`
    before any file is written.
    """
    stems = {}
    for take in session.takes:
        stem = f"take_v{int(round(take.velocity_deg_s)):03d}_t{take.take_index}"
        other = stems.setdefault(stem, take)
        if other is not take:
            raise DataError(
                f"takes at {other.velocity_deg_s:g} and {take.velocity_deg_s:g} deg/s "
                f"(index {take.take_index}) would share the files {stem}_*.csv"
            )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    spec = session.spec
    index = {
        "format_version": _FORMAT_VERSION,
        "joint": session.joint.value,
        "high_rate_hz": spec.high_rate_hz,
        "fmg_rate_hz": spec.fmg_rate_hz,
        "standing_file": "calibration_standing.csv",
        "initial_angle_file": "calibration_angle.csv",
        "takes": [],
        "spec": spec.to_dict(),
    }
    write_recording_csv(session.standing, out / index["standing_file"])
    write_recording_csv(
        MultiChannelRecording(channels={"angle_deg": session.initial_angle}),
        out / index["initial_angle_file"],
    )
    for stem, take in stems.items():
        entry = {
            "velocity_deg_s": take.velocity_deg_s,
            "take_index": take.take_index,
            "high_rate_file": f"{stem}_hi.csv",
            "fmg_file": f"{stem}_fmg.csv",
        }
        # The FMG channels have their own rate, hence their own file.
        for key, is_fmg in (("high_rate_file", False), ("fmg_file", True)):
            channels = {
                label: series for label, series in take.recording.channels.items()
                if label.startswith("fmg_") == is_fmg
            }
            write_recording_csv(MultiChannelRecording(channels), out / entry[key])
        index["takes"].append(entry)
    (out / _INDEX_FILE).write_text(json.dumps(index, indent=2) + "\n")
    return out


def _rate(d: dict, key: str) -> float:
    rate = _field(d, key, float)
    if not (math.isfinite(rate) and rate > 0):
        raise InvalidSpec(f"{key!r} must be finite and > 0, got {rate!r}")
    return rate


def _take_entry(d, i: int) -> TakeEntry:
    try:
        d = _checked(d, dict, "the entry")
        return TakeEntry(
            velocity_deg_s=_field(d, "velocity_deg_s", float),
            take_index=_field(d, "take_index", int),
            high_rate_file=_field(d, "high_rate_file", str),
            fmg_file=_field(d, "fmg_file", str),
        )
    except InvalidSpec as exc:
        raise InvalidSpec(f"takes[{i}]: {exc}") from None


def _check_distinct(takes: list[TakeEntry]) -> None:
    """A take listed twice would be loaded twice, and cross-validation
    would deal its copies into different folds."""
    first: dict = {}
    for j, take in enumerate(takes):
        keys = [("velocity and index", (take.velocity_deg_s, take.take_index)),
                ("data file", take.high_rate_file), ("data file", take.fmg_file)]
        for what, key in keys:
            i = first.setdefault(key, j)
            if i != j:
                raise InvalidSpec(
                    f"takes[{j}] repeats the {what} of takes[{i}]: {key!r}"
                )


def read_session_index(session_dir) -> SessionIndex:
    """Parse session.json and check every field; reads no data file.

    An unknown joint, a rate that is not finite and positive, an empty
    take list, a missing or wrongly typed key, or two takes with the same
    velocity and index or a data file in common raises
    :class:`InvalidSpec` naming the file and the key or both takes.
    """
    root = Path(session_dir)
    path = root / _INDEX_FILE
    try:
        d = json.loads(path.read_text())
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # RecursionError: deep nesting
        raise InvalidSpec(f"{path}: invalid JSON: {exc}") from exc
    try:
        d = _checked(d, dict, "the index")
        version = d.get("format_version")
        if version != _FORMAT_VERSION:
            raise InvalidSpec(f"unsupported format version {version!r}")
        takes = [_take_entry(t, i) for i, t in enumerate(_field(d, "takes", list))]
        if not takes:
            raise InvalidSpec("'takes' lists no takes")
        _check_distinct(takes)
        return SessionIndex(
            root=root,
            joint=_member(Joint, _field(d, "joint", str), "joint"),
            high_rate_hz=_rate(d, "high_rate_hz"),
            fmg_rate_hz=_rate(d, "fmg_rate_hz"),
            standing_file=_field(d, "standing_file", str),
            initial_angle_file=_field(d, "initial_angle_file", str),
            takes=takes,
        )
    except InvalidSpec as exc:
        raise InvalidSpec(f"{path}: {exc}") from None


def load_take(index: SessionIndex, entry: TakeEntry, configs=None) -> LoadedTake:
    """Read one take's two data files at the rates the index names.

    With ``configs`` (model configs), only the high-rate channels those
    configs use are read (see :func:`read_recording_csv`); the FMG file
    is always read whole, since :func:`~myotorque.preprocess.build_features`
    reads every FMG channel.
    """
    channels = None if configs is None else {
        label for config in configs for label in input_channels(index.joint, config)
    }
    hi = read_recording_csv(index.root / entry.high_rate_file, index.high_rate_hz,
                            channels)
    fmg = read_recording_csv(index.root / entry.fmg_file, index.fmg_rate_hz)
    overlap = set(hi.labels()) & set(fmg.labels())
    if overlap:
        raise DataError(
            f"{index.root / entry.fmg_file}: repeats channels {sorted(overlap)} "
            f"of {entry.high_rate_file}; labels must be unique"
        )
    recording = MultiChannelRecording({**hi.channels, **fmg.channels})
    return LoadedTake(entry.velocity_deg_s, entry.take_index, recording)


def load_calibration(index: SessionIndex) -> tuple[MultiChannelRecording, TimeSeries]:
    """The session's standing FMG recording and initial-pose angle."""
    standing = read_recording_csv(index.root / index.standing_file, index.fmg_rate_hz)
    angle_path = index.root / index.initial_angle_file
    angle_rec = read_recording_csv(angle_path, index.high_rate_hz)
    if "angle_deg" not in angle_rec:
        raise MissingChannel(f"{angle_path} lacks an 'angle_deg' column")
    return standing, angle_rec["angle_deg"]


def load_session(session_dir, configs=None) -> LoadedSession:
    """Read a session directory back into memory through its index; with
    ``configs``, only the channels they use (see :func:`load_take`)."""
    index = read_session_index(session_dir)
    takes = [load_take(index, entry, configs) for entry in index.takes]
    standing, initial_angle = load_calibration(index)
    return LoadedSession(index.joint, standing, initial_angle, takes)
