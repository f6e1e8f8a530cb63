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
``format(x, ".17g")`` cells. :func:`write_float_table` formats whole
chunks of rows at a time; :func:`read_recording_csv` parses the body
with numpy's correctly rounded C parser (``np.loadtxt``), so a
write/read cycle reproduces every float64 value bit for bit.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, InvalidSpec, MissingChannel
from .preprocess import Joint
from .synthgen import SyntheticSession, _checked, _field, _member
from .timeseries import MultiChannelRecording, TimeSeries, Unit

_FORMAT_VERSION = 2
_INDEX_FILE = "session.json"
TIME_COLUMN = "time_s"
_CHUNK_ROWS = 4096  # rows formatted per write; bounds the text held at once


def write_float_table(fh, header, columns, row_format: str | None = None) -> None:
    """Write equal-length float columns to the open text file ``fh`` as CSV.

    ``header`` (a list of names, or None for no header row) goes through
    :mod:`csv`. Each data row is ``row_format % row`` plus CRLF; the
    default format is ``%.17g`` per column, comma separated. A format may
    hold literal cells and other conversions (``%d``) too. Open ``fh``
    with ``newline=""`` so the CRLF line ends are written as they are.
    """
    if header is not None:
        csv.writer(fh).writerow(header)
    table = np.column_stack(columns)
    if row_format is None:
        row_format = ",".join(["%.17g"] * table.shape[1])
    row_format += "\r\n"
    for start in range(0, len(table), _CHUNK_ROWS):
        chunk = table[start : start + _CHUNK_ROWS]
        fh.write((row_format * len(chunk)) % tuple(chunk.ravel().tolist()))


def _unit_for_label(label: str) -> Unit:
    if label == "angle_deg":
        return Unit.DEGREES
    if label == "torque_nm":
        return Unit.NEWTON_METERS
    if label.startswith("emg_"):
        return Unit.VOLTS
    if label.startswith("fmg_"):
        return Unit.NORMALIZED_FORCE
    return Unit.DIMENSIONLESS


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


def _body_error(path: Path, header: list[str], exc: ValueError) -> DataError:
    """The diagnostic for a body ``np.loadtxt`` rejected with ``exc``: the
    first data row that is ragged or holds a cell that is not a number.

    Runs only on the error path; rows are counted as the parser counts
    them, skipping empty lines.
    """
    try:
        with open(path) as fh:
            fh.readline()
            lines = (line.rstrip("\n") for line in fh)
            for row, line in enumerate(filter(None, lines), start=1):
                cells = line.split(",")
                if len(cells) != len(header):
                    return DataError(
                        f"{path}: ragged rows: data row {row} has {len(cells)} "
                        f"cells, the header {len(header)}"
                    )
                for label, cell in zip(header, cells):
                    try:
                        float(cell)
                    except ValueError:
                        return DataError(
                            f"{path}: non-numeric cell {cell!r} in column "
                            f"{label!r}, data row {row}"
                        )
    except (OSError, ValueError):
        pass
    return DataError(f"{path}: non-numeric cell: {exc}")


def read_recording_csv(path, sample_rate_hz: float | None = None) -> MultiChannelRecording:
    """Inverse of :func:`write_recording_csv`.

    The sample rate comes from the caller (normally the session index) and
    must match the time steps; when omitted it is inferred from them.
    """
    path = Path(path)
    try:
        with open(path) as fh:
            header = next(csv.reader([fh.readline()]), None)
            if not header or header[0] != TIME_COLUMN:
                raise DataError(
                    f"{path}: first column must be {TIME_COLUMN!r}, "
                    f"got {header[0] if header else 'nothing'!r}"
                )
            try:
                with warnings.catch_warnings():
                    # An empty body is reported below as "no data rows".
                    warnings.simplefilter("ignore", UserWarning)
                    data = np.loadtxt(
                        fh, delimiter=",", comments=None, ndmin=2, dtype=np.float64
                    )
            except ValueError as exc:
                raise _body_error(path, header, exc) from exc
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise DataError(f"{path}: non-numeric cell: {exc}") from exc
    if len(data) == 0:
        raise DataError(f"{path}: no data rows")
    if data.shape[1] != len(header):
        raise DataError(
            f"{path}: ragged rows: data row 1 has {data.shape[1]} cells, "
            f"the header {len(header)}"
        )
    bad_rows, bad_cols = np.nonzero(~np.isfinite(data))
    if bad_rows.size:
        raise DataError(
            f"{path}: column {header[bad_cols[0]]!r} has a non-finite value "
            f"in data row {bad_rows[0] + 1}"
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
        if sample_rate_hz is None:
            sample_rate_hz = 1.0 / mid
        elif abs(mid * sample_rate_hz - 1.0) > 1e-6:
            raise DataError(f"{path}: time steps of {mid:.9g} s disagree "
                            f"with the given rate of {sample_rate_hz:g} Hz")
    elif sample_rate_hz is None:
        raise DataError(f"{path}: cannot infer sample rate from one row")
    channels = {
        label: TimeSeries(
            label=label,
            unit=_unit_for_label(label),
            sample_rate_hz=sample_rate_hz,
            start_time_s=float(times[0]),
            values=data[:, j],
        )
        for j, label in enumerate(header[1:], start=1)
    }
    return MultiChannelRecording(channels=channels)


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
    directory; session.json keeps the generator spec for provenance."""
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
    for take in session.takes:
        stem = f"take_v{int(round(take.velocity_deg_s)):03d}_t{take.take_index}"
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


def load_take(index: SessionIndex, entry: TakeEntry) -> LoadedTake:
    """Read one take's two data files at the rates the index names."""
    hi = read_recording_csv(index.root / entry.high_rate_file, index.high_rate_hz)
    fmg = read_recording_csv(index.root / entry.fmg_file, index.fmg_rate_hz)
    overlap = set(hi.labels()) & set(fmg.labels())
    if overlap:
        raise DataError(
            f"{index.root / entry.fmg_file}: repeats channels {sorted(overlap)} "
            f"of {entry.high_rate_file}; labels must be unique"
        )
    meta = {"joint": index.joint.value, "velocity_deg_s": entry.velocity_deg_s,
            "take_index": entry.take_index}
    recording = MultiChannelRecording({**hi.channels, **fmg.channels}, meta)
    return LoadedTake(entry.velocity_deg_s, entry.take_index, recording)


def load_calibration(index: SessionIndex) -> tuple[MultiChannelRecording, TimeSeries]:
    """The session's standing FMG recording and initial-pose angle."""
    standing = read_recording_csv(index.root / index.standing_file, index.fmg_rate_hz)
    angle_path = index.root / index.initial_angle_file
    angle_rec = read_recording_csv(angle_path, index.high_rate_hz)
    if "angle_deg" not in angle_rec:
        raise MissingChannel(f"{angle_path} lacks an 'angle_deg' column")
    return standing, angle_rec["angle_deg"]


def load_session(session_dir) -> LoadedSession:
    """Read a session directory back into memory through its index."""
    index = read_session_index(session_dir)
    takes = [load_take(index, entry) for entry in index.takes]
    standing, initial_angle = load_calibration(index)
    return LoadedSession(index.joint, standing, initial_angle, takes)
