"""Reading and writing recordings as CSV files plus JSON manifests.

Layout of a session directory:

    session.json               index: generator spec + take manifest files
    take_v<vel>_t<idx>.json    take manifest: joint, velocity, data and
                               calibration file names with their rates
    take_v<vel>_t<idx>_hi.csv  high-rate channels (time, angle, torque, EMG)
    take_v<vel>_t<idx>_fmg.csv FMG channels at their own rate
    calibration_standing.csv   relaxed FMG channels at the FMG rate
    calibration_angle.csv      initial-pose angle at the high rate

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
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, InvalidSpec, MissingChannel
from .synthgen import SessionSpec, SyntheticSession
from .timeseries import MultiChannelRecording, TimeSeries, Unit

_FORMAT_VERSION = 1
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


def read_recording_csv(
    path, sample_rate_hz: float | None = None, meta: dict | None = None
) -> MultiChannelRecording:
    """Inverse of :func:`write_recording_csv`.

    The sample rate comes from the caller (normally the manifest); when
    omitted it is inferred from the median time step.
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
        if len(times) < 2:
            raise DataError(f"{path}: cannot infer sample rate from one row")
        sample_rate_hz = 1.0 / float(np.median(np.diff(times)))
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
    return MultiChannelRecording(channels=channels, meta=dict(meta or {}))


@dataclass
class LoadedTake:
    velocity_deg_s: float
    take_index: int
    recording: MultiChannelRecording


@dataclass
class LoadedSession:
    spec: SessionSpec
    standing: MultiChannelRecording
    initial_angle: TimeSeries
    takes: list[LoadedTake]


def _take_stem(velocity_deg_s: float, take_index: int) -> str:
    return f"take_v{int(round(velocity_deg_s)):03d}_t{take_index}"


def write_session(session: SyntheticSession, out_dir) -> Path:
    """Write a full session (manifests, calibration, every take) to a directory.

    Each take gets its own manifest naming the joint, nominal velocity, and
    the data and calibration files with their sample rates; session.json is
    just an index over those manifests plus the generator spec.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    spec = session.spec

    standing_file = "calibration_standing.csv"
    angle_file = "calibration_angle.csv"
    write_recording_csv(session.standing, out / standing_file)
    write_recording_csv(
        MultiChannelRecording(channels={"angle_deg": session.initial_angle}, meta={}),
        out / angle_file,
    )

    manifest_files = []
    for take in session.takes:
        stem = _take_stem(take.velocity_deg_s, take.take_index)
        hi_labels = [
            l for l in take.recording.labels() if not l.startswith("fmg_")
        ]
        fmg_labels = [l for l in take.recording.labels() if l.startswith("fmg_")]
        hi = MultiChannelRecording(
            channels={l: take.recording[l] for l in hi_labels}, meta={}
        )
        fmg = MultiChannelRecording(
            channels={l: take.recording[l] for l in fmg_labels}, meta={}
        )
        write_recording_csv(hi, out / f"{stem}_hi.csv")
        write_recording_csv(fmg, out / f"{stem}_fmg.csv")
        take_manifest = {
            "format_version": _FORMAT_VERSION,
            "joint": spec.joint.value,
            "velocity_deg_s": take.velocity_deg_s,
            "take_index": take.take_index,
            "high_rate_file": f"{stem}_hi.csv",
            "high_rate_hz": spec.high_rate_hz,
            "fmg_file": f"{stem}_fmg.csv",
            "fmg_rate_hz": spec.fmg_rate_hz,
            "calibration": {
                "standing_file": standing_file,
                "initial_angle_file": angle_file,
            },
        }
        (out / f"{stem}.json").write_text(json.dumps(take_manifest, indent=2) + "\n")
        manifest_files.append(f"{stem}.json")

    index = {
        "format_version": _FORMAT_VERSION,
        "joint": spec.joint.value,
        "spec": spec.to_dict(),
        "takes": manifest_files,
    }
    (out / "session.json").write_text(json.dumps(index, indent=2) + "\n")
    return out


def _read_json(path: Path) -> dict:
    try:
        loaded = json.loads(path.read_text())
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidSpec(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(loaded, dict):
        raise InvalidSpec(f"{path}: expected a JSON object")
    version = loaded.get("format_version")
    if version != _FORMAT_VERSION:
        raise InvalidSpec(f"{path}: unsupported format version {version!r}")
    return loaded


def load_take(manifest_path, manifest: dict | None = None) -> LoadedTake:
    """Read one take manifest and the data files it points at.

    ``manifest`` is the already parsed content of ``manifest_path``, if
    the caller has it.
    """
    path = Path(manifest_path)
    if manifest is None:
        manifest = _read_json(path)
    root = path.parent
    try:
        joint = str(manifest["joint"])
        velocity = float(manifest["velocity_deg_s"])
        index = int(manifest["take_index"])
        hi = read_recording_csv(
            root / manifest["high_rate_file"], float(manifest["high_rate_hz"])
        )
        fmg = read_recording_csv(
            root / manifest["fmg_file"], float(manifest["fmg_rate_hz"])
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise InvalidSpec(f"{path}: bad take manifest: {exc}") from exc
    overlap = set(hi.labels()) & set(fmg.labels())
    if overlap:
        raise DataError(
            f"{path}: take files repeat channels {sorted(overlap)}; "
            "labels must be unique"
        )
    merged = MultiChannelRecording(
        channels={**hi.channels, **fmg.channels},
        meta={"joint": joint, "velocity_deg_s": velocity, "take_index": index},
    )
    return LoadedTake(
        velocity_deg_s=velocity, take_index=index, recording=merged
    )


@dataclass
class TakeManifest:
    """One parsed take manifest; its data files are not read yet."""

    path: Path
    velocity_deg_s: float
    take_index: int
    fields: dict


@dataclass
class SessionIndex:
    """A session directory's index and take manifests, each parsed once."""

    root: Path
    spec: SessionSpec
    takes: list[TakeManifest]
    calibration: dict


def read_session_index(session_dir) -> SessionIndex:
    """Parse session.json and every take manifest it lists, reading no data
    file; checks that the takes agree on the joint and calibration files."""
    root = Path(session_dir)
    index = _read_json(root / "session.json")
    try:
        spec = SessionSpec.from_dict(index["spec"])
        manifest_files = list(index["takes"])
    except (KeyError, ValueError, TypeError, InvalidSpec) as exc:
        raise InvalidSpec(f"{root / 'session.json'}: bad index: {exc}") from exc
    if not manifest_files:
        raise InvalidSpec(f"{root / 'session.json'}: session lists no takes")

    takes = []
    calibration_ref = None
    for name in manifest_files:
        manifest_path = root / name
        manifest = _read_json(manifest_path)
        if manifest.get("joint") != spec.joint.value:
            raise DataError(
                f"{manifest_path}: take records joint {manifest.get('joint')!r} "
                f"but the session is for {spec.joint.value!r}"
            )
        cal = manifest.get("calibration")
        if calibration_ref is None:
            calibration_ref = cal
        elif cal != calibration_ref:
            raise DataError(
                f"{manifest_path}: takes disagree on calibration files"
            )
        try:
            velocity = float(manifest["velocity_deg_s"])
            take_index = int(manifest["take_index"])
        except (KeyError, ValueError, TypeError) as exc:
            raise InvalidSpec(f"{manifest_path}: bad take manifest: {exc}") from exc
        takes.append(TakeManifest(manifest_path, velocity, take_index, manifest))
    return SessionIndex(root, spec, takes, calibration_ref)


def load_calibration(index: SessionIndex) -> tuple[MultiChannelRecording, TimeSeries]:
    """The session's standing FMG recording and initial-pose angle."""
    root, spec, calibration_ref = index.root, index.spec, index.calibration
    try:
        standing = read_recording_csv(
            root / calibration_ref["standing_file"],
            spec.fmg_rate_hz,
            {"kind": "standing"},
        )
        angle_rec = read_recording_csv(
            root / calibration_ref["initial_angle_file"], spec.high_rate_hz
        )
    except (KeyError, TypeError) as exc:
        raise InvalidSpec(f"session calibration entry is malformed: {exc}") from exc
    if "angle_deg" not in angle_rec:
        raise MissingChannel(
            f"{calibration_ref['initial_angle_file']} lacks an 'angle_deg' column"
        )
    return standing, angle_rec["angle_deg"]


def load_session(session_dir) -> LoadedSession:
    """Read a session directory back into memory via its take manifests."""
    index = read_session_index(session_dir)
    takes = [load_take(t.path, t.fields) for t in index.takes]
    standing, initial_angle = load_calibration(index)
    return LoadedSession(
        spec=index.spec,
        standing=standing,
        initial_angle=initial_angle,
        takes=takes,
    )
