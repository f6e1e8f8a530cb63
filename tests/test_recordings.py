"""Disk round trips for recordings and session directories."""

import csv
import dataclasses
import io
import itertools
import json
import math
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from myotorque import recordings
from myotorque.recordings import _MAX_EXP, _MIN_EXP
from myotorque.errors import DataError, InvalidSpec
from myotorque.preprocess import Joint
from myotorque.recordings import (
    load_calibration,
    load_session,
    load_take,
    read_recording_csv,
    read_session_index,
    write_float_table,
    write_recording_csv,
    write_session,
)
from myotorque.synthgen import default_session_spec, generate_session
from myotorque.timeseries import MultiChannelRecording, TimeSeries


def tiny_recording():
    mk = lambda label, vals: TimeSeries(
        label=label, sample_rate_hz=100.0, start_time_s=0.0,
        values=np.asarray(vals, dtype=np.float64),
    )
    return MultiChannelRecording(
        channels={
            "angle_deg": mk("angle_deg", [1.0, 2.5, -0.125]),
            "torque_nm": mk("torque_nm", [0.1, 0.2, 0.3]),
        },
    )


class TestRecordingCsv:
    def test_bit_exact_round_trip(self, tmp_path, rng):
        # Full-precision decimal formatting must survive write -> read.
        values = rng.standard_normal(64) * 1e3
        rec = MultiChannelRecording(
            channels={
                "angle_deg": TimeSeries(
                    label="angle_deg",
                    sample_rate_hz=2000.0, start_time_s=0.0, values=values,
                )
            },
        )
        path = tmp_path / "rec.csv"
        write_recording_csv(rec, path)
        back = read_recording_csv(path, 2000.0)
        assert np.array_equal(back["angle_deg"].values, values)
        assert back["angle_deg"].sample_rate_hz == 2000.0

    def test_header_and_column_order(self, tmp_path):
        path = tmp_path / "rec.csv"
        write_recording_csv(tiny_recording(), path)
        header = path.read_text().splitlines()[0]
        assert header == "time_s,angle_deg,torque_nm"

    def test_mixed_grids_rejected(self, tmp_path):
        rec = tiny_recording()
        rec.channels["fmg_TA"] = TimeSeries(
            label="fmg_TA", sample_rate_hz=10.0,
            start_time_s=0.0, values=np.zeros(3),
        )
        with pytest.raises(DataError, match="grid"):
            write_recording_csv(rec, tmp_path / "rec.csv")

    def test_given_rate_within_a_ppm_is_kept(self, tmp_path):
        # The time steps only check the rate; the channels carry the rate
        # the caller gave, not one derived from the steps.
        path = tmp_path / "rec.csv"
        write_recording_csv(tiny_recording(), path)
        back = read_recording_csv(path, 100.00005)
        assert back["angle_deg"].sample_rate_hz == 100.00005

    def test_rate_disagreeing_with_time_column_rejected(self, tmp_path):
        # A session index whose rate is wrong would otherwise mis-time
        # every channel of the file without a word.
        path = tmp_path / "rec.csv"
        write_recording_csv(tiny_recording(), path)
        with pytest.raises(DataError, match=r"rec\.csv: time steps of 0\.01 s "
                           r"disagree with the given rate of 200 Hz"):
            read_recording_csv(path, 200.0)

    def test_non_increasing_time_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time_s,angle_deg\n0.0,1.0\n0.01,2.0\n0.01,3.0\n")
        with pytest.raises(DataError, match="strictly increasing"):
            read_recording_csv(path, 100.0)

    def test_uneven_interval_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time_s,angle_deg\n0.0,1.0\n0.01,2.0\n0.021,3.0\n")
        with pytest.raises(DataError, match="part per million"):
            read_recording_csv(path, 100.0)

    def test_non_numeric_cell_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time_s,angle_deg\n0.0,hello\n")
        with pytest.raises(DataError, match="non-numeric"):
            read_recording_csv(path, 100.0)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_names_file_and_column(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"time_s,angle_deg,torque_nm\n0.0,1.0,2.0\n0.01,1.5,{cell}\n")
        with pytest.raises(DataError, match=r"bad\.csv: column 'torque_nm'.*row 2"):
            read_recording_csv(path, 100.0)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time_s,angle_deg\n0.0,1.0\n0.01\n")
        with pytest.raises(DataError, match="ragged"):
            read_recording_csv(path, 100.0)

    def test_wrong_first_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("stamp,angle_deg\n0.0,1.0\n")
        with pytest.raises(DataError, match="time_s"):
            read_recording_csv(path, 100.0)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time_s,angle_deg\n")
        with pytest.raises(DataError, match="no data rows"):
            read_recording_csv(path, 100.0)

    def test_header_cell_over_csv_field_limit_names_file(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text(f"time_s,{'x' * 200_000}\n0.0,1.0\n")
        with pytest.raises(DataError, match=r"wide\.csv: unreadable header: field larger"):
            read_recording_csv(path, 100.0)

    def test_missing_file_is_data_error(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            read_recording_csv(tmp_path / "nope.csv", 100.0)


def reference_csv(header, columns) -> bytes:
    """The bytes ``csv.writer`` writes for ``format(x, ".17g")`` cells."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in zip(*columns):
        writer.writerow([format(float(x), ".17g") for x in row])
    return buf.getvalue().encode()


# Finite float64 values plus the ones most likely to lose bits in text:
# signed zeros, subnormals, the smallest normal and the largest values.
float64_cells = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.sampled_from([
        0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
        2.2250738585072014e-308, 1.7e308, -1.7e308, 1.7976931348623157e308,
    ]),
)


class TestFormatRoundTrip:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        values=arrays(
            np.float64,
            st.tuples(st.integers(1, 30), st.integers(1, 4)),
            elements=float64_cells,
        ),
        rate=st.sampled_from([10.0, 200.0, 2000.0]),
        start=st.floats(-1e3, 1e3),
    )
    def test_random_columns_survive_bit_for_bit(self, tmp_path, values, rate, start):
        labels = [f"emg_c{j}" for j in range(values.shape[1])]
        rec = MultiChannelRecording(
            channels={
                label: TimeSeries(
                    label=label, sample_rate_hz=rate,
                    start_time_s=start, values=values[:, j],
                )
                for j, label in enumerate(labels)
            },
        )
        path = tmp_path / "rec.csv"
        write_recording_csv(rec, path)
        times = rec[labels[0]].times
        assert path.read_bytes() == reference_csv(
            ["time_s"] + labels, [times] + [values[:, j] for j in range(len(labels))]
        )
        back = read_recording_csv(path, rate)
        assert back[labels[0]].start_time_s == start
        for j, label in enumerate(labels):
            # Compare bit patterns, so -0.0 must come back as -0.0.
            assert np.array_equal(
                back[label].values.view(np.int64), values[:, j].view(np.int64)
            ), label

    def test_chunked_rows_match_reference(self, rng):
        # More rows than one formatting chunk, with a partial last chunk.
        n = 2 * recordings._CHUNK_ROWS + 3
        columns = [np.arange(n) / 7.0, rng.standard_normal(n) * 1e-300,
                   rng.standard_normal(n) * 1e300]
        buf = io.StringIO(newline="")
        write_float_table(buf, ["a", "b", "c"], columns)
        assert buf.getvalue().encode() == reference_csv(["a", "b", "c"], columns)

    def test_literal_cells_and_no_header(self):
        buf = io.StringIO(newline="")
        write_float_table(buf, None, ["knee", [0, 1], [0.1, -0.0], "test"])
        assert buf.getvalue() == (
            "knee,0,0.10000000000000001,test\r\nknee,1,-0,test\r\n"
        )

    def test_ragged_row_mid_file_names_data_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "time_s,angle_deg\n0.0,1.0\n0.01,2.0\n\n0.02\n0.03,4.0\n"
        )
        with pytest.raises(DataError, match=r"bad\.csv: ragged rows: data row 3 "):
            read_recording_csv(path, 100.0)

    def test_non_numeric_cell_mid_file_names_data_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "time_s,angle_deg\r\n0.0,1.0\r\n0.01,2.0\r\n0.02,x3\r\n0.03,4.0\r\n"
        )
        with pytest.raises(
            DataError,
            match=r"bad\.csv: non-numeric cell 'x3' in column 'angle_deg', data row 3",
        ):
            read_recording_csv(path, 100.0)

    def test_rows_narrower_than_header_are_ragged(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time_s,angle_deg,torque_nm\n0.0,1.0\n0.01,2.0\n")
        with pytest.raises(DataError, match="ragged rows: data row 1 "):
            read_recording_csv(path, 100.0)

    def test_one_row_file(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("time_s,angle_deg\n0.5,-0\n")
        back = read_recording_csv(path, 100.0)
        assert back["angle_deg"].start_time_s == 0.5
        assert np.signbit(back["angle_deg"].values[0])


def format_rows(table) -> str:
    """``table``'s rows as ``format(x, ".17g")`` cells, CRLF-terminated."""
    return "".join(
        ",".join(format(x, ".17g") for x in row) + "\r\n" for row in table.tolist()
    )


def assert_written_exactly(values):
    """Every value, and its negation, written as a last cell (CRLF) and
    as an inner cell (comma) gives ``format(x, ".17g")``'s bytes."""
    values = np.asarray(values, dtype=np.float64).ravel()
    values = np.concatenate([values, -values])
    table = np.column_stack([values, values[::-1]])
    buf = io.StringIO(newline="")
    write_float_table(buf, None, [table[:, 0], table[:, 1]])
    got, want = buf.getvalue(), format_rows(table)
    lines = zip(got.splitlines(), want.splitlines())
    assert got == want, [(g, w) for g, w in lines if g != w][:3]


def ulp_neighbours(x, steps=2):
    """``x`` and the ``steps`` doubles on either side of it."""
    out = [x]
    up = down = x
    for _ in range(steps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return out


class TestG17Writer:
    """write_float_table's vectorized ``%.17g`` against ``format(x, ".17g")``:
    the fast path covers 1e-6 < |x| < 1e16, ``%`` the rest."""

    def test_every_exponent_at_its_power_of_ten(self):
        # Decimal exponents -7..16 reach one past each end of the fast path.
        assert_written_exactly(
            [v for k in range(-7, 17) for v in ulp_neighbours(float(f"1e{k}"))]
        )

    def test_fast_path_edges(self):
        assert_written_exactly(ulp_neighbours(1e-6, 4) + ulp_neighbours(1e16, 4))

    def test_ties_round_half_to_even(self):
        # m / 2**(17 - k) with m odd, in [10**k, 10**(k+1)), has 18
        # significant digits ending in 5: a tie at 17 digits.
        rng = np.random.default_rng(0)
        values = [1 + 2.0**-17]
        for k in range(-6, 16):
            n = 17 - k
            low = math.ceil(Fraction(10) ** k * 2**n)
            high = min(int(Fraction(10) ** (k + 1) * 2**n), 2**53)
            odd = [m | 1 for m in range(low, low + 40)]
            odd += [int(m) | 1 for m in rng.integers(low, high, 200)]
            values += [math.ldexp(m, -n) for m in odd if m < high]
        for x in values[:50]:
            digits = Decimal(x).as_tuple().digits
            assert len(digits) == 18 and digits[-1] == 5, x
        assert_written_exactly(values)

    def test_roundings_up_to_the_next_digit(self):
        # Values just below a power of ten, whose 17 digits are nines or
        # round up into the next decade's digits.
        values = []
        for k in range(-6, 17):
            p = float(f"1e{k}")
            values += [np.nextafter(p, 0.0), float(f"9.99999999999999999e{k - 1}"),
                       float(f"9.9999999999999995e{k - 1}"),
                       float(f"9.9999999999999999e{k - 1}")]
        assert_written_exactly(values)

    def test_zeros_subnormals_and_extremes(self):
        assert_written_exactly([
            0.0, -0.0, 5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
            1e-300, 9.9e-7, 1e17, 1e22, 1.7e308, 1.7976931348623157e308,
            np.inf, np.nan,
        ])

    def test_literal_and_integer_cells(self):
        # An integral float's %.17g cell is its %d cell, up to 2**53.
        ints = [0, 1, 9, 10, 11, 99, 12345678901, 2**53]
        buf = io.StringIO(newline="")
        write_float_table(buf, None, [ints, "lit%", np.arange(len(ints))])
        assert buf.getvalue() == "".join(
            "%d,lit%%,%d\r\n" % row for row in zip(ints, range(len(ints)))
        )

    def test_a_million_random_values_per_decade(self):
        # Uniform over the doubles of each decade of the fast path, both
        # signs, two to a row; one decade at a time keeps the strings small.
        rng = np.random.default_rng(23)
        for k in range(_MIN_EXP, _MAX_EXP + 1):
            lo, hi = (np.array([float(f"1e{e}")]).view(np.int64)[0] for e in (k, k + 1))
            values = rng.integers(lo, hi, 1_000_000).view(np.float64)
            values[::3] *= -1
            buf = io.StringIO(newline="")
            write_float_table(buf, None, [values[0::2], values[1::2]])
            cells = list(map(format, values.tolist(), itertools.repeat(".17g")))
            want = "\r\n".join(map(",".join, zip(cells[0::2], cells[1::2]))) + "\r\n"
            assert buf.getvalue() == want, k


def knee_csv(tmp_path, rows) -> Path:
    """A four-column high-rate CSV whose data rows are ``rows`` (strings),
    or whose body is ``rows`` byte for byte when it is one string."""
    body = rows if isinstance(rows, str) else "\n".join(rows) + "\n"
    path = tmp_path / "take.csv"
    path.write_bytes(("time_s,angle_deg,emg_BF,torque_nm\n" + body).encode())
    return path


def read_error(path, channels=None) -> str:
    with pytest.raises(DataError) as info:
        read_recording_csv(path, 100.0, channels)
    return str(info.value)


class TestSelectiveRead:
    GOOD = ["0.0,1.0,0.5,2.0", "0.01,1.5,0.25,2.5", "0.02,2.0,-0.5,3.0"]

    def test_selected_columns_are_the_full_reads(self, tmp_path):
        path = knee_csv(tmp_path, self.GOOD)
        full = read_recording_csv(path, 100.0)
        for channels in ({"angle_deg"}, {"torque_nm"}, {"emg_BF", "fmg_BF"}, set()):
            part = read_recording_csv(path, 100.0, channels)
            assert sorted(part.labels()) == sorted(channels & set(full.labels()))
            for label in part.labels():
                assert part[label].values.tobytes() == full[label].values.tobytes()
                assert part[label].start_time_s == full[label].start_time_s

    @pytest.mark.parametrize("rows, message", [
        pytest.param(["0.0,1.0,0.5,2.0", "0.01,1.5,0.25"],
                     "ragged rows: data row 2 has 3 cells, the header 4", id="narrow"),
        pytest.param(["0.0,1.0,0.5,2.0", "0.01,1.5,0.25,2.5,9", "0.02,2.0,-0.5,3.0"],
                     "ragged rows: data row 2 has 5 cells, the header 4", id="wide"),
        pytest.param(["0.0,1.0,0.5,2.0", "0.01,1.5,0.25,2.5,9", "0.02,2.0,-0.5"],
                     "ragged rows: data row 2 has 5 cells, the header 4",
                     id="wide-then-narrow"),
        pytest.param(["0.0,1.0,0.5,2.0,7", "0.01,1.5,0.25,2.5,7"],
                     "ragged rows: data row 1 has 5 cells, the header 4", id="all-wide"),
        pytest.param("0.0,1.0,0.5,2.0\n0.01,1.5,0.25",
                     "ragged rows: data row 2 has 3 cells, the header 4",
                     id="no-final-newline"),
        pytest.param("0.0,1.0,0.5,2.0\r\n\r\n\r\n0.01,1.5,0.25,2.5,9\r\n",
                     "ragged rows: data row 2 has 5 cells, the header 4",
                     id="crlf-blank-lines"),
        pytest.param(["0.0,1.0,0.5,2.0", "", "0.01,1.5,0.25,2.5", "", "0.02,2.0"],
                     "ragged rows: data row 3 has 2 cells, the header 4",
                     id="blank-before-ragged"),
        pytest.param(["0.0,1.0,0.5,2.0", "0.01,1.5,0.25,2.5", "0.02,x3,-0.5,3.0"],
                     "non-numeric cell 'x3' in column 'angle_deg', data row 3",
                     id="non-numeric"),
        pytest.param(["0.0,1.0,0.5,2.0", "0.01,nan,0.25,2.5"],
                     "column 'angle_deg' has a non-finite value in data row 2",
                     id="non-finite"),
    ])
    def test_bad_rows_give_the_full_reads_error(self, tmp_path, rows, message):
        path = knee_csv(tmp_path, rows)
        assert message in read_error(path)
        assert read_error(path, {"angle_deg"}) == read_error(path)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(body=st.text(alphabet="0,\r\n x", max_size=40))
    def test_row_widths_match_a_line_by_line_count(self, tmp_path, body):
        # The reference splits lines as a text-mode read does and skips
        # the empty ones, as np.loadtxt does.
        path = knee_csv(tmp_path, body)
        lines = [line for line in body.replace("\r", "\n").split("\n") if line]
        ragged = [(row, line.count(",") + 1) for row, line in enumerate(lines, start=1)
                  if line.count(",") != 3]
        for channels in (None, {"angle_deg"}):
            try:
                read_recording_csv(path, 100.0, channels)
                message = ""
            except DataError as exc:
                message = str(exc)
            if ragged:
                row, cells = ragged[0]
                assert message == (f"{path}: ragged rows: data row {row} has "
                                   f"{cells} cells, the header 4")
            else:
                assert "ragged" not in message

    @pytest.mark.parametrize("cell", ["nan", "-inf", "x"])
    def test_unread_columns_are_not_checked(self, tmp_path, cell):
        # The bad cell in an inner column, then in the last one.
        for rows, column, read in [
            (["0.0,1.0,0.5,2.0", f"0.01,1.5,{cell},2.5"], "emg_BF", "torque_nm"),
            (["0.0,1.0,0.5,2.0", f"0.01,1.5,0.25,{cell}"], "torque_nm", "emg_BF"),
        ]:
            path = knee_csv(tmp_path, rows)
            assert f"'{column}'" in read_error(path)
            back = read_recording_csv(path, 100.0, {"angle_deg", read})
            assert back["angle_deg"].values.tolist() == [1.0, 1.5]
            assert sorted(back.labels()) == sorted(["angle_deg", read])


@pytest.fixture(scope="module")
def session_dir(tmp_path_factory):
    spec = dataclasses.replace(
        default_session_spec(Joint.KNEE),
        velocities_deg_s=(60.0,),
        takes_per_velocity=2,
        swings_per_take=3,
    )
    session = generate_session(spec)
    out = tmp_path_factory.mktemp("session") / "knee"
    write_session(session, out)
    return session, out


def copy_session(src, dst, mutate_index=None):
    """A copy of session directory ``src`` at ``dst``; ``mutate_index``
    edits the parsed session.json before it is written back."""
    dst.mkdir()
    for p in src.iterdir():
        (dst / p.name).write_bytes(p.read_bytes())
    if mutate_index is not None:
        index = json.loads((dst / "session.json").read_text())
        mutate_index(index)
        (dst / "session.json").write_text(json.dumps(index))
    return dst


class TestSessionRoundTrip:
    def test_directory_layout(self, session_dir):
        _, out = session_dir
        names = sorted(p.name for p in out.iterdir())
        assert [n for n in names if n.endswith(".json")] == ["session.json"]
        assert "calibration_standing.csv" in names
        assert "calibration_angle.csv" in names
        assert "take_v060_t0_hi.csv" in names
        assert "take_v060_t0_fmg.csv" in names
        index = json.loads((out / "session.json").read_text())
        assert index["format_version"] == 2
        assert index["joint"] == "knee"
        assert (index["high_rate_hz"], index["fmg_rate_hz"]) == (2000.0, 200.0)
        assert index["takes"][1] == {
            "velocity_deg_s": 60.0, "take_index": 1,
            "high_rate_file": "take_v060_t1_hi.csv",
            "fmg_file": "take_v060_t1_fmg.csv",
        }

    @pytest.mark.parametrize("velocities", [(60.2, 59.8), (60.0, 60.0)])
    def test_takes_sharing_a_file_name_write_nothing(self, session_dir, tmp_path,
                                                     velocities):
        # Both takes would be written as take_v060_t0_*.csv.
        session, _ = session_dir
        take = session.takes[0]
        takes = [dataclasses.replace(take, velocity_deg_s=v) for v in velocities]
        out = tmp_path / "session"
        with pytest.raises(DataError, match=(
            rf"takes at {velocities[0]:g} and {velocities[1]:g} deg/s \(index 0\) "
            r"would share the files take_v060_t0_\*\.csv"
        )):
            write_session(dataclasses.replace(session, takes=takes), out)
        assert not out.exists()

    def test_bit_exact_values(self, session_dir):
        session, out = session_dir
        loaded = load_session(out)
        assert loaded.joint is Joint.KNEE
        assert len(loaded.takes) == len(session.takes)
        for orig, back in zip(session.takes, loaded.takes):
            assert back.velocity_deg_s == orig.velocity_deg_s
            assert sorted(back.recording.labels()) == sorted(
                orig.recording.labels()
            )
            for label in orig.recording.labels():
                assert np.array_equal(
                    back.recording[label].values,
                    orig.recording[label].values,
                ), label
        for label in session.standing.labels():
            assert np.array_equal(
                loaded.standing[label].values,
                session.standing[label].values,
            )
        assert np.array_equal(
            loaded.initial_angle.values, session.initial_angle.values
        )

    def test_load_single_take(self, session_dir):
        session, out = session_dir
        index = read_session_index(out)
        take = load_take(index, index.takes[1])
        assert take.velocity_deg_s == 60.0
        assert take.take_index == 1
        orig = session.takes[1].recording
        assert np.array_equal(
            take.recording["torque_nm"].values, orig["torque_nm"].values
        )
        # FMG files carry their own (slower) clock.
        m = take.recording["fmg_BF"]
        assert m.sample_rate_hz == 200.0
        assert take.recording["angle_deg"].sample_rate_hz == 2000.0

    def test_load_session_parses_the_index_once(self, session_dir,
                                                monkeypatch):
        _, out = session_dir
        parsed = []
        monkeypatch.setattr(recordings, "json", SimpleNamespace(
            loads=lambda text: parsed.append(text) or json.loads(text),
        ))
        load_session(out)
        assert parsed == [(out / "session.json").read_text()]

    def test_index_and_calibration_read_no_take_data(self, session_dir,
                                                     tmp_path):
        session, out = session_dir
        bare = tmp_path / "bare"
        bare.mkdir()
        for p in out.iterdir():
            if not p.name.startswith("take_"):
                (bare / p.name).write_bytes(p.read_bytes())
        index = read_session_index(bare)
        assert index.joint is Joint.KNEE
        assert (index.high_rate_hz, index.fmg_rate_hz) == (2000.0, 200.0)
        assert [(t.velocity_deg_s, t.take_index) for t in index.takes] == [
            (60.0, 0), (60.0, 1)
        ]
        standing, initial_angle = load_calibration(index)
        assert np.array_equal(initial_angle.values, session.initial_angle.values)
        for label in session.standing.labels():
            assert np.array_equal(
                standing[label].values, session.standing[label].values
            )
        take = load_take(dataclasses.replace(index, root=out), index.takes[1])
        assert np.array_equal(
            take.recording["torque_nm"].values,
            session.takes[1].recording["torque_nm"].values,
        )

    def test_generator_spec_is_not_read(self, session_dir, tmp_path):
        session, out = session_dir
        for name, mutate in [
            ("no_spec", lambda d: d.pop("spec")),
            ("bad_spec", lambda d: d.update(spec={"joint": 5})),
        ]:
            loaded = load_session(copy_session(out, tmp_path / name, mutate))
            assert loaded.joint is Joint.KNEE
            assert np.array_equal(
                loaded.takes[0].recording["torque_nm"].values,
                session.takes[0].recording["torque_nm"].values,
            )

    def test_unknown_format_version(self, session_dir, tmp_path):
        _, out = session_dir
        for version in (1, 999, "2", None):
            bad = copy_session(
                out, tmp_path / f"v{version}",
                lambda d: d.update(format_version=version),
            )
            with pytest.raises(InvalidSpec, match="session.json: .*format version"):
                load_session(bad)

    @pytest.mark.parametrize("mutate, message", [
        pytest.param(lambda d: d.update(joint="elbow"), "unknown joint 'elbow'",
                     id="unknown-joint"),
        pytest.param(lambda d: d.update(joint=5), "'joint' must be a string",
                     id="numeric-joint"),
        pytest.param(lambda d: d.pop("joint"), "lacks 'joint'", id="no-joint"),
        pytest.param(lambda d: d.update(high_rate_hz=-2000.0),
                     "'high_rate_hz' must be finite and > 0", id="negative-rate"),
        pytest.param(lambda d: d.update(fmg_rate_hz=0),
                     "'fmg_rate_hz' must be finite and > 0", id="zero-rate"),
        pytest.param(lambda d: d.update(fmg_rate_hz=float("nan")),
                     "'fmg_rate_hz' must be finite and > 0", id="nan-rate"),
        pytest.param(lambda d: d.update(high_rate_hz="2000"),
                     "'high_rate_hz' must be a number", id="string-rate"),
        pytest.param(lambda d: d.update(standing_file=None),
                     "'standing_file' must be a string", id="null-file"),
        pytest.param(lambda d: d.pop("initial_angle_file"),
                     "lacks 'initial_angle_file'", id="no-angle-file"),
        pytest.param(lambda d: d.update(takes={}), "'takes' must be a list",
                     id="takes-not-a-list"),
        pytest.param(lambda d: d["takes"].append(3),
                     r"takes\[2\]: the entry must be a JSON object", id="take-not-an-object"),
        pytest.param(lambda d: d["takes"][1].pop("fmg_file"),
                     r"takes\[1\]: lacks 'fmg_file'", id="take-without-file"),
        pytest.param(lambda d: d["takes"][0].update(take_index=True),
                     r"takes\[0\]: 'take_index' must be an integer", id="bool-take-index"),
        pytest.param(lambda d: d["takes"][0].update(velocity_deg_s=[60]),
                     r"takes\[0\]: 'velocity_deg_s' must be a number", id="list-velocity"),
    ])
    def test_malformed_index_names_file_and_key(self, session_dir, tmp_path,
                                                mutate, message):
        _, out = session_dir
        bad = copy_session(out, tmp_path / "bad", mutate)
        with pytest.raises(InvalidSpec, match=r"bad[/\\]session\.json: " + message):
            read_session_index(bad)

    @pytest.mark.parametrize("mutate, message", [
        pytest.param(lambda d: d["takes"].append(dict(d["takes"][0])),
                     r"takes\[2\] repeats the velocity and index of takes\[0\]",
                     id="copy-of-first-take"),
        pytest.param(lambda d: d["takes"][1].update(take_index=d["takes"][0]["take_index"]),
                     r"takes\[1\] repeats the velocity and index of takes\[0\]",
                     id="same-velocity-and-index"),
        pytest.param(lambda d: d["takes"][1].update(fmg_file=d["takes"][0]["fmg_file"]),
                     r"takes\[1\] repeats the data file of takes\[0\]: 'take_v060_t0_fmg.csv'",
                     id="shared-fmg-file"),
        pytest.param(lambda d: d["takes"][1].update(fmg_file=d["takes"][0]["high_rate_file"]),
                     r"takes\[1\] repeats the data file of takes\[0\]",
                     id="fmg-file-is-other-takes-high-rate-file"),
    ])
    def test_take_listed_twice_is_rejected(self, session_dir, tmp_path, mutate, message):
        # Loaded twice, a take's copies would land in different CV folds.
        _, out = session_dir
        bad = copy_session(out, tmp_path / "bad", mutate)
        with pytest.raises(InvalidSpec, match=r"bad[/\\]session\.json: " + message):
            read_session_index(bad)

    def test_file_that_points_nowhere(self, session_dir, tmp_path):
        _, out = session_dir
        bad = copy_session(
            out, tmp_path / "bad",
            lambda d: d["takes"][0].update(fmg_file="gone.csv"),
        )
        with pytest.raises(DataError, match="cannot read .*gone.csv"):
            load_session(bad)

    def test_missing_session_index(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_session(tmp_path)

    def test_corrupt_index_json(self, tmp_path):
        # Deep nesting makes the JSON parser raise RecursionError.
        for text in ("{not json", "[" * 200_000):
            (tmp_path / "session.json").write_text(text)
            with pytest.raises(InvalidSpec, match="invalid JSON"):
                load_session(tmp_path)

    def test_empty_take_list(self, session_dir, tmp_path):
        _, out = session_dir
        index = json.loads((out / "session.json").read_text())
        index["takes"] = []
        (tmp_path / "session.json").write_text(json.dumps(index))
        with pytest.raises(InvalidSpec, match="no takes"):
            load_session(tmp_path)
