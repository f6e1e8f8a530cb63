"""Command-line interface: exit codes, outputs, and error reporting."""

import contextlib
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import myotorque.gpr as gpr
from myotorque.cli import main
from myotorque.errors import NotPositiveDefinite
from myotorque.evaluate import load_estimator
from myotorque.gpr import load_model, save_model
from myotorque.preprocess import (
    Joint,
    build_features,
    compute_calibration,
    fmg_channel,
    muscles_for,
)
from myotorque.recordings import load_session, write_session
from myotorque.synthgen import NoiseSpec, default_session_spec, generate_session


def short_spec(joint, noise=None):
    spec = dataclasses.replace(
        default_session_spec(joint),
        velocities_deg_s=(60.0,),
        takes_per_velocity=2,
        swings_per_take=4,
    )
    if noise is not None:
        spec = dataclasses.replace(spec, noise=noise)
    return spec


@pytest.fixture(scope="module")
def knee_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "knee"
    write_session(generate_session(short_spec(Joint.KNEE)), out)
    return out


@pytest.fixture(scope="module")
def quiet_knee_dir(tmp_path_factory):
    spec = short_spec(
        Joint.KNEE,
        noise=NoiseSpec(emg_snr=1e9, fmg_noise_std=0.0, torque_noise_std=0.0,
                        angle_noise_std_deg=0.0, fmg_drift_amp=0.0),
    )
    out = tmp_path_factory.mktemp("cli") / "quiet"
    write_session(generate_session(spec), out)
    return out


@pytest.fixture(scope="module")
def fmg_model(quiet_knee_dir, tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "fmg.npz"
    # Dense enough (stride 3) to cover the sharp torque transients at
    # motion reversals; sparser subsamples extrapolate badly there.
    code = main([
        "train", "--session", str(quiet_knee_dir), "--config", "fmg",
        "--cap", "1000", "--out", str(path),
    ])
    assert code == 0
    return path


def with_nan_cell(session_dir, tmp_path, csv_name):
    """A copy of a session directory whose ``csv_name`` has one ``nan`` cell
    (second column of the third data row)."""
    copy = tmp_path / "nan_session"
    copy.mkdir()
    for p in session_dir.iterdir():
        (copy / p.name).write_bytes(p.read_bytes())
    lines = (copy / csv_name).read_text().splitlines()
    cells = lines[3].split(",")
    cells[1] = "nan"
    lines[3] = ",".join(cells)
    (copy / csv_name).write_text("\n".join(lines) + "\n")
    return copy


# A JSON integer outside the float range: float() raises OverflowError.
HUGE = 10**400


def run_cli(*args):
    """``myotorque`` in a fresh interpreter, so a traceback shows on stderr."""
    return subprocess.run(
        [sys.executable, "-m", "myotorque.cli", *map(str, args)],
        capture_output=True, text=True,
    )


class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        assert main(["evaluate", "--bogus"]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_command_is_1(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_data_error_is_2(self, capsys, tmp_path):
        code = main(["evaluate", "--session", str(tmp_path / "nope")])
        assert code == 2
        assert "data error" in capsys.readouterr().err

    def test_session_with_joint_both_is_2(self, knee_dir, capsys):
        code = main(["evaluate", "--session", str(knee_dir)])
        assert code == 2
        assert "--joint" in capsys.readouterr().err


class TestArgumentContract:
    """Out-of-range numbers are usage errors (exit 1, one message line), and
    a session index that lists a take twice is a data error (exit 2); none
    of them prints a traceback."""

    @pytest.mark.parametrize("argv", [
        pytest.param(["train", "--joint", "knee", "--config", "fmg", "--cap", "0",
                      "--out", "m.npz"], id="train-cap-0"),
        pytest.param(["train", "--joint", "knee", "--config", "fmg", "--cap", "-5",
                      "--out", "m.npz"], id="train-cap-negative"),
        pytest.param(["evaluate", "--joint", "knee", "--cap", "0"], id="evaluate-cap-0"),
        pytest.param(["evaluate", "--joint", "knee", "--folds", "0"], id="evaluate-folds-0"),
        pytest.param(["evaluate", "--joint", "knee", "--folds", "1"], id="evaluate-folds-1"),
        pytest.param(["train", "--joint", "knee", "--config", "fmg", "--seed", "-1",
                      "--out", "m.npz"], id="train-seed-negative"),
        pytest.param(["evaluate", "--joint", "knee", "--seed", "-1"],
                     id="evaluate-seed-negative"),
        pytest.param(["simulate", "--seed", "-1", "--out", "session"],
                     id="simulate-seed-negative"),
    ])
    def test_out_of_range_number_is_usage_error(self, argv, tmp_path):
        argv = [str(tmp_path / a) if a in ("m.npz", "session") else a for a in argv]
        proc = run_cli(*argv)
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        errors = [line for line in proc.stderr.splitlines() if "error:" in line]
        assert len(errors) == 1 and "must be >=" in errors[0], proc.stderr
        assert not (tmp_path / "m.npz").exists() and not (tmp_path / "session").exists()

    def test_spec_with_negative_seed_is_2(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({**default_session_spec(Joint.KNEE).to_dict(), "seed": -1}))
        proc = run_cli("simulate", "--spec", spec, "--out", tmp_path / "session")
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "seed must be >= 0" in proc.stderr

    @pytest.fixture(scope="class")
    def doubled_take_dir(self, knee_dir, tmp_path_factory):
        """``knee_dir`` with a copy of takes[0] appended to its index."""
        out = tmp_path_factory.mktemp("cli") / "doubled"
        out.mkdir()
        for p in knee_dir.iterdir():
            (out / p.name).write_bytes(p.read_bytes())
        index = json.loads((out / "session.json").read_text())
        index["takes"].append(dict(index["takes"][0]))
        (out / "session.json").write_text(json.dumps(index))
        return out

    @pytest.mark.parametrize("command", ["train", "evaluate", "predict"])
    def test_take_listed_twice_is_2(self, command, doubled_take_dir, fmg_model, tmp_path):
        session = doubled_take_dir
        argv = {
            "train": ["train", "--session", session, "--config", "fmg", "--cap", "50",
                      "--out", tmp_path / "m.npz"],
            "evaluate": ["evaluate", "--session", session, "--joint", "knee",
                         "--config", "fmg", "--cap", "50", "--out", tmp_path / "eval"],
            "predict": ["predict", "--model", fmg_model, "--session", session,
                        "--out", tmp_path / "pred.csv"],
        }[command]
        proc = run_cli(*argv)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "takes[2] repeats the velocity and index of takes[0]" in proc.stderr


    @pytest.mark.parametrize("command", ["train", "predict", "evaluate", "simulate"])
    def test_unwritable_out_is_usage_error(self, command, knee_dir, fmg_model, tmp_path):
        # train and predict write into a directory that does not exist;
        # evaluate and simulate want a directory where a file stands.
        afile = tmp_path / "afile"
        afile.write_text("")
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(short_spec(Joint.KNEE).to_dict()))
        out, argv = {
            "train": (tmp_path / "nodir" / "m.npz",
                      ["train", "--session", knee_dir, "--config", "fmg", "--cap", "50"]),
            "predict": (tmp_path / "nodir" / "p.csv",
                        ["predict", "--model", fmg_model, "--session", knee_dir]),
            "evaluate": (afile, ["evaluate", "--session", knee_dir, "--joint", "knee",
                                 "--config", "fmg", "--cap", "50", "--folds", "2"]),
            "simulate": (afile, ["simulate", "--spec", spec]),
        }[command]
        proc = run_cli(*argv, "--out", out)
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and f"cannot write {out}" in lines[0], proc.stderr
        assert not (tmp_path / "nodir").exists() and afile.read_text() == ""


class TestSimulate:
    def test_writes_loadable_session(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(short_spec(Joint.ANKLE).to_dict()))
        out = tmp_path / "session"
        code = main([
            "simulate", "--spec", str(spec_file), "--out", str(out),
        ])
        assert code == 0
        assert (out / "session.json").exists()
        assert "2 takes" in capsys.readouterr().out

    def test_malformed_spec_names_file(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        d = short_spec(Joint.ANKLE).to_dict()
        del d["joint"]
        spec_file.write_text(json.dumps(d))
        code = main([
            "simulate", "--spec", str(spec_file), "--out", str(tmp_path / "s"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert str(spec_file) in err
        assert "joint" in err

    def test_spec_that_is_not_an_object_is_2(self, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text("[1,2]")
        proc = run_cli("simulate", "--spec", spec_file, "--out", tmp_path / "s")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert str(spec_file) in proc.stderr
        assert "JSON object" in proc.stderr

    def test_deeply_nested_spec_is_2(self, tmp_path):
        # The JSON parser raises RecursionError, not a ValueError.
        spec_file = tmp_path / "spec.json"
        spec_file.write_text("[" * 200_000)
        proc = run_cli("simulate", "--spec", spec_file, "--out", tmp_path / "s")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert str(spec_file) in proc.stderr

    @pytest.mark.parametrize("edit", [
        lambda d: {**d, "velocities_deg_s": [0.0]},
        lambda d: {**d, "velocities_deg_s": [-60.0]},
        lambda d: {**d, "velocities_deg_s": [float("nan")]},
        lambda d: {**d, "velocities_deg_s": []},
        lambda d: {**d, "takes_per_velocity": 0},
        lambda d: {**d, "torque": {**d["torque"], "muscle_weights": dict(
            list(d["torque"]["muscle_weights"].items())[1:])}},
        lambda d: {**d, "noise": {**d["noise"], "emg_snr": 0.0}},
        lambda d: {**d, "high_rate_hz": -2000.0, "fmg_rate_hz": -200.0},
        lambda d: {**d, "fmg_rate_hz": -200.0},
        lambda d: {**d, "hold_s": -1.0},
        lambda d: {**d, "velocities_deg_s": [60.0, 60.0]},
        lambda d: {**d, "velocities_deg_s": [60.2, 59.8]},
        lambda d: {**d, "hold_s": HUGE},
    ], ids=["zero velocity", "negative velocity", "NaN velocity", "no velocities",
            "no takes", "muscle without weight", "zero EMG SNR", "negative rates",
            "negative FMG rate", "negative hold", "repeated velocity",
            "velocities sharing a file name", "hold too large for a float"])
    def test_out_of_range_spec_is_2(self, tmp_path, edit):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(edit(short_spec(Joint.KNEE).to_dict())))
        out = tmp_path / "session"
        proc = run_cli("simulate", "--spec", spec_file, "--out", out)
        assert proc.returncode == 2, proc.stderr
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert not out.exists()

    def test_out_of_range_field_is_named(self, tmp_path):
        spec_file = tmp_path / "spec.json"
        d = short_spec(Joint.KNEE).to_dict()
        d["noise"]["torque_noise_std"] = float("nan")
        spec_file.write_text(json.dumps(d))
        out = tmp_path / "session"
        proc = run_cli("simulate", "--spec", spec_file, "--out", out)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.count("\n") == 1, proc.stderr
        assert "noise.torque_noise_std must be finite and >= 0" in proc.stderr
        assert not out.exists()

    def test_seed_override_changes_data(self, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(short_spec(Joint.KNEE).to_dict()))
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--spec", str(spec_file), "--out", str(a)]) == 0
        assert main([
            "simulate", "--spec", str(spec_file), "--seed", "99", "--out", str(b),
        ]) == 0
        same = (a / "take_v060_t0_hi.csv").read_bytes()
        other = (b / "take_v060_t0_hi.csv").read_bytes()
        assert same != other


class TestEvaluate:
    def test_exports_and_determinism(self, knee_dir, tmp_path, capsys):
        args = [
            "evaluate", "--session", str(knee_dir), "--joint", "knee",
            "--config", "fmg", "--cap", "300",
        ]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out_a)]) == 0
        table_text = capsys.readouterr().out
        assert "knee" in table_text
        assert main(args + ["--out", str(out_b)]) == 0
        metrics_a = (out_a / "metrics.csv").read_bytes()
        assert metrics_a == (out_b / "metrics.csv").read_bytes()
        assert (out_a / "scatter_knee_fmg.csv").exists()
        assert (out_a / "timeseries_knee_fmg.csv").exists()
        assert (out_a / "report.txt").read_text().startswith("Torque estimation")
        header = metrics_a.decode().splitlines()[0]
        assert header == "joint,config,fold,mse_norm,rmse_norm"


class TestTrainPredict:
    def test_round_trip_tracks_truth(self, fmg_model, quiet_knee_dir, tmp_path,
                                      capsys):
        pred = tmp_path / "pred.csv"
        code = main([
            "predict", "--model", str(fmg_model),
            "--session", str(quiet_knee_dir),
            "--velocity", "60", "--take", "1", "--out", str(pred),
        ])
        assert code == 0
        data = np.genfromtxt(pred, delimiter=",", names=True)
        r = np.corrcoef(data["true_torque_nm"], data["predicted_torque_nm"])[0, 1]
        assert r > 0.99

    def test_wrong_joint_session_is_2(self, fmg_model, tmp_path, capsys):
        ankle = tmp_path / "ankle"
        write_session(generate_session(short_spec(Joint.ANKLE)), ankle)
        code = main([
            "predict", "--model", str(fmg_model), "--session", str(ankle),
        ])
        assert code == 2
        assert "ankle" in capsys.readouterr().err

    def test_train_session_of_other_joint_is_2(self, knee_dir, tmp_path,
                                               capsys):
        code = main([
            "train", "--session", str(knee_dir), "--joint", "ankle",
            "--config", "fmg", "--out", str(tmp_path / "m.npz"),
        ])
        assert code == 2
        assert "knee" in capsys.readouterr().err
        assert not (tmp_path / "m.npz").exists()

    def test_session_spec_with_numeric_joint_is_2(self, knee_dir, tmp_path):
        bad = tmp_path / "bad"
        bad.mkdir()
        for p in knee_dir.iterdir():
            (bad / p.name).write_bytes(p.read_bytes())
        index = json.loads((bad / "session.json").read_text())
        index["joint"] = 5
        (bad / "session.json").write_text(json.dumps(index))
        proc = run_cli(
            "train", "--session", bad, "--config", "fmg", "--out", tmp_path / "m.npz"
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "session.json" in proc.stderr and "'joint'" in proc.stderr
        assert not (tmp_path / "m.npz").exists()

    def test_train_without_session_or_joint_is_2(self, tmp_path, capsys):
        code = main(["train", "--config", "fmg", "--out", str(tmp_path / "m.npz")])
        assert code == 2
        assert "--joint" in capsys.readouterr().err

    def test_nan_calibration_cell_is_2(self, fmg_model, quiet_knee_dir,
                                       tmp_path, capsys):
        broken = with_nan_cell(quiet_knee_dir, tmp_path, "calibration_standing.csv")
        code = main([
            "predict", "--model", str(fmg_model), "--session", str(broken),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "calibration_standing.csv" in err
        assert "non-finite" in err
        assert "Traceback" not in err

    def test_nan_take_cell_names_the_csv(self, fmg_model, quiet_knee_dir,
                                         tmp_path, capsys):
        broken = with_nan_cell(quiet_knee_dir, tmp_path, "take_v060_t0_fmg.csv")
        code = main([
            "predict", "--model", str(fmg_model), "--session", str(broken),
            "--take", "0",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "take_v060_t0_fmg.csv" in err
        assert "non-finite" in err
        assert "manifest" not in err

    def test_bad_emg_cell_stops_only_the_emg_config(self, quiet_knee_dir,
                                                     tmp_path, capsys):
        # fmg reads time, angle and torque of the high-rate file (and its
        # last column, for the row widths); emg_BF is not read.
        broken = tmp_path / "broken"
        broken.mkdir()
        for p in quiet_knee_dir.iterdir():
            (broken / p.name).write_bytes(p.read_bytes())
        path = broken / "take_v060_t1_hi.csv"
        lines = path.read_text().splitlines()
        column = lines[0].split(",").index("emg_BF")
        assert column < len(lines[0].split(",")) - 1
        cells = lines[5].split(",")
        cells[column] = "nan"
        lines[5] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        argv = ["train", "--session", str(broken), "--cap", "50",
                "--out", str(tmp_path / "m.npz"), "--config"]
        assert main(argv + ["fmg"]) == 0
        capsys.readouterr()
        assert main(argv + ["emg"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "take_v060_t1_hi.csv: column 'emg_BF' has a non-finite value in data row 5" in err

    def test_missing_take_is_2(self, fmg_model, quiet_knee_dir, capsys):
        code = main([
            "predict", "--model", str(fmg_model),
            "--session", str(quiet_knee_dir), "--take", "7",
        ])
        assert code == 2
        assert "7" in capsys.readouterr().err

    def test_reads_only_the_scored_take(self, fmg_model, quiet_knee_dir,
                                        tmp_path):
        # Byte for byte what the fully loaded session gives, with every
        # other take's data files gone.
        full = load_session(quiet_knee_dir)
        (take,) = [t for t in full.takes if t.take_index == 1]
        estimator = load_estimator(fmg_model)
        table = build_features(
            take.recording, estimator.joint, estimator.config,
            compute_calibration(full.standing, full.initial_angle),
        )
        mean, std = estimator.predict_torque(table.rows)
        lines = ["time_s,true_torque_nm,predicted_torque_nm,predicted_std_nm"]
        for i in range(table.n_rows):
            lines.append(",".join(format(v, ".17g") for v in (
                table.times_s[i], table.targets[i], mean[i], std[i])))
        expected = ("\r\n".join(lines) + "\r\n").encode()

        lone = tmp_path / "lone"
        lone.mkdir()
        for p in quiet_knee_dir.iterdir():
            if p.suffix == ".csv" and p.name.startswith("take_") \
                    and not p.name.startswith("take_v060_t1_"):
                continue
            (lone / p.name).write_bytes(p.read_bytes())
        pred = tmp_path / "pred.csv"
        code = main([
            "predict", "--model", str(fmg_model), "--session", str(lone),
            "--velocity", "60", "--take", "1", "--out", str(pred),
        ])
        assert code == 0
        assert pred.read_bytes() == expected

    def test_oversized_csv_header_is_2(self, fmg_model, quiet_knee_dir,
                                       tmp_path):
        # A label longer than csv's field limit once ended in a csv.Error
        # traceback (exit 1).
        broken = damaged_session(quiet_knee_dir, tmp_path / "wide",
                                 ("wide header", "take_v060_t0_fmg.csv"))
        proc = run_cli("predict", "--model", fmg_model, "--session", broken)
        assert proc.returncode == 2
        (line,) = proc.stderr.splitlines()
        assert "take_v060_t0_fmg.csv: unreadable header" in line

    def test_model_metadata_missing_key_is_2(self, fmg_model, quiet_knee_dir,
                                             tmp_path, capsys):
        model, meta = load_model(fmg_model)
        del meta["column_means"]
        broken = tmp_path / "broken.npz"
        save_model(model, broken, meta)
        code = main([
            "predict", "--model", str(broken),
            "--session", str(quiet_knee_dir),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "column_means" in err
        assert "Traceback" not in err


    def test_bad_metadata_is_refused_before_the_refit(
        self, fmg_model, quiet_knee_dir, tmp_path, monkeypatch, capsys
    ):
        model, meta = load_model(fmg_model)
        del meta["column_means"]
        broken = tmp_path / "broken.npz"
        save_model(model, broken, meta)

        def refit(*args, **kwargs):
            raise AssertionError("the model was refit before its metadata was read")

        monkeypatch.setattr(gpr, "fit", refit)
        code = main(["predict", "--model", str(broken),
                     "--session", str(quiet_knee_dir)])
        assert code == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert "column_means" in line


def stream_args(model, session, infile):
    return [
        "stream", "--model", str(model), "--session", str(session),
        "--in", str(infile),
    ]


class TestStream:
    @pytest.mark.parametrize("rate", [float("inf"), 1e308])
    def test_degenerate_model_rate_is_2(self, rate, fmg_model, quiet_knee_dir,
                                        tmp_path):
        # inf is refused by the model loader; 1e308 is a finite rate at
        # which the angle pre-filter cannot be designed.
        model, meta = load_model(fmg_model)
        meta["sample_rate_hz"] = rate
        broken = tmp_path / "rate.npz"
        save_model(model, broken, meta)
        infile = tmp_path / "rows.csv"
        infile.write_text("0.0,30.0,0.1,0.2,0.1,0.2,0.1\n")
        proc = run_cli(*stream_args(broken, quiet_knee_dir, infile))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert "Traceback" not in proc.stderr
        assert f"{rate:g}" in proc.stderr

    def test_session_of_other_joint_is_2(self, fmg_model, tmp_path):
        # Checked before any row is read: the ankle calibration has no
        # offset for the knee model's muscles.
        ankle = tmp_path / "ankle"
        write_session(generate_session(short_spec(Joint.ANKLE)), ankle)
        infile = tmp_path / "rows.csv"
        infile.write_text("0.0,30.0,0.1,0.2,0.1,0.2,0.1\n")
        proc = run_cli(*stream_args(fmg_model, ankle, infile))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert "Traceback" not in proc.stderr
        assert "ankle" in proc.stderr

    def test_headerless_rows(self, fmg_model, quiet_knee_dir, tmp_path, capsys):
        infile = tmp_path / "rows.csv"
        lines = [
            f"{i / 200.0},{30.0 + i},0.1,0.2,0.1,0.2,0.1" for i in range(5)
        ]
        infile.write_text("\n".join(lines) + "\n")
        code = main(stream_args(fmg_model, quiet_knee_dir, infile))
        assert code == 0
        captured = capsys.readouterr()
        out_lines = captured.out.splitlines()
        comments = [l for l in out_lines if l.startswith("#")]
        rows = [l for l in out_lines if not l.startswith("#")]
        assert len(comments) == 4
        assert "time_s,torque_nm,torque_std_nm" in comments[-1]
        assert len(rows) == 5
        assert rows[0].startswith("0.000000,")
        assert "processed 5 rows, skipped 0" in captured.err

    def test_named_header_reorders_columns(self, fmg_model, quiet_knee_dir,
                                           tmp_path, capsys):
        infile = tmp_path / "rows.csv"
        header = "fmg_BF,fmg_RF,fmg_ST,fmg_VM,fmg_VL,angle_deg,time_s"
        infile.write_text(header + "\n0.1,0.2,0.1,0.2,0.1,30.0,4.5\n")
        code = main(stream_args(fmg_model, quiet_knee_dir, infile))
        assert code == 0
        rows = [
            l for l in capsys.readouterr().out.splitlines()
            if not l.startswith("#")
        ]
        assert len(rows) == 1
        assert rows[0].startswith("4.500000,")

    def test_missing_fmg_column_names_muscle(self, fmg_model, quiet_knee_dir,
                                             tmp_path, capsys):
        infile = tmp_path / "rows.csv"
        infile.write_text(
            "time_s,angle_deg,fmg_BF,fmg_RF,fmg_ST,fmg_VM\n"
            "0.0,30.0,0.1,0.2,0.1,0.2\n"
        )
        code = main(stream_args(fmg_model, quiet_knee_dir, infile))
        assert code == 2
        assert "fmg_VL" in capsys.readouterr().err

    def test_malformed_line_skipped_with_diagnostic(self, fmg_model,
                                                    quiet_knee_dir, tmp_path,
                                                    capsys):
        infile = tmp_path / "rows.csv"
        infile.write_text(
            "0.000,30.0,0.1,0.2,0.1,0.2,0.1\n"
            "0.005,oops,0.1,0.2,0.1,0.2,0.1\n"
            "0.010,31.0,0.1,0.2,0.1,0.2,0.1\n"
        )
        code = main(stream_args(fmg_model, quiet_knee_dir, infile))
        assert code == 0
        captured = capsys.readouterr()
        rows = [
            l for l in captured.out.splitlines() if not l.startswith("#")
        ]
        assert len(rows) == 2
        assert "skipping line 2" in captured.err
        assert "processed 2 rows, skipped 1" in captured.err

    def test_non_finite_line_skipped_and_stream_continues(
            self, fmg_model, quiet_knee_dir, tmp_path, capsys):
        good = [f"{i / 200.0:.3f},{30.0 + i},0.1,0.2,0.1,0.2,0.1"
                for i in range(4)]
        clean = tmp_path / "clean.csv"
        clean.write_text("\n".join(good) + "\n")
        assert main(stream_args(fmg_model, quiet_knee_dir, clean)) == 0
        expected = capsys.readouterr().out

        faulty = tmp_path / "faulty.csv"
        faulty.write_text("\n".join(
            good[:2] + ["0.010,nan,0.1,0.2,0.1,0.2,0.1"] + good[2:]) + "\n")
        code = main(stream_args(fmg_model, quiet_knee_dir, faulty))
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out == expected
        assert "skipping line 3" in captured.err
        assert "non-finite" in captured.err
        assert "processed 4 rows, skipped 1" in captured.err

    @pytest.mark.parametrize("time", ["nan", "inf", "-inf"])
    def test_non_finite_time_skips_only_its_own_line(
            self, fmg_model, quiet_knee_dir, tmp_path, time):
        # Such a line used to be streamed with its nan or inf timestamp.
        good = [f"{i / 200.0:.3f},{30.0 + i},0.1,0.2,0.1,0.2,0.1" for i in range(4)]
        clean = tmp_path / "clean.csv"
        clean.write_text("\n".join(good) + "\n")
        expected = run_cli(*stream_args(fmg_model, quiet_knee_dir, clean)).stdout

        faulty = tmp_path / "faulty.csv"
        lines = good[:2] + [f"{time},31.5,0.1,0.2,0.1,0.2,0.1"] + good[2:]
        faulty.write_text("\n".join(lines) + "\n")
        proc = run_cli(*stream_args(fmg_model, quiet_knee_dir, faulty))
        assert proc.returncode == 0
        assert proc.stdout == expected
        skip, summary = proc.stderr.splitlines()
        assert skip == f"stream: skipping line 3: tick has a non-finite time {float(time)!r}"
        assert summary.startswith("stream: processed 4 rows, skipped 1, tick p50")

    @pytest.mark.parametrize("position", [0, 1, 30])
    def test_huge_angle_skips_only_its_own_line(
            self, fmg_model, quiet_knee_dir, tmp_path, capsys, position):
        # A finite angle of 1.7e308 used to stay in the causal filter and
        # overflow the velocity of the next 8 lines, which were skipped too.
        good = [f"{i / 200.0:.3f},31.0,0.1,0.2,0.1,0.2,0.1" for i in range(59)]
        clean = tmp_path / "clean.csv"
        clean.write_text("\n".join(good) + "\n")
        assert main(stream_args(fmg_model, quiet_knee_dir, clean)) == 0
        expected = capsys.readouterr().out

        faulty = tmp_path / "faulty.csv"
        lines = good[:position] + ["0.5,1.7e308,0.1,0.2,0.1,0.2,0.1"] + good[position:]
        faulty.write_text("\n".join(lines) + "\n")
        assert main(stream_args(fmg_model, quiet_knee_dir, faulty)) == 0
        captured = capsys.readouterr()
        assert captured.out == expected
        assert f"skipping line {position + 1}" in captured.err
        assert "processed 59 rows, skipped 1" in captured.err

    @pytest.mark.parametrize("via", ["--in", "stdin"])
    @pytest.mark.parametrize("bad", [
        b"0.005,31.0,0.1,\xff\xfe,0.1,0.2,0.1",  # not UTF-8
        b"0.005,31.0,0.1," + b"9" * 200_000 + b",0.1,0.2,0.1",  # > csv field limit
    ], ids=["undecodable", "oversized"])
    def test_unreadable_line_is_skipped(self, fmg_model, quiet_knee_dir,
                                        tmp_path, via, bad):
        # Both once ended the stream in a traceback (exit 1).
        data = (b"0.000,30.0,0.1,0.2,0.1,0.2,0.1\n" + bad
                + b"\n0.010,31.0,0.1,0.2,0.1,0.2,0.1\n")
        argv = ["stream", "--model", str(fmg_model),
                "--session", str(quiet_knee_dir)]
        if via == "--in":
            infile = tmp_path / "rows.csv"
            infile.write_bytes(data)
            argv += ["--in", str(infile)]
        # Strict UTF-8 stdin, as under a UTF-8 locale; under the C locale
        # Python would read it with surrogateescape.
        proc = subprocess.run(
            [sys.executable, "-m", "myotorque.cli", *argv],
            input=None if via == "--in" else data, capture_output=True,
            env={**os.environ, "PYTHONIOENCODING": "utf-8"},
        )
        assert proc.returncode == 0
        rows = [l for l in proc.stdout.decode().splitlines()
                if not l.startswith("#")]
        assert [r.split(",")[0] for r in rows] == ["0.000000", "0.010000"]
        skip, summary = proc.stderr.decode().splitlines()
        assert skip.startswith("stream: skipping line 2: ")
        assert summary.startswith("stream: processed 2 rows, skipped 1, tick p50")

    def test_closed_stdin_is_2(self, fmg_model):
        # With stdin closed (`<&-`), sys.stdin is None; reading it was an
        # AttributeError traceback (exit 1).
        proc = subprocess.run(
            [sys.executable, "-m", "myotorque.cli", "stream", "--model", str(fmg_model)],
            capture_output=True, text=True, stdin=None, preexec_fn=lambda: os.close(0),
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            "myotorque: data error: no input: stdin is closed and --in is not given"
        ]

    def test_huge_fmg_value_prints_only_the_skip_note(self, fmg_model,
                                                     quiet_knee_dir, tmp_path):
        # Normalizing 1.7e308 overflows to inf; numpy's RuntimeWarning and
        # its source line used to precede the skip note on stderr.
        infile = tmp_path / "rows.csv"
        infile.write_text(
            "0.000,30.0,0.1,0.2,0.1,0.2,0.1\n"
            "0.005,31.0,0.1,0.2,1.7e308,0.2,0.1\n"
            "0.010,31.0,0.1,0.2,0.1,0.2,0.1\n"
        )
        proc = run_cli(*stream_args(fmg_model, quiet_knee_dir, infile))
        assert proc.returncode == 0
        skip, summary = proc.stderr.splitlines()
        assert skip == "stream: skipping line 2: query points must be finite"
        assert summary.startswith("stream: processed 2 rows, skipped 1, tick p50")

    def test_nan_calibration_cell_is_2(self, fmg_model, quiet_knee_dir,
                                       tmp_path, capsys):
        broken = with_nan_cell(quiet_knee_dir, tmp_path, "calibration_standing.csv")
        infile = tmp_path / "rows.csv"
        infile.write_text("0.0,30.0,0.1,0.2,0.1,0.2,0.1\n")
        code = main(stream_args(fmg_model, broken, infile))
        assert code == 2
        captured = capsys.readouterr()
        assert "calibration_standing.csv" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_missing_input_file_is_2(self, fmg_model, quiet_knee_dir, tmp_path):
        # Once a FileNotFoundError traceback (exit 1).
        proc = run_cli(*stream_args(fmg_model, quiet_knee_dir, tmp_path / "nope.csv"))
        assert proc.returncode == 2
        (line,) = proc.stderr.splitlines()
        assert "cannot read" in line and "nope.csv" in line

    def test_empty_input_is_silent_success(self, fmg_model, quiet_knee_dir,
                                           tmp_path, capsys):
        infile = tmp_path / "empty.csv"
        infile.write_text("")
        code = main(stream_args(fmg_model, quiet_knee_dir, infile))
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ""

    def test_summary_reports_tick_latency(self, fmg_model, quiet_knee_dir,
                                          tmp_path, capsys):
        infile = tmp_path / "rows.csv"
        infile.write_text("".join(
            f"{i / 200.0},{30.0 + i},0.1,0.2,0.1,0.2,0.1\n" for i in range(5)
        ) + "0.025,oops,0.1,0.2,0.1,0.2,0.1\n")
        assert main(stream_args(fmg_model, quiet_knee_dir, infile)) == 0
        summary = capsys.readouterr().err.splitlines()[-1]
        match = re.fullmatch(
            r"stream: processed 5 rows, skipped 1, "
            r"tick p50 (\d+\.\d{3}) ms, p99 (\d+\.\d{3}) ms",
            summary,
        )
        assert match, summary
        p50, p99 = float(match[1]), float(match[2])
        assert 0.0 < p50 <= p99

    def test_summary_without_processed_rows_has_no_latency(
            self, fmg_model, quiet_knee_dir, tmp_path, capsys):
        infile = tmp_path / "rows.csv"
        infile.write_text("0.0,nan,0.1,0.2,0.1,0.2,0.1\n")
        assert main(stream_args(fmg_model, quiet_knee_dir, infile)) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            "stream: processed 0 rows, skipped 1"
        )


def with_fields(model_path, tmp_path, tag, **fields):
    """A copy of a saved model file with some fields replaced."""
    with np.load(model_path) as data:
        arrays = dict(data)
    arrays.update(fields)
    broken = tmp_path / f"{tag}.npz"
    np.savez(broken, **arrays)
    return broken


def with_nan_in_model(model_path, tmp_path, array):
    """A copy of a saved model whose ``array`` holds one NaN."""
    with np.load(model_path) as data:
        arr = data[array].copy()
    arr.flat[arr.size // 2] = np.nan
    return with_fields(model_path, tmp_path, f"nan_{array}", **{array: arr})


def model_argv(command, model, session, tmp_path):
    """``predict`` or ``stream`` (one knee FMG row) with ``model``."""
    if command == "stream":
        infile = tmp_path / "rows.csv"
        infile.write_text("0.0,30.0,0.1,0.2,0.1,0.2,0.1\n")
        return stream_args(model, session, infile)
    return ["predict", "--model", str(model), "--session", str(session)]


def run_on_model(command, model, session, tmp_path):
    """:func:`model_argv` in a fresh interpreter."""
    return run_cli(*model_argv(command, model, session, tmp_path))


def assert_one_line_data_error(proc, *fragments):
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert "data error" in lines[0]
    for fragment in fragments:
        assert fragment in lines[0]
    assert proc.stdout == ""


def main_data_error(capsys, argv) -> str:
    """The one stderr line of ``main(argv)``, which must exit 2 and print
    nothing on stdout; in-process, so an escaping exception fails the test."""
    assert main([str(a) for a in argv]) == 2
    out, err = capsys.readouterr()
    (line,) = err.splitlines()
    assert "data error" in line and out == ""
    return line


@pytest.mark.parametrize("command", ["stream", "predict"])
@pytest.mark.parametrize("array", ["inputs", "targets"])
def test_non_finite_model_array_is_2(fmg_model, quiet_knee_dir, tmp_path,
                                     command, array):
    # A NaN anywhere in the model is caught at load, not mid-stream in
    # scipy (a traceback) or in the output (nan torques).
    broken = with_nan_in_model(fmg_model, tmp_path, array)
    proc = run_on_model(command, broken, quiet_knee_dir, tmp_path)
    assert_one_line_data_error(proc, array)


@pytest.mark.parametrize("command", ["stream", "predict"])
def test_huge_model_input_is_one_line_2(fmg_model, quiet_knee_dir, tmp_path,
                                        command):
    # 1e200 is finite, so the file loads, but its square overflows in the
    # refit's distances; numpy's overflow warnings once preceded the error.
    with np.load(fmg_model) as data:
        inputs = data["inputs"].copy()
    inputs[inputs.shape[0] // 2, 0] = 1e200
    broken = with_fields(fmg_model, tmp_path, "huge_inputs", inputs=inputs)
    proc = run_on_model(command, broken, quiet_knee_dir, tmp_path)
    assert_one_line_data_error(proc, "refit failed")


@pytest.mark.parametrize("command", ["stream", "predict"])
@pytest.mark.parametrize("field", ["target_mean", "sample_rate_hz", "column_means"])
def test_huge_integer_in_model_metadata_is_2(fmg_model, quiet_knee_dir, tmp_path,
                                             capsys, command, field):
    model, meta = load_model(fmg_model)
    if field == "column_means":
        meta[field][0] = HUGE
    else:
        meta[field] = HUGE
    broken = tmp_path / "huge.npz"
    save_model(model, broken, meta)
    argv = model_argv(command, broken, quiet_knee_dir, tmp_path)
    assert "bad model metadata" in main_data_error(capsys, argv)


def damaged_model(model_path, tmp_path, damage):
    """A copy of a saved model file with one kind of damage."""
    broken = tmp_path / f"{damage.replace(' ', '_')}.npz"
    if damage in ("not a zip", "truncated"):
        data = model_path.read_bytes()
        broken.write_bytes(
            b"PK\x03\x04garbage" if damage == "not a zip" else data[: len(data) // 2]
        )
        return broken
    name, value = {
        "0-d hyper": ("hyper", np.float64(1.0)),
        "array format_version": ("format_version", np.array([1, 1])),
        "array jitter": ("jitter", np.zeros(2)),
    }[damage]
    return with_fields(model_path, tmp_path, damage.replace(" ", "_"), **{name: value})


@pytest.mark.parametrize("command", ["stream", "predict"])
@pytest.mark.parametrize("damage", [
    "not a zip", "truncated", "0-d hyper", "array format_version",
    "array jitter",
])
def test_damaged_model_file_is_2(fmg_model, quiet_knee_dir, tmp_path,
                                 command, damage):
    broken = damaged_model(fmg_model, tmp_path, damage)
    proc = run_on_model(command, broken, quiet_knee_dir, tmp_path)
    assert_one_line_data_error(proc, str(broken))


@pytest.mark.parametrize("command", ["stream", "predict"])
@pytest.mark.parametrize("index, value", [(0, 1e200), (1, 1e-200)],
                         ids=["output scale 1e200", "length scale 1e-200"])
def test_hyperparameter_outside_search_box_is_2(fmg_model, quiet_knee_dir,
                                                tmp_path, command, index, value):
    # These once gave an OverflowError traceback in predict and NaN
    # torques with a RuntimeWarning.
    with np.load(fmg_model) as data:
        hyper = data["hyper"].copy()
    hyper[index] = value
    broken = with_fields(fmg_model, tmp_path, "hyper", hyper=hyper)
    proc = run_on_model(command, broken, quiet_knee_dir, tmp_path)
    assert_one_line_data_error(proc, "outside the search box")


@pytest.mark.parametrize("command", ["stream", "predict"])
def test_version_1_model_file_is_2(fmg_model, quiet_knee_dir, tmp_path, command):
    model, _ = load_model(fmg_model)
    broken = with_fields(
        fmg_model, tmp_path, "v1", format_version=np.int64(1),
        cholesky_lower=model.cholesky_lower, weights=model.weights,
        log_marginal=np.float64(model.log_marginal),
    )
    proc = run_on_model(command, broken, quiet_knee_dir, tmp_path)
    assert_one_line_data_error(proc, "format version 1", "retrain")


def test_jitter_mismatch_is_2(fmg_model, quiet_knee_dir, tmp_path):
    broken = with_fields(fmg_model, tmp_path, "jitter", jitter=np.float64(1e-6))
    proc = run_on_model("predict", broken, quiet_knee_dir, tmp_path)
    assert_one_line_data_error(proc, "jitter")


@pytest.mark.parametrize("error, fragment", [
    (NotPositiveDefinite("covariance matrix is not positive definite"),
     "refit failed"),
    (MemoryError(), "not enough memory to refit its {n} rows"),
])
def test_failed_refit_is_2(fmg_model, quiet_knee_dir, monkeypatch, capsys,
                           error, fragment):
    # A saved model that cannot be rebuilt is a bad file: exit 2, not the
    # numerical failure's 3.
    n_rows = load_model(fmg_model)[0].n_train

    def fail(*args):
        raise error

    monkeypatch.setattr(gpr, "gram_matrix", fail)
    code = main(["predict", "--model", str(fmg_model),
                 "--session", str(quiet_knee_dir)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert fragment.format(n=n_rows) in line


KNEE_STREAM_COLUMNS = [
    "time_s", "angle_deg", *(fmg_channel(m) for m in muscles_for(Joint.KNEE))
]
_NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-90.0, 90.0).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "NaN", "1e400"]),
)
_CELL = st.one_of(
    _NUMBER, st.just(""), st.text(alphabet="abxyz .+-e_", max_size=5)
)
# Well-formed ticks, rows of hostile cells, and short or over-long rows.
_LINE = st.one_of(
    st.lists(st.floats(-90.0, 90.0).map(repr), min_size=7, max_size=7),
    st.lists(_CELL, min_size=7, max_size=7),
    st.lists(_CELL, min_size=1, max_size=12),
).map(",".join)


@st.composite
def stream_inputs(draw):
    """Lines of a stream input: a header of the knee columns in any order,
    or none, in which case the first line is numeric (a non-numeric first
    line would be read as a header)."""
    lines = []
    if draw(st.booleans()):
        lines.append(",".join(draw(st.permutations(KNEE_STREAM_COLUMNS))))
        data_from = 1
    else:
        lines.append(",".join(draw(st.lists(_NUMBER, min_size=1, max_size=12))))
        data_from = 0
    lines += draw(st.lists(_LINE, max_size=25))
    return lines, data_from


@settings(max_examples=40, deadline=None)
@given(stream_inputs())
# A huge finite angle overflows the derived features to inf or nan; the
# model's one-row query must reject them as data, not die in scipy.
@example(([
    "0.0,30.0,0.1,0.2,0.1,0.2,0.1",
    "0.005,1.7e308,0.1,0.2,0.1,0.2,0.1",
    "0.010,31.0,0.1,0.2,0.1,0.2,0.1",
], 0))
def test_stream_survives_fuzzed_rows(fmg_model, quiet_knee_dir, case):
    lines, data_from = case
    out, err = io.StringIO(), io.StringIO()
    stdin = io.TextIOWrapper(io.BytesIO(("\n".join(lines) + "\n").encode()),
                             encoding="utf-8")
    with mock.patch.object(sys, "stdin", stdin), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([
            "stream", "--model", str(fmg_model),
            "--session", str(quiet_knee_dir),
        ])
    assert code == 0
    assert "Traceback" not in err.getvalue()
    counts = re.search(r"processed (\d+) rows, skipped (\d+)", err.getvalue())
    handled = int(counts[1]) + int(counts[2]) if counts else 0
    assert handled == sum(1 for line in lines[data_from:] if line)


INDEX_KEYS = ["format_version", "joint", "high_rate_hz", "fmg_rate_hz",
              "standing_file", "initial_angle_file", "takes"]
TAKE_KEYS = ["velocity_deg_s", "take_index", "high_rate_file", "fmg_file"]
SESSION_CSVS = ["take_v060_t0_hi.csv", "take_v060_t0_fmg.csv",
                "calibration_standing.csv", "calibration_angle.csv"]
_JSON_VALUE = st.sampled_from([None, True, 5, -1.5, "x", "nowhere.csv", [], {}])
# One kind of damage to a session directory: a session.json edit (a key
# set to a wrong value, a key dropped, a field of the first take entry
# set, or the whole index replaced by a version-1 one), one CSV truncated
# or garbled at seeded positions, or one CSV's last header label made
# longer than csv's field limit.
_SESSION_DAMAGE = st.one_of(
    st.tuples(st.just("set"), st.sampled_from(INDEX_KEYS), _JSON_VALUE),
    st.tuples(st.just("set"), st.sampled_from(["high_rate_hz", "fmg_rate_hz"]),
              st.sampled_from([0, -200.0, float("nan"), float("inf")])),
    st.tuples(st.just("set"), st.just("joint"), st.sampled_from(["elbow", "ankle"])),
    st.tuples(st.just("set"), st.just("takes"), st.just([])),
    st.tuples(st.just("drop"), st.sampled_from(INDEX_KEYS)),
    st.tuples(st.just("take"), st.sampled_from(TAKE_KEYS), _JSON_VALUE),
    st.just(("v1",)),
    st.tuples(st.sampled_from(["truncate", "garble"]),
              st.sampled_from(SESSION_CSVS), st.integers(0, 2**32 - 1)),
    st.tuples(st.just("wide header"), st.sampled_from(SESSION_CSVS)),
)


def damaged_session(src, dst, damage):
    """A copy of session directory ``src`` at ``dst`` with one damage."""
    dst.mkdir()
    for p in src.iterdir():
        (dst / p.name).write_bytes(p.read_bytes())
    kind = damage[0]
    if kind in ("truncate", "garble"):
        path, rng = dst / damage[1], np.random.default_rng(damage[2])
        data = bytearray(path.read_bytes())
        if kind == "truncate":
            del data[rng.integers(len(data)):]
        else:
            for pos in rng.integers(len(data), size=8):
                data[pos] = rng.choice(list(b"0123456789e-.,\n\xff"))
        path.write_bytes(bytes(data))
        return dst
    if kind == "wide header":
        path = dst / damage[1]
        header, body = path.read_bytes().split(b"\r\n", 1)
        path.write_bytes(header + b"x" * 200_000 + b"\r\n" + body)
        return dst
    index = json.loads((dst / "session.json").read_text())
    if kind == "set":
        index[damage[1]] = damage[2]
    elif kind == "drop":
        del index[damage[1]]
    elif kind == "take":
        index["takes"][0][damage[1]] = damage[2]
    else:  # the version-1 layout: per-take manifests listed by name
        index = {"format_version": 1, "joint": index["joint"],
                 "spec": index["spec"],
                 "takes": ["take_v060_t0.json", "take_v060_t1.json"]}
    (dst / "session.json").write_text(json.dumps(index))
    return dst


@settings(max_examples=30, deadline=None)
@given(_SESSION_DAMAGE)
# A negative rate once died in TimeSeries with a ValueError traceback.
@example(("set", "high_rate_hz", -2000.0))
@example(("wide header", "take_v060_t0_fmg.csv"))
def test_damaged_session_exits_0_2_or_3(fmg_model, quiet_knee_dir, damage):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        session = damaged_session(quiet_knee_dir, tmp / "session", damage)
        rows = tmp / "rows.csv"
        rows.write_text("0.0,30.0,0.1,0.2,0.1,0.2,0.1\n")
        for argv in (
            ["train", "--session", session, "--config", "fmg", "--cap", "50",
             "--out", tmp / "m.npz"],
            ["predict", "--model", fmg_model, "--session", session,
             "--out", tmp / "pred.csv"],
            stream_args(fmg_model, session, rows),
        ):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([str(a) for a in argv])
            assert code in (0, 2, 3), (argv[0], code, err.getvalue())
            assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("command", ["train", "predict", "stream"])
@pytest.mark.parametrize("damage", [
    ("set", "high_rate_hz", HUGE),
    ("set", "fmg_rate_hz", HUGE),
    ("take", "velocity_deg_s", HUGE),
], ids=["high_rate_hz", "fmg_rate_hz", "velocity_deg_s"])
def test_huge_integer_in_session_index_is_2(fmg_model, quiet_knee_dir, tmp_path,
                                            capsys, command, damage):
    session = damaged_session(quiet_knee_dir, tmp_path / "session", damage)
    if command == "train":
        argv = ["train", "--session", session, "--config", "fmg", "--cap", "50",
                "--out", tmp_path / "m.npz"]
    else:
        argv = model_argv(command, fmg_model, session, tmp_path)
    line = main_data_error(capsys, argv)
    assert damage[1] in line and "too large for a float" in line


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "myotorque.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    for word in ("simulate", "evaluate", "train", "predict", "stream"):
        assert word in proc.stdout
