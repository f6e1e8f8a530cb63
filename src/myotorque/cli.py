"""Command-line interface.

Subcommands:

* ``simulate``  write a synthetic session to a directory
* ``evaluate``  cross-validate the estimator and export metrics/CSVs
* ``train``     fit a model on a whole session and save it
* ``predict``   batch-predict torque for one take of a session
* ``stream``    causal sample-by-sample prediction from CSV rows

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

from .errors import DataError, InvalidSpec, NumericalError
from .evaluate import (
    DEFAULT_FOLDS,
    DEFAULT_TRAIN_CAP,
    TakeTables,
    estimate_table,
    evaluate_with_exports,
    load_estimator,
    save_estimator,
    train_model,
)
from .gpr import GpOptions
from .preprocess import (
    Joint,
    ModelConfig,
    build_features,
    compute_calibration,
    concat_tables,
    fmg_channel,
)
from .recordings import (
    load_calibration,
    load_session,
    load_take,
    read_session_index,
    write_float_table,
    write_session,
)
from .streaming import StreamingPredictor
from .synthgen import SessionSpec, default_session_spec, generate_session


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this CLI reserves 2 for data errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


class _OutputError(Exception):
    """An ``--out`` path that cannot be written: a usage error (exit 1)."""


@contextmanager
def _writing(path):
    """Report a failure to create or write ``path`` (its directory missing,
    a file where a directory is wanted, no permission) as an
    :class:`_OutputError` naming it."""
    try:
        yield
    except OSError as exc:
        raise _OutputError(f"cannot write {path}: {exc.strerror or exc}") from None


def _int_at_least(low: int):
    """An argparse type: an integer >= ``low``, else a usage error (exit 1)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def _gp_options(args) -> GpOptions:
    free = args.fix_scales == "false"
    return GpOptions(
        seed=args.seed,
        optimize_output_scale=free,
        optimize_length_scale=free,
    )


def _parse_configs(text: str) -> list[ModelConfig]:
    if text == "all":
        return [ModelConfig.BASELINE, ModelConfig.EMG, ModelConfig.FMG]
    configs = []
    for part in text.split(","):
        part = part.strip()
        try:
            configs.append(ModelConfig(part))
        except ValueError:
            raise DataError(
                f"unknown config {part!r}; choose from baseline, emg, fmg, all"
            ) from None
    return configs


def _check_joint(recorded: Joint, joint: Joint, session_dir) -> None:
    if recorded is not joint:
        raise DataError(
            f"session at {session_dir} records the "
            f"{recorded.value}, not the {joint.value}"
        )


def _load_or_synthesize(args, configs, joint: Joint | None = None):
    """The --session directory, read for ``configs`` and checked against
    ``joint`` when one is given, or else the default synthetic session of
    ``joint``."""
    if args.session:
        session = load_session(args.session, configs)
        if joint is not None:
            _check_joint(session.joint, joint, args.session)
        return session
    if joint is None:
        raise DataError("without --session, --joint is required")
    return generate_session(default_session_spec(joint))


def _pick_take(takes, velocity: float | None, index: int):
    """The first take, in session order, with this index (and velocity)."""
    if velocity is not None:
        takes = [t for t in takes if t.velocity_deg_s == velocity]
        if not takes:
            raise DataError(f"session has no take at {velocity} deg/s")
    for take in takes:
        if take.take_index == index:
            return take
    raise DataError(f"no take with index {index}")


def _session_cells(session, configs) -> dict:
    """Per-take feature tables for every requested config of one session."""
    calib = compute_calibration(session.standing, session.initial_angle)
    joint = session.joint
    cells = {}
    for config in configs:
        per_take = [
            build_features(take.recording, joint, config, calib)
            for take in session.takes
        ]
        cells[(joint, config)] = TakeTables(
            joint=joint,
            config=config,
            velocities=[t.velocity_deg_s for t in session.takes],
            tables=per_take,
        )
    return cells


def cmd_simulate(args) -> int:
    if args.spec:
        try:
            spec = SessionSpec.from_dict(json.loads(Path(args.spec).read_text()))
        except (OSError, ValueError, RecursionError, InvalidSpec) as exc:
            raise DataError(f"cannot load session spec {args.spec}: {exc}") from exc
    else:
        spec = default_session_spec(Joint(args.joint))
    if args.seed is not None:
        spec = SessionSpec.from_dict({**spec.to_dict(), "seed": args.seed})
    session = generate_session(spec)
    with _writing(args.out):
        out = write_session(session, args.out)
    print(f"wrote {len(session.takes)} takes ({spec.joint.value}) to {out}")
    return 0


def cmd_evaluate(args) -> int:
    joints = (
        [Joint.ANKLE, Joint.KNEE] if args.joint == "both" else [Joint(args.joint)]
    )
    if args.session and len(joints) > 1:
        raise DataError("a session directory holds one joint; pass --joint")
    configs = _parse_configs(args.config)
    cells = {}
    for joint in joints:
        session = _load_or_synthesize(args, configs, joint)
        cells.update(_session_cells(session, configs))
    # The export directory is made before the first fold runs.
    with _writing(args.out):
        report = evaluate_with_exports(
            cells,
            args.out,
            n_folds=args.folds,
            seed=args.seed,
            options=_gp_options(args),
            train_cap=args.cap,
        )
    sys.stdout.write(estimate_table(report))
    print(f"exports written to {Path(args.out)}")
    return 0


def cmd_train(args) -> int:
    config = ModelConfig(args.config)
    session = _load_or_synthesize(
        args, [config], Joint(args.joint) if args.joint else None
    )
    cell = _session_cells(session, [config])[(session.joint, config)]
    table = concat_tables(cell.tables)
    estimator = train_model(
        table, options=_gp_options(args), train_cap=args.cap, seed=args.seed
    )
    with _writing(args.out):
        save_estimator(estimator, args.out)
    print(
        f"trained {session.joint.value}/{config.value} on "
        f"{estimator.model.n_train} rows "
        f"(noise variance {estimator.model.hyper.noise_variance:.4g}); "
        f"saved to {args.out}"
    )
    return 0


def cmd_predict(args) -> int:
    estimator = load_estimator(args.model)
    if args.session:
        # Read only the scored take's data and the calibration files.
        index = read_session_index(args.session)
        _check_joint(index.joint, estimator.joint, args.session)
        entry = _pick_take(index.takes, args.velocity, args.take)
        take = load_take(index, entry, [estimator.config])
        standing, initial_angle = load_calibration(index)
    else:
        session = generate_session(default_session_spec(estimator.joint))
        take = _pick_take(session.takes, args.velocity, args.take)
        standing, initial_angle = session.standing, session.initial_angle
    calib = compute_calibration(standing, initial_angle)
    table = build_features(
        take.recording, estimator.joint, estimator.config, calib
    )
    mean, std = estimator.predict_torque(table.rows)

    if args.out:
        with _writing(args.out):
            out = open(args.out, "w", newline="")
    else:
        out = sys.stdout
    try:
        write_float_table(
            out,
            ["time_s", "true_torque_nm", "predicted_torque_nm", "predicted_std_nm"],
            [table.times_s, table.targets, mean, std],
        )
    finally:
        if args.out:
            out.close()
    if args.out:
        print(f"predictions written to {args.out}")
    return 0


_STREAM_HEADER = (
    "# causal mode: zero-phase filtering is impossible sample by sample, so the\n"
    "# angle is smoothed with a causal one-pass filter and velocity is a\n"
    "# backward difference; estimates lag offline results by the filter delay.\n"
    "# time_s,torque_nm,torque_std_nm"
)


def _stream_columns(header: list[str] | None, muscles) -> tuple[int | None, int, list[int]]:
    """Column indices (time, angle, per-muscle FMG) of the input lines.

    With a header, columns are found by name. Headerless input uses the
    fixed order: time_s, angle_deg, then the model's muscles.
    """
    if header is None:
        return 0, 1, list(range(2, 2 + len(muscles)))
    try:
        angle_col = header.index("angle_deg")
    except ValueError:
        raise DataError("stream input needs an 'angle_deg' column") from None
    time_col = header.index("time_s") if "time_s" in header else None
    fmg_cols = []
    for m in muscles:
        label = fmg_channel(m)
        if label not in header:
            raise DataError(f"stream input lacks column {label!r}")
        fmg_cols.append(header.index(label))
    return time_col, angle_col, fmg_cols


def _csv_rows(fh):
    """The rows of ``fh`` as :mod:`csv` splits them. A line csv rejects (a
    cell over its field limit) comes as the :class:`csv.Error`; reading
    goes on at the next line."""
    reader = csv.reader(fh)
    while True:
        try:
            yield next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            yield exc


def cmd_stream(args) -> int:
    estimator = load_estimator(args.model)
    calibration = None
    if args.session:
        index = read_session_index(args.session)
        _check_joint(index.joint, estimator.joint, args.session)
        calibration = compute_calibration(*load_calibration(index))
    predictor = StreamingPredictor(estimator, calibration)

    muscles = predictor.muscles
    # Bytes that do not decode become U+FFFD, so their line fails to parse
    # and is skipped like any other malformed line.
    if args.infile:
        try:
            fh = open(args.infile, newline="", errors="replace")
        except OSError as exc:
            raise DataError(f"cannot read {args.infile}: {exc.strerror or exc}") from None
    elif sys.stdin is None:  # started with stdin closed
        raise DataError("no input: stdin is closed and --in is not given")
    else:
        fh = sys.stdin
        fh.reconfigure(errors="replace")
    header_written = False
    skipped = 0
    tick_s = []  # wall time of each successful predictor.push

    def skip(lineno, exc):
        nonlocal skipped
        print(f"stream: skipping line {lineno}: {exc}", file=sys.stderr)
        skipped += 1

    try:
        rows = _csv_rows(fh)
        first = next(rows, None)
        if first is None:
            return 0
        header = None
        if isinstance(first, list):
            first = [cell.strip() for cell in first]
            try:
                [float(cell) for cell in first]
            except ValueError:
                header = first
        pending = [first] if header is None else []
        time_col, angle_col, fmg_cols = _stream_columns(header, muscles)

        for lineno, row in enumerate(
            itertools.chain(pending, rows), start=1 if header is None else 2
        ):
            if isinstance(row, csv.Error):
                skip(lineno, row)
                continue
            if not row:
                continue
            try:
                angle = float(row[angle_col])
                fmg_values = tuple(float(row[j]) for j in fmg_cols)
                time_s = float(row[time_col]) if time_col is not None else None
            except (ValueError, IndexError) as exc:
                skip(lineno, exc)
                continue
            start = perf_counter()
            try:
                sample = predictor.push(angle, fmg_values, time_s)
            except DataError as exc:
                skip(lineno, exc)
                continue
            tick_s.append(perf_counter() - start)
            if not header_written:
                print(_STREAM_HEADER)
                header_written = True
            print(
                f"{sample.time_s:.6f},{sample.torque_nm:.6f},"
                f"{sample.torque_std_nm:.6f}"
            )
    finally:
        if args.infile:
            fh.close()
    if tick_s or skipped:
        summary = f"stream: processed {len(tick_s)} rows, skipped {skipped}"
        if tick_s:
            p50, p99 = np.percentile(tick_s, [50, 99]) * 1e3
            summary += f", tick p50 {p50:.3f} ms, p99 {p99:.3f} ms"
        print(summary, file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="myotorque",
        description="Joint torque estimation from kinematics and muscle signals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, folds=False):
        p.add_argument("--seed", type=_int_at_least(0), default=0, help="random seed")
        p.add_argument(
            "--cap",
            type=_int_at_least(1),
            default=DEFAULT_TRAIN_CAP,
            help="max training rows per fit (even subsample)",
        )
        p.add_argument(
            "--fix-scales",
            choices=["true", "false"],
            default="true",
            help="keep kernel scales at 1 and tune only the noise",
        )
        if folds:
            p.add_argument(
                "--folds", type=_int_at_least(2), default=DEFAULT_FOLDS,
                help="CV folds"
            )

    p = sub.add_parser("simulate", help="generate a synthetic session")
    p.add_argument("--joint", choices=["ankle", "knee"], default="knee")
    p.add_argument("--spec", help="JSON file overriding the default session spec")
    p.add_argument("--seed", type=_int_at_least(0), default=None,
                   help="override the spec seed")
    p.add_argument("--out", required=True, help="output session directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("evaluate", help="cross-validate and export metrics")
    p.add_argument("--session", help="session directory (default: synthetic)")
    p.add_argument("--joint", choices=["ankle", "knee", "both"], default="both")
    p.add_argument(
        "--config", default="all", help="comma list of baseline,emg,fmg or 'all'"
    )
    p.add_argument("--out", default="results", help="export directory")
    common(p, folds=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("train", help="fit a model on a full session and save it")
    p.add_argument("--session", help="session directory (default: synthetic)")
    p.add_argument("--joint", choices=["ankle", "knee"])
    p.add_argument(
        "--config", choices=["baseline", "emg", "fmg"], required=True
    )
    p.add_argument("--out", required=True, help="model file (.npz)")
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="batch-predict torque for one take")
    p.add_argument("--model", required=True, help="saved model file")
    p.add_argument("--session", help="session directory (default: synthetic)")
    p.add_argument("--velocity", type=float, help="protocol velocity of the take")
    p.add_argument("--take", type=int, default=0, help="take index")
    p.add_argument("--out", help="output CSV (default: stdout)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("stream", help="causal prediction from CSV rows")
    p.add_argument("--model", required=True, help="saved model file")
    p.add_argument(
        "--session", help="session directory supplying calibration offsets"
    )
    p.add_argument(
        "--in", dest="infile", help="input CSV (default: stdin)"
    )
    p.set_defaults(func=cmd_stream)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code else 0
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0
    except _OutputError as exc:
        print(f"myotorque: error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"myotorque: data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"myotorque: numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
