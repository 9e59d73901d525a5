"""Command-line entry point.

Three modes: ``simulate`` runs a scenario through the full pipeline and
writes field-style report artifacts; ``replay`` pushes a recorded detection
log through the tracker + flow check at data time; ``report`` re-renders the
summary from previously written artifacts.

Exit codes: 0 success, 2 invalid input/config or a path that cannot be
opened, 3 internal invariant violation. ``ROADWATCH_LOG_LEVEL`` controls
diagnostics verbosity.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time
from contextlib import closing, nullcontext
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .detection import FrameDetections, detection_records, parse_detection_log
from .errors import ConfigError, RoadwatchError
from .simulation import (
    DIRECTIONS,
    SimulationReport,
    drive,
    generate_passes,
    histogram_csv,
    load_report,
    load_scenario,
    run_passes,
    summary_text,
    write_report,
)
from .tracking import TrackerConfig, VehicleTracker
from .warning import FlowCheckMonitor, StdoutDevice, UdpDevice

log = logging.getLogger("roadwatch")

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INTERNAL = 3

DEFAULT_OUT_DIR = "roadwatch-out"
# a paced replay's longest sleep: time.sleep overflows near 9.3e9 s, and a log's gap may be 1e300 s
MAX_SLEEP_S = 86400.0


def open_device(spec: str):
    """Build a device channel from 'stdout' or 'udp:<host>:<port>'."""
    if spec == "stdout":
        return StdoutDevice()
    if spec.startswith("udp:"):
        try:
            _, host, port_text = spec.split(":")
            port = int(port_text)
        except ValueError as exc:
            raise ConfigError(f"bad device spec {spec!r} (want udp:<host>:<port>)") from exc
        if not 1 <= port <= 65535:
            raise ConfigError(f"bad device spec {spec!r}: port must be 1-65535")
        return UdpDevice(host, port)
    raise ConfigError(f"unknown device {spec!r} (want stdout or udp:<host>:<port>)")


def _tracker_config(args) -> TrackerConfig:
    """The default tracker config with the tracker flags given on the command line."""
    flags = {"gate_distance": args.gate, "confirm_hits": args.confirm_hits, "max_misses": args.max_misses}
    return TrackerConfig(**{k: v for k, v in flags.items() if v is not None})


def cmd_simulate(args) -> int:
    # every flag is checked, and the device opened, before --out or the dump is touched
    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        scenario.seed = args.seed
        scenario.validate()
    config = _tracker_config(args)
    with closing(open_device(args.device)) if args.device else nullcontext() as device:
        monitor = FlowCheckMonitor(t_duration=args.t_duration, start_time=0.0, device=device)
        # made before the first frame, so that an unusable --out loses no run
        Path(args.out).mkdir(parents=True, exist_ok=True)
        with (
            open(args.dump_detections, "w", encoding="utf-8", newline="")
            if args.dump_detections else nullcontext() as dump_sink
        ):
            rng = np.random.default_rng(scenario.seed)
            report = run_passes(generate_passes(scenario, rng), scenario, rng, monitor, config, dump_sink)
    write_report(report, args.out)
    log.info(
        "simulated %.0f s: %d events, %d warnings",
        scenario.duration,
        report.warnings_without_filter,
        report.warnings_with_filter,
    )
    sys.stdout.write(summary_text(report))
    return EXIT_OK


def _paced(frames: Iterable[FrameDetections]) -> Iterator[FrameDetections]:
    wall_start = time.monotonic()
    data_start = None
    for frame in frames:
        if data_start is None:
            data_start = frame.timestamp
        else:
            while (delay := (frame.timestamp - data_start) - (time.monotonic() - wall_start)) > 0:
                time.sleep(min(delay, MAX_SLEEP_S))
        yield frame


def cmd_replay(args) -> int:
    config = _tracker_config(args)
    trackers = {d: VehicleTracker(d, config) for d in DIRECTIONS}
    with (
        closing(open_device(args.device)) if args.device else nullcontext() as device,
        open(args.log, "rb") as source,
    ):
        monitor = FlowCheckMonitor(t_duration=args.t_duration, start_time=0.0, device=device)
        if source.seekable():
            # a bad line anywhere exits 2 before the first warning goes out;
            # a pipe cannot be read twice, so it is checked as it streams
            for _ in detection_records(source):
                pass
            source.seek(0)
        if args.out:
            Path(args.out).mkdir(parents=True, exist_ok=True)
        # closed here, so that a step that raises stops the parse helper at once: the
        # exception and its traceback form a cycle that keeps the parse alive until a collection
        with closing(parse_detection_log(source)) as frames:
            frame_count, last_t = drive(_paced(frames) if args.pace_realtime else frames, trackers, monitor)
    report = SimulationReport(last_t, args.t_duration, 0, monitor.audit, monitor.emit_failures, ground_truth=False)
    if args.out:
        write_report(report, args.out)
    sys.stdout.write(
        f"frames              {frame_count}\n"
        f"new_vehicle_events  {report.warnings_without_filter}\n"
        f"warnings            {report.warnings_with_filter}\n"
        f"emit_failures       {report.emit_failures}\n"
    )
    return EXIT_OK


def cmd_report(args) -> int:
    report = load_report(args.out)
    # refresh the exported CSV so external plotting always sees current data
    (Path(args.out) / "histogram.csv").write_text(histogram_csv(report), encoding="utf-8")
    sys.stdout.write(summary_text(report))
    return EXIT_OK


def _add_tracker_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--t-duration", type=float, default=10.0, help="flow-check quiet gap, seconds")
    parser.add_argument("--gate", type=float, default=None, help="assignment gate, pixels")
    parser.add_argument("--confirm-hits", type=int, default=None, help="hits to confirm a track")
    parser.add_argument("--max-misses", type=int, default=None, help="misses to drop a confirmed track")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roadwatch",
        description="Vehicle tracking and worker warnings for short-term roadwork sites.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)

    p_sim = sub.add_parser("simulate", help="run a traffic scenario through the pipeline")
    p_sim.add_argument("--scenario", required=True, help="scenario file or builtin name")
    p_sim.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    _add_tracker_flags(p_sim)
    p_sim.add_argument("--device", default=None, help="stdout or udp:<host>:<port>")
    p_sim.add_argument("--dump-detections", default=None, metavar="PATH", help="write the rendered detection log")
    p_sim.add_argument("--out", default=DEFAULT_OUT_DIR, help="report artifact directory")
    p_sim.set_defaults(func=cmd_simulate)

    p_rep = sub.add_parser("replay", help="replay a recorded detection log")
    p_rep.add_argument("--log", required=True, help="detection log path")
    _add_tracker_flags(p_rep)
    p_rep.add_argument("--device", default="stdout", help="stdout or udp:<host>:<port>")
    p_rep.add_argument("--out", default=None, help="write audit artifacts here")
    p_rep.add_argument("--pace-realtime", action="store_true", help="sleep to match data time")
    p_rep.set_defaults(func=cmd_replay)

    p_rpt = sub.add_parser("report", help="render the summary for existing artifacts")
    p_rpt.add_argument("--out", default=DEFAULT_OUT_DIR, help="artifact directory to read")
    p_rpt.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    # a level name gives its number; anything else, such as BASIC_FORMAT, gives a string
    level = logging.getLevelName(os.environ.get("ROADWATCH_LOG_LEVEL", "WARNING").upper())
    logging.basicConfig(level=level if isinstance(level, int) else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, RoadwatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # pragma: no cover - defensive
        log.exception("internal error")
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
