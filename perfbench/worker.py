"""Run one benchmark workload in this (fresh) process.

Started by run.py; prints one JSON object as its last stdout line. Set-up
is everything before ``ready``: importing roadwatch, loading the scenario
or opening the log, and building what the pipeline needs. With
``--setup-only`` the process stops there.

    python3 perfbench/worker.py --workload replay-day --seed 1 --seconds 10 \\
        --trace 0 --work perfbench/.work/run-1
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import roadwatch.cli  # noqa: E402,F401  (the CLI module imports every layer)
from roadwatch import detection, simulation, tracking, warning  # noqa: E402
from roadwatch.errors import RoadwatchError  # noqa: E402

import gen  # noqa: E402
import oracle  # noqa: E402
import tracer as tracing  # noqa: E402

T_DURATION = 10.0  # the CLI's default quiet gap


def drive_timed(frames, trackers, monitor):
    """Closed loop over frames: the next frame is taken when one returns.

    A frame's clock starts before it is taken from its source and stops
    when its events have passed the flow check (and any warning the
    device). Returns (per-frame ns, frames, failed frames).
    """
    clock = time.perf_counter_ns
    latencies = array("q")
    failed = 0
    source = iter(frames)
    while True:
        start = clock()
        try:
            frame = next(source)
        except StopIteration:
            break
        try:
            for event in trackers[frame.camera].step(frame):
                monitor.observe(event)
        except RoadwatchError as exc:
            failed += 1
            print(f"frame {frame.camera}/{frame.frame_index} failed: {exc}", file=sys.stderr)
        latencies.append(clock() - start)
    return latencies, len(latencies), failed


def audit_rows(monitor):
    return [(r.timestamp, r.camera, r.track_id, r.object_class, r.decision, r.gap) for r in monitor.audit]


def histories(trackers):
    return {
        (camera, track.track_id): (track.confirmed_at is not None, track.history)
        for camera, tracker in trackers.items()
        for track in tracker.archive.values()
    }


def read_lines(path):
    with open(path, encoding="utf-8") as f:
        return f.readlines()


class Pipeline:
    """Trackers, flow-check monitor and a file-backed device, as replay builds them."""

    def __init__(self, config, device_path):
        self.device_path = device_path
        self.device_file = open(device_path, "w", encoding="utf-8")
        self.trackers = {d: tracking.VehicleTracker(d, config) for d in simulation.DIRECTIONS}
        self.monitor = warning.FlowCheckMonitor(
            t_duration=T_DURATION, start_time=0.0, device=warning.StdoutDevice(self.device_file)
        )

    def close(self):
        self.device_file.close()


class PaperDay:
    """`simulate --scenario paper-day --seed 1 --dump-detections ... --out ...`."""

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.scenario = simulation.load_scenario("paper-day")
        self.scenario.seed = 1  # the headline run; the benchmark seed does not apply
        self.config = tracking.TrackerConfig.for_image_width(self.scenario.camera.image_width)
        self.rounds = 0
        self.open()

    def open(self):
        self.out = self.work / f"out-{self.rounds}"
        self.dump_path = self.work / f"dump-{self.rounds}.log"
        self.device_path = self.work / f"device-{self.rounds}.txt"
        self.device_file = open(self.device_path, "w", encoding="utf-8")
        self.device = warning.StdoutDevice(self.device_file)
        self.dump = open(self.dump_path, "w", encoding="utf-8", newline="")

    def run(self):
        start = time.perf_counter_ns()
        try:
            report = simulation.run_pipeline(
                self.scenario, tracker_config=self.config, t_duration=T_DURATION,
                device=self.device, dump_sink=self.dump,
            )
        finally:
            self.dump.close()
        simulation.write_report(report, self.out)
        (self.work / "stdout.txt").write_text(simulation.summary_text(report), encoding="utf-8")
        wall = time.perf_counter_ns() - start
        self.device_file.close()
        self.report = report
        self.rounds += 1
        with open(self.dump_path, "rb") as f:
            frames = sum(1 for _ in f)
        return wall, None, frames, 0

    def check(self):
        entries = [(e.timestamp, e.camera, e.track_id, e.object_class, e.decision, e.gap, e.vehicle_id)
                   for e in self.report.entries]
        rows = [e[:6] for e in entries]
        return (oracle.check_flow(rows, read_lines(self.device_path), T_DURATION)
                + oracle.check_paper_day(entries, self.out))

    def replay(self):
        """Criterion 8: replaying the dump must give the simulate trace exactly.

        Returns the replay's per-frame latencies, frame counts and problems.
        """
        pipe = Pipeline(self.config, self.work / "device-replay.txt")
        with open(self.dump_path, "rb") as source:
            latencies, frames, failed = drive_timed(
                detection.parse_detection_log(source), pipe.trackers, pipe.monitor)
        pipe.close()
        simulate_rows = [(e.timestamp, e.camera, e.track_id, e.object_class, e.decision, e.gap)
                         for e in self.report.entries]
        problems = []
        if audit_rows(pipe.monitor) != simulate_rows:
            problems.append("criterion 8: replayed decision trace differs from simulate's")
        if read_lines(pipe.device_path) != read_lines(self.device_path):
            problems.append("criterion 8: replayed device lines differ from simulate's")
        return latencies, frames, failed, problems


class ReplayDay:
    """`roadwatch replay --log <generated 8-hour log>` with a file device."""

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.log_path = work / "replay-day.log"
        self.rounds = 0
        self.open()

    def open(self):
        self.pipe = Pipeline(tracking.TrackerConfig(), self.work / f"device-{self.rounds}.txt")
        self.source = open(self.log_path, "rb")
        self.frames = detection.parse_detection_log(self.source)

    def run(self):
        start = time.perf_counter_ns()
        latencies, frames, failed = drive_timed(self.frames, self.pipe.trackers, self.pipe.monitor)
        wall = time.perf_counter_ns() - start
        self.source.close()
        self.pipe.close()
        self.rounds += 1
        self.frames_done = frames
        return wall, latencies, frames, failed

    def check(self):
        expected_frames, truth = gen.load_truth(self.work / "replay-day.truth.json")
        return self._check(gen.DAY_GRID, truth, expected_frames)

    def _check(self, grid, truth, expected_frames):
        problems = []
        if self.frames_done != expected_frames:
            problems.append(f"processed {self.frames_done} frames, generated {expected_frames}")
        rows = audit_rows(self.pipe.monitor)
        problems += oracle.check_flow(rows, read_lines(self.pipe.device_path), T_DURATION)
        problems += oracle.check_ground_truth(grid, truth, histories(self.pipe.trackers), rows)
        return problems


class Dense(ReplayDay):
    """Criterion-7 load from in-memory frames, for DENSE_SECONDS of data."""

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.config = tracking.TrackerConfig(confirm_hits=2, max_misses=gen.DENSE_MAX_MISSES)
        self.rounds = 0
        self.open()

    def prepare(self):
        raw, self.truth = gen.dense(self.seed)
        confs = {c: tuple(gen.BEST_CONF if c == o else gen.OTHER_CONF for o in gen.CLASSES)
                 for c in gen.CLASSES}
        self.input = [
            detection.FrameDetections(
                frame_index=k, timestamp=gen.tick_time(k), camera=camera,
                detections=[
                    detection.Detection(
                        frame_index=k, cx=cx, cy=cy, width=30.0, height=20.0,
                        objectness=gen.OBJECTNESS, class_confidences=confs[cls],
                        combined_score=gen.OBJECTNESS * gen.BEST_CONF, best_class=cls,
                    )
                    for cx, cy, cls in dets
                ],
            )
            for camera, k, dets in raw
        ]

    def open(self):
        self.pipe = Pipeline(self.config, self.work / f"device-{self.rounds}.txt")

    def run(self):
        start = time.perf_counter_ns()
        latencies, frames, failed = drive_timed(self.input, self.pipe.trackers, self.pipe.monitor)
        wall = time.perf_counter_ns() - start
        self.pipe.close()
        self.rounds += 1
        self.frames_done = frames
        return wall, latencies, frames, failed

    def check(self):
        return self._check(gen.DENSE_GRID, self.truth, len(self.input))


WORKLOADS = {"paper-day": PaperDay, "replay-day": ReplayDay, "dense": Dense}


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending sequence."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work", type=Path, required=True)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    args = parse_args(argv)
    work = args.work
    workload = WORKLOADS[args.workload](work, args.seed)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0
    if hasattr(workload, "prepare"):
        workload.prepare()

    # A timed invocation runs whole rounds for --seconds. A traced one runs
    # an untraced round, the overhead baseline, then a traced round.
    walls, latencies, problems = [], array("q"), []
    attempted = failed = 0
    tracer = tracing.Tracer() if args.trace else None
    started = time.monotonic()
    while True:
        traced = tracer is not None and workload.rounds == 1
        if workload.rounds:
            if traced:
                tracing.install(tracer, detection, simulation, tracking, warning)
            workload.open()
        try:
            wall, lat, frames, bad = workload.run()
        finally:
            if traced:
                tracer.uninstall()
        if traced and isinstance(workload, PaperDay):
            tracer.counts["detection.write_bytes"] = workload.dump_path.stat().st_size
        walls.append(wall)
        attempted += frames
        failed += bad
        if lat is not None:
            latencies.extend(lat)
        if workload.rounds == 1:
            if isinstance(workload, PaperDay):
                # criterion 8 once per invocation; its frames are the ones timed
                lat, frames, bad, replay_problems = workload.replay()
                latencies.extend(lat)
                attempted += frames
                failed += bad
                problems += replay_problems
            # the first round alone, so the peak does not depend on the round count
            rss = peak_rss_mb()
        problems += workload.check()
        if (workload.rounds == 2) if args.trace else (time.monotonic() - started >= args.seconds):
            break

    ordered = sorted(latencies)
    result = {
        "ready": ready,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "round_walls_s": [w / 1e9 for w in walls],
        "frames_timed": len(latencies),
        "frame_p50_us": percentile(ordered, 50) / 1e3,
        "versions": {"numpy": sys.modules["numpy"].__version__, "scipy": sys.modules["scipy"].__version__},
        "metrics": {
            "wall_s": (statistics.median(walls) / 1e9, "s"),
            "frame_p99_us": (percentile(ordered, 99) / 1e3, "us"),
            "peak_rss_mb": (rss, "MB"),
        },
    }
    if tracer is not None:
        layers = tracing.layer_metrics(tracer)
        layers["trace.untraced_wall_s"] = (walls[0] / 1e9, "s")
        layers["trace.traced_wall_s"] = (walls[1] / 1e9, "s")
        layers["trace.overhead_s"] = ((walls[1] - walls[0]) / 1e9, "s")
        spans_path = work.parent / f"spans-{args.workload}.tsv.gz"
        tracer.write(spans_path)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
        result["metrics"] = layers
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
