"""Spans and counts for the traced run, recorded from outside the program.

``install`` replaces public functions and two methods with timing wrappers
for one traced round, and ``uninstall`` puts the originals back. A wrapper
only sees calls that look the name up where it was replaced (see the
README for the list), so a span that reads zero after a refactor means the
call moved, not that it became free. Spans stay in memory until the round
ends; ``write`` then stores them as a gzip TSV of (span, name, start_ns,
end_ns, parent).
"""

from __future__ import annotations

import gzip
import time
from collections import defaultdict

# (metric, span name, "total" or "self") for every timed per-layer metric
SPAN_METRICS = (
    ("simulation.generate_s", "simulation.generate_passes", "total"),
    ("simulation.render_s", "simulation.render_detections", "total"),
    ("simulation.merge_s", "simulation.merge_streams", "total"),
    ("simulation.report_s", "simulation.run_pipeline", "self"),
    ("simulation.write_report_s", "simulation.write_report", "total"),
    ("detection.write_s", "detection.write_detection_log", "total"),
    ("detection.parse_s", "detection.parse_detection_log", "total"),
    ("tracking.step_s", "tracking.VehicleTracker.step", "total"),
    ("tracking.cost_s", "tracking.cost_matrix", "total"),
    ("tracking.assign_s", "tracking.assign", "total"),
    ("tracking.step_self_s", "tracking.VehicleTracker.step", "self"),
    ("warning.observe_s", "warning.FlowCheckMonitor.observe", "total"),
    ("warning.emit_s", "warning.emit_warning", "total"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.trackers: dict[int, object] = {}
        self.monitors: dict[int, object] = {}
        self.track_ids: dict[int, set[int]] = defaultdict(set)

    def _begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(0)
        self._open.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def _end(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self._open.pop()

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            idx = self._begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._end(idx)
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, original))

    def wrap_generator(self, owner, attr: str, name: str, after_item) -> None:
        """Span every ``next`` of the generator the function returns."""
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            items = original(*args, **kwargs)

            def spanned():
                while True:
                    idx = self._begin(name)
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                    finally:
                        self._end(idx)
                    after_item(item)
                    yield item

            return spanned()

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def totals(self) -> dict[str, tuple[int, int, int]]:
        """Per span name: (calls, total ns, self ns = total minus child spans)."""
        child_ns = [0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child_ns[parent] += self.ends[i] - self.starts[i]
        out: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        for i, name in enumerate(self.names):
            row = out[name]
            duration = self.ends[i] - self.starts[i]
            row[0] += 1
            row[1] += duration
            row[2] += duration - child_ns[i]
        return {name: tuple(row) for name, row in out.items()}

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as sink:
            sink.write("span\tname\tstart_ns\tend_ns\tparent\n")
            for i, name in enumerate(self.names):
                sink.write(f"{i}\t{name}\t{self.starts[i]}\t{self.ends[i]}\t{self.parents[i]}\n")


def install(tracer: Tracer, detection, simulation, tracking, warning) -> None:
    """Wrap the calls each layer metric is measured at."""
    counts = tracer.counts

    def on_passes(args, passes):
        counts["simulation.passes"] += len(passes)

    def on_merged(args, frames):
        counts["simulation.frames"] += len(frames)

    def on_parsed(frame):
        counts["detection.parse_frames"] += 1
        counts["detection.parse_dets"] += len(frame.detections)

    def on_assign(args, result):
        counts["tracking.assign_calls"] += 1
        counts["tracking.assign_cells"] += args[0].size

    def on_step(args, events):
        tracker = args[0]
        tracker_id = id(tracker)
        tracer.trackers[tracker_id] = tracker
        counts["tracking.steps"] += 1
        live = tracker.tracks
        if len(live) > counts["tracking.live_tracks_peak"]:
            counts["tracking.live_tracks_peak"] = len(live)
        tracer.track_ids[tracker_id].update(t.track_id for t in live)
        counts["tracking.tracks_confirmed"] += sum(1 for e in events if e.kind == tracking.NEW_VEHICLE)

    def on_observe(args, result):
        tracer.monitors[id(args[0])] = args[0]
        counts["warning.events"] += 1

    tracer.wrap(simulation, "run_pipeline", "simulation.run_pipeline")
    tracer.wrap(simulation, "generate_passes", "simulation.generate_passes", on_passes)
    tracer.wrap(simulation, "render_detections", "simulation.render_detections")
    tracer.wrap(simulation, "merge_streams", "simulation.merge_streams", on_merged)
    # a span of its own keeps the step wrappers' overhead out of report_s
    tracer.wrap(simulation, "drive", "simulation.drive")
    tracer.wrap(simulation, "write_report", "simulation.write_report")
    tracer.wrap(simulation, "write_detection_log", "detection.write_detection_log")
    tracer.wrap_generator(detection, "parse_detection_log", "detection.parse_detection_log", on_parsed)
    tracer.wrap(tracking, "cost_matrix", "tracking.cost_matrix")
    tracer.wrap(tracking, "assign", "tracking.assign", on_assign)
    tracer.wrap(tracking.VehicleTracker, "step", "tracking.VehicleTracker.step", on_step)
    tracer.wrap(warning.FlowCheckMonitor, "observe", "warning.FlowCheckMonitor.observe", on_observe)
    tracer.wrap(warning, "emit_warning", "warning.emit_warning")


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of one traced round, as (value, unit)."""
    totals = tracer.totals()
    metrics: dict[str, tuple[float, str]] = {}
    for metric, span, kind in SPAN_METRICS:
        calls, total_ns, self_ns = totals.get(span, (0, 0, 0))
        metrics[metric] = ((self_ns if kind == "self" else total_ns) / 1e9, "s")
    counts = tracer.counts
    spawned = sum(len(ids) for ids in tracer.track_ids.values())
    confirmed = counts["tracking.tracks_confirmed"]
    for name in ("simulation.passes", "simulation.frames", "detection.write_bytes",
                 "detection.parse_frames", "detection.parse_dets", "tracking.steps",
                 "tracking.assign_calls", "tracking.assign_cells", "tracking.live_tracks_peak",
                 "warning.events"):
        metrics[name] = (counts[name], "bytes" if name.endswith("_bytes") else "count")
    metrics["tracking.tracks_spawned"] = (spawned, "count")
    metrics["tracking.tracks_confirmed"] = (confirmed, "count")
    metrics["tracking.confirm_ratio"] = (confirmed / spawned if spawned else 0.0, "ratio")
    metrics["tracking.archive_tracks"] = (sum(len(t.archive) for t in tracer.trackers.values()), "count")
    metrics["warning.warnings"] = (sum(len(m.warnings) for m in tracer.monitors.values()), "count")
    metrics["warning.audit_records"] = (sum(len(m.audit) for m in tracer.monitors.values()), "count")
    return metrics
