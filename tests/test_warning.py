"""Flow-check tests against a literal replay oracle, plus device emission."""

import io
import math

import numpy as np
import pytest

from roadwatch.errors import ConfigError, StreamOrderError, ValidationError
from roadwatch.simulation import SimulationReport
from roadwatch.tracking import NEW_VEHICLE, TrackerEvent
from roadwatch.warning import (
    DECISION_SKIP_CLASS,
    DECISION_SUPPRESS,
    DECISION_WARN,
    AuditRecord,
    FlowCheckMonitor,
    StdoutDevice,
    emit_warning,
    format_warning_line,
)

from reference import literal_flow_check


def event(t, track_id=1, camera="front", cls="vehicle"):
    return TrackerEvent(kind=NEW_VEHICLE, track_id=track_id, timestamp=t, camera=camera, object_class=cls)


def run_chain(timestamps, t_duration=10.0, start=0.0):
    monitor = FlowCheckMonitor(t_duration=t_duration, start_time=start)
    warned = []
    for i, t in enumerate(timestamps):
        warning = monitor.observe(event(t, track_id=i + 1))
        if warning is not None:
            warned.append(warning)
    return monitor, warned


class TestInit:
    def test_default_duration(self):
        monitor = FlowCheckMonitor()
        assert monitor.t_start == 0.0
        assert monitor.t_duration == 10.0

    def test_arbitrary_start(self):
        assert FlowCheckMonitor(t_duration=5.0, start_time=123.4).t_start == 123.4

    def test_immediate_event_never_warns(self):
        monitor = FlowCheckMonitor(t_duration=10.0, start_time=50.0)
        assert monitor.observe(event(50.0)) is None

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ConfigError):
            FlowCheckMonitor(t_duration=0.0)
        with pytest.raises(ConfigError):
            FlowCheckMonitor(t_duration=-1.0)

    def test_non_finite_duration_rejected(self):
        # nan once ran and wrote "t_duration_s":nan, which is not JSON
        with pytest.raises(ConfigError, match="t_duration must be finite and > 0"):
            FlowCheckMonitor(t_duration=float("nan"))
        with pytest.raises(ConfigError, match="t_duration must be finite and > 0"):
            FlowCheckMonitor(t_duration=float("inf"))


class TestOnNewVehicle:
    def test_example_sequence(self):
        _, warned = run_chain([15.0, 20.0, 35.0])
        assert [w.timestamp for w in warned] == [15.0, 35.0]
        assert [w.gap for w in warned] == [15.0, 15.0]

    def test_boundary_gap_equal_to_duration_suppressed(self):
        _, warned = run_chain([10.0])
        assert warned == []
        _, warned = run_chain([10.0 + 1e-9])
        assert len(warned) == 1

    def test_timer_resets_even_when_suppressed(self):
        monitor = FlowCheckMonitor(t_duration=10.0, start_time=0.0)
        assert monitor.observe(event(4.0)) is None
        assert monitor.t_start == 4.0
        warning = monitor.observe(event(15.0))
        assert warning is not None and warning.gap == pytest.approx(11.0)

    def test_monotone_reset_independent_of_outcome(self):
        rng = np.random.default_rng(5)
        times = np.cumsum(rng.uniform(0.0, 30.0, 100))
        monitor, _ = run_chain(list(times))
        assert monitor.t_start == times[-1]

    def test_trace_matches_literal_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            n = int(rng.integers(0, 30))
            gaps = rng.uniform(0.0, 25.0, n)
            # sprinkle exact-boundary gaps to exercise the strict comparison
            gaps[rng.uniform(size=n) < 0.2] = 10.0
            times = list(np.cumsum(gaps))
            monitor, warned = run_chain(times)
            assert [w.timestamp for w in warned] == literal_flow_check(times)
            assert all(w is r for w, r in zip(warned, monitor.warnings))
            assert len(warned) == len(monitor.warnings)

    def test_every_warning_gap_exceeds_duration(self):
        rng = np.random.default_rng(13)
        times = list(np.cumsum(rng.uniform(0.0, 30.0, 2000)))
        _, warned = run_chain(times)
        assert warned
        assert all(w.gap > 10.0 for w in warned)

    def test_consecutive_warnings_separated_by_quiet_gap(self):
        rng = np.random.default_rng(17)
        times = list(np.cumsum(rng.uniform(0.0, 30.0, 2000)))
        _, warned = run_chain(times)
        warn_times = {w.timestamp for w in warned}
        previous = 0.0
        for t in times:
            if t in warn_times:
                assert t - previous > 10.0
            previous = t

    def test_stale_event_rejected(self):
        stale = (99.0, ("vehicle", "truck"), StreamOrderError, "event at 99.000 is older than timer start 100.000")
        # a non-finite time is rejected for every class, a pedestrian's too
        non_finite = [(t, ("vehicle", "truck", "pedestrian"), ValidationError,
                       f"event timestamp must be finite, got {t}") for t in (math.nan, math.inf, -math.inf)]
        for t, classes, error, message in [stale, *non_finite]:
            for cls in classes:
                monitor = FlowCheckMonitor(t_duration=10.0, start_time=100.0)
                with pytest.raises(error, match=message):
                    monitor.observe(event(t, cls=cls))
                assert monitor.audit == [] and monitor.t_start == 100.0
        # a NaN event once suppressed itself and the next one: 20, nan, 40
        # and 60 s gave warn, suppress, suppress, warn
        monitor = FlowCheckMonitor(t_duration=10.0, start_time=0.0)
        monitor.observe(event(20.0))
        with pytest.raises(ValidationError):
            monitor.observe(event(math.nan))
        monitor.observe(event(40.0))
        monitor.observe(event(60.0))
        assert [(r.timestamp, r.decision) for r in monitor.audit] == [
            (20.0, DECISION_WARN), (40.0, DECISION_WARN), (60.0, DECISION_WARN)]

    def test_pedestrian_rejected_at_op_level(self):
        # a pedestrian is logged but never checked, so an old one is no error
        monitor = FlowCheckMonitor(t_duration=10.0, start_time=100.0)
        assert monitor.observe(event(50.0, cls="pedestrian")) is None
        assert [r.decision for r in monitor.audit] == [DECISION_SKIP_CLASS]
        assert monitor.audit[0].gap is None
        assert monitor.warnings == [] and monitor.t_start == 100.0

    def test_poisson_suppression_fraction(self):
        lam, t_dur, n = 0.05, 10.0, 20000
        rng = np.random.default_rng(19)
        times = list(np.cumsum(rng.exponential(1.0 / lam, n)))
        _, warned = run_chain(times, t_duration=t_dur)
        fraction = len(warned) / n
        expected = float(np.exp(-lam * t_dur))
        se = (expected * (1 - expected) / n) ** 0.5
        assert abs(fraction - expected) < 3 * se


class TestEmission:
    def test_line_format(self):
        warning = AuditRecord(15.0, "rear", 7, "vehicle", DECISION_WARN, 15.0)
        assert format_warning_line(warning) == "WARN t=15.000 cam=rear track=7 gap=15.0\n"

    def test_messages_in_order(self):
        sink = io.StringIO()
        device = StdoutDevice(sink)
        emit_warning(AuditRecord(1.0, "front", 1, "vehicle", DECISION_WARN, 12.0), device)
        emit_warning(AuditRecord(2.5, "rear", 2, "truck", DECISION_WARN, 20.5), device)
        assert sink.getvalue() == (
            "WARN t=1.000 cam=front track=1 gap=12.0\n"
            "WARN t=2.500 cam=rear track=2 gap=20.5\n"
        )

    def test_failed_channel_counted_and_retried(self):
        class FlakyDevice:
            def __init__(self):
                self.sent = []
                self.fail = True

            def send(self, line):
                if self.fail:
                    self.fail = False
                    raise OSError("closed channel")
                self.sent.append(line)

        device = FlakyDevice()
        monitor = FlowCheckMonitor(t_duration=10.0, start_time=0.0, device=device)
        assert monitor.observe(event(11.0, track_id=1)) is not None
        assert monitor.observe(event(30.0, track_id=2)) is not None
        assert monitor.emit_failures == 1
        assert len(device.sent) == 1  # second warning still went out


class TestMonitor:
    def test_counts_and_audit_decisions(self):
        monitor = FlowCheckMonitor(t_duration=10.0, start_time=0.0)
        warning = monitor.observe(event(11.0, track_id=1))  # warn
        monitor.observe(event(12.0, track_id=2))            # suppress
        monitor.observe(event(13.0, track_id=3, cls="pedestrian"))  # skipped
        # the events checked, as replay prints them
        assert SimulationReport(14.0, 10.0, 0, monitor.audit, ground_truth=False).warnings_without_filter == 2
        assert [r.decision for r in monitor.audit] == [
            DECISION_WARN,
            DECISION_SUPPRESS,
            DECISION_SKIP_CLASS,
        ]
        # a warning is its warn record, not a copy of it
        warn_records = [r for r in monitor.audit if r.decision == DECISION_WARN]
        assert len(monitor.warnings) == len(warn_records) == 1
        assert all(w is r for w, r in zip(monitor.warnings, warn_records))
        assert warning is monitor.warnings[0]
        # read from the audit, so there is no second list to set
        with pytest.raises(AttributeError):
            monitor.warnings = []

    def test_pedestrian_does_not_touch_timer(self):
        monitor = FlowCheckMonitor(t_duration=10.0, start_time=0.0)
        monitor.observe(event(11.0, track_id=1))  # warn, timer -> 11
        monitor.observe(event(20.0, track_id=2, cls="pedestrian"))
        warning = monitor.observe(event(22.0, track_id=3))
        # gap measured from the vehicle at t=11, not the pedestrian at t=20
        assert warning is not None and warning.gap == pytest.approx(11.0)

    def test_merged_streams_share_one_timer(self):
        monitor = FlowCheckMonitor(t_duration=10.0, start_time=0.0)
        assert monitor.observe(event(11.0, camera="front", track_id=1)) is not None
        # rear event right after the front one is suppressed by the shared timer
        assert monitor.observe(event(12.0, camera="rear", track_id=2)) is None

    def test_trace_deterministic(self):
        def run():
            rng = np.random.default_rng(23)
            monitor = FlowCheckMonitor(t_duration=10.0, start_time=0.0)
            t = 0.0
            for i in range(500):
                t += float(rng.uniform(0, 25))
                camera = "front" if rng.uniform() < 0.5 else "rear"
                monitor.observe(event(t, track_id=i + 1, camera=camera))
            return [(w.timestamp, w.camera, w.track_id) for w in monitor.warnings]

        assert run() == run()
