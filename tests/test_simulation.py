"""Simulator tests: arrival statistics, projection, kinematic delta oracles."""

import fcntl
import gc
import io
import json
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
from collections import Counter
from multiprocessing.connection import Connection
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

from roadwatch.errors import ConfigError, ValidationError
from roadwatch.simulation import (
    BUILTIN_SCENARIOS,
    DIRECTIONS,
    VEHICLE_ASPECT,
    CameraModel,
    NoiseModel,
    RatePiece,
    Scenario,
    SimulationReport,
    VehiclePass,
    audit_text,
    generate_passes,
    histogram_csv,
    load_report,
    load_scenario,
    merge_streams,
    meta_json,
    parse_scenario,
    render_detections,
    run_passes,
    run_pipeline,
    summary_text,
    write_report,
)
from roadwatch.detection import FrameDetections
from roadwatch.tracking import TrackerConfig, VehicleTracker
from roadwatch.warning import AuditRecord, StdoutDevice
from roadwatch.workers import BATCH_FRAMES, PIPE_BYTES


def make_scenario(**overrides):
    base = dict(
        duration=600.0,
        arrival_profile={"front": [RatePiece(0.0, 0.02)], "rear": [RatePiece(0.0, 0.02)]},
        speed_range=(18.0, 30.0),
        detection_range=120.0,
        seed=99,
    )
    base.update(overrides)
    return Scenario(**base)


def rush_hour(**overrides):
    """300 s at the paper-day peak rate, where vehicles often overlap."""
    rate = [RatePiece(0.0, 0.2666666667)]
    return make_scenario(duration=300.0, arrival_profile={"front": rate, "rear": rate}, seed=9, **overrides)


def single_pass(spawn=12.0, speed=20.0, d_vis=120.0, direction="front", cls="vehicle"):
    return VehiclePass(
        vehicle_id=1,
        direction=direction,
        spawn_time=spawn,
        speed=speed,
        pass_time=spawn + d_vis / speed,
        vehicle_class=cls,
    )


class TestGeneratePasses:
    def test_zero_rate_no_passes(self):
        scenario = make_scenario(
            arrival_profile={"front": [RatePiece(0.0, 0.0)], "rear": [RatePiece(0.0, 0.0)]}
        )
        assert generate_passes(scenario, np.random.default_rng(1)) == []

    def test_poisson_count(self):
        lam, duration = 0.05, 1e5
        scenario = make_scenario(
            duration=duration,
            arrival_profile={"front": [RatePiece(0.0, lam)], "rear": [RatePiece(0.0, 0.0)]},
        )
        passes = generate_passes(scenario, np.random.default_rng(2))
        expected = lam * duration
        assert abs(len(passes) - expected) <= 3 * math.sqrt(expected)

    def test_same_seed_identical(self):
        scenario = make_scenario()
        a = generate_passes(scenario, np.random.default_rng(scenario.seed))
        b = generate_passes(scenario, np.random.default_rng(scenario.seed))
        assert a == b

    def test_pass_fields_consistent(self):
        scenario = make_scenario(duration=5000.0)
        passes = generate_passes(scenario, np.random.default_rng(3))
        assert passes
        lo, hi = scenario.speed_range
        for p in passes:
            assert lo <= p.speed <= hi
            assert p.direction in ("front", "rear")
            assert p.vehicle_class in ("truck", "vehicle")
            assert p.pass_time == pytest.approx(p.spawn_time + scenario.detection_range / p.speed)
            assert 0.0 <= p.spawn_time < scenario.duration

    def test_piecewise_profile_rates(self):
        # 0 rate in the first half, heavy in the second: all spawns land late
        scenario = make_scenario(
            duration=2000.0,
            arrival_profile={
                "front": [RatePiece(0.0, 0.0), RatePiece(1000.0, 0.2)],
                "rear": [RatePiece(0.0, 0.0)],
            },
        )
        passes = generate_passes(scenario, np.random.default_rng(4))
        assert passes
        assert all(p.spawn_time >= 1000.0 for p in passes)


class TestRenderDetections:
    def test_pinhole_height_at_exact_tick(self):
        scenario = make_scenario(
            detection_range=100.0,
            camera=CameraModel(focal_length_px=1000.0, vehicle_height_m=1.5),
        )
        vehicle = single_pass(spawn=2.0, speed=20.0, d_vis=100.0)
        frames, labels = render_detections([vehicle], scenario, np.random.default_rng(5))
        first = frames["front"][0]
        assert first.timestamp == pytest.approx(2.0)
        det = first.detections[0]
        assert det.height == pytest.approx(15.0)  # 1000 * 1.5 / 100
        assert det.width == pytest.approx(22.5)
        assert (("front", first.frame_index, det.cx, det.cy) in labels)

    def test_occlusion_window_blanks_frames(self):
        from roadwatch.simulation import OcclusionWindow

        vehicle = single_pass(spawn=0.0, speed=20.0, d_vis=120.0)
        # visible only below 30 m: detections start once d < 30
        scenario = make_scenario(occlusion_windows=[OcclusionWindow("front", 30.0, 120.0)])
        frames, _ = render_detections([vehicle], scenario, np.random.default_rng(6))
        det_frames = [f for f in frames["front"] if f.detections]
        assert det_frames
        first_visible_t = det_frames[0].timestamp
        # d(t) = 120 - 20 t; d < 30 from t > 4.5
        assert first_visible_t > 4.5
        assert first_visible_t < 4.6

    def test_dropout_binomial(self):
        # slow vehicle visible for ~10^4 frames, dropout 0.5
        scenario = make_scenario(
            duration=400.0,
            speed_range=(0.36, 0.36),
            detection_range=120.0,
            noise=NoiseModel(dropout_prob=0.5),
        )
        vehicle = single_pass(spawn=0.0, speed=0.36, d_vis=120.0)
        n_visible = math.floor(333.3 * 30)
        frames, _ = render_detections([vehicle], scenario, np.random.default_rng(7))
        kept = sum(len(f.detections) for f in frames["front"])
        assert abs(kept - n_visible / 2) <= 3 * math.sqrt(n_visible * 0.25)

    def test_trailing_empty_frames(self):
        scenario = make_scenario()
        vehicle = single_pass(spawn=1.0, speed=30.0, d_vis=120.0)
        frames, _ = render_detections([vehicle], scenario, np.random.default_rng(8), trail_frames=3)
        stream = frames["front"]
        tail = stream[-3:]
        assert all(not f.detections for f in tail)
        indices = [f.frame_index for f in stream]
        assert indices == sorted(indices)
        # trailing empties directly follow the last detection tick
        last_det_idx = max(f.frame_index for f in stream if f.detections)
        assert [f.frame_index for f in tail] == [last_det_idx + 1, last_det_idx + 2, last_det_idx + 3]

    def test_false_positives_injected(self):
        scenario = make_scenario(
            duration=100.0,
            arrival_profile={"front": [RatePiece(0.0, 0.0)], "rear": [RatePiece(0.0, 0.0)]},
            noise=NoiseModel(false_positive_rate=0.2),
        )
        frames, labels = render_detections([], scenario, np.random.default_rng(9))
        count = sum(len(f.detections) for f in frames["front"])
        # Poisson(0.2 * 3000) per direction
        assert abs(count - 600) <= 3 * math.sqrt(600)
        assert labels == {}  # false positives carry no ground-truth label

    @pytest.mark.parametrize("fps", [30.0, 29.97, 7.0, 1000.0])
    def test_kept_ticks_match_the_scalar_loop(self, fps):
        # the ticks are tested as whole arrays; the per-tick loop they
        # replaced, on _tick_time, is the reference and must agree exactly
        from roadwatch.simulation import OcclusionWindow, _Rendering, _tick_time

        windows = [OcclusionWindow("front", 40.0, 60.0), OcclusionWindow("rear", 0.0, 10.0)]
        scenario = make_scenario(frame_rate=fps, occlusion_windows=windows)
        passes = generate_passes(scenario, np.random.default_rng(3))
        rendering = _Rendering(passes, scenario, np.random.default_rng(4), trail_frames=3)
        expected = {}
        for v in passes:
            first = max(0, math.ceil(v.spawn_time * fps - 1e-9))
            last = min(rendering.n_ticks - 1, math.floor(v.pass_time * fps + 1e-9))
            for k in range(first, last + 1):
                d = scenario.detection_range - v.speed * (_tick_time(k, fps) - v.spawn_time)
                occluded = any(w.direction == v.direction and w.near <= d <= w.far for w in windows)
                if 0.0 < d <= scenario.detection_range and not occluded:
                    expected.setdefault(v.vehicle_id, []).append(k)
        assert len(expected) > 10
        got = {}
        for camera, ticks in rendering.ticks.items():
            for k, position in zip(ticks, rendering.positions[camera]):
                got.setdefault(passes[position].vehicle_id, []).append(k)
        assert got == expected

    def test_canonical_precision(self):
        scenario = make_scenario(noise=NoiseModel(center_jitter_px=2.0))
        vehicle = single_pass()
        frames, _ = render_detections([vehicle], scenario, np.random.default_rng(10))
        for f in frames["front"]:
            assert round(f.timestamp, 3) == f.timestamp
            for d in f.detections:
                assert round(d.cx, 1) == d.cx
                assert round(d.cy, 1) == d.cy
                assert round(d.width, 1) == d.width
                assert round(d.height, 1) == d.height


def frame_bits(frames) -> list:
    """Each frame's fields, floats spelled so that equal means equal bits."""
    return [
        (f.frame_index, f.timestamp.hex(), f.camera,
         [(d.cx.hex(), d.cy.hex(), d.width.hex(), d.height.hex(), d.best_class) for d in f.detections])
        for f in frames
    ]


class TestBlockWalk:
    """Frames build their times and box sizes a block of entries at a time."""

    @pytest.mark.parametrize("name, duration", [("paper-day", 7200.0), ("country-road", None),
                                                ("occluded-curve", None)])
    def test_block_size_does_not_change_frames(self, monkeypatch, name, duration):
        import roadwatch.simulation as simulation

        scenario = load_scenario(name)
        scenario.seed = 1
        if duration is not None:
            scenario.duration = duration
        rng = np.random.default_rng(scenario.seed)
        rendering = simulation._Rendering(generate_passes(scenario, rng), scenario, rng, trail_frames=3)
        fps, cam = scenario.frame_rate, scenario.camera
        size = cam.focal_length_px * cam.vehicle_height_m
        expected = {}
        for camera in DIRECTIONS:
            frames = list(rendering.frames(camera))
            expected[camera] = frame_bits(frames)
            # the per-entry reference: _tick_time, the pinhole height and np.round
            assert all(f.timestamp.hex() == simulation._tick_time(f.frame_index, fps).hex() for f in frames)
            vehicles_at = Counter(rendering.ticks[camera])
            got = [(f.frame_index, d.width.hex(), d.height.hex())
                   for f in frames for d in f.detections[:vehicles_at[f.frame_index]]]
            reference = []
            for k, position in zip(rendering.ticks[camera], rendering.positions[camera]):
                v = rendering.passes[position]
                h = size / (scenario.detection_range - v.speed * (simulation._tick_time(k, fps) - v.spawn_time))
                reference.append((k, float(np.round(VEHICLE_ASPECT * h, 1)).hex(), float(np.round(h, 1)).hex()))
            assert got == reference and len(got) > 1000
        for block in (1, 2, 7):
            monkeypatch.setattr(simulation, "_BLOCK_ENTRIES", block)
            # ticks whose entries lie on both sides of a multiple of the block size
            straddling = 0
            for camera in DIRECTIONS:
                first, last = {}, {}
                for i, k in enumerate(rendering.ticks[camera]):
                    first.setdefault(k, i)
                    last[k] = i
                straddling += sum(first[k] // block != last[k] // block for k in first)
                assert frame_bits(rendering.frames(camera)) == expected[camera], (camera, block)
            assert straddling > 0, block


class TestMergeStreams:
    def test_tie_breaks_front_first(self):
        scenario = make_scenario()
        vehicles = [
            single_pass(spawn=1.0, direction="front"),
            VehiclePass(2, "rear", 1.0, 20.0, 7.0, "vehicle"),
        ]
        frames, _ = render_detections(vehicles, scenario, np.random.default_rng(11))
        merged = merge_streams(frames)
        for a, b in zip(merged, merged[1:]):
            assert (a.timestamp, 0 if a.camera == "front" else 1) <= (
                b.timestamp,
                0 if b.camera == "front" else 1,
            )


class TestOnePass:
    def test_simulate_builds_frames_one_at_a_time(self, monkeypatch, tmp_path):
        # each camera worker counts the frames alive at its first step and
        # writes the count to a file, since it runs in a process of its own
        stepped = set()
        step = VehicleTracker.step

        def counting_step(self, frame):
            if self.camera not in stepped:
                stepped.add(self.camera)
                alive = sum(1 for o in gc.get_objects() if isinstance(o, FrameDetections))
                (tmp_path / self.camera).write_text(str(alive), encoding="utf-8")
            return step(self, frame)

        # and this process counts the records it has received but not yet written
        received = [0]
        recv = Connection.recv

        def counting_recv(self):
            batch = recv(self)
            received[0] += len(batch or ())
            return batch

        class HeldCounter(io.TextIOBase):
            def __init__(self):
                self.written = 0
                self.held = []

            def write(self, line):
                self.held.append(received[0] - self.written)
                self.written += 1
                return len(line)

        monkeypatch.setattr(VehicleTracker, "step", counting_step)
        monkeypatch.setattr(Connection, "recv", counting_recv)
        sink = HeldCounter()
        report = run_pipeline(rush_hour(noise=NoiseModel(center_jitter_px=2.0, dropout_prob=0.01)), dump_sink=sink)
        assert report.warnings_without_filter > 50
        assert not stepped  # every step ran in a worker
        # one pending frame at a time in each worker, not the whole run
        alive = {camera: int((tmp_path / camera).read_text()) for camera in DIRECTIONS}
        assert max(alive.values()) < 10, alive
        # and at most one batch per camera here
        assert sink.written > 10 * BATCH_FRAMES
        assert 1 < max(sink.held) <= 2 * BATCH_FRAMES

    @pytest.mark.parametrize("reverse", [False, True], ids=["spawn-order", "reversed"])
    def test_label_lookup_matches_label_map(self, reverse):
        # no jitter: vehicles visible together share (camera, tick, cx, cy),
        # and the first of them in passes order owns the key
        from roadwatch.simulation import _Rendering

        scenario = rush_hour(noise=NoiseModel(dropout_prob=0.02, false_positive_rate=0.01))
        rng = np.random.default_rng(scenario.seed)
        passes = generate_passes(scenario, rng)
        if reverse:
            passes.reverse()
        state = rng.bit_generator.state
        frames, labels = render_detections(passes, scenario, rng)
        rng.bit_generator.state = state
        rendering = _Rendering(passes, scenario, rng, trail_frames=3)
        keys = [
            (camera, frame.frame_index, det.cx, det.cy)
            for camera, stream in frames.items()
            for frame in stream
            for det in frame.detections
        ]
        assert len(keys) - len(set(keys)) > 1000
        assert [rendering.label(*key) for key in keys] == [labels.get(key) for key in keys]
        false_positives = [
            (camera, det.frame_index, det.cx, det.cy)
            for camera, dets in rendering.false_positives.items()
            for det in dets
        ]
        assert len(false_positives) > 100
        assert all(key not in labels and rendering.label(*key) is None for key in false_positives)

    def test_streams_in_tick_order_for_any_passes_order(self):
        scenario = make_scenario()
        vehicles = [
            VehiclePass(1, "front", 40.0, 20.0, 46.0, "truck"),
            VehiclePass(2, "front", 1.0, 20.0, 7.0, "vehicle"),
            VehiclePass(3, "front", 2.0, 24.0, 7.0, "vehicle"),
        ]
        frames, _ = render_detections(vehicles, scenario, np.random.default_rng(12))
        stream = frames["front"]
        assert [f.frame_index for f in stream] == sorted({f.frame_index for f in stream})
        # a tick shared by two vehicles lists them in passes order
        shared = [f for f in stream if len(f.detections) == 2]
        assert shared
        assert all(f.detections[0].height > f.detections[1].height for f in shared)


class TestCameraWorkers:
    """Simulate runs each camera in a worker process; failures end the run cleanly."""

    @pytest.fixture(autouse=True)
    def deadline(self):
        """Fail a run that hangs, as one whose workers are never stopped would."""

        def expire(signum, frame):
            pytest.fail("the run did not end within 60 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(60)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

    def full_run(self):
        scenario = rush_hour()
        dump, device = io.StringIO(), io.StringIO()
        # a short quiet gap, so that a busy run still warns often
        run_pipeline(scenario, t_duration=1.0, dump_sink=dump, device=StdoutDevice(device))
        assert multiprocessing.active_children() == []
        return scenario, dump.getvalue().splitlines(keepends=True), device.getvalue().splitlines(keepends=True)

    def test_worker_error_raised_at_its_frame(self, monkeypatch):
        scenario, lines, warnings_sent = self.full_run()
        rear = [i for i, line in enumerate(lines) if line.startswith('{"camera":"rear"')]
        failing = rear[len(rear) // 2]
        record = json.loads(lines[failing])
        k, t = record["frame"], record["t"]
        step = VehicleTracker.step

        def failing_step(self, frame):
            if frame.camera == "rear" and frame.frame_index == k:
                raise ValidationError(f"no step at frame {k}")
            return step(self, frame)

        monkeypatch.setattr(VehicleTracker, "step", failing_step)
        dump, device = io.StringIO(), io.StringIO()
        with pytest.raises(ValidationError, match=f"^no step at frame {k}$"):
            run_pipeline(scenario, t_duration=1.0, dump_sink=dump, device=StdoutDevice(device))
        # every frame before it in the merged stream went through, and its dump line was written
        assert dump.getvalue() == "".join(lines[:failing + 1])
        sent = device.getvalue().splitlines(keepends=True)
        assert sent == [w for w in warnings_sent if float(w.split()[1][2:]) < t or (
            float(w.split()[1][2:]) == t and "cam=front" in w)]
        assert 10 < len(sent) < len(warnings_sent)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("error", [OSError, KeyboardInterrupt])
    def test_parent_error_stops_both_workers(self, error):
        class FailingSink(io.StringIO):
            def write(self, line):
                if self.tell() > 100_000:
                    raise error("sink failed")
                return super().write(line)

        started = time.monotonic()
        with pytest.raises(error, match="sink failed"):
            run_pipeline(make_scenario(duration=6000.0), dump_sink=FailingSink())
        assert multiprocessing.active_children() == []
        # the workers were stopped, not run to the end of the day
        assert time.monotonic() - started < 30

    @pytest.mark.skipif(not hasattr(fcntl, "F_GETPIPE_SZ"), reason="pipe capacity is a Linux fcntl")
    def test_worker_pipe_holds_pipe_bytes(self, monkeypatch, tmp_path):
        with open("/proc/sys/fs/pipe-max-size", encoding="ascii") as limit:
            if int(limit.read()) < PIPE_BYTES:
                pytest.skip("this kernel caps a pipe below PIPE_BYTES")
        send = Connection.send

        # each camera worker writes its pipe's capacity to a file, since it runs in a process of its own
        def reporting_send(self, obj):
            (tmp_path / str(os.getpid())).write_text(str(fcntl.fcntl(self.fileno(), fcntl.F_GETPIPE_SZ)))
            return send(self, obj)

        monkeypatch.setattr(Connection, "send", reporting_send)
        run_pipeline(rush_hour())
        assert sorted(int(p.read_text()) for p in tmp_path.iterdir()) == [PIPE_BYTES, PIPE_BYTES]

    def test_refused_pipe_size_changes_no_output(self, monkeypatch):
        def run():
            dump = io.StringIO()
            report = run_pipeline(rush_hour(noise=NoiseModel(center_jitter_px=2.0)), dump_sink=dump)
            assert multiprocessing.active_children() == []
            return dump.getvalue(), audit_text(report)

        expected = run()
        asked = []
        fcntl_call = fcntl.fcntl

        def refusing_fcntl(fd, cmd, arg=0):
            if cmd == getattr(fcntl, "F_SETPIPE_SZ", None):
                asked.append(arg)
                raise PermissionError(1, "Operation not permitted")
            return fcntl_call(fd, cmd, arg)

        monkeypatch.setattr(fcntl, "fcntl", refusing_fcntl)
        assert run() == expected
        assert asked == ([PIPE_BYTES] * 2 if hasattr(fcntl, "F_SETPIPE_SZ") else [])

    def test_killed_worker_named_with_its_exit_code(self, monkeypatch):
        step = VehicleTracker.step

        def dying_step(self, frame):
            if frame.camera == "rear" and frame.frame_index >= 3000:
                os.kill(os.getpid(), signal.SIGKILL)
            return step(self, frame)

        monkeypatch.setattr(VehicleTracker, "step", dying_step)
        with pytest.raises(RuntimeError, match="^the rear camera worker exited with code -9 before its last frame$"):
            run_pipeline(rush_hour())
        assert multiprocessing.active_children() == []

    def test_buffered_output_written_once(self, tmp_path):
        # text buffered before the workers start is flushed once, by this process
        script = """\
import sys
from roadwatch.simulation import run_pipeline, load_scenario
sys.stdout.write("stdout before\\n")
with open(sys.argv[1], "w", encoding="utf-8") as dump:
    dump.write("dump before\\n")
    run_pipeline(load_scenario("country-road"), dump_sink=dump)
sys.stdout.write("stdout after\\n")
"""
        dump = tmp_path / "dump.log"
        proc = subprocess.run([sys.executable, "-c", script, str(dump)], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "stdout before\nstdout after\n"
        text = dump.read_text(encoding="utf-8")
        assert text.startswith("dump before\n") and text.count("dump before") == 1
        assert text.count("\n") > 1000

    def test_workers_end_when_the_parent_is_killed(self):
        # no handler runs in a killed parent: each worker's next send fails
        script = """\
import itertools, multiprocessing
from roadwatch import simulation
flow_check = simulation._flow_check
def announcing_flow_check(records, *args):
    records = iter(records)
    first = next(records)
    print(*(p.pid for p in multiprocessing.active_children()), flush=True)
    return flow_check(itertools.chain([first], records), *args)
simulation._flow_check = announcing_flow_check
simulation.run_pipeline(simulation.load_scenario("paper-day"))
"""
        with subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True) as proc:
            try:
                workers = [int(pid) for pid in proc.stdout.readline().split()]
            finally:
                proc.kill()
        assert len(workers) == 2

        def running(pid):
            try:
                with open(f"/proc/{pid}/stat") as stat:
                    return stat.read().rpartition(")")[2].split()[0] != "Z"
            except FileNotFoundError:
                return False

        deadline = time.monotonic() + 30
        while any(running(pid) for pid in workers) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not any(running(pid) for pid in workers)

    def test_ctrl_c_prints_one_traceback(self):
        # Ctrl-C goes to the whole process group; only the parent reacts to it.
        # The script says when both workers have sent their first records, and
        # gives a worker that took the signal time to report it.
        script = """\
import itertools, time
from roadwatch import simulation
flow_check = simulation._flow_check
def announcing_flow_check(records, *args):
    try:
        records = iter(records)
        first = next(records)
        print("running", flush=True)
        return flow_check(itertools.chain([first], records), *args)
    except KeyboardInterrupt:
        time.sleep(1)
        raise
simulation._flow_check = announcing_flow_check
simulation.run_pipeline(simulation.load_scenario("paper-day"))
"""
        with subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, start_new_session=True) as proc:
            try:
                assert proc.stdout.readline() == "running\n"
                os.killpg(proc.pid, signal.SIGINT)
                _, err = proc.communicate(timeout=60)
            finally:
                if proc.poll() is None:
                    os.killpg(proc.pid, signal.SIGKILL)
        assert err.count("Traceback") == 1, err
        assert err.rstrip().endswith("KeyboardInterrupt")


class TestRunPipeline:
    def test_zero_vehicles_empty_report(self):
        scenario = make_scenario(
            arrival_profile={"front": [RatePiece(0.0, 0.0)], "rear": [RatePiece(0.0, 0.0)]}
        )
        report = run_pipeline(scenario)
        assert report.warnings_without_filter == 0
        assert report.warnings_with_filter == 0
        assert report.entries == []
        assert report.histogram() == {}

    def test_single_vehicle_delta_kinematics(self):
        scenario = make_scenario(noise=NoiseModel())
        vehicle = single_pass(spawn=12.0, speed=20.0, d_vis=120.0)
        report = run_passes([vehicle], scenario, np.random.default_rng(0), t_duration=10.0)
        assert report.warnings_with_filter == 1
        delta = report.entries[0].delta
        expected = 120.0 / 20.0 - 1.0 / 30.0  # confirmation one frame after first sight
        assert delta == pytest.approx(expected, abs=1.0 / 30.0 + 2e-3)

    def test_occluded_vehicle_delta_kinematics(self):
        from roadwatch.simulation import OcclusionWindow

        scenario = make_scenario(occlusion_windows=[OcclusionWindow("front", 30.0, 120.0)])
        vehicle = single_pass(spawn=12.0, speed=20.0, d_vis=120.0)
        report = run_passes([vehicle], scenario, np.random.default_rng(0), t_duration=10.0)
        assert report.warnings_with_filter == 1
        expected = 30.0 / 20.0 - 1.0 / 30.0
        assert report.entries[0].delta == pytest.approx(expected, abs=1.0 / 30.0 + 2e-3)

    def test_zero_noise_one_event_per_vehicle_and_delta_formula(self):
        scenario = make_scenario(duration=2000.0, seed=31)
        rng = np.random.default_rng(scenario.seed)
        passes = generate_passes(scenario, rng)
        report = run_passes(passes, scenario, rng)
        assert report.warnings_without_filter == len(passes)
        assert report.spurious_warnings == 0
        config = TrackerConfig()
        by_id = {p.vehicle_id: p for p in passes}
        for entry in report.entries:
            if entry.delta is None:
                continue
            vehicle = by_id[entry.vehicle_id]
            formula = (
                scenario.detection_range / vehicle.speed
                - (config.confirm_hits - 1) / scenario.frame_rate
            )
            assert abs(entry.delta - formula) <= 1.0 / scenario.frame_rate + 2e-3

    def test_filter_never_increases_warnings(self):
        for seed in (1, 2, 3):
            scenario = make_scenario(seed=seed, noise=NoiseModel(center_jitter_px=2.0, dropout_prob=0.02))
            report = run_pipeline(scenario)
            assert report.warnings_with_filter <= report.warnings_without_filter

    def test_suppression_ratio_matches_exponential_law(self):
        lam = 0.02  # per direction; merged 0.04
        scenario = make_scenario(
            duration=10000.0,
            arrival_profile={"front": [RatePiece(0.0, lam)], "rear": [RatePiece(0.0, lam)]},
            seed=37,
        )
        report = run_pipeline(scenario, t_duration=10.0)
        n = report.warnings_without_filter
        assert n > 200
        expected = math.exp(-2 * lam * 10.0)
        fraction = report.warnings_with_filter / n
        se = math.sqrt(expected * (1 - expected) / n)
        assert abs(fraction - expected) <= 3 * se

    def test_byte_identical_reports_same_seed(self):
        scenario = make_scenario(noise=NoiseModel(center_jitter_px=2.0, dropout_prob=0.02))
        a = run_pipeline(scenario)
        b = run_pipeline(scenario)
        assert audit_text(a) == audit_text(b)
        assert histogram_csv(a) == histogram_csv(b)
        assert summary_text(a) == summary_text(b)
        assert meta_json(a) == meta_json(b)

    def test_dump_matches_rendered_stream(self):
        scenario = make_scenario(duration=300.0)
        sink = io.StringIO()
        run_pipeline(scenario, dump_sink=sink)
        rng = np.random.default_rng(scenario.seed)
        passes = generate_passes(scenario, rng)
        frames, _ = render_detections(passes, scenario, rng, trail_frames=3)
        from roadwatch.detection import write_detection_log

        expected = io.StringIO()
        write_detection_log(merge_streams(frames), expected)
        assert sink.getvalue() == expected.getvalue()


# every number of a scenario file, with a legal value
FINITE_FIELDS = {
    "scenario.duration_s": "60", "scenario.frame_rate_hz": "30", "scenario.truck_fraction": "0.2",
    "arrivals.front.profile": "0:0.1", "arrivals.rear.profile": "0:0.1",
    "road.speed_min_mps": "18", "road.speed_max_mps": "30", "road.detection_range_m": "120",
    "road.occlusions": "", "camera.focal_length_px": "1000", "camera.vehicle_height_m": "1.5",
    "noise.center_jitter_px": "1", "noise.dropout_prob": "0.01", "noise.false_positive_rate": "0",
}
# (field, value) with one non-finite number; a profile has starts and rates,
# an occlusion a near and a far end
NON_FINITE = [
    (name, template.format(token))
    for name, template in [
        *((name, "{}") for name in FINITE_FIELDS if not name.endswith(("profile", "occlusions"))),
        ("arrivals.front.profile", "0:{}"),
        ("arrivals.rear.profile", "0:0.1,{}:0.2"),
        ("road.occlusions", "front:{}-50"),
        ("road.occlusions", "front:10-{}"),
    ]
    for token in ("nan", "inf", "-inf")
]

# (field, value) just outside the field's own bound
OUT_OF_RANGE = [
    ("scenario.duration_s", "0"), ("scenario.duration_s", "604801"), ("scenario.seed", "-1"),
    ("scenario.frame_rate_hz", "0"), ("scenario.frame_rate_hz", "1000.5"), ("scenario.truck_fraction", "-0.1"),
    ("scenario.truck_fraction", "1.5"), ("road.speed_min_mps", "0"), ("road.speed_min_mps", "-1"),
    ("road.detection_range_m", "0"), ("camera.focal_length_px", "0"), ("camera.vehicle_height_m", "-1.5"),
    ("noise.center_jitter_px", "-0.1"), ("noise.dropout_prob", "-0.01"), ("noise.dropout_prob", "1.5"),
    ("noise.false_positive_rate", "-1e-9"),
]


def scenario_text(fields: dict[str, str]) -> str:
    """Scenario file text from {"section.option": value}; the option is the last dotted part."""
    sections: dict[str, list[str]] = {}
    for name, value in fields.items():
        section, option = name.rsplit(".", 1)
        sections.setdefault(section, []).append(f"{option} = {value}")
    return "".join(f"[{section}]\n" + "\n".join(lines) + "\n" for section, lines in sections.items())


class TestScenarioFiles:
    def test_builtins_load_and_validate(self):
        for name in BUILTIN_SCENARIOS:
            scenario = load_scenario(name)
            scenario.validate()

    def test_missing_field_diagnosed(self):
        with pytest.raises(ConfigError, match="scenario.duration_s"):
            parse_scenario("[scenario]\nseed = 1\n")

    def test_bad_profile_entry_diagnosed(self):
        text = (
            "[scenario]\nduration_s = 10\n"
            "[arrivals.front]\nprofile = nonsense\n"
            "[arrivals.rear]\nprofile = 0:0\n"
            "[road]\nspeed_min_mps = 10\nspeed_max_mps = 20\ndetection_range_m = 100\n"
        )
        with pytest.raises(ConfigError, match="arrivals.front"):
            parse_scenario(text)

    def test_bad_occlusion_diagnosed(self):
        text = (
            "[scenario]\nduration_s = 10\n"
            "[arrivals.front]\nprofile = 0:0\n"
            "[arrivals.rear]\nprofile = 0:0\n"
            "[road]\nspeed_min_mps = 10\nspeed_max_mps = 20\ndetection_range_m = 100\n"
            "occlusions = sideways:10-20\n"
        )
        with pytest.raises(ConfigError, match="front|rear"):
            parse_scenario(text)

    @pytest.mark.parametrize(
        "value, near, far",
        [("front:1e-3-50", 1e-3, 50.0), ("front:0.0-8.016680903854287e-301", 0.0, 8.016680903854287e-301)],
    )
    def test_occlusion_bounds_with_exponents(self, value, near, far):
        # the "-" of a negative exponent does not split the interval
        scenario = parse_scenario(scenario_text({**FINITE_FIELDS, "road.occlusions": value}))
        assert [(w.direction, w.near, w.far) for w in scenario.occlusion_windows] == [("front", near, far)]

    @pytest.mark.parametrize(
        "name, value", NON_FINITE, ids=[f"{name}={value}" for name, value in NON_FINITE]
    )
    def test_non_finite_number_diagnosed(self, name, value):
        # NaN once passed most range checks, and an infinite duration or
        # arrival rate hung the arrival loop
        parse_scenario(scenario_text(FINITE_FIELDS))
        with pytest.raises(ConfigError, match=name.replace(".", r"\.")):
            parse_scenario(scenario_text({**FINITE_FIELDS, name: value}))

    @pytest.mark.parametrize(
        "name, reported",
        [("scenario.frame_rate", "unknown key scenario.frame_rate"),
         ("noise.dropout_probability", "unknown key noise.dropout_probability"),
         ("camerra.image_width_px", "unknown section [camerra]"),
         # an option of [DEFAULT] shows up in every section
         ("DEFAULT.seed", "unknown key arrivals.front.seed")],
    )
    def test_unknown_section_or_key_diagnosed(self, name, reported):
        # each once parsed without an error and left its value unused
        with pytest.raises(ConfigError, match=re.escape(reported)):
            parse_scenario(scenario_text({**FINITE_FIELDS, name: "60"}))

    @pytest.mark.parametrize(
        "name, value", OUT_OF_RANGE, ids=[f"{name}={value}" for name, value in OUT_OF_RANGE]
    )
    def test_out_of_range_number_diagnosed(self, name, value):
        with pytest.raises(ConfigError, match=name.replace(".", r"\.") + " must be"):
            parse_scenario(scenario_text({**FINITE_FIELDS, name: value}))

    @pytest.mark.parametrize(
        "fields, bound",
        [({"arrivals.rear.profile": "0:0.36", "road.speed_min_mps": "1"},
          "<= 20 expected vehicles in view, got 21.6"),
         ({"arrivals.front.profile": "0:0.2666666667", "scenario.duration_s": "28800",
           "scenario.frame_rate_hz": "60", "road.speed_min_mps": "18"},
          "frame_rate_hz x the integral over time t of rate x min(road.detection_range_m / road.speed_min_mps, "
          "duration_s - t) must be <= 3e+06 expected detections per camera, got 3.07"),
         # 60 Hz x 1/s x 120/18 s x (28800 - 10000 - 120/36) s; a rate held all day would give 1.152e+07
         ({"arrivals.front.profile": "0:0,10000:1", "scenario.duration_s": "28800",
           "scenario.frame_rate_hz": "60", "road.speed_min_mps": "18"},
          "expected detections per camera, got 7.51867e+06")],
        ids=["in-view", "detections", "detections-late-start"],
    )
    def test_work_bound_diagnosed(self, fields, bound):
        # every field is in bounds; the second holds paper-day's largest rate all day at 60 Hz
        direction = "rear" if "arrivals.rear.profile" in fields else "front"
        with pytest.raises(ConfigError, match=rf"^arrivals\.{direction}\.profile: .*{re.escape(bound)}"):
            parse_scenario(scenario_text({**FINITE_FIELDS, **fields}))

    def test_paper_day_at_60_hz_is_accepted(self):
        # its peak lasts 1,733 s of the 28,800: about 2.75e5 expected detections
        # per camera at 60 Hz, where the peak rate held all day gave 3.07e6
        text = (resources.files("roadwatch") / "scenarios" / "paper-day.cfg").read_text(encoding="utf-8")
        assert "frame_rate_hz = 30\n" in text
        assert parse_scenario(text.replace("frame_rate_hz = 30\n", "frame_rate_hz = 60\n")).frame_rate == 60.0

    def test_unknown_name_lists_builtins(self):
        with pytest.raises(ConfigError, match="paper-day"):
            load_scenario("no-such-scenario")


class TestReportArtifacts:
    def test_write_then_load_round_trip(self, tmp_path):
        scenario = make_scenario(noise=NoiseModel(center_jitter_px=2.0))
        report = run_pipeline(scenario)
        write_report(report, tmp_path)
        loaded = load_report(tmp_path)
        # the artifact holds gap, pass time and delta to 1 ms, every other field exactly
        to_ms = {"gap", "pass_time", "delta"}
        assert loaded.entries == [
            replace(e, **{k: round(getattr(e, k), 3) for k in to_ms if getattr(e, k) is not None})
            for e in report.entries
        ]
        assert audit_text(loaded) == audit_text(report)
        assert histogram_csv(loaded) == histogram_csv(report)
        assert summary_text(loaded) == summary_text(report)
        assert meta_json(loaded) == meta_json(report)

    def test_histogram_bins_the_delta_the_audit_keeps(self, tmp_path):
        # audit.jsonl writes a delta of 5.9997 s as 6.000, so simulate must
        # bin it at 6 as a loaded report does, not at 5
        scenario = make_scenario(noise=NoiseModel())
        warned_at = run_passes([single_pass()], scenario, np.random.default_rng(0)).entries[0].timestamp
        vehicle = replace(single_pass(), pass_time=warned_at + 5.9997)
        report = run_passes([vehicle], scenario, np.random.default_rng(0))
        assert report.entries[0].delta == pytest.approx(5.9997)
        write_report(report, tmp_path)
        assert report.histogram() == load_report(tmp_path).histogram() == {6: 1}

    def test_hourly_counts_list_only_hours_with_events(self):
        def record(t, decision):
            return AuditRecord(t, "front", 1, "vehicle", decision, None)

        entries = [record(10.0, "warn"), record(4 * 3600.0 + 1, "suppress"), record(4 * 3600.0 + 2, "warn"),
                   record(9 * 3600.0, "skip_class")]
        report = SimulationReport(36000.0, 10.0, 0, entries)
        assert report.hourly_counts() == [(0, 1, 1), (4, 2, 1)]
        assert summary_text(report).endswith("hourly counts\n  hour  events  warnings\n  0     1       1\n"
                                             "  4     2       1\n")
        assert summary_text(SimulationReport(36000.0, 10.0, 0, [])).endswith("warnings\n  (no events)\n")

    def test_load_missing_artifacts(self, tmp_path):
        with pytest.raises(ConfigError, match="artifacts"):
            load_report(tmp_path)

    def test_histogram_csv_shape(self):
        scenario = make_scenario(seed=5)
        report = run_pipeline(scenario)
        lines = histogram_csv(report).strip().splitlines()
        assert lines[0] == "bin_start_s,count"
        bins = [int(line.split(",")[0]) for line in lines[1:]]
        assert bins == sorted(bins)
