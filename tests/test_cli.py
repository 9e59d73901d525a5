"""End-to-end CLI tests: simulate / replay / report, devices, exit codes."""

import gc
import hashlib
import json
import multiprocessing
import os
import re
import resource
import socket
import subprocess
import sys
import threading
import time
import types
from importlib import resources

import pytest

from roadwatch import cli
from roadwatch.cli import main
from roadwatch.errors import ValidationError
from roadwatch.tracking import VehicleTracker

SCENARIO = """\
[scenario]
duration_s = 120
seed = 5
frame_rate_hz = 30

[arrivals.front]
profile = 0:0.05

[arrivals.rear]
profile = 0:0.05

[road]
speed_min_mps = 18
speed_max_mps = 30
detection_range_m = 120
occlusions =

[camera]
focal_length_px = 1000
vehicle_height_m = 1.5
image_width_px = 1280
image_height_px = 720

[noise]
center_jitter_px = 1.0
dropout_prob = 0.01
false_positive_rate = 0.0
"""


# rush-hour arrivals with no center jitter: every vehicle renders at the
# same image point, so frames with several vehicles tie on every cost and
# the assignment's tie-breaking decides the track identities
TIES_SCENARIO = """\
[scenario]
duration_s = 300
seed = 9
frame_rate_hz = 30

[arrivals.front]
profile = 0:0.2666666667

[arrivals.rear]
profile = 0:0.2666666667

[road]
speed_min_mps = 18
speed_max_mps = 30
detection_range_m = 120
occlusions =

[camera]
focal_length_px = 1000
vehicle_height_m = 1.5
image_width_px = 1280
image_height_px = 720

[noise]
center_jitter_px = 0
dropout_prob = 0.02
false_positive_rate = 0.0
"""


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "site.cfg"
    path.write_text(SCENARIO, encoding="utf-8")
    return path


def one_vehicle_line(k, cx):
    """A front-camera log line at frame k (t = k / 30) with one vehicle at (cx, 360)."""
    return (f'{{"camera":"front","frame":{k},"t":{k / 30:.3f},"dets":[{{"cx":{cx},"cy":360.0,'
            f'"w":40.0,"h":30.0,"cls":"vehicle","obj":0.95,"conf":[0.05,0.9,0.05]}}]}}\n')


def read_audit(path):
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        rec = json.loads(line)
        rows.append((rec["t"], rec["cam"], rec["track"], rec["cls"], rec["decision"], rec["gap"]))
    return rows


class TestSimulate:
    def test_empty_scenario_zero_warnings(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["simulate", "--scenario", "empty", "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "new_vehicle_events  0" in stdout
        assert "warnings            0" in stdout
        assert (out / "audit.jsonl").read_text() == ""
        assert (out / "histogram.csv").exists()
        assert (out / "summary.txt").exists()
        assert (out / "report.json").exists()

    def test_simulate_writes_artifacts(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["simulate", "--scenario", str(scenario_file), "--out", str(out)])
        assert code == 0
        meta = json.loads((out / "report.json").read_text())
        assert meta["events"] > 0
        assert meta["warnings"] > 0
        assert meta["warnings"] <= meta["events"]
        assert "run summary" in capsys.readouterr().out

    def test_same_seed_byte_identical_artifacts(self, scenario_file, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--scenario", str(scenario_file), "--seed", "9", "--out", str(out1)]) == 0
        assert main(["simulate", "--scenario", str(scenario_file), "--seed", "9", "--out", str(out2)]) == 0
        for name in ("audit.jsonl", "histogram.csv", "summary.txt", "report.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_invalid_scenario_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[scenario]\nseed = 1\n", encoding="utf-8")
        code = main(["simulate", "--scenario", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "duration_s" in capsys.readouterr().err

    def test_infinite_frame_rate_exit_2(self, scenario_file, tmp_path, capsys):
        # once an internal error (exit 3) on converting the tick count to an integer
        scenario_file.write_text(SCENARIO.replace("frame_rate_hz = 30", "frame_rate_hz = inf"), encoding="utf-8")
        assert main(["simulate", "--scenario", str(scenario_file), "--out", str(tmp_path / "o")]) == 2
        assert "scenario.frame_rate_hz must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, huge, message",
        [("frame_rate_hz = 30", "frame_rate_hz = 1e308", "scenario.frame_rate_hz must be finite, > 0 and <= "),
         ("duration_s = 120", "duration_s = 1e12", "scenario.duration_s must be finite, > 0 and <= "),
         ("profile = 0:0.05", "profile = 0:1e308",
          "arrivals.front.profile: largest rate x duration_s must be <= 1e+06 expected arrivals"),
         ("detection_range_m = 120", "detection_range_m = 1e308",
          "road.detection_range_m / road.speed_min_mps must be <= 604800 s"),
         ("image_width_px = 1280", "image_width_px = 1" + "0" * 400,
          "camera image size must be positive and at most 100000 px a side"),
         ("focal_length_px = 1000", "focal_length_px = 1e308",
          "camera.focal_length_px x camera.vehicle_height_m / road.detection_range_m"),
         ("false_positive_rate = 0.0", "false_positive_rate = 1e308",
          "noise.false_positive_rate x duration_s x frame_rate_hz must be <= 1e+06 expected"),
         ("false_positive_rate = 0.0", "false_positive_rate = 1e6",
          "noise.false_positive_rate x duration_s x frame_rate_hz must be <= 1e+06 expected")],
        ids=["frame-rate", "duration", "arrival-rate", "detection-range", "image-width", "focal-length",
             "false-positive-rate", "false-positive-hang"],
    )
    def test_huge_scenario_number_exit_2(self, scenario_file, tmp_path, capsys, line, huge, message):
        # a frame rate of 1e308 once exited 3 on the tick count, a huge
        # duration or arrival rate drew arrivals for hours, and a huge range
        # made histogram.csv list about 5e306 bins; a huge image width or
        # false-positive rate exited 3, a false-positive rate of 1e6 hung,
        # and a huge focal length wrote infinite boxes that replay rejects
        scenario_file.write_text(SCENARIO.replace(line, huge), encoding="utf-8")
        start = time.monotonic()
        assert main(["simulate", "--scenario", str(scenario_file), "--out", str(tmp_path / "o")]) == 2
        assert time.monotonic() - start < 10.0
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, misspelt, message",
        [("frame_rate_hz = 30", "frame_rate = 60", "unknown key scenario.frame_rate "),
         ("dropout_prob = 0.01", "dropout_probability = 0.5", "unknown key noise.dropout_probability "),
         ("[camera]", "[camerra]", "unknown section [camerra]")],
    )
    def test_misspelt_scenario_name_exit_2(self, scenario_file, tmp_path, capsys, line, misspelt, message):
        # each once ran on the default in its place: 30 Hz, no dropout, a 1280 px camera
        scenario_file.write_text(SCENARIO.replace(line, misspelt), encoding="utf-8")
        assert main(["simulate", "--scenario", str(scenario_file), "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_dense_scenario_exit_2_fast(self, scenario_file, tmp_path, capsys):
        # every field is in bounds, but 80 vehicles are in view at once: 8 data
        # seconds once took 16 s, and the cost grows with the cube of the duration
        dense = (SCENARIO.replace("duration_s = 120", "duration_s = 8")
                 .replace("frame_rate_hz = 30", "frame_rate_hz = 1000")
                 .replace("profile = 0:0.05", "profile = 0:10")
                 .replace("speed_min_mps = 18", "speed_min_mps = 0.01")
                 .replace("speed_max_mps = 30", "speed_max_mps = 0.01")
                 .replace("detection_range_m = 120", "detection_range_m = 1000")
                 .replace("center_jitter_px = 1.0", "center_jitter_px = 0.0")
                 .replace("dropout_prob = 0.01", "dropout_prob = 0.0"))
        scenario_file.write_text(dense, encoding="utf-8")
        start = time.monotonic()
        assert main(["simulate", "--scenario", str(scenario_file), "--out", str(tmp_path / "o")]) == 2
        assert time.monotonic() - start < 10.0
        assert "arrivals.front.profile: largest rate x min(duration_s" in capsys.readouterr().err

    def test_builtin_scenario_audit_trace_pinned(self, tmp_path, capsys):
        # digests of a known-good run: any change to tracking or flow-check
        # behaviour shows up here, not only a simulate/replay mismatch;
        # audit.jsonl re-pinned when each vehicle's draws became whole arrays
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", "occluded-curve", "--seed", "1", "--out", str(out)]) == 0
        digests = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("audit.jsonl", "report.json")
        }
        assert digests == {
            "audit.jsonl": "d27224500e78a596d6fcb63bc444630df99c26c73c65afc82d0ab09172e79361",
            "report.json": "dc36cfc2db50827fbb8b81cd662e32197265ab0f75863b4840c4bad36e7027d6",
        }

    def test_tie_heavy_audit_trace_pinned(self, tmp_path, capsys):
        # digests of a known-good run of the zero-jitter scenario: pins how
        # ties between co-located vehicles are resolved
        scenario = tmp_path / "ties.cfg"
        scenario.write_text(TIES_SCENARIO, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 0
        digests = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("audit.jsonl", "report.json")
        }
        assert digests == {
            "audit.jsonl": "f8e33e7a2079f157f00d75f4fe7276aeeb9141fc87afdaa1f6da84f816732815",
            "report.json": "95fa28b8ef0ea2cd7239ed8ac12ca04725a84a8988c1930153002fa29d4b4ae3",
        }

    def test_tie_heavy_run_leaves_scipy_optimize_unloaded(self, tmp_path):
        # a fresh process, because test_acceptance's scipy.stats import
        # loads scipy.optimize into this one. The camera workers solve the
        # frames, so each reports its own count when it is done; they start
        # where the child may use two CPUs, also on a machine with one.
        scenario = tmp_path / "ties.cfg"
        scenario.write_text(TIES_SCENARIO, encoding="utf-8")
        script = """\
import os, sys
os.sched_getaffinity = lambda pid: {0, 1}
import roadwatch.cli
from roadwatch import simulation, tracking
port, calls = tracking._linear_sum_assignment, []
tracking._linear_sum_assignment = lambda costs: calls.append(1) or port(costs)
track = simulation._track
def reporting_track(frames, trackers, *args):
    yield from track(frames, trackers, *args)
    print("worker", *trackers, len(calls), "scipy.optimize" in sys.modules)
simulation._track = reporting_track
code = roadwatch.cli.main(["simulate", "--scenario", sys.argv[1], "--out", sys.argv[2]])
print(code, len(calls), "scipy.optimize" in sys.modules)
"""
        proc = subprocess.run(
            [sys.executable, "-c", script, str(scenario), str(tmp_path / "out")],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        workers = {camera: (int(n), loaded) for _, camera, n, loaded in
                   (line.split() for line in lines if line.startswith("worker "))}
        assert lines[-1].split() == ["0", "0", "False"]  # no port call in this process
        assert sorted(workers) == ["front", "rear"]
        assert sum(n for n, _ in workers.values()) > 1000  # the conflicting frames were solved
        assert all(loaded == "False" for _, loaded in workers.values())

    def test_large_frames_leave_scipy_optimize_unloaded(self):
        # criterion 7's 50 lanes with 20 detections a frame, then one frame
        # with every detection doubled: 50 tracks by 40 detections, in conflict
        script = """\
import sys
from roadwatch import tracking
from roadwatch.detection import Detection, FrameDetections
port, calls = tracking._linear_sum_assignment, []
tracking._linear_sum_assignment = lambda costs: calls.append(len(costs) * len(costs[0])) or port(costs)
lanes = [(64.0 + 128.0 * ix, 72.0 + 144.0 * iy) for iy in range(5) for ix in range(10)]
def det(k, x, y):
    return Detection(k, x, y, 40.0, 30.0, 0.95, (0.05, 0.9, 0.05), 0.855, "vehicle")
tracker = tracking.VehicleTracker("front", tracking.TrackerConfig(confirm_hits=2, max_misses=10))
for k in range(12):
    dets = [det(k, *lanes[(k * 10 + j) % 50]) for j in range(20)]
    if k == 11:
        dets = dets * 2
    tracker.step(FrameDetections(k, k / 30.0, "front", dets))
print(len(tracker.tracks), calls, "scipy.optimize" in sys.modules)
"""
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "70 [2000] False"

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="the child pins itself to one CPU")
    def test_runs_without_a_worker_leave_multiprocessing_unloaded(self, scenario_file, tmp_path, capsys):
        # a fresh process, since pytest loads multiprocessing into this one;
        # only a run that starts a worker imports it, at the worker's start
        dump, out = tmp_path / "d.log", tmp_path / "out"
        assert main(["simulate", "--scenario", str(scenario_file), "--out", str(out),
                     "--dump-detections", str(dump)]) == 0
        script = """\
import os, sys
import roadwatch.cli
from roadwatch.detection import parse_detection_log
from roadwatch.simulation import DIRECTIONS, drive
from roadwatch.tracking import TrackerConfig, VehicleTracker
from roadwatch.warning import FlowCheckMonitor
loaded = ["multiprocessing" in sys.modules]
assert roadwatch.cli.main(["report", "--out", sys.argv[2]]) == 0
loaded.append("multiprocessing" in sys.modules)
with open(sys.argv[1], encoding="utf-8") as log:
    lines = log.readlines()
trackers = {d: VehicleTracker(d, TrackerConfig()) for d in DIRECTIONS}
frames, _ = drive(parse_detection_log(lines), trackers, FlowCheckMonitor(t_duration=10.0, start_time=0.0))
loaded.append("multiprocessing" in sys.modules)
assert roadwatch.cli.main(["replay", "--log", "/dev/stdin", "--device", "stdout"]) == 0
loaded.append("multiprocessing" in sys.modules)
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
assert roadwatch.cli.main(["simulate", "--scenario", sys.argv[3], "--out", sys.argv[4],
                           "--dump-detections", sys.argv[5]]) == 0
loaded.append("multiprocessing" in sys.modules)
print(frames, *loaded)
"""
        proc = subprocess.run([sys.executable, "-c", script, str(dump), str(out), str(scenario_file),
                               str(tmp_path / "one-cpu"), str(tmp_path / "one-cpu.log")], input=dump.read_bytes(),
                              capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.decode("utf-8").splitlines()
        assert lines[-1].split() == [str(len(dump.read_bytes().splitlines())), *["False"] * 5]
        assert f"frames              {lines[-1].split()[0]}" in lines
        assert (tmp_path / "one-cpu.log").read_bytes() == dump.read_bytes()

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="the workers need fork")
    @pytest.mark.parametrize("rule", ["one CPU", "no fork"])
    def test_one_process_run_gives_the_workers_outputs(self, rule, scenario_file, tmp_path, capsys, monkeypatch,
                                                        two_cpus, workers_started):
        def run(name):
            dump, out = tmp_path / f"{name}.log", tmp_path / name
            assert main(["simulate", "--scenario", str(scenario_file), "--dump-detections", str(dump),
                         "--device", "stdout", "--out", str(out)]) == 0
            return dump.read_bytes(), {p.name: p.read_bytes() for p in out.iterdir()}, capsys.readouterr()

        in_workers = run("workers")
        assert len(workers_started) == 2
        assert "WARN t=" in in_workers[2].out
        if rule == "one CPU":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        else:
            monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert run("here") == in_workers
        assert len(workers_started) == 2

    def test_directory_as_dump_exit_2_before_any_draw(self, tmp_path):
        # a fresh process, since pytest loads multiprocessing into this one; the
        # dump was once opened at the first frame's write, after both camera workers had started
        script = """\
import sys
import roadwatch.cli
code = roadwatch.cli.main(["simulate", "--scenario", "country-road", "--device", "stdout",
                           "--out", sys.argv[1], "--dump-detections", sys.argv[2]])
print(code, "multiprocessing" in sys.modules)
"""
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "o"), str(tmp_path)],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "Is a directory" in proc.stderr
        assert "WARN" not in proc.stdout
        assert proc.stdout.splitlines()[-1] == "2 False"

    def test_only_a_log_parse_loads_orjson(self, scenario_file, tmp_path):
        # a fresh process, since the parses of this one have loaded orjson;
        # the parser imports it at its first record, so simulate never does
        script = """\
import sys
import roadwatch.cli
from roadwatch.detection import parse_detection_log
dump = sys.argv[3]
assert roadwatch.cli.main(["simulate", "--scenario", sys.argv[1], "--out", sys.argv[2], "--dump-detections", dump]) == 0
loaded = ["orjson" in sys.modules]
with open(dump, encoding="utf-8") as log:
    frames = parse_detection_log(log.readlines())
loaded.append("orjson" in sys.modules)
next(frames)
loaded.append("orjson" in sys.modules)
print(*loaded)
"""
        proc = subprocess.run([sys.executable, "-c", script, str(scenario_file), str(tmp_path / "out"),
                               str(tmp_path / "d.log")], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False False True"

    def test_rendered_dumps_pinned(self, tmp_path, capsys):
        # country-road has jitter, dropout and false positives, and
        # occluded-curve has occlusion windows; re-pinned when each
        # vehicle's draws, and each camera's false positives, became whole
        # arrays (report.json kept its digest), and the dumps when they lost
        # their empty frames (each old dump without its "dets":[] lines)
        out, dump = tmp_path / "cr", tmp_path / "cr.log"
        assert main(["simulate", "--scenario", "country-road", "--seed", "1", "--out", str(out),
                     "--dump-detections", str(dump)]) == 0
        occluded = tmp_path / "oc.log"
        assert main(["simulate", "--scenario", "occluded-curve", "--seed", "1", "--out", str(tmp_path / "oc"),
                     "--dump-detections", str(occluded)]) == 0
        digests = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in (dump, out / "audit.jsonl", out / "report.json", occluded)
        }
        assert digests == {
            "cr.log": "05557527299da0ed39ca1cb66a8aaa0448aa2c86fc1dde47a962e85e5b132cc5",
            "audit.jsonl": "11165f4c980c0ad155e3b5662069f238a2ecf56f3af42ae2fbef1224be006643",
            "report.json": "a5efd7c13b1925adb7a242d8eba41353cdc3a6cf373243f2b44303eadb9e03f2",
            "oc.log": "3b1072be88b9666adacb1afed0f58ed4e4e85b726df76f6f95ca83d994a90c00",
        }

    def test_run_without_frames_empties_dump(self, tmp_path, capsys):
        dump = tmp_path / "d.log"
        dump.write_text("old\n", encoding="utf-8")
        assert main(["simulate", "--scenario", "empty", "--out", str(tmp_path / "o"),
                     "--dump-detections", str(dump)]) == 0
        assert dump.read_text(encoding="utf-8") == ""

    def test_unusable_out_exit_2_before_the_first_frame(self, tmp_path, capsys):
        # --out was once made after the run, so its warnings had gone out and its dump was written
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        dump = tmp_path / "d.log"
        dump.write_text("kept\n", encoding="utf-8")
        assert main(["simulate", "--scenario", "country-road", "--seed", "1", "--device", "stdout",
                     "--dump-detections", str(dump), "--out", str(blocker / "sub")]) == 2
        captured = capsys.readouterr()
        assert "Not a directory" in captured.err
        assert captured.out == ""
        assert dump.read_text(encoding="utf-8") == "kept\n"

    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_seed_of_2_to_the_64_exit_2(self, scenario_file, tmp_path, capsys, source):
        # such a seed once simulated, and report then read it back as a float and exited 2
        out = tmp_path / "o"
        if source == "flag":
            args = ["--scenario", "empty", "--seed", str(2**64)]
        else:
            scenario_file.write_text(SCENARIO.replace("seed = 5", f"seed = {2**64}"), encoding="utf-8")
            args = ["--scenario", str(scenario_file)]
        assert main(["simulate", *args, "--out", str(out)]) == 2
        assert f"scenario.seed must be >= 0 and < 2**64, got {2**64}" in capsys.readouterr().err
        assert not out.exists()

    def test_largest_seed_read_back_by_report(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["simulate", "--scenario", "empty", "--seed", str(2**64 - 1), "--out", str(out)]) == 0
        simulated = capsys.readouterr().out
        assert json.loads((out / "report.json").read_text(encoding="utf-8"))["seed"] == 2**64 - 1
        assert main(["report", "--out", str(out)]) == 0
        assert capsys.readouterr().out == simulated


def nested(depth: int) -> bytes:
    return b"[" * depth + b"]" * depth


def replay_in_child(tmp_path, data: bytes, source: str, stack: int | None = None) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``roadwatch replay`` of ``data`` in a
    child process, read from a file or a pipe, under an optional stack limit."""
    log = tmp_path / "child.log"
    log.write_bytes(data)

    def limit_stack():
        resource.setrlimit(resource.RLIMIT_STACK, (stack, resource.getrlimit(resource.RLIMIT_STACK)[1]))

    proc = subprocess.run(
        [sys.executable, "-m", "roadwatch.cli", "replay", "--device", "stdout",
         "--log", str(log) if source == "file" else "/dev/stdin"],
        input=None if source == "file" else data, capture_output=True, timeout=120,
        preexec_fn=limit_stack if stack else None,
    )
    return proc.returncode, proc.stdout.decode("utf-8"), proc.stderr.decode("utf-8")


class TestReplayEquivalence:
    def test_replay_of_dump_reproduces_warning_trace(self, scenario_file, tmp_path, capsys):
        out_sim = tmp_path / "sim"
        dump = tmp_path / "detections.log"
        assert (
            main(
                [
                    "simulate",
                    "--scenario",
                    str(scenario_file),
                    "--out",
                    str(out_sim),
                    "--dump-detections",
                    str(dump),
                ]
            )
            == 0
        )
        out_rep = tmp_path / "rep"
        assert main(["replay", "--log", str(dump), "--out", str(out_rep), "--device", "stdout"]) == 0
        sim_rows = read_audit(out_sim / "audit.jsonl")
        rep_rows = read_audit(out_rep / "audit.jsonl")
        assert sim_rows == rep_rows
        assert any(decision == "warn" for *_, decision, _ in sim_rows)
        stdout = capsys.readouterr().out
        warn_lines = [l for l in stdout.splitlines() if l.startswith("WARN ")]
        assert len(warn_lines) == sum(1 for *_, d, _ in sim_rows if d == "warn")

    def test_log_without_its_empty_frames_replays_like_the_full_log(self, tmp_path, capsys):
        # country-road seed 1 has dropout and false positives; a tracker once
        # counted a miss per log line, and its busy frames alone replayed to
        # 62 events and 43 warnings
        dump = tmp_path / "d.log"
        assert main(["simulate", "--scenario", "country-road", "--seed", "1", "--out", str(tmp_path / "sim"),
                     "--dump-detections", str(dump)]) == 0
        busy = [line for line in dump.read_text(encoding="utf-8").splitlines(keepends=True)
                if '"dets":[]' not in line]
        # the full log, as simulate once wrote it: up to three empty frames after each busy one
        records = [json.loads(line) for line in busy]
        keyed = [(record["t"], record["camera"], line) for record, line in zip(records, busy)]
        for camera in ("front", "rear"):
            ks = [record["frame"] for record in records if record["camera"] == camera]
            for k, after in zip(ks, ks[1:] + [1800 * 30]):
                for j in range(k + 1, min(k + 4, after)):
                    t = round(j * 1000 / 30) / 1000
                    keyed.append((t, camera, f'{{"camera":"{camera}","frame":{j},"t":{t:.3f},"dets":[]}}\n'))
        full, partial = tmp_path / "full.log", tmp_path / "busy.log"
        full.write_text("".join(line for *_, line in sorted(keyed, key=lambda r: r[:2])), encoding="utf-8")
        partial.write_text("".join(busy), encoding="utf-8")
        # the digest of simulate's dump before it left out empty frames
        assert hashlib.sha256(full.read_bytes()).hexdigest() == \
            "dc3705f1b5f9b7b0b6a3a4c44905ff61adaba6ffe1f36ad3d5727581fb0695ae"

        def replay(log):
            capsys.readouterr()
            out = tmp_path / log.stem
            assert main(["replay", "--log", str(log), "--device", "stdout", "--out", str(out)]) == 0
            device = [line for line in capsys.readouterr().out.splitlines() if line.startswith("WARN ")]
            return (out / "audit.jsonl").read_text(encoding="utf-8"), device

        audit, device = replay(full)
        assert replay(partial) == (audit, device)
        assert len(audit.splitlines()) == 70 and len(device) == 48
        assert read_audit(tmp_path / "full" / "audit.jsonl") == read_audit(tmp_path / "sim" / "audit.jsonl")

    def test_replay_counts_printed(self, scenario_file, tmp_path, capsys):
        dump = tmp_path / "d.log"
        main(
            ["simulate", "--scenario", str(scenario_file), "--out", str(tmp_path / "s"),
             "--dump-detections", str(dump)]
        )
        capsys.readouterr()
        assert main(["replay", "--log", str(dump), "--device", "stdout"]) == 0
        stdout = capsys.readouterr().out
        assert "frames" in stdout and "new_vehicle_events" in stdout and "warnings" in stdout

    def test_huge_t_duration_suppresses_everything(self, scenario_file, tmp_path, capsys):
        dump = tmp_path / "d.log"
        main(
            ["simulate", "--scenario", str(scenario_file), "--out", str(tmp_path / "s"),
             "--dump-detections", str(dump)]
        )
        capsys.readouterr()
        assert main(["replay", "--log", str(dump), "--t-duration", "1e9", "--device", "stdout"]) == 0
        stdout = capsys.readouterr().out
        assert "warnings            0" in stdout

    def test_long_silent_replay_writes_short_summary(self, tmp_path, capsys):
        # ten thousand hours without an event: one placeholder line, not a row per hour
        log = tmp_path / "gap.log"
        log.write_text('{"camera":"front","frame":0,"t":0.000,"dets":[]}\n'
                       '{"camera":"front","frame":1,"t":36000000.000,"dets":[]}\n', encoding="utf-8")
        out = tmp_path / "out"
        assert main(["replay", "--log", str(log), "--out", str(out), "--device", "stdout"]) == 0
        summary = (out / "summary.txt").read_text(encoding="utf-8").splitlines()
        assert len(summary) < 25
        assert summary[-3:] == ["hourly counts", "  hour  events  warnings", "  (no events)"]

    def test_per_camera_logs_joined_exit_2_at_first_rear_line(self, scenario_file, tmp_path, capsys):
        # each camera's lines in order, but the rear ones after all the front ones
        dump = tmp_path / "d.log"
        assert main(["simulate", "--scenario", str(scenario_file), "--out", str(tmp_path / "s"),
                     "--dump-detections", str(dump)]) == 0
        lines = dump.read_text(encoding="utf-8").splitlines(keepends=True)
        front = [line for line in lines if line.startswith('{"camera":"front"')]
        rear = [line for line in lines if line.startswith('{"camera":"rear"')]
        assert front and rear and len(front) + len(rear) == len(lines)
        joined = tmp_path / "joined.log"
        joined.write_text("".join(front + rear), encoding="utf-8")
        capsys.readouterr()
        out = tmp_path / "r"
        assert main(["replay", "--log", str(joined), "--device", "stdout", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert re.search(rf"^error: line {len(front) + 1}: camera rear .* the latest on any camera$",
                         captured.err, re.M)
        # the whole file is checked before the first frame is tracked
        assert captured.out == ""
        assert not out.exists()

    def test_log_from_a_pipe_is_checked_as_it_streams(self, scenario_file, tmp_path, capfd):
        # a FIFO cannot be read twice, so its front warnings go out before the bad rear line
        dump = tmp_path / "d.log"
        assert main(["simulate", "--scenario", str(scenario_file), "--out", str(tmp_path / "s"),
                     "--dump-detections", str(dump)]) == 0
        lines = dump.read_text(encoding="utf-8").splitlines(keepends=True)
        front = [line for line in lines if line.startswith('{"camera":"front"')]
        rear = [line for line in lines if line.startswith('{"camera":"rear"')]
        fifo = tmp_path / "joined.fifo"
        os.mkfifo(fifo)

        def write():
            try:
                fifo.write_text("".join(front + rear), encoding="utf-8")
            except BrokenPipeError:  # replay stops reading at the bad line
                pass

        writer = threading.Thread(target=write)
        writer.start()
        capfd.readouterr()
        try:
            assert main(["replay", "--log", str(fifo), "--device", "stdout"]) == 2
        finally:
            writer.join()
        captured = capfd.readouterr()
        assert f"error: line {len(front) + 1}: camera rear" in captured.err
        assert captured.out.startswith("WARN t=") and "cam=rear" not in captured.out

    def test_malformed_log_exit_2(self, tmp_path, capsys):
        log = tmp_path / "bad.log"
        log.write_text('{"camera":"front","frame":0,"t":0.0,"dets":[]}\ngarbage\n', encoding="utf-8")
        code = main(["replay", "--log", str(log), "--device", "stdout"])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [("cx", "NaN"), ("cy", "Infinity"), ("w", "-3.0"), ("obj", "7.0"), ("conf", "[0.05,1.5,0.05]"),
         # wrongly typed: float() would take these strings and booleans
         ("cx", '"640"'), ("cy", "true"), ("w", '"4e1"'), ("obj", '"0.95"'), ("conf", '"010"')],
    )
    def test_invalid_detection_exit_2_before_its_frame(self, tmp_path, capsys, field, value):
        fields = {
            "cx": "640.0",
            "cy": "360.0",
            "w": "40.0",
            "h": "30.0",
            "cls": '"vehicle"',
            "obj": "0.95",
            "conf": "[0.05,0.9,0.05]",
        }
        lines = []
        for k in range(4):
            raw = {**fields, field: value} if k == 2 else fields
            det = ",".join(f'"{name}":{token}' for name, token in raw.items())
            lines.append(f'{{"camera":"front","frame":{k},"t":{k / 30:.3f},"dets":[{{{det}}}]}}\n')
        log = tmp_path / "bad.log"
        log.write_text("".join(lines), encoding="utf-8")
        code = main(["replay", "--log", str(log), "--device", "stdout"])
        captured = capsys.readouterr()
        assert code == 2
        assert "line 3" in captured.err
        assert "frames" not in captured.out

    @pytest.mark.parametrize(
        "bad_line",
        [
            b"\xff\xfe",
            b'{"camera":"front","frame":1,"t":1' + b"0" * 400 + b',"dets":[]}',
            b'{"camera":"front","frame":1,"t":0.1,"dets":[{"cx":1' + b"0" * 400
            + b',"cy":1.0,"w":1.0,"h":1.0,"cls":"vehicle","obj":0.9,"conf":[0.1,0.8,0.1]}]}',
            b"[" * 100_000 + b"]" * 100_000,
            b'{"camera":"front","frame":1,"t":0.1,"dets":[]}{}',
            b'{"camera":"front","frame":1,"t":0.1,"dets":[]} x',
            b"[]",
            b'"front"',
            b"1.5",
            b"null",
            b'\xef\xbb\xbf{"camera":"front","frame":1,"t":0.1,"dets":[]}',
        ],
        ids=["not-utf8", "huge-int-timestamp", "huge-int-box-field", "deep-nesting",
             "trailing-object", "trailing-token", "array", "string", "number", "null", "bom"],
    )
    def test_undecodable_line_exit_2(self, tmp_path, capsys, bad_line):
        log = tmp_path / "bad.log"
        log.write_bytes(b'{"camera":"front","frame":0,"t":0.000,"dets":[]}\n' + bad_line + b"\n")
        code = main(["replay", "--log", str(log), "--device", "stdout"])
        captured = capsys.readouterr()
        assert code == 2
        assert "error: line 2: " in captured.err
        assert "frames" not in captured.out

    def test_invalid_utf8_line_named(self, tmp_path, capsys):
        # orjson's own reason for these bytes speaks of surrogates
        log = tmp_path / "bad.log"
        log.write_bytes(b'{"camera":"front","frame":0,"t":0.000,"dets":[]}\n\xff\xfe\n')
        code = main(["replay", "--log", str(log), "--device", "stdout"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.endswith("error: line 2: malformed record: not valid UTF-8\n")
        assert captured.out == ""

    @pytest.mark.parametrize("frame, code", [(2**63 - 1, 0), (2**63, 2), (2**64, 2)])
    def test_frame_index_bound(self, tmp_path, capsys, frame, code):
        # a track stores frame indices as signed 64-bit integers
        det = ('{"cx":640.0,"cy":360.0,"w":40.0,"h":30.0,"cls":"vehicle","obj":0.9500,'
               '"conf":[0.0500,0.9000,0.0500]}')
        log = tmp_path / "big.log"
        log.write_text(
            f'{{"camera":"front","frame":{2**63 - 2},"t":0.000,"dets":[{det}]}}\n'
            f'{{"camera":"front","frame":{frame},"t":0.033,"dets":[{det}]}}\n',
            encoding="utf-8",
        )
        assert main(["replay", "--log", str(log), "--device", "stdout"]) == code
        captured = capsys.readouterr()
        if code == 2:
            # orjson gives an integer of 2**64 or more as a float
            shown = frame if frame < 2**64 else float(frame)
            assert f"error: line 2: bad frame index {shown!r}" in captured.err
            assert "frames" not in captured.out
        else:
            assert "new_vehicle_events  1\n" in captured.out

    @pytest.mark.parametrize("source", ["file", "pipe"])
    def test_deep_line_exit_2_in_a_process_of_its_own(self, scenario_file, tmp_path, capsys, source):
        # orjson recurses on the C stack with no limit of its own: a line this
        # deep once ended replay with SIGSEGV, after the warnings before it
        dump = tmp_path / "d.log"
        assert main(["simulate", "--scenario", str(scenario_file), "--out", str(tmp_path / "s"),
                     "--dump-detections", str(dump)]) == 0
        capsys.readouterr()
        data = dump.read_bytes() + b'{"camera":"front","frame":0,"t":1e9,"dets":[],"x":' + nested(200_000) + b"}\n"
        lineno = data.count(b"\n")
        code, out, err = replay_in_child(tmp_path, data, source)
        assert code == 2, err
        assert err.endswith(f"error: line {lineno}: malformed record: nested deeper than 512\n")
        # a file is checked in full before the first warning goes out; a pipe streams
        if source == "file":
            assert out == ""
        else:
            assert out.startswith("WARN t=")

    @pytest.mark.parametrize("source", ["file", "pipe"])
    def test_deep_line_exit_2_on_a_small_stack(self, tmp_path, source):
        # orjson overflowed a 256 KiB stack between 3,000 and 4,900 levels
        data = b'{"camera":"front","frame":0,"t":0,"dets":[]}\n{"camera":"front","frame":1,"t":1,"dets":[],"x":'
        code, out, err = replay_in_child(tmp_path, data + nested(5_000) + b"}\n", source, stack=256 * 1024)
        assert code == 2, err
        assert err.endswith("error: line 2: malformed record: nested deeper than 512\n")

    def test_step_that_raises_stops_the_parse_helper(self, tmp_path, capsys, monkeypatch, two_cpus):
        # the log passes the pre-scan, and the step of line 1001 raises; with
        # the collector off, the helper is stopped only if replay closes the
        # parse itself
        step = VehicleTracker.step

        def failing_step(tracker, frame):
            if frame.frame_index == 1000:
                raise ValidationError("step failed at frame 1000")
            return step(tracker, frame)

        monkeypatch.setattr(VehicleTracker, "step", failing_step)
        log = tmp_path / "long.log"
        log.write_text("".join(one_vehicle_line(k, "640.0") for k in range(2000)), encoding="utf-8")
        gc.disable()
        try:
            code = main(["replay", "--log", str(log), "--device", "stdout"])
            left = [p.name for p in multiprocessing.active_children()]
        finally:
            gc.enable()
        assert code == 2
        assert left == []
        assert "error: step failed at frame 1000" in capsys.readouterr().err

    def test_overflowing_distance_is_out_of_gate(self, tmp_path, capsys):
        # the distance from a track at 1e308 to a detection at -1e308
        # overflows to infinity: out of gate, as any far detection is, where
        # replay once exited 2 after its first warning. The second vehicle
        # meets the first one's track alone, then beside its own.
        cxs = ["1e308"] * 5 + ["-1e308"] * 5
        log = tmp_path / "overflow.log"
        log.write_text("".join(one_vehicle_line(600 + k, cx) for k, cx in enumerate(cxs)), encoding="utf-8")
        assert main(["replay", "--log", str(log), "--device", "stdout"]) == 0
        captured = capsys.readouterr()
        assert [line.split()[:2] for line in captured.out.splitlines() if line.startswith("WARN")] == \
            [["WARN", "t=20.033"]]
        assert "new_vehicle_events  2\n" in captured.out
        assert captured.err == ""

    def test_narrow_camera_replay_gives_simulate_audit(self, tmp_path, capsys):
        # country-road on a 320 px camera with 12 px of jitter: simulate once
        # scaled its gate to the width (18.75 px) and gave 1,003 new-vehicle
        # events, where a replay of its dump, at the default 75 px, gave 73
        text = (resources.files("roadwatch") / "scenarios" / "country-road.cfg").read_text(encoding="utf-8")
        text = text.replace("image_width_px = 1280", "image_width_px = 320")
        text = text.replace("center_jitter_px = 2.0", "center_jitter_px = 12")
        scenario = tmp_path / "narrow.cfg"
        scenario.write_text(text, encoding="utf-8")
        dump = tmp_path / "d.log"
        assert main(["simulate", "--scenario", str(scenario), "--seed", "1", "--out", str(tmp_path / "sim"),
                     "--dump-detections", str(dump)]) == 0
        assert main(["replay", "--log", str(dump), "--out", str(tmp_path / "rep"), "--device", "stdout"]) == 0
        sim_rows = read_audit(tmp_path / "sim" / "audit.jsonl")
        assert read_audit(tmp_path / "rep" / "audit.jsonl") == sim_rows
        assert len(sim_rows) == 73

    def test_replay_report_artifacts_pinned(self, tmp_path, capsys):
        # digests taken before replay shared simulate's drive() and report
        # builder: a replay report has seed 0, the last frame's timestamp as
        # its duration, and no ground-truth match on any entry; report.json
        # and summary.txt were re-pinned when spurious_warnings became null
        # and n/a for a report without ground truth
        scenario = tmp_path / "ties.cfg"
        scenario.write_text(TIES_SCENARIO, encoding="utf-8")
        dump = tmp_path / "d.log"
        assert main(["simulate", "--scenario", str(scenario), "--out", str(tmp_path / "sim"),
                     "--dump-detections", str(dump)]) == 0
        out = tmp_path / "rep"
        assert main(["replay", "--log", str(dump), "--out", str(out), "--device", "stdout"]) == 0
        digests = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("audit.jsonl", "report.json", "summary.txt", "histogram.csv")
        }
        assert digests == {
            "audit.jsonl": "696a815002edc75a094d976186cdb817a7151c9dc4f8f69533d0c987633404f6",
            "report.json": "75da9cf03ee6da72fac49233b3574d62ac68a61bd3ecf9c12519a31e257e26d5",
            "summary.txt": "046ba5424e8cbbea5c63006c9bae7252b7822f4c65c27ba4b7c825ee263b926c",
            "histogram.csv": "1d5109d521cc662255c06f1510965403c837698bdd3073a19a1d1c5214a46ce6",
        }

    def test_replay_report_has_no_spurious_count(self, scenario_file, tmp_path, capsys):
        # a replay has no ground truth, so it cannot call a warning spurious
        dump = tmp_path / "d.log"
        main(["simulate", "--scenario", str(scenario_file), "--out", str(tmp_path / "sim"),
              "--dump-detections", str(dump)])
        out = tmp_path / "rep"
        assert main(["replay", "--log", str(dump), "--out", str(out), "--device", "stdout"]) == 0
        capsys.readouterr()
        assert '"spurious_warnings":null,' in (out / "report.json").read_text(encoding="utf-8")
        summary = (out / "summary.txt").read_text(encoding="utf-8")
        assert "  spurious_warnings   n/a\n" in summary
        assert main(["report", "--out", str(out)]) == 0
        assert capsys.readouterr().out == summary
        assert '"spurious_warnings":0,' in (tmp_path / "sim" / "report.json").read_text(encoding="utf-8")

    def test_unusable_out_exit_2_before_the_first_frame(self, tmp_path, capsys, monkeypatch):
        # --out was once made after the replay, so its warnings had gone out
        dump = tmp_path / "d.log"
        assert main(["simulate", "--scenario", "country-road", "--seed", "1", "--out", str(tmp_path / "s"),
                     "--dump-detections", str(dump)]) == 0
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        steps = []
        step = VehicleTracker.step

        def counting_step(self, frame):
            steps.append(frame.frame_index)
            return step(self, frame)

        monkeypatch.setattr(VehicleTracker, "step", counting_step)
        capsys.readouterr()
        assert main(["replay", "--log", str(dump), "--device", "stdout", "--out", str(blocker / "sub")]) == 2
        captured = capsys.readouterr()
        assert "Not a directory" in captured.err
        assert captured.out == ""
        assert steps == []

    def test_timestamp_below_0_exit_2_with_its_line(self, tmp_path, capsys):
        # the monitor's timer starts at 0, so this log once exited 2 naming no line
        log = tmp_path / "early.log"
        log.write_text("".join(one_vehicle_line(k, "640.0").replace(f'"t":{k / 30:.3f}', f'"t":{k / 10 - 3:.3f}')
                               for k in range(6)), encoding="utf-8")
        assert main(["replay", "--log", str(log), "--device", "stdout"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: line 1: camera front timestamp -3.000 must be at least 0\n"
        assert captured.out == ""

    @pytest.mark.parametrize("second", [5, 3])
    def test_frame_index_not_after_the_last_exit_2_with_its_line(self, tmp_path, capsys, second):
        # a vehicle at frame 5, then at a later time at frame 5 or 3; both lines once passed and confirmed it
        log = tmp_path / "index.log"
        later = one_vehicle_line(6, "640.0").replace('"frame":6', f'"frame":{second}')
        log.write_text(one_vehicle_line(5, "640.0") + later, encoding="utf-8")
        assert main(["replay", "--log", str(log), "--device", "stdout"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: line 2: camera front frame index {second} not after previous 5\n"
        assert captured.out == ""

    def test_integer_times_one_double_apart_exit_2_with_their_line(self, tmp_path, capsys):
        # 2**53 and 2**53 + 1 are one double: the check once passed them as ints, a warning
        # went out, and then the tracker stopped the run without naming the line
        log = tmp_path / "ints.log"
        log.write_text(one_vehicle_line(600, "640.0") + one_vehicle_line(601, "640.0")
                       + f'{{"camera":"front","frame":602,"t":{2**53},"dets":[]}}\n'
                       + f'{{"camera":"front","frame":603,"t":{2**53 + 1},"dets":[]}}\n', encoding="utf-8")
        assert main(["replay", "--log", str(log), "--device", "stdout"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: line 4: camera front timestamp {2**53}.000 not after previous {2**53}.000\n"
        assert captured.out == ""

    def test_directory_as_log_exit_2(self, tmp_path, capsys):
        assert main(["replay", "--log", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err


class TestDevices:
    def test_udp_device_receives_datagrams(self, scenario_file, tmp_path):
        receiver = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        receiver.bind(("127.0.0.1", 0))
        receiver.settimeout(5.0)
        port = receiver.getsockname()[1]

        dump = tmp_path / "d.log"
        out = tmp_path / "s"
        main(["simulate", "--scenario", str(scenario_file), "--out", str(out),
              "--dump-detections", str(dump)])
        warnings = json.loads((out / "report.json").read_text())["warnings"]
        assert warnings > 0

        assert main(["replay", "--log", str(dump), "--device", f"udp:127.0.0.1:{port}"]) == 0
        received = []
        for _ in range(warnings):
            data, _ = receiver.recvfrom(4096)
            received.append(data.decode())
        receiver.close()
        assert len(received) == warnings
        assert all(msg.startswith("WARN t=") for msg in received)

    @pytest.mark.parametrize("host", ["nonexistent.invalid", "a" * 64 + ".invalid"])
    @pytest.mark.parametrize("mode", ["simulate", "replay"])
    def test_unresolvable_udp_host_exit_2(self, scenario_file, tmp_path, capsys, monkeypatch, mode, host):
        # the host is resolved once, when the device opens. The resolver is
        # stubbed to answer as it does for a name under .invalid, so the test
        # sends no query; a 64-letter label fails its IDNA encoding, before
        # any query
        real_getaddrinfo = socket.getaddrinfo

        def getaddrinfo(host, *args, **kwargs):
            if host == "nonexistent.invalid":
                raise socket.gaierror(socket.EAI_NONAME, "Name or service not known")
            return real_getaddrinfo(host, *args, **kwargs)

        monkeypatch.setattr(socket, "getaddrinfo", getaddrinfo)
        log, dump, out = tmp_path / "one.log", tmp_path / "d.log", tmp_path / "o"
        log.write_text(one_vehicle_line(0, "640.0"), encoding="utf-8")
        source = (["--scenario", str(scenario_file), "--dump-detections", str(dump)]
                  if mode == "simulate" else ["--log", str(log)])
        code = main([mode, *source, "--out", str(out), "--device", f"udp:{host}:9"])
        captured = capsys.readouterr()
        assert code == 2
        assert f"cannot resolve device host {host!r}" in captured.err
        assert "frames" not in captured.out and "run summary" not in captured.out
        assert not out.exists()
        assert not dump.exists()

    @pytest.mark.parametrize("port", ["0", "99999", "-1"])
    def test_udp_port_out_of_range_exit_2(self, tmp_path, capsys, port):
        log = tmp_path / "d.log"
        log.write_text('{"camera":"front","frame":0,"t":0.000,"dets":[]}\n', encoding="utf-8")
        code = main(["replay", "--log", str(log), "--device", f"udp:127.0.0.1:{port}"])
        captured = capsys.readouterr()
        assert code == 2
        assert "port must be 1-65535" in captured.err
        assert "frames" not in captured.out


class FakeDevice:
    def __init__(self):
        self.lines = []
        self.closed = False

    def send(self, line):
        self.lines.append(line)

    def close(self):
        self.closed = True


class TestDeviceClosed:
    @pytest.fixture
    def devices(self, monkeypatch):
        opened = []

        def open_device(spec):
            opened.append(FakeDevice())
            return opened[-1]

        monkeypatch.setattr("roadwatch.cli.open_device", open_device)
        return opened

    def test_closed_after_simulate_and_replay(self, scenario_file, tmp_path, capsys, devices):
        dump = tmp_path / "d.log"
        assert main(["simulate", "--scenario", str(scenario_file), "--out", str(tmp_path / "s"),
                     "--device", "stdout", "--dump-detections", str(dump)]) == 0
        assert main(["replay", "--log", str(dump), "--device", "stdout"]) == 0
        simulated, replayed = devices
        assert simulated.lines and replayed.lines == simulated.lines
        assert simulated.closed and replayed.closed

    def test_closed_after_bad_line(self, tmp_path, capsys, devices):
        log = tmp_path / "bad.log"
        log.write_text('{"camera":"front","frame":0,"t":0.000,"dets":[]}\ngarbage\n', encoding="utf-8")
        assert main(["replay", "--log", str(log), "--device", "stdout"]) == 2
        (device,) = devices
        assert device.closed


class TestReport:
    def test_report_renders_same_summary(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "out"
        main(["simulate", "--scenario", str(scenario_file), "--out", str(out)])
        sim_stdout = capsys.readouterr().out
        assert main(["report", "--out", str(out)]) == 0
        rep_stdout = capsys.readouterr().out
        assert rep_stdout == sim_stdout

    def test_report_twice_identical(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "out"
        main(["simulate", "--scenario", str(scenario_file), "--out", str(out)])
        capsys.readouterr()
        assert main(["report", "--out", str(out)]) == 0
        first = capsys.readouterr().out
        assert main(["report", "--out", str(out)]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_missing_artifacts_exit_2(self, tmp_path, capsys):
        assert main(["report", "--out", str(tmp_path / "nothing")]) == 2

    @pytest.mark.parametrize(
        "name, damage, message",
        [
            ("audit.jsonl", lambda text: text[:-20], "audit.jsonl line "),
            (
                "audit.jsonl",
                lambda text: text.replace('"decision"', '"decided"', 1),
                "audit.jsonl line 1:",
            ),
            ("report.json", lambda text: text[:-10], "report.json: "),
            ("report.json", lambda text: text.replace('"seed"', '"sead"'), "report.json: "),
            (
                "audit.jsonl",
                lambda text: re.sub(r'"delta":[^}]*', '"delta":"x"', text, count=1),
                "audit.jsonl line 1: malformed record: delta must be a number or null",
            ),
            (
                "audit.jsonl",
                lambda text: re.sub(r'"delta":[^}]*', '"delta":Infinity', text, count=1),
                "audit.jsonl line 1: malformed record: unexpected character",
            ),
            (
                "audit.jsonl",
                lambda text: re.sub(r'"t":[^,]*', '"t":"x"', text, count=1),
                "audit.jsonl line 1: malformed record: t must be a number",
            ),
            (
                "report.json",
                lambda text: re.sub(r'"duration_s":[^,]*', '"duration_s":"x"', text),
                "report.json: malformed report metadata: duration_s must be a number",
            ),
            ("report.json", lambda text: "[" * 100_000 + "]" * 100_000, "report.json: "),
            (
                # the log parser's nesting rule: the stack does not decide
                "audit.jsonl",
                lambda text: text.replace('{"t"', '{"x":' + "[" * 600 + "]" * 600 + ',"t"', 1),
                "audit.jsonl line 1: malformed record: nested deeper than 512",
            ),
            (
                "audit.jsonl",
                lambda text: re.sub(r'"cam":"\w*"', '"cam":"side"', text, count=1),
                "audit.jsonl line 1: malformed record: cam must be one of front, rear, got 'side'",
            ),
            (
                "audit.jsonl",
                lambda text: re.sub(r'"cls":"\w*"', '"cls":"bus"', text, count=1),
                "audit.jsonl line 1: malformed record: cls must be one of truck, vehicle, pedestrian",
            ),
            (
                "audit.jsonl",
                lambda text: re.sub(r'"decision":"\w*"', '"decision":"bogus"', text, count=1),
                "audit.jsonl line 1: malformed record: decision must be one of warn, suppress, skip_class",
            ),
        ],
        ids=["truncated-audit", "audit-missing-key", "truncated-meta", "meta-missing-key",
             "audit-str-delta", "audit-infinite-delta", "audit-str-timestamp", "meta-str-duration",
             "meta-deep-nesting", "audit-deep-nesting", "audit-unknown-camera", "audit-unknown-class",
             "audit-unknown-decision"],
    )
    def test_damaged_artifacts_exit_2(self, scenario_file, tmp_path, capsys, name, damage, message):
        out = tmp_path / "out"
        main(["simulate", "--scenario", str(scenario_file), "--out", str(out)])
        capsys.readouterr()
        path = out / name
        path.write_text(damage(path.read_text(encoding="utf-8")), encoding="utf-8")
        assert main(["report", "--out", str(out)]) == 2
        assert message in capsys.readouterr().err


class TestFlags:
    def test_pace_realtime_sleeps_to_data_time(self, tmp_path, capsys):
        import time

        log = tmp_path / "slow.log"
        log.write_text(
            '{"camera":"front","frame":0,"t":0.000,"dets":[]}\n'
            '{"camera":"front","frame":6,"t":0.200,"dets":[]}\n',
            encoding="utf-8",
        )
        start = time.perf_counter()
        assert main(["replay", "--log", str(log), "--pace-realtime", "--device", "stdout"]) == 0
        assert time.perf_counter() - start >= 0.15

    def test_pace_realtime_sleeps_at_most_a_day_at_a_time(self, tmp_path, capsys, monkeypatch):
        # one sleep of a gap past 9.3e9 s once overflowed time_t, and the replay exited 3
        clock, sleeps = [0.0], []

        def sleep(seconds):
            sleeps.append(seconds)
            clock[0] += seconds

        monkeypatch.setattr(cli, "time", types.SimpleNamespace(monotonic=lambda: clock[0], sleep=sleep))
        log = tmp_path / "slow.log"
        log.write_text(
            '{"camera":"front","frame":0,"t":0.000,"dets":[]}\n'
            '{"camera":"front","frame":6,"t":259200.500,"dets":[]}\n',
            encoding="utf-8",
        )
        assert main(["replay", "--log", str(log), "--pace-realtime", "--device", "stdout"]) == 0
        assert sleeps == [86400.0, 86400.0, 86400.0, 0.5]

    def test_tracker_flags_reach_simulate(self, scenario_file, tmp_path, capsys):
        def events(name, *flags):
            out, dump = tmp_path / name, tmp_path / f"{name}.log"
            argv = ["simulate", "--scenario", str(scenario_file), "--out", str(out),
                    "--dump-detections", str(dump), *flags]
            assert main(argv) == 0
            return json.loads((out / "report.json").read_text())["events"], dump.read_bytes()

        default, default_dump = events("default")
        assert default > 0
        assert events("confirm", "--confirm-hits", "1000000")[0] == 0
        assert events("gate", "--gate", "0.001")[0] < default
        # one miss ends a track; the dump holds the rendered frames, whatever the tracker's flags
        short_lived, dump = events("misses", "--max-misses", "1")
        assert short_lived > default and dump == default_dump

    def test_replay_of_default_dump_gives_simulate_trace_at_its_max_misses(self, scenario_file, tmp_path, capsys):
        # a replay once counted a miss per log line, and the dump held only
        # as many empty frames after a busy one as simulate's --max-misses
        def simulate(name, *flags):
            assert main(["simulate", "--scenario", str(scenario_file), "--out", str(tmp_path / name),
                         "--dump-detections", str(tmp_path / f"{name}.log"), *flags]) == 0
            return read_audit(tmp_path / name / "audit.jsonl")

        simulate("default")
        six = simulate("six", "--max-misses", "6")
        assert main(["replay", "--log", str(tmp_path / "default.log"), "--max-misses", "6",
                     "--out", str(tmp_path / "rep"), "--device", "stdout"]) == 0
        assert read_audit(tmp_path / "rep" / "audit.jsonl") == six

    def test_tracker_flags_reach_replay(self, scenario_file, tmp_path, capsys):
        dump = tmp_path / "d.log"
        main(["simulate", "--scenario", str(scenario_file), "--out", str(tmp_path / "s"),
              "--dump-detections", str(dump)])
        capsys.readouterr()

        def events(*flags):
            assert main(["replay", "--log", str(dump), "--device", "stdout", *flags]) == 0
            return int(re.search(r"new_vehicle_events +(\d+)", capsys.readouterr().out).group(1))

        default = events()
        assert default > 0
        assert events("--confirm-hits", "1000000") == 0
        assert events("--gate", "0.001") < default
        # a track that never dies takes in the next vehicle inside the gate
        assert events("--max-misses", "1000000") < default

    @pytest.mark.parametrize("mode, flags, message", [
        pytest.param(mode, flags, message, id=f"{mode} {flags[0]}={flags[1]}") for mode, flags, message in [
            ("simulate", ["--seed", str(2**64)], f"scenario.seed must be >= 0 and < 2**64, got {2**64}"),
            ("simulate", ["--scenario", "nope"], "scenario 'nope' is neither a file nor a builtin"),
            ("replay", ["--log", "none.log"], "No such file or directory"),
            *((mode, *case) for mode in ("simulate", "replay") for case in [
                (["--t-duration", "nan"], "t_duration must be finite and > 0, got nan"),
                (["--t-duration", "0"], "t_duration must be finite and > 0, got 0.0"),
                (["--gate", "0"], "gate_distance must be > 0 and finite, got 0.0"),
                (["--confirm-hits", "0"], "confirm_hits must be >= 1, got 0"),
                (["--max-misses", "0"], "max_misses must be >= 1, got 0"),
                (["--device", "bogus"], "unknown device 'bogus'"),
            ]),
        ]
    ])
    def test_bad_flag_exit_2_before_the_run_acts(self, tmp_path, capsys, monkeypatch, mode, flags, message):
        # a bad --seed or --t-duration once exited 2 after --out was made, and a
        # bad --t-duration once after the dump was handed to the run. The log
        # warns at its first vehicle; simulate's dump is that log, kept as it was
        monkeypatch.chdir(tmp_path)
        log = tmp_path / "d.log"
        log.write_text("".join(one_vehicle_line(k, "640.0") for k in range(600, 606)), encoding="utf-8")
        kept = log.read_bytes()
        source = ["--scenario", "country-road", "--dump-detections"] if mode == "simulate" else ["--log"]
        # a later flag overrides an earlier one, so a case can replace the source or the device
        assert main([mode, *source, "d.log", "--device", "stdout", "--out", "o", *flags]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "WARN" not in captured.out
        assert not (tmp_path / "o").exists()
        assert log.read_bytes() == kept

    @pytest.mark.parametrize("mode", ["simulate", "replay"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_gate_exit_2(self, scenario_file, tmp_path, capsys, mode, value):
        # a nan gate once tracked a whole log into 0 events and exited 0
        log = tmp_path / "one.log"
        log.write_text(one_vehicle_line(0, "640.0"), encoding="utf-8")
        source = ["--scenario", str(scenario_file)] if mode == "simulate" else ["--log", str(log)]
        out = tmp_path / "o"
        assert main([mode, *source, "--out", str(out), "--device", "stdout", "--gate", value]) == 2
        assert f"gate_distance must be > 0 and finite, got {value}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode, value", [("simulate", "nan"), ("replay", "inf")])
    def test_non_finite_t_duration_exit_2(self, scenario_file, tmp_path, capsys, mode, value):
        # nan once exited 0 and wrote "t_duration_s":nan, which report then could not read
        log = tmp_path / "one.log"
        log.write_text('{"camera":"front","frame":0,"t":0.000,"dets":[]}\n', encoding="utf-8")
        dump = tmp_path / "dump.log"
        source = (["--scenario", str(scenario_file), "--dump-detections", str(dump)]
                  if mode == "simulate" else ["--log", str(log)])
        out = tmp_path / "o"
        assert main([mode, *source, "--out", str(out), "--device", "stdout", "--t-duration", value]) == 2
        captured = capsys.readouterr()
        assert f"t_duration must be finite and > 0, got {value}" in captured.err
        assert "WARN" not in captured.out
        assert not out.exists()
        assert not dump.exists()

    def test_log_level_env_accepted(self, scenario_file, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("ROADWATCH_LOG_LEVEL", "DEBUG")
        out = tmp_path / "o"
        assert main(["simulate", "--scenario", "empty", "--out", str(out)]) == 0

    @pytest.mark.parametrize("value, shown", [("info", True), ("basic_format", False), ("loud", False)])
    def test_log_level_env_takes_only_level_names(self, tmp_path, value, shown):
        # a fresh process, because logging is configured once per process;
        # BASIC_FORMAT names logging's format string, and once made the run exit 1
        proc = subprocess.run(
            [sys.executable, "-m", "roadwatch.cli", "simulate", "--scenario", "empty", "--out", str(tmp_path / "o")],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "ROADWATCH_LOG_LEVEL": value},
        )
        assert proc.returncode == 0, proc.stderr
        assert ("INFO roadwatch: simulated" in proc.stderr) == shown
        assert "Traceback" not in proc.stderr


class TestConsoleScript:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "o"
        proc = subprocess.run(
            [sys.executable, "-m", "roadwatch.cli", "simulate", "--scenario", "empty",
             "--out", str(out)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert "run summary" in proc.stdout
