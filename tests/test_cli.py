"""End-to-end CLI tests: simulate / replay / report, devices, exit codes."""

import hashlib
import json
import socket
import subprocess
import sys

import pytest

from roadwatch.cli import main

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


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "site.cfg"
    path.write_text(SCENARIO, encoding="utf-8")
    return path


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

    def test_builtin_scenario_audit_trace_pinned(self, tmp_path, capsys):
        # digests of a known-good run: any change to tracking or flow-check
        # behaviour shows up here, not only a simulate/replay mismatch
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", "occluded-curve", "--seed", "1", "--out", str(out)]) == 0
        digests = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("audit.jsonl", "report.json")
        }
        assert digests == {
            "audit.jsonl": "51ed1f57e24818dccd29c0f911c1668dad71a83def4e966aa98b5c23af71d07f",
            "report.json": "dc36cfc2db50827fbb8b81cd662e32197265ab0f75863b4840c4bad36e7027d6",
        }

    def test_unknown_scenario_exit_2(self, tmp_path, capsys):
        code = main(["simulate", "--scenario", "nope", "--out", str(tmp_path / "o")])
        assert code == 2


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

    def test_malformed_log_exit_2(self, tmp_path, capsys):
        log = tmp_path / "bad.log"
        log.write_text('{"camera":"front","frame":0,"t":0.0,"dets":[]}\ngarbage\n', encoding="utf-8")
        code = main(["replay", "--log", str(log), "--device", "stdout"])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [("cx", "NaN"), ("cy", "Infinity"), ("w", "-3.0"), ("obj", "7.0"), ("conf", "[0.05,1.5,0.05]")],
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

    def test_missing_log_exit_2(self, tmp_path):
        assert main(["replay", "--log", str(tmp_path / "none.log")]) == 2


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

    def test_bad_device_spec_exit_2(self, scenario_file, tmp_path, capsys):
        code = main(["simulate", "--scenario", str(scenario_file), "--out",
                     str(tmp_path / "o"), "--device", "serial:/dev/ttyS0"])
        assert code == 2


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

    def test_log_level_env_accepted(self, scenario_file, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("ROADWATCH_LOG_LEVEL", "DEBUG")
        out = tmp_path / "o"
        assert main(["simulate", "--scenario", "empty", "--out", str(out)]) == 0


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
