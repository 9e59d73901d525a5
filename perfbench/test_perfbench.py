"""Tests of the benchmark's own pieces: oracle, generators, log form.

    python3 -m pytest perfbench -q
"""

import io
import itertools
import math
import sys
from collections import defaultdict
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from roadwatch.detection import parse_detection_log, write_detection_log  # noqa: E402

import gen  # noqa: E402
import oracle  # noqa: E402


# --- debounce oracle -----------------------------------------------------------


def test_debounce_hand_worked_sequence():
    events = [
        (5.0, "vehicle"),      # 5.0 s since start: suppress
        (15.0, "vehicle"),     # exactly 10.0 s: not strictly more, suppress
        (25.5, "truck"),       # 10.5 s: warn
        (26.0, "pedestrian"),  # skipped, gap keeps running from 25.5
        (36.0, "vehicle"),     # 10.5 s since 25.5 (not 10.0 since 26.0): warn
        (36.0, "vehicle"),     # same instant: suppress
    ]
    assert oracle.debounce(events) == [
        ("suppress", 5.0),
        ("suppress", 10.0),
        ("warn", 10.5),
        ("skip_class", None),
        ("warn", 10.5),
        ("suppress", 0.0),
    ]


def test_debounce_first_event_measures_from_start():
    assert oracle.debounce([(10.0, "truck")]) == [("suppress", 10.0)]
    assert oracle.debounce([(10.25, "truck")]) == [("warn", 10.25)]
    assert oracle.debounce([(12.0, "truck")], start=2.0) == [("suppress", 10.0)]


def test_debounce_steady_traffic_stays_silent():
    events = [(11.0 + 9.5 * i, "vehicle") for i in range(20)]
    decisions = [d for d, _ in oracle.debounce(events)]
    assert decisions == ["warn"] + ["suppress"] * 19


def test_check_flow_flags_wrong_decisions_and_device_lines():
    audit = [(12.0, "front", 1, "vehicle", "warn", 12.0), (30.0, "rear", 4, "truck", "warn", 18.0)]
    lines = ["WARN t=12.000 cam=front track=1 gap=12.0\n", "WARN t=30.000 cam=rear track=4 gap=18.0\n"]
    assert oracle.check_flow(audit, lines) == []
    assert oracle.check_flow(audit, lines[:1])
    wrong = [audit[0], (30.0, "rear", 4, "truck", "suppress", 18.0)]
    assert oracle.check_flow(wrong, lines[:1])


# --- generators ------------------------------------------------------------------


@pytest.mark.parametrize("grid", [gen.DAY_GRID, gen.DENSE_GRID])
def test_slots_are_farther_apart_than_the_gate(grid):
    slots = grid.slots()
    closest = min(math.dist(a, b) for a, b in itertools.combinations(slots, 2))
    assert closest - 2 * math.hypot(grid.jitter_px, grid.jitter_px) > gen.GATE_PX
    for index, (x, y) in enumerate(slots):
        assert grid.slot_of(x + grid.jitter_px, y - grid.jitter_px) == index


def assert_slots_rest(truth, max_misses):
    by_slot = defaultdict(list)
    for g in truth:
        by_slot[(g.camera, g.slot)].append((g.first_tick, g.last_tick))
    for spans in by_slot.values():
        spans.sort()
        for (_, last), (first, _) in zip(spans, spans[1:]):
            assert first - last > max_misses + 1


def assert_frame_apart(grid, camera, tick, centers, owners):
    for (ax, ay), (bx, by) in itertools.combinations(centers, 2):
        assert math.hypot(ax - bx, ay - by) > gen.GATE_PX
    for cx, cy in centers:
        assert owners.owner(camera, tick, cx, cy) is not None


@pytest.fixture(scope="module")
def replay_day_log(tmp_path_factory):
    path = tmp_path_factory.mktemp("replay-day") / "replay-day.log"
    truth = gen.replay_day(7, str(path))
    return path, truth


def test_replay_day_keeps_objects_apart(replay_day_log):
    path, data = replay_day_log
    truth = [gen.GroundTruth(*row) for row in data["objects"]]
    assert len(truth) == 2 * sum(round(rate * (end - start)) for start, end, rate in gen.DAY_PROFILE)
    assert all(g.confirm_tick is not None for g in truth)
    assert_slots_rest(truth, gen.DAY_MAX_MISSES)
    owners = oracle.Owners(gen.DAY_GRID, truth)
    with open(path, "rb") as source:
        frames = list(parse_detection_log(source))
    assert len(frames) == data["frames"]
    for frame in frames:
        centers = [d.center for d in frame.detections]
        assert_frame_apart(gen.DAY_GRID, frame.camera, frame.frame_index, centers, owners)


def test_replay_day_log_is_canonical(replay_day_log):
    path, _ = replay_day_log
    raw = path.read_bytes()
    sink = io.BytesIO()
    write_detection_log(parse_detection_log(io.BytesIO(raw)), sink)
    assert sink.getvalue() == raw


def test_replay_day_is_seeded(tmp_path):
    a = gen.replay_day(3, str(tmp_path / "a.log"))
    b = gen.replay_day(3, str(tmp_path / "b.log"))
    assert a == b
    assert (tmp_path / "a.log").read_bytes() == (tmp_path / "b.log").read_bytes()


def test_dense_keeps_objects_apart():
    frames, truth = gen.dense(5, seconds=20)
    assert len(frames) == 2 * 20 * int(gen.FPS)
    assert all(len(dets) == gen.DENSE_OCCUPIED for _, _, dets in frames)
    assert_slots_rest(truth, gen.DENSE_MAX_MISSES)
    owners = oracle.Owners(gen.DENSE_GRID, truth)
    for camera, tick, dets in frames:
        assert_frame_apart(gen.DENSE_GRID, camera, tick, [(cx, cy) for cx, cy, _ in dets], owners)
    assert gen.dense(5, seconds=20) == (frames, truth)


def test_confirm_tick_follows_the_first_two_consecutive_hits():
    ticks = [10, 11, 12, 13, 14]
    assert gen.confirm_tick(ticks, [True, True, True, True, True]) == 11
    assert gen.confirm_tick(ticks, [True, False, True, True, True]) == 13
    assert gen.confirm_tick(ticks, [False, True, False, True, True]) == 14
    assert gen.confirm_tick(ticks, [True, False, True, False, True]) is None
