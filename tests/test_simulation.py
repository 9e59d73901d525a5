"""Simulator tests: arrival statistics, projection, kinematic delta oracles."""

import gc
import io
import math
from dataclasses import replace

import numpy as np
import pytest

from roadwatch.errors import ConfigError
from roadwatch.simulation import (
    BUILTIN_SCENARIOS,
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
from roadwatch.warning import AuditRecord


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
    def test_simulate_builds_frames_one_at_a_time(self, monkeypatch):
        alive = []
        step = VehicleTracker.step

        def counting_step(self, frame):
            if not alive:
                alive.append(sum(1 for o in gc.get_objects() if isinstance(o, FrameDetections)))
            return step(self, frame)

        monkeypatch.setattr(VehicleTracker, "step", counting_step)
        report = run_pipeline(rush_hour(noise=NoiseModel(center_jitter_px=2.0, dropout_prob=0.01)))
        assert report.warnings_without_filter > 50
        # one pending frame per camera in the merge, not the whole run
        assert alive[0] < 10

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
        config = TrackerConfig.for_image_width(scenario.camera.image_width)
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
