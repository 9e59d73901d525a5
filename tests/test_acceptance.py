"""Acceptance gate: one test per shipping criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print. Every tolerance is pinned here; nothing is calibrated at run time.
"""

import io
import math
import time

import numpy as np
from scipy.stats import chi2

from roadwatch.detection import Detection, FrameDetections, parse_detection_log
from roadwatch.simulation import (
    NoiseModel,
    RatePiece,
    Scenario,
    audit_text,
    drive,
    histogram_csv,
    load_scenario,
    meta_json,
    run_pipeline,
    summary_text,
)
from roadwatch.tracking import NEW_VEHICLE, TrackerConfig, TrackerEvent, VehicleTracker, assign
from roadwatch.warning import FlowCheckMonitor

from reference import (
    KalmanState,
    brute_force_total,
    literal_flow_check,
    predict,
    reference_predict,
    reference_update,
    transition_matrix,
    update,
)


def check(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"[{status}] criterion {num}: {name}{suffix}")
    assert ok, f"criterion {num} failed: {name} {detail}"


# --- 1. assignment optimality -------------------------------------------------


def test_criterion_1_assignment_optimality():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    mismatches = 0
    for trial in range(1000):
        n, m = rng.integers(1, 7, 2)
        if trial % 2 == 0:
            costs = rng.integers(0, 101, (n, m)).astype(float)
        else:
            costs = rng.uniform(0.0, 100.0, (n, m))
        matches, _, _ = assign(costs, float("inf"))
        total = math.fsum(costs[r, c] for r, c in matches)
        if len(matches) != min(n, m) or total != brute_force_total(costs):
            mismatches += 1
    elapsed = time.perf_counter() - start
    check(
        1,
        "assignment total equals brute-force minimum on 1000 matrices",
        mismatches == 0 and elapsed < 5.0,
        f"mismatches={mismatches}, {elapsed:.2f}s",
    )


# --- 2. Kalman oracle equivalence + innovation consistency ---------------------


def test_criterion_2_kalman_oracle_and_consistency():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(10_000):
        mean = rng.normal(0, 100, 4)
        a = rng.normal(size=(4, 4))
        cov = a @ a.T + 1e-3 * np.eye(4)
        dt = float(rng.uniform(0.01, 1.0))
        q = float(rng.uniform(0.0, 20.0))
        r = float(rng.uniform(0.1, 10.0))
        z = mean[:2] + rng.normal(0, 10, 2)

        state = KalmanState(mean=mean.copy(), covariance=cov.copy())
        got = predict(state, dt, q)
        ref_mean, ref_cov = reference_predict(mean, cov, dt, q)
        worst = max(
            worst,
            np.abs(got.mean - ref_mean).max() / max(1.0, np.abs(ref_mean).max()),
            np.abs(got.covariance - ref_cov).max() / max(1.0, np.abs(ref_cov).max()),
        )
        got = update(state, z, r)
        ref_mean, ref_cov = reference_update(mean, cov, z, r)
        worst = max(
            worst,
            np.abs(got.mean - ref_mean).max() / max(1.0, np.abs(ref_mean).max()),
            np.abs(got.covariance - ref_cov).max() / max(1.0, np.abs(ref_cov).max()),
        )
    oracle_ok = worst < 1e-9

    # innovation consistency on a model-matched constant-velocity run
    dt, q, r = 1.0 / 30.0, 10.0, 4.0
    rng = np.random.default_rng(2024)
    p0 = np.diag([r, r, 100.0, 100.0])
    mean0 = np.array([640.0, 360.0, 5.0, -3.0])
    truth = mean0 + np.sqrt(np.diag(p0)) * rng.normal(size=4)
    state = KalmanState(mean=mean0.copy(), covariance=p0.copy())
    f_mat = transition_matrix(dt)
    lo, hi = chi2.ppf(0.025, 2), chi2.ppf(0.975, 2)
    n = 10_000
    inside = 0
    for _ in range(n):
        accel = rng.normal(0, math.sqrt(q), 2)
        noise = np.array([accel[0] * dt * dt / 2, accel[1] * dt * dt / 2, accel[0] * dt, accel[1] * dt])
        truth = f_mat @ truth + noise
        z = truth[:2] + rng.normal(0, math.sqrt(r), 2)
        state = predict(state, dt, q)
        innovation = z - state.mean[:2]
        s = state.covariance[:2, :2] + r * np.eye(2)
        nis = float(innovation @ np.linalg.solve(s, innovation))
        if lo <= nis <= hi:
            inside += 1
        state = update(state, z, r)
    coverage = inside / n
    band = 3 * math.sqrt(0.95 * 0.05 / n)
    consistency_ok = abs(coverage - 0.95) <= band

    check(
        2,
        "Kalman ops match closed-form reference and stay chi-square consistent",
        oracle_ok and consistency_ok,
        f"worst_rel_err={worst:.2e}, NIS coverage={coverage:.4f} (want 0.95 +/- {band:.4f})",
    )


# --- 3. flow-check trace equivalence -------------------------------------------


def test_criterion_3_flow_check_trace_equivalence():
    rng = np.random.default_rng(107)
    sequences = 10_000
    failures = 0
    boundary_checked = False
    for _ in range(sequences):
        n = int(rng.integers(0, 30))
        gaps = rng.uniform(0.0, 25.0, n)
        exact = rng.uniform(size=n) < 0.15
        gaps[exact] = 10.0  # exercise the strict > boundary
        if exact.any():
            boundary_checked = True
        times = list(np.cumsum(gaps))
        monitor = FlowCheckMonitor(t_duration=10.0, start_time=0.0)
        got = []
        for i, t in enumerate(times):
            warning = monitor.observe(TrackerEvent(NEW_VEHICLE, i + 1, t, "front", "vehicle"))
            if warning is not None:
                got.append(warning.timestamp)
        if got != literal_flow_check(times):
            failures += 1
    check(
        3,
        "flow-check warnings equal the literal debounce oracle on 10k sequences",
        failures == 0 and boundary_checked,
        f"failures={failures}, boundary gaps exercised={boundary_checked}",
    )


# --- 4. Poisson suppression law -------------------------------------------------


def test_criterion_4_poisson_suppression_law():
    t_dur = 10.0
    n = 100_000
    details = []
    ok = True
    for lam in (0.02, 0.05, 0.5):
        rng = np.random.default_rng(int(lam * 1000) + 7)
        times = np.cumsum(rng.exponential(1.0 / lam, n))
        monitor = FlowCheckMonitor(t_duration=t_dur, start_time=0.0)
        warned = 0
        for i, t in enumerate(times):
            if monitor.observe(TrackerEvent(NEW_VEHICLE, i + 1, float(t), "front", "vehicle")) is not None:
                warned += 1
        fraction = warned / n
        expected = math.exp(-lam * t_dur)
        se = math.sqrt(expected * (1.0 - expected) / n)
        ok = ok and abs(fraction - expected) <= 3 * se
        details.append(f"lam={lam}: {fraction:.4f} vs {expected:.4f} (3se={3*se:.4f})")
    check(4, "warned fraction matches exp(-lambda*T) for all rates", ok, "; ".join(details))


# --- 5. paper-day reproduction ----------------------------------------------------


def test_criterion_5_paper_day_reproduction():
    scenario = load_scenario("paper-day")
    scenario.seed = 1
    start = time.perf_counter()
    report = run_pipeline(scenario)
    elapsed = time.perf_counter() - start
    events = report.warnings_without_filter
    ratio = report.warnings_with_filter / events
    peak_per_min = max(w for _, _, w in report.hourly_counts()) / 60.0
    ok = (
        abs(events - 1308) <= 0.1 * 1308
        and 0.15 <= ratio <= 0.35
        and peak_per_min <= 2.0
        and elapsed < 60.0
    )
    check(
        5,
        "paper-day: ~1308 unfiltered, ratio in [0.15, 0.35], peak <= 2/min, < 60 s",
        ok,
        f"events={events}, ratio={ratio:.3f}, peak={peak_per_min:.2f}/min, {elapsed:.1f}s",
    )


# --- 6. pre-warning times ---------------------------------------------------------


def _delta_scenario(d_vis, speed_lo, speed_hi, seed, occluded_from=None):
    from roadwatch.simulation import OcclusionWindow

    windows = []
    if occluded_from is not None:
        windows = [
            OcclusionWindow("front", occluded_from, d_vis),
            OcclusionWindow("rear", occluded_from, d_vis),
        ]
    return Scenario(
        duration=1800.0,
        arrival_profile={"front": [RatePiece(0.0, 0.02)], "rear": [RatePiece(0.0, 0.02)]},
        speed_range=(speed_lo, speed_hi),
        detection_range=d_vis,
        occlusion_windows=windows,
        noise=NoiseModel(center_jitter_px=2.0, dropout_prob=0.02),
        seed=seed,
    )


def test_criterion_6_pre_warning_times():
    details = []
    ok = True
    unoccluded = [
        load_scenario("country-road"),
        _delta_scenario(100.0, 16.0, 25.0, seed=301),
        _delta_scenario(140.0, 21.0, 32.0, seed=302),
    ]
    for scenario in unoccluded:
        report = run_pipeline(scenario)
        deltas = report.deltas
        share = np.mean([(3.0 <= d <= 7.0) for d in deltas]) if deltas else 0.0
        ok = ok and len(deltas) >= 10 and share >= 0.90
        details.append(f"open road d={scenario.detection_range:.0f}m: {share:.2%} of {len(deltas)}")

    occluded = load_scenario("occluded-curve")
    report = run_pipeline(occluded)
    deltas = report.deltas
    share = np.mean([(1.0 <= d <= 2.5) for d in deltas]) if deltas else 0.0
    ok = ok and len(deltas) >= 10 and share >= 0.90
    details.append(f"curve: {share:.2%} of {len(deltas)} in [1, 2.5] s")
    check(6, "pre-warning 3-7 s on open road, 1-2.5 s behind the curve", ok, "; ".join(details))


# --- 7. throughput budget -----------------------------------------------------------


def test_criterion_7_throughput_budget():
    def make_det(cx, cy, k):
        return Detection(
            frame_index=k,
            cx=cx,
            cy=cy,
            width=30.0,
            height=20.0,
            objectness=0.95,
            class_confidences=(0.05, 0.9, 0.05),
            combined_score=0.855,
            best_class="vehicle",
        )

    lanes = [(64.0 + 128.0 * ix, 72.0 + 144.0 * iy) for iy in range(5) for ix in range(10)]
    rng = np.random.default_rng(401)
    seconds = 20.0
    frames = []
    for k in range(int(seconds * 30)):
        t = round(k * 1000.0 / 30.0) / 1000.0
        for camera in ("front", "rear"):
            offset = (k * 10) % 50
            dets = [
                make_det(
                    lanes[(offset + j) % 50][0] + rng.normal(0, 1),
                    lanes[(offset + j) % 50][1] + rng.normal(0, 1),
                    k,
                )
                for j in range(20)
            ]
            frames.append(FrameDetections(frame_index=k, timestamp=t, camera=camera, detections=dets))

    config = TrackerConfig(confirm_hits=2, max_misses=10)
    trackers = {c: VehicleTracker(c, config) for c in ("front", "rear")}
    monitor = FlowCheckMonitor(t_duration=10.0, start_time=0.0)
    step_ns = []
    live_max = 0
    wall_start = time.perf_counter()
    for frame in frames:
        t0 = time.perf_counter_ns()
        for event in trackers[frame.camera].step(frame):
            monitor.observe(event)
        step_ns.append(time.perf_counter_ns() - t0)
        live_max = max(live_max, len(trackers[frame.camera].tracks))
    wall = time.perf_counter() - wall_start

    speedup = seconds / wall
    median_ms = float(np.median(step_ns)) / 1e6
    ok = speedup >= 20.0 and median_ms <= 1.0 and live_max == 50
    check(
        7,
        "two 30 FPS streams, 20 det/frame, 50 tracks: >= 20x real time, median <= 1 ms",
        ok,
        f"speedup={speedup:.1f}x, median={median_ms:.3f}ms, live_max={live_max}",
    )


# --- 8. determinism & cross-path equivalence -----------------------------------------


def test_criterion_8_determinism_and_equivalence():
    scenario = load_scenario("country-road")
    dump_a = io.StringIO()
    report_a = run_pipeline(scenario, dump_sink=dump_a)
    report_b = run_pipeline(scenario)
    identical = (
        audit_text(report_a) == audit_text(report_b)
        and histogram_csv(report_a) == histogram_csv(report_b)
        and summary_text(report_a) == summary_text(report_b)
        and meta_json(report_a) == meta_json(report_b)
    )

    # replay the dumped detection log and compare the full decision trace
    trackers = {c: VehicleTracker(c, TrackerConfig()) for c in ("front", "rear")}
    monitor = FlowCheckMonitor(t_duration=10.0, start_time=0.0)
    drive(parse_detection_log(io.StringIO(dump_a.getvalue())), trackers, monitor)
    replay_trace = [
        (r.timestamp, r.camera, r.track_id, r.object_class, r.decision, r.gap)
        for r in monitor.audit
    ]
    simulate_trace = [
        (e.timestamp, e.camera, e.track_id, e.object_class, e.decision, e.gap)
        for e in report_a.entries
    ]
    replay_warnings = [(w.timestamp, w.camera, w.track_id) for w in monitor.warnings]
    simulate_warnings = [
        (e.timestamp, e.camera, e.track_id)
        for e in report_a.entries
        if e.decision == "warn"
    ]
    equivalent = replay_trace == simulate_trace and replay_warnings == simulate_warnings
    check(
        8,
        "same seed -> byte-identical reports; dump+replay -> identical warning trace",
        identical and equivalent,
        f"reports_identical={identical}, traces_equal={equivalent}, warnings={len(replay_warnings)}",
    )
