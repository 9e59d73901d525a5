"""Tracking tests: Kalman oracles, assignment optimality, lifecycle rules."""

import io
from itertools import permutations

import numpy as np
import pytest

from roadwatch.detection import CLASSES, Detection, FrameDetections
from roadwatch.errors import StreamOrderError, ValidationError
from roadwatch.tracking import (
    ACTIVE,
    NEW_VEHICLE,
    TENTATIVE,
    TRACK_TERMINATED,
    KalmanState,
    TrackerConfig,
    VehicleTracker,
    assign,
    cost_matrix,
    format_event_line,
    predict,
    update,
    write_event_log,
)


def make_state(mean, cov):
    return KalmanState(mean=np.asarray(mean, dtype=float), covariance=np.asarray(cov, dtype=float))


def random_state(rng, scale=100.0):
    mean = rng.normal(0, scale, 4)
    a = rng.normal(size=(4, 4))
    cov = a @ a.T + 1e-3 * np.eye(4)
    return make_state(mean, cov)


# independent closed-form reference, written in 2x2 block algebra rather than
# full-matrix products


def reference_predict(mean, cov, dt, q):
    pos, vel = mean[:2], mean[2:]
    pxx, pxv, pvv = cov[:2, :2], cov[:2, 2:], cov[2:, 2:]
    mean_out = np.concatenate([pos + dt * vel, vel])
    qxx = q * dt**4 / 4.0 * np.eye(2)
    qxv = q * dt**3 / 2.0 * np.eye(2)
    qvv = q * dt**2 * np.eye(2)
    out = np.empty((4, 4))
    out[:2, :2] = pxx + dt * (pxv + pxv.T) + dt * dt * pvv + qxx
    out[:2, 2:] = pxv + dt * pvv + qxv
    out[2:, :2] = out[:2, 2:].T
    out[2:, 2:] = pvv + qvv
    return mean_out, out


def reference_update(mean, cov, z, r):
    pxx = cov[:2, :2]
    s = pxx + r * np.eye(2)
    k = cov[:, :2] @ np.linalg.inv(s)
    mean_out = mean + k @ (np.asarray(z, dtype=float) - mean[:2])
    h = np.zeros((2, 4))
    h[0, 0] = h[1, 1] = 1.0
    cov_out = (np.eye(4) - k @ h) @ cov
    return mean_out, cov_out


class TestPredict:
    def test_constant_velocity_arithmetic(self):
        state = make_state([100.0, 200.0, -5.0, 0.0], np.eye(4))
        out = predict(state, dt=1.0, q=0.0)
        assert out.mean[:2] == pytest.approx([95.0, 200.0])
        assert out.mean[2:] == pytest.approx([-5.0, 0.0])

    def test_identity_covariance_propagation(self):
        # F P F^T for P = I, dt = 1: var(x) = 2, cov(x, vx) = 1
        state = make_state(np.zeros(4), np.eye(4))
        out = predict(state, dt=1.0, q=0.0)
        assert out.covariance[0, 0] == pytest.approx(2.0)
        assert out.covariance[0, 2] == pytest.approx(1.0)
        assert out.covariance[1, 1] == pytest.approx(2.0)
        assert out.covariance[1, 3] == pytest.approx(1.0)
        assert out.covariance[2, 2] == pytest.approx(1.0)

    def test_semigroup_property(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            state = random_state(rng)
            dt1, dt2 = rng.uniform(0.01, 1.0, 2)
            combined = predict(state, dt1 + dt2, q=0.0)
            stepped = predict(predict(state, dt1, q=0.0), dt2, q=0.0)
            np.testing.assert_allclose(stepped.mean, combined.mean, rtol=0, atol=1e-9)
            np.testing.assert_allclose(
                stepped.covariance, combined.covariance, rtol=1e-9, atol=1e-9
            )

    def test_matches_block_reference(self):
        rng = np.random.default_rng(23)
        for _ in range(500):
            state = random_state(rng)
            dt = rng.uniform(0.01, 1.0)
            q = rng.uniform(0.0, 20.0)
            out = predict(state, dt, q)
            ref_mean, ref_cov = reference_predict(state.mean, state.covariance, dt, q)
            np.testing.assert_allclose(out.mean, ref_mean, rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(out.covariance, ref_cov, rtol=1e-9, atol=1e-12)

    def test_nonpositive_dt_rejected(self):
        state = make_state(np.zeros(4), np.eye(4))
        with pytest.raises(ValidationError):
            predict(state, dt=0.0, q=1.0)
        with pytest.raises(ValidationError):
            predict(state, dt=-0.1, q=1.0)


class TestUpdate:
    def test_tiny_noise_pins_to_observation(self):
        state = make_state([10.0, 20.0, 1.0, 1.0], np.eye(4))
        out = update(state, (40.0, 50.0), r=1e-12)
        assert out.mean[:2] == pytest.approx([40.0, 50.0], abs=1e-6)

    def test_scalar_gain_half(self):
        # position variance 1, r = 1: gain 1/2 pulls halfway to the observation
        state = make_state([0.0, 0.0, 0.0, 0.0], np.diag([1.0, 1.0, 10.0, 10.0]))
        out = update(state, (2.0, 0.0), r=1.0)
        assert out.mean[:2] == pytest.approx([1.0, 0.0])

    def test_zero_innovation_keeps_mean_and_shrinks_covariance(self):
        state = make_state([5.0, -3.0, 2.0, 1.0], np.diag([4.0, 4.0, 9.0, 9.0]))
        out = update(state, (5.0, -3.0), r=2.0)
        assert out.mean == pytest.approx(state.mean)
        assert np.trace(out.covariance) < np.trace(state.covariance)

    def test_posterior_between_prediction_and_observation(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            var = rng.uniform(0.1, 10.0, 4)
            state = make_state(rng.normal(0, 50, 4), np.diag(var))
            z = state.mean[:2] + rng.normal(0, 30, 2)
            out = update(state, z, r=rng.uniform(0.1, 10.0))
            for axis in range(2):
                lo, hi = sorted((state.mean[axis], z[axis]))
                assert lo - 1e-9 <= out.mean[axis] <= hi + 1e-9

    def test_matches_block_reference(self):
        rng = np.random.default_rng(37)
        for _ in range(500):
            state = random_state(rng)
            z = state.mean[:2] + rng.normal(0, 10, 2)
            r = rng.uniform(0.1, 10.0)
            out = update(state, z, r)
            ref_mean, ref_cov = reference_update(state.mean, state.covariance, z, r)
            np.testing.assert_allclose(out.mean, ref_mean, rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(out.covariance, ref_cov, rtol=1e-9, atol=1e-9)

    def test_covariance_stays_symmetric_psd(self):
        rng = np.random.default_rng(41)
        state = random_state(rng)
        for _ in range(500):
            state = predict(state, rng.uniform(0.01, 0.2), q=10.0)
            state = update(state, state.mean[:2] + rng.normal(0, 3, 2), r=4.0)
            sym_err = np.abs(state.covariance - state.covariance.T).max()
            assert sym_err < 1e-9
            assert np.linalg.eigvalsh(state.covariance).min() >= -1e-9

    def test_nonfinite_observation_rejected(self):
        state = make_state(np.zeros(4), np.eye(4))
        with pytest.raises(ValidationError):
            update(state, (np.nan, 0.0), r=1.0)
        with pytest.raises(ValidationError):
            update(state, (np.inf, 0.0), r=1.0)


class TestCostMatrix:
    def test_three_four_five(self):
        costs = cost_matrix([(0.0, 0.0)], [(3.0, 4.0)])
        assert costs[0, 0] == pytest.approx(5.0)

    def test_identical_points(self):
        assert cost_matrix([(7.0, 7.0)], [(7.0, 7.0)])[0, 0] == 0.0

    def test_elementwise_against_manual(self):
        rng = np.random.default_rng(43)
        preds = rng.uniform(0, 1000, (4, 2))
        dets = rng.uniform(0, 1000, (6, 2))
        costs = cost_matrix(preds, dets)
        assert costs.shape == (4, 6)
        for i in range(4):
            for j in range(6):
                dx = preds[i, 0] - dets[j, 0]
                dy = preds[i, 1] - dets[j, 1]
                assert costs[i, j] == pytest.approx((dx * dx + dy * dy) ** 0.5, rel=1e-12)

    def test_empty_inputs(self):
        assert cost_matrix([], [(1.0, 2.0)]).shape == (0, 1)
        assert cost_matrix([(1.0, 2.0)], []).shape == (1, 0)


def brute_force_total(costs):
    n, m = costs.shape
    best = float("inf")
    if n <= m:
        for perm in permutations(range(m), n):
            best = min(best, sum(costs[i, perm[i]] for i in range(n)))
    else:
        for perm in permutations(range(n), m):
            best = min(best, sum(costs[perm[j], j] for j in range(m)))
    return best


class TestAssign:
    def test_unique_optimum(self):
        matches, unmatched_t, unmatched_d = assign(np.array([[1.0, 2.0], [2.0, 1.0]]), 10.0)
        assert matches == [(0, 0), (1, 1)]
        assert unmatched_t == [] and unmatched_d == []

    def test_gate_rejects(self):
        matches, unmatched_t, unmatched_d = assign(np.array([[100.0]]), 50.0)
        assert matches == []
        assert unmatched_t == [0] and unmatched_d == [0]

    def test_empty_matrix(self):
        matches, unmatched_t, unmatched_d = assign(np.zeros((0, 3)), 10.0)
        assert matches == [] and unmatched_t == [] and unmatched_d == [0, 1, 2]

    def test_optimal_against_brute_force(self):
        rng = np.random.default_rng(47)
        for _ in range(200):
            n, m = rng.integers(1, 5, 2)
            costs = rng.uniform(0, 100, (n, m))
            matches, _, _ = assign(costs, float("inf"))
            total = sum(costs[r, c] for r, c in matches)
            assert len(matches) == min(n, m)
            assert total == pytest.approx(brute_force_total(costs), rel=1e-12)

    def test_gated_pairs_never_matched(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            costs = rng.uniform(0, 100, (4, 4))
            gate = rng.uniform(10, 90)
            matches, _, _ = assign(costs, gate)
            assert all(costs[r, c] <= gate for r, c in matches)

    def test_negative_costs_rejected(self):
        with pytest.raises(ValidationError):
            assign(np.array([[-1.0]]), 10.0)


def det(cx, cy, cls="vehicle", frame_index=0):
    confs = tuple(0.9 if c == cls else 0.05 for c in CLASSES)
    return Detection(
        frame_index=frame_index,
        cx=float(cx),
        cy=float(cy),
        width=30.0,
        height=20.0,
        objectness=0.95,
        class_confidences=confs,
        combined_score=0.95 * 0.9,
        best_class=cls,
    )


def frame(k, centers, camera="front", fps=30.0, classes=None):
    classes = classes or ["vehicle"] * len(centers)
    return FrameDetections(
        frame_index=k,
        timestamp=round(k * 1000.0 / fps) / 1000.0,
        camera=camera,
        detections=[det(cx, cy, cls, k) for (cx, cy), cls in zip(centers, classes)],
    )


class TestTrackerLifecycle:
    def test_empty_frame_empty_tracker(self):
        tracker = VehicleTracker("front")
        assert tracker.step(frame(0, [])) == []
        assert tracker.tracks == []

    def test_confirmation_emits_exactly_once(self):
        tracker = VehicleTracker("front", TrackerConfig(confirm_hits=2))
        events = tracker.step(frame(0, [(100, 100)]))
        assert events == []
        assert tracker.tracks[0].status == TENTATIVE
        events = tracker.step(frame(1, [(100, 100)]))
        assert [e.kind for e in events] == [NEW_VEHICLE]
        assert events[0].track_id == 1
        assert events[0].camera == "front"
        assert tracker.tracks[0].status == ACTIVE
        for k in range(2, 6):
            assert tracker.step(frame(k, [(100, 100)])) == []

    def test_confirm_hits_one_fires_at_spawn(self):
        tracker = VehicleTracker("rear", TrackerConfig(confirm_hits=1))
        events = tracker.step(frame(0, [(10, 10)], camera="rear"))
        assert [e.kind for e in events] == [NEW_VEHICLE]

    def test_tentative_dies_on_first_miss_silently(self):
        tracker = VehicleTracker("front", TrackerConfig(confirm_hits=3))
        tracker.step(frame(0, [(100, 100)]))
        events = tracker.step(frame(1, []))
        assert events == []
        assert tracker.tracks == []
        assert tracker.archive[1].status == "terminated"

    def test_active_track_survives_then_terminates(self):
        config = TrackerConfig(confirm_hits=2, max_misses=3)
        tracker = VehicleTracker("front", config)
        tracker.step(frame(0, [(100, 100)]))
        tracker.step(frame(1, [(100, 100)]))
        assert tracker.step(frame(2, [])) == []
        assert tracker.step(frame(3, [])) == []
        events = tracker.step(frame(4, []))
        assert [e.kind for e in events] == [TRACK_TERMINATED]
        assert tracker.tracks == []

    def test_miss_then_reacquire_resets_counters(self):
        config = TrackerConfig(confirm_hits=2, max_misses=3)
        tracker = VehicleTracker("front", config)
        tracker.step(frame(0, [(100, 100)]))
        tracker.step(frame(1, [(100, 100)]))
        tracker.step(frame(2, []))
        track = tracker.tracks[0]
        assert track.consecutive_misses == 1 and track.consecutive_hits == 0
        tracker.step(frame(3, [(100, 100)]))
        assert track.consecutive_misses == 0 and track.consecutive_hits == 1

    def test_hits_misses_never_both_positive(self):
        rng = np.random.default_rng(59)
        tracker = VehicleTracker("front", TrackerConfig(confirm_hits=2, max_misses=3))
        for k in range(200):
            centers = [(100 + rng.uniform(-3, 3), 100 + rng.uniform(-3, 3))] if rng.uniform() < 0.7 else []
            tracker.step(frame(k, centers))
            for track in tracker.tracks:
                assert not (track.consecutive_hits > 0 and track.consecutive_misses > 0)

    def test_two_lanes_no_identity_switch(self):
        rng = np.random.default_rng(61)
        config = TrackerConfig(gate_distance=50.0, confirm_hits=2, max_misses=3)
        tracker = VehicleTracker("front", config)
        lane_y = (100.0, 300.0)
        for k in range(30):
            centers = [
                (50.0 + 10.0 * k + rng.normal(0, 2), lane_y[0] + rng.normal(0, 2)),
                (50.0 + 10.0 * k + rng.normal(0, 2), lane_y[1] + rng.normal(0, 2)),
            ]
            tracker.step(frame(k, centers))
        assert len(tracker.tracks) == 2
        for track in tracker.tracks:
            lane = min(lane_y, key=lambda y: abs(track.history[0][1][1] - y))
            assert len(track.history) == 30
            for _, (cx, cy) in track.history:
                assert abs(cy - lane) < 50.0

    def test_history_frame_indices_strictly_increase(self):
        rng = np.random.default_rng(67)
        tracker = VehicleTracker("front")
        for k in range(100):
            centers = [(200 + rng.normal(0, 2), 200 + rng.normal(0, 2))] if rng.uniform() < 0.8 else []
            tracker.step(frame(k, centers))
        for track in list(tracker.tracks) + list(tracker.archive.values()):
            indices = [fi for fi, _ in track.history]
            assert indices == sorted(set(indices))

    def test_majority_class_ties_prefer_recent(self):
        tracker = VehicleTracker("front", TrackerConfig(confirm_hits=4))
        tracker.step(frame(0, [(100, 100)], classes=["truck"]))
        tracker.step(frame(1, [(100, 100)], classes=["vehicle"]))
        track = tracker.tracks[0]
        assert track.majority_class() == "vehicle"
        tracker.step(frame(2, [(100, 100)], classes=["truck"]))
        assert track.majority_class() == "truck"

    def test_new_vehicle_event_class_is_majority(self):
        tracker = VehicleTracker("front", TrackerConfig(confirm_hits=3))
        tracker.step(frame(0, [(100, 100)], classes=["truck"]))
        tracker.step(frame(1, [(100, 100)], classes=["truck"]))
        events = tracker.step(frame(2, [(100, 100)], classes=["vehicle"]))
        assert events[0].kind == NEW_VEHICLE
        assert events[0].object_class == "truck"

    def test_stream_order_enforced(self):
        tracker = VehicleTracker("front")
        tracker.step(frame(1, []))
        with pytest.raises(StreamOrderError):
            tracker.step(frame(1, []))

    def test_wrong_camera_rejected(self):
        tracker = VehicleTracker("front")
        with pytest.raises(ValidationError):
            tracker.step(frame(0, [], camera="rear"))

    def test_deterministic_event_stream(self):
        def run():
            rng = np.random.default_rng(71)
            tracker = VehicleTracker("front", TrackerConfig(confirm_hits=2, max_misses=2))
            lines = io.StringIO()
            for k in range(300):
                centers = []
                if rng.uniform() < 0.6:
                    centers.append((300 + rng.normal(0, 2), 150 + rng.normal(0, 2)))
                if rng.uniform() < 0.3:
                    centers.append((700 + rng.normal(0, 2), 500 + rng.normal(0, 2)))
                write_event_log(tracker.step(frame(k, centers)), lines)
            return lines.getvalue()

        first, second = run(), run()
        assert first == second
        assert first  # the stream actually produced events

    def test_new_vehicle_fires_at_most_once_per_track(self):
        rng = np.random.default_rng(73)
        tracker = VehicleTracker("front", TrackerConfig(confirm_hits=2, max_misses=2))
        seen = set()
        for k in range(500):
            centers = [(rng.uniform(0, 1280), rng.uniform(0, 720))] if rng.uniform() < 0.5 else []
            for event in tracker.step(frame(k, centers)):
                if event.kind == NEW_VEHICLE:
                    assert event.track_id not in seen
                    seen.add(event.track_id)


def random_track(rng, scale=100.0):
    """A Track with a random mean and a random PSD per-axis covariance block."""
    from roadwatch.tracking import Track

    x, y, vx, vy = rng.normal(0, scale, 4)
    a = rng.normal(size=(2, 2))
    block = a @ a.T + 1e-3 * np.eye(2)
    return Track(
        track_id=1, x=x, y=y, vx=vx, vy=vy,
        p_pos=block[0, 0], p_cross=block[0, 1], p_vel=block[1, 1], created_at=0.0,
    )


def track_state(track):
    cov = np.zeros((4, 4))
    cov[0, 0] = cov[1, 1] = track.p_pos
    cov[0, 2] = cov[2, 0] = cov[1, 3] = cov[3, 1] = track.p_cross
    cov[2, 2] = cov[3, 3] = track.p_vel
    return make_state([track.x, track.y, track.vx, track.vy], cov)


class TestBatchedPaths:
    """The tracker's per-track fast path (``Track.predict``/``Track.update``,
    which replaced the batched numpy filter) must agree with the public ops."""

    def test_batch_transition_matches_predict(self):
        from roadwatch.tracking import process_noise

        rng = np.random.default_rng(79)
        tracks = [random_track(rng) for _ in range(40)]
        dt, q = 1.0 / 30.0, 10.0
        Q = process_noise(dt, q)
        for track in tracks:
            expected = predict(track_state(track), dt, q)
            track.predict(dt, Q[0, 0], Q[0, 2], Q[2, 2])
            got = track_state(track)
            np.testing.assert_allclose(got.mean, expected.mean, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(got.covariance, expected.covariance, rtol=1e-12, atol=1e-12)

    def test_batch_update_matches_update(self):
        rng = np.random.default_rng(83)
        tracks = [random_track(rng) for _ in range(40)]
        r = 4.0
        for track in tracks:
            obs = np.array([track.x, track.y]) + rng.normal(0, 5, 2)
            expected = update(track_state(track), obs, r)
            track.update(obs[0], obs[1], r)
            got = track_state(track)
            np.testing.assert_allclose(got.mean, expected.mean, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(got.covariance, expected.covariance, rtol=1e-12, atol=1e-12)


class TestScalarFilter:
    """The tracker's per-axis scalar filter must agree with the public ops."""

    def test_live_tracks_match_predict_update(self):
        cfg = TrackerConfig(confirm_hits=2, max_misses=3)
        q, r = cfg.process_noise, cfg.measurement_noise
        v0 = cfg.initial_velocity_variance
        rng = np.random.default_rng(79)
        tracker = VehicleTracker("front", cfg)
        # two vehicles with dropouts (misses) and a clutter point (short tracks)
        starts = [np.array([100.0, 200.0]), np.array([900.0, 500.0])]
        velocities = [np.array([150.0, 20.0]), np.array([-120.0, -10.0])]
        reference: dict[int, KalmanState] = {}
        t, last_t = 0.0, None
        saw_miss = False
        for k in range(300):
            t = round(t + rng.choice([1 / 30, 1 / 15, 0.1, 0.0417]), 3)  # irregular dt
            centers = [
                tuple(s + v * t + rng.normal(0, 1.5, 2))
                for s, v in zip(starts, velocities)
                if rng.uniform() > 0.15
            ]
            if rng.uniform() < 0.1:
                centers.append((rng.uniform(0, 1280), rng.uniform(0, 720)))
            tracker.step(
                FrameDetections(
                    frame_index=k,
                    timestamp=t,
                    camera="front",
                    detections=[det(cx, cy, frame_index=k) for cx, cy in centers],
                )
            )
            for track in tracker.tracks:
                saw_miss = saw_miss or track.consecutive_misses > 0
                frame_index, (zx, zy) = track.history[-1]
                if track.track_id not in reference:
                    reference[track.track_id] = make_state(
                        [zx, zy, 0.0, 0.0], np.diag([r, r, v0, v0])
                    )
                else:
                    state = predict(reference[track.track_id], t - last_t, q)
                    if frame_index == k:
                        state = update(state, (zx, zy), r)
                    reference[track.track_id] = state
                expected = reference[track.track_id]
                got = track_state(track)
                np.testing.assert_allclose(got.mean, expected.mean, rtol=1e-12, atol=1e-12)
                np.testing.assert_allclose(
                    got.covariance, expected.covariance, rtol=1e-12, atol=1e-12
                )
            last_t = t
        assert saw_miss
        assert len(tracker.archive) > 2


class TestEventLog:
    def test_line_format(self):
        from roadwatch.tracking import TrackerEvent

        event = TrackerEvent(
            kind=NEW_VEHICLE, track_id=3, timestamp=4.1, camera="front", object_class="vehicle"
        )
        assert (
            format_event_line(event)
            == '{"kind":"new_vehicle","track":3,"t":4.100,"cam":"front","cls":"vehicle"}\n'
        )
