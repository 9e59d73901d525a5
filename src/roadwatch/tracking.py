"""Per-stream vehicle tracking.

Each camera stream runs one :class:`VehicleTracker`. Per frame it predicts
every live track with a constant-velocity Kalman filter, assigns detections
to tracks by minimizing total Euclidean center distance (Hungarian method,
gated), and manages the tentative/active/terminated lifecycle. Confirming a
tentative track emits exactly one ``new_vehicle`` event, which is what the
downstream warning stage consumes.

The tracker runs the filter per axis on plain floats. F, Q, R and the spawn
covariance are axis-separable and identical on x and y, so every covariance
a track can reach is two copies of one 2x2 (position, velocity) block, and
three scalars per track carry it exactly. The general 4x4 :func:`predict`
and :func:`update` stay as the public reference that the tests compare the
tracker against.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import IO, Iterable, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .detection import FrameDetections
from .errors import StreamOrderError, ValidationError

TENTATIVE = "tentative"
ACTIVE = "active"
TERMINATED = "terminated"

NEW_VEHICLE = "new_vehicle"
TRACK_TERMINATED = "track_terminated"


@dataclass
class KalmanState:
    """Gaussian state estimate: mean (x, y, vx, vy) and 4x4 covariance."""

    mean: np.ndarray
    covariance: np.ndarray


@dataclass(frozen=True)
class TrackerConfig:
    """Tracking knobs left open by the motion model.

    ``gate_distance`` is the maximum assignable center distance in pixels;
    ``confirm_hits`` consecutive assignments promote a tentative track;
    ``max_misses`` consecutive misses terminate an active one. Defaults are
    tuned for 1280-px-wide frames at 30 FPS.
    """

    gate_distance: float = 75.0
    confirm_hits: int = 2
    max_misses: int = 3
    process_noise: float = 10.0
    measurement_noise: float = 4.0
    initial_velocity_variance: float = 100.0

    def __post_init__(self):
        if self.gate_distance <= 0:
            raise ValidationError(f"gate_distance must be > 0, got {self.gate_distance}")
        if self.confirm_hits < 1:
            raise ValidationError(f"confirm_hits must be >= 1, got {self.confirm_hits}")
        if self.max_misses < 1:
            raise ValidationError(f"max_misses must be >= 1, got {self.max_misses}")
        if self.process_noise < 0:
            raise ValidationError(f"process_noise must be >= 0, got {self.process_noise}")
        if self.measurement_noise <= 0:
            raise ValidationError(f"measurement_noise must be > 0, got {self.measurement_noise}")
        if self.initial_velocity_variance < 0:
            raise ValidationError(
                f"initial_velocity_variance must be >= 0, got {self.initial_velocity_variance}"
            )

    @classmethod
    def for_image_width(cls, image_width: int, **overrides) -> "TrackerConfig":
        """Default config with the gate scaled proportionally to frame width."""
        gate = overrides.pop("gate_distance", 75.0 * image_width / 1280.0)
        return cls(gate_distance=gate, **overrides)


@dataclass(frozen=True)
class TrackerEvent:
    """Lifecycle notification emitted by the tracker."""

    kind: str
    track_id: int
    timestamp: float
    camera: str
    object_class: str


def transition_matrix(dt: float) -> np.ndarray:
    """Constant-velocity transition for state order (x, y, vx, vy)."""
    return np.array(
        [
            [1.0, 0.0, dt, 0.0],
            [0.0, 1.0, 0.0, dt],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )


def process_noise(dt: float, q: float) -> np.ndarray:
    """Discrete white-acceleration noise, variance scale ``q`` per axis."""
    dt2 = dt * dt
    a = q * dt2 * dt2 / 4.0
    b = q * dt2 * dt / 2.0
    c = q * dt2
    return np.array(
        [
            [a, 0.0, b, 0.0],
            [0.0, a, 0.0, b],
            [b, 0.0, c, 0.0],
            [0.0, b, 0.0, c],
        ]
    )


def _transition(state: KalmanState, F: np.ndarray, Q: np.ndarray) -> KalmanState:
    mean = F @ state.mean
    cov = F @ state.covariance @ F.T + Q
    cov = (cov + cov.T) * 0.5
    return KalmanState(mean=mean, covariance=cov)


def predict(state: KalmanState, dt: float, q: float) -> KalmanState:
    """Propagate the state ``dt`` seconds ahead under constant velocity.

    Position integrates velocity; velocity is unchanged; covariance picks up
    the white-acceleration process noise.
    """
    if dt <= 0:
        raise ValidationError(f"dt must be > 0, got {dt}")
    return _transition(state, transition_matrix(dt), process_noise(dt, q))


def update(state: KalmanState, observation: Sequence[float], r: float) -> KalmanState:
    """Fold a position observation (x, y) into the state.

    Standard linear Kalman update with the measurement picking (x, y) and
    isotropic noise ``r`` per axis; the covariance uses the Joseph form to
    stay symmetric PSD.
    """
    if r <= 0:
        raise ValidationError(f"measurement noise r must be > 0, got {r}")
    z = np.asarray(observation, dtype=float).reshape(2)
    if not np.isfinite(z).all():
        raise ValidationError(f"observation must be finite, got {observation}")

    P = state.covariance
    # S = H P H^T + R is the top-left 2x2 block plus r on the diagonal
    s00 = P[0, 0] + r
    s01 = P[0, 1]
    s11 = P[1, 1] + r
    det = s00 * s11 - s01 * s01
    s_inv = np.array([[s11, -s01], [-s01, s00]]) / det
    gain = P[:, :2] @ s_inv

    innovation = z - state.mean[:2]
    mean = state.mean + gain @ innovation
    a = np.eye(4)
    a[:, :2] -= gain
    cov = a @ P @ a.T + r * (gain @ gain.T)
    cov = (cov + cov.T) * 0.5
    return KalmanState(mean=mean, covariance=cov)


def cost_matrix(
    predictions: Sequence[Sequence[float]] | np.ndarray,
    detections: Sequence[Sequence[float]] | np.ndarray,
) -> np.ndarray:
    """Pairwise Euclidean distances, shape (len(predictions), len(detections))."""
    preds = np.asarray(predictions, dtype=float).reshape(-1, 2)
    dets = np.asarray(detections, dtype=float).reshape(-1, 2)
    diff = preds[:, None, :] - dets[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def assign(
    costs: np.ndarray, gate_distance: float
) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """Gated minimum-cost one-to-one assignment.

    Pairs with cost above ``gate_distance`` are masked to a sentinel before
    solving and filtered from the result, so they are never matched. Returns
    (matches, unmatched_track_indices, unmatched_detection_indices), matches
    sorted by track index.
    """
    costs = np.asarray(costs, dtype=float)
    if costs.ndim != 2:
        raise ValidationError(f"cost matrix must be 2-D, got shape {costs.shape}")
    n_tracks, n_dets = costs.shape
    if n_tracks == 0 or n_dets == 0:
        return [], list(range(n_tracks)), list(range(n_dets))
    if not np.isfinite(costs).all() or (costs < 0).any():
        raise ValidationError("costs must be finite and non-negative")

    gated = costs > gate_distance
    if gated.any():
        valid_max = costs[~gated].max() if (~gated).any() else 1.0
        sentinel = (max(valid_max, 1.0) + 1.0) * (min(n_tracks, n_dets) + 1)
        work = np.where(gated, sentinel, costs)
    else:
        work = costs
    rows, cols = linear_sum_assignment(work)

    matches = [(int(r), int(c)) for r, c in zip(rows, cols) if costs[r, c] <= gate_distance]
    matches.sort()
    matched_tracks = {r for r, _ in matches}
    matched_dets = {c for _, c in matches}
    unmatched_tracks = [i for i in range(n_tracks) if i not in matched_tracks]
    unmatched_dets = [j for j in range(n_dets) if j not in matched_dets]
    return matches, unmatched_tracks, unmatched_dets


@dataclass(slots=True)
class Track:
    """One vehicle trajectory, its Kalman state and lifecycle bookkeeping.

    ``x, y, vx, vy`` is the mean; ``p_pos``, ``p_cross`` and ``p_vel`` are
    the 2x2 (position, velocity) covariance block that both axes share.
    """

    track_id: int
    x: float
    y: float
    p_pos: float
    p_vel: float
    created_at: float
    vx: float = 0.0
    vy: float = 0.0
    p_cross: float = 0.0
    status: str = TENTATIVE
    consecutive_hits: int = 1
    consecutive_misses: int = 0
    confirmed_at: float | None = None
    history: list[tuple[int, tuple[float, float]]] = field(default_factory=list)
    class_counts: Counter = field(default_factory=Counter)
    class_recency: dict[str, int] = field(default_factory=dict)

    def predict(self, dt: float, q_pos: float, q_cross: float, q_vel: float) -> None:
        """Constant-velocity step; ``q_*`` are the per-axis blocks of Q."""
        self.x += dt * self.vx
        self.y += dt * self.vy
        self.p_pos += dt * self.p_cross + dt * (self.p_cross + dt * self.p_vel) + q_pos
        self.p_cross += dt * self.p_vel + q_cross
        self.p_vel += q_vel

    def update(self, zx: float, zy: float, r: float) -> None:
        """Fold in a position observation; Joseph-form covariance."""
        s = self.p_pos + r
        k0 = self.p_pos / s
        k1 = self.p_cross / s
        ix = zx - self.x
        iy = zy - self.y
        self.x += k0 * ix
        self.y += k0 * iy
        self.vx += k1 * ix
        self.vy += k1 * iy
        a0 = 1.0 - k0
        p_pos, p_cross = self.p_pos, self.p_cross
        self.p_pos = a0 * a0 * p_pos + r * k0 * k0
        self.p_cross = a0 * (p_cross - k1 * p_pos) + r * k0 * k1
        self.p_vel += k1 * (k1 * p_pos - 2.0 * p_cross) + r * k1 * k1

    def record_assignment(self, frame_index: int, center: tuple[float, float], object_class: str):
        self.history.append((frame_index, center))
        self.class_counts[object_class] += 1
        self.class_recency[object_class] = len(self.history)

    def majority_class(self) -> str:
        """Majority class over assigned detections; ties go to the most recent."""
        best = max(
            self.class_counts.items(),
            key=lambda item: (item[1], self.class_recency[item[0]]),
        )
        return best[0]


class VehicleTracker:
    """Online tracker for one camera stream.

    Mutated only by its own stream loop; run one instance per camera.
    Terminated tracks are kept in ``archive`` so that offline evaluation can
    inspect full histories.
    """

    def __init__(self, camera: str, config: TrackerConfig | None = None):
        self.camera = camera
        self.config = config or TrackerConfig()
        self.tracks: list[Track] = []
        self.archive: dict[int, Track] = {}
        self._next_id = 1
        self._last_timestamp: float | None = None

    def step(self, frame: FrameDetections) -> list[TrackerEvent]:
        """Advance the tracker by one frame, returning lifecycle events."""
        if frame.camera != self.camera:
            raise ValidationError(f"frame camera {frame.camera!r} != tracker camera {self.camera!r}")
        if self._last_timestamp is not None and frame.timestamp <= self._last_timestamp:
            raise StreamOrderError(
                f"camera {self.camera}: frame timestamp {frame.timestamp:.3f} "
                f"not after previous {self._last_timestamp:.3f}"
            )

        cfg = self.config
        events: list[TrackerEvent] = []

        if self.tracks and self._last_timestamp is not None:
            dt = frame.timestamp - self._last_timestamp
            dt2 = dt * dt
            q = cfg.process_noise
            q_pos, q_cross, q_vel = q * dt2 * dt2 / 4.0, q * dt2 * dt / 2.0, q * dt2
            for track in self.tracks:
                track.predict(dt, q_pos, q_cross, q_vel)

        if self.tracks or frame.detections:
            predicted = [(t.x, t.y) for t in self.tracks]
            centers = [d.center for d in frame.detections]
            matches, unmatched_tracks, unmatched_dets = assign(
                cost_matrix(predicted, centers), cfg.gate_distance
            )
        else:
            matches, unmatched_tracks, unmatched_dets = [], [], []

        for track_idx, det_idx in matches:
            track = self.tracks[track_idx]
            det = frame.detections[det_idx]
            track.update(det.cx, det.cy, cfg.measurement_noise)
            track.record_assignment(frame.frame_index, det.center, det.best_class)
            track.consecutive_hits += 1
            track.consecutive_misses = 0
            if track.status == TENTATIVE and track.consecutive_hits >= cfg.confirm_hits:
                track.status = ACTIVE
                track.confirmed_at = frame.timestamp
                events.append(self._event(NEW_VEHICLE, track, frame.timestamp))

        terminated: list[Track] = []
        for track_idx in unmatched_tracks:
            track = self.tracks[track_idx]
            track.consecutive_misses += 1
            track.consecutive_hits = 0
            if track.status == TENTATIVE:
                # an unconfirmed track does not survive a single miss
                track.status = TERMINATED
                terminated.append(track)
            elif track.consecutive_misses >= cfg.max_misses:
                track.status = TERMINATED
                terminated.append(track)
                events.append(self._event(TRACK_TERMINATED, track, frame.timestamp))

        for det_idx in unmatched_dets:
            det = frame.detections[det_idx]
            track = self._spawn(det, frame)
            if cfg.confirm_hits <= 1:
                track.status = ACTIVE
                track.confirmed_at = frame.timestamp
                events.append(self._event(NEW_VEHICLE, track, frame.timestamp))

        if terminated:
            self.tracks = [t for t in self.tracks if t.status != TERMINATED]
        self._last_timestamp = frame.timestamp
        return events

    def _spawn(self, det, frame: FrameDetections) -> Track:
        cfg = self.config
        track = Track(
            track_id=self._next_id,
            x=det.cx,
            y=det.cy,
            p_pos=cfg.measurement_noise,
            p_vel=cfg.initial_velocity_variance,
            created_at=frame.timestamp,
        )
        self._next_id += 1
        track.record_assignment(frame.frame_index, det.center, det.best_class)
        self.tracks.append(track)
        self.archive[track.track_id] = track
        return track

    def _event(self, kind: str, track: Track, timestamp: float) -> TrackerEvent:
        return TrackerEvent(
            kind=kind,
            track_id=track.track_id,
            timestamp=timestamp,
            camera=self.camera,
            object_class=track.majority_class(),
        )


# --- event log (audit/replay) ------------------------------------------------


def format_event_line(event: TrackerEvent) -> str:
    return (
        f'{{"kind":"{event.kind}","track":{event.track_id},"t":{event.timestamp:.3f},'
        f'"cam":"{event.camera}","cls":"{event.object_class}"}}\n'
    )


def write_event_log(events: Iterable[TrackerEvent], sink: IO[str]) -> None:
    for event in events:
        sink.write(format_event_line(event))
