"""Per-stream vehicle tracking.

Each camera stream runs one :class:`VehicleTracker`. Per frame it predicts
every live track with a constant-velocity Kalman filter, assigns detections
to tracks by minimizing total Euclidean center distance (Hungarian method,
gated), and spawns and deletes tracks. A track is tentative until
``confirm_hits`` hits confirm it; confirming emits its one ``new_vehicle``
event, the only event the tracker emits and the one the downstream warning
stage consumes. A tentative track dies on its first miss, a confirmed one
after ``max_misses`` misses in a row.

The tracker runs the filter per axis on plain floats, inline in
:meth:`VehicleTracker.step`; it is the package's one Kalman filter. F, Q, R
and the spawn covariance are axis-separable and identical on x and y, so
every covariance a track can reach is two copies of one 2x2 (position,
velocity) block, and three scalars per track carry it exactly. The tests
check it against a general 4x4 reference filter of their own.

Association runs in plain Python for frames of every size. The tracker
computes each distance rounded exactly as :func:`cost_matrix` rounds it. A
distance that is NaN or overflows to infinity fails ``c <= gate_distance``,
so its pair is out of gate, where :func:`assign` rejects the whole frame.
If no track and no detection has more than one partner inside the gate,
those in-gate pairs are the result. This is exact because :func:`assign`
first maximises the number of in-gate pairs and only then minimises cost,
and when the in-gate pairs already form a one-to-one matching no other
answer exists. A conflicting frame of at most 4 tracks by 4 detections
with every pair in gate (97 % of paper-day's conflicts) is decided in
closed form: the sums of its matchings (at most 24, from a table built at
import) are compared, and the cheapest is the answer when it is below every
other by more than ``1e-9 * (1 + the total of all sums)``. Every cost lies
in some matching, so that margin is about a million times the few ulps of the
largest cost by which the port's rounding could move a sum, and the port
would pick the same matching. An overflowed sum makes the margin infinite,
so such a frame, like every exact or near tie, is not decided there. Those
frames and all others go to a plain-Python port of scipy's solver with
:func:`assign`'s gating, which returns what :func:`assign` returns; the port
alone decides ties.
:func:`cost_matrix` and :func:`assign` stay here as the numpy/scipy reference
that the tests compare the tracker against, because the benchmark's tracer
wraps them by name. The tracker calls neither, so it never imports
``scipy.optimize``.

A track keeps its hits in two typed arrays, the frame indices as signed
64-bit integers and the centers as interleaved doubles, so each hit costs
24 bytes and no Python object. ``Track.history`` builds the list of
(frame index, (cx, cy)) pairs from them when it is read.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from itertools import permutations
from typing import Sequence

# module-level, not inside assign: perfbench/worker.py reads sys.modules["numpy"] and ["scipy"]
import numpy as np
import scipy

from .detection import MAX_FRAME_INDEX, FrameDetections
from .errors import StreamOrderError, ValidationError

NEW_VEHICLE = "new_vehicle"

# Kalman noise levels, the same on x and y: white-acceleration variance
# scale, position measurement variance, and a new track's velocity variance
PROCESS_NOISE = 10.0
MEASUREMENT_NOISE = 4.0
INITIAL_VELOCITY_VARIANCE = 100.0


@dataclass(frozen=True)
class TrackerConfig:
    """Tracking knobs left open by the motion model.

    ``gate_distance`` is the maximum assignable center distance in pixels;
    ``confirm_hits`` consecutive assignments confirm a tentative track;
    ``max_misses`` consecutive misses delete a confirmed one. Defaults are
    tuned for 1280-px-wide frames at 30 FPS. The filter's noise levels are
    the module constants above.
    """

    gate_distance: float = 75.0
    confirm_hits: int = 2
    max_misses: int = 3

    def __post_init__(self):
        # a finite gate keeps every in-gate distance, and the solver's sentinel, finite
        if not 0 < self.gate_distance < math.inf:
            raise ValidationError(f"gate_distance must be > 0 and finite, got {self.gate_distance}")
        if self.confirm_hits < 1:
            raise ValidationError(f"confirm_hits must be >= 1, got {self.confirm_hits}")
        if self.max_misses < 1:
            raise ValidationError(f"max_misses must be >= 1, got {self.max_misses}")

    # kept only because perfbench/worker.py calls it: simulate and replay start from TrackerConfig()
    @classmethod
    def for_image_width(cls, image_width: int) -> "TrackerConfig":
        """Default config with the gate scaled proportionally to frame width."""
        return cls(gate_distance=cls.gate_distance * image_width / 1280.0)


@dataclass(frozen=True)
class TrackerEvent:
    """A confirmation: ``kind`` is always ``NEW_VEHICLE``."""

    kind: str
    track_id: int
    timestamp: float
    camera: str
    object_class: str


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
    rows, cols = scipy.optimize.linear_sum_assignment(work)

    matches = [(int(r), int(c)) for r, c in zip(rows, cols) if costs[r, c] <= gate_distance]
    matches.sort()
    matched_tracks = {r for r, _ in matches}
    matched_dets = {c for _, c in matches}
    unmatched_tracks = [i for i in range(n_tracks) if i not in matched_tracks]
    unmatched_dets = [j for j in range(n_dets) if j not in matched_dets]
    return matches, unmatched_tracks, unmatched_dets


def _linear_sum_assignment(costs: Sequence[Sequence[float]]) -> list[tuple[int, int]]:
    """Minimum-cost assignment of a non-empty matrix of finite costs.

    A plain-Python port of ``scipy.optimize.linear_sum_assignment``: the
    shortest-augmenting-path method of Crouse (2016), "On implementing 2D
    rectangular assignment algorithms", IEEE TAES 52(4). It transposes a
    matrix with more rows than columns, scans columns and breaks ties as
    scipy does, and so returns the same (row, column) pairs in the same
    order on every input.
    """
    n_rows, n_cols = len(costs), len(costs[0])
    transpose = n_cols < n_rows
    if transpose:
        costs = list(zip(*costs))
        n_rows, n_cols = n_cols, n_rows
    u = [0.0] * n_rows
    v = [0.0] * n_cols
    path = [-1] * n_cols
    col4row = [-1] * n_rows
    row4col = [-1] * n_cols
    fresh = True  # no search has run yet, so every v is 0
    for cur_row in range(n_rows):
        if fresh:
            # With every v and this row's u at 0, the reduced costs are the
            # raw costs. The search below would stop at once on the free
            # column that holds the row's minimum, the lowest-index one
            # (among tied minima it prefers the last-scanned free column),
            # and leave v at 0. So take that column without the search. A
            # search can leave some v a little above 0 by rounding, so from
            # the first one on, every row searches; so does an infinite row,
            # which the search rejects.
            row = costs[cur_row]
            lowest = min(row)
            j = row.index(lowest)
            if row4col[j] >= 0:
                j = next((k for k in range(j + 1, n_cols) if row[k] == lowest and row4col[k] < 0), -1)
            if j >= 0 and lowest < math.inf:
                u[cur_row] = lowest
                col4row[cur_row] = j
                row4col[j] = cur_row
                continue
            fresh = False
        # Dijkstra on reduced costs from cur_row to the nearest free column.
        # Columns are scanned from the last one, so that a constant matrix
        # gives the identity.
        shortest = [math.inf] * n_cols
        remaining = list(range(n_cols - 1, -1, -1))
        visited_rows: list[int] = []
        visited_cols: list[int] = []
        min_val = 0.0
        i = cur_row
        while True:
            visited_rows.append(i)
            row, u_i = costs[i], u[i]
            lowest = math.inf
            index = -1
            for k, j in enumerate(remaining):
                r = min_val + row[j] - u_i - v[j]
                s = shortest[j]
                if r < s:
                    path[j] = i
                    shortest[j] = s = r
                # on equal cost prefer a free column: it ends the search
                if s < lowest or (s == lowest and row4col[j] < 0):
                    lowest = s
                    index = k
            if lowest == math.inf:
                raise ValueError("cost matrix is infeasible")
            min_val = lowest
            j = remaining[index]
            visited_cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
            if row4col[j] < 0:
                break
            i = row4col[j]

        u[cur_row] += min_val
        for i in visited_rows[1:]:
            u[i] += min_val - shortest[col4row[i]]
        for j in visited_cols:
            v[j] -= min_val - shortest[j]
        while True:  # augment along the path back from the sink j
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break
    if transpose:
        return sorted((i, j) for j, i in enumerate(col4row))
    return list(enumerate(col4row))


def _associate(
    predicted: list[tuple[float, float]],
    centers: list[tuple[float, float]],
    gate_distance: float,
) -> tuple[Sequence[int], Sequence[int]]:
    """Each track's and each detection's partner (-1 for none) under
    ``assign(cost_matrix(predicted, centers), gate_distance)``, in plain
    Python, for frames of any size. While no track and no detection has two
    in-gate partners, the in-gate pairs are the result (the module docstring
    says why that is exact). At the first conflict the whole frame goes to
    :func:`_solved`. A frame with no track or no detection computes no
    distance.
    """
    sqrt = math.sqrt
    track_partner = [-1] * len(predicted)
    det_partner = [-1] * len(centers)
    for i, (px, py) in enumerate(predicted):
        for j, (cx, cy) in enumerate(centers):
            dx = px - cx
            dy = py - cy
            c = sqrt(dx * dx + dy * dy)
            if c <= gate_distance:
                if track_partner[i] >= 0 or det_partner[j] >= 0:
                    break
                track_partner[i] = j
                det_partner[j] = i
        else:
            continue
        # the inner loop stopped at the first conflict
        return _solved(predicted, centers, gate_distance)
    return track_partner, det_partner


def _solved(
    predicted: list[tuple[float, float]],
    centers: list[tuple[float, float]],
    gate_distance: float,
) -> tuple[Sequence[int], Sequence[int]]:
    """Each track's and each detection's partner (-1 for none) under
    :func:`assign`'s gating. A frame of at most 4 by 4 with every pair in
    gate takes :func:`_clear_cheapest` when it decides; any other frame goes
    to the cost matrix and ``_linear_sum_assignment``."""
    sqrt = math.sqrt
    n_tracks, n_dets = len(predicted), len(centers)
    costs = []
    for px, py in predicted:
        row = []
        for cx, cy in centers:
            dx = px - cx
            dy = py - cy
            row.append(sqrt(dx * dx + dy * dy))
        costs.append(row)
    in_gate = [c for row in costs for c in row if c <= gate_distance]
    work = costs
    if len(in_gate) < n_tracks * n_dets:
        sentinel = (max(max(in_gate), 1.0) + 1.0) * (min(n_tracks, n_dets) + 1)
        work = [[c if c <= gate_distance else sentinel for c in row] for row in costs]
    elif n_tracks <= 4 and n_dets <= 4:
        # every pair is in gate, so in_gate holds every cost, row by row
        partners = _clear_cheapest(in_gate, n_tracks, n_dets)
        if partners is not None:
            return partners
    track_partner = [-1] * n_tracks
    det_partner = [-1] * n_dets
    for i, j in _linear_sum_assignment(work):
        if costs[i][j] <= gate_distance:
            track_partner[i] = j
            det_partner[j] = i
    return track_partner, det_partner


def _matchings(n_tracks: int, n_dets: int) -> tuple[list, list]:
    """Every matching of min(n_tracks, n_dets) pairs, as the row-major cost
    indices of its pairs and as each track's and each detection's partner."""
    keys, partners = [], []
    for chosen in permutations(range(max(n_tracks, n_dets)), min(n_tracks, n_dets)):
        pairs = list(zip(range(n_tracks), chosen) if n_tracks <= n_dets else zip(chosen, range(n_dets)))
        track_partner = [-1] * n_tracks
        det_partner = [-1] * n_dets
        for i, j in pairs:
            track_partner[i] = j
            det_partner[j] = i
        keys.append(tuple(i * n_dets + j for i, j in pairs))
        partners.append((tuple(track_partner), tuple(det_partner)))
    return keys, partners


_SMALL_MATCHINGS = {(t, d): _matchings(t, d) for t in range(1, 5) for d in range(1, 5)}


def _clear_cheapest(
    costs: list[float], n_tracks: int, n_dets: int
) -> tuple[Sequence[int], Sequence[int]] | None:
    """The partners of the matching of least cost sum in a frame of at most
    4 by 4 with every pair in gate, or None for the port to decide.

    The matching is returned only when its sum is below every other's by
    more than ``1e-9 * (1 + the total of all sums)`` (module docstring). An
    overflowed sum makes that margin infinite, and a NaN makes it NaN, so
    such a frame gets None.
    """
    keys, partners = _SMALL_MATCHINGS[n_tracks, n_dets]
    # one unpacking per matching size: sum() over each key costs several times as much
    size = len(keys[0])
    if size == 4:
        sums = [costs[i] + costs[j] + costs[k] + costs[m] for i, j, k, m in keys]
    elif size == 3:
        sums = [costs[i] + costs[j] + costs[k] for i, j, k in keys]
    elif size == 2:
        sums = [costs[i] + costs[j] for i, j in keys]
    else:
        sums = [costs[i] for (i,) in keys]
    ordered = sorted(sums)
    if ordered[1] - ordered[0] > 1e-9 * (1.0 + sum(sums)):
        return partners[sums.index(ordered[0])]
    return None


def majority(values: list):
    """The most common of ``values``; a tie goes to the one seen last."""
    return max(reversed(values), key=values.count)


@dataclass(slots=True)
class Track:
    """One vehicle trajectory, its Kalman state and lifecycle bookkeeping.

    ``x, y, vx, vy`` is the mean; ``p_pos``, ``p_cross`` and ``p_vel`` are
    the 2x2 (position, velocity) covariance block that both axes share.
    Hit ``i`` is frame ``ticks[i]`` at center ``centers[2 * i]``,
    ``centers[2 * i + 1]``. The track is tentative while ``confirmed_at``
    is None; ``classes`` holds the classes of its tentative hits in order,
    the confirming one included, and their :func:`majority` is the class of
    its ``new_vehicle`` event. The tracker updates ``x, y, vx, vy`` and the
    covariance block inline in :meth:`VehicleTracker.step`.
    """

    track_id: int
    x: float
    y: float
    p_pos: float
    p_vel: float
    vx: float = 0.0
    vy: float = 0.0
    p_cross: float = 0.0
    consecutive_misses: int = 0
    confirmed_at: float | None = None
    ticks: array = field(default_factory=lambda: array("q"))
    centers: array = field(default_factory=lambda: array("d"))
    classes: list[str] = field(default_factory=list)

    @property
    def history(self) -> list[tuple[int, tuple[float, float]]]:
        """Every hit as (frame index, (cx, cy)), oldest first; a new list on each read."""
        centers = self.centers
        return list(zip(self.ticks, zip(centers[0::2], centers[1::2])))


class VehicleTracker:
    """Online tracker for one camera stream.

    Mutated only by its own stream loop; run one instance per camera.
    ``tracks`` holds the live tracks, tentative and confirmed. A track
    leaves it in the step where it dies, but stays in ``archive``, with
    every track ever spawned, so that offline evaluation can inspect full
    histories; each hit a track keeps costs 24 bytes.
    """

    def __init__(self, camera: str, config: TrackerConfig | None = None):
        self.camera = camera
        self.config = config or TrackerConfig()
        self.tracks: list[Track] = []
        self.archive: dict[int, Track] = {}
        self._next_id = 1
        self._last_timestamp: float | None = None

    def step(self, frame: FrameDetections) -> list[TrackerEvent]:
        """Advance the tracker by one frame, returning its ``new_vehicle`` events."""
        if frame.camera != self.camera:
            raise ValidationError(f"frame camera {frame.camera!r} != tracker camera {self.camera!r}")
        frame_index = frame.frame_index
        if type(frame_index) is not int or not 0 <= frame_index <= MAX_FRAME_INDEX:
            raise ValidationError(
                f"frame index must be an int in [0, {MAX_FRAME_INDEX}], got {frame_index!r}"
            )
        timestamp = frame.timestamp
        last = self._last_timestamp
        if last is not None and timestamp <= last:
            raise StreamOrderError(
                f"camera {self.camera}: frame timestamp {timestamp:.3f} not after previous {last:.3f}"
            )

        cfg = self.config
        tracks = self.tracks
        dets = frame.detections
        events: list[TrackerEvent] = []

        # the filter runs per axis on each track's scalars (module docstring)
        if tracks and last is not None:
            dt = timestamp - last
            dt2 = dt * dt
            q = PROCESS_NOISE
            q_pos, q_cross, q_vel = q * dt2 * dt2 / 4.0, q * dt2 * dt / 2.0, q * dt2
            for track in tracks:
                track.x += dt * track.vx
                track.y += dt * track.vy
                p_cross, p_vel = track.p_cross, track.p_vel
                track.p_pos += dt * p_cross + dt * (p_cross + dt * p_vel) + q_pos
                track.p_cross = p_cross + (dt * p_vel + q_cross)
                track.p_vel = p_vel + q_vel

        if not tracks or not dets:
            track_partner, det_partner = [-1] * len(tracks), [-1] * len(dets)
        elif len(tracks) == 1 and len(dets) == 1:
            # one by one: the pair is the result if it is in gate
            dx = tracks[0].x - dets[0].cx
            dy = tracks[0].y - dets[0].cy
            track_partner = det_partner = (0,) if math.sqrt(dx * dx + dy * dy) <= cfg.gate_distance else (-1,)
        else:
            track_partner, det_partner = _associate(
                [(t.x, t.y) for t in tracks],
                [(d.cx, d.cy) for d in dets],
                cfg.gate_distance,
            )

        r = MEASUREMENT_NOISE
        live = []
        for track, det_idx in zip(tracks, track_partner):
            if det_idx < 0:
                track.consecutive_misses += 1
                # a tentative track does not survive a single miss
                if track.confirmed_at is not None and track.consecutive_misses < cfg.max_misses:
                    live.append(track)
                continue
            det = dets[det_idx]
            zx, zy = det.cx, det.cy
            # Kalman update, with the Joseph-form covariance
            p_pos, p_cross = track.p_pos, track.p_cross
            s = p_pos + r
            k0 = p_pos / s
            k1 = p_cross / s
            ix = zx - track.x
            iy = zy - track.y
            track.x += k0 * ix
            track.y += k0 * iy
            track.vx += k1 * ix
            track.vy += k1 * iy
            a0 = 1.0 - k0
            track.p_pos = a0 * a0 * p_pos + r * k0 * k0
            track.p_cross = a0 * (p_cross - k1 * p_pos) + r * k0 * k1
            track.p_vel += k1 * (k1 * p_pos - 2.0 * p_cross) + r * k1 * k1
            ticks = track.ticks
            ticks.append(frame_index)
            centers = track.centers
            centers.append(zx)
            centers.append(zy)
            track.consecutive_misses = 0
            live.append(track)
            if track.confirmed_at is None:
                track.classes.append(det.best_class)
                # a tentative track dies on its first miss, so all its hits are consecutive
                if len(ticks) >= cfg.confirm_hits:
                    track.confirmed_at = timestamp
                    events.append(self._event(track, timestamp))

        for det, partner in zip(dets, det_partner):
            if partner >= 0:
                continue
            cx, cy = det.cx, det.cy
            track = Track(self._next_id, cx, cy, p_pos=MEASUREMENT_NOISE, p_vel=INITIAL_VELOCITY_VARIANCE,
                          ticks=array("q", (frame_index,)), centers=array("d", (cx, cy)),
                          classes=[det.best_class])
            self._next_id += 1
            live.append(track)
            self.archive[track.track_id] = track
            if cfg.confirm_hits <= 1:
                track.confirmed_at = timestamp
                events.append(self._event(track, timestamp))

        self.tracks = live
        self._last_timestamp = timestamp
        return events

    def _event(self, track: Track, timestamp: float) -> TrackerEvent:
        return TrackerEvent(
            kind=NEW_VEHICLE,
            track_id=track.track_id,
            timestamp=timestamp,
            camera=self.camera,
            object_class=majority(track.classes),
        )
