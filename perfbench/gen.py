"""Seeded input generators for the replay-day and dense workloads.

Both generators place every object at a fixed slot of a grid whose spacing
is wider than the tracker's gate plus twice the largest jitter, and reuse a
slot only after it has stayed empty for longer than the tracker's miss
limit. A detection can therefore only ever be matched to the track of the
object that produced it, which makes the ground truth exact: every object
yields exactly one confirmed track, confirmed at a frame the generator can
compute without running the program.

This module does not import roadwatch. It writes the detection log in the
documented canonical text form itself, so the replayed bytes do not depend
on the program under test.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

CAMERAS = ("front", "rear")
CLASSES = ("truck", "vehicle", "pedestrian")  # order of the log's "conf" list
FPS = 30.0
GATE_PX = 75.0  # TrackerConfig default gate (1280-px frames)

OBJECTNESS = 0.95
BEST_CONF = 0.9
OTHER_CONF = 0.05


@dataclass(frozen=True)
class Grid:
    """Slot centers (x0 + i*dx, y0 + j*dy) for i < nx, j < ny."""

    x0: float
    dx: float
    nx: int
    y0: float
    dy: float
    ny: int
    jitter_px: float  # largest center offset a detection may have

    def slots(self) -> list[tuple[float, float]]:
        return [
            (self.x0 + i * self.dx, self.y0 + j * self.dy)
            for j in range(self.ny)
            for i in range(self.nx)
        ]

    def slot_of(self, cx: float, cy: float) -> int | None:
        """Index of the slot a center belongs to, or None if none is near."""
        i = round((cx - self.x0) / self.dx)
        j = round((cy - self.y0) / self.dy)
        if not (0 <= i < self.nx and 0 <= j < self.ny):
            return None
        sx, sy = self.x0 + i * self.dx, self.y0 + j * self.dy
        if abs(cx - sx) > self.jitter_px + 0.05 or abs(cy - sy) > self.jitter_px + 0.05:
            return None
        return j * self.nx + i


@dataclass(frozen=True)
class GroundTruth:
    """One generated object: where it sits and which ticks it is visible."""

    object_id: int
    camera: str
    slot: int
    first_tick: int
    last_tick: int
    confirm_tick: int | None  # tick of its new_vehicle event, None if never confirmed
    object_class: str


def tick_time(k: int) -> float:
    """Canonical millisecond timestamp of frame tick k at 30 FPS."""
    return round(k * 1000.0 / FPS) / 1000.0


def confirm_tick(ticks: list[int], present: list[bool]) -> int | None:
    """First tick whose detection and the previous tick's are both present.

    A tentative track dies on its first miss, so with two confirmation hits
    the track that survives is the one started just before the first two
    consecutive detections.
    """
    for i in range(1, len(ticks)):
        if present[i - 1] and present[i]:
            return ticks[i]
    return None


def _jitter(rng: random.Random, sigma: float, limit: float) -> float:
    return max(-limit, min(limit, rng.gauss(0.0, sigma)))


def _conf(object_class: str) -> str:
    return ",".join(f"{BEST_CONF if c == object_class else OTHER_CONF:.4f}" for c in CLASSES)


# --- replay-day ----------------------------------------------------------------

DAY_S = 28800.0
# paper-day.cfg arrival profile per direction: (start_s, end_s, vehicles/s).
# Each piece gets its expected count, drawn uniformly in time: a Poisson
# process conditioned on its count, so every seed carries the same load.
DAY_PROFILE = ((0.0, 14000.0, 0.0083333333), (14000.0, 15733.0, 0.2666666667),
               (15733.0, DAY_S - 10.0, 0.0083333333))
DAY_SPEED_MPS = (18.0, 30.0)
DAY_RANGE_M = 120.0
DAY_FOCAL_PX = 1000.0
DAY_HEIGHT_M = 1.5
DAY_TRUCKS = 0.20
DAY_PEDESTRIANS = 0.05
DAY_DROPOUT = 0.01
DAY_MAX_MISSES = 3  # TrackerConfig default, as `roadwatch replay` uses
DAY_GRID = Grid(x0=80.0, dx=160.0, nx=8, y0=90.0, dy=180.0, ny=4, jitter_px=6.0)
DAY_JITTER_SIGMA = 2.0


def _day_class(rng: random.Random) -> str:
    r = rng.random()
    if r < DAY_TRUCKS:
        return "truck"
    if r < DAY_TRUCKS + DAY_PEDESTRIANS:
        return "pedestrian"
    return "vehicle"


def replay_day(seed: int, path: str) -> dict:
    """Write the replay-day detection log to ``path``; return its ground truth.

    An 8-hour two-camera day with paper-day's arrival profile. Each vehicle
    approaches at a uniform speed, so its box grows as 1/distance while its
    center stays at its slot (with clipped jitter). Single detections drop
    out with probability 1 %, never two in a row, so an active track never
    reaches the miss limit. Idle stretches are compressed as the simulator
    does: after each busy tick at most ``DAY_MAX_MISSES`` empty frames follow.
    """
    rng = random.Random(seed)
    slots = DAY_GRID.slots()
    truth: list[GroundTruth] = []
    # per camera: tick -> list of (slot, line fragment)
    busy: dict[str, dict[int, list[tuple[int, str]]]] = {c: {} for c in CAMERAS}
    next_id = 1
    for camera in CAMERAS:
        spawns = []
        for start, end, rate in DAY_PROFILE:
            spawns += [rng.uniform(start, end) for _ in range(round(rate * (end - start)))]
        spawns.sort()
        free_from = [0] * len(slots)
        for spawn in spawns:
            speed = rng.uniform(*DAY_SPEED_MPS)
            object_class = _day_class(rng)
            ticks = []
            for k in range(math.floor(spawn * FPS), math.ceil((spawn + DAY_RANGE_M / speed) * FPS) + 1):
                d = DAY_RANGE_M - speed * (tick_time(k) - spawn)
                if 0.0 < d <= DAY_RANGE_M:
                    ticks.append((k, d))
            free = [s for s in range(len(slots)) if free_from[s] <= ticks[0][0]]
            slot = rng.choice(free)
            free_from[slot] = ticks[-1][0] + DAY_MAX_MISSES + 2
            sx, sy = slots[slot]
            present = []
            for i, (k, d) in enumerate(ticks):
                dropped = i > 0 and present[-1] and rng.random() < DAY_DROPOUT
                present.append(not dropped)
                frame_dets = busy[camera].setdefault(k, [])
                if dropped:
                    continue
                cx = round(sx + _jitter(rng, DAY_JITTER_SIGMA, DAY_GRID.jitter_px), 1)
                cy = round(sy + _jitter(rng, DAY_JITTER_SIGMA, DAY_GRID.jitter_px), 1)
                h = DAY_FOCAL_PX * DAY_HEIGHT_M / d
                frame_dets.append((slot, (
                    f'{{"cx":{cx:.1f},"cy":{cy:.1f},"w":{1.5 * h:.1f},"h":{h:.1f},'
                    f'"cls":"{object_class}","obj":{OBJECTNESS:.4f},"conf":[{_conf(object_class)}]}}'
                )))
            tick_list = [k for k, _ in ticks]
            truth.append(GroundTruth(next_id, camera, slot, tick_list[0], tick_list[-1],
                                     confirm_tick(tick_list, present), object_class))
            next_id += 1

    # frames per camera: busy ticks plus the trailing empty ticks
    frames: dict[int, list[tuple[str, list[tuple[int, str]]]]] = {}
    for camera in CAMERAS:
        ticks = sorted(busy[camera])
        for i, k in enumerate(ticks):
            frames.setdefault(k, []).append((camera, busy[camera][k]))
            gap_end = ticks[i + 1] if i + 1 < len(ticks) else int(DAY_S * FPS)
            for j in range(k + 1, min(k + 1 + DAY_MAX_MISSES, gap_end)):
                frames.setdefault(j, []).append((camera, []))

    n_frames = 0
    with open(path, "w", encoding="utf-8", newline="") as sink:
        for k in sorted(frames):
            t = tick_time(k)
            for camera, dets in frames[k]:  # front before rear on equal time
                body = ",".join(line for _, line in sorted(dets))
                sink.write(f'{{"camera":"{camera}","frame":{k},"t":{t:.3f},"dets":[{body}]}}\n')
                n_frames += 1
    return {"frames": n_frames, "objects": [list(vars(g).values()) for g in truth]}


def load_truth(path: str) -> tuple[int, list[GroundTruth]]:
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    return data["frames"], [GroundTruth(*row) for row in data["objects"]]


# --- dense -------------------------------------------------------------------

DENSE_SECONDS = 150  # data time per round: 4500 ticks per camera, 9000 frames
DENSE_GRID = Grid(x0=64.0, dx=128.0, nx=10, y0=72.0, dy=144.0, ny=5, jitter_px=3.0)
DENSE_OCCUPIED = 20  # detections per frame
DENSE_DWELL_TICKS = (30, 180)  # 1 to 6 s
DENSE_MAX_MISSES = 10  # criterion-7 tracker setting
DENSE_TRUCKS = 0.20


def dense(seed: int, seconds: int = DENSE_SECONDS):
    """Criterion-7 load: two 30 FPS cameras, 20 of 50 slots occupied.

    Returns (frames, truth). ``frames`` is a list in stream order of
    (camera, tick, [(cx, cy, class), ...]). Each occupant stays for a seeded
    dwell; when it leaves, a new occupant takes a slot that has been empty
    for more than the miss limit, so tracks keep spawning, confirming and
    terminating while every frame holds exactly ``DENSE_OCCUPIED`` boxes.
    """
    rng = random.Random(seed)
    slots = DENSE_GRID.slots()
    n_ticks = int(seconds * FPS)
    truth: list[GroundTruth] = []
    per_camera: dict[str, list[list[tuple[float, float, str]]]] = {}
    next_id = 1
    for camera in CAMERAS:
        vacant_since = [-(DENSE_MAX_MISSES + 2)] * len(slots)
        occupants = {}  # slot -> (object id, first tick, leave tick, class)

        def enter(k: int) -> None:
            nonlocal next_id
            free = [s for s in range(len(slots))
                    if s not in occupants and vacant_since[s] <= k - (DENSE_MAX_MISSES + 2)]
            slot = rng.choice(free)
            object_class = "truck" if rng.random() < DENSE_TRUCKS else "vehicle"
            occupants[slot] = (next_id, k, k + rng.randint(*DENSE_DWELL_TICKS), object_class)
            next_id += 1

        def leave(slot: int, k: int) -> None:
            object_id, first, _, object_class = occupants.pop(slot)
            last = k - 1
            confirm = first + 1 if last > first else None
            truth.append(GroundTruth(object_id, camera, slot, first, last, confirm, object_class))
            vacant_since[slot] = k

        for _ in range(DENSE_OCCUPIED):
            enter(0)
        ticks = []
        for k in range(n_ticks):
            for slot in [s for s, occ in occupants.items() if occ[2] == k]:
                leave(slot, k)
                enter(k)
            dets = []
            for slot in sorted(occupants):
                sx, sy = slots[slot]
                dets.append((
                    round(sx + _jitter(rng, 1.0, DENSE_GRID.jitter_px), 1),
                    round(sy + _jitter(rng, 1.0, DENSE_GRID.jitter_px), 1),
                    occupants[slot][3],
                ))
            ticks.append(dets)
        for slot in list(occupants):
            leave(slot, n_ticks)
        per_camera[camera] = ticks

    frames = [(camera, k, per_camera[camera][k]) for k in range(n_ticks) for camera in CAMERAS]
    truth.sort(key=lambda g: g.object_id)
    return frames, truth
