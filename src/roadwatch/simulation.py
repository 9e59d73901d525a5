"""Discrete-event traffic and sensing simulator.

Generates ground-truth vehicle passes per direction (non-homogeneous Poisson
arrivals), renders them into the two camera detection streams through a
pinhole projection with jitter/dropout/occlusion, and drives the full
tracking + warning pipeline so that field-style statistics (warning counts
with and without the flow check, pre-warning time histograms) can be
reproduced at desk scale.

All rendered values are canonicalized to the detection-log precision
(timestamps to 1 ms, pixels to 0.1, probabilities to 1e-4), which makes a
simulated run, its dumped detection log, and a replay of that log agree
bit-for-bit.
"""

from __future__ import annotations

import bisect
import configparser
import heapq
import math
from array import array
from collections import Counter
from dataclasses import MISSING, dataclass, field, fields
from importlib import resources
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator

import numpy as np

# write_detection_log stays importable from here: perfbench/tracer.py wraps
# it under this module's name
from .detection import (  # noqa: F401
    CAMERAS,
    CLASSES,
    Detection,
    FrameDetections,
    decode_json,
    format_detection_line,
    line_writer,
    write_detection_log,
)
from .errors import ConfigError
from .tracking import TrackerConfig, TrackerEvent, VehicleTracker
from .warning import (
    DECISION_SKIP_CLASS,
    DECISION_SUPPRESS,
    DECISION_WARN,
    AuditRecord,
    FlowCheckMonitor,
)
from .workers import received

DIRECTIONS = CAMERAS

# fixed world/projection constants of the 1-D road model
VEHICLE_ASPECT = 1.5        # rendered box width / height
LANE_CENTER_X = 0.5         # lane offset, fraction of image width
LANE_CENTER_Y = 0.55        # road line, fraction of image height
NOMINAL_OBJECTNESS = 0.95
NOMINAL_CONFIDENCE = 0.9

# upper bounds of a scenario: at most 7 days at 1000 frames a second, and
# at most a million expected arrival draws per direction (the largest rate
# times the duration); a vehicle may take at most MAX_DURATION_S to pass
MAX_DURATION_S = 604800.0
MAX_FRAME_RATE_HZ = 1000.0
MAX_EXPECTED_ARRIVALS = 1e6
# bounds on the work of a run, per direction. Every vehicle renders at one
# image point, so every track-detection pair is in gate and a frame costs
# about the square of the vehicles in view: at most MAX_VEHICLES_IN_VIEW
# expected at once (the largest rate times the shorter of the duration and
# the longest pass), and at most MAX_EXPECTED_DETECTIONS rendered per camera
# (the frame rate times the profile's integral of rate x min(longest pass,
# time left), each arrival seen for at most its longest pass). A run at both
# limits, with 5 px of centre jitter, took 77 s on a 2-core x86-64; the
# parent peaked at 302 MB and each camera worker near 250 MB. That run had a
# constant rate, which is still the worst case: at a given number of
# detections, a frame costs the most when the most vehicles are in view, and
# a constant rate keeps that number at its limit all day.
MAX_VEHICLES_IN_VIEW = 20.0
MAX_EXPECTED_DETECTIONS = 3e6
# at most a million expected false positives per camera (the per-frame rate
# times the frame count: at 1 a frame, 100 Hz and no traffic for 10,000 s the
# parent peaked at 143 MB on a 2-core x86-64, each camera worker near 690 MB,
# mostly its tracker archive); an image side, and the box height of a vehicle
# at the far edge of the detection range, at most MAX_IMAGE_SIZE_PX. A vehicle
# renders at a distance above detection_range_m * 2**-54 (the spacing of
# doubles there), so every box is then below 2e21 px: finite, as the log needs
MAX_EXPECTED_FALSE_POSITIVES = 1e6
MAX_IMAGE_SIZE_PX = 100_000


@dataclass(frozen=True)
class RatePiece:
    """Arrival rate (vehicles/s) holding from ``start`` until the next piece."""

    start: float
    rate: float


@dataclass(frozen=True)
class OcclusionWindow:
    """Distance interval [near, far] (m) where one direction sees nothing."""

    direction: str
    near: float
    far: float


@dataclass(frozen=True)
class CameraModel:
    focal_length_px: float = 1000.0
    vehicle_height_m: float = 1.5
    image_width: int = 1280
    image_height: int = 720


@dataclass(frozen=True)
class NoiseModel:
    center_jitter_px: float = 0.0
    dropout_prob: float = 0.0
    false_positive_rate: float = 0.0


@dataclass
class Scenario:
    """Simulator world description; SCENARIO_KEYS gives the file schema, scenarios/*.cfg examples."""

    duration: float
    arrival_profile: dict[str, list[RatePiece]]
    speed_range: tuple[float, float]
    detection_range: float
    occlusion_windows: list[OcclusionWindow] = field(default_factory=list)
    frame_rate: float = 30.0
    camera: CameraModel = field(default_factory=CameraModel)
    noise: NoiseModel = field(default_factory=NoiseModel)
    truck_fraction: float = 0.2
    seed: int = 0

    def validate(self) -> None:
        for section, key, attr, _, bound in SCENARIO_KEYS:
            if bound is None:
                continue
            value = self
            for part in attr.split("."):  # a field, a model's field or an item of speed_range
                value = value[int(part)] if part.isdigit() else getattr(value, part)
            holds, wording = bound
            if not holds(value):
                raise ConfigError(f"{section}.{key} must be {wording}, got {value}")
        lo, hi = self.speed_range
        if not lo <= hi < math.inf:
            raise ConfigError(f"road.speed_max_mps must be finite and >= speed_min_mps, got {hi}")
        # bounds each pass time, and so each pre-warning delta and the histogram
        if self.detection_range / lo > MAX_DURATION_S:
            raise ConfigError(
                f"road.detection_range_m / road.speed_min_mps must be <= {MAX_DURATION_S:g} s, "
                f"got {self.detection_range / lo:g}"
            )
        for direction in DIRECTIONS:
            pieces = self.arrival_profile.get(direction, [])
            if not pieces:
                raise ConfigError(f"arrivals.{direction}.profile must have at least one piece")
            if pieces[0].start != 0.0:
                raise ConfigError(f"arrivals.{direction}.profile must start at time 0")
            for prev, cur in zip(pieces, pieces[1:]):
                if not prev.start < cur.start < math.inf:
                    raise ConfigError(f"arrivals.{direction}.profile starts must be finite and increase")
            for piece in pieces:
                if not 0 <= piece.rate < math.inf:
                    raise ConfigError(f"arrivals.{direction}.profile rates must be finite and >= 0")
            rate = max(piece.rate for piece in pieces)
            if rate * self.duration > MAX_EXPECTED_ARRIVALS:
                raise ConfigError(
                    f"arrivals.{direction}.profile: largest rate x duration_s must be "
                    f"<= {MAX_EXPECTED_ARRIVALS:g} expected arrivals, got {rate * self.duration:g}"
                )
            in_view = rate * min(self.duration, self.detection_range / lo)
            if in_view > MAX_VEHICLES_IN_VIEW:
                raise ConfigError(
                    f"arrivals.{direction}.profile: largest rate x min(duration_s, road.detection_range_m / "
                    f"road.speed_min_mps) must be <= {MAX_VEHICLES_IN_VIEW:g} expected vehicles in view, "
                    f"got {in_view:g}"
                )
            # each piece's integral of min(longest, duration - t): constant before t = duration - longest
            duration, longest = self.duration, self.detection_range / lo
            seen = 0.0
            for piece, end in zip(pieces, [p.start for p in pieces[1:]] + [duration]):
                start, end = min(piece.start, duration), min(end, duration)
                knee = min(max(duration - longest, start), end)
                seen += piece.rate * (longest * (knee - start) + ((duration - knee) ** 2 - (duration - end) ** 2) / 2)
            detections = seen * self.frame_rate
            if detections > MAX_EXPECTED_DETECTIONS:
                raise ConfigError(
                    f"arrivals.{direction}.profile: frame_rate_hz x the integral over time t of rate x "
                    f"min(road.detection_range_m / road.speed_min_mps, duration_s - t) must be "
                    f"<= {MAX_EXPECTED_DETECTIONS:g} expected detections per camera, got {detections:g}"
                )
        for window in self.occlusion_windows:
            if window.direction not in DIRECTIONS:
                raise ConfigError(f"road.occlusions direction must be front|rear, got {window.direction!r}")
            if not 0 <= window.near <= window.far < math.inf:
                raise ConfigError(
                    f"road.occlusions must satisfy 0 <= near <= far < inf, got {window.near}-{window.far}"
                )
        cam = self.camera
        far_box = cam.focal_length_px * cam.vehicle_height_m / self.detection_range
        if not far_box <= MAX_IMAGE_SIZE_PX:
            raise ConfigError(
                f"camera.focal_length_px x camera.vehicle_height_m / road.detection_range_m (the box height "
                f"at the far edge of the range) must be <= {MAX_IMAGE_SIZE_PX} px, got {far_box:g}"
            )
        if not (0 < cam.image_width <= MAX_IMAGE_SIZE_PX and 0 < cam.image_height <= MAX_IMAGE_SIZE_PX):
            raise ConfigError(
                f"camera image size must be positive and at most {MAX_IMAGE_SIZE_PX} px a side "
                f"(camera.image_width_px x camera.image_height_px), got {cam.image_width}x{cam.image_height}"
            )
        expected = self.noise.false_positive_rate * self.duration * self.frame_rate
        if expected > MAX_EXPECTED_FALSE_POSITIVES:
            raise ConfigError(
                f"noise.false_positive_rate x duration_s x frame_rate_hz must be <= "
                f"{MAX_EXPECTED_FALSE_POSITIVES:g} expected false positives per camera, got {expected:g}"
            )


@dataclass(frozen=True)
class VehiclePass:
    """Ground truth for one vehicle: when it appeared and when it passes."""

    vehicle_id: int
    direction: str
    spawn_time: float
    speed: float
    pass_time: float
    vehicle_class: str


# --- scenario files ----------------------------------------------------------

BUILTIN_SCENARIOS = ("paper-day", "country-road", "occluded-curve", "empty")


def _parse_profile(text: str) -> list[RatePiece]:
    pieces = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            start_s, rate_s = chunk.split(":")
            pieces.append(RatePiece(start=float(start_s), rate=float(rate_s)))
        except ValueError as exc:
            raise ConfigError(f"bad profile entry {chunk!r} (want start:rate)") from exc
    return pieces


def _parse_occlusions(text: str) -> list[OcclusionWindow]:
    windows = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            direction, interval = chunk.split(":")
            interval = interval.strip()
            # the "-" between the bounds is neither a leading sign nor an exponent's
            cut = next(
                (i for i in range(1, len(interval)) if interval[i] == "-" and interval[i - 1] not in "eE"), None
            )
            if cut is None:
                raise ValueError("no near-far separator")
            near_s, far_s = interval[:cut], interval[cut + 1:]
            windows.append(
                OcclusionWindow(direction=direction.strip(), near=float(near_s), far=float(far_s))
            )
        except ValueError as exc:
            raise ConfigError(f"bad entry {chunk!r} (want direction:near-far)") from exc
    return windows


# per-field bounds, (test, wording); each test is False for NaN: an
# infinite duration or arrival rate would never end the arrival loop
_POSITIVE = (lambda v: 0 < v < math.inf, "finite and > 0")
_NON_NEGATIVE = (lambda v: 0 <= v < math.inf, "finite and >= 0")
_UNIT = (lambda v: 0 <= v <= 1, "in [0, 1]")
# every key of a scenario file: (section, key, Scenario attribute, converter,
# bound or None). An attribute "a.b" is field b of the camera or noise model,
# direction b of arrival_profile, or item b of speed_range. A key left out
# keeps its attribute's default; a key whose attribute has none is required.
# The bounds that join fields are in Scenario.validate.
SCENARIO_KEYS = [
    ("scenario", "duration_s", "duration", float,
     (lambda v: 0 < v <= MAX_DURATION_S, f"finite, > 0 and <= {MAX_DURATION_S:g}")),
    # numpy's generators take no negative seed, and report.json reads an
    # integer of 2**64 or more back as a float
    ("scenario", "seed", "seed", int, (lambda v: 0 <= v < 2**64, ">= 0 and < 2**64")),
    ("scenario", "frame_rate_hz", "frame_rate", float,
     (lambda v: 0 < v <= MAX_FRAME_RATE_HZ, f"finite, > 0 and <= {MAX_FRAME_RATE_HZ:g}")),
    ("scenario", "truck_fraction", "truck_fraction", float, _UNIT),
    ("arrivals.front", "profile", "arrival_profile.front", _parse_profile, None),
    ("arrivals.rear", "profile", "arrival_profile.rear", _parse_profile, None),
    ("road", "speed_min_mps", "speed_range.0", float, _POSITIVE),
    ("road", "speed_max_mps", "speed_range.1", float, None),
    ("road", "detection_range_m", "detection_range", float, _POSITIVE),
    ("road", "occlusions", "occlusion_windows", _parse_occlusions, None),
    ("camera", "focal_length_px", "camera.focal_length_px", float, _POSITIVE),
    ("camera", "vehicle_height_m", "camera.vehicle_height_m", float, _POSITIVE),
    ("camera", "image_width_px", "camera.image_width", int, None),
    ("camera", "image_height_px", "camera.image_height", int, None),
    ("noise", "center_jitter_px", "noise.center_jitter_px", float, _NON_NEGATIVE),
    ("noise", "dropout_prob", "noise.dropout_prob", float, _UNIT),
    ("noise", "false_positive_rate", "noise.false_positive_rate", float, _NON_NEGATIVE),
]
_REQUIRED = {f.name for f in fields(Scenario) if f.default is MISSING and f.default_factory is MISSING}


def parse_scenario(text: str) -> Scenario:
    """Parse the key-value scenario format; raises ConfigError naming the field."""
    # no interpolation: a "%" in a value is then just a character
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"scenario file is not valid config syntax: {exc}") from exc
    values: dict = {"camera": {}, "noise": {}}
    for section, key, attr, convert, _ in SCENARIO_KEYS:
        name, _, part = attr.partition(".")
        if not parser.has_option(section, key):
            if name in _REQUIRED:
                raise ConfigError(f"missing required field {section}.{key}")
            continue
        raw = parser.get(section, key)
        try:
            value = convert(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{section}.{key}: cannot parse {raw!r}") from exc
        except ConfigError as exc:
            raise ConfigError(f"{section}.{key}: {exc}") from exc
        if part:
            values.setdefault(name, {})[part] = value
        else:
            values[name] = value
    # options of [DEFAULT] show up in every section, so they are reported too
    keys: dict[str, list[str]] = {}
    for section, key, *_ in SCENARIO_KEYS:
        keys.setdefault(section, []).append(key)
    for section in parser.sections():
        if section not in keys:
            raise ConfigError(f"unknown section [{section}] (sections: {', '.join(keys)})")
        for key in parser.options(section):
            if key not in keys[section]:
                raise ConfigError(f"unknown key {section}.{key} (keys: {', '.join(keys[section])})")
    speeds = values["speed_range"]
    values.update(
        speed_range=(speeds["0"], speeds["1"]),
        camera=CameraModel(**values["camera"]),
        noise=NoiseModel(**values["noise"]),
    )
    scenario = Scenario(**values)
    scenario.validate()
    return scenario


def load_scenario(path_or_name: str | Path) -> Scenario:
    """Load a scenario from a file path or a builtin name (paper-day, ...)."""
    path = Path(path_or_name)
    if path.is_file():
        return parse_scenario(path.read_text(encoding="utf-8"))
    name = str(path_or_name)
    if name in BUILTIN_SCENARIOS:
        text = (resources.files("roadwatch") / "scenarios" / f"{name}.cfg").read_text("utf-8")
        return parse_scenario(text)
    raise ConfigError(
        f"scenario {path_or_name!r} is neither a file nor a builtin "
        f"(builtins: {', '.join(BUILTIN_SCENARIOS)})"
    )


# --- arrival process ---------------------------------------------------------


def _rate_at(pieces: list[RatePiece], t: float) -> float:
    rate = 0.0
    for piece in pieces:
        if piece.start <= t:
            rate = piece.rate
        else:
            break
    return rate


def generate_passes(scenario: Scenario, rng: np.random.Generator) -> list[VehiclePass]:
    """Draw vehicle passes per direction via Poisson thinning.

    Spawn times follow the piecewise-constant rate profile; each vehicle gets
    a uniform speed and a class draw. Deterministic given the generator state.
    """
    passes: list[VehiclePass] = []
    next_id = 1
    lo, hi = scenario.speed_range
    for direction in DIRECTIONS:
        pieces = scenario.arrival_profile[direction]
        lam_max = max(piece.rate for piece in pieces)
        if lam_max <= 0:
            continue
        t = 0.0
        while True:
            t += rng.exponential(1.0 / lam_max)
            if t >= scenario.duration:
                break
            if rng.random() * lam_max >= _rate_at(pieces, t):
                continue
            speed = rng.uniform(lo, hi)
            vehicle_class = "truck" if rng.random() < scenario.truck_fraction else "vehicle"
            passes.append(
                VehiclePass(
                    vehicle_id=next_id,
                    direction=direction,
                    spawn_time=t,
                    speed=speed,
                    pass_time=t + scenario.detection_range / speed,
                    vehicle_class=vehicle_class,
                )
            )
            next_id += 1
    return passes


# --- sensing model -----------------------------------------------------------


def _tick_time(k: int, frame_rate: float) -> float:
    # canonical millisecond grid so timestamps survive the log round trip
    return round(k * 1000.0 / frame_rate) / 1000.0


_OTHER_CONFIDENCE = round((1.0 - NOMINAL_CONFIDENCE) / (len(CLASSES) - 1), 4)
# class -> its rendered class confidences, and their combined score
_CONFIDENCES = {
    best: tuple(NOMINAL_CONFIDENCE if c == best else _OTHER_CONFIDENCE for c in CLASSES) for best in CLASSES
}
_SCORES = {cls: NOMINAL_OBJECTNESS * max(confs) for cls, confs in _CONFIDENCES.items()}


# entries whose times and box sizes _Rendering.frames computes at a time
_BLOCK_ENTRIES = 1024


def _view(values: array) -> np.ndarray:
    """A numpy view of ``values``, without a copy."""
    return np.frombuffer(values, dtype=values.typecode)


class _Rendering:
    """The random draws of one render, built into frames one at a time.

    The constructor makes every random draw, as whole arrays, in this
    order. Per vehicle in ``passes`` order: one dropout draw for each tick
    in range and outside the occlusion windows (``rng.random(n)``, when
    ``dropout_prob > 0``), then the jitter of the m ticks kept
    (``rng.normal(0, center_jitter_px, (2, m))``, the first row for cx, when
    ``center_jitter_px > 0``). Then per camera, front first, when
    ``false_positive_rate > 0``: the number of false positives (one Poisson
    draw), their ticks, cx, cy, width, height and class, each one array.
    Every rendered number but the time is rounded with ``np.round(x, 1)``:
    drawn centres, clipped to the image, false-positive sizes and the
    projected box sizes. That gives the double nearest to a tenth, which
    the log writes and parses back unchanged.

    It keeps, per camera, four flat arrays with one entry per kept vehicle
    detection (28 bytes each): its tick, cx, cy and the vehicle's position
    in ``passes``, sorted by (tick, position); six with one entry per false
    positive (41 bytes each), as drawn: its tick, cx, cy, width, height and
    class index; and each pass's speed and spawn time. ``frames`` builds
    each ``Detection`` when its frame is asked for, and vehicle tick times
    and box sizes for one block of entries at a time.
    """

    def __init__(
        self,
        passes: Iterable[VehiclePass],
        scenario: Scenario,
        rng: np.random.Generator,
    ):
        self.scenario = scenario
        self.passes = passes = list(passes)
        self.speeds = np.array([vehicle.speed for vehicle in passes], dtype=float)
        self.spawn_times = np.array([vehicle.spawn_time for vehicle in passes], dtype=float)
        fps = scenario.frame_rate
        cam = scenario.camera
        noise = scenario.noise
        reach = scenario.detection_range
        self.n_ticks = n_ticks = int(math.floor(scenario.duration * fps))
        windows: dict[str, list[OcclusionWindow]] = {d: [] for d in DIRECTIONS}
        for window in scenario.occlusion_windows:
            windows[window.direction].append(window)
        # 1-D world: the lane projects to a fixed image point, only the box
        # size carries the range information
        lane = np.array([[cam.image_width * LANE_CENTER_X], [cam.image_height * LANE_CENTER_Y]])
        image = np.array([[cam.image_width], [cam.image_height]], dtype=float)

        self.ticks = {d: array("q") for d in DIRECTIONS}
        self.cx = {d: array("d") for d in DIRECTIONS}
        self.cy = {d: array("d") for d in DIRECTIONS}
        self.positions = {d: array("i") for d in DIRECTIONS}
        for position, vehicle in enumerate(passes):
            k_first = max(0, math.ceil(vehicle.spawn_time * fps - 1e-9))
            k_last = min(n_ticks - 1, math.floor(vehicle.pass_time * fps + 1e-9))
            ticks = np.arange(k_first, k_last + 1, dtype=np.int64)
            # np.rint rounds half to even as round() does: _tick_time, bit for bit
            d = reach - vehicle.speed * (np.rint(ticks * 1000.0 / fps) / 1000.0 - vehicle.spawn_time)
            seen = (0.0 < d) & (d <= reach)
            for w in windows[vehicle.direction]:
                seen &= ~((w.near <= d) & (d <= w.far))
            ticks = ticks[seen]
            if noise.dropout_prob > 0:
                ticks = ticks[rng.random(len(ticks)) >= noise.dropout_prob]
            if not len(ticks):
                continue
            if noise.center_jitter_px > 0:
                centres = lane + rng.normal(0.0, noise.center_jitter_px, (2, len(ticks)))
            else:
                centres = np.repeat(lane, len(ticks), axis=1)
            cx, cy = np.round(np.clip(centres, 0.0, image), 1)
            direction = vehicle.direction
            self.ticks[direction].frombytes(ticks.tobytes())
            self.cx[direction].frombytes(cx.tobytes())
            self.cy[direction].frombytes(cy.tobytes())
            self.positions[direction].extend(array("i", [position]) * len(ticks))

        for direction in DIRECTIONS:
            order = np.lexsort((_view(self.positions[direction]), _view(self.ticks[direction])))
            for column in (self.ticks, self.cx, self.cy, self.positions):
                column[direction] = array(column[direction].typecode, _view(column[direction])[order].tobytes())

        self.false_positives: dict[str, tuple[array, ...]] = {d: tuple(map(array, "qddddB")) for d in DIRECTIONS}
        if noise.false_positive_rate > 0:
            for direction in DIRECTIONS:
                # a Poisson count per frame, drawn as their Poisson total spread
                # uniformly over the frames: the same law, without one count per frame
                n = int(rng.poisson(noise.false_positive_rate * n_ticks))
                ranges = ((0.0, cam.image_width), (0.0, cam.image_height), (8.0, 80.0), (8.0, 80.0))
                self.false_positives[direction] = (
                    array("q", np.sort(rng.integers(0, n_ticks, n)).tobytes()),
                    *(array("d", np.round(rng.uniform(low, high, n), 1).tobytes()) for low, high in ranges),
                    array("B", rng.integers(0, len(CLASSES), n).astype(np.uint8).tobytes()),
                )

    def frames(self, camera: str) -> Iterator[FrameDetections]:
        """One camera's frames in tick order, each built when it is asked for.

        A tick holds its vehicles' detections in ``passes`` order, then its
        false positives in draw order. A tick without detections has no
        frame: a tracker counts the frame indices it skips as misses.
        """
        fps = self.scenario.frame_rate
        cam = self.scenario.camera
        reach = self.scenario.detection_range
        size = cam.focal_length_px * cam.vehicle_height_m
        end = self.n_ticks
        passes = self.passes
        ticks, xs, ys, positions = self.ticks[camera], self.cx[camera], self.cy[camera], self.positions[camera]
        n = len(ticks)
        fp_ticks, fp_xs, fp_ys, fp_widths, fp_heights, fp_classes = self.false_positives[camera]
        m = len(fp_ticks)

        i = j = lo = hi = 0  # entries [lo, hi) are the block in hand, j the next false positive
        while (k := min(ticks[i] if i < n else end, fp_ticks[j] if j < m else end)) < end:
            dets = []
            if i < n and ticks[i] == k:
                if i == hi:
                    # the next block, run on to the end of its last tick
                    lo, hi = i, bisect.bisect_right(ticks, ticks[min(i + _BLOCK_ENTRIES, n) - 1], i)
                    block = _view(ticks)[lo:hi]
                    at = _view(positions)[lo:hi]
                    ts = np.rint(block * 1000.0 / fps) / 1000.0  # _tick_time, as in __init__
                    h = size / (reach - self.speeds[at] * (ts - self.spawn_times[at]))
                    ts = ts.tolist()
                    widths, heights = np.round(VEHICLE_ASPECT * h, 1).tolist(), np.round(h, 1).tolist()
                t = ts[i - lo]
                while i < n and ticks[i] == k:
                    cls = passes[positions[i]].vehicle_class
                    dets.append(Detection(k, xs[i], ys[i], widths[i - lo], heights[i - lo],
                                          NOMINAL_OBJECTNESS, _CONFIDENCES[cls], _SCORES[cls], cls))
                    i += 1
            else:
                t = _tick_time(k, fps)
            while j < m and fp_ticks[j] == k:
                cls = CLASSES[fp_classes[j]]
                dets.append(Detection(k, fp_xs[j], fp_ys[j], fp_widths[j], fp_heights[j],
                                      NOMINAL_OBJECTNESS, _CONFIDENCES[cls], _SCORES[cls], cls))
                j += 1
            yield FrameDetections(k, t, camera, dets)

    def label(self, camera: str, k: int, cx: float, cy: float) -> int | None:
        """Id of the first vehicle in ``passes`` order rendered at (camera, k, cx, cy), or None."""
        ticks, xs, ys = self.ticks[camera], self.cx[camera], self.cy[camera]
        # a tick's entries are in passes order, so the first match is the one
        for i in range(bisect.bisect_left(ticks, k), bisect.bisect_right(ticks, k)):
            if xs[i] == cx and ys[i] == cy:
                return self.passes[self.positions[camera][i]].vehicle_id
        return None


def render_detections(
    passes: Iterable[VehiclePass],
    scenario: Scenario,
    rng: np.random.Generator,
) -> dict[str, list[FrameDetections]]:
    """Render passes into per-camera detection streams, held in full.

    A vehicle yields a detection at every frame tick while its distance d is
    in (0, detection_range] and outside every occlusion window of its
    direction (windows are inclusive). Box height is the pinhole projection
    focal_length * vehicle_height / d; the center is jittered and the
    detection dropped according to the noise model. One-frame false positive
    boxes are injected at the configured per-frame rate.

    Only ticks with detections become frames; a tracker counts the frame
    indices between them as misses.

    :func:`run_passes` does not call this: its camera workers build the same
    frames one at a time from the same draws, so beside the draws' flat
    columns their memory follows the live tracks and the archive.
    """
    rendering = _Rendering(passes, scenario, rng)
    return {d: list(rendering.frames(d)) for d in DIRECTIONS}


def merge_streams(frames: dict[str, list[FrameDetections]]) -> list[FrameDetections]:
    """Interleave per-camera frames by timestamp, front before rear on ties.

    Each stream must already be in timestamp order, as rendered.
    """
    return list(heapq.merge(frames["front"], frames["rear"], key=attrgetter("timestamp")))


# --- pipeline driver and report ----------------------------------------------


@dataclass
class SimulationReport:
    """Everything the field-style evaluation needs, in deterministic form."""

    duration: float
    t_duration: float
    seed: int
    entries: list[AuditRecord]
    emit_failures: int = 0
    # False for a replay: no entry can be matched to a vehicle
    ground_truth: bool = True

    @property
    def warnings_without_filter(self) -> int:
        return sum(1 for e in self.entries if e.decision != DECISION_SKIP_CLASS)

    @property
    def warnings_with_filter(self) -> int:
        return sum(1 for e in self.entries if e.decision == DECISION_WARN)

    @property
    def spurious_warnings(self) -> int | None:
        """Warnings matched to no vehicle; None without ground truth."""
        if not self.ground_truth:
            return None
        return sum(
            1 for e in self.entries if e.decision == DECISION_WARN and e.vehicle_id is None
        )

    @property
    def deltas(self) -> list[float]:
        return [e.delta for e in self.entries if e.delta is not None]

    def histogram(self) -> dict[int, int]:
        """Pre-warning time histogram: the count of each non-empty 1-second bin, in bin order.

        Each delta is binned to 1 ms, as audit.jsonl keeps it.
        """
        return dict(sorted(Counter(int(math.floor(round(d, 3))) for d in self.deltas).items()))

    def hourly_counts(self) -> list[tuple[int, int, int]]:
        """(hour, events, warnings) rows, in hour order, for the hours with an event."""
        events = Counter()
        warns = Counter()
        for e in self.entries:
            if e.decision == DECISION_SKIP_CLASS:
                continue
            hour = int(e.timestamp // 3600)
            events[hour] += 1
            if e.decision == DECISION_WARN:
                warns[hour] += 1
        return [(h, events[h], warns[h]) for h in sorted(events)]


# One frame's record between the two halves of the pipeline: (timestamp,
# dump line or None, new-vehicle events), each event paired with its
# vehicle id or None.
Record = tuple[float, str | None, list[tuple[TrackerEvent, int | None]]]


def _track(
    frames: Iterable[FrameDetections],
    trackers: dict[str, VehicleTracker],
    dump: bool = False,
    label: Callable[[str, int, float, float], int | None] | None = None,
) -> Iterator[Record]:
    """The first half of the pipeline: each frame's record, after its tracker's step.

    The dump line is formatted when ``dump`` is set. Each new-vehicle event
    is paired with ``label(camera, frame index, cx, cy)`` of the hit that
    confirmed its track, the track's last, when ``label`` is given, and
    with None when it is not. A step's exception ends the records.
    """
    for frame in frames:
        line = format_detection_line(frame) if dump else None
        tracker = trackers[frame.camera]
        events = tracker.step(frame)
        yield frame.timestamp, line, [
            (e, label(frame.camera, frame.frame_index, *tracker.archive[e.track_id].centers[-2:]) if label else None)
            for e in events
        ]


def _flow_check(
    records: Iterable[Record],
    monitor: FlowCheckMonitor,
    write: Callable[[str], object] | None = None,
    pass_times: dict[int, float] | None = None,
) -> tuple[int, float]:
    """The second half of the pipeline: records, in merged stream order, into the one flow check.

    Each record's dump line goes to ``write`` first; then its events are
    observed. A warning whose event carries a vehicle id gets that
    vehicle's pass time from ``pass_times`` and its pre-warning delta. An
    exception from ``records`` is raised after the records before it.
    Returns the frame count and the largest frame timestamp (0.0 for none).
    """
    count = 0
    last_t = 0.0
    for timestamp, line, events in records:
        if line is not None:
            write(line)
        count += 1
        if timestamp > last_t:
            last_t = timestamp
        for event, vehicle_id in events:
            warning = monitor.observe(event)
            if warning is not None and vehicle_id is not None:
                warning.vehicle_id = vehicle_id
                warning.pass_time = pass_times[vehicle_id]
                warning.delta = warning.pass_time - warning.timestamp
    return count, last_t


def drive(
    frames: Iterable[FrameDetections],
    trackers: dict[str, VehicleTracker],
    monitor: FlowCheckMonitor,
) -> tuple[int, float]:
    """Feed frames (already in merged stream order) through the pipeline.

    Returns the frame count and the largest frame timestamp (0.0 for none).
    """
    return _flow_check(_track(frames, trackers), monitor)


def run_passes(
    passes: list[VehiclePass],
    scenario: Scenario,
    rng: np.random.Generator,
    monitor: FlowCheckMonitor,
    tracker_config: TrackerConfig | None = None,
    dump_sink: IO[str] | IO[bytes] | None = None,
) -> SimulationReport:
    """Render the given passes and run tracking + ``monitor``'s flow check over them.

    Every random draw is made here. Then each camera's frames are built,
    formatted and tracked by ``_track``, in a worker process where
    ``workers.received`` starts one and here otherwise; each new vehicle is
    labelled with the vehicle rendered at its confirming hit. This process
    merges the two record streams by timestamp, front first on ties, writes
    each dump line to ``dump_sink`` and runs the one flow check. So no
    output depends on where the streams run. A stream's exception is raised
    here after its records before it, when the merge next asks it for one.
    An exception here stops both streams, and a worker that dies raises
    RuntimeError naming its camera and exit code.
    """
    config = tracker_config or TrackerConfig()
    rendering = _Rendering(passes, scenario, rng)
    pass_times = {p.vehicle_id: p.pass_time for p in rendering.passes}
    streams = [
        received(f"{camera} camera worker", _track, rendering.frames(camera),
                 {camera: VehicleTracker(camera, config)}, dump_sink is not None, rendering.label)
        for camera in DIRECTIONS
    ]
    try:
        records = heapq.merge(*streams, key=itemgetter(0))
        _flow_check(records, monitor, None if dump_sink is None else line_writer(dump_sink), pass_times)
    finally:
        for stream in streams:
            stream.close()
    return SimulationReport(scenario.duration, monitor.t_duration, scenario.seed, monitor.audit, monitor.emit_failures)


def run_pipeline(
    scenario: Scenario,
    tracker_config: TrackerConfig | None = None,
    t_duration: float = 10.0,
    device=None,
    dump_sink: IO[str] | IO[bytes] | None = None,
) -> SimulationReport:
    """Simulate one scenario end to end; fully determined by scenario.seed.

    The scenario and ``t_duration`` are checked before any draw.
    """
    scenario.validate()
    monitor = FlowCheckMonitor(t_duration=t_duration, start_time=0.0, device=device)
    rng = np.random.default_rng(scenario.seed)
    return run_passes(generate_passes(scenario, rng), scenario, rng, monitor, tracker_config, dump_sink)


# --- report serialization ------------------------------------------------------

AUDIT_FILE = "audit.jsonl"
HISTOGRAM_FILE = "histogram.csv"
SUMMARY_FILE = "summary.txt"
META_FILE = "report.json"


def _jnum(value: float | None, digits: int = 3) -> str:
    return "null" if value is None else f"{value:.{digits}f}"


def _jint(value: int | None) -> str:
    return "null" if value is None else str(value)


def format_entry_line(e: AuditRecord) -> str:
    return (
        f'{{"t":{e.timestamp:.3f},"cam":"{e.camera}","track":{e.track_id},'
        f'"cls":"{e.object_class}","decision":"{e.decision}","gap":{_jnum(e.gap)},'
        f'"vehicle":{_jint(e.vehicle_id)},"pass_t":{_jnum(e.pass_time)},'
        f'"delta":{_jnum(e.delta)}}}\n'
    )


def audit_text(report: SimulationReport) -> str:
    return "".join(format_entry_line(e) for e in report.entries)


def histogram_csv(report: SimulationReport) -> str:
    lines = ["bin_start_s,count"]
    for bin_start, count in report.histogram().items():
        lines.append(f"{bin_start},{count}")
    return "\n".join(lines) + "\n"


def meta_json(report: SimulationReport) -> str:
    return (
        f'{{"duration_s":{report.duration:.3f},"t_duration_s":{report.t_duration:.3f},'
        f'"seed":{report.seed},"events":{report.warnings_without_filter},'
        f'"warnings":{report.warnings_with_filter},'
        f'"spurious_warnings":{_jint(report.spurious_warnings)},'
        f'"emit_failures":{report.emit_failures}}}\n'
    )


def summary_text(report: SimulationReport) -> str:
    with_f = report.warnings_with_filter
    without_f = report.warnings_without_filter
    ratio = with_f / without_f if without_f else 0.0
    spurious = report.spurious_warnings
    lines = [
        "run summary",
        f"  duration_s          {report.duration:.3f}",
        f"  t_duration_s        {report.t_duration:.3f}",
        f"  new_vehicle_events  {without_f}",
        f"  warnings            {with_f}",
        f"  suppressed          {without_f - with_f}",
        f"  spurious_warnings   {'n/a' if spurious is None else spurious}",
        f"  emit_failures       {report.emit_failures}",
        f"  warn_ratio          {ratio:.4f}",
        "",
        "pre-warning time histogram (1 s bins)",
        "  bin_start_s  count",
    ]
    histogram = report.histogram()
    if histogram:
        for bin_start, count in histogram.items():
            lines.append(f"  {bin_start:<11d}  {count}")
    else:
        lines.append("  (no warned vehicles)")
    lines += ["", "hourly counts", "  hour  events  warnings"]
    hourly = report.hourly_counts()
    for hour, events, warns in hourly:
        lines.append(f"  {hour:<4d}  {events:<6d}  {warns}")
    if not hourly:
        lines.append("  (no events)")
    return "\n".join(lines) + "\n"


def write_report(report: SimulationReport, out_dir: str | Path) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / AUDIT_FILE).write_text(audit_text(report), encoding="utf-8")
    (out / HISTOGRAM_FILE).write_text(histogram_csv(report), encoding="utf-8")
    (out / META_FILE).write_text(meta_json(report), encoding="utf-8")
    (out / SUMMARY_FILE).write_text(summary_text(report), encoding="utf-8")


_KINDS = {float: "a number", int: "an integer", str: "a string"}
_DECISIONS = (DECISION_WARN, DECISION_SUPPRESS, DECISION_SKIP_CLASS)


def _field(record: dict, key: str, kind: type, null: bool = False):
    """``record[key]`` if it has the type the report writer gives that field.

    ``kind`` is float (any number: :func:`decode_json` gives no NaN, no
    infinity and no int beyond 2**64), int or str; None passes only where
    the writer can write null.
    """
    value = record[key]
    if value is None and null:
        return None
    ok = type(value) in (int, float) if kind is float else type(value) is kind
    if not ok:
        raise ValueError(f"{key} must be {_KINDS[kind]}{' or null' if null else ''}, got {value!r}")
    return value


def _choice(record: dict, key: str, choices: tuple[str, ...]) -> str:
    """``record[key]`` if it is one of the strings the report writer can give that field."""
    value = _field(record, key, str)
    if value not in choices:
        raise ValueError(f"{key} must be one of {', '.join(choices)}, got {value!r}")
    return value


def load_report(out_dir: str | Path) -> SimulationReport:
    """Rebuild a report from its artifacts (report.json + audit.jsonl)."""
    out = Path(out_dir)
    meta_path = out / META_FILE
    audit_path = out / AUDIT_FILE
    if not meta_path.is_file() or not audit_path.is_file():
        raise ConfigError(f"report artifacts not found in {out} (need {META_FILE} and {AUDIT_FILE})")
    try:
        meta = decode_json(meta_path.read_text(encoding="utf-8"))
        duration, t_duration = _field(meta, "duration_s", float), _field(meta, "t_duration_s", float)
        seed, emit_failures = _field(meta, "seed", int), _field(meta, "emit_failures", int)
        ground_truth = _field(meta, "spurious_warnings", int, null=True) is not None
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"{META_FILE}: malformed report metadata: {exc}") from exc
    entries = []
    for lineno, line in enumerate(audit_path.read_bytes().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rec = decode_json(line)
            entries.append(
                AuditRecord(
                    timestamp=_field(rec, "t", float),
                    camera=_choice(rec, "cam", DIRECTIONS),
                    track_id=_field(rec, "track", int),
                    object_class=_choice(rec, "cls", CLASSES),
                    decision=_choice(rec, "decision", _DECISIONS),
                    gap=_field(rec, "gap", float, null=True),
                    vehicle_id=_field(rec, "vehicle", int, null=True),
                    pass_time=_field(rec, "pass_t", float, null=True),
                    delta=_field(rec, "delta", float, null=True),
                )
            )
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"{AUDIT_FILE} line {lineno}: malformed record: {exc}") from exc
    return SimulationReport(
        duration=duration,
        t_duration=t_duration,
        seed=seed,
        entries=entries,
        emit_failures=emit_failures,
        ground_truth=ground_truth,
    )
