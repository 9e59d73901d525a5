"""Detector output decoding and per-frame detection logs.

The pipeline never runs a neural network: detections arrive either as raw
grid payloads (binary, one tensor per frame) or as line-delimited detection
logs (text, one frame per line). This module turns both into scored
:class:`Detection` values and writes logs back in a canonical byte-stable
form so that replay runs are reproducible.
"""

from __future__ import annotations

import io
import json
import math
import struct
import sys
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .errors import LogParseError, PayloadError, StreamOrderError, ValidationError

CLASSES = ("truck", "vehicle", "pedestrian")
CAMERAS = ("front", "rear")

GRID_MAGIC = b"RWGRID01"
_GRID_HEADER = struct.Struct("<8sHBBHH")  # magic, N, anchors, classes, width, height
_BOX_FIELDS = 4  # cx, cy, w, h


@dataclass(frozen=True)
class GridSpec:
    """Shape of one raw detector output grid.

    The payload is cell-major: for each of the ``grid_size**2`` cells there
    are ``anchors_per_cell`` anchors, each contributing
    ``4 + 1 + num_classes`` floats (box, objectness, class scores).
    """

    grid_size: int
    anchors_per_cell: int = 3
    num_classes: int = 3
    image_width: int = 1280
    image_height: int = 720

    def __post_init__(self):
        if self.grid_size <= 0:
            raise ValidationError(f"grid_size must be positive, got {self.grid_size}")
        if self.anchors_per_cell <= 0:
            raise ValidationError(f"anchors_per_cell must be positive, got {self.anchors_per_cell}")
        if self.num_classes <= 0:
            raise ValidationError(f"num_classes must be positive, got {self.num_classes}")
        if self.image_width <= 0 or self.image_height <= 0:
            raise ValidationError(
                f"image size must be positive, got {self.image_width}x{self.image_height}"
            )

    @property
    def values_per_anchor(self) -> int:
        return _BOX_FIELDS + 1 + self.num_classes

    @property
    def total_values(self) -> int:
        return self.grid_size * self.grid_size * self.anchors_per_cell * self.values_per_anchor


@dataclass(frozen=True)
class Detection:
    """One decoded bounding box with its score breakdown.

    ``combined_score`` is always objectness times the best class confidence;
    ``best_class`` is the argmax over ``class_confidences`` (first index on
    exact ties).
    """

    frame_index: int
    cx: float
    cy: float
    width: float
    height: float
    objectness: float
    class_confidences: tuple[float, ...]
    combined_score: float
    best_class: str

    @property
    def center(self) -> tuple[float, float]:
        return (self.cx, self.cy)


@dataclass
class FrameDetections:
    """All detections of one camera frame, at one timestamp."""

    frame_index: int
    timestamp: float
    camera: str
    detections: list[Detection] = field(default_factory=list)


def decode_grid(
    raw: Sequence[float] | np.ndarray,
    spec: GridSpec,
    score_threshold: float,
    frame_index: int = 0,
) -> list[Detection]:
    """Decode a flat grid payload into thresholded, scored detections.

    Every anchor whose combined score (objectness times best class
    confidence) strictly exceeds ``score_threshold`` becomes a detection.
    Box fields must already be absolute pixel values; centers are clamped to
    the image bounds. The result is ordered by descending combined score,
    ties broken by (cell index, anchor index) ascending.

    Raises:
        PayloadError: payload length does not match ``spec``.
        ValidationError: a score is outside [0, 1], or the threshold is.
    """
    if not 0.0 <= score_threshold <= 1.0:
        raise ValidationError(f"score_threshold must be in [0, 1], got {score_threshold}")

    values = np.asarray(raw, dtype=np.float64).reshape(-1)
    if values.size != spec.total_values:
        raise PayloadError(
            f"payload length mismatch: expected {spec.total_values} values "
            f"({spec.grid_size}x{spec.grid_size}x{spec.anchors_per_cell}x"
            f"{spec.values_per_anchor}), got {values.size}"
        )

    cells = spec.grid_size * spec.grid_size
    grid = values.reshape(cells, spec.anchors_per_cell, spec.values_per_anchor)
    scores = grid[:, :, _BOX_FIELDS:]
    bad = ~((scores >= 0.0) & (scores <= 1.0))
    if bad.any():
        cell, anchor, _ = np.argwhere(bad)[0]
        raise ValidationError(
            f"score outside [0, 1] at cell {cell}, anchor {anchor}: "
            f"values {grid[cell, anchor, _BOX_FIELDS:].tolist()}"
        )

    objectness = grid[:, :, _BOX_FIELDS]
    confidences = grid[:, :, _BOX_FIELDS + 1 :]
    best = confidences.argmax(axis=2)
    combined = objectness * confidences.max(axis=2)

    keep = np.argwhere(combined > score_threshold)
    selected = []
    for cell, anchor in keep:
        cx, cy, w, h = grid[cell, anchor, :_BOX_FIELDS]
        det = Detection(
            frame_index=frame_index,
            cx=float(min(max(cx, 0.0), spec.image_width)),
            cy=float(min(max(cy, 0.0), spec.image_height)),
            width=float(w),
            height=float(h),
            objectness=float(objectness[cell, anchor]),
            class_confidences=tuple(float(c) for c in confidences[cell, anchor]),
            combined_score=float(combined[cell, anchor]),
            best_class=CLASSES[best[cell, anchor]],
        )
        selected.append((-det.combined_score, int(cell), int(anchor), det))
    selected.sort(key=lambda item: item[:3])
    return [item[3] for item in selected]


def read_grid_payload(stream: IO[bytes]) -> tuple[GridSpec, np.ndarray]:
    """Read one binary grid payload (16-byte header + little-endian f32 array)."""
    header = stream.read(_GRID_HEADER.size)
    if len(header) != _GRID_HEADER.size:
        raise PayloadError(f"truncated header: expected {_GRID_HEADER.size} bytes, got {len(header)}")
    magic, n, anchors, classes, width, height = _GRID_HEADER.unpack(header)
    if magic != GRID_MAGIC:
        raise PayloadError(f"bad magic {magic!r}, expected {GRID_MAGIC!r}")
    spec = GridSpec(
        grid_size=n,
        anchors_per_cell=anchors,
        num_classes=classes,
        image_width=width,
        image_height=height,
    )
    body = stream.read(spec.total_values * 4)
    if len(body) != spec.total_values * 4:
        raise PayloadError(
            f"payload length mismatch: expected {spec.total_values * 4} bytes, got {len(body)}"
        )
    return spec, np.frombuffer(body, dtype="<f4").copy()


def write_grid_payload(spec: GridSpec, raw: Sequence[float] | np.ndarray, stream: IO[bytes]) -> None:
    """Write one binary grid payload in the header + f32 layout of read_grid_payload."""
    values = np.asarray(raw, dtype="<f4").reshape(-1)
    if values.size != spec.total_values:
        raise PayloadError(
            f"payload length mismatch: expected {spec.total_values} values, got {values.size}"
        )
    stream.write(
        _GRID_HEADER.pack(
            GRID_MAGIC,
            spec.grid_size,
            spec.anchors_per_cell,
            spec.num_classes,
            spec.image_width,
            spec.image_height,
        )
    )
    stream.write(values.tobytes())


# --- detection log (line-delimited, canonical form) -------------------------
#
# One frame per line:
#   {"camera":"front","frame":0,"t":0.000,"dets":[{"cx":640.0,"cy":360.0,
#    "w":40.0,"h":30.0,"cls":"vehicle","obj":0.9500,"conf":[0.05,0.9,0.05]}]}
# Canonical form fixes the field order and float precision (t: 3 digits,
# box fields: 1 digit, probabilities: 4 digits, no extra whitespace), so
# write(parse(f)) is byte-identical for canonical input.


def format_detection_line(frame: FrameDetections) -> str:
    dets = ",".join(
        "{"
        f'"cx":{d.cx:.1f},"cy":{d.cy:.1f},"w":{d.width:.1f},"h":{d.height:.1f},'
        f'"cls":"{d.best_class}","obj":{d.objectness:.4f},'
        f'"conf":[{",".join(f"{c:.4f}" for c in d.class_confidences)}]'
        "}"
        for d in frame.detections
    )
    return f'{{"camera":"{frame.camera}","frame":{frame.frame_index},"t":{frame.timestamp:.3f},"dets":[{dets}]}}\n'


# what a malformed line can raise before it is validated: json.loads raises
# RecursionError on deep nesting, float() OverflowError on an integer literal
# beyond the float range, and decoding UnicodeDecodeError (a ValueError)
_MALFORMED = (KeyError, TypeError, ValueError, OverflowError, RecursionError)
_FLOAT_MAX = sys.float_info.max
_NUMBER = (float, int)  # the types json.loads gives a JSON number; bool is neither


def _check_detection(cls, cx, cy, w, h, obj, confs) -> None:
    """Raise ValueError for a logged detection that :func:`decode_grid` could not produce.

    The class must be known, with a list of one confidence per class. Box
    fields, objectness and confidences must be JSON numbers (not strings or
    booleans); box fields must be finite and the size non-negative;
    objectness and class confidences must lie in [0, 1]. The chained
    comparisons are False for NaN.
    """
    if cls not in CLASSES:
        raise ValueError(f"unknown class {cls!r}")
    if type(confs) is not list or len(confs) != len(CLASSES):
        raise ValueError(f"conf must be a list of {len(CLASSES)} class confidences, got {confs!r}")
    if not (type(cx) in _NUMBER and type(cy) in _NUMBER
            and -math.inf < cx < math.inf and -math.inf < cy < math.inf):
        raise ValueError(f"box center must be finite numbers, got cx={cx!r} cy={cy!r}")
    if not (type(w) in _NUMBER and type(h) in _NUMBER and 0.0 <= w < math.inf and 0.0 <= h < math.inf):
        raise ValueError(f"box size must be finite numbers >= 0, got w={w!r} h={h!r}")
    for p in (obj, *confs):
        if type(p) not in _NUMBER or not 0.0 <= p <= 1.0:
            raise ValueError(f"scores must be numbers in [0, 1], got obj={obj!r} conf={confs!r}")


def parse_detection_log(
    source: IO[bytes] | IO[str] | Iterable[str | bytes],
) -> Iterator[FrameDetections]:
    """Parse a line-delimited detection log, yielding frames in file order.

    Timestamps must strictly increase per camera stream. Malformed lines
    raise :class:`LogParseError` with the offending line number.
    """
    last_t: dict[str, float] = {}
    for lineno, line in enumerate(source, start=1):
        try:
            if isinstance(line, bytes):
                line = line.decode("utf-8")
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            camera = record["camera"]
            frame_index = record["frame"]
            timestamp = record["t"]
            raw_dets = record["dets"]
        except _MALFORMED as exc:
            raise LogParseError(f"line {lineno}: malformed record: {exc}", lineno) from exc
        if camera not in CAMERAS:
            raise LogParseError(f"line {lineno}: unknown camera {camera!r}", lineno)
        if not isinstance(frame_index, int) or isinstance(frame_index, bool) or frame_index < 0:
            raise LogParseError(f"line {lineno}: bad frame index {frame_index!r}", lineno)
        # False for NaN, infinities and integers that do not fit a float
        if not isinstance(timestamp, (int, float)) or isinstance(timestamp, bool) or not -_FLOAT_MAX <= timestamp <= _FLOAT_MAX:
            raise LogParseError(f"line {lineno}: bad timestamp {timestamp!r}", lineno)
        if camera in last_t and timestamp <= last_t[camera]:
            raise StreamOrderError(
                f"line {lineno}: camera {camera} timestamp {timestamp:.3f} "
                f"not after previous {last_t[camera]:.3f}"
            )
        last_t[camera] = timestamp

        detections = []
        try:
            for d in raw_dets:
                cls, obj, confs = d["cls"], d["obj"], d["conf"]
                cx, cy, w, h = d["cx"], d["cy"], d["w"], d["h"]
                _check_detection(cls, cx, cy, w, h, obj, confs)
                obj = float(obj)
                confs = tuple(map(float, confs))
                detections.append(
                    Detection(
                        frame_index=frame_index,
                        cx=float(cx),
                        cy=float(cy),
                        width=float(w),
                        height=float(h),
                        objectness=obj,
                        class_confidences=confs,
                        combined_score=obj * max(confs),
                        best_class=cls,
                    )
                )
        except _MALFORMED as exc:
            raise LogParseError(f"line {lineno}: malformed detection entry: {exc}", lineno) from exc
        yield FrameDetections(
            frame_index=frame_index,
            timestamp=float(timestamp),
            camera=camera,
            detections=detections,
        )


def tee_detection_log(
    frames: Iterable[FrameDetections], sink: IO[bytes] | IO[str]
) -> Iterator[FrameDetections]:
    """Yield ``frames``, writing each one's canonical log line to ``sink`` first."""
    text_sink = isinstance(sink, io.TextIOBase) or hasattr(sink, "encoding")
    for frame in frames:
        line = format_detection_line(frame)
        sink.write(line if text_sink else line.encode("utf-8"))
        yield frame


def write_detection_log(
    frames: Iterable[FrameDetections], sink: IO[bytes] | IO[str]
) -> None:
    """Write frames as canonical-form log lines (byte-stable round trip)."""
    for _ in tee_detection_log(frames, sink):
        pass
