"""Detector output decoding and per-frame detection logs.

The pipeline never runs a neural network: detections arrive either as raw
grid payloads (binary, one tensor per frame) or as line-delimited detection
logs (text, one frame per line). This module turns both into scored
:class:`Detection` values and writes logs back in a canonical byte-stable
form so that replay runs are reproducible.
"""

from __future__ import annotations

import functools
import io
import math
import os
import re
import struct
from dataclasses import dataclass, field
from typing import IO, Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import LogParseError, PayloadError, StreamOrderError, ValidationError
from .workers import received

CLASSES = ("truck", "vehicle", "pedestrian")
CAMERAS = ("front", "rear")
# the largest frame index: a track stores its hits' indices as signed 64-bit integers
MAX_FRAME_INDEX = 2**63 - 1

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


@dataclass(slots=True)
class Detection:
    """One decoded bounding box with its score breakdown.

    ``combined_score`` is always objectness times the largest class
    confidence. ``best_class`` is the class its source names: for a decoded
    anchor the argmax over ``class_confidences`` (first index on exact ties),
    for a parsed log line its ``cls`` as written, which need not be the argmax.
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
    Box fields must already be absolute pixel values. A kept anchor is
    checked and built as the log parser builds a detection
    (:func:`_detection_fields`), so that its log line parses back; its
    center is then clamped to the image bounds. The result is ordered by
    descending combined score, ties broken by (cell index, anchor index)
    ascending.

    Raises:
        PayloadError: payload length does not match ``spec``.
        ValidationError: a score is outside [0, 1], or the threshold is, or
            a kept anchor breaks the log's rules.
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
        cx, cy, w, h = grid[cell, anchor, :_BOX_FIELDS].tolist()
        b = int(best[cell, anchor])
        cls = CLASSES[b] if b < len(CLASSES) else b
        try:
            det = Detection(frame_index, *_detection_fields(
                cls, cx, cy, w, h, float(objectness[cell, anchor]), confidences[cell, anchor].tolist(),
            ))
        except ValueError as exc:
            raise ValidationError(f"cell {cell}, anchor {anchor}: {exc}") from exc
        det.cx = float(min(max(cx, 0.0), spec.image_width))
        det.cy = float(min(max(cy, 0.0), spec.image_height))
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


def _detection_tail(best_class: str, objectness: float, confs: tuple[float, ...]) -> str:
    # a detection has one confidence per class: the parser and decode_grid require three
    return f'"cls":"{best_class}","obj":{objectness:.4f},"conf":[{confs[0]:.4f},{confs[1]:.4f},{confs[2]:.4f}]}}'


# rendered detections share a few tails; 0.0 and -0.0 are equal keys that
# format apart, so a tail holding a zero is never cached
_cached_detection_tail = functools.lru_cache(maxsize=64)(_detection_tail)


def format_detection_line(frame: FrameDetections) -> str:
    parts = []
    for d in frame.detections:
        obj, confs = d.objectness, d.class_confidences
        tail = (_cached_detection_tail if obj and confs[0] and confs[1] and confs[2] else _detection_tail)(
            d.best_class, obj, confs
        )
        parts.append('{"cx":%.1f,"cy":%.1f,"w":%.1f,"h":%.1f,' % (d.cx, d.cy, d.width, d.height) + tail)
    dets = ",".join(parts)
    return f'{{"camera":"{frame.camera}","frame":{frame.frame_index},"t":{frame.timestamp:.3f},"dets":[{dets}]}}\n'


# what a decoded line can raise before it is validated; a decode error is a
# ValueError, and orjson gives no int outside [-2**63, 2**64) to overflow float()
_MALFORMED = (KeyError, TypeError, ValueError)
_NUMBER = (float, int)  # the types orjson gives a JSON number; bool is neither
_INF = math.inf
# the deepest nesting a line may have: a valid record nests 4 deep, and
# orjson recurses on the C stack with no limit of its own (near 3,000 levels
# overflow a 256 KiB stack)
DEEPEST = 512
# a line's JSON strings and whatever else is not a bracket: what is left
# once they are removed holds the brackets that nest
_NOT_BRACKETS = re.compile(rb'"[^"\\]*(?:\\.[^"\\]*)*"|[^\[\]{}"]+|"')
_STEP = {ord("["): 1, ord("{"): 1, ord("]"): -1, ord("}"): -1}


def _detection_fields(cls, cx, cy, w, h, obj, confs) -> tuple:
    """A :class:`Detection`'s fields after its frame index, from one log entry's, under the log's rules.

    That is ``(cx, cy, w, h, obj, (c0, c1, c2), combined score, cls)``.
    Raises ValueError for a detection that breaks them. The class must be
    known, with a list of one confidence per class. Box fields, objectness
    and confidences must be JSON numbers (not strings or booleans); box
    fields must be finite and the size non-negative; objectness and class
    confidences must lie in [0, 1]. The chained comparisons are False for
    NaN. The combined score is objectness times the largest confidence.
    """
    if cls not in CLASSES:
        raise ValueError(f"unknown class {cls!r}")
    if type(confs) is not list or len(confs) != 3:
        raise ValueError(f"conf must be a list of {len(CLASSES)} class confidences, got {confs!r}")
    if not (type(cx) in _NUMBER and type(cy) in _NUMBER and -_INF < cx < _INF and -_INF < cy < _INF):
        raise ValueError(f"box center must be finite numbers, got cx={cx!r} cy={cy!r}")
    if not (type(w) in _NUMBER and type(h) in _NUMBER and 0.0 <= w < _INF and 0.0 <= h < _INF):
        raise ValueError(f"box size must be finite numbers >= 0, got w={w!r} h={h!r}")
    c0, c1, c2 = confs
    if not (
        type(obj) in _NUMBER and type(c0) in _NUMBER and type(c1) in _NUMBER and type(c2) in _NUMBER
        and 0.0 <= obj <= 1.0 and 0.0 <= c0 <= 1.0 and 0.0 <= c1 <= 1.0 and 0.0 <= c2 <= 1.0
    ):
        raise ValueError(f"scores must be numbers in [0, 1], got obj={obj!r} conf={confs!r}")
    # orjson gives an integral number as an int; store every number as a float
    if not type(cx) is type(cy) is type(w) is type(h) is type(obj) is type(c0) is type(c1) is type(c2) is float:
        cx, cy, w, h = float(cx), float(cy), float(w), float(h)
        obj, c0, c1, c2 = float(obj), float(c0), float(c1), float(c2)
    best = c0
    if c1 > best:
        best = c1
    if c2 > best:
        best = c2
    return cx, cy, w, h, obj, (c0, c1, c2), obj * best, cls


def _nests_deeper(line: str | bytes) -> bool:
    """Whether ``line`` nests arrays and objects more than :data:`DEEPEST` deep, outside its JSON strings."""
    if isinstance(line, str):
        line = line.encode("utf-8", "surrogatepass")
    depth = 0
    for c in _NOT_BRACKETS.sub(b"", line):
        depth += _STEP[c]
        if depth > DEEPEST:
            return True
    return False


def decode_json(text: str | bytes):
    """The JSON value of ``text``, as orjson decodes it, or ValueError.

    Text nested deeper than :data:`DEEPEST` is rejected before it is
    decoded. Text of up to ``2 * DEEPEST`` characters opens and closes at
    most DEEPEST levels, and orjson rejects an unclosed one of that length
    on any stack, so only longer text is scanned.
    """
    if len(text) > 2 * DEEPEST and _nests_deeper(text):
        raise ValueError(f"nested deeper than {DEEPEST}")
    import orjson  # at the first call, so that a process that decodes nothing never loads it

    return orjson.loads(text)


def detection_records(
    source: IO[bytes] | IO[str] | Iterable[str | bytes],
) -> Iterator[tuple[int, float, str, list[tuple]]]:
    """Validate a line-delimited detection log, yielding one record a frame, in file order.

    A record is (frame index, timestamp, camera, each detection's fields as
    :func:`_detection_fields` gives them), with no :class:`Detection` built.

    Timestamps must be at least 0, strictly increase per camera stream and
    never decrease across streams; a line that breaks either order rule
    raises :class:`StreamOrderError` before it is yielded. Malformed lines,
    and a timestamp below 0, raise :class:`LogParseError`. Both name the
    offending line number.

    Each line is decoded by :func:`decode_json`, which decides what is
    JSON: a line nested deeper than :data:`DEEPEST` is rejected, only JSON
    whitespace may surround a record, and a lone surrogate is rejected. A
    line that it rejects is skipped when its text is blank to
    ``str.strip``.
    """
    last_t: dict[str, float] = {}
    latest = 0.0  # so that a timestamp below 0 fails the order check below
    for lineno, line in enumerate(source, start=1):
        try:
            record = decode_json(line)
        except ValueError as exc:
            if not (line.decode("utf-8", "replace") if isinstance(line, bytes) else line).strip():
                continue
            try:  # orjson reports bad bytes and a raw lone surrogate alike, as surrogates
                line.decode("utf-8") if isinstance(line, bytes) else line.encode("utf-8")
            except UnicodeError:
                raise LogParseError(f"line {lineno}: malformed record: not valid UTF-8", lineno) from exc
            raise LogParseError(f"line {lineno}: malformed record: {exc}", lineno) from exc
        try:
            camera = record["camera"]
            frame_index = record["frame"]
            timestamp = record["t"]
            raw_dets = record["dets"]
        except _MALFORMED as exc:
            raise LogParseError(f"line {lineno}: malformed record: {exc}", lineno) from exc
        if camera not in CAMERAS:
            raise LogParseError(f"line {lineno}: unknown camera {camera!r}", lineno)
        if type(frame_index) is not int or not 0 <= frame_index <= MAX_FRAME_INDEX:
            raise LogParseError(f"line {lineno}: bad frame index {frame_index!r}", lineno)
        # orjson gives no NaN, no infinity and no int beyond 2**64
        if type(timestamp) not in _NUMBER:
            raise LogParseError(f"line {lineno}: bad timestamp {timestamp!r}", lineno)
        previous = last_t.get(camera)
        if previous is not None and timestamp <= previous:
            raise StreamOrderError(
                f"line {lineno}: camera {camera} timestamp {timestamp:.3f} "
                f"not after previous {previous:.3f}"
            )
        if timestamp < latest:
            if timestamp < 0:
                raise LogParseError(
                    f"line {lineno}: camera {camera} timestamp {timestamp:.3f} must be at least 0", lineno
                )
            raise StreamOrderError(
                f"line {lineno}: camera {camera} timestamp {timestamp:.3f} "
                f"is before {latest:.3f}, the latest on any camera"
            )
        detections = []
        try:
            for d in raw_dets:
                cls, obj, confs = d["cls"], d["obj"], d["conf"]
                detections.append(_detection_fields(cls, d["cx"], d["cy"], d["w"], d["h"], obj, confs))
        except _MALFORMED as exc:
            raise LogParseError(f"line {lineno}: malformed detection entry: {exc}", lineno) from exc
        # stored as decoded: an int compares exactly with the next lines' timestamps
        last_t[camera] = latest = timestamp
        if type(timestamp) is not float:
            timestamp = float(timestamp)
        yield frame_index, timestamp, camera, detections


def _in_helper(source) -> bool:
    """Whether to parse ``source`` in a helper process.

    Only when it is a seekable file, so its lines are all there to read
    ahead (an in-memory stream has no file descriptor, and too few lines to
    pay for the fork); ``fork`` is available; and this process may use two
    CPUs, since on one the helper only takes turns with the consumer.
    """
    try:
        if not source.seekable():
            return False
        source.fileno()
    except (AttributeError, ValueError, OSError):  # not a stream, a closed one, or one in memory
        return False
    if (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1) < 2:
        return False
    import multiprocessing  # at the first next(), as the helper starts

    return "fork" in multiprocessing.get_all_start_methods()


def parse_detection_log(
    source: IO[bytes] | IO[str] | Iterable[str | bytes],
) -> Iterator[FrameDetections]:
    """Parse a line-delimited detection log, yielding frames in file order.

    The lines are validated as :func:`detection_records` does, and raise
    its errors after the frames before them. Where :func:`_in_helper`
    allows, a helper process forked at the first ``next`` validates them
    and reads the source to its end; the frames are built here. Any other
    source (a pipe, an in-memory stream, a list) is validated here, one
    line per frame, as it streams.
    """
    if _in_helper(source):
        records = received("log parse helper", detection_records, source)
    else:
        records = detection_records(source)
    try:
        for frame_index, timestamp, camera, dets in records:
            detections = []
            for d in dets:
                detections.append(Detection(frame_index, *d))
            yield FrameDetections(frame_index, timestamp, camera, detections)
    finally:
        records.close()


def line_writer(sink: IO[bytes] | IO[str]) -> Callable[[str], object]:
    """``sink.write`` for text lines, encoding each to UTF-8 when ``sink`` is binary."""
    if isinstance(sink, io.TextIOBase) or hasattr(sink, "encoding"):
        return sink.write
    return lambda line: sink.write(line.encode("utf-8"))


def write_detection_log(
    frames: Iterable[FrameDetections], sink: IO[bytes] | IO[str]
) -> None:
    """Write frames as canonical-form log lines (byte-stable round trip)."""
    write = line_writer(sink)
    for frame in frames:
        write(format_detection_line(frame))
