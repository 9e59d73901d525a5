"""Decoder and detection-log tests, including brute-force and round-trip oracles."""

import io
import itertools
import json
import math
import multiprocessing
import os
import signal
import threading

import numpy as np
import orjson
import pytest

from roadwatch.detection import (
    CLASSES,
    Detection,
    FrameDetections,
    GridSpec,
    decode_grid,
    format_detection_line,
    parse_detection_log,
    read_grid_payload,
    write_detection_log,
    write_grid_payload,
)
from roadwatch.errors import LogParseError, PayloadError, RoadwatchError, StreamOrderError, ValidationError


def make_payload(spec, fill=0.0):
    return np.full(spec.total_values, fill, dtype=float)


def set_anchor(payload, spec, cell, anchor, box, obj, confs):
    stride = spec.values_per_anchor
    base = (cell * spec.anchors_per_cell + anchor) * stride
    payload[base : base + 4] = box
    payload[base + 4] = obj
    payload[base + 5 : base + stride] = confs


class TestDecodeGrid:
    def test_zero_objectness_excluded(self):
        spec = GridSpec(grid_size=1)
        payload = make_payload(spec)
        set_anchor(payload, spec, 0, 0, (100, 100, 20, 10), 0.0, (0.9, 0.05, 0.05))
        assert decode_grid(payload, spec, 0.1) == []

    def test_combined_score_product(self):
        spec = GridSpec(grid_size=1)
        payload = make_payload(spec)
        set_anchor(payload, spec, 0, 0, (100, 100, 20, 10), 0.9, (0.8, 0.1, 0.1))
        dets = decode_grid(payload, spec, 0.5)
        assert len(dets) == 1
        assert dets[0].combined_score == pytest.approx(0.72, abs=1e-15)
        assert dets[0].best_class == "truck"
        assert dets[0].objectness == pytest.approx(0.9)

    def test_matches_brute_force_scan(self):
        spec = GridSpec(grid_size=2, image_width=1280, image_height=720)
        rng = np.random.default_rng(42)
        for _ in range(50):
            payload = make_payload(spec)
            stride = spec.values_per_anchor
            expected = []
            for cell in range(4):
                for anchor in range(3):
                    box = rng.uniform(0, 1280, 4)
                    obj = rng.uniform()
                    confs = rng.uniform(0, 1, 3)
                    set_anchor(payload, spec, cell, anchor, box, obj, confs)
                    score = obj * confs.max()
                    if score > 0.3:
                        expected.append(
                            (
                                -score,
                                cell,
                                anchor,
                                min(max(box[0], 0.0), 1280.0),
                                min(max(box[1], 0.0), 720.0),
                                CLASSES[int(confs.argmax())],
                            )
                        )
            expected.sort()
            dets = decode_grid(payload, spec, 0.3)
            assert len(dets) == len(expected)
            for det, exp in zip(dets, expected):
                assert det.combined_score == pytest.approx(-exp[0], rel=1e-12)
                assert det.cx == pytest.approx(exp[3])
                assert det.cy == pytest.approx(exp[4])
                assert det.best_class == exp[5]

    def test_threshold_monotonicity(self):
        spec = GridSpec(grid_size=3)
        rng = np.random.default_rng(7)
        payload = rng.uniform(0, 1, spec.total_values)
        previous = None
        for threshold in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
            scores = {d.combined_score for d in decode_grid(payload, spec, threshold)}
            if previous is not None:
                assert scores <= previous
            previous = scores

    def test_output_sorted_by_score(self):
        spec = GridSpec(grid_size=2)
        rng = np.random.default_rng(3)
        payload = rng.uniform(0, 1, spec.total_values)
        dets = decode_grid(payload, spec, 0.0)
        scores = [d.combined_score for d in dets]
        assert scores == sorted(scores, reverse=True)

    def test_payload_length_error_names_lengths(self):
        spec = GridSpec(grid_size=2)
        with pytest.raises(PayloadError, match=f"expected {spec.total_values}.*got 5"):
            decode_grid(np.zeros(5), spec, 0.5)

    def test_score_out_of_range_names_cell_and_anchor(self):
        spec = GridSpec(grid_size=2)
        payload = make_payload(spec)
        set_anchor(payload, spec, 3, 1, (10, 10, 5, 5), 1.5, (0.5, 0.2, 0.2))
        with pytest.raises(ValidationError, match="cell 3, anchor 1"):
            decode_grid(payload, spec, 0.5)

    def test_center_clamped_to_image(self):
        spec = GridSpec(grid_size=1, image_width=640, image_height=480)
        payload = make_payload(spec)
        set_anchor(payload, spec, 0, 0, (-50, 900, 20, 10), 0.9, (0.9, 0.05, 0.05))
        det = decode_grid(payload, spec, 0.5)[0]
        assert det.cx == 0.0
        assert det.cy == 480.0

    def test_never_synthesizes_boxes(self):
        spec = GridSpec(grid_size=2)
        payload = make_payload(spec)
        assert decode_grid(payload, spec, 0.0) == []

    @pytest.mark.parametrize(
        "box, message",
        [
            ((math.nan, 100, 20, 10), "box center must be finite"),
            ((100, math.nan, 20, 10), "box center must be finite"),
            ((math.inf, 100, 20, 10), "box center must be finite"),
            ((100, -math.inf, 20, 10), "box center must be finite"),
            ((100, 100, -5, 10), "box size must be finite numbers >= 0"),
            ((100, 100, math.inf, 10), "box size must be finite numbers >= 0"),
            ((100, 100, 20, math.nan), "box size must be finite numbers >= 0"),
            ((100, 100, 20, -0.5), "box size must be finite numbers >= 0"),
        ],
        ids=["nan-cx", "nan-cy", "inf-cx", "-inf-cy", "negative-w", "inf-w", "nan-h", "negative-h"],
    )
    def test_box_breaking_log_rules_names_cell_and_anchor(self, box, message):
        spec = GridSpec(grid_size=2)
        payload = make_payload(spec)
        set_anchor(payload, spec, 2, 1, box, 0.9, (0.9, 0.05, 0.05))
        with pytest.raises(ValidationError, match=f"cell 2, anchor 1: {message}"):
            decode_grid(payload, spec, 0.5)

    @pytest.mark.parametrize(
        "num_classes, message", [(2, "conf must be a list of 3 class confidences"), (4, "unknown class 3")]
    )
    def test_class_count_other_than_the_log_rejected(self, num_classes, message):
        spec = GridSpec(grid_size=1, num_classes=num_classes)
        payload = make_payload(spec)
        set_anchor(payload, spec, 0, 2, (100, 100, 20, 10), 0.9, [0.1] * (num_classes - 1) + [0.9])
        with pytest.raises(ValidationError, match=f"cell 0, anchor 2: {message}"):
            decode_grid(payload, spec, 0.5)

    def test_box_breaking_log_rules_below_threshold_ignored(self):
        spec = GridSpec(grid_size=1)
        payload = make_payload(spec)
        set_anchor(payload, spec, 0, 0, (math.nan, 100, -5, 10), 0.1, (0.9, 0.05, 0.05))
        assert decode_grid(payload, spec, 0.5) == []

    def test_output_round_trips_through_log(self):
        # off-image centers and zero sizes are legal: the centers are clamped
        spec = GridSpec(grid_size=3, image_width=640, image_height=480)
        rng = np.random.default_rng(11)
        payload = rng.uniform(0, 1, spec.total_values)
        for cell in range(9):
            for anchor in range(3):
                box = (rng.uniform(-300, 900), rng.uniform(-300, 800), rng.uniform(0, 90), 0.0)
                set_anchor(payload, spec, cell, anchor, box, rng.uniform(), rng.uniform(0, 1, 3))
        dets = decode_grid(payload, spec, 0.2)
        assert any(d.cx in (0.0, 640.0) or d.cy in (0.0, 480.0) for d in dets)
        frame = FrameDetections(frame_index=4, timestamp=0.133, camera="rear", detections=dets)
        sink = io.StringIO()
        write_detection_log([frame], sink)
        (parsed,) = parse_detection_log(io.StringIO(sink.getvalue()))
        assert [d.best_class for d in parsed.detections] == [d.best_class for d in dets]
        for got, want in zip(parsed.detections, dets):
            assert got.center == pytest.approx(want.center, abs=0.05)
            assert (got.width, got.height) == pytest.approx((want.width, want.height), abs=0.05)
        again = io.StringIO()
        write_detection_log([parsed], again)
        assert again.getvalue() == sink.getvalue()


class TestGridSpec:
    def test_payload_lengths(self):
        spec = GridSpec(grid_size=13)
        assert spec.values_per_anchor == 4 + 1 + 3
        assert spec.total_values == 13 * 13 * 3 * 8

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValidationError):
            GridSpec(grid_size=0)
        with pytest.raises(ValidationError):
            GridSpec(grid_size=2, anchors_per_cell=0)
        with pytest.raises(ValidationError):
            GridSpec(grid_size=2, image_width=-1)


class TestGridPayloadIO:
    def test_round_trip(self):
        spec = GridSpec(grid_size=4, image_width=1280, image_height=720)
        rng = np.random.default_rng(11)
        values = rng.uniform(0, 1, spec.total_values).astype("<f4")
        buf = io.BytesIO()
        write_grid_payload(spec, values, buf)
        buf.seek(0)
        spec2, values2 = read_grid_payload(buf)
        assert spec2 == spec
        assert np.array_equal(values, values2)

    def test_bad_magic(self):
        buf = io.BytesIO(b"NOTMAGIC" + bytes(8))
        with pytest.raises(PayloadError, match="magic"):
            read_grid_payload(buf)

    def test_truncated_body(self):
        spec = GridSpec(grid_size=2)
        buf = io.BytesIO()
        write_grid_payload(spec, np.zeros(spec.total_values), buf)
        truncated = io.BytesIO(buf.getvalue()[:-8])
        with pytest.raises(PayloadError, match="length mismatch"):
            read_grid_payload(truncated)


def random_canonical_frames(rng, n_frames):
    """Frames whose values are exactly representable in the log's precision,
    on both cameras, with times from 0 on that increase across the cameras."""
    frames = []
    last_t = 0.0
    for i in range(n_frames):
        camera = "front" if rng.uniform() < 0.5 else "rear"
        t = last_t = round(last_t + 0.001 + float(rng.uniform(0, 2.0)), 3)
        dets = []
        for _ in range(rng.integers(0, 4)):
            confs = tuple(round(float(c), 4) for c in rng.uniform(0, 1, 3))
            obj = round(float(rng.uniform()), 4)
            dets.append(
                Detection(
                    frame_index=i,
                    cx=round(float(rng.uniform(0, 1280)), 1),
                    cy=round(float(rng.uniform(0, 720)), 1),
                    width=round(float(rng.uniform(1, 300)), 1),
                    height=round(float(rng.uniform(1, 300)), 1),
                    objectness=obj,
                    class_confidences=confs,
                    combined_score=obj * max(confs),
                    best_class=CLASSES[int(np.argmax(confs))],
                )
            )
        frames.append(FrameDetections(frame_index=i, timestamp=t, camera=camera, detections=dets))
    return frames


def log_line(frame, **raw_fields):
    """One front-camera log line with one detection; values are raw JSON tokens."""
    fields = {
        "cx": "640.0",
        "cy": "360.0",
        "w": "40.0",
        "h": "30.0",
        "cls": '"vehicle"',
        "obj": "0.9500",
        "conf": "[0.0500,0.9000,0.0500]",
        **raw_fields,
    }
    det = ",".join(f'"{k}":{v}' for k, v in fields.items())
    return f'{{"camera":"front","frame":{frame},"t":{frame / 30:.3f},"dets":[{{{det}}}]}}\n'


class TestDetectionLog:
    def test_empty_source(self):
        assert list(parse_detection_log(io.BytesIO(b""))) == []

    def test_single_line_two_detections(self):
        line = (
            '{"camera":"front","frame":4,"t":0.133,"dets":['
            '{"cx":640.0,"cy":360.0,"w":40.0,"h":30.0,"cls":"vehicle","obj":0.9500,'
            '"conf":[0.0500,0.9000,0.0500]},'
            '{"cx":100.0,"cy":200.0,"w":24.0,"h":16.0,"cls":"truck","obj":0.8000,'
            '"conf":[0.7000,0.2000,0.1000]}]}\n'
        )
        frames = list(parse_detection_log(io.StringIO(line)))
        assert len(frames) == 1
        frame = frames[0]
        assert frame.camera == "front" and frame.frame_index == 4
        assert frame.timestamp == pytest.approx(0.133)
        assert len(frame.detections) == 2
        first, second = frame.detections
        assert first.best_class == "vehicle"
        assert first.combined_score == pytest.approx(0.95 * 0.9)
        assert second.frame_index == 4
        assert second.combined_score == pytest.approx(0.8 * 0.7)

    def test_class_is_kept_as_written(self):
        # conf ranks vehicle first but the line names truck: the class stays
        # truck, and the score is objectness times the largest confidence
        line = log_line(0, cls='"truck"', obj="0.9", conf="[0.05,0.9,0.05]")
        for source in (io.StringIO(line), io.BytesIO(line.encode())):
            ((det,),) = [frame.detections for frame in parse_detection_log(source)]
            assert det.best_class == "truck"
            assert det.class_confidences == (0.05, 0.9, 0.05)
            assert det.combined_score == 0.9 * 0.9

    def test_write_then_parse_is_identity(self):
        rng = np.random.default_rng(5)
        frames = random_canonical_frames(rng, 1000)
        buf = io.StringIO()
        write_detection_log(frames, buf)
        parsed = list(parse_detection_log(io.StringIO(buf.getvalue())))
        assert parsed == frames

    def test_parse_then_write_is_byte_identical(self):
        rng = np.random.default_rng(6)
        frames = random_canonical_frames(rng, 200)
        buf = io.BytesIO()
        write_detection_log(frames, buf)
        original = buf.getvalue()
        rewritten = io.BytesIO()
        write_detection_log(parse_detection_log(io.BytesIO(original)), rewritten)
        assert rewritten.getvalue() == original

    @pytest.mark.parametrize(
        "zeros", [("0.0000", "-0.0000"), ("-0.0000", "0.0000")], ids=["zero-first", "minus-first"]
    )
    @pytest.mark.parametrize("field", ["obj", "conf"])
    def test_signed_zero_round_trips(self, field, zeros):
        # 0.0 == -0.0 and the two hash alike, yet they are written apart
        def line(frame, zero):
            obj, conf0 = (zero, "0.0500") if field == "obj" else ("0.9500", zero)
            return (
                f'{{"camera":"front","frame":{frame},"t":{frame}.000,"dets":[{{"cx":640.0,"cy":360.0,'
                f'"w":40.0,"h":30.0,"cls":"vehicle","obj":{obj},"conf":[{conf0},0.9000,0.0500]}}]}}\n'
            )

        log = "".join(line(frame, zero) for frame, zero in enumerate(zeros * 2))
        rewritten = io.StringIO()
        write_detection_log(parse_detection_log(io.StringIO(log)), rewritten)
        assert rewritten.getvalue() == log

    def test_empty_frame_writes_empty_list(self):
        frame = FrameDetections(frame_index=0, timestamp=0.0, camera="rear")
        assert format_detection_line(frame) == '{"camera":"rear","frame":0,"t":0.000,"dets":[]}\n'

    def test_empty_sequence_writes_nothing(self):
        buf = io.StringIO()
        write_detection_log([], buf)
        assert buf.getvalue() == ""

    def test_malformed_line_reports_number(self):
        good = '{"camera":"front","frame":0,"t":0.000,"dets":[]}\n'
        bad = "not json at all\n"
        with pytest.raises(LogParseError, match="line 2") as info:
            list(parse_detection_log(io.StringIO(good + bad)))
        assert info.value.line_number == 2

    def test_non_monotonic_timestamp_names_both(self):
        lines = (
            '{"camera":"front","frame":0,"t":2.000,"dets":[]}\n'
            '{"camera":"front","frame":1,"t":1.500,"dets":[]}\n'
        )
        with pytest.raises(StreamOrderError, match="1.500.*2.000"):
            list(parse_detection_log(io.StringIO(lines)))

    def test_camera_clocks_share_one_order(self):
        # a tie across cameras is legal; a time below another camera's is not,
        # and its line is rejected before it is yielded
        lines = (
            '{"camera":"front","frame":0,"t":5.000,"dets":[]}\n'
            '{"camera":"rear","frame":0,"t":5.000,"dets":[]}\n'
            '{"camera":"rear","frame":1,"t":6.000,"dets":[]}\n'
            '{"camera":"front","frame":1,"t":5.500,"dets":[]}\n'
        )
        frames = []
        with pytest.raises(StreamOrderError, match="^line 4: camera front timestamp 5.500 is before 6.000"):
            for frame in parse_detection_log(io.StringIO(lines)):
                frames.append(frame)
        assert [(f.camera, f.timestamp) for f in frames] == [("front", 5.0), ("rear", 5.0), ("rear", 6.0)]

    @pytest.mark.parametrize(
        "times, bad",
        [(["-3.0"], 1), (["-1e-3"], 1), (["-1"], 1), (["0.0", "-1e300"], 2), (["-0.0", "-5e-324"], 2)],
    )
    def test_timestamp_below_0_rejected_with_its_line(self, times, bad):
        # the flow check's timer starts at 0, so such a line once passed here
        # and failed in the monitor, naming no line
        lines = "".join(f'{{"camera":"{camera}","frame":0,"t":{t},"dets":[]}}\n'
                        for camera, t in zip(("front", "rear"), times))
        with pytest.raises(LogParseError, match=f"^line {bad}: camera \\w+ timestamp -.* must be at least 0$") as info:
            list(parse_detection_log(io.StringIO(lines)))
        assert info.value.line_number == bad

    def test_minus_zero_timestamp_accepted(self):
        lines = ('{"camera":"front","frame":0,"t":-0.0,"dets":[]}\n'
                 '{"camera":"rear","frame":0,"t":-0.0,"dets":[]}\n')
        assert [f.timestamp for f in parse_detection_log(io.StringIO(lines))] == [0.0, 0.0]

    def test_unknown_class_rejected(self):
        line = (
            '{"camera":"front","frame":0,"t":0.000,"dets":['
            '{"cx":1.0,"cy":1.0,"w":1.0,"h":1.0,"cls":"bicycle","obj":0.5,'
            '"conf":[0.5,0.3,0.2]}]}\n'
        )
        with pytest.raises(LogParseError, match="bicycle"):
            list(parse_detection_log(io.StringIO(line)))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("cx", "NaN"),
            ("cy", "Infinity"),
            ("w", "-Infinity"),
            ("w", "-1.0"),
            ("h", "-0.5"),
            ("obj", "7.0"),
            ("obj", "-0.1"),
            ("obj", "NaN"),
            ("conf", "[0.05,1.5,0.05]"),
            ("conf", "[NaN,0.9,0.05]"),
        ],
    )
    def test_out_of_range_detection_rejected(self, field, value):
        text = log_line(0) + log_line(1, **{field: value}) + log_line(2)
        with pytest.raises(LogParseError, match="line 2") as info:
            list(parse_detection_log(io.StringIO(text)))
        assert info.value.line_number == 2

    @pytest.mark.parametrize(
        "field, value",
        [
            ("cx", '"640"'),
            ("cy", "true"),
            ("w", '"4e1"'),
            ("h", "false"),
            ("obj", '"0.95"'),
            ("obj", "false"),
            ("conf", '"010"'),
            ("conf", "[0.05,true,0.05]"),
            ("conf", '[0.05,"0.9",0.05]'),
        ],
    )
    def test_wrongly_typed_detection_rejected(self, field, value):
        # float() would take strings and booleans, and iterate a string conf
        text = log_line(0) + log_line(1, **{field: value}) + log_line(2)
        with pytest.raises(LogParseError, match="line 2") as info:
            list(parse_detection_log(io.StringIO(text)))
        assert info.value.line_number == 2

    def test_integer_fields_accepted_as_floats(self):
        text = log_line(0, cx="640", cy="360", w="40", h="0", obj="1", conf="[0,1,0]")
        (frame,) = parse_detection_log(io.StringIO(text))
        det = frame.detections[0]
        assert (det.cx, det.cy, det.width, det.height, det.objectness) == (640.0, 360.0, 40.0, 0.0, 1.0)
        assert det.class_confidences == (0.0, 1.0, 0.0)
        assert all(type(v) is float for v in (det.cx, det.width, det.objectness, *det.class_confidences))

    def test_range_boundaries_accepted(self):
        text = log_line(0, w="0.0", h="0.0", obj="1.0", conf="[0.0,1.0,0.0]")
        (frame,) = parse_detection_log(io.StringIO(text))
        assert frame.detections[0].combined_score == 1.0

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_timestamp_rejected(self, value):
        text = log_line(0) + log_line(1).replace('"t":0.033', f'"t":{json.dumps(value)}')
        with pytest.raises(LogParseError, match="line 2"):
            list(parse_detection_log(io.StringIO(text)))


    @pytest.mark.parametrize(
        "bad_line",
        [
            log_line(1).rstrip("\n") + "{}",
            log_line(1).rstrip("\n") + " x",
            "[1, 2]",
            '"front"',
            "42",
            "null",
            "\ufeff" + log_line(1),
        ],
        ids=["trailing-object", "trailing-token", "array", "string", "number", "null", "bom"],
    )
    @pytest.mark.parametrize("as_bytes", [False, True], ids=["text", "bytes"])
    def test_line_that_is_not_one_record_rejected(self, bad_line, as_bytes):
        text = log_line(0) + bad_line.rstrip("\n") + "\n" + log_line(2)
        source = io.BytesIO(text.encode("utf-8")) if as_bytes else io.StringIO(text)
        with pytest.raises(LogParseError, match="^line 2: ") as info:
            list(parse_detection_log(source))
        assert info.value.line_number == 2
        # worded as orjson's decode and the record lookup word it
        with pytest.raises((ValueError, TypeError)) as expected:
            orjson.loads(bad_line)["camera"]
        assert str(info.value) == f"line 2: malformed record: {expected.value}"

    @pytest.mark.parametrize("blank", ["", "  ", "\t", "\x0b", "\x0c\r", "\u3000", "\x85"])
    @pytest.mark.parametrize("as_bytes", [False, True], ids=["text", "bytes"])
    def test_whitespace_only_line_skipped(self, blank, as_bytes):
        # blank to str.strip, which a bytes line is decoded for
        text = log_line(0) + blank + "\n" + log_line(2)
        source = io.BytesIO(text.encode("utf-8")) if as_bytes else io.StringIO(text)
        assert [frame.frame_index for frame in parse_detection_log(source)] == [0, 2]

    @pytest.mark.parametrize(
        "extra, accepted",
        [
            ('"' + "[" * 1000 + '"', True),
            ('"\\"' + "{" * 1000 + '\\""', True),
            ('["\\\\",' + "[" * 600 + "]" * 600 + "]", False),
        ],
        ids=["in-a-string", "after-an-escaped-quote", "after-an-escaped-backslash"],
    )
    @pytest.mark.parametrize("as_bytes", [False, True], ids=["text", "bytes"])
    def test_nesting_counted_outside_strings(self, extra, accepted, as_bytes):
        text = log_line(0) + log_line(1).replace('"dets":', f'"x":{extra},"dets":') + log_line(2)
        source = io.BytesIO(text.encode("utf-8")) if as_bytes else io.StringIO(text)
        got = parsed_until_error(parse_detection_log(source))
        if accepted:
            assert ([frame.frame_index for frame in got[0]], got[1]) == ([0, 1, 2], None)
        else:
            assert ([frame.frame_index for frame in got[0]], got[1]) == (
                [0], (LogParseError, "line 2: malformed record: nested deeper than 512", 2))


def canonical_log(n_frames, seed=7) -> bytes:
    sink = io.BytesIO()
    write_detection_log(random_canonical_frames(np.random.default_rng(seed), n_frames), sink)
    return sink.getvalue()


def log_file(tmp_path, data: bytes):
    """``data`` written to a file under ``tmp_path``, opened for reading: a seekable log with a file descriptor."""
    path = tmp_path / "detections.log"
    path.write_bytes(data)
    return open(path, "rb")


def parsed_until_error(frames):
    """The frames taken from ``frames``, and (type, message, line number) of the error that ended them."""
    taken = []
    try:
        for frame in frames:
            taken.append(frame)
    except RoadwatchError as exc:
        return taken, (type(exc), str(exc), getattr(exc, "line_number", None))
    return taken, None


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="the helper needs fork")
class TestParseHelper:
    """A seekable log file is validated in a helper process; anything else is parsed in this one."""

    @pytest.fixture(autouse=True)
    def deadline(self):
        """Fail a parse that hangs, as one whose helper is never stopped would."""

        def expire(signum, frame):
            pytest.fail("the parse did not end within 60 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(60)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        # the helper runs only where this process may use two CPUs
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    @pytest.fixture
    def helpers(self, monkeypatch):
        """The names of the worker processes that parses start, in order.

        Counted as each parse asks for one, not by finding it alive: a
        helper whose whole log fits in its pipe may have sent it all and
        exited before the first frame is taken.
        """
        import roadwatch.detection as detection

        names, received = [], detection.received

        def counted(name, items, *args):
            names.append(name)
            return received(name, items, *args)

        monkeypatch.setattr(detection, "received", counted)
        return names

    @pytest.mark.parametrize(
        "bad_line",
        ["not json at all", '{"camera":"front","frame":1,"t":-1.0,"dets":[]}'],
        ids=["malformed", "out-of-order"],
    )
    def test_bad_line_raised_after_the_frames_before_it(self, bad_line, tmp_path, helpers):
        lines = canonical_log(3000).splitlines(keepends=True)
        lines[1500] = bad_line.encode("utf-8") + b"\n"
        with log_file(tmp_path, b"".join(lines)) as source:
            frames = parse_detection_log(source)
            first = next(frames)
            assert helpers == ["log parse helper"]
            got = parsed_until_error(itertools.chain([first], frames))
        # an iterator is not seekable, so it is parsed in this process
        expected = parsed_until_error(parse_detection_log(iter(lines)))
        assert got == expected
        assert len(got[0]) == 1500 and got[1][1].startswith("line 1501: ")
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("how", ["close", "drop"])
    def test_parse_ended_early_stops_the_helper(self, how, tmp_path, helpers):
        with log_file(tmp_path, canonical_log(5000)) as source:
            frames = parse_detection_log(source)
            next(frames)
            assert helpers == ["log parse helper"]
            if how == "close":
                frames.close()
            else:
                del frames
            assert multiprocessing.active_children() == []

    def test_killed_helper_named_with_its_exit_code(self, tmp_path):
        # a log larger than the pipe holds, so the helper is still sending
        with log_file(tmp_path, canonical_log(10_000)) as source:
            frames = parse_detection_log(source)
            next(frames)
            (helper,) = multiprocessing.active_children()
            os.kill(helper.pid, signal.SIGKILL)
            with pytest.raises(RuntimeError, match="^the log parse helper exited with code -9 before its last frame$"):
                list(frames)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("rule", ["one CPU", "no fork"])
    def test_parsed_here_without_a_spare_cpu_or_fork(self, monkeypatch, rule, tmp_path, helpers):
        if rule == "one CPU":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        else:
            monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        data = canonical_log(300)
        with log_file(tmp_path, data) as source:
            frames = parse_detection_log(source)
            first = next(frames)
            assert helpers == []
            assert [first, *frames] == list(parse_detection_log(iter(data.splitlines())))

    @pytest.mark.parametrize("stream", [io.BytesIO, lambda data: io.StringIO(data.decode("utf-8"))],
                             ids=["bytes", "text"])
    def test_in_memory_log_parsed_here(self, stream, helpers):
        # seekable, but with no file descriptor: too few lines to pay for a fork
        data = canonical_log(300)
        frames = parse_detection_log(stream(data))
        first = next(frames)
        assert helpers == []
        assert [first, *frames] == list(parse_detection_log(iter(data.splitlines())))

    def test_fifo_frame_arrives_before_the_writer_closes(self, tmp_path):
        fifo = tmp_path / "log.fifo"
        os.mkfifo(fifo)
        lines = canonical_log(5).splitlines(keepends=True)
        received = threading.Event()
        seen_before_close = []

        def write():
            with open(fifo, "wb", buffering=0) as sink:
                sink.write(lines[0])
                # the reader must have the first frame while the pipe is still open
                seen_before_close.append(received.wait(30))
                sink.write(b"".join(lines[1:]))

        writer = threading.Thread(target=write)
        writer.start()
        try:
            with open(fifo, "rb") as source:
                frames = parse_detection_log(source)
                first = next(frames)
                received.set()
                rest = list(frames)
        finally:
            received.set()
            writer.join()
        assert seen_before_close == [True]
        assert [first, *rest] == list(parse_detection_log(iter(lines)))
