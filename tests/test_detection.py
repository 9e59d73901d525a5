"""Decoder and detection-log tests, including brute-force and round-trip oracles."""

import io
import json
import math

import numpy as np
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
from roadwatch.errors import LogParseError, PayloadError, StreamOrderError, ValidationError


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
    """Frames whose values are exactly representable in the log's precision."""
    frames = []
    last_t = {"front": -1.0, "rear": -1.0}
    for i in range(n_frames):
        camera = "front" if rng.uniform() < 0.5 else "rear"
        t = round(last_t[camera] + 0.001 + float(rng.uniform(0, 2.0)), 3)
        last_t[camera] = t
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

    def test_independent_camera_clocks(self):
        lines = (
            '{"camera":"front","frame":0,"t":5.000,"dets":[]}\n'
            '{"camera":"rear","frame":0,"t":1.000,"dets":[]}\n'
            '{"camera":"rear","frame":1,"t":2.000,"dets":[]}\n'
        )
        assert len(list(parse_detection_log(io.StringIO(lines)))) == 3

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
        # worded as json.loads and the record lookup word it
        with pytest.raises((ValueError, TypeError)) as expected:
            json.loads(bad_line.strip())["camera"]
        assert str(info.value) == f"line 2: malformed record: {expected.value}"
