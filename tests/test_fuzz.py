"""Property tests: no detection log, however damaged, crashes the parser or replay.

The parser may only yield frames or raise a RoadwatchError, and ``replay``
may only exit 0 or 2. Examples are derandomized, so every run tests the same
inputs.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from roadwatch.cli import main
from roadwatch.detection import CAMERAS, CLASSES, parse_detection_log
from roadwatch.errors import RoadwatchError

FUZZ = settings(
    derandomize=True,
    deadline=None,
    database=None,
    max_examples=150,
)

DETECTION = {"cx": 640.0, "cy": 360.0, "w": 40.0, "h": 30.0, "cls": "vehicle", "obj": 0.95,
             "conf": [0.05, 0.9, 0.05]}

# every place in a record a mutation can hit
PATHS = (
    [("camera",), ("frame",), ("t",), ("dets",), ("dets", 0)]
    + [("dets", 0, key) for key in DETECTION]
    + [("dets", 0, "conf", i) for i in range(3)]
)

# numbers, including ones at and beyond the edges of the float range
numbers = (
    st.integers()
    | st.floats()
    | st.sampled_from([10**400, -(10**400), 2**1024, 1.7976931348623157e308, 5e-324])
)
json_values = st.recursive(
    st.none()
    | st.booleans()
    | numbers
    | st.text(max_size=8)
    | st.sampled_from(["front", "rear", "truck", "vehicle", "pedestrian"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)


def record(k: int) -> dict:
    return {"camera": ("front", "rear")[k % 2], "frame": k, "t": k / 30, "dets": [dict(DETECTION)]}


@st.composite
def mutated_lines(draw) -> list[bytes]:
    """A few canonical records, each with some fields replaced by any JSON value or deleted."""
    lines = []
    for k in range(draw(st.integers(min_value=1, max_value=4))):
        rec = record(k)
        for path in draw(st.lists(st.sampled_from(PATHS), max_size=2) | st.just([])):
            parent = rec
            try:
                for key in path[:-1]:
                    parent = parent[key]
                if draw(st.integers(min_value=0, max_value=3)):
                    parent[path[-1]] = draw(numbers | json_values)
                else:
                    del parent[path[-1]]
            except (KeyError, IndexError, TypeError):
                pass  # an earlier mutation removed or retyped this path
        lines.append(json.dumps(rec).encode("utf-8"))
    return lines


finite = st.floats(allow_nan=False, allow_infinity=False)
unit = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def valid_lines(draw) -> list[bytes]:
    """Records the parser accepts, with values anywhere in their legal range.

    Most boxes sit near one image point so that tracks form and reach the
    flow check; the rest are anywhere in the float range.
    """
    lines = []
    t = draw(finite)
    for k in range(draw(st.integers(min_value=1, max_value=8))):
        t += draw(st.floats(min_value=1e-3, max_value=1e9))
        dets = [
            {"cx": draw(st.floats(630.0, 650.0) | finite), "cy": draw(st.floats(350.0, 370.0) | finite),
             "w": draw(st.floats(min_value=0.0, allow_infinity=False)),
             "h": draw(st.floats(min_value=0.0, allow_infinity=False)),
             "cls": draw(st.sampled_from(CLASSES)), "obj": draw(unit),
             "conf": draw(st.lists(unit, min_size=3, max_size=3))}
            for _ in range(draw(st.integers(min_value=0, max_value=3)))
        ]
        record = {"camera": draw(st.sampled_from(CAMERAS)), "frame": k, "t": t, "dets": dets}
        lines.append(json.dumps(record).encode("utf-8"))
    return lines


byte_lines = st.lists(st.binary(max_size=60), min_size=1, max_size=4)
any_lines = (
    valid_lines()
    | mutated_lines()
    | byte_lines
    | st.tuples(valid_lines(), mutated_lines(), byte_lines).map(lambda p: p[0] + p[1] + p[2])
)


@FUZZ
@given(any_lines)
def test_parser_yields_frames_or_raises_roadwatch_error(lines):
    try:
        for frame in parse_detection_log(io.BytesIO(b"\n".join(lines))):
            assert frame.camera in ("front", "rear")
    except RoadwatchError:
        pass


@FUZZ
@given(any_lines)
def test_replay_exits_0_or_2(tmp_path_factory, lines):
    log = tmp_path_factory.getbasetemp() / "fuzz.log"
    log.write_bytes(b"\n".join(lines))
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        code = main(["replay", "--log", str(log), "--device", "stdout"])
    assert code in (0, 2), err.getvalue()
