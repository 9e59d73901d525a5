"""Property tests: no detection log, however damaged, crashes the parser or replay.

The parser may only yield frames or raise a RoadwatchError, and ``replay``
may only exit 0 or 2. A differential test holds the parser to its documented
rules: a legal record parses to what ``json.loads`` and ``float()`` give, and
a record that breaks one rule is rejected with its line number. A last
property runs ``simulate --dump-detections`` on short valid scenarios and
holds ``replay`` of the dump to the same audit trace. Examples are
derandomized, so every run tests the same inputs.
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from roadwatch.cli import main
from roadwatch.detection import CAMERAS, CLASSES, Detection, parse_detection_log
from roadwatch.errors import LogParseError, RoadwatchError, StreamOrderError
from roadwatch.simulation import generate_passes, load_scenario, merge_streams, render_detections
from roadwatch.tracking import TrackerConfig

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
    # a replay that succeeds writes artifacts that report reads back
    log = tmp_path_factory.getbasetemp() / "fuzz.log"
    out = tmp_path_factory.getbasetemp() / "fuzz-out"
    log.write_bytes(b"\n".join(lines))
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        code = main(["replay", "--log", str(log), "--out", str(out), "--device", "stdout"])
        assert code in (0, 2), err.getvalue()
        if code == 0:
            assert main(["report", "--out", str(out)]) == 0, err.getvalue()


# --- differential test against the documented rules ---------------------------

FLOAT_MAX = sys.float_info.max
TINY = 5e-324


@st.composite
def spelled(draw, values, as_float: bool) -> str:
    """A JSON token for one drawn number: an int as an int unless
    ``as_float``, a float in one of three float spellings (never one that
    json.loads would read as an int)."""
    value = draw(values)
    if type(value) is int and not as_float:
        return str(value)
    value = float(value)
    return draw(st.sampled_from([repr(value), f"{value:.17e}", f"{value:.17E}"]))


# legal values, with 0, 1, -0.0 and the ends of each range drawn often
CENTERS = (
    st.sampled_from([0, -0.0, 0.0, 1, FLOAT_MAX, -FLOAT_MAX, TINY, -TINY])
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.integers(min_value=-(2**1000), max_value=2**1000)
)
SIZES = (
    st.sampled_from([0, -0.0, 0.0, 1, FLOAT_MAX, TINY])
    | st.floats(min_value=0.0, allow_infinity=False)
    | st.integers(min_value=0, max_value=2**1000)
)
UNITS = st.sampled_from([0, 1, 0.0, -0.0, 1.0, TINY, 1.0 - 2**-53]) | st.floats(min_value=0.0, max_value=1.0)

# one broken rule: (field, bad tokens, what the message names)
BROKEN = [
    ("cls", ['"bicycle"', '""', "1", "null", '["vehicle"]'], "unknown class"),
    ("conf", ["[0.5,0.5]", "[0.1,0.2,0.3,0.4]", '"010"', "null", "0.5", '{"a":1,"b":2,"c":3}'],
     "conf must be a list"),
    ("cx", ["NaN", "Infinity", "-Infinity", '"640"', "true", "false", "null", "[1.0]"], "box center"),
    ("cy", ["NaN", "Infinity", "-Infinity", '"360"', "true", "null"], "box center"),
    ("w", ["-5e-324", "-1.0", "-1", "NaN", "Infinity", '"4e1"', "true", "null"], "box size"),
    ("h", ["-5e-324", "-0.5", "-Infinity", "Infinity", "NaN", "false", "null"], "box size"),
    ("obj", ["-5e-324", "1.0000000000000002", "2", "-1", "NaN", "Infinity", "true", "false",
             '"0.95"', "null"], "scores must be"),
    *[(f"conf{i}", ["-5e-324", "1.0000000000000002", "2", "-1", "NaN", "true", '"0.9"', "null"],
       "scores must be") for i in range(3)],
    *[(f"no {key}", [None], "malformed detection entry") for key in DETECTION],
]


@st.composite
def legal_detection(draw, as_float: bool | None = None) -> dict[str, str]:
    """Tokens of one legal detection; unless ``as_float`` says, half of them
    spell every number as a float."""
    if as_float is None:
        as_float = draw(st.booleans())
    confs = [draw(spelled(UNITS, as_float)) for _ in CLASSES]
    return {"cx": draw(spelled(CENTERS, as_float)), "cy": draw(spelled(CENTERS, as_float)),
            "w": draw(spelled(SIZES, as_float)), "h": draw(spelled(SIZES, as_float)),
            "cls": json.dumps(draw(st.sampled_from(CLASSES))), "obj": draw(spelled(UNITS, as_float)),
            "conf": "[" + ",".join(confs) + "]", "confs": confs}


def detection_text(tokens: dict[str, str]) -> str:
    return "{" + ",".join(f'"{key}":{tokens[key]}' for key in DETECTION if key in tokens) + "}"


def record_text(camera, frame, t, dets) -> str:
    return f'{{"camera":"{camera}","frame":{frame},"t":{t},"dets":[{",".join(dets)}]}}'


@st.composite
def legal_records(draw) -> list[str]:
    """Lines of legal records: both cameras, increasing per-camera times
    spelled as ints or floats, zero to three detections each."""
    lines = []
    last_t = {}
    for frame in range(draw(st.integers(min_value=1, max_value=6))):
        camera = draw(st.sampled_from(CAMERAS))
        if camera in last_t:
            t = last_t[camera] + draw(st.sampled_from([1, 0.5, 1e3]))
        else:
            t = draw(st.sampled_from([0, -0.0, 0.0, 1e-3, -1e9]))
        last_t[camera] = t
        if t == int(t) and draw(st.booleans()):
            t = int(t)
        dets = [detection_text(draw(legal_detection())) for _ in range(draw(st.integers(0, 3)))]
        lines.append(record_text(camera, frame, t, dets))
    return lines


def documented_frame(line: str):
    """What the rules say a legal line parses to, from json.loads alone."""
    record = json.loads(line)
    dets = []
    for d in record["dets"]:
        obj = float(d["obj"])
        confs = tuple(float(c) for c in d["conf"])
        dets.append(Detection(record["frame"], float(d["cx"]), float(d["cy"]), float(d["w"]),
                              float(d["h"]), obj, confs, obj * max(confs), d["cls"]))
    return record["camera"], record["frame"], float(record["t"]), dets


def exact(values) -> list[str]:
    """Values spelled so that 1 and 1.0, and 0.0 and -0.0, differ."""
    return [f"{type(v).__name__}:{v!r}" for v in values]


def frame_fields(camera, frame_index, timestamp, dets) -> list:
    return [exact([camera, frame_index, timestamp])] + [
        exact([d.frame_index, d.cx, d.cy, d.width, d.height, d.objectness, *d.class_confidences,
               d.combined_score, d.best_class])
        for d in dets
    ]


@FUZZ
@given(legal_records(), st.booleans())
def test_legal_records_parse_as_documented(lines, as_bytes):
    text = "\n".join(lines) + "\n"
    source = io.BytesIO(text.encode("utf-8")) if as_bytes else io.StringIO(text)
    got = [frame_fields(f.camera, f.frame_index, f.timestamp, f.detections)
           for f in parse_detection_log(source)]
    assert got == [frame_fields(*documented_frame(line)) for line in lines]


def with_broken(tokens: dict[str, str], field: str, token: str) -> str:
    """The detection ``tokens`` with ``field`` set to ``token`` (or deleted)."""
    tokens = dict(tokens)
    if field.startswith("no "):
        del tokens[field[3:]]
    elif field.startswith("conf") and field != "conf":
        confs = list(tokens["confs"])
        confs[int(field[4:])] = token
        tokens["conf"] = "[" + ",".join(confs) + "]"
    else:
        tokens[field] = token
    return detection_text(tokens)


@st.composite
def broken_record(draw):
    """Legal lines, then one whose record fields break one rule."""
    lines = draw(legal_records())
    rule = draw(st.sampled_from(["camera", "frame", "t", "order"]))
    camera, frame, t = '"front"', str(len(lines)), "2e9"
    if rule == "camera":
        camera, names = draw(st.sampled_from(['"side"', '"FRONT"', "null", "1", '["front"]'])), "unknown camera"
    elif rule == "frame":
        frame, names = draw(st.sampled_from(["-1", "1.0", "true", "null", '"3"',
                                                 "9223372036854775808"])), "bad frame index"
    elif rule == "t":
        t, names = draw(st.sampled_from(["NaN", "Infinity", "-Infinity", '"1.0"', "true", "null",
                                         "1" + "0" * 400])), "bad timestamp"
    else:
        previous = json.loads(lines[-1])
        camera, t, names = f'"{previous["camera"]}"', draw(st.sampled_from(
            [json.dumps(previous["t"]), json.dumps(previous["t"] - 1)])), "not after previous"
    lines.append(f'{{"camera":{camera},"frame":{frame},"t":{t},"dets":[]}}')
    error = StreamOrderError if rule == "order" else LogParseError
    return lines, error, names


@pytest.mark.parametrize("as_float", [True, False], ids=["floats", "mixed"])
@pytest.mark.parametrize(
    "field, token, names",
    [(field, token, names) for field, tokens, names in BROKEN for token in tokens],
    ids=[f"{field.replace(' ', '-')}-{k}" for field, tokens, _ in BROKEN for k in range(len(tokens))],
)
@settings(FUZZ, max_examples=3)
@given(legal_records(), st.lists(legal_detection(), max_size=2), st.data())
def test_detection_breaking_one_rule_rejected(field, token, names, as_float, lines, others, data):
    # the broken detection's other numbers are all floats, or a mix with
    # ints: the parser must reject it either way, before any float()
    tokens = data.draw(legal_detection(as_float))
    dets = [detection_text(other) for other in others]
    dets.insert(data.draw(st.integers(0, len(dets))), with_broken(tokens, field, token))
    lines.append(record_text("front", len(lines), 2e9, dets))
    with pytest.raises(LogParseError, match=f"^line {len(lines)}: .*{names}"):
        list(parse_detection_log(io.StringIO("\n".join(lines) + "\n")))


@FUZZ
@given(broken_record())
def test_record_breaking_one_rule_rejected(case):
    lines, error, names = case
    with pytest.raises(error, match=f"^line {len(lines)}: .*{names}"):
        list(parse_detection_log(io.StringIO("\n".join(lines) + "\n")))


# --- simulate, then replay its dump --------------------------------------------

GROUND_TRUTH = ("vehicle", "pass_t", "delta")


@st.composite
def short_scenarios(draw) -> str:
    """A valid scenario of at most a minute, with every sensing effect on or off."""
    unit = st.floats(min_value=0.0, max_value=1.0)
    speed_min = draw(st.floats(min_value=5.0, max_value=30.0))
    reach = draw(st.floats(min_value=20.0, max_value=200.0))
    windows = []
    for direction in draw(st.lists(st.sampled_from(CAMERAS), max_size=2)):
        near, far = sorted(draw(st.lists(st.floats(0.0, reach), min_size=2, max_size=2)))
        windows.append(f"{direction}:{near!r}-{far!r}")
    fields = {
        "scenario": {"duration_s": draw(st.floats(min_value=5.0, max_value=60.0)),
                     "seed": draw(st.integers(min_value=0, max_value=2**32)),
                     "frame_rate_hz": draw(st.sampled_from([10.0, 25.0, 29.97, 30.0, 60.0])
                                           | st.floats(min_value=1.0, max_value=60.0)),
                     "truck_fraction": draw(unit)},
        "arrivals.front": {"profile": f"0:{draw(st.floats(0.0, 0.4))!r}"},
        "arrivals.rear": {"profile": f"0:{draw(st.floats(0.0, 0.4))!r}"},
        "road": {"speed_min_mps": speed_min,
                 "speed_max_mps": speed_min + draw(st.floats(min_value=0.0, max_value=15.0)),
                 "detection_range_m": reach, "occlusions": ", ".join(windows)},
        "camera": {"focal_length_px": draw(st.floats(min_value=200.0, max_value=3000.0)),
                   "vehicle_height_m": draw(st.floats(min_value=1.0, max_value=4.0)),
                   "image_width_px": draw(st.integers(min_value=64, max_value=4096)),
                   "image_height_px": draw(st.integers(min_value=64, max_value=4096))},
        "noise": {"center_jitter_px": draw(st.just(0.0) | st.floats(min_value=0.0, max_value=8.0)),
                  "dropout_prob": draw(st.just(0.0) | st.floats(min_value=0.0, max_value=0.5)),
                  "false_positive_rate": draw(st.just(0.0) | st.floats(min_value=0.0, max_value=0.05))},
    }
    return "".join(
        f"[{section}]\n" + "".join(f"{key} = {value!r}\n" if isinstance(value, float) else f"{key} = {value}\n"
                                    for key, value in options.items())
        for section, options in fields.items()
    )


def audit_without_ground_truth(path) -> list[dict]:
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    return [{k: v for k, v in row.items() if k not in GROUND_TRUTH} for row in rows]


@settings(FUZZ, max_examples=40)
@given(short_scenarios())
def test_replay_of_simulated_dump_gives_simulate_audit(tmp_path_factory, text):
    # the rendered numbers are canonical: each is the double its log text
    # parses back to, so the replay tracks exactly the frames simulate did
    work = tmp_path_factory.getbasetemp() / "sim-replay"
    work.mkdir(exist_ok=True)
    scenario_path, dump = work / "scenario.cfg", work / "dump.log"
    scenario_path.write_text(text, encoding="utf-8")
    scenario = load_scenario(scenario_path)
    # simulate scales the gate to the image width; replay is told it
    config = TrackerConfig.for_image_width(scenario.camera.image_width)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        assert main(["simulate", "--scenario", str(scenario_path), "--out", str(work / "sim"),
                     "--dump-detections", str(dump)]) == 0, err.getvalue()
        assert main(["replay", "--log", str(dump), "--out", str(work / "rep"), "--device", "stdout",
                     "--gate", repr(config.gate_distance)]) == 0, err.getvalue()
    assert audit_without_ground_truth(work / "rep" / "audit.jsonl") == \
        audit_without_ground_truth(work / "sim" / "audit.jsonl")

    rng = np.random.default_rng(scenario.seed)
    frames = merge_streams(render_detections(generate_passes(scenario, rng), scenario, rng, config.max_misses)[0])
    with open(dump, "rb") as source:
        assert list(parse_detection_log(source)) == frames
    for frame in frames:
        assert frame.timestamp == float(f"{frame.timestamp:.3f}")
        for d in frame.detections:
            for v in (d.cx, d.cy, d.width, d.height):
                assert v == float(f"{v:.1f}")
