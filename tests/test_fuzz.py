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
import multiprocessing
import sys
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from datetime import timedelta

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from roadwatch.cli import main
from roadwatch.detection import CAMERAS, CLASSES, DEEPEST, Detection, detection_records, parse_detection_log
from roadwatch.errors import LogParseError, RoadwatchError, StreamOrderError
from roadwatch.simulation import SCENARIO_KEYS, generate_passes, load_scenario, merge_streams, render_detections

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

# tokens that are not JSON: orjson rejects their line before any rule is checked
NOT_JSON = {"NaN": "unexpected character", "Infinity": "unexpected character", "-Infinity": "no digit after minus sign",
            "1" + "0" * 400: "number is infinity"}
# one broken rule: (field, bad tokens, what the message names, unless the token is not JSON)
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
    """Lines of legal records: both cameras, frame indices and times that
    increase per camera, times that never go back across cameras, spelled as
    ints or floats, zero to three detections each."""
    lines = []
    last_t = {}
    latest = None
    for frame in range(draw(st.integers(min_value=1, max_value=6))):
        camera = draw(st.sampled_from(CAMERAS))
        if latest is None:
            t = draw(st.sampled_from([0, -0.0, 0.0, 1e-3, 1e9]))
        elif last_t.get(camera) != latest and draw(st.booleans()):
            t = latest  # a tie with the other camera
        else:
            t = latest + draw(st.sampled_from([1, 0.5, 1e3]))
        last_t[camera] = latest = t
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
    rule = draw(st.sampled_from(["camera", "frame", "t", "order", "cross-camera order", "index order"]))
    camera, frame, t = '"front"', str(len(lines)), "2e9"
    if rule == "camera":
        camera, names = draw(st.sampled_from(['"side"', '"FRONT"', "null", "1", '["front"]'])), "unknown camera"
    elif rule == "frame":
        frame, names = draw(st.sampled_from(["-1", "1.0", "true", "null", '"3"',
                                                 "9223372036854775808"])), "bad frame index"
    elif rule == "t":
        t = draw(st.sampled_from(["NaN", "Infinity", "-Infinity", '"1.0"', "true", "null", "1" + "0" * 400]))
        names = f"malformed record: {NOT_JSON[t]}" if t in NOT_JSON else "bad timestamp"
    elif rule == "order":
        previous = json.loads(lines[-1])
        camera, t, names = f'"{previous["camera"]}"', draw(st.sampled_from(
            [json.dumps(previous["t"]), json.dumps(previous["t"] - 1)])), "not after previous"
    elif rule == "index order":
        # at a later time, the index of the camera's last line or a lower one
        previous = json.loads(lines[-1])
        camera, frame = f'"{previous["camera"]}"', draw(st.sampled_from([str(previous["frame"]), "0"]))
        names = f"frame index {frame} not after previous {previous['frame']}"
    else:
        # the other camera, after its own last time but before the latest
        previous = json.loads(lines[-1])
        lines.append(record_text(previous["camera"], len(lines), previous["t"] + 1, []))
        other = next(c for c in CAMERAS if c != previous["camera"])
        camera, frame, t = f'"{other}"', str(len(lines)), json.dumps(previous["t"] + 0.5)
        names = "the latest on any camera"
    lines.append(f'{{"camera":{camera},"frame":{frame},"t":{t},"dets":[]}}')
    error = StreamOrderError if rule.endswith("order") else LogParseError
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
    if token in NOT_JSON:
        names = f"malformed record: {NOT_JSON[token]}"
    with pytest.raises(LogParseError, match=f"^line {len(lines)}: .*{names}"):
        list(parse_detection_log(io.StringIO("\n".join(lines) + "\n")))


@FUZZ
@given(broken_record())
def test_record_breaking_one_rule_rejected(case):
    lines, error, names = case
    with pytest.raises(error, match=f"^line {len(lines)}: .*{names}"):
        list(parse_detection_log(io.StringIO("\n".join(lines) + "\n")))


def parse_outcome(frames) -> tuple:
    """Each frame's exact fields, then (type, message, line number) of the error that ended them."""
    got = []
    try:
        for f in frames:
            got.append(frame_fields(f.camera, f.frame_index, f.timestamp, f.detections))
    except RoadwatchError as exc:
        return got, (type(exc), str(exc), getattr(exc, "line_number", None))
    return got, None


def nested_lines(depth: int) -> list[bytes]:
    """A two-line log whose line 2 carries an extra key that makes it nest ``depth`` deep in all."""
    inner = depth - 1
    return [record_text("front", 0, 0, []).encode("utf-8"),
            ('{"camera":"front","frame":1,"t":1,"dets":[],"x":' + "[" * inner + "]" * inner + "}").encode("utf-8")]


# around the nesting limit, and where json.loads once ran out of stack
DEPTHS = [4, DEEPEST, DEEPEST + 1, 960, 975, 990, 1000]


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="the helper needs fork")
@pytest.mark.usefixtures("two_cpus")
@FUZZ
@given(legal_records() | broken_record().map(lambda case: case[0]) | any_lines
       | st.sampled_from(DEPTHS).map(nested_lines))
def test_helper_parses_as_this_process_does(tmp_path_factory, lines):
    data = b"".join((line if isinstance(line, bytes) else line.encode("utf-8")) + b"\n" for line in lines)
    # a generator is not seekable, so it is parsed in this process
    here = parse_outcome(parse_detection_log(line for line in io.BytesIO(data)))
    # and a seekable file in the helper
    log = tmp_path_factory.getbasetemp() / "helper.log"
    log.write_bytes(data)
    with open(log, "rb") as source:
        assert parse_outcome(parse_detection_log(source)) == here


@contextmanager
def recursion_headroom(frames: int):
    """A recursion limit ``frames`` above the current depth."""
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="the helper needs fork")
@pytest.mark.parametrize("depth", DEPTHS)
def test_nesting_outcome_does_not_depend_on_the_stack(depth, tmp_path, capsys, two_cpus):
    # in this process under a tight and a raised recursion limit, in the
    # helper, which runs a few frames deeper, and in replay
    lines = nested_lines(depth)
    outcomes = []
    for frames in (100, 100_000):
        with recursion_headroom(frames):
            outcomes.append(parse_outcome(parse_detection_log(iter(lines))))
    log = tmp_path / "nested.log"
    log.write_bytes(b"\n".join(lines) + b"\n")
    with open(log, "rb") as source:
        outcomes.append(parse_outcome(parse_detection_log(source)))
    assert outcomes[0] == outcomes[1] == outcomes[2]
    rejected = f"line 2: malformed record: nested deeper than {DEEPEST}"
    frames, error = outcomes[0]
    assert (len(frames), error) == ((2, None) if depth <= DEEPEST else (1, (LogParseError, rejected, 2)))
    assert main(["replay", "--log", str(log), "--device", "stdout"]) == (0 if depth <= DEEPEST else 2)
    assert capsys.readouterr().err == ("" if depth <= DEEPEST else f"error: {rejected}\n")


# --- lines at the edges of the JSON grammar -----------------------------------

# numbers that orjson rejects (NaN, the infinities, 1e400), gives as an int
# at the ends of 64 bits, or rounds to a float beyond them
EDGE_NUMBERS = ["NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1" + "0" * 400, str(2**64 - 1), str(2**64),
                str(2**64 + 1), str(-(2**63)), str(-(2**63) - 1), str(2**70 + 1), str(10**30), "-0", "-0.0"]
# timestamps that tie or differ by less than a float resolves beyond 2**53
EDGE_TIMES = [0, 0.5, 1, 2**53 + 1, 2**63 - 1, 2**64, 2**64 + 1, 2**70, 2**70 + 1, 2**70 + 2, 1e30]
# nesting just inside the limit at any level, just outside it at the record's, and far outside
DEEP = ["[" * n + "]" * n for n in (DEEPEST - 3, DEEPEST, 1000)]


@st.composite
def twisted_pairs(draw, pairs: list[tuple[str, str]]) -> str:
    """``pairs`` as a JSON object, with one value swapped for an edge number,
    a key duplicated, or an extra key (flat, lone-surrogate or deep) added."""
    pairs = list(pairs)
    k = draw(st.integers(0, len(pairs) - 1))
    twist = draw(st.sampled_from(["number", "duplicate", "extra", "surrogate", "deep"]))
    if twist == "number":
        pairs[k] = (pairs[k][0], draw(st.sampled_from(EDGE_NUMBERS)))
    elif twist == "duplicate":
        pairs.insert(k, (pairs[k][0], draw(st.sampled_from(EDGE_NUMBERS + ['"front"', '"truck"', "[]"]))))
    else:
        value = {"extra": "1", "surrogate": '"\\ud800"', "deep": draw(st.sampled_from(DEEP))}[twist]
        pairs.insert(k, (draw(st.sampled_from(["x", "t0", "\\udc00"])), value))
    return json_object(pairs)


def json_object(pairs: list[tuple[str, str]]) -> str:
    return "{" + ",".join(f'"{key}":{value}' for key, value in pairs) + "}"


@st.composite
def orjson_edge_lines(draw) -> list[str | bytes]:
    """Log lines at the edges of what orjson decodes, each a str or bytes:
    edge numbers, duplicate, extra and deep keys, lone surrogates, a BOM,
    padding that only Python's strip removes, and blank lines. One line in
    three is twisted, so that most examples go on past a line."""
    # mostly in order, with ties as often as not
    times = draw(st.lists(st.sampled_from(EDGE_TIMES), min_size=1, max_size=6, unique=draw(st.booleans())))
    if draw(st.integers(0, 3)):
        times.sort()
    lines = []
    for frame, t in enumerate(times):
        twisted = draw(st.integers(0, 2)) == 0
        # a detection, or the record, is twisted with even odds on a twisted line
        twist = (lambda pairs: draw(twisted_pairs(pairs)) if twisted and draw(st.booleans()) else json_object(pairs))
        dets = []
        for _ in range(draw(st.integers(0, 2))):
            tokens = draw(legal_detection())
            confs = list(tokens["confs"])
            if twisted and draw(st.booleans()):
                confs[draw(st.integers(0, 2))] = draw(st.sampled_from(EDGE_NUMBERS))
            dets.append(twist([(key, tokens[key]) for key in DETECTION if key != "conf"]
                              + [("conf", f"[{','.join(confs)}]")]))
        line = twist([("camera", json.dumps(draw(st.sampled_from(CAMERAS)))), ("frame", str(frame)),
                      ("t", json.dumps(t)), ("dets", f"[{','.join(dets)}]")])
        if twisted and draw(st.booleans()):
            line = draw(st.sampled_from(["\ufeff", "\x0b", "\x0c", " "])) + line
        line += draw(st.sampled_from(["", "\n", "\r\n", " \n"] + (["\x0b", "\x0c\n"] if twisted else [])))
        if twisted and draw(st.integers(0, 3)) == 0:
            # a raw lone surrogate only a str line can hold; a bytes line holds its CESU-8 bytes
            line = line.replace('"camera":"rear"', '"camera":"rear\ud800"')
        lines.append(line)
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["", "\n", "   \n", "\x0b\n", "\x0c", "\u3000\n"])))
    return [line.encode("utf-8", "surrogatepass") if draw(st.booleans()) else line for line in lines]


def records_outcome(lines) -> tuple:
    """Each record's exact fields, then (type, message, line number) of the error that ended them."""
    got = []
    try:
        for frame_index, timestamp, camera, dets in detection_records(iter(lines)):
            got.append([exact([frame_index, timestamp, camera])]
                       + [exact([*d[:5], *d[5], *d[6:]]) for d in dets])
    except RoadwatchError as exc:
        return got, (type(exc), str(exc), getattr(exc, "line_number", None))
    return got, None


@settings(FUZZ, max_examples=300)
@given(orjson_edge_lines())
def test_edge_lines_parse_alike_as_str_and_bytes(lines):
    # records_outcome lets any error but a RoadwatchError through
    as_str = [line.decode("utf-8", "surrogatepass") if isinstance(line, bytes) else line for line in lines]
    as_bytes = [line.encode("utf-8", "surrogatepass") if isinstance(line, str) else line for line in lines]
    assert records_outcome(as_str) == records_outcome(as_bytes)


@pytest.mark.parametrize(
    "line, message",
    [
        ('{"camera":"front","frame":0,"t":0,"dets":[],"x":' + DEEP[-1] + "}", f"nested deeper than {DEEPEST}"),
        ('{"camera":"front","frame":0,"t":0,"dets":[{"cx":1,"cy":1,"w":1,"h":1,"cls":"truck","obj":1,'
         '"conf":[1,0,0],"x":' + DEEP[-1] + "}]}", f"nested deeper than {DEEPEST}"),
        ('{"camera":"front","frame":0,"t":0,"dets":[],"x":"\\ud800"}', "no matched low surrogate"),
        ("\x0b" + record_text("front", 0, 0, []), "unexpected character"),
    ],
    ids=["deep-record-key", "deep-detection-key", "lone-surrogate", "padded"],
)
def test_line_json_loads_took_is_rejected(line, message):
    # each line parsed before orjson decided every line
    for form in (line, line.encode("utf-8")):
        got, (error, text, lineno) = records_outcome([form])
        assert (got, error, lineno) == ([], LogParseError, 1)
        assert text.startswith(f"line 1: malformed record: {message}")


@pytest.mark.parametrize(
    "line",
    [b"\xff\xfe", '{"camera":"rear\ud800","frame":0,"t":0,"dets":[]}',
     '{"camera":"rear\ud800","frame":0,"t":0,"dets":[]}'.encode("utf-8", "surrogatepass"),
     b'{"camera":"front","frame":0,"t":0,"dets":[],"x":"\xc3"}'],
    ids=["bad-bytes", "raw-surrogate-str", "raw-surrogate-bytes", "truncated-sequence"],
)
def test_invalid_utf8_line_is_named_so(line):
    # orjson's own reason for each of these speaks of surrogates
    assert records_outcome([line]) == ([], (LogParseError, "line 1: malformed record: not valid UTF-8", 1))


def test_integer_timestamps_beyond_64_bits_compare_as_floats():
    # orjson gives an integer of 2**64 or more as the nearest float: 2**70 + 1 and 2**70 + 2 are both 2**70
    big = 2**70
    lines = [record_text("front", 0, big + 1, []), record_text("front", 1, big + 2, [])]
    assert records_outcome(lines) == ([[exact([0, float(big), "front"])]], (
        StreamOrderError, f"line 2: camera front timestamp {float(big):.3f} not after previous {float(big):.3f}", None))
    # below 2**64 an integer is exact, though its float is not
    lines = [record_text("front", 0, 2**64 - 2, []), record_text("front", 1, 2**64 - 1, [])]
    assert records_outcome(lines) == ([[exact([0, float(2**64), "front"])], [exact([1, float(2**64), "front"])]], None)


# --- simulate, then replay its dump --------------------------------------------

GROUND_TRUTH = ("vehicle", "pass_t", "delta")


@st.composite
def short_scenario_fields(draw) -> dict[str, dict]:
    """The sections and keys of a valid scenario of at most a minute, with
    every sensing effect on or off."""
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
    return fields


def scenario_file_text(fields: dict[str, dict]) -> str:
    return "".join(
        f"[{section}]\n" + "".join(f"{key} = {value!r}\n" if isinstance(value, float) else f"{key} = {value}\n"
                                    for key, value in options.items())
        for section, options in fields.items()
    )


short_scenarios = short_scenario_fields().map(scenario_file_text)


def audit_without_ground_truth(path) -> list[dict]:
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    return [{k: v for k, v in row.items() if k not in GROUND_TRUTH} for row in rows]


@settings(FUZZ, max_examples=40)
@given(short_scenarios)
def test_replay_of_simulated_dump_gives_simulate_audit(tmp_path_factory, text):
    # the rendered numbers are canonical: each is the double its log text
    # parses back to, so the replay tracks exactly the frames simulate did
    work = tmp_path_factory.getbasetemp() / "sim-replay"
    work.mkdir(exist_ok=True)
    scenario_path, dump = work / "scenario.cfg", work / "dump.log"
    scenario_path.write_text(text, encoding="utf-8")
    scenario = load_scenario(scenario_path)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        assert main(["simulate", "--scenario", str(scenario_path), "--out", str(work / "sim"),
                     "--dump-detections", str(dump)]) == 0, err.getvalue()
        assert main(["replay", "--log", str(dump), "--out", str(work / "rep"), "--device", "stdout"]) == 0, \
            err.getvalue()
    assert audit_without_ground_truth(work / "rep" / "audit.jsonl") == \
        audit_without_ground_truth(work / "sim" / "audit.jsonl")

    rng = np.random.default_rng(scenario.seed)
    frames = merge_streams(render_detections(generate_passes(scenario, rng), scenario, rng))
    with open(dump, "rb") as source:
        assert list(parse_detection_log(source)) == frames
    for frame in frames:
        assert frame.timestamp == float(f"{frame.timestamp:.3f}")
        for d in frame.detections:
            for v in (d.cx, d.cy, d.width, d.height):
                assert v == float(f"{v:.1f}")


# --- invalid scenario values ----------------------------------------------------

# every key of a scenario file, from the parser's own table; a profile or
# an occlusion window takes the bad value at one place of its text
SPELLINGS = {"profile": ["0:{}", "0:0.1, {}:0.2"], "occlusions": ["front:{}-50", "rear:10-{}"]}
SCENARIO_FIELDS = [
    (section, key, spelling) for section, key, *_ in SCENARIO_KEYS for spelling in SPELLINGS.get(key, ["{}"])
]
BAD_VALUES = (
    st.sampled_from(["0", "0.0", "-1", "-0.5", "-1e308", "5e-324", "1e308", "nan", "inf", "-inf", None])
    | st.sampled_from(["abc", "1.2.3", "0x1F", "--1", "1e", "50%", "%(seed)s", "[1]", "1,5", "1:2", "-", ""])
)


@pytest.mark.parametrize("section, key, spelling", SCENARIO_FIELDS,
                         ids=[f"{section}.{key}-{k}" for k, (section, key, _) in enumerate(SCENARIO_FIELDS)])
@settings(FUZZ, max_examples=25, deadline=timedelta(seconds=20))
@given(short_scenario_fields(), BAD_VALUES, st.floats(min_value=5.0, max_value=120.0))
def test_one_invalid_scenario_value_exits_0_or_2(tmp_path_factory, section, key, spelling, fields, value,
                                                 duration):
    # None leaves the key out; a value that is still valid runs to the end
    fields["scenario"]["duration_s"] = duration
    if value is None:
        del fields[section][key]
    else:
        fields[section][key] = spelling.format(value)
    code, err = run_scenario(tmp_path_factory, fields)
    assert code in (0, 2), err
    if code == 2:
        assert section in err and key in err, err


def run_scenario(tmp_path_factory, fields: dict[str, dict]) -> tuple[int, str]:
    work = tmp_path_factory.getbasetemp() / "bad-scenario"
    work.mkdir(exist_ok=True)
    path = work / "scenario.cfg"
    path.write_text(scenario_file_text(fields), encoding="utf-8")
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        code = main(["simulate", "--scenario", str(path), "--out", str(work / "out")])
    return code, err.getvalue()


@settings(FUZZ, max_examples=25, deadline=timedelta(seconds=20))
@given(short_scenario_fields(), st.sampled_from(SCENARIO_KEYS), st.data())
def test_misspelt_scenario_key_exits_2(tmp_path_factory, fields, row, data):
    # a misspelt key once parsed, and the run took the default in its place
    section, key = row[:2]
    cut = data.draw(st.integers(0, len(key) - 1))
    misspelt = data.draw(st.sampled_from([key[:cut] + key[cut + 1:], key[:cut] + "x" + key[cut:], key + "s"]))
    fields[section][misspelt] = fields[section].pop(key)
    code, err = run_scenario(tmp_path_factory, fields)
    assert code == 2, err
    # a required key is reported missing, as the table loop runs first
    assert f"unknown key {section}.{misspelt} " in err or f"missing required field {section}.{key}" in err, err


@settings(FUZZ, max_examples=25, deadline=timedelta(seconds=20))
@given(short_scenario_fields(), st.floats(0.0, 10.0), st.floats(1.0, 2000.0), st.floats(0.01, 30.0),
       st.sampled_from([30.0, 1000.0]) | st.floats(1.0, 1000.0), st.floats(1.0, 5.0))
def test_dense_scenario_exits_0_or_2(tmp_path_factory, fields, rate, reach, speed_min, fps, duration):
    # rate, range, minimum speed and frame rate together set the vehicles in
    # view, which no single field bounds; the expected number straddles its limit
    fields["scenario"].update(duration_s=duration, frame_rate_hz=fps)
    fields["arrivals.front"]["profile"] = fields["arrivals.rear"]["profile"] = f"0:{rate!r}"
    fields["road"].update(speed_min_mps=speed_min, speed_max_mps=speed_min, detection_range_m=reach)
    code, err = run_scenario(tmp_path_factory, fields)
    assert code in (0, 2), err
    if code == 2:
        assert "arrivals.front.profile: largest rate x min(" in err, err
