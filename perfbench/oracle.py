"""Output checks computed apart from the program under test.

The flow-check oracle is a literal quiet-gap debounce over event
timestamps; the ground-truth checks compare tracker output with what the
generators in ``gen`` know about every object. Nothing here imports
roadwatch: callers pass plain tuples.
"""

from __future__ import annotations

import bisect
import json
from collections import Counter, defaultdict
from pathlib import Path

from gen import Grid, GroundTruth, tick_time

WARN = "warn"
SUPPRESS = "suppress"
SKIP_CLASS = "skip_class"
WARNING_CLASSES = ("truck", "vehicle")

# An audit row: (timestamp, camera, track_id, object_class, decision, gap).


def debounce(events, t_duration: float = 10.0, start: float = 0.0):
    """Decide warn/suppress for (timestamp, object_class) events in order.

    A truck or vehicle warns iff the time since the previous truck or
    vehicle (or since ``start``) strictly exceeds ``t_duration``; every one
    of them restarts the gap. Other classes are skipped and leave the gap
    alone. Returns (decision, gap) per event; gap is None when skipped.
    """
    last = start
    out = []
    for timestamp, object_class in events:
        if object_class not in WARNING_CLASSES:
            out.append((SKIP_CLASS, None))
            continue
        gap = timestamp - last
        out.append((WARN if gap > t_duration else SUPPRESS, gap))
        last = timestamp
    return out


def warning_line(timestamp: float, camera: str, track_id: int, gap: float) -> str:
    """The documented device message for one warning."""
    return f"WARN t={timestamp:.3f} cam={camera} track={track_id} gap={gap:.1f}\n"


def check_flow(audit, device_lines, t_duration: float = 10.0) -> list[str]:
    """Compare the run's decisions and device lines with the debounce oracle."""
    problems = []
    expected = debounce([(row[0], row[3]) for row in audit], t_duration)
    lines = []
    for row, (decision, gap) in zip(audit, expected):
        if (row[4], row[5]) != (decision, gap):
            problems.append(f"flow check at t={row[0]:.3f} cam={row[1]} track={row[2]}: "
                            f"program {row[4]}/{row[5]}, oracle {decision}/{gap}")
        if decision == WARN:
            lines.append(warning_line(row[0], row[1], row[2], gap))
    if list(device_lines) != lines:
        problems.append(f"the device's {len(device_lines)} lines differ from the oracle's {len(lines)}")
    return problems[:20]


class Owners:
    """Looks up which generated object produced a detection."""

    def __init__(self, grid: Grid, truth: list[GroundTruth]):
        self.grid = grid
        self._spans: dict[tuple[str, int], list[tuple[int, int, int]]] = defaultdict(list)
        for g in truth:
            self._spans[(g.camera, g.slot)].append((g.first_tick, g.last_tick, g.object_id))
        for spans in self._spans.values():
            spans.sort()

    def owner(self, camera: str, tick: int, cx: float, cy: float) -> int | None:
        slot = self.grid.slot_of(cx, cy)
        spans = self._spans.get((camera, slot), [])
        i = bisect.bisect_right(spans, (tick, float("inf"), 0)) - 1
        if i >= 0 and spans[i][0] <= tick <= spans[i][1]:
            return spans[i][2]
        return None


def check_ground_truth(grid: Grid, truth: list[GroundTruth], histories, audit) -> list[str]:
    """Check tracks and new-vehicle events against the generator's objects.

    ``histories`` maps (camera, track_id) to (confirmed, [(tick, (cx, cy))])
    for every track the trackers spawned. Every confirmed track must hold
    detections of one object only, and every object that was visible for
    two consecutive ticks must produce exactly one new-vehicle event, at
    its confirmation tick and with its class.
    """
    problems = []
    owners = Owners(grid, truth)
    by_id = {g.object_id: g for g in truth}
    track_owner = {}
    for (camera, track_id), (confirmed, history) in histories.items():
        if not confirmed:
            continue
        ids = {owners.owner(camera, k, cx, cy) for k, (cx, cy) in history}
        if len(ids) != 1 or None in ids:
            problems.append(f"{camera} track {track_id} holds detections of objects {sorted(map(str, ids))}")
        track_owner[(camera, track_id)] = next(iter(ids))

    events = Counter()
    for timestamp, camera, track_id, object_class, _, _ in audit:
        object_id = track_owner.get((camera, track_id))
        g = by_id.get(object_id)
        if g is None:
            problems.append(f"event t={timestamp:.3f} {camera} track {track_id} matches no object")
            continue
        events[object_id] += 1
        expected_t = None if g.confirm_tick is None else tick_time(g.confirm_tick)
        if (timestamp, object_class) != (expected_t, g.object_class):
            problems.append(f"object {object_id}: event t={timestamp:.3f} {object_class}, "
                            f"expected t={expected_t} {g.object_class}")
    for g in truth:
        expected = 0 if g.confirm_tick is None else 1
        if events[g.object_id] != expected:
            problems.append(f"object {g.object_id}: {events[g.object_id]} new_vehicle events, expected {expected}")
    return problems[:20]


PAPER_DAY_EVENTS = 1308


def check_paper_day(entries, out_dir: Path) -> list[str]:
    """Criterion-5 properties and the written artifacts of a paper-day run.

    ``entries`` are (timestamp, camera, track_id, object_class, decision,
    gap, vehicle_id) rows of the simulate report.
    """
    problems = []
    checked = [e for e in entries if e[4] != SKIP_CLASS]
    warned = [e for e in checked if e[4] == WARN]
    events = len(checked)
    ratio = len(warned) / events if events else 0.0
    per_hour = Counter(int(e[0] // 3600) for e in warned)
    peak_per_min = max(per_hour.values(), default=0) / 60.0
    if abs(events - PAPER_DAY_EVENTS) > 0.1 * PAPER_DAY_EVENTS:
        problems.append(f"criterion 5: {events} events, expected {PAPER_DAY_EVENTS} +- 10%")
    if not 0.15 <= ratio <= 0.35:
        problems.append(f"criterion 5: warn ratio {ratio:.3f} outside [0.15, 0.35]")
    if peak_per_min > 2.0:
        problems.append(f"criterion 5: peak {peak_per_min:.2f} warnings/min > 2")
    spurious = sum(1 for e in warned if e[6] is None)
    if spurious:
        problems.append(f"{spurious} spurious warnings; the scenario injects no false positives")

    audit_lines = (out_dir / "audit.jsonl").read_text(encoding="utf-8").splitlines()
    written = [json.loads(line)["decision"] for line in audit_lines]
    if written != [e[4] for e in entries]:
        problems.append("audit.jsonl decisions differ from the run's")
    meta = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    if (meta["events"], meta["warnings"]) != (events, len(warned)):
        problems.append(f"report.json counts {meta['events']}/{meta['warnings']}, "
                        f"expected {events}/{len(warned)}")
    return problems
