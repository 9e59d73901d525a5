"""Traffic-flow-gated worker warnings.

New-vehicle events from both camera streams feed one shared timer: a warning
fires only when the gap since the previous identified vehicle strictly
exceeds ``t_duration`` (default 10 s). Steady traffic therefore stays
silent, because workers alerted once are already watching the road; only a
vehicle arriving after a quiet spell triggers the device again. The timer
resets on every event whether or not it warned.
"""

from __future__ import annotations

import socket
import sys
from dataclasses import dataclass
from typing import IO

from .errors import ConfigError, StreamOrderError, ValidationError
from .tracking import NEW_VEHICLE, TrackerEvent

WARNING_CLASSES = frozenset({"truck", "vehicle"})

DECISION_WARN = "warn"
DECISION_SUPPRESS = "suppress"
DECISION_SKIP_CLASS = "skip_class"


@dataclass
class FlowCheckState:
    """Timer state: start of the current quiet-gap measurement."""

    t_start: float
    t_duration: float = 10.0


@dataclass(frozen=True)
class WarningEvent:
    """A warning actually delivered to the workers."""

    timestamp: float
    track_id: int
    camera: str
    gap: float


@dataclass(slots=True)
class AuditRecord:
    """Warn, suppress or skip decision for one new-vehicle event.

    The report entry as well: a simulated run fills the ground-truth match
    of each warning (vehicle id, pass time and pre-warning delta) in place;
    the other records, and every record of a replay, keep None.
    """

    timestamp: float
    camera: str
    track_id: int
    object_class: str
    decision: str
    gap: float | None
    vehicle_id: int | None = None
    pass_time: float | None = None
    delta: float | None = None


def init_flow_check(now: float, t_duration: float = 10.0) -> FlowCheckState:
    """Start the timer at the current timestamp."""
    if t_duration <= 0:
        raise ConfigError(f"t_duration must be > 0, got {t_duration}")
    return FlowCheckState(t_start=now, t_duration=t_duration)


def on_new_vehicle(
    state: FlowCheckState, event: TrackerEvent
) -> tuple[FlowCheckState, WarningEvent | None]:
    """Process one new-vehicle event against the timer.

    Warns iff the event's gap since ``t_start`` strictly exceeds
    ``t_duration``; the timer restarts at the event timestamp either way.
    """
    if event.kind != NEW_VEHICLE:
        raise ValidationError(f"expected a {NEW_VEHICLE} event, got {event.kind!r}")
    if event.object_class not in WARNING_CLASSES:
        raise ValidationError(f"class {event.object_class!r} does not enter the flow check")
    if event.timestamp < state.t_start:
        raise StreamOrderError(
            f"event at {event.timestamp:.3f} is older than timer start {state.t_start:.3f}"
        )
    gap = event.timestamp - state.t_start
    warning = None
    if gap > state.t_duration:
        warning = WarningEvent(
            timestamp=event.timestamp,
            track_id=event.track_id,
            camera=event.camera,
            gap=gap,
        )
    return FlowCheckState(t_start=event.timestamp, t_duration=state.t_duration), warning


def format_warning_line(event: WarningEvent) -> str:
    return (
        f"WARN t={event.timestamp:.3f} cam={event.camera} "
        f"track={event.track_id} gap={event.gap:.1f}\n"
    )


class StdoutDevice:
    """Worker device stub writing warning lines to a text stream."""

    def __init__(self, stream: IO[str] | None = None):
        self._stream = stream if stream is not None else sys.stdout

    def send(self, line: str) -> None:
        self._stream.write(line)

    def close(self) -> None:
        pass


class UdpDevice:
    """Worker device stub sending one UDP datagram per warning."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)

    def send(self, line: str) -> None:
        self._sock.sendto(line.encode("utf-8"), (self.host, self.port))

    def close(self) -> None:
        self._sock.close()


def emit_warning(event: WarningEvent, device) -> bool:
    """Write one canonical warning message; False if the channel failed.

    Failures are best-effort territory: the caller counts them and keeps
    going rather than stalling the pipeline.
    """
    try:
        device.send(format_warning_line(event))
        return True
    except (OSError, ValueError):
        return False


class FlowCheckMonitor:
    """Serialized consumer of the merged new-vehicle event stream.

    Events from both trackers must be delivered in timestamp order (ties:
    front before rear). Pedestrian-class events are logged but never touch
    the timer; truck/vehicle events drive it. Device delivery failures are
    counted in ``emit_failures``.
    """

    def __init__(self, t_duration: float = 10.0, start_time: float = 0.0, device=None):
        self.state = init_flow_check(start_time, t_duration)
        self.device = device
        self.audit: list[AuditRecord] = []
        self.warnings: list[WarningEvent] = []
        self.events_checked = 0
        self.emit_failures = 0

    def observe(self, event: TrackerEvent) -> WarningEvent | None:
        """Feed one tracker event; returns the warning if one fired."""
        if event.kind != NEW_VEHICLE:
            return None
        gap = warning = None
        if event.object_class in WARNING_CLASSES:
            self.events_checked += 1
            gap = event.timestamp - self.state.t_start
            self.state, warning = on_new_vehicle(self.state, event)
            decision = DECISION_WARN if warning else DECISION_SUPPRESS
        else:
            decision = DECISION_SKIP_CLASS
        self.audit.append(
            AuditRecord(event.timestamp, event.camera, event.track_id, event.object_class, decision, gap)
        )
        if warning:
            self.warnings.append(warning)
            if self.device is not None and not emit_warning(warning, self.device):
                self.emit_failures += 1
        return warning
