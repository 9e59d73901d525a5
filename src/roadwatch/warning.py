"""Traffic-flow-gated worker warnings.

One ``FlowCheckMonitor`` consumes the new-vehicle events of both camera
streams and keeps one shared timer: a warning fires only when the gap since
the previous identified vehicle strictly exceeds ``t_duration`` (default
10 s). Steady traffic therefore stays silent, because workers alerted once
are already watching the road; only a vehicle arriving after a quiet spell
triggers the device again. The timer restarts on every truck or vehicle
event whether or not it warned. Each decision is an ``AuditRecord``, and a
warning is its warn record.
"""

from __future__ import annotations

import math
import socket
import sys
from dataclasses import dataclass
from typing import IO

from .errors import ConfigError, StreamOrderError, ValidationError
from .tracking import TrackerEvent

WARNING_CLASSES = frozenset({"truck", "vehicle"})

DECISION_WARN = "warn"
DECISION_SUPPRESS = "suppress"
DECISION_SKIP_CLASS = "skip_class"


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


def format_warning_line(record: AuditRecord) -> str:
    return (
        f"WARN t={record.timestamp:.3f} cam={record.camera} "
        f"track={record.track_id} gap={record.gap:.1f}\n"
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
    """Worker device stub sending one UDP datagram per warning.

    The host is resolved to its first IPv4 address once, here, so that no
    warning waits on a resolver; a host that does not resolve is a
    ``ConfigError``.
    """

    def __init__(self, host: str, port: int):
        try:
            self.address = socket.getaddrinfo(host, port, socket.AF_INET, socket.SOCK_DGRAM)[0][4]
        except (OSError, UnicodeError) as exc:
            raise ConfigError(f"cannot resolve device host {host!r}: {exc}") from exc
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)

    def send(self, line: str) -> None:
        self._sock.sendto(line.encode("utf-8"), self.address)

    def close(self) -> None:
        self._sock.close()


def emit_warning(record: AuditRecord, device) -> bool:
    """Write one canonical warning message; False if the channel failed.

    Failures are best-effort territory: the caller counts them and keeps
    going rather than stalling the pipeline.
    """
    try:
        device.send(format_warning_line(record))
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
        # False for NaN and inf too: an infinite quiet gap never warns and
        # would reach report.json as a number JSON cannot hold
        if not 0 < t_duration < math.inf:
            raise ConfigError(f"t_duration must be finite and > 0, got {t_duration}")
        self.t_start = start_time
        self.t_duration = t_duration
        self.device = device
        self.audit: list[AuditRecord] = []
        self.emit_failures = 0

    @property
    def warnings(self) -> list[AuditRecord]:
        """The warn records of ``audit``, in order; a new list on each read."""
        return [record for record in self.audit if record.decision == DECISION_WARN]

    def observe(self, event: TrackerEvent) -> AuditRecord | None:
        """Feed one new-vehicle event; returns the warn record if a warning fired."""
        # a NaN time would suppress its event and make the next gap NaN too
        if not math.isfinite(event.timestamp):
            raise ValidationError(f"event timestamp must be finite, got {event.timestamp!r}")
        gap = None
        if event.object_class not in WARNING_CLASSES:
            decision = DECISION_SKIP_CLASS
        else:
            if event.timestamp < self.t_start:
                raise StreamOrderError(
                    f"event at {event.timestamp:.3f} is older than timer start {self.t_start:.3f}"
                )
            gap = event.timestamp - self.t_start
            self.t_start = event.timestamp
            decision = DECISION_WARN if gap > self.t_duration else DECISION_SUPPRESS
        record = AuditRecord(event.timestamp, event.camera, event.track_id, event.object_class, decision, gap)
        self.audit.append(record)
        if decision != DECISION_WARN:
            return None
        if self.device is not None and not emit_warning(record, self.device):
            self.emit_failures += 1
        return record
