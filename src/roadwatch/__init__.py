"""Vehicle tracking and worker-warning pipeline for short-term roadwork sites."""

from .detection import (
    CLASSES,
    Detection,
    FrameDetections,
    GridSpec,
    decode_grid,
    parse_detection_log,
    write_detection_log,
)
from .errors import (
    ConfigError,
    LogParseError,
    PayloadError,
    RoadwatchError,
    StreamOrderError,
    ValidationError,
)
from .simulation import Scenario, SimulationReport, load_scenario, run_pipeline
from .tracking import (
    Track,
    TrackerConfig,
    TrackerEvent,
    VehicleTracker,
    assign,
    cost_matrix,
)
from .warning import FlowCheckMonitor, emit_warning

__version__ = "0.1.0"
