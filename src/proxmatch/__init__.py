"""BLE proximity pipeline: who is operating which tagged asset, from RSSI alone.

Tags on assets broadcast their activity state; badges on workers log the
received signal strength. A fitted log-distance model plus a scalar Kalman
filter turn each badge's RSSI stream into one distance estimate per activity
session, and an event-driven matcher assigns every session the closest free
badge, labeling each assignment sure or unsure by its distance margin.
"""

from .edge import (
    ACTIVE_DEFAULT,
    Activity,
    Advertisement,
    DistanceReport,
    SESSION_GAP_S,
    run_edge,
)
from .ekf import (
    DT_LINEAR,
    DT_SQUARED,
    EkfParams,
    EkfState,
    process_noise_from_speed,
)
from .matcher import (
    EVENT_WINDOW_S,
    EvalReport,
    MatchProblem,
    MatchResult,
    SURE_MARGIN_M,
    TagSession,
    Trust,
    TruthRecord,
    brute_force_solve,
    evaluate,
    solve,
    trust_classify,
)
from .pathloss import (
    DEFAULT_MODEL,
    DegenerateFitError,
    PathLossModel,
    RangeSample,
    fit,
    residual_variance,
)
from .simulator import (
    GroundTruth,
    ScenarioConfig,
    ScheduleSegment,
    ToolSpec,
    Trace,
    WorkerSpec,
    generate,
    scenario_static,
    scenario_swap,
)

__version__ = "0.1.0"
