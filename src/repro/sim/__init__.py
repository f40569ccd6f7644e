"""Discrete-event simulation substrate for clock synchronization."""

from repro.sim.clock import HardwareClock
from repro.sim.delays import (
    DROP,
    ConstantDelay,
    DelayModel,
    DistanceDirectedDelay,
    EdgeScheduleDelay,
    FunctionDelay,
    LossyDelay,
    UniformDelay,
    ZeroDelay,
)
from repro.sim.validation import ValidationReport, validate_execution
from repro.sim.drift import (
    AlternatingDrift,
    ConstantDrift,
    DriftModel,
    ExplicitDrift,
    PerNodeDrift,
    RandomWalkDrift,
    TwoGroupDrift,
)
from repro.sim.engine import DEFAULT_TRACE_NODE_CAP, SimulationEngine, StreamingResult
from repro.sim.monitors import (
    EnvelopeMonitor,
    MonotonicityMonitor,
    RateBoundMonitor,
    StreamingSkewTracker,
)
from repro.sim.rates import PiecewiseConstantRate, alternating_rate, constant_rate
from repro.sim.runner import (
    default_monitors,
    run_execution,
    run_execution_streaming,
    simulate_aopt,
)
from repro.sim.trace import ExecutionTrace, LogicalClockRecord, SkewExtremum

__all__ = [
    "HardwareClock",
    "PiecewiseConstantRate",
    "constant_rate",
    "alternating_rate",
    "DelayModel",
    "ConstantDelay",
    "ZeroDelay",
    "UniformDelay",
    "FunctionDelay",
    "EdgeScheduleDelay",
    "DistanceDirectedDelay",
    "LossyDelay",
    "DROP",
    "validate_execution",
    "ValidationReport",
    "DriftModel",
    "ConstantDrift",
    "PerNodeDrift",
    "TwoGroupDrift",
    "AlternatingDrift",
    "RandomWalkDrift",
    "ExplicitDrift",
    "SimulationEngine",
    "StreamingResult",
    "DEFAULT_TRACE_NODE_CAP",
    "EnvelopeMonitor",
    "RateBoundMonitor",
    "MonotonicityMonitor",
    "StreamingSkewTracker",
    "ExecutionTrace",
    "LogicalClockRecord",
    "SkewExtremum",
    "run_execution",
    "run_execution_streaming",
    "simulate_aopt",
    "default_monitors",
]
