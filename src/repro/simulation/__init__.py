"""Discrete-event simulator: event queue, power-state machines, replay
engine, telemetry."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

# The names as static imports, for type checkers and linters; at run time
# they resolve through ``__getattr__`` below. tests/test_layering.py
# keeps this block, ``_EXPORTS`` and ``__all__`` naming the same homes.
if TYPE_CHECKING:
    from repro.simulation.admission import (
        AdmissionController,
        AdmissionDecision,
        AdmissionOutcome,
        offer,
        shift_request,
    )
    from repro.simulation.engine import (
        SimulationEngine,
        SimulationResult,
        simulate_online,
    )
    from repro.simulation.events import Event, EventKind, EventQueue
    from repro.simulation.failures import (
        FailureOutcome,
        ServerFailure,
        inject_failures,
        random_failures,
    )
    from repro.simulation.power_state import PowerState, ServerMachine
    from repro.simulation.telemetry import Telemetry, TelemetryCollector

#: Home module of every name, imported on first access.
_EXPORTS: dict[str, tuple[str, ...]] = {
    "repro.simulation.admission": (
        "AdmissionController", "AdmissionDecision", "AdmissionOutcome",
        "offer", "shift_request",
    ),
    "repro.simulation.engine": (
        "SimulationEngine", "SimulationResult", "simulate_online",
    ),
    "repro.simulation.events": ("Event", "EventKind", "EventQueue"),
    "repro.simulation.failures": (
        "FailureOutcome", "ServerFailure", "inject_failures",
        "random_failures",
    ),
    "repro.simulation.power_state": ("PowerState", "ServerMachine"),
    "repro.simulation.telemetry": ("Telemetry", "TelemetryCollector"),
}

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "AdmissionOutcome",
    "offer",
    "shift_request",
    "SimulationEngine",
    "SimulationResult",
    "simulate_online",
    "Event",
    "EventKind",
    "EventQueue",
    "FailureOutcome",
    "ServerFailure",
    "inject_failures",
    "random_failures",
    "PowerState",
    "ServerMachine",
    "Telemetry",
    "TelemetryCollector",
]
