"""Discrete-event simulator: event queue, power-state machines, replay
engine, telemetry."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

# This block is the export declaration: repro._lazy reads it at import.
if TYPE_CHECKING:
    from repro.simulation.admission import (
        AdmissionController as AdmissionController,
        AdmissionDecision as AdmissionDecision,
        AdmissionOutcome as AdmissionOutcome,
        offer as offer,
        shift_request as shift_request,
    )
    from repro.simulation.engine import (
        SimulationEngine as SimulationEngine,
        SimulationResult as SimulationResult,
        simulate_online as simulate_online,
    )
    from repro.simulation.events import (
        Event as Event,
        EventKind as EventKind,
        EventQueue as EventQueue,
    )
    from repro.simulation.failures import (
        FailureOutcome as FailureOutcome,
        ServerFailure as ServerFailure,
        inject_failures as inject_failures,
        random_failures as random_failures,
    )
    from repro.simulation.power_state import (
        PowerState as PowerState,
        ServerMachine as ServerMachine,
    )
    from repro.simulation.telemetry import (
        Telemetry as Telemetry,
        TelemetryCollector as TelemetryCollector,
    )

__getattr__, __dir__, __all__ = lazy_exports(globals())
