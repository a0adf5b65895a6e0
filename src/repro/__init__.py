"""Energy-saving virtual machine allocation in cloud data centers.

A full reproduction of *Xie, Jia, Yang, Zhang — "Energy Saving Virtual
Machine Allocation in Cloud Computing", IEEE ICDCS Workshops 2013*: the
minimum-incremental-energy allocation heuristic, the FFPS baseline, the
exact boolean-ILP formulation, the energy model (affine power curves,
busy/idle segments, transition costs), a Poisson workload generator, a
discrete-event replay simulator, and the harness regenerating every table
and figure of the paper's evaluation.

Quickstart::

    from repro import Cluster, MinIncrementalEnergy, generate_vms
    from repro import allocation_cost

    vms = generate_vms(100, mean_interarrival=4.0, seed=0)
    cluster = Cluster.paper_all_types(50)
    plan = MinIncrementalEnergy().allocate(vms, cluster)
    print(allocation_cost(plan).total)

The top-level names resolve on first use (PEP 562): ``import repro``
loads no subpackage, and ``repro.Cluster`` imports :mod:`repro.model`
when it is first read. So a daemon or a CLI command pays only for the
modules it runs — not for scipy or networkx, which only the analysis,
metrics, ILP and experiment code import.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

# The names as static imports, for type checkers and linters; at run time
# they resolve through ``__getattr__`` below. tests/test_layering.py
# keeps this block, ``_EXPORTS`` and ``__all__`` naming the same homes.
if TYPE_CHECKING:
    from repro.allocators import (
        Allocator,
        BestFit,
        Decision,
        FirstFit,
        FirstFitPowerSaving,
        GammaFF,
        MinIncrementalEnergy,
        PowerAwareFirstFit,
        RandomFit,
        RoundRobin,
        WorstFit,
        allocator_names,
        make_allocator,
    )
    from repro.energy import (
        CostBreakdown,
        EnergyReport,
        SleepPolicy,
        allocation_cost,
        energy_report,
        run_energy,
    )
    from repro.exceptions import (
        AllocationError,
        AllocatorConfigError,
        CapacityError,
        OverloadedError,
        ProtocolVersionError,
        ReproError,
        RetryableError,
        ServiceError,
        SimulationError,
        SolverError,
        TransportError,
        UnknownOperationError,
        ValidationError,
    )
    from repro.placement import (
        CandidateIndex,
        DenseOccupancy,
        EngineConfig,
        Feasibility,
        FeasibilityBatch,
        FleetKernel,
        SkylineOccupancy,
    )
    from repro.analysis import (
        concurrency_profile,
        conflict_graph,
        energy_lower_bound,
    )
    from repro.consolidation import (
        ConsolidationReport,
        FragmentationMonitor,
        MigrationPlanner,
        PlannedMove,
        VictimSelector,
    )
    from repro.experiments import ScenarioConfig, compare_averaged
    from repro.extensions import (
        EpochConsolidator,
        LongestFirstMinEnergy,
        OfflineMinEnergy,
        SuperlinearPowerModel,
        evaluate_under_model,
    )
    from repro.ilp import RecedingHorizonSolver, solve_ilp, solve_relaxation
    from repro.metrics import (
        energy_reduction_ratio,
        linear_fit,
        logarithmic_fit,
        utilization_stats,
    )
    from repro.model import (
        VM,
        DemandPhase,
        PhasedVM,
        Allocation,
        Cluster,
        PlacementConstraints,
        Server,
        ServerSpec,
        TimeInterval,
        VMSpec,
        server_type,
        vm_type,
    )
    from repro.obs import (
        CandidateVerdict,
        CostTerms,
        ExplainRecorder,
        FlightRecorder,
        JsonLogger,
        PlacementExplanation,
        SLOConfig,
        SLOTracker,
        TelemetryRing,
        TelemetrySample,
        TraceContext,
        Tracer,
        format_decision_table,
        get_logger,
        get_tracer,
        set_logger,
        set_tracer,
        to_chrome_trace,
        use_logger,
        use_tracer,
        write_chrome_trace,
    )
    from repro.results import STATUSES, PlacementResult
    from repro.service import (
        SUPPORTED_VERSIONS,
        AllocationClient,
        AllocationDaemon,
        ClientConfig,
        ClusterStateStore,
        ReplaySummary,
        consolidate_request,
        place_batch_request,
        replay_trace,
        serve_socket,
        start_gateway,
    )
    from repro.robust import RobustnessConfig, RobustSkyline
    from repro.simulation import SimulationEngine, simulate_online
    from repro.workload import (
        BurstyWorkload,
        PhasedWorkload,
        DiurnalWorkload,
        HeavyTailWorkload,
        PoissonWorkload,
        Trace,
        generate_vms,
    )

__version__ = "1.0.0"

#: Home module of every top-level name, imported on first access.
_EXPORTS: dict[str, tuple[str, ...]] = {
    "repro.allocators": (
        "Allocator", "BestFit", "Decision", "FirstFit", "FirstFitPowerSaving",
        "GammaFF", "MinIncrementalEnergy", "PowerAwareFirstFit", "RandomFit",
        "RoundRobin", "WorstFit", "allocator_names", "make_allocator",
    ),
    "repro.energy": (
        "CostBreakdown", "EnergyReport", "SleepPolicy", "allocation_cost",
        "energy_report", "run_energy",
    ),
    "repro.exceptions": (
        "AllocationError", "AllocatorConfigError", "CapacityError",
        "OverloadedError", "ProtocolVersionError", "ReproError",
        "RetryableError", "ServiceError", "SimulationError", "SolverError",
        "TransportError", "UnknownOperationError", "ValidationError",
    ),
    "repro.placement": (
        "CandidateIndex", "DenseOccupancy", "EngineConfig", "Feasibility",
        "FeasibilityBatch", "FleetKernel", "SkylineOccupancy",
    ),
    "repro.analysis": (
        "concurrency_profile", "conflict_graph", "energy_lower_bound",
    ),
    "repro.consolidation": (
        "ConsolidationReport", "FragmentationMonitor", "MigrationPlanner",
        "PlannedMove", "VictimSelector",
    ),
    "repro.experiments": (
        "ScenarioConfig", "compare_averaged",
    ),
    "repro.extensions": (
        "EpochConsolidator", "LongestFirstMinEnergy", "OfflineMinEnergy",
        "SuperlinearPowerModel", "evaluate_under_model",
    ),
    "repro.ilp": (
        "RecedingHorizonSolver", "solve_ilp", "solve_relaxation",
    ),
    "repro.metrics": (
        "energy_reduction_ratio", "linear_fit", "logarithmic_fit",
        "utilization_stats",
    ),
    "repro.model": (
        "VM", "DemandPhase", "PhasedVM", "Allocation", "Cluster",
        "PlacementConstraints", "Server", "ServerSpec", "TimeInterval",
        "VMSpec", "server_type", "vm_type",
    ),
    "repro.obs": (
        "CandidateVerdict", "CostTerms", "ExplainRecorder", "FlightRecorder",
        "JsonLogger", "PlacementExplanation", "SLOConfig", "SLOTracker",
        "TelemetryRing", "TelemetrySample", "TraceContext", "Tracer",
        "format_decision_table", "get_logger", "get_tracer", "set_logger",
        "set_tracer", "to_chrome_trace", "use_logger", "use_tracer",
        "write_chrome_trace",
    ),
    "repro.results": (
        "STATUSES", "PlacementResult",
    ),
    "repro.service": (
        "SUPPORTED_VERSIONS", "AllocationClient", "AllocationDaemon",
        "ClientConfig", "ClusterStateStore", "ReplaySummary",
        "consolidate_request", "place_batch_request", "replay_trace",
        "serve_socket", "start_gateway",
    ),
    "repro.robust": (
        "RobustnessConfig", "RobustSkyline",
    ),
    "repro.simulation": (
        "SimulationEngine", "simulate_online",
    ),
    "repro.workload": (
        "BurstyWorkload", "PhasedWorkload", "DiurnalWorkload",
        "HeavyTailWorkload", "PoissonWorkload", "Trace", "generate_vms",
    ),
}

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = [
    "Allocator",
    "BestFit",
    "Decision",
    "FirstFit",
    "FirstFitPowerSaving",
    "GammaFF",
    "MinIncrementalEnergy",
    "PowerAwareFirstFit",
    "RandomFit",
    "RoundRobin",
    "WorstFit",
    "allocator_names",
    "make_allocator",
    "CostBreakdown",
    "EnergyReport",
    "SleepPolicy",
    "allocation_cost",
    "energy_report",
    "run_energy",
    "AllocationError",
    "AllocatorConfigError",
    "CapacityError",
    "OverloadedError",
    "ProtocolVersionError",
    "ReproError",
    "RetryableError",
    "ServiceError",
    "SimulationError",
    "SolverError",
    "TransportError",
    "UnknownOperationError",
    "ValidationError",
    "CandidateIndex",
    "DenseOccupancy",
    "EngineConfig",
    "Feasibility",
    "FeasibilityBatch",
    "FleetKernel",
    "SkylineOccupancy",
    "RobustnessConfig",
    "RobustSkyline",
    "ScenarioConfig",
    "compare_averaged",
    "ConsolidationReport",
    "FragmentationMonitor",
    "MigrationPlanner",
    "PlannedMove",
    "VictimSelector",
    "EpochConsolidator",
    "LongestFirstMinEnergy",
    "OfflineMinEnergy",
    "SuperlinearPowerModel",
    "evaluate_under_model",
    "RecedingHorizonSolver",
    "solve_ilp",
    "solve_relaxation",
    "concurrency_profile",
    "conflict_graph",
    "energy_lower_bound",
    "energy_reduction_ratio",
    "linear_fit",
    "logarithmic_fit",
    "utilization_stats",
    "VM",
    "DemandPhase",
    "PhasedVM",
    "Allocation",
    "Cluster",
    "PlacementConstraints",
    "Server",
    "ServerSpec",
    "TimeInterval",
    "VMSpec",
    "server_type",
    "vm_type",
    "CandidateVerdict",
    "CostTerms",
    "ExplainRecorder",
    "FlightRecorder",
    "JsonLogger",
    "PlacementExplanation",
    "SLOConfig",
    "SLOTracker",
    "TelemetryRing",
    "TelemetrySample",
    "TraceContext",
    "Tracer",
    "format_decision_table",
    "get_logger",
    "get_tracer",
    "set_logger",
    "set_tracer",
    "to_chrome_trace",
    "use_logger",
    "use_tracer",
    "write_chrome_trace",
    "AllocationClient",
    "AllocationDaemon",
    "ClientConfig",
    "ClusterStateStore",
    "PlacementResult",
    "ReplaySummary",
    "STATUSES",
    "SUPPORTED_VERSIONS",
    "consolidate_request",
    "place_batch_request",
    "serve_socket",
    "start_gateway",
    "replay_trace",
    "SimulationEngine",
    "simulate_online",
    "BurstyWorkload",
    "DiurnalWorkload",
    "HeavyTailWorkload",
    "PhasedWorkload",
    "PoissonWorkload",
    "Trace",
    "generate_vms",
    "__version__",
]
