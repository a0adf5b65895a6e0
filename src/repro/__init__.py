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

# This block is the export declaration: repro._lazy reads it at import.
if TYPE_CHECKING:
    from repro.allocators import (
        Allocator as Allocator,
        BestFit as BestFit,
        Decision as Decision,
        FirstFit as FirstFit,
        FirstFitPowerSaving as FirstFitPowerSaving,
        GammaFF as GammaFF,
        MinIncrementalEnergy as MinIncrementalEnergy,
        PowerAwareFirstFit as PowerAwareFirstFit,
        RandomFit as RandomFit,
        RoundRobin as RoundRobin,
        WorstFit as WorstFit,
        allocator_names as allocator_names,
        make_allocator as make_allocator,
    )
    from repro.energy import (
        CostBreakdown as CostBreakdown,
        EnergyReport as EnergyReport,
        SleepPolicy as SleepPolicy,
        allocation_cost as allocation_cost,
        energy_report as energy_report,
        run_energy as run_energy,
    )
    from repro.exceptions import (
        AllocationError as AllocationError,
        AllocatorConfigError as AllocatorConfigError,
        CapacityError as CapacityError,
        OverloadedError as OverloadedError,
        ProtocolVersionError as ProtocolVersionError,
        ReproError as ReproError,
        RetryableError as RetryableError,
        ServiceError as ServiceError,
        SimulationError as SimulationError,
        SolverError as SolverError,
        TransportError as TransportError,
        UnknownOperationError as UnknownOperationError,
        ValidationError as ValidationError,
    )
    from repro.placement import (
        CandidateIndex as CandidateIndex,
        EngineConfig as EngineConfig,
        Feasibility as Feasibility,
        FeasibilityBatch as FeasibilityBatch,
        FleetKernel as FleetKernel,
        SkylineOccupancy as SkylineOccupancy,
    )
    from repro.analysis import (
        concurrency_profile as concurrency_profile,
        conflict_graph as conflict_graph,
        energy_lower_bound as energy_lower_bound,
    )
    from repro.consolidation import (
        ConsolidationReport as ConsolidationReport,
        FragmentationMonitor as FragmentationMonitor,
        MigrationPlanner as MigrationPlanner,
        PlannedMove as PlannedMove,
        VictimSelector as VictimSelector,
    )
    from repro.experiments import (
        ScenarioConfig as ScenarioConfig,
        compare_averaged as compare_averaged,
    )
    from repro.extensions import (
        EpochConsolidator as EpochConsolidator,
        LongestFirstMinEnergy as LongestFirstMinEnergy,
        OfflineMinEnergy as OfflineMinEnergy,
        SuperlinearPowerModel as SuperlinearPowerModel,
        evaluate_under_model as evaluate_under_model,
    )
    from repro.ilp import (
        RecedingHorizonSolver as RecedingHorizonSolver,
        solve_ilp as solve_ilp,
        solve_relaxation as solve_relaxation,
    )
    from repro.metrics import (
        energy_reduction_ratio as energy_reduction_ratio,
        linear_fit as linear_fit,
        logarithmic_fit as logarithmic_fit,
        utilization_stats as utilization_stats,
    )
    from repro.model import (
        VM as VM,
        DemandPhase as DemandPhase,
        PhasedVM as PhasedVM,
        Allocation as Allocation,
        Cluster as Cluster,
        PlacementConstraints as PlacementConstraints,
        Server as Server,
        ServerSpec as ServerSpec,
        TimeInterval as TimeInterval,
        VMSpec as VMSpec,
        server_type as server_type,
        vm_type as vm_type,
    )
    from repro.obs import (
        CandidateVerdict as CandidateVerdict,
        CostTerms as CostTerms,
        ExplainRecorder as ExplainRecorder,
        FlightRecorder as FlightRecorder,
        JsonLogger as JsonLogger,
        PlacementExplanation as PlacementExplanation,
        SLOConfig as SLOConfig,
        SLOTracker as SLOTracker,
        TelemetryRing as TelemetryRing,
        TelemetrySample as TelemetrySample,
        TraceContext as TraceContext,
        Tracer as Tracer,
        format_decision_table as format_decision_table,
        get_logger as get_logger,
        get_tracer as get_tracer,
        set_logger as set_logger,
        set_tracer as set_tracer,
        to_chrome_trace as to_chrome_trace,
        use_logger as use_logger,
        use_tracer as use_tracer,
        write_chrome_trace as write_chrome_trace,
    )
    from repro.results import (
        STATUSES as STATUSES,
        PlacementResult as PlacementResult,
    )
    from repro.service import (
        SUPPORTED_VERSIONS as SUPPORTED_VERSIONS,
        AllocationClient as AllocationClient,
        AllocationDaemon as AllocationDaemon,
        ClientConfig as ClientConfig,
        ClusterStateStore as ClusterStateStore,
        ReplaySummary as ReplaySummary,
        consolidate_request as consolidate_request,
        place_batch_request as place_batch_request,
        replay_trace as replay_trace,
        serve_socket as serve_socket,
        start_gateway as start_gateway,
    )
    from repro.robust import (
        RobustnessConfig as RobustnessConfig,
        RobustSkyline as RobustSkyline,
    )
    from repro.simulation import (
        SimulationEngine as SimulationEngine,
        simulate_online as simulate_online,
    )
    from repro.workload import (
        BurstyWorkload as BurstyWorkload,
        PhasedWorkload as PhasedWorkload,
        DiurnalWorkload as DiurnalWorkload,
        HeavyTailWorkload as HeavyTailWorkload,
        PoissonWorkload as PoissonWorkload,
        Trace as Trace,
        generate_vms as generate_vms,
    )

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(globals())
__all__.append("__version__")
