"""Tests for the top-level public API surface."""

from __future__ import annotations

import importlib.util

import pytest

import repro

#: The pinned top-level surface. Adding a name is a deliberate API
#: decision — update this list in the same change; removing one is a
#: breaking change.
EXPECTED_ALL = [
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
    "replay_trace",
    "serve_socket",
    "start_gateway",
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


class TestExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    def test_all_is_pinned(self):
        """The exact export surface, so additions and removals are
        deliberate (reviewed here) rather than accidental."""
        assert sorted(repro.__all__) == sorted(EXPECTED_ALL)
        assert len(set(repro.__all__)) == len(repro.__all__)

    def test_service_batch_surface_pinned(self):
        import repro.service as service

        for name in ("place_batch_request", "SUPPORTED_VERSIONS",
                     "negotiate_version", "parse_batch_records",
                     "PROTOCOL_VERSION"):
            assert name in service.__all__, name
            assert hasattr(service, name), name
        assert service.PROTOCOL_VERSION in service.SUPPORTED_VERSIONS

    def test_service_fault_surface_pinned(self):
        import repro.service as service

        for name in ("AllocationClient", "ClientConfig", "FaultEvent",
                     "FaultInjector", "FailureReport", "Replacement",
                     "fail_server_request", "recover_server_request"):
            assert name in service.__all__, name
            assert hasattr(service, name), name
        assert not hasattr(service, "DaemonClient")
        for op in ("fail_server", "recover_server"):
            assert op in service.OPS

    def test_service_v3_surface_pinned(self):
        import repro.service as service

        for name in ("ThreadingDaemonServer", "serve_socket", "GatewayServer",
                     "start_gateway", "encode_frame", "read_frame",
                     "write_frame", "FRAME_MAGIC", "CODES",
                     "envelope",
                     "error_fields", "http_status_of", "validate_request"):
            assert name in service.__all__, name
            assert hasattr(service, name), name
        # One socket front, one HTTP front: the blocking TCP server
        # and the private metrics server are gone.
        # ... and one reader of recorded mutations,
        # ClusterStateStore.apply: the journal-replay module is gone.
        for name in ("serve_tcp", "DaemonTCPServer",
                     "start_metrics_server", "apply_entry",
                     "AppliedEntry"):
            assert name not in service.__all__, name
            assert not hasattr(service, name), name
        assert 3 in service.SUPPORTED_VERSIONS
        assert service.PROTOCOL_VERSION == 3

    def test_the_socket_front_s_old_names_are_gone(self):
        # the asyncio-era names, kept one release as aliases
        import repro.service as service
        from repro.service import tcp

        for module in (service, tcp):
            for name in ("AsyncDaemonServer", "serve_async"):
                assert name not in module.__all__, name
                assert not hasattr(module, name), name
        assert not hasattr(repro, "serve_async")
        assert importlib.util.find_spec("repro.service.aio") is None

    def test_the_dense_engine_s_names_are_gone(self):
        import repro.placement as placement
        from repro.allocators.state import ServerState
        from repro.placement import occupancy

        for module in (repro, placement, occupancy):
            for name in ("DenseOccupancy", "ENGINES", "DEFAULT_ENGINE"):
                assert name not in getattr(module, "__all__", ()), name
                assert not hasattr(module, name), name
        allocator = repro.make_allocator("first-fit")
        store = repro.ClusterStateStore(repro.Cluster.paper_all_types(2))
        for holder in (allocator, store, ServerState(store.cluster[0])):
            assert not hasattr(holder, "engine"), holder
        with pytest.raises(TypeError):
            repro.EngineConfig(engine="indexed")

    def test_service_consolidation_surface_pinned(self):
        import repro.service as service
        from repro.service import FaultEvent

        for name in ("ConsolidationReport", "consolidate_request"):
            assert name in service.__all__, name
            assert hasattr(service, name), name
        assert "consolidate" in service.OPS
        # The chaos vocabulary covers forced episodes too.
        FaultEvent(after=0, kind="consolidate")

    def test_results_vocabulary_pinned(self):
        from repro import results

        assert results.STATUSES == ("placed", "rejected", "deferred",
                                    "replaced")
        for name in ("PlacementResult", "Decision", "AdmissionDecision"):
            assert name in results.__all__, name
            assert hasattr(results, name), name

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_key_classes_exposed(self):
        for name in ("MinIncrementalEnergy", "FirstFitPowerSaving",
                     "Cluster", "VM", "Allocation", "SimulationEngine",
                     "Trace", "ScenarioConfig", "AllocationDaemon",
                     "ClusterStateStore", "AllocationClient"):
            assert name in repro.__all__

    def test_key_functions_exposed(self):
        for name in ("generate_vms", "allocation_cost", "energy_report",
                     "solve_ilp", "solve_relaxation",
                     "energy_reduction_ratio", "utilization_stats",
                     "compare_averaged", "make_allocator"):
            assert name in repro.__all__

    def test_subpackages_importable(self):
        for module in ("repro.model", "repro.energy", "repro.allocators",
                       "repro.ilp", "repro.simulation", "repro.workload",
                       "repro.metrics", "repro.experiments", "repro.cli",
                       "repro.service", "repro.consolidation"):
            importlib.import_module(module)


class TestDocstrings:
    def test_package_docstring_names_the_paper(self):
        assert "ICDCS" in repro.__doc__

    @pytest.mark.parametrize("module_name", [
        "repro.model.intervals", "repro.model.vm", "repro.model.server",
        "repro.model.catalog", "repro.model.cluster",
        "repro.model.allocation", "repro.energy.power",
        "repro.energy.segments", "repro.energy.cost",
        "repro.energy.accounting", "repro.allocators.base",
        "repro.allocators.state", "repro.allocators.min_energy",
        "repro.allocators.ffps", "repro.ilp.formulation",
        "repro.ilp.solver", "repro.ilp.relaxation",
        "repro.simulation.engine", "repro.simulation.events",
        "repro.simulation.power_state", "repro.simulation.telemetry",
        "repro.workload.generator", "repro.workload.patterns",
        "repro.workload.trace", "repro.metrics.fitting",
        "repro.metrics.reduction", "repro.metrics.summary",
        "repro.metrics.utilization", "repro.experiments.config",
        "repro.experiments.runner", "repro.experiments.figures",
        "repro.experiments.tables", "repro.cli",
        "repro.model.phases", "repro.model.constraints",
        "repro.energy.pricing", "repro.energy.timeout",
        "repro.simulation.failures", "repro.simulation.admission",
        "repro.workload.phased", "repro.workload.transforms",
        "repro.workload.characterize",
        "repro.metrics.significance", "repro.metrics.latency",
        "repro.analysis.conflicts", "repro.analysis.bounds",
        "repro.analysis.sizing", "repro.analysis.diagnostics",
        "repro.ilp.receding",
        "repro.experiments.sensitivity", "repro.experiments.export",
        "repro.experiments.report", "repro.experiments.scaling",
        "repro.extensions.consolidation",
        "repro.extensions.cost_terms", "repro.extensions.power_curve",
        "repro.extensions.warmpool",
        "repro.service.protocol", "repro.service.state",
        "repro.service.persistence", "repro.service.metrics",
        "repro.service.daemon", "repro.service.client",
        "repro.service.faults", "repro.simulation.recovery",
        "repro.consolidation.fragmentation",
        "repro.consolidation.victim", "repro.consolidation.planner",
        "repro.results",
        "repro.allocators.batch", "repro.allocators.offline",
    ])
    def test_every_module_documented(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__ and len(module.__doc__.strip()) > 20

    def test_public_classes_documented(self):
        for name in repro.__all__:
            obj = getattr(repro, name)
            if isinstance(obj, type):
                assert obj.__doc__, f"{name} lacks a docstring"
