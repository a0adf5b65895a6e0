"""Γ-robust placement: config surface, ledger, probes, wire, replay.

The contracts pinned here:

* :class:`RobustnessConfig` validates its budget and mode and computes
  the Bertsimas–Sim ``(drop, threshold)`` accumulators exactly;
* the extended :class:`EngineConfig` spec grammar (``gamma=``/``mode=``)
  round-trips through spec strings, records and store snapshots, and
  a spec naming the removed dense engine is refused;
* :class:`RobustSkyline` agrees with a brute-force per-time-unit oracle
  over random add/subtract histories, and the vectorized kernel path is
  a bit-exact mirror of the scalar robust probe;
* VM records round-trip the radius fields while radius-free records —
  and therefore existing journals and traces — keep their exact bytes;
* the service protocol accepts radius fields only at v3, rejecting
  v1/v2 senders loudly instead of silently planning nominal;
* the realized-demand replay harness shows Γ>0 buying a strictly lower
  overload rate than the nominal plan on an uncertain workload.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.allocators import allocator_names, make_allocator
from repro.allocators.gamma_ff import GammaFF
from repro.allocators.state import ServerState
from repro.exceptions import ServiceError, ValidationError
from repro.model.cluster import Cluster
from repro.model.intervals import TimeInterval
from repro.model.phases import DemandPhase, PhasedVM
from repro.model.server import Server, ServerSpec
from repro.model.vm import VM, VMSpec
from repro.placement import EngineConfig, FleetKernel
from repro.robust import RobustnessConfig, RobustSkyline, sweep_gamma
from repro.robust.evaluate import overload_rate, realized_overload
from repro.service.protocol import (
    PROTOCOL_VERSION,
    encode,
    parse_request,
    place_batch_request,
    place_request,
)
from repro.service.state import ClusterStateStore
from repro.workload.phased import PhasedWorkload
from repro.workload.trace import vm_from_record, vm_to_record

from conftest import make_vm

SPEC = ServerSpec("box", cpu_capacity=10.0, memory_capacity=12.0,
                  p_idle=100.0, p_peak=200.0, transition_time=2.0)
_TOL = 1e-9


def make_uncertain_vm(vm_id, start, end, cpu=2.0, memory=2.0,
                      cpu_radius=0.0, mem_radius=0.0):
    return VM(vm_id=vm_id,
              spec=VMSpec("u", cpu=cpu, memory=memory,
                          cpu_radius=cpu_radius, mem_radius=mem_radius),
              interval=TimeInterval(start, end))


class TestRobustnessConfig:
    def test_defaults_inactive(self):
        config = RobustnessConfig()
        assert config.gamma == 0 and config.mode == "gamma"
        assert not config.active

    def test_active_budgets(self):
        assert RobustnessConfig(gamma=1).active
        assert RobustnessConfig(mode="box").active
        assert not RobustnessConfig(gamma=0).active

    @pytest.mark.parametrize("bad", [-1, 1.5, "2", True])
    def test_bad_gamma_rejected(self, bad):
        with pytest.raises(ValidationError):
            RobustnessConfig(gamma=bad)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValidationError):
            RobustnessConfig(mode="budget")

    def test_accumulate_gamma(self):
        radii = (5.0, 3.0, 2.0)
        # drop = sum of the Γ-1 largest, threshold = the Γ-th largest.
        assert RobustnessConfig(gamma=1).accumulate(radii) == (0.0, 5.0)
        assert RobustnessConfig(gamma=2).accumulate(radii) == (5.0, 3.0)
        assert RobustnessConfig(gamma=3).accumulate(radii) == (8.0, 2.0)
        # Fewer residents than budget: everything drops, no threshold.
        assert RobustnessConfig(gamma=4).accumulate(radii) == (10.0, 0.0)
        assert RobustnessConfig(gamma=2).accumulate(()) == (0.0, 0.0)

    def test_accumulate_box(self):
        config = RobustnessConfig(mode="box")
        assert config.accumulate((5.0, 3.0, 2.0)) == (10.0, 0.0)
        assert config.accumulate(()) == (0.0, 0.0)


class TestEngineConfigRobustness:
    def test_spec_round_trips(self):
        for spec in ("indexed:gamma=2", "indexed:gamma=1",
                     "indexed:gamma=3,mode=box"):
            config = EngineConfig.parse(spec)
            assert EngineConfig.parse(config.spec) == config

    def test_parse_builds_robustness(self):
        config = EngineConfig.parse("indexed:gamma=2")
        assert config.robustness == RobustnessConfig(gamma=2)
        assert EngineConfig.parse("indexed").robustness is None

    def test_gamma_zero_is_inactive(self):
        config = EngineConfig.parse("indexed:gamma=0")
        assert config.robustness == RobustnessConfig(gamma=0)
        assert config.active_robustness is None

    def test_dense_spec_is_refused(self):
        for spec in ("dense", "dense:gamma=1", " dense :kernel=off"):
            with pytest.raises(ValidationError,
                               match="dense engine was removed; 'indexed' "
                                     "makes the same decisions"):
                EngineConfig.parse(spec)
        with pytest.raises(TypeError):
            EngineConfig(engine="indexed")

    def test_record_round_trips(self):
        # The stored form is the spec string (snapshots, daemon config).
        config = EngineConfig(robustness=RobustnessConfig(gamma=2,
                                                          mode="box"))
        assert EngineConfig.parse(config.spec) == config
        # Legacy specs (no gamma/mode options) restore radius-free.
        legacy = EngineConfig().spec
        assert "gamma" not in legacy
        assert EngineConfig.parse(legacy).robustness is None


class TestVMSpecRadii:
    def test_radius_defaults_zero(self):
        spec = VMSpec("t", cpu=2.0, memory=3.0)
        assert spec.cpu_radius == 0.0 and spec.mem_radius == 0.0

    def test_vm_delegates_radii(self):
        vm = make_uncertain_vm(1, 0, 4, cpu_radius=0.5, mem_radius=0.25)
        assert vm.cpu_radius == 0.5 and vm.mem_radius == 0.25

    @pytest.mark.parametrize("kwargs", [
        dict(cpu_radius=-0.1), dict(mem_radius=-0.1),
        dict(cpu_radius=2.5), dict(mem_radius=3.5),
    ])
    def test_bad_radii_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            VMSpec("t", cpu=2.0, memory=3.0, **kwargs)


class TestRecordRoundTrip:
    def test_radius_fields_round_trip(self):
        vm = make_uncertain_vm(7, 2, 9, cpu=2.0, memory=3.0,
                               cpu_radius=0.5, mem_radius=0.75)
        back = vm_from_record(vm_to_record(vm))
        assert back.spec.cpu_radius == 0.5
        assert back.spec.mem_radius == 0.75
        assert back == vm

    def test_radius_zero_record_bytes_pinned(self):
        """Exact-demand records must keep the historic byte layout, so
        journals and snapshots written before the radius fields existed
        stay bit-identical on rewrite."""
        vm = make_vm(3, 1, 5, cpu=2.0, memory=4.0)
        line = encode({"record": vm_to_record(vm)})
        assert line == ('{"record":{"vm_id":3,"type":"t","cpu":2.0,'
                        '"memory":4.0,"start":1,"end":5}}\n')

    def test_phased_vm_keeps_radii(self):
        spec = VMSpec("p", cpu=4.0, memory=4.0, cpu_radius=1.0)
        vm = PhasedVM(vm_id=1, spec=spec, interval=TimeInterval(0, 3),
                      phases=(DemandPhase(2, 2.0, 4.0),
                              DemandPhase(2, 4.0, 4.0)))
        back = vm_from_record(vm_to_record(vm))
        assert isinstance(back, PhasedVM)
        assert back.spec.cpu_radius == 1.0
        assert back.phases == vm.phases


def oracle_probe(residents, probe, gamma_config, spec=SPEC):
    """Per-time-unit robust feasibility, straight from the definition."""
    from repro.model.phases import demand_at

    for t in range(probe.start, probe.end + 1):
        cpu_n = sum(demand_at(vm, t)[0] for vm in residents)
        mem_n = sum(demand_at(vm, t)[1] for vm in residents)
        rc = sorted((vm.cpu_radius for vm in residents
                     if vm.active_at(t) and vm.cpu_radius > 0.0),
                    reverse=True)
        rm = sorted((vm.mem_radius for vm in residents
                     if vm.active_at(t) and vm.mem_radius > 0.0),
                    reverse=True)
        dc, tc = gamma_config.accumulate(tuple(rc))
        dm, tm = gamma_config.accumulate(tuple(rm))
        pc, pm = demand_at(probe, t)
        if cpu_n + (dc + max(probe.cpu_radius, tc)) + pc \
                > spec.cpu_capacity + _TOL:
            return f"cpu:overlap@{t}"
        if mem_n + (dm + max(probe.mem_radius, tm)) + pm \
                > spec.memory_capacity + _TOL:
            return f"mem:overlap@{t}"
    return None


class TestRobustSkylineOracle:
    @pytest.mark.parametrize("gamma,mode", [(1, "gamma"), (2, "gamma"),
                                            (3, "gamma"), (0, "box")])
    def test_random_histories_match_oracle(self, gamma, mode):
        config = RobustnessConfig(gamma=gamma, mode=mode)
        rng = np.random.default_rng(gamma * 17 + (mode == "box"))
        for _ in range(30):
            engine = EngineConfig(robustness=config)
            state = ServerState(Server(0, SPEC), engine=engine)
            residents = []
            for vm_id in range(int(rng.integers(0, 7))):
                start = int(rng.integers(0, 15))
                cpu = float(rng.uniform(0.5, 3.0))
                memory = float(rng.uniform(0.5, 3.0))
                vm = make_uncertain_vm(
                    vm_id, start, start + int(rng.integers(1, 8)),
                    cpu=cpu, memory=memory,
                    cpu_radius=cpu * float(rng.choice([0.0, 0.25, 0.6])),
                    mem_radius=memory * float(rng.choice([0.0, 0.5])))
                if state.probe(vm).feasible:
                    state.place_trusted(vm)
                    residents.append(vm)
            # Remove a random resident: radii must unwind symmetrically.
            if residents and rng.random() < 0.5:
                victim = residents.pop(int(rng.integers(len(residents))))
                state.remove(victim)
            start = int(rng.integers(0, 18))
            cpu = float(rng.uniform(0.5, 4.0))
            memory = float(rng.uniform(0.5, 4.0))
            probe = make_uncertain_vm(
                999, start, start + int(rng.integers(1, 6)),
                cpu=cpu, memory=memory,
                cpu_radius=cpu * float(rng.choice([0.0, 0.3, 0.9])),
                mem_radius=memory * float(rng.choice([0.0, 0.5])))
            result = state.probe(probe)
            expected = oracle_probe(residents, probe, config)
            if probe.cpu + probe.cpu_radius > SPEC.cpu_capacity:
                expected = "cpu:capacity"
            elif probe.memory + probe.mem_radius > SPEC.memory_capacity:
                expected = "mem:capacity"
            assert result.reason == expected
            assert result.feasible == (expected is None)

    def test_static_check_includes_own_radius(self):
        state = ServerState(
            Server(0, SPEC),
            engine=EngineConfig(robustness=RobustnessConfig(gamma=1)))
        # Nominal fits, nominal + own radius cannot ever fit.
        probe = make_uncertain_vm(1, 0, 3, cpu=8.0, cpu_radius=3.0)
        result = state.probe(probe)
        assert not result.feasible and result.reason == "cpu:capacity"

    def test_subtract_unknown_radius_raises(self):
        skyline = RobustSkyline(RobustnessConfig(gamma=1))
        skyline.add_radius(0, 4, 1.0, 0.0)
        with pytest.raises(ValueError):
            skyline.subtract_radius(0, 4, 2.0, 0.0)


class TestKernelRobustParity:
    def _fleet(self, gamma, rng):
        engine = EngineConfig(robustness=RobustnessConfig(gamma=gamma))
        states = []
        for i in range(5):
            state = ServerState(Server(i, SPEC), engine=engine)
            for vm_id in range(int(rng.integers(0, 6))):
                start = int(rng.integers(0, 12))
                cpu = float(rng.uniform(0.5, 2.5))
                memory = float(rng.uniform(0.5, 2.5))
                vm = make_uncertain_vm(
                    100 * i + vm_id, start, start + int(rng.integers(1, 7)),
                    cpu=cpu, memory=memory,
                    cpu_radius=cpu * float(rng.choice([0.0, 0.25, 0.7])),
                    mem_radius=memory * float(rng.choice([0.0, 0.4])))
                if state.probe(vm).feasible:
                    state.place_trusted(vm)
            states.append(state)
        return states

    @pytest.mark.parametrize("gamma", [1, 2, 4])
    def test_probe_fleet_matches_scalar(self, gamma):
        rng = np.random.default_rng(gamma)
        states = self._fleet(gamma, rng)
        kernel = FleetKernel(states)
        for trial in range(20):
            start = int(rng.integers(0, 15))
            cpu = float(rng.uniform(0.5, 4.0))
            memory = float(rng.uniform(0.5, 4.0))
            probe = make_uncertain_vm(
                9000 + trial, start, start + int(rng.integers(1, 6)),
                cpu=cpu, memory=memory,
                cpu_radius=cpu * float(rng.choice([0.0, 0.3, 0.8])),
                mem_radius=memory * float(rng.choice([0.0, 0.5])))
            batch = kernel.probe_fleet(probe)
            for i, state in enumerate(states):
                scalar = state.probe(probe)
                view = batch[i]
                assert view.feasible == scalar.feasible, (gamma, trial, i)
                assert view.reason == scalar.reason, (gamma, trial, i)
                assert view.peak_cpu == scalar.peak_cpu
                assert view.peak_mem == scalar.peak_mem
                assert view.headroom_cpu == scalar.headroom_cpu
                assert view.headroom_mem == scalar.headroom_mem

    def test_phased_probe_matches_scalar(self):
        rng = np.random.default_rng(11)
        states = self._fleet(2, rng)
        kernel = FleetKernel(states)
        spec = VMSpec("p", cpu=3.0, memory=3.0, cpu_radius=1.0,
                      mem_radius=0.5)
        probe = PhasedVM(vm_id=7777, spec=spec,
                         interval=TimeInterval(2, 7),
                         phases=(DemandPhase(3, 1.5, 3.0),
                                 DemandPhase(3, 3.0, 3.0)))
        batch = kernel.probe_fleet(probe)
        for i, state in enumerate(states):
            scalar = state.probe(probe)
            assert batch[i].feasible == scalar.feasible, i
            assert batch[i].reason == scalar.reason, i
            assert batch[i].peak_cpu == scalar.peak_cpu


class TestGammaFF:
    def test_registered(self):
        assert "gamma-ff" in allocator_names()

    def test_ctor_knobs_build_robustness(self):
        allocator = make_allocator("gamma-ff", gamma=2)
        assert allocator.engine_config.robustness == \
            RobustnessConfig(gamma=2)
        assert allocator.gamma == 2

    def test_engine_spec_wins_over_knobs(self):
        allocator = GammaFF(gamma=2,
                            engine=EngineConfig.parse("indexed:gamma=5"))
        assert allocator.gamma == 5

    def test_box_mode(self):
        allocator = make_allocator("gamma-ff", gamma=0, mode="box")
        assert allocator.engine_config.robustness.mode == "box"

    def test_robust_plan_reserves_margin(self):
        vms = [make_uncertain_vm(i, 0, 9, cpu=3.0, memory=1.0,
                                 cpu_radius=1.5) for i in range(6)]
        cluster = Cluster.homogeneous(SPEC, 6)
        nominal = make_allocator("first-fit").allocate_batch(vms, cluster)
        robust = make_allocator("gamma-ff", gamma=2).allocate_batch(
            vms, cluster)
        servers_used = lambda ds: len(
            {d.server_id for d in ds if d.placed})
        # 10-cap server: nominal packs 3 VMs of cpu 3; with Γ=2 each
        # pair's two 1.5-radii must also fit, so packs are looser.
        assert servers_used(robust) > servers_used(nominal)


class TestProtocolRadii:
    def _line(self, vm, version=None):
        request = place_request(vm)
        if version is not None:
            request["v"] = version
        elif "v" in request:
            del request["v"]
        return json.dumps(request)

    def test_place_request_stamps_v3_for_radii(self):
        plain = place_request(make_vm(1, 0, 3))
        assert "v" not in plain
        uncertain = place_request(
            make_uncertain_vm(1, 0, 3, cpu_radius=0.5))
        assert uncertain["v"] == PROTOCOL_VERSION

    def test_v3_accepts_radii(self):
        vm = make_uncertain_vm(1, 0, 3, cpu_radius=0.5, mem_radius=0.25)
        message = parse_request(self._line(vm, version=3))
        assert message["_vm"].spec.cpu_radius == 0.5

    @pytest.mark.parametrize("version", [None, 2])
    def test_pre_v3_rejects_radii(self, version):
        vm = make_uncertain_vm(1, 0, 3, cpu_radius=0.5)
        with pytest.raises(ServiceError, match="version 3"):
            parse_request(self._line(vm, version=version))

    def test_pre_v3_plain_vm_still_accepted(self):
        message = parse_request(self._line(make_vm(1, 0, 3)))
        assert message["_vm"].vm_id == 1

    def test_batch_rejects_radii_below_v3(self):
        vms = [make_vm(1, 0, 3),
               make_uncertain_vm(2, 0, 3, mem_radius=0.5)]
        request = place_batch_request(vms)
        request["v"] = 2
        with pytest.raises(ServiceError, match=r"vms\[1\].*version 3"):
            parse_request(json.dumps(request))
        assert parse_request(json.dumps(place_batch_request(vms)))


class TestSnapshotRoundTrip:
    def test_gamma_engine_and_radii_survive_snapshot(self):
        store = ClusterStateStore(Cluster.homogeneous(SPEC, 3),
                                  engine="indexed:gamma=1")
        vms = [make_uncertain_vm(i, 0, 5, cpu=3.0, cpu_radius=1.0)
               for i in range(4)]
        for vm in vms:
            sid = next(i for i, s in enumerate(store.states)
                       if s.probe(vm).feasible)
            store.commit(vm, sid)
        document = store.to_snapshot()
        assert document["engine"] == "indexed:gamma=1"
        restored = ClusterStateStore.from_snapshot(
            json.loads(json.dumps(document)))
        assert restored.engine_config == store.engine_config
        assert restored.placements == store.placements
        assert restored.energy_accumulated == store.energy_accumulated
        # The restored planning state enforces the same robust margin.
        probe = make_uncertain_vm(99, 0, 5, cpu=3.0, cpu_radius=1.0)
        for state, restored_state in zip(store.states, restored.states):
            assert state.probe(probe).reason == \
                restored_state.probe(probe).reason


class TestPhasedWorkloadUncertainty:
    def test_zero_uncertainty_bit_identical(self):
        base = PhasedWorkload(mean_interarrival=1.0)
        tagged = PhasedWorkload(mean_interarrival=1.0, uncertainty=0.0)
        assert base.generate(40, rng=5) == tagged.generate(40, rng=5)

    def test_uncertainty_scales_radii(self):
        workload = PhasedWorkload(mean_interarrival=1.0, uncertainty=0.25)
        for vm in workload.generate(30, rng=5):
            assert vm.cpu_radius == 0.25 * vm.spec.cpu
            assert vm.mem_radius == 0.25 * vm.spec.memory

    def test_bad_uncertainty_rejected(self):
        with pytest.raises(ValidationError):
            PhasedWorkload(mean_interarrival=1.0, uncertainty=1.5)


class TestEvaluateHarness:
    def _workload(self):
        workload = PhasedWorkload(mean_interarrival=0.5,
                                  mean_duration=8.0, uncertainty=0.3)
        return workload.generate(120, rng=7), Cluster.paper_all_types(25)

    def test_overload_rate_deterministic(self):
        vms, cluster = self._workload()
        decisions = make_allocator("first-fit").allocate_batch(vms, cluster)
        first = overload_rate(decisions, cluster, draws=5, seed=3)
        assert first == overload_rate(decisions, cluster, draws=5, seed=3)

    def test_realized_overload_counts_units(self):
        vms, cluster = self._workload()
        decisions = make_allocator("first-fit").allocate_batch(vms, cluster)
        over, busy = realized_overload(decisions, cluster,
                                       np.random.default_rng(0))
        assert busy > 0 and 0 <= over <= busy

    def test_gamma_reduces_overload(self):
        """The headline claim: at the same workload, a Γ>0 plan overloads
        strictly less often than the nominal plan."""
        vms, cluster = self._workload()
        sweep = sweep_gamma(vms, cluster, gammas=(0, 2), draws=10, seed=3)
        nominal, robust = sweep.points
        assert nominal.gamma == 0 and robust.gamma == 2
        assert nominal.overload_rate > 0
        assert robust.overload_rate < nominal.overload_rate

    def test_box_anchors_the_frontier(self):
        vms, cluster = self._workload()
        sweep = sweep_gamma(vms, cluster, gammas=(), include_box=True,
                            draws=5, seed=3)
        (box,) = sweep.points
        assert box.mode == "box" and box.label == "box"
        assert box.overload_rate == 0.0

    def test_format_renders_table(self):
        vms, cluster = self._workload()
        sweep = sweep_gamma(vms, cluster, gammas=(0,), draws=2, seed=1)
        text = sweep.format()
        assert "budget" in text and "Γ=0" in text

    def test_empty_budget_rejected(self):
        vms, cluster = self._workload()
        with pytest.raises(ValidationError):
            sweep_gamma(vms, cluster, gammas=(), include_box=False)
