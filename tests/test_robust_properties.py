"""Property tests: the Γ-robust engine relates to the nominal one lawfully.

Three laws, over random uncertain workloads:

* **Γ=0 is the nominal engine** — for every registered allocator, kernel
  on or off, a ``gamma=0`` config yields bit-identical placements and
  Eq.-17 energy (``==`` on floats) to no config at all;
* **robust feasibility is monotone** — growing the Γ budget can only
  turn a feasible probe infeasible, never the reverse (and box mode is
  at least as strict as any finite Γ);
* **a saturated budget is box mode** — once Γ covers every resident,
  the gamma-mode probe equals the full worst-case probe exactly.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.allocators import allocator_names, make_allocator
from repro.allocators.state import ServerState
from repro.model.cluster import Cluster
from repro.model.intervals import TimeInterval
from repro.model.server import Server, ServerSpec
from repro.model.vm import VM, VMSpec
from repro.placement import EngineConfig
from repro.robust import RobustnessConfig

from conftest import probe_route

SPEC = ServerSpec("prop", cpu_capacity=8.0, memory_capacity=10.0,
                  p_idle=90.0, p_peak=180.0, transition_time=2.0)

#: (start, length, cpu, memory, cpu_radius_frac, mem_radius_frac)
vm_entry = st.tuples(st.integers(0, 12), st.integers(1, 6),
                     st.floats(0.25, 4.0), st.floats(0.25, 5.0),
                     st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                     st.sampled_from([0.0, 0.5]))
workload = st.lists(vm_entry, min_size=1, max_size=10)


def materialize(entries, base_id=0):
    vms = []
    for i, (start, length, cpu, memory, cfrac, mfrac) in enumerate(entries):
        spec = VMSpec("u", cpu=cpu, memory=memory,
                      cpu_radius=cfrac * cpu, mem_radius=mfrac * memory)
        vms.append(VM(vm_id=base_id + i, spec=spec,
                      interval=TimeInterval(start, start + length)))
    return vms


class TestGammaZeroIsNominal:
    @pytest.mark.parametrize("algo", allocator_names())
    @pytest.mark.parametrize("kernel", [True, False])
    @settings(max_examples=8, deadline=None)
    @given(entries=workload)
    def test_placements_and_energy_identical(self, algo, kernel, entries):
        vms = materialize(entries)
        cluster = Cluster.homogeneous(SPEC, 4)
        zero_engine = EngineConfig(robustness=RobustnessConfig(gamma=0))
        with probe_route("kernel" if kernel else "scalar"):
            if algo == "gamma-ff":
                # gamma-ff injects a default Γ=1 when the engine carries
                # no config; its Γ=0 law is equality with plain first-fit.
                nominal = make_allocator("first-fit", seed=3) \
                    .allocate_batch(vms, cluster)
                zero = make_allocator(algo, seed=3, gamma=0) \
                    .allocate_batch(vms, cluster)
            else:
                nominal = make_allocator(algo, seed=3) \
                    .allocate_batch(vms, cluster)
                zero = make_allocator(algo, seed=3, engine=zero_engine) \
                    .allocate_batch(vms, cluster)
        assert [d.server_id for d in nominal] == \
            [d.server_id for d in zero]
        assert [d.energy_delta for d in nominal] == \
            [d.energy_delta for d in zero]


def probe_under(residents, probe, robustness):
    engine = EngineConfig(robustness=robustness) if robustness else \
        EngineConfig()
    state = ServerState(Server(0, SPEC), engine=engine)
    for vm in residents:
        state.place_trusted(vm)
    return state.probe(probe)


class TestMonotoneInGamma:
    @settings(max_examples=30, deadline=None)
    @given(entries=workload, probe_entry=vm_entry)
    def test_feasibility_non_increasing(self, entries, probe_entry):
        residents = materialize(entries)
        (probe,) = materialize([probe_entry], base_id=999)
        feasible = [
            probe_under(residents, probe,
                        RobustnessConfig(gamma=g) if g else None).feasible
            for g in range(0, 5)]
        feasible.append(probe_under(
            residents, probe, RobustnessConfig(mode="box")).feasible)
        # Once a budget rules the probe out, every larger budget (and
        # the box worst case, strictest of all) must rule it out too.
        for looser, stricter in zip(feasible, feasible[1:]):
            assert looser or not stricter


class TestSaturatedBudgetIsBox:
    @settings(max_examples=30, deadline=None)
    @given(entries=workload, probe_entry=vm_entry)
    def test_gamma_covering_all_residents_equals_box(self, entries,
                                                     probe_entry):
        residents = materialize(entries)
        (probe,) = materialize([probe_entry], base_id=999)
        saturated = probe_under(
            residents, probe,
            RobustnessConfig(gamma=len(residents) + 1))
        box = probe_under(residents, probe, RobustnessConfig(mode="box"))
        assert saturated.feasible == box.feasible
        assert saturated.reason == box.reason
        assert saturated.peak_cpu == box.peak_cpu
        assert saturated.peak_mem == box.peak_mem
        assert saturated.headroom_cpu == box.headroom_cpu
        assert saturated.headroom_mem == box.headroom_mem
