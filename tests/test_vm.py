"""Tests for VM specs and request instances."""

from __future__ import annotations

import copy
import pickle
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import ValidationError
from repro.model.intervals import TimeInterval
from repro.model.phases import DemandPhase, PhasedVM
from repro.model.server import ServerSpec
from repro.model.vm import VM, VMSpec


class TestVMSpec:
    def test_valid_spec(self):
        spec = VMSpec("m1.small", cpu=1.0, memory=1.7)
        assert spec.cpu == 1.0
        assert spec.memory == 1.7

    @pytest.mark.parametrize("cpu", [0.0, -1.0])
    def test_rejects_nonpositive_cpu(self, cpu):
        with pytest.raises(ValidationError):
            VMSpec("bad", cpu=cpu, memory=1.0)

    @pytest.mark.parametrize("memory", [0.0, -0.5])
    def test_rejects_nonpositive_memory(self, memory):
        with pytest.raises(ValidationError):
            VMSpec("bad", cpu=1.0, memory=memory)

    def test_immutable(self):
        spec = VMSpec("x", cpu=1.0, memory=1.0)
        with pytest.raises(AttributeError):
            spec.cpu = 2.0  # type: ignore[misc]

    def test_str_mentions_resources(self):
        assert "2.0cu" in str(VMSpec("x", cpu=2.0, memory=4.0))


class TestVM:
    def test_accessors(self):
        vm = VM(3, VMSpec("t", cpu=2.0, memory=4.0), TimeInterval(5, 9))
        assert vm.start == 5
        assert vm.end == 9
        assert vm.duration == 5
        assert vm.cpu == 2.0
        assert vm.memory == 4.0

    def test_cpu_time_is_demand_times_duration(self):
        vm = VM(0, VMSpec("t", cpu=3.0, memory=1.0), TimeInterval(1, 4))
        assert vm.cpu_time == 12.0

    def test_active_at(self):
        vm = VM(0, VMSpec("t", cpu=1.0, memory=1.0), TimeInterval(2, 4))
        assert vm.active_at(2)
        assert vm.active_at(4)
        assert not vm.active_at(1)
        assert not vm.active_at(5)

    def test_rejects_negative_id(self):
        with pytest.raises(ValidationError):
            VM(-1, VMSpec("t", cpu=1.0, memory=1.0), TimeInterval(1, 2))

    def test_single_unit_vm(self):
        vm = VM(0, VMSpec("t", cpu=1.0, memory=1.0), TimeInterval(7, 7))
        assert vm.duration == 1
        assert vm.cpu_time == 1.0

    def test_str_contains_id_and_type(self):
        vm = VM(12, VMSpec("m1", cpu=1.0, memory=1.0), TimeInterval(1, 2))
        assert "vm12" in str(vm)
        assert "m1" in str(vm)


# -- stored values: each derived name is a slot set once, bit-equal to
# its formula, and rebuilt by every way a value is copied ---------------

_DEMAND = st.floats(0.01, 64.0, allow_nan=False, allow_infinity=False)
_FRACTION = st.floats(0.0, 1.0, allow_nan=False)


@st.composite
def _specs(draw):
    cpu, memory = draw(_DEMAND), draw(_DEMAND)
    return VMSpec(draw(st.sampled_from(["a", "b"])), cpu=cpu, memory=memory,
                  cpu_radius=draw(_FRACTION) * cpu,
                  mem_radius=draw(_FRACTION) * memory)


_INTERVALS = st.builds(lambda start, length: TimeInterval(
    start, start + length - 1), st.integers(0, 500), st.integers(1, 40))
_PLAIN = st.builds(VM, st.integers(0, 10_000), _specs(), _INTERVALS)
_PHASES = st.lists(st.builds(DemandPhase, st.integers(1, 6), _DEMAND,
                             _DEMAND), min_size=1, max_size=4)
_PHASED = st.builds(PhasedVM.from_phases, st.integers(0, 10_000),
                    st.integers(0, 500), _PHASES)
_VMS = st.one_of(_PLAIN, _PHASED)
_SERVERS = st.builds(
    lambda cap, mem, idle, extra, tt: ServerSpec(
        "s", cpu_capacity=cap, memory_capacity=mem, p_idle=idle,
        p_peak=idle + extra, transition_time=tt),
    st.floats(0.5, 512.0), st.floats(0.5, 1024.0), st.floats(0.0, 500.0),
    st.floats(0.0, 500.0), st.floats(0.0, 10.0))


def _same(stored, formula) -> bool:
    if isinstance(formula, float):
        return isinstance(stored, float) and stored.hex() == formula.hex()
    return type(stored) is type(formula) and stored == formula


def _vm_formulas(vm: VM) -> dict:
    interval, spec = vm.interval, vm.spec
    duration = interval.end - interval.start + 1
    values = {"start": interval.start, "end": interval.end,
              "duration": duration, "cpu": spec.cpu,
              "memory": spec.memory, "cpu_radius": spec.cpu_radius,
              "mem_radius": spec.mem_radius,
              "cpu_time": spec.cpu * duration}
    if isinstance(vm, PhasedVM):
        values["cpu_time"] = sum(
            phase.cpu * phase.duration for phase in vm.phases)
        pieces, t = [], interval.start
        for phase in vm.phases:
            pieces.append((TimeInterval(t, t + phase.duration - 1),
                           phase.cpu, phase.memory))
            t += phase.duration
        values["pieces"] = tuple(pieces)
    return values


def _assert_stored(value) -> None:
    if isinstance(value, ServerSpec):
        formulas = {
            "transition_cost": value.p_peak * value.transition_time,
            "power_per_cpu_unit":
                (value.p_peak - value.p_idle) / value.cpu_capacity}
    elif isinstance(value, TimeInterval):
        formulas = {"length": value.end - value.start + 1}
    else:
        formulas = _vm_formulas(value)
    for name, formula in formulas.items():
        assert _same(getattr(value, name), formula), name
    assert not hasattr(value, "__dict__")


def _round_trips(value):
    yield copy.copy(value)
    yield copy.deepcopy(value)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        yield pickle.loads(pickle.dumps(value, protocol))


class TestStoredValues:
    @settings(max_examples=60, deadline=None)
    @given(st.one_of(_VMS, _INTERVALS, _SERVERS))
    def test_stored_values_are_their_formulas(self, value):
        _assert_stored(value)
        for twin in _round_trips(value):
            assert type(twin) is type(value) and twin == value
            _assert_stored(twin)

    @settings(max_examples=40, deadline=None)
    @given(_PLAIN, _specs(), _INTERVALS, _SERVERS, st.floats(0.0, 10.0))
    def test_copies_recompute_their_values(self, vm, spec, interval, server,
                                           transition_time):
        for twin in (replace(vm, spec=spec), replace(vm, interval=interval),
                     replace(vm, vm_id=vm.vm_id + 1)):
            _assert_stored(twin)
        _assert_stored(replace(interval, end=interval.end + 3))
        _assert_stored(server.with_transition_time(transition_time))
        _assert_stored(replace(server, p_peak=server.p_peak + 1.0,
                               cpu_capacity=server.cpu_capacity / 3))

    def test_derived_values_are_not_arguments(self):
        vm = VM(0, VMSpec("t", cpu=1.0, memory=1.0), TimeInterval(1, 2))
        with pytest.raises(ValueError):
            replace(vm, cpu_time=5.0)
        with pytest.raises(TypeError):
            TimeInterval(1, 2, 9)  # type: ignore[call-arg]
        with pytest.raises(AttributeError):
            vm.cpu = 2.0  # type: ignore[misc]

    @settings(max_examples=60, deadline=None)
    @given(_VMS, _INTERVALS)
    def test_a_vm_hashes_by_its_id(self, vm, interval):
        assert hash(vm) == hash(vm.vm_id)
        # the interval is no part of a VM's identity
        if isinstance(vm, PhasedVM):
            twin = PhasedVM.from_phases(vm.vm_id, interval.start, vm.phases,
                                        name=vm.spec.name)
        else:
            twin = replace(vm, interval=interval)
        assert twin == vm and hash(twin) == hash(vm)
        assert {vm: 1}[twin] == 1
        other = replace(vm.spec, name=vm.spec.name + "'")
        assert VM(vm.vm_id, other, vm.interval) != vm

    def test_a_phased_vm_is_never_a_plain_one(self):
        phased = PhasedVM.from_phases(4, 1, [DemandPhase(2, 1.0, 1.0)],
                                      name="t")
        plain = VM(4, phased.spec, phased.interval)
        assert phased != plain and plain != phased
        assert hash(phased) == hash(plain) == hash(4)
