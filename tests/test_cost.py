"""Tests for the Eq. 15-17 cost computation and sleep policies."""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

import repro
from repro.energy import accounting, cost
from repro.energy.cost import (
    CostBreakdown,
    SleepPolicy,
    allocation_cost,
    gap_cost,
    server_cost,
    sleeps_through,
)
from repro.model.allocation import Allocation
from repro.model.cluster import Cluster
from repro.model.intervals import TimeInterval
from repro.model.server import ServerSpec

from conftest import make_vm

# 10 cu, P_idle 50, P_peak 100, alpha = 100 (transition 1 unit).
SPEC = ServerSpec("s", cpu_capacity=10.0, memory_capacity=10.0,
                  p_idle=50.0, p_peak=100.0, transition_time=1.0)


class TestSleepDecision:
    def test_sleeps_when_alpha_cheaper(self):
        # gap of 3 units: idle cost 150 > alpha 100 -> sleep
        assert sleeps_through(SPEC, TimeInterval(1, 3))

    def test_stays_active_for_short_gap(self):
        # gap of 2 units: idle cost 100 == alpha 100 -> not strictly
        # cheaper, stay active
        assert not sleeps_through(SPEC, TimeInterval(1, 2))

    def test_never_sleep_policy(self):
        assert not sleeps_through(SPEC, TimeInterval(1, 50),
                                  SleepPolicy.NEVER_SLEEP)

    def test_always_sleep_policy(self):
        assert sleeps_through(SPEC, TimeInterval(1, 1),
                              SleepPolicy.ALWAYS_SLEEP)

    def test_gap_cost_is_min(self):
        assert gap_cost(SPEC, TimeInterval(1, 3)) == 100.0   # alpha
        assert gap_cost(SPEC, TimeInterval(1, 1)) == 50.0    # idle

    def test_gap_cost_never_sleep(self):
        assert gap_cost(SPEC, TimeInterval(1, 10),
                        SleepPolicy.NEVER_SLEEP) == 500.0

    def test_gap_cost_always_sleep(self):
        assert gap_cost(SPEC, TimeInterval(1, 1),
                        SleepPolicy.ALWAYS_SLEEP) == 100.0


class TestCostBreakdown:
    def test_total_sums_components(self):
        bd = CostBreakdown(run=1.0, busy_idle=2.0, gaps=3.0,
                           initial_wake=4.0)
        assert bd.total == 10.0

    def test_addition(self):
        a = CostBreakdown(1.0, 2.0, 3.0, 4.0)
        b = CostBreakdown(10.0, 20.0, 30.0, 40.0)
        assert (a + b).total == 110.0


class TestServerCost:
    def test_empty_server_costs_nothing(self):
        assert server_cost(SPEC, []).total == 0.0

    def test_single_vm_components(self):
        # VM: 2 cu for 4 units. run = 5*2*4 = 40; busy idle = 50*4 = 200;
        # no gaps; initial wake = alpha = 100.
        cost = server_cost(SPEC, [make_vm(0, 1, 4, cpu=2.0)])
        assert cost.run == 40.0
        assert cost.busy_idle == 200.0
        assert cost.gaps == 0.0
        assert cost.initial_wake == 100.0
        assert cost.total == 340.0

    def test_gap_cost_included(self):
        # Two 1-unit VMs separated by a 3-unit gap (sleep: alpha=100).
        vms = [make_vm(0, 1, 1, cpu=1.0), make_vm(1, 5, 5, cpu=1.0)]
        cost = server_cost(SPEC, vms)
        assert cost.run == 10.0          # 5*1*1 twice
        assert cost.busy_idle == 100.0   # 2 busy units
        assert cost.gaps == 100.0        # min(150, 100)
        assert cost.initial_wake == 100.0

    def test_short_gap_stays_active(self):
        # 1-unit gap: min(50, 100) = 50.
        vms = [make_vm(0, 1, 1), make_vm(1, 3, 3)]
        assert server_cost(SPEC, vms).gaps == 50.0

    def test_without_initial_wake(self):
        cost = server_cost(SPEC, [make_vm(0, 1, 1)],
                           include_initial_wake=False)
        assert cost.initial_wake == 0.0

    def test_never_sleep_policy_charges_idle(self):
        vms = [make_vm(0, 1, 1), make_vm(1, 10, 10)]
        cost = server_cost(SPEC, vms, policy=SleepPolicy.NEVER_SLEEP)
        assert cost.gaps == 50.0 * 8

    def test_always_sleep_policy_charges_alpha(self):
        vms = [make_vm(0, 1, 1), make_vm(1, 3, 3)]
        cost = server_cost(SPEC, vms, policy=SleepPolicy.ALWAYS_SLEEP)
        assert cost.gaps == 100.0

    def test_optimal_never_exceeds_other_policies(self):
        vms = [make_vm(0, 1, 2), make_vm(1, 5, 5), make_vm(2, 30, 31)]
        optimal = server_cost(SPEC, vms).total
        never = server_cost(SPEC, vms, policy=SleepPolicy.NEVER_SLEEP).total
        always = server_cost(SPEC, vms,
                             policy=SleepPolicy.ALWAYS_SLEEP).total
        assert optimal <= never
        assert optimal <= always

    def test_overlapping_vms_share_busy_idle(self):
        # Two fully-overlapping VMs: busy idle charged once.
        vms = [make_vm(0, 1, 4, cpu=2.0), make_vm(1, 1, 4, cpu=3.0)]
        cost = server_cost(SPEC, vms)
        assert cost.busy_idle == 200.0
        assert cost.run == 40.0 + 60.0


class TestAllocationCost:
    def test_sums_over_servers(self):
        cluster = Cluster.homogeneous(SPEC, 2)
        v0, v1 = make_vm(0, 1, 2, cpu=1.0), make_vm(1, 1, 2, cpu=1.0)
        split = allocation_cost(Allocation(cluster, {v0: 0, v1: 1}))
        together = allocation_cost(Allocation(cluster, {v0: 0, v1: 0}))
        # Splitting pays busy idle and wake twice.
        assert split.busy_idle == 2 * together.busy_idle
        assert split.initial_wake == 2 * together.initial_wake
        assert split.run == together.run

    def test_empty_allocation(self):
        cluster = Cluster.homogeneous(SPEC, 1)
        assert allocation_cost(Allocation(cluster, {})).total == 0.0

    def test_consolidation_saves(self):
        cluster = Cluster.homogeneous(SPEC, 2)
        v0, v1 = make_vm(0, 1, 5, cpu=1.0), make_vm(1, 2, 6, cpu=1.0)
        split = allocation_cost(Allocation(cluster, {v0: 0, v1: 1})).total
        packed = allocation_cost(Allocation(cluster, {v0: 0, v1: 0})).total
        assert packed < split


class TestTheSleepRuleIsStatedOnce:
    """Eq. 16 — sleep iff ``alpha < P_idle * length`` — is written out
    in one function; the predicate, the gap pricer, the saturating-gap
    search and the active-timeline derivation all call it."""

    SOURCE = Path(repro.__file__).parent

    @staticmethod
    def _idles(node: ast.AST) -> bool:
        """Whether ``node`` is a product with a ``p_idle`` factor."""
        return isinstance(node, ast.BinOp) and \
            isinstance(node.op, ast.Mult) and any(
                getattr(side, "id", getattr(side, "attr", None)) == "p_idle"
                for side in (node.left, node.right))

    def test_one_comparison_against_the_idle_energy(self):
        sites = []
        for path in sorted(self.SOURCE.rglob("*.py")):
            tree = ast.parse(path.read_text())
            for function in ast.walk(tree):
                if not isinstance(function, ast.FunctionDef):
                    continue
                for node in ast.walk(function):
                    if isinstance(node, ast.Compare) and any(
                            self._idles(side)
                            for side in (node.left, *node.comparators)):
                        sites.append((path.relative_to(self.SOURCE)
                                      .as_posix(), function.name))
        assert sites == [("energy/cost.py", "_sleeps")]

    def test_every_sleep_decision_calls_the_rule(self):
        for function in (cost.sleeps_through, cost._gap_length_cost,
                         cost.saturating_gap, accounting.active_intervals,
                         accounting.transition_count):
            assert "_sleeps(" in inspect.getsource(function), function
        assert not hasattr(accounting, "_gap_sleeps")
