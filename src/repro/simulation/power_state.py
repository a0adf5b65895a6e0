"""The per-server power-state machine.

A server is in exactly one of three states:

* ``POWER_SAVING`` — drawing (approximately) zero power;
* ``TRANSITIONING`` — switching on, drawing peak power for the whole
  transition (Gandhi et al., IGCC'12 — the paper's Sec. IV-B3 rule);
* ``ACTIVE`` — drawing ``P_idle + P^1 * cpu_in_use``;
* ``FAILED`` — crashed: drawing nothing, hosting nothing, refusing
  every operation until :meth:`ServerMachine.recover` brings it back
  to ``POWER_SAVING`` (a recovered server must wake — and pay the
  transition energy ``alpha`` — before hosting again).

The machine enforces legality: VMs may start only on an ACTIVE server,
sleep is only reachable from ACTIVE with no VMs resident, and each
power-saving -> active passage accounts one transition energy ``alpha``.
A crash (:meth:`ServerMachine.fail`) is legal from any live state and
evicts all residents at once — the service layer decides what happens
to them (see :mod:`repro.simulation.recovery`).
"""

from __future__ import annotations

import enum

from repro.exceptions import SimulationError
from repro.model.server import Server

__all__ = ["FleetAggregates", "PowerState", "ServerMachine"]


class PowerState(enum.Enum):
    POWER_SAVING = "power-saving"
    TRANSITIONING = "transitioning"
    ACTIVE = "active"
    FAILED = "failed"


class FleetAggregates:
    """Incrementally-maintained fleet-wide totals.

    A machine with a ``watcher`` reports each mutation once, through
    :meth:`changed`, so reading any fleet total — active/asleep counts,
    resident VMs and demand, instantaneous power — is O(1) instead of a
    fleet scan. The per-tick telemetry sampler depends on this: sampling
    must not cost a scan of a thousand machines on every clock move.

    ``power`` accumulates float subtract/add pairs, so it can drift from
    a fresh scan by rounding noise; use a scan where exact equality
    matters. ``awake`` keeps that scan cheap and free of recomputation:
    server id of each machine neither POWER_SAVING nor FAILED — only
    these draw power or can fall asleep — to its ``power_draw()`` as
    last counted. The store closes a tick by summing those draws in id
    order (:meth:`awake_ids`) — a whole-fleet scan's float additions
    less its ``+ 0.0`` terms, hence bit-identical to one, which reading
    ``power`` would not be. ``idle`` holds the ids (its keys) of the
    ACTIVE machines hosting nothing: those a tick's close may sleep.
    """

    __slots__ = ("active", "asleep", "transitioning", "failed",
                 "running_vms", "resident_cpu", "resident_mem", "power",
                 "awake", "idle", "_awake_ids")

    def __init__(self) -> None:
        self.active = 0
        self.asleep = 0
        self.transitioning = 0
        self.failed = 0
        self.running_vms = 0
        self.resident_cpu = 0.0
        self.resident_mem = 0.0
        self.power = 0.0
        self.awake: dict[int, float] = {}
        self.idle: dict[int, None] = {}
        self._awake_ids: list[int] | None = []

    def add(self, machine: "ServerMachine") -> None:
        """Count ``machine``, not counted before, into the totals."""
        self.changed(machine, None, 0.0, 0.0, len(machine.resident_vms))

    def changed(self, machine: "ServerMachine", was: "PowerState | None",
                cpu: float, mem: float, vms: int) -> None:
        """Recount ``machine`` after a mutation: it was in state ``was``
        (``None``: not counted before) with ``cpu`` / ``mem`` resident,
        and its resident count moved by ``vms``. The float totals take
        the old contribution out and the new one in, in that order;
        ``awake`` changes only after the old draw left ``power``, so a
        scrape on another thread never misses an awake machine."""
        state, server_id = machine.state, machine.server.server_id
        if state is not was:
            if was is PowerState.ACTIVE:
                self.active -= 1
            elif was is PowerState.POWER_SAVING:
                self.asleep -= 1
            elif was is PowerState.FAILED:
                self.failed -= 1
            elif was is PowerState.TRANSITIONING:
                self.transitioning -= 1
            if state is PowerState.ACTIVE:
                self.active += 1
            elif state is PowerState.POWER_SAVING:
                self.asleep += 1
            elif state is PowerState.FAILED:
                self.failed += 1
            else:
                self.transitioning += 1
        self.running_vms += vms
        awake, idle = self.awake, self.idle
        self.resident_cpu -= cpu
        self.resident_mem -= mem
        self.power -= awake[server_id] if server_id in awake else 0.0
        self.resident_cpu += machine.resident_cpu
        self.resident_mem += machine.resident_mem
        draw = machine.power_draw()
        if state is PowerState.ACTIVE or state is PowerState.TRANSITIONING:
            if server_id not in awake:
                self._awake_ids = None
            awake[server_id] = draw
        elif awake.pop(server_id, None) is not None:
            self._awake_ids = None
        if state is PowerState.ACTIVE and not machine.resident_vms:
            idle[server_id] = None
        elif server_id in idle:
            del idle[server_id]
        self.power += draw

    def awake_ids(self) -> list[int]:
        """:attr:`awake`'s ids, ascending: kept until membership changes
        and then replaced (a wake or a sleep is O(1)), never mutated —
        a tick sleeps machines while it walks the list."""
        if self._awake_ids is None:
            self._awake_ids = sorted(self.awake)
        return self._awake_ids


class ServerMachine:
    """Power state, resident VMs and accumulated energy of one server."""

    def __init__(self, server: Server) -> None:
        self.server = server
        self.state = PowerState.POWER_SAVING
        self.resident_cpu = 0.0
        self.resident_mem = 0.0
        self.resident_vms: set[int] = set()
        self.transitions = 0
        #: accumulated transition energy (charged at wake)
        self.transition_energy = 0.0
        #: optional :class:`FleetAggregates` told of each mutation; all
        #: validation happens first, so a refused operation leaves the
        #: totals untouched
        self.watcher: FleetAggregates | None = None

    # -- state changes -----------------------------------------------------

    def wake(self) -> None:
        """Begin/complete a power-saving -> active transition.

        The simulator charges the full transition energy as the lump
        ``alpha`` the analytic model uses, then the server is ACTIVE from
        the next tick it is needed.
        """
        if self.state is not PowerState.POWER_SAVING:
            raise SimulationError(
                f"{self.server}: wake from {self.state.name}, expected "
                f"POWER_SAVING")
        self.state = PowerState.ACTIVE
        self.transitions += 1
        self.transition_energy += self.server.spec.transition_cost
        if self.watcher is not None:
            self.watcher.changed(self, PowerState.POWER_SAVING,
                                 self.resident_cpu, self.resident_mem, 0)

    def sleep(self) -> None:
        """Power down; only legal when active and hosting nothing."""
        if self.state is not PowerState.ACTIVE:
            raise SimulationError(
                f"{self.server}: sleep from {self.state.name}, expected "
                f"ACTIVE")
        if self.resident_vms:
            raise SimulationError(
                f"{self.server}: sleep with {len(self.resident_vms)} VMs "
                f"resident")
        self.state = PowerState.POWER_SAVING
        if self.watcher is not None:
            self.watcher.changed(self, PowerState.ACTIVE, self.resident_cpu,
                                 self.resident_mem, 0)

    def fail(self) -> None:
        """Crash: evict every resident VM and stop drawing power.

        Legal from any live state — a sleeping, transitioning or active
        server can die. What happens to the evicted VMs is the caller's
        problem (the service re-places their remainders elsewhere); the
        machine only records that this server hosts nothing and refuses
        all operations until :meth:`recover`.
        """
        if self.state is PowerState.FAILED:
            raise SimulationError(f"{self.server}: fail while already FAILED")
        was, cpu, mem = self.state, self.resident_cpu, self.resident_mem
        evicted, self.state = len(self.resident_vms), PowerState.FAILED
        self.resident_vms.clear()
        self.resident_cpu = self.resident_mem = 0.0
        if self.watcher is not None:
            self.watcher.changed(self, was, cpu, mem, -evicted)

    def recover(self) -> None:
        """Return from FAILED to POWER_SAVING.

        Recovery itself is free; the first :meth:`wake` after it charges
        the usual transition energy ``alpha`` — which is exactly why a
        recovery that immediately hosts a VM is an energy event.
        """
        if self.state is not PowerState.FAILED:
            raise SimulationError(
                f"{self.server}: recover from {self.state.name}, expected "
                f"FAILED")
        self.state = PowerState.POWER_SAVING
        if self.watcher is not None:
            self.watcher.changed(self, PowerState.FAILED, self.resident_cpu,
                                 self.resident_mem, 0)

    def start_vm(self, vm_id: int, cpu: float, memory: float) -> None:
        """Admit a VM; the server must be active with room for it."""
        if self.state is not PowerState.ACTIVE:
            raise SimulationError(
                f"{self.server}: vm{vm_id} starting while {self.state.name}")
        if vm_id in self.resident_vms:
            raise SimulationError(
                f"{self.server}: vm{vm_id} started twice")
        tol, spec = 1e-9, self.server.spec
        old_cpu, old_mem = self.resident_cpu, self.resident_mem
        if old_cpu + cpu > spec.cpu_capacity + tol:
            raise SimulationError(
                f"{self.server}: CPU overcommit admitting vm{vm_id}")
        if old_mem + memory > spec.memory_capacity + tol:
            raise SimulationError(
                f"{self.server}: memory overcommit admitting vm{vm_id}")
        self.resident_vms.add(vm_id)
        self.resident_cpu = old_cpu + cpu
        self.resident_mem = old_mem + memory
        if self.watcher is not None:
            self.watcher.changed(self, PowerState.ACTIVE, old_cpu, old_mem,
                                 1)

    def end_vm(self, vm_id: int, cpu: float, memory: float) -> None:
        """Release a VM."""
        if vm_id not in self.resident_vms:
            raise SimulationError(
                f"{self.server}: vm{vm_id} ended but was not resident")
        old_cpu, old_mem = self.resident_cpu, self.resident_mem
        self.resident_vms.remove(vm_id)
        self.resident_cpu = max(0.0, old_cpu - cpu)
        self.resident_mem = max(0.0, old_mem - memory)
        if self.watcher is not None:
            self.watcher.changed(self, self.state, old_cpu, old_mem, -1)

    # -- power -------------------------------------------------------------

    def power_draw(self) -> float:
        """Instantaneous power in the current state (watts)."""
        if self.state in (PowerState.POWER_SAVING, PowerState.FAILED):
            return 0.0
        if self.state is PowerState.TRANSITIONING:
            return self.server.p_peak
        return self.server.spec.power_at_load(self.resident_cpu)
