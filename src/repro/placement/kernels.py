"""The vectorized fleet-probe kernel: one pass, every candidate.

At 10k-VM / 3k-server scale the per-VM selection loop — thousands of
Python-level ``ServerState.probe`` calls per placement — dominates the
allocation wall clock. :class:`FleetKernel` replaces it with a
structure-of-arrays mirror of the fleet's skyline occupancy indexes:
per-server change points live in contiguous padded numpy arrays, and one
:meth:`FleetKernel.probe_fleet` call answers feasibility, failing
constraint, peak cpu/mem, headroom, and the Eq.-2/3 run cost ``W_ij``
for *all* candidates of a VM in a single vectorized pass.

Two-level probe API
-------------------
``ServerState.probe(vm)`` remains the scalar view — one server, one
:class:`~repro.placement.feasibility.Feasibility`. The kernel is the
batch level underneath: :meth:`probe_fleet` returns a
:class:`FeasibilityBatch` whose rows index back into per-server
``Feasibility`` views, and :meth:`probe_one` is a thin delegate that
runs the batch kernel over a single-candidate fleet. The property tests
pin the two levels equal element-wise — same feasible flag, same reason
string, bit-identical peaks and headroom.

Bit-exactness
-------------
The mirror copies each skyline's breakpoint values verbatim (copying a
float copies its bits), the vectorized comparisons apply the same
IEEE-754 float64 operations the scalar loop applies (``c + cpu >
cap + tol`` elementwise), and peaks take a max over the identical
multiset of segment values — so a kernel-driven scan chooses the same
server, with the same Eq.-17 energy, as the scalar scan. This is
asserted with ``==`` (never ``approx``) across every registered
allocator in ``tests/test_kernel.py`` and the 10k-scale benchmark gate.

Incremental sync
----------------
Server mutations (``place_trusted``, ``remove``, ``retire``,
``compact``) notify their watchers; the kernel marks the row dirty and
re-copies it lazily at the next probe sweep — O(changed rows), not
O(fleet). Scratch rows live in pooled buffers that grow geometrically,
so a probe sweep performs no per-candidate Python allocation.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from repro.model.phases import demand_profile
from repro.placement.feasibility import Feasibility

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from repro.allocators.state import ServerState
    from repro.model.vm import VM

__all__ = ["FeasibilityBatch", "FleetKernel",
           "FEASIBLE", "CPU_CAPACITY", "MEM_CAPACITY",
           "CPU_OVERLAP", "MEM_OVERLAP"]

#: Failing-constraint codes carried by :class:`FeasibilityBatch`.
FEASIBLE = 0
CPU_CAPACITY = 1
MEM_CAPACITY = 2
CPU_OVERLAP = 3
MEM_OVERLAP = 4

_MIN_WIDTH = 8


class FeasibilityBatch:
    """Array-backed feasibility verdicts for one VM over many servers.

    The batch is the native result of :meth:`FleetKernel.probe_fleet`:
    parallel numpy arrays over the probed candidates, in candidate
    order. Indexing (``batch[i]``) lazily materializes the scalar
    :class:`~repro.placement.feasibility.Feasibility` view for one
    candidate — identical to what ``ServerState.probe`` returns for the
    same server, including the reason string.

    Attributes
    ----------
    positions:
        Kernel fleet positions of the probed candidates (``intp``).
    codes:
        Failing-constraint code per candidate (:data:`FEASIBLE`,
        :data:`CPU_CAPACITY`, :data:`MEM_CAPACITY`,
        :data:`CPU_OVERLAP`, :data:`MEM_OVERLAP`).
    times:
        First overloaded time unit (valid for the overlap codes).
    peak_cpu / peak_mem:
        Max committed usage over the VM's interval, scanned up to the
        failing piece exactly like the scalar probe.
    headroom_cpu / headroom_mem:
        Capacity minus peak.
    cpu_cap / mem_cap:
        Static per-candidate capacities (for vectorized scoring).
    run_cost:
        The Eq.-2/3 marginal run energy ``W_ij = P^1_i * cpu_time`` of
        the VM on each candidate's server type (computed without the
        static-fit validation of :func:`~repro.energy.power.run_energy`
        — the batch covers infeasible candidates too).
    """

    __slots__ = ("_kernel", "positions", "codes", "times",
                 "peak_cpu", "peak_mem", "headroom_cpu", "headroom_mem",
                 "cpu_cap", "mem_cap", "run_cost")

    def __init__(self, kernel: "FleetKernel", positions: np.ndarray,
                 codes: np.ndarray, times: np.ndarray,
                 peak_cpu: np.ndarray, peak_mem: np.ndarray,
                 headroom_cpu: np.ndarray, headroom_mem: np.ndarray,
                 cpu_cap: np.ndarray, mem_cap: np.ndarray,
                 run_cost: np.ndarray) -> None:
        self._kernel = kernel
        self.positions = positions
        self.codes = codes
        self.times = times
        self.peak_cpu = peak_cpu
        self.peak_mem = peak_mem
        self.headroom_cpu = headroom_cpu
        self.headroom_mem = headroom_mem
        self.cpu_cap = cpu_cap
        self.mem_cap = mem_cap
        self.run_cost = run_cost

    def __len__(self) -> int:
        return int(self.positions.size)

    @property
    def feasible(self) -> np.ndarray:
        """Boolean feasibility mask over the candidates."""
        return self.codes == FEASIBLE

    def reason(self, i: int) -> str | None:
        """The scalar probe's reason string for candidate ``i``."""
        code = int(self.codes[i])
        if code == FEASIBLE:
            return None
        if code == CPU_CAPACITY:
            return "cpu:capacity"
        if code == MEM_CAPACITY:
            return "mem:capacity"
        kind = "cpu" if code == CPU_OVERLAP else "mem"
        return f"{kind}:overlap@{int(self.times[i])}"

    def state_at(self, i: int) -> "ServerState":
        """The server state behind candidate ``i``."""
        return self._kernel.state_at(int(self.positions[i]))

    def __getitem__(self, i: int) -> Feasibility:
        """Materialize candidate ``i``'s scalar ``Feasibility`` view."""
        return Feasibility(
            bool(self.codes[i] == FEASIBLE), self.reason(i),
            float(self.peak_cpu[i]), float(self.peak_mem[i]),
            float(self.headroom_cpu[i]), float(self.headroom_mem[i]))

    def __iter__(self) -> Iterator[Feasibility]:
        return (self[i] for i in range(len(self)))

    def feasible_indices(self) -> np.ndarray:
        """Candidate indices of the feasible rows, in candidate order."""
        return np.flatnonzero(self.codes == FEASIBLE)

    def first_feasible(self) -> int | None:
        """Index of the first feasible candidate, or ``None``."""
        feasible = self.feasible_indices()
        return int(feasible[0]) if feasible.size else None


class FleetKernel:
    """Structure-of-arrays occupancy pool over one fleet's skylines.

    Built by the :class:`~repro.placement.index.CandidateIndex` at
    ``prepare`` time for the indexed engine (when the
    :class:`~repro.placement.config.EngineConfig` enables it) and kept
    in sync through the ``ServerState`` watcher protocol: every
    mutation marks its row dirty, and the next probe sweep re-copies
    only the dirty rows.
    """

    def __init__(self, states: Sequence["ServerState"]) -> None:
        self._states = list(states)
        n = len(self._states)
        self._pos = {id(state): i for i, state in enumerate(self._states)}
        self._cpu_cap = np.empty(n)
        self._mem_cap = np.empty(n)
        self._rate = np.empty(n)
        for i, state in enumerate(self._states):
            spec = state.server.spec
            self._cpu_cap[i] = spec.cpu_capacity
            self._mem_cap[i] = spec.memory_capacity
            self._rate[i] = spec.power_per_cpu_unit
        width = _MIN_WIDTH
        for state in self._states:
            width = max(width, len(state._occ))
        self._width = width
        self._xs = np.full((n, width), np.inf)
        self._occ_cpu = np.zeros((n, width))
        self._occ_mem = np.zeros((n, width))
        #: the fleet's robustness config (uniform across one fleet);
        #: when set, the mirror grows the per-segment (drop, threshold)
        #: accumulator planes of every robust skyline and probes apply
        #: the Γ-robust excess — the nominal arrays and code path are
        #: untouched when robustness is off.
        self._robust = self._states[0].robustness if self._states else None
        if self._robust is not None:
            self._drop_c = np.zeros((n, width))
            self._thr_c = np.zeros((n, width))
            self._drop_m = np.zeros((n, width))
            self._thr_m = np.zeros((n, width))
        self._k = np.zeros(n, dtype=np.int64)
        self._dirty: set[int] = set(range(n))
        self._lock = threading.Lock()
        # Pooled gather buffers for subset probes, grown geometrically.
        # Per-thread, so two threads probing the same fleet never
        # overwrite each other's buffer mid-probe.
        self._gpool = threading.local()
        for state in self._states:
            state.add_watcher(self)

    def __len__(self) -> int:
        return len(self._states)

    # -- watcher protocol --------------------------------------------------

    def server_state_changed(self, state: "ServerState") -> None:
        """Mark ``state``'s row dirty (re-synced before the next sweep)."""
        pos = self._pos.get(id(state))
        if pos is not None:
            self._dirty.add(pos)

    # -- positions ---------------------------------------------------------

    def position_of(self, state: "ServerState") -> int | None:
        """Kernel row of ``state`` (``None`` for foreign states)."""
        return self._pos.get(id(state))

    def positions_of(self, states: Sequence["ServerState"]
                     ) -> np.ndarray | None:
        """Kernel rows of ``states`` in order; ``None`` if any state is
        not part of this fleet (callers fall back to scalar probes)."""
        pos = self._pos
        out = np.empty(len(states), dtype=np.intp)
        for i, state in enumerate(states):
            row = pos.get(id(state))
            if row is None:
                return None
            out[i] = row
        return out

    def state_at(self, position: int) -> "ServerState":
        return self._states[position]

    # -- sync --------------------------------------------------------------

    def _grow(self, width: int) -> None:
        new = max(width, self._width * 2)
        n = len(self._states)
        xs = np.full((n, new), np.inf)
        xs[:, : self._width] = self._xs
        cpu = np.zeros((n, new))
        cpu[:, : self._width] = self._occ_cpu
        mem = np.zeros((n, new))
        mem[:, : self._width] = self._occ_mem
        self._xs, self._occ_cpu, self._occ_mem = xs, cpu, mem
        if self._robust is not None:
            for name in ("_drop_c", "_thr_c", "_drop_m", "_thr_m"):
                plane = np.zeros((n, new))
                plane[:, : self._width] = getattr(self, name)
                setattr(self, name, plane)
        self._width = new  # gather pools re-key on width and self-reset

    def sync(self) -> None:
        """Re-copy every dirty row from its skyline (thread-safe)."""
        with self._lock:
            if not self._dirty:
                return
            robust = self._robust is not None
            for pos in self._dirty:
                state = self._states[pos]
                if robust:
                    xs, cpu, mem, dc, tc, dm, tm = \
                        state._occ.export_robust_rows()
                else:
                    xs, cpu, mem = state._occ.export_rows()
                k = len(xs)
                if k > self._width:
                    self._grow(k)
                self._xs[pos, :k] = xs
                self._xs[pos, k:] = np.inf
                self._occ_cpu[pos, :k] = cpu
                self._occ_cpu[pos, k:] = 0.0
                self._occ_mem[pos, :k] = mem
                self._occ_mem[pos, k:] = 0.0
                if robust:
                    self._drop_c[pos, :k] = dc
                    self._drop_c[pos, k:] = 0.0
                    self._thr_c[pos, :k] = tc
                    self._thr_c[pos, k:] = 0.0
                    self._drop_m[pos, :k] = dm
                    self._drop_m[pos, k:] = 0.0
                    self._thr_m[pos, :k] = tm
                    self._thr_m[pos, k:] = 0.0
                self._k[pos] = k
            self._dirty.clear()

    def _gather(self, rows: np.ndarray) -> tuple[np.ndarray, ...]:
        """Pooled row gather: ``(xs, cpu, mem)`` plus, on a robust
        fleet, the four accumulator planes."""
        r = rows.size
        robust = self._robust is not None
        pool = self._gpool
        cap = getattr(pool, "rows", 0)
        if r > cap or getattr(pool, "width", -1) != self._width:
            cap = max(r, cap * 2, 16)
            pool.xs = np.empty((cap, self._width))
            pool.cpu = np.empty((cap, self._width))
            pool.mem = np.empty((cap, self._width))
            if robust:
                pool.dc = np.empty((cap, self._width))
                pool.tc = np.empty((cap, self._width))
                pool.dm = np.empty((cap, self._width))
                pool.tm = np.empty((cap, self._width))
            pool.rows = cap
            pool.width = self._width
        xs = pool.xs[:r]
        cpu = pool.cpu[:r]
        mem = pool.mem[:r]
        np.take(self._xs, rows, axis=0, out=xs)
        np.take(self._occ_cpu, rows, axis=0, out=cpu)
        np.take(self._occ_mem, rows, axis=0, out=mem)
        if not robust:
            return xs, cpu, mem
        dc = pool.dc[:r]
        tc = pool.tc[:r]
        dm = pool.dm[:r]
        tm = pool.tm[:r]
        np.take(self._drop_c, rows, axis=0, out=dc)
        np.take(self._thr_c, rows, axis=0, out=tc)
        np.take(self._drop_m, rows, axis=0, out=dm)
        np.take(self._thr_m, rows, axis=0, out=tm)
        return xs, cpu, mem, dc, tc, dm, tm

    # -- probing -----------------------------------------------------------

    def probe_fleet(self, vm: "VM",
                    candidates: Sequence["ServerState"] | np.ndarray
                    | None = None) -> FeasibilityBatch:
        """Probe ``vm`` against many servers in one vectorized pass.

        ``candidates`` selects the probed rows: ``None`` sweeps the
        whole fleet, an integer array names kernel positions directly,
        and a sequence of states is mapped by identity. The returned
        :class:`FeasibilityBatch` is in candidate order and each row
        equals the scalar ``ServerState.probe`` verdict bit for bit.
        """
        self.sync()
        robust = self._robust is not None
        dc = tc = dm = tm = None
        if candidates is None:
            rows = np.arange(len(self._states), dtype=np.intp)
            xs, occ_cpu, occ_mem = self._xs, self._occ_cpu, self._occ_mem
            if robust:
                dc, tc = self._drop_c, self._thr_c
                dm, tm = self._drop_m, self._thr_m
        else:
            if isinstance(candidates, np.ndarray):
                rows = candidates.astype(np.intp, copy=False)
            else:
                mapped = self.positions_of(candidates)
                if mapped is None:
                    raise KeyError(
                        "probe_fleet: candidate outside this fleet")
                rows = mapped
            gathered = self._gather(rows)
            xs, occ_cpu, occ_mem = gathered[:3]
            if robust:
                dc, tc, dm, tm = gathered[3:]
        cpu_cap = self._cpu_cap[rows]
        mem_cap = self._mem_cap[rows]
        r = rows.size
        codes = np.zeros(r, dtype=np.int8)
        times = np.zeros(r, dtype=np.int64)
        peak_cpu = np.zeros(r)
        peak_mem = np.zeros(r)
        # Static type capacity first, exactly like the scalar probe:
        # cpu before mem, peaks left at zero. Robust probes charge the
        # VM its own radius here (a lone VM is always in the top-Γ).
        if robust:
            static_cpu = vm.cpu + vm.cpu_radius > cpu_cap
            static_mem = ~static_cpu & (vm.memory + vm.mem_radius > mem_cap)
        else:
            static_cpu = vm.cpu > cpu_cap
            static_mem = ~static_cpu & (vm.memory > mem_cap)
        codes[static_cpu] = CPU_CAPACITY
        codes[static_mem] = MEM_CAPACITY
        active = ~(static_cpu | static_mem)
        from repro.allocators.state import _TOL as tol
        if robust:
            # The Γ-robust per-segment values, in the exact op order of
            # RobustSkyline.probe_piece_robust: the probed value adds
            # drop + max(radius, threshold); the reported peak adds the
            # resident-only excess drop + threshold.
            val_cpu = occ_cpu + (dc + np.maximum(vm.cpu_radius, tc))
            val_mem = occ_mem + (dm + np.maximum(vm.mem_radius, tm))
            rob_cpu = occ_cpu + (dc + tc)
            rob_mem = occ_mem + (dm + tm)
        else:
            val_cpu, val_mem = occ_cpu, occ_mem
            rob_cpu, rob_mem = occ_cpu, occ_mem
        for piece, cpu, mem in demand_profile(vm):
            if not active.any():
                break
            start, end = piece.start, piece.end
            # Scan window per row: from the segment containing `start`
            # (bisect_right - 1, clamped) while xs[k] <= end. Padding is
            # +inf, so padded columns drop out of both conditions.
            i0 = (xs <= start).sum(axis=1) - 1
            np.maximum(i0, 0, out=i0)
            cols = np.arange(xs.shape[1])
            in_range = (cols >= i0[:, None]) & (xs <= end)
            pc = np.where(in_range, rob_cpu, 0.0).max(axis=1, initial=0.0)
            pm = np.where(in_range, rob_mem, 0.0).max(axis=1, initial=0.0)
            viol_c = in_range & (val_cpu + cpu > cpu_cap[:, None] + tol)
            viol_m = in_range & (val_mem + mem > mem_cap[:, None] + tol)
            has_c = viol_c.any(axis=1)
            has_m = viol_m.any(axis=1)
            # Peaks accumulate through the failing piece (running max).
            np.maximum(peak_cpu, np.where(active, pc, 0.0), out=peak_cpu)
            np.maximum(peak_mem, np.where(active, pm, 0.0), out=peak_mem)
            c_fail = active & has_c
            m_fail = active & ~has_c & has_m
            if c_fail.any() or m_fail.any():
                first_c = viol_c.argmax(axis=1)
                first_m = viol_m.argmax(axis=1)
                t_c = np.take_along_axis(
                    xs, first_c[:, None], axis=1)[:, 0]
                t_m = np.take_along_axis(
                    xs, first_m[:, None], axis=1)[:, 0]
                # t = x if x > start else start; rows without a
                # violation gathered an arbitrary (possibly padded)
                # breakpoint — mask them out before the integer cast.
                t_c = np.where(has_c, np.maximum(t_c, start),
                               start).astype(np.int64)
                t_m = np.where(has_m, np.maximum(t_m, start),
                               start).astype(np.int64)
                codes[c_fail] = CPU_OVERLAP
                times[c_fail] = t_c[c_fail]
                codes[m_fail] = MEM_OVERLAP
                times[m_fail] = t_m[m_fail]
                active &= ~(c_fail | m_fail)
        # cap - 0.0 == cap bit for bit, so one expression covers the
        # static-failure headroom (full caps) and the probed one.
        headroom_cpu = cpu_cap - peak_cpu
        headroom_mem = mem_cap - peak_mem
        run_cost = self._rate[rows] * vm.cpu_time
        return FeasibilityBatch(self, rows, codes, times,
                                peak_cpu, peak_mem,
                                headroom_cpu, headroom_mem,
                                cpu_cap, mem_cap, run_cost)

    def probe_one(self, state: "ServerState", vm: "VM") -> Feasibility:
        """Scalar-view probe as a thin delegate to the batch kernel."""
        pos = self._pos.get(id(state))
        if pos is None:
            raise KeyError("probe_one: state outside this fleet")
        batch = self.probe_fleet(
            vm, np.array([pos], dtype=np.intp))
        return batch[0]
