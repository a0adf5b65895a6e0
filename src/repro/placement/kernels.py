"""The windowed fleet-probe kernel: one pass, only the cells a VM overlaps.

:class:`FleetKernel` is a structure-of-arrays mirror of the fleet's
skyline occupancy indexes, and one :meth:`FleetKernel.probe_fleet` call
answers feasibility, failing constraint, peak cpu/mem, headroom and the
Eq.-2/3 run cost ``W_ij`` for *all* candidates of a VM, as one
:class:`FeasibilityBatch`. The scans that need a verdict for every
candidate act on such a batch — the score family (best-fit, worst-fit),
the ``choose``-only route, ``explain_select`` — and do not know who
filled it: ``Allocator._probe_batch`` asks this kernel when there is
one and otherwise fills the same batch from scalar
``ServerState.probe`` calls (``kernel=off``, the dense engine, a fleet
no index covers), its columns built on first read. ``min-energy``'s
queued walk calls the kernel itself, for what is left of its busy
queues once 16 servers have refused the VM (dense streams); walks that
stop early (the first-fit family) or end by lower-bound pruning
(``min-energy`` on sparse streams) ask scalar, one ``O(log k)``
``ServerState.admits`` at a time. ``kernel=off`` builds no kernel: the
same scans decide the same on scalar probes throughout.

Layout
------
Compressed rows: every array is the concatenation of the fleet's
skylines in fleet order, row ``r`` occupying cells
``[off[r], off[r + 1])`` — no padding, so memory and search cost follow
the breakpoints that exist, not the longest history times the fleet
size. The value planes hold committed cpu and mem (on a robust fleet
also the per-segment drop / threshold accumulators); the int64 **key
plane** holds ``r * 2^40 + 2^39 + x`` for breakpoint ``x``. Each skyline
is sorted and row ``r``'s keys all lie below row ``r + 1``'s, so the key
plane is globally sorted. Times must lie in ``[-2^39, 2^39)``.

Window search
-------------
For a demand piece ``[start, end]`` one ``searchsorted`` per bound over
the key plane yields every row's column window ``[i0, i1]`` — the
segment containing ``start`` (clamped to the first breakpoint) through
the last breakpoint ``<= end``, exactly the range the scalar
``probe_piece`` loop walks. Rows with an empty window hold nothing in
the piece: feasible, zero peaks, never touched. The remaining rows
fancy-gather ``live_rows x longest_window`` cells (shorter windows
repeat their last cell, which changes neither a max nor a first
violation), so a probe costs what the VM's interval overlaps, not what
the fleet remembers; :attr:`FleetKernel.cells_probed` counts those
cells, ``probe_calls`` / ``rows_probed`` the calls and candidate rows.

Bit-exactness
-------------
The mirror copies each skyline's values verbatim (copying a float
copies its bits), keys are exact integers, the gathered cells go
through the same IEEE-754 float64 operations the scalar loop applies
(``c + cpu > cap + tol`` elementwise), and peaks take a max over the
identical multiset of segment values — so every row equals
``ServerState.probe`` on all six ``Feasibility`` fields, reason string
included, and a kernel-driven scan chooses the same server with the
same Eq.-17 energy. Asserted with ``==`` (never ``approx``) in
``tests/test_kernel.py`` and the benchmark gates.

Incremental sync
----------------
Server mutations (``place_trusted``, ``remove``, ``cut``, ``retire``,
``compact``) notify their watchers; the kernel marks the row dirty and
splices it back in at the next probe — one pass over the planes,
rows that did not change move as block copies. Not thread-safe:
callers serialise probes and mutations (the daemon runs every scan and
every commit under its commit lock; its lock-free reads never probe).
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from repro.model.phases import demand_profile
from repro.placement.feasibility import TOL, Feasibility

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

#: Key stride per row, and the offset that keeps negative times inside
#: their row's span (see "Layout" in the module docstring).
_SPAN = 1 << 40
_BIAS = 1 << 39


class FeasibilityBatch:
    """Array-backed feasibility verdicts for one VM over many servers.

    Parallel numpy columns over the probed candidates, in candidate
    order, whoever filled them: :meth:`FleetKernel.probe_fleet` sets
    every column as an array from its one windowed pass; a batch built
    with ``verdicts=`` (the scalar ``ServerState.probe`` results, one
    per candidate) builds a column on first read, so a scan pays for
    the columns it scores by and no others. Indexing (``batch[i]``)
    gives the scalar :class:`~repro.placement.feasibility.Feasibility`
    view of one candidate — identical to what ``ServerState.probe``
    returns for the same server, including the reason string.

    Attributes
    ----------
    positions:
        Position of each candidate in the state list the batch carries
        — the kernel's fleet, or the probed list itself (``intp``).
    feasible:
        Boolean feasibility mask over the candidates.
    codes / times:
        Kernel-filled batches only (:meth:`reason` is the portable
        read): the failing-constraint code per candidate
        (:data:`FEASIBLE`, :data:`CPU_CAPACITY`, :data:`MEM_CAPACITY`,
        :data:`CPU_OVERLAP`, :data:`MEM_OVERLAP`) and the first
        overloaded time unit (valid for the overlap codes).
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

    __slots__ = ("_states", "_verdicts", "_vm", "positions", "feasible",
                 "codes", "times", "peak_cpu", "peak_mem", "headroom_cpu",
                 "headroom_mem", "cpu_cap", "mem_cap", "run_cost")

    def __init__(self, states: Sequence["ServerState"],
                 positions: np.ndarray, *,
                 verdicts: Sequence[Feasibility] | None = None,
                 vm: "VM | None" = None, **columns: np.ndarray) -> None:
        self._states = states
        self.positions = positions
        self._verdicts = verdicts
        self._vm = vm
        for name, column in columns.items():
            setattr(self, name, column)

    def __getattr__(self, name: str) -> np.ndarray:
        # Reached for an unset slot only: a column the scalar fill has
        # not built yet. It holds the verdicts' own float64 values, so a
        # score over it runs the IEEE operations a kernel batch would.
        if name in Feasibility._fields:
            read, items = attrgetter(name), self._verdicts
        elif name in _SPEC_COLUMNS:
            read, items = _SPEC_COLUMNS[name], self._states
        else:
            raise AttributeError(name)
        column = np.fromiter(map(read, items), count=len(items),
                             dtype=bool if name == "feasible" else float)
        if name == "run_cost":
            column *= self._vm.cpu_time
        setattr(self, name, column)
        return column

    def __len__(self) -> int:
        return len(self.positions)

    def reason(self, i: int) -> str | None:
        """The scalar probe's reason string for candidate ``i``."""
        if self._verdicts is not None:
            return self._verdicts[i].reason
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
        return self._states[self.positions[i]]

    def states_at(self, rows: np.ndarray) -> list["ServerState"]:
        """The server states behind candidates ``rows``, in that order."""
        states = self._states
        return [states[pos] for pos in self.positions[rows].tolist()]

    def __getitem__(self, i: int) -> Feasibility:
        """Candidate ``i``'s scalar ``Feasibility`` view."""
        if self._verdicts is not None:
            return self._verdicts[i]
        return Feasibility(
            bool(self.feasible[i]), self.reason(i),
            float(self.peak_cpu[i]), float(self.peak_mem[i]),
            float(self.headroom_cpu[i]), float(self.headroom_mem[i]))

    def __iter__(self) -> Iterator[Feasibility]:
        return (self[i] for i in range(len(self)))

    def feasible_indices(self) -> np.ndarray:
        """Candidate indices of the feasible rows, in candidate order."""
        return np.flatnonzero(self.feasible)


#: The static columns, here and in the kernel: what each reads off a
#: server (``run_cost`` is that rate times the VM's cpu time).
_SPEC_COLUMNS = {
    "cpu_cap": attrgetter("server.spec.cpu_capacity"),
    "mem_cap": attrgetter("server.spec.memory_capacity"),
    "run_cost": attrgetter("server.spec.power_per_cpu_unit"),
}


class FleetKernel:
    """Structure-of-arrays occupancy pool over one fleet's skylines.

    Built by the :class:`~repro.placement.index.CandidateIndex` at
    ``prepare`` time for the indexed engine (when the
    :class:`~repro.placement.config.EngineConfig` enables it) and kept
    in sync through the ``ServerState`` watcher protocol: every
    mutation marks its row dirty, and the next probe re-copies only
    the dirty rows.
    """

    def __init__(self, states: Sequence["ServerState"]) -> None:
        self._states = list(states)
        n = len(self._states)
        self._pos = {id(state): i for i, state in enumerate(self._states)}
        self._cpu_cap, self._mem_cap, self._rate = (
            np.fromiter(map(read, self._states), float, n)
            for read in _SPEC_COLUMNS.values())
        #: key of time 0 per row; ``key = base + x``, ``x = key - base``
        self._base = np.arange(n, dtype=np.int64) * _SPAN + _BIAS
        #: row r's cells are ``[off[r], off[r + 1])`` of every plane
        self._off = np.zeros(n + 1, dtype=np.intp)
        self._keys = np.empty(0, dtype=np.int64)
        #: the fleet's robustness config (uniform across one fleet).
        #: Value planes in skyline export order: committed (cpu, mem)
        #: and, on a robust fleet, the per-segment (drop_c, thr_c,
        #: drop_m, thr_m) accumulators.
        self._robust = self._states[0].robustness if self._states else None
        self._planes = [np.empty(0)
                        for _ in range(2 if self._robust is None else 6)]
        self._dirty: set[int] = set(range(n))
        #: cells gathered by :meth:`probe_fleet` so far (rows x window,
        #: summed per demand piece) — the work counter the tests bound
        #: by the segments a probe overlaps.
        self.cells_probed = 0
        #: :meth:`probe_fleet` calls and the candidate rows they covered:
        #: "did this scan batch, and over how much?" as a read.
        self.probe_calls = 0
        self.rows_probed = 0
        for state in self._states:
            state.add_watcher(self)

    def __len__(self) -> int:
        return len(self._states)

    # -- watcher protocol --------------------------------------------------

    def server_state_changed(self, state: "ServerState") -> None:
        """Mark ``state``'s row dirty (re-synced before the next probe)."""
        pos = self._pos.get(id(state))
        if pos is not None:
            self._dirty.add(pos)

    # -- sync --------------------------------------------------------------

    def sync(self) -> None:
        """Splice every dirty row's skyline into the planes."""
        if not self._dirty:
            return
        robust = self._robust is not None
        off = self._off
        lengths = np.diff(off)
        old = [self._keys, *self._planes]
        parts: list[list] = [[] for _ in old]
        cursor = 0
        for pos in sorted(self._dirty):
            occ = self._states[pos]._occ
            xs, *values = (occ.export_robust_rows() if robust
                           else occ.export_rows())
            fresh = [np.array(xs, dtype=np.int64) + self._base[pos], *values]
            for pieces, plane, row in zip(parts, old, fresh):
                pieces += (plane[cursor:off[pos]], row)
            cursor = off[pos + 1]
            lengths[pos] = len(xs)
        self._keys, *self._planes = (
            np.concatenate(pieces + [plane[cursor:]])
            for pieces, plane in zip(parts, old))
        np.cumsum(lengths, out=off[1:])
        self._dirty.clear()

    # -- probing -----------------------------------------------------------

    def probe_fleet(self, vm: "VM", candidates: np.ndarray | None = None
                    ) -> FeasibilityBatch:
        """Probe ``vm`` against many servers in one windowed pass.

        ``candidates`` selects the probed rows: ``None`` sweeps the
        whole fleet, an integer array names kernel positions. The
        returned :class:`FeasibilityBatch` is in candidate order and
        each row equals the scalar ``ServerState.probe`` verdict bit
        for bit.
        """
        self.sync()
        if candidates is None:
            rows = np.arange(len(self._states), dtype=np.intp)
        else:
            rows = candidates.astype(np.intp, copy=False)
        robust = self._robust is not None
        cpu_cap = self._cpu_cap[rows]
        mem_cap = self._mem_cap[rows]
        r = rows.size
        self.probe_calls += 1
        self.rows_probed += r
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
        keys, planes = self._keys, self._planes
        base = self._base[rows]
        row_cell = self._off[rows]
        for piece, cpu, mem in demand_profile(vm):
            start, end = piece.start, piece.end
            # Column window per row, as the scalar loop walks it: from
            # the segment containing `start` (bisect_right - 1, clamped
            # to the first breakpoint) through the last x <= end.
            i0 = np.searchsorted(keys, base + start, side="right")
            i0 -= row_cell + 1
            np.maximum(i0, 0, out=i0)
            last = np.searchsorted(keys, base + end, side="right")
            last -= row_cell + 1 + i0
            live = np.flatnonzero(active & (last >= 0))
            if not live.size:
                continue
            last = last[live, None]
            offsets = np.minimum(np.arange(int(last.max()) + 1), last)
            self.cells_probed += offsets.size
            first_cell = row_cell[live] + i0[live]
            cells = first_cell[:, None] + offsets
            occ_cpu = planes[0][cells]
            occ_mem = planes[1][cells]
            if robust:
                # The Γ-robust per-segment values, in the exact op order
                # of RobustSkyline.probe_piece_robust: the probed value
                # adds drop + max(radius, threshold); the reported peak
                # adds the resident-only excess drop + threshold.
                dc, tc, dm, tm = (plane[cells] for plane in planes[2:])
                val_cpu = occ_cpu + (dc + np.maximum(vm.cpu_radius, tc))
                val_mem = occ_mem + (dm + np.maximum(vm.mem_radius, tm))
                occ_cpu = occ_cpu + (dc + tc)
                occ_mem = occ_mem + (dm + tm)
            else:
                val_cpu, val_mem = occ_cpu, occ_mem
            # Peaks accumulate through the failing piece (running max
            # from 0.0, like the scalar probe).
            peak_cpu[live] = np.maximum(peak_cpu[live], occ_cpu.max(axis=1))
            peak_mem[live] = np.maximum(peak_mem[live], occ_mem.max(axis=1))
            viol_c = val_cpu + cpu > (cpu_cap[live] + TOL)[:, None]
            viol_m = val_mem + mem > (mem_cap[live] + TOL)[:, None]
            has_c = viol_c.any(axis=1)
            has_m = viol_m.any(axis=1) & ~has_c
            for viol, has, code in ((viol_c, has_c, CPU_OVERLAP),
                                    (viol_m, has_m, MEM_OVERLAP)):
                if not has.any():
                    continue
                failed = live[has]
                # t = x if x > start else start, x the first violating
                # segment's breakpoint.
                x = keys[first_cell[has] + viol[has].argmax(axis=1)] \
                    - base[failed]
                codes[failed] = code
                times[failed] = np.maximum(x, start)
                active[failed] = False
        # cap - 0.0 == cap bit for bit, so one expression covers the
        # static-failure headroom (full caps) and the probed one.
        return FeasibilityBatch(
            self._states, rows, feasible=codes == FEASIBLE, codes=codes,
            times=times, peak_cpu=peak_cpu, peak_mem=peak_mem,
            headroom_cpu=cpu_cap - peak_cpu, headroom_mem=mem_cap - peak_mem,
            cpu_cap=cpu_cap, mem_cap=mem_cap,
            run_cost=self._rate[rows] * vm.cpu_time)

    def probe_one(self, state: "ServerState", vm: "VM") -> Feasibility:
        """Scalar-view probe as a thin delegate to the batch kernel."""
        pos = self._pos.get(id(state))
        if pos is None:
            raise KeyError("probe_one: state outside this fleet")
        batch = self.probe_fleet(
            vm, np.array([pos], dtype=np.intp))
        return batch[0]
