"""The windowed fleet-probe kernel: one pass, only the cells a VM overlaps.

:class:`FleetKernel` is a structure-of-arrays mirror of the fleet's
skyline occupancy indexes, and one :meth:`FleetKernel.probe_fleet` call
answers feasibility, failing constraint, peak cpu/mem, headroom and the
Eq.-2/3 run cost ``W_ij`` for many candidates of a VM, as one
:class:`FeasibilityBatch`. The ``choose``-only route and
``explain_select`` act on such a batch of every candidate, filled by
``Allocator._probe_batch`` from this kernel from
``allocators.base._FLEET_PROBE_FROM`` rows on, else (a shorter batch,
a fleet no index covers) from scalar
``ServerState.probe`` calls, its columns built on first read. The
score family (best-fit, worst-fit) asks the kernel for a type's warm
servers from that many rows on and scores fewer as one ``ScoreRow`` of
floats each, building no batch; a clone class scores as its type,
unprobed. The yes-or-no walks ask scalar, one ``ServerState.admits``
at a time — the first-fit family, which stops early, and
``min-energy``, which ends by lower-bound pruning or, refused 16 times
(dense streams), drops what is left of its busy queues that the
skylines' remembered refusals refuse: no kernel either way. Either
route decides the same, counter for counter.

Layout
------
Slotted rows: every array is the fleet's skylines in fleet order, row
``r`` owning the *slot* of cells ``[off[r], off[r + 1])`` — its
skyline first, *pad cells* after it. A row that never held anything
has no slot, so memory and search cost follow the breakpoints that
exist, not the longest history times the fleet size. The value planes
hold committed cpu and mem (on a robust fleet also the per-segment
drop / threshold accumulators); the int64 **key plane** holds ``r *
2^40 + 2^39 + x`` for breakpoint ``x`` and, in a pad cell, the top of
the row's key span, ``r * 2^40 + 2^40 - 1``. Each skyline is sorted,
its pads follow it and row ``r``'s keys all lie below row ``r + 1``'s,
so the key plane is globally sorted, and a search for a real time
never lands on a pad cell. Times must lie in ``[-2^39, 2^39 - 1)``: a
breakpoint outside would land in a neighbour's key span (or on a pad),
so ``sync`` refuses it by server id and a probe refuses such an
interval.

Window search
-------------
For a demand piece ``[start, end]`` one ``searchsorted`` per bound over
the key plane yields every row's window of cells — the segment
containing ``start`` (clamped to the row's first cell) through the last
breakpoint ``<= end``, exactly the range the scalar ``probe_piece``
loop walks. Rows with an empty window hold nothing in the piece:
feasible, zero peaks, never touched. For the remaining rows
``probe_fleet`` fancy-gathers ``live_rows x longest_window`` cells
(shorter windows repeat their last cell, which changes neither a max
nor a first violation), so a probe costs what the VM's interval
overlaps, not what the fleet remembers.
:attr:`FleetKernel.cells_probed` counts those cells, ``probe_calls`` /
``rows_probed`` the calls and candidate rows.

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
writes it back at the next probe, where it lives: a row that still
fits its slot is a few slice assignments (its skyline, then pad keys
over what it no longer uses) and no array is allocated. A row that
outgrew its slot gets twice the cells (8 the first time) in one
repack — the other rows move as block copies — so a row is repacked
for a logarithm of its length. Slots never shrink. Not thread-safe:
callers serialise probes and mutations (the daemon runs every scan and
every commit under its commit lock; its lock-free reads never probe).
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from repro.exceptions import ValidationError
from repro.model.phases import demand_profile
from repro.placement.feasibility import TOL, Feasibility, static_demand

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
#: A pad cell's time: the top of its row's key span, which no
#: breakpoint may reach — so a ``searchsorted`` for a real time stops
#: at the row's live cells.
_PAD = _BIAS - 1
#: Cells a row's first slot has (a row that never held anything has
#: none); a row that outgrows its slot doubles it.
_SLOT = 8


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

    Built by the :class:`~repro.placement.index.CandidateIndex` of the
    indexed engine (when the
    :class:`~repro.placement.config.EngineConfig` enables it) on the
    first batch probe, every row dirty, and kept in sync through the
    ``ServerState`` watcher protocol from then on: every mutation marks
    its row dirty, and the next probe rewrites only the dirty rows, in
    place.
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
        #: row r's slot is cells ``[off[r], off[r + 1])`` of every plane:
        #: its skyline, then pad cells
        self._off = np.zeros(n + 1, dtype=np.intp)
        self._keys = np.empty(0, dtype=np.int64)
        #: the fleet's robustness config (uniform across one fleet).
        #: Value planes in skyline export order: committed (cpu, mem)
        #: and, on a robust fleet, the per-segment (drop_c, thr_c,
        #: drop_m, thr_m) accumulators.
        self._robust = self._states[0].robustness if self._states else None
        self._export = attrgetter("_occ.export_rows" if self._robust is None
                                  else "_occ.export_robust_rows")
        self._planes = [np.empty(0)
                        for _ in range(2 if self._robust is None else 6)]
        self._dirty: set[int] = set(range(n))
        #: cells gathered by :meth:`probe_fleet` (rows x longest window)
        #: so far, summed per demand piece — the work counter the tests
        #: bound by the segments a probe overlaps.
        self.cells_probed = 0
        #: its calls and the candidate rows they covered: "did this scan
        #: batch, and over how much?" as a read.
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
        """Write every dirty row's skyline into its slot, in place."""
        if not self._dirty:
            return
        off = self._off
        fresh, outgrown = [], {}
        for pos in self._dirty:
            row = self._export(self._states[pos])()
            xs = row[0]
            if xs:
                if xs[0] < -_BIAS or xs[-1] >= _PAD:
                    raise ValidationError(
                        f"server {self._states[pos].server.server_id}: "
                        f"breakpoints {xs[0]}..{xs[-1]} outside the "
                        f"kernel's time range [{-_BIAS}, {_PAD})")
                if len(xs) > off[pos + 1] - off[pos]:
                    outgrown[pos] = len(xs)
            fresh.append((pos, row))
        if outgrown:
            self._repack(outgrown)
        keys, planes, base = self._keys, self._planes, self._base
        for pos, (xs, *values) in fresh:
            lo = off[pos]
            hi = lo + len(xs)
            keys[lo:hi] = xs
            keys[lo:hi] += base[pos]
            for plane, column in zip(planes, values):
                plane[lo:hi] = column
            keys[hi:off[pos + 1]] = base[pos] + _PAD
        self._dirty.clear()

    def _repack(self, outgrown: dict[int, int]) -> None:
        """Rebuild the planes with room for the rows in ``outgrown``
        (position -> cells needed): each gets twice its slot, at least
        ``_SLOT`` cells and what it needs, as pad cells after its slot;
        everything else moves as block copies. A row is repacked for
        O(log) times its final length."""
        off = self._off
        old = [self._keys, *self._planes]
        parts: list[list] = [[] for _ in old]
        added = np.zeros(len(self._states), dtype=np.intp)
        cursor = 0
        for pos in sorted(outgrown):
            end = off[pos + 1]
            slot = end - off[pos]
            added[pos] = max(2 * slot, _SLOT, outgrown[pos]) - slot
            pads = [np.full(added[pos], self._base[pos] + _PAD),
                    *[np.zeros(added[pos])] * len(self._planes)]
            for pieces, plane, pad in zip(parts, old, pads):
                pieces += (plane[cursor:end], pad)
            cursor = end
        self._keys, *self._planes = (
            np.concatenate(pieces + [plane[cursor:]])
            for pieces, plane in zip(parts, old))
        off[1:] += np.cumsum(added)

    # -- probing -----------------------------------------------------------

    def _windows(self, base: np.ndarray, row_cell: np.ndarray,
                 start: int, end: int) -> tuple[np.ndarray, np.ndarray]:
        """Each row's window over ``[start, end]``, as the scalar loop
        walks it: ``(first, width)`` — the cell of the segment
        containing ``start`` (bisect_right - 1, clamped to the row's
        first cell) and the cells from it through the last breakpoint
        ``<= end``; ``width <= 0`` where the row holds nothing there.
        ``base`` / ``row_cell`` are the rows' time-0 keys and first cells.
        """
        if start < -_BIAS or end >= _PAD:
            raise ValidationError(
                f"interval [{start}, {end}] outside the kernel's time "
                f"range [{-_BIAS}, {_PAD})")
        keys = self._keys
        first = np.searchsorted(keys, base + start, side="right")
        first -= 1
        np.maximum(first, row_cell, out=first)
        width = np.searchsorted(keys, base + end, side="right")
        width -= first
        return first, width

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
        # cpu before mem, peaks left at zero.
        cpu_need, mem_need = static_demand(vm, robust)
        static_cpu = cpu_need > cpu_cap
        static_mem = ~static_cpu & (mem_need > mem_cap)
        codes[static_cpu] = CPU_CAPACITY
        codes[static_mem] = MEM_CAPACITY
        active = ~(static_cpu | static_mem)
        keys, planes = self._keys, self._planes
        base = self._base[rows]
        row_cell = self._off[rows]
        for piece, cpu, mem in demand_profile(vm):
            start = piece.start
            first, width = self._windows(base, row_cell, start, piece.end)
            live = np.flatnonzero(active & (width > 0))
            if not live.size:
                continue
            # Shorter windows repeat their last cell.
            last = width[live, None] - 1
            offsets = np.minimum(np.arange(int(last.max()) + 1), last)
            self.cells_probed += offsets.size
            first_cell = first[live]
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
