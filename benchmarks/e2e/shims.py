"""The ledger's own spans: one shim table, one in-memory recorder.

The benchmark — not the program — owns these spans (``repro.obs`` stays
off in both runs, so the ledger does not move when its span names do).
:data:`TABLE` names each layer's *public* entry points; :func:`install`
wraps every one with a recorder of ``(seq, name, start, end, parent,
request ordinal)``. A name that no longer resolves is reported as a
missing layer and its metrics read 0 — end-to-end metrics never depend
on this module.

Self time of a span is its duration minus the time its child spans
cover. Children run nested on the caller's thread, so they never
overlap and the subtraction is a plain sum; the self times of every
span under one root therefore add up to the root's duration exactly.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import threading
from contextlib import contextmanager
from time import perf_counter_ns

__all__ = ["TABLE", "Recorder", "install", "merge"]

#: Raw spans kept per thread for the trace file; aggregates are always
#: complete, spans past the cap are only counted as dropped.
MAX_SPANS_PER_THREAD = 100_000


# -- unit hooks: (args, result) -> (units, hits) -----------------------------
# ``units`` counts the work a call did, ``hits`` the useful part of it.

def _size(args, result):
    return len(result), 0


def _group_size(args, result):
    if result is None:
        return 0, 0
    return sum(len(g.busy) + len(g.pristine) for g in result), 0


def _batch_rows(args, result):
    return len(result), int(result.feasible_indices().size)


def _verdict(args, result):
    return 1, 1 if result.feasible else 0


def _rejected(args, result):
    return 1, 1 if result is None else 0


def _line_bytes(args, result):
    return len(args[0]), 0


def _file_bytes(args, result):
    return result.stat().st_size, 0


def _moves(args, result):
    return len(result.moves), 0


def _op_of_line(args) -> str:
    """The ``op`` of a raw request line (``handle_line(self, line)``);
    the benchmark's own clients are the only senders, so the compact
    encoding of ``protocol.encode`` is the only shape to recognise."""
    line = args[1]
    start = line.find('"op":"')
    if start < 0:
        return "other"
    start += 6
    return line[start:line.find('"', start)]


#: (layer, span, "module:qualified.name", unit hook, root-label hook).
#: Generator functions are drained inside the span (``read_journal``),
#: so the span covers the work, not the creation of the generator.
TABLE = (
    ("workload.generator", "generate_vms",
     "repro.workload.generator:generate_vms", None, None),
    ("model.cluster", "paper_all_types",
     "repro.model.cluster:Cluster.paper_all_types", None, None),
    ("allocators", "allocate",
     "repro.allocators.base:Allocator.allocate", None, None),
    ("allocators", "select",
     "repro.allocators.base:Allocator.select", None, None),
    ("allocators", "select_sharded",
     "repro.allocators.base:Allocator.select_sharded", None, None),
    ("placement.index", "candidates",
     "repro.placement.index:CandidateIndex.candidates", _size, None),
    ("placement.index", "candidate_positions",
     "repro.placement.index:CandidateIndex.candidate_positions",
     _size, None),
    ("placement.index", "groups_for",
     "repro.placement.index:CandidateIndex.groups_for", _group_size, None),
    ("placement.index", "server_state_changed",
     "repro.placement.index:CandidateIndex.server_state_changed",
     None, None),
    ("placement.kernels", "probe_fleet",
     "repro.placement.kernels:FleetKernel.probe_fleet", _batch_rows, None),
    ("placement.kernels", "probe_one",
     "repro.placement.kernels:FleetKernel.probe_one", None, None),
    ("placement.kernels", "sync",
     "repro.placement.kernels:FleetKernel.sync", None, None),
    ("allocators.state", "probe",
     "repro.allocators.state:ServerState.probe", _verdict, None),
    ("allocators.state", "incremental_cost",
     "repro.allocators.state:ServerState.incremental_cost", None, None),
    ("allocators.state", "place",
     "repro.allocators.state:ServerState.place", None, None),
    ("allocators.state", "place_trusted",
     "repro.allocators.state:ServerState.place_trusted", None, None),
    ("allocators.state", "retire",
     "repro.allocators.state:ServerState.retire", None, None),
    ("energy.accounting", "energy_report",
     "repro.energy.accounting:energy_report", None, None),
    ("service.client", "place",
     "repro.service.client:AllocationClient.place", None, None),
    ("service.client", "place_batch",
     "repro.service.client:AllocationClient.place_batch", None, None),
    ("service.framing", "encode_frame",
     "repro.service.framing:encode_frame", None, None),
    ("service.framing", "feed",
     "repro.service.framing:FrameDecoder.feed", None, None),
    ("service.protocol", "parse_request",
     "repro.service.protocol:parse_request", _line_bytes, None),
    ("service.protocol", "parse_batch_records",
     "repro.service.protocol:parse_batch_records", None, None),
    ("service.protocol", "parse_response",
     "repro.service.protocol:parse_response", None, None),
    ("service.protocol", "encode",
     "repro.service.protocol:encode", _size, None),
    ("service.daemon", "handle_line",
     "repro.service.daemon:AllocationDaemon.handle_line",
     None, _op_of_line),
    ("service.daemon", "handle",
     "repro.service.daemon:AllocationDaemon.handle", None, None),
    ("service.daemon", "render_metrics",
     "repro.service.daemon:AllocationDaemon.render_metrics", None, None),
    ("service.metrics", "observe_request",
     "repro.service.metrics:ServiceMetrics.observe_request", None, None),
    ("simulation.admission", "offer",
     "repro.simulation.admission:offer", _rejected, None),
    ("service.state", "commit",
     "repro.service.state:ClusterStateStore.commit", None, None),
    ("service.state", "advance_to",
     "repro.service.state:ClusterStateStore.advance_to", None, None),
    ("service.state", "fail_server",
     "repro.service.state:ClusterStateStore.fail_server", None, None),
    ("service.state", "recover_server",
     "repro.service.state:ClusterStateStore.recover_server", None, None),
    ("service.state", "consolidate",
     "repro.service.state:ClusterStateStore.consolidate", None, None),
    ("service.state", "to_snapshot",
     "repro.service.state:ClusterStateStore.to_snapshot", None, None),
    ("service.persistence", "append",
     "repro.service.persistence:RequestJournal.append", None, None),
    ("service.persistence", "save",
     "repro.service.persistence:SnapshotManager.save", _file_bytes, None),
    ("service.persistence", "read_journal",
     "repro.service.persistence:read_journal", _size, None),
    ("service.persistence", "restore",
     "repro.service.daemon:AllocationDaemon.restore", None, None),
    ("consolidation.planner", "plan_episode",
     "repro.consolidation.planner:MigrationPlanner.plan_episode",
     _moves, None),
    ("consolidation.planner", "best_move",
     "repro.consolidation.planner:MigrationPlanner.best_move", None, None),
)


class _ThreadState:
    __slots__ = ("stack", "label", "ordinal", "totals", "spans", "dropped")

    def __init__(self) -> None:
        self.stack: list[list[int]] = []   # open frames: [child_ns, seq]
        self.label = ""                    # label of the open root span
        self.ordinal = -1                  # ordinal of the open root span
        #: (root label, span name) -> [calls, total, self, units, hits]
        self.totals: dict[tuple[str, str], list[int]] = {}
        self.spans: list[tuple] = []
        self.dropped = 0


class Recorder:
    """Per-thread span stacks; nothing on the hot path takes a lock."""

    def __init__(self) -> None:
        self._tls = threading.local()
        self._threads: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._seqs = itertools.count()
        self._ordinals = itertools.count()
        self.missing: list[str] = []

    def _state(self) -> _ThreadState:
        try:
            return self._tls.state
        except AttributeError:
            state = self._tls.state = _ThreadState()
            with self._lock:
                self._threads.append(state)
            return state

    def wrap(self, name: str, fn, units=None, label=None, drain=False):
        """``fn`` with a span named ``name`` around every call."""
        state_of = self._state
        seqs, ordinals = self._seqs, self._ordinals
        now = perf_counter_ns

        def shim(*args, **kwargs):
            st = state_of()
            stack = st.stack
            if not stack:
                st.label = label(args) if label is not None else name
                st.ordinal = next(ordinals)
            frame = [0, next(seqs)]
            stack.append(frame)
            started = now()
            try:
                result = fn(*args, **kwargs)
                if drain:
                    result = list(result)
            finally:
                ended = now()
                stack.pop()
                took = ended - started
                parent = -1
                if stack:
                    stack[-1][0] += took
                    parent = stack[-1][1]
                key = (st.label, name)
                total = st.totals.get(key)
                if total is None:
                    total = st.totals[key] = [0, 0, 0, 0, 0]
                total[0] += 1
                total[1] += took
                total[2] += took - frame[0]
                if len(st.spans) < MAX_SPANS_PER_THREAD:
                    st.spans.append((frame[1], name, started, ended,
                                     parent, st.ordinal))
                else:
                    st.dropped += 1
            if units is not None:
                n, hits = units(args, result)
                total[3] += n
                total[4] += hits
            return iter(result) if drain else result

        shim.__wrapped__ = fn
        shim.__name__ = getattr(fn, "__name__", name)
        shim.__doc__ = getattr(fn, "__doc__", None)
        return shim

    @contextmanager
    def scope(self, label: str):
        """A root span owned by the harness, so that e.g. each zoo
        member's pass is attributed under its own label. (The generic
        shim cannot span a ``with`` body, hence the hand-rolled frame
        with the same bookkeeping.)"""
        st = self._state()
        st.label, st.ordinal = label, next(self._ordinals)
        frame = [0, next(self._seqs)]
        st.stack.append(frame)
        started = perf_counter_ns()
        try:
            yield
        finally:
            took = perf_counter_ns() - started
            st.stack.pop()
            total = st.totals.setdefault((label, "harness/scope"),
                                         [0, 0, 0, 0, 0])
            total[0] += 1
            total[1] += took
            total[2] += took - frame[0]

    def totals(self) -> dict[str, dict[str, list[int]]]:
        """``label -> span -> [calls, total, self, units, hits]``, summed
        over every thread so far."""
        merged: dict[str, dict[str, list[int]]] = {}
        for state in list(self._threads):
            for (label, name), total in list(state.totals.items()):
                _add(merged, label, name, total)
        return merged

    def calls(self) -> dict[str, int]:
        """``"label|span" -> calls`` so far (deterministic-count checks)."""
        return {f"{label}|{name}": total[0]
                for label, names in self.totals().items()
                for name, total in names.items()}

    def dump(self) -> dict:
        """JSON-safe aggregates and (capped) raw spans of this process."""
        states = list(self._threads)
        return {"totals": self.totals(),
                "missing_layers": list(self.missing),
                "span_fields": ["seq", "name", "start_ns", "end_ns",
                                "parent_seq", "ordinal"],
                "spans": sorted(s for state in states for s in state.spans),
                "spans_dropped": sum(state.dropped for state in states)}


def _add(merged: dict, label: str, name: str, total: list[int]) -> None:
    into = merged.setdefault(label, {}).setdefault(name, [0, 0, 0, 0, 0])
    for i, value in enumerate(total):
        into[i] += value


def merge(dumps: list[dict]) -> dict[str, dict[str, list[int]]]:
    """Sum the ``totals`` of several process dumps."""
    merged: dict[str, dict[str, list[int]]] = {}
    for dump in dumps:
        for label, names in dump["totals"].items():
            for name, total in names.items():
                _add(merged, label, name, total)
    return merged


def _resolve(target: str):
    """``(owner, attribute, raw attribute)`` of a table target."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr, vars(owner)[attr]


def install(recorder: Recorder) -> None:
    """Wrap every :data:`TABLE` entry that still resolves.

    Methods are replaced on their class. Module-level functions are
    re-bound in every loaded ``repro`` module that imported them by
    name (``from x import f`` copies the binding), so calls through any
    alias are recorded — import ``repro.cli`` first so they all exist.
    """
    importlib.import_module("repro.cli")
    importlib.import_module("repro.service")
    for layer, span, target, units, label in TABLE:
        name = f"{layer}/{span}"
        try:
            owner, attr, raw = _resolve(target)
        except (ImportError, AttributeError, KeyError):
            recorder.missing.append(f"{layer}:{target}")
            continue
        if isinstance(raw, classmethod):
            shim = classmethod(recorder.wrap(name, raw.__func__, units,
                                             label))
        elif isinstance(owner, type):
            shim = recorder.wrap(name, raw, units, label)
        else:
            drain = raw.__code__.co_flags & 0x20 != 0  # CO_GENERATOR
            shim = recorder.wrap(name, raw, units, label, drain=drain)
            for module_name, module in list(sys.modules.items()):
                if module is None or not (
                        module_name == "repro"
                        or module_name.startswith("repro.")):
                    continue
                for alias, value in list(vars(module).items()):
                    if value is raw:
                        setattr(module, alias, shim)
            continue
        setattr(owner, attr, shim)
