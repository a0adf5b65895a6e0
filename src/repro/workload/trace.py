"""Trace persistence: save and reload workloads as CSV or JSON.

A :class:`Trace` freezes a generated workload so experiments can be rerun
bit-for-bit, shared, or replayed through the discrete-event simulator. The
CSV schema is one VM per row (``vm_id,type,cpu,memory,start,end``); JSON
wraps the same records with a small metadata header.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from repro.exceptions import ValidationError
from repro.model.catalog import VM_TYPES
from repro.model.intervals import TimeInterval
from repro.model.phases import DemandPhase, PhasedVM
from repro.model.vm import VM, VMSpec

__all__ = ["Trace", "vm_to_record", "vm_from_record"]

_CSV_FIELDS = ("vm_id", "type", "cpu", "memory", "start", "end")
_FORMAT_VERSION = 1


def vm_to_record(vm: VM) -> dict[str, object]:
    """The JSON-friendly record of one VM request.

    This is the canonical wire/file shape shared by JSON traces and the
    allocation service's JSON-lines protocol: ``vm_id``, ``type``,
    ``cpu``, ``memory``, ``start``, ``end``, plus ``phases`` for
    :class:`~repro.model.phases.PhasedVM` and ``cpu_radius`` /
    ``mem_radius`` for uncertain demand. The radius keys are emitted
    only when nonzero, so records of exact-demand VMs — and therefore
    existing journals, snapshots and traces — stay byte-identical.
    """
    record: dict[str, object] = {
        "vm_id": vm.vm_id, "type": vm.spec.name, "cpu": vm.cpu,
        "memory": vm.memory, "start": vm.start, "end": vm.end,
    }
    if vm.spec.cpu_radius != 0.0:
        record["cpu_radius"] = vm.spec.cpu_radius
    if vm.spec.mem_radius != 0.0:
        record["mem_radius"] = vm.spec.mem_radius
    if isinstance(vm, PhasedVM):
        record["phases"] = [
            {"duration": p.duration, "cpu": p.cpu, "memory": p.memory}
            for p in vm.phases
        ]
    return record


def vm_from_record(record: Mapping[str, object]) -> VM:
    """Rebuild a :class:`VM` (or :class:`PhasedVM`) from its record.

    A record of a catalog type, exact demand, gets the catalog's own
    (immutable, already checked) :class:`VMSpec`; any other builds one.
    Raises ``TypeError``/``KeyError``/``ValueError`` on malformed input;
    callers wrap these with their own context (file line, request id).
    """
    name, cpu = str(record["type"]), float(record["cpu"])
    memory = float(record["memory"])
    spec = VM_TYPES.get(name)
    if spec is None or spec.cpu != cpu or spec.memory != memory \
            or "cpu_radius" in record or "mem_radius" in record:
        spec = VMSpec(name=name, cpu=cpu, memory=memory,
                      cpu_radius=float(record.get("cpu_radius", 0.0)),
                      mem_radius=float(record.get("mem_radius", 0.0)))
    interval = TimeInterval(int(record["start"]), int(record["end"]))
    if "phases" in record and record["phases"] is not None:
        phases = tuple(
            DemandPhase(duration=int(p["duration"]), cpu=float(p["cpu"]),
                        memory=float(p["memory"]))
            for p in record["phases"])
        return PhasedVM(vm_id=int(record["vm_id"]), spec=spec,
                        interval=interval, phases=phases)
    return VM(vm_id=int(record["vm_id"]), spec=spec, interval=interval)


@dataclass(frozen=True)
class Trace:
    """An immutable, order-preserving collection of VM requests."""

    vms: tuple[VM, ...]
    metadata: Mapping[str, object] = field(default_factory=dict)

    @classmethod
    def from_vms(cls, vms: Iterable[VM],
                 **metadata: object) -> "Trace":
        return cls(vms=tuple(vms), metadata=dict(metadata))

    def __len__(self) -> int:
        return len(self.vms)

    def __iter__(self) -> Iterator[VM]:
        return iter(self.vms)

    @property
    def horizon(self) -> int:
        """Last active time unit across the trace (0 when empty)."""
        return max((vm.end for vm in self.vms), default=0)

    # -- CSV ---------------------------------------------------------------

    def save_csv(self, path: str | Path) -> None:
        """Write one VM per row under the fixed six-column schema."""
        path = Path(path)
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(_CSV_FIELDS)
            for vm in self.vms:
                writer.writerow([vm.vm_id, vm.spec.name, vm.cpu, vm.memory,
                                 vm.start, vm.end])

    @classmethod
    def load_csv(cls, path: str | Path) -> "Trace":
        """Read a trace written by :meth:`save_csv`."""
        path = Path(path)
        vms = []
        with path.open(newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or \
                    tuple(reader.fieldnames) != _CSV_FIELDS:
                raise ValidationError(
                    f"{path}: expected header {_CSV_FIELDS}, got "
                    f"{reader.fieldnames}")
            for line, row in enumerate(reader, start=2):
                try:
                    spec = VMSpec(name=row["type"], cpu=float(row["cpu"]),
                                  memory=float(row["memory"]))
                    vms.append(VM(
                        vm_id=int(row["vm_id"]), spec=spec,
                        interval=TimeInterval(int(row["start"]),
                                              int(row["end"]))))
                except (TypeError, KeyError, ValueError) as exc:
                    raise ValidationError(
                        f"{path}:{line}: malformed trace row {row!r}: {exc}"
                    ) from exc
        return cls(vms=tuple(vms), metadata={"source": str(path)})

    # -- JSON --------------------------------------------------------------

    def save_json(self, path: str | Path) -> None:
        """Write the trace with metadata as a single JSON document.

        Phased VMs persist their demand phases; CSV, by contrast, stores
        only the flat six-column schema (use JSON for phased traces).
        """
        records = [vm_to_record(vm) for vm in self.vms]
        document = {
            "format_version": _FORMAT_VERSION,
            "metadata": dict(self.metadata),
            "vms": records,
        }
        Path(path).write_text(json.dumps(document, indent=2))

    @classmethod
    def load_json(cls, path: str | Path) -> "Trace":
        """Read a trace written by :meth:`save_json`."""
        path = Path(path)
        try:
            document = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: not valid JSON: {exc}") from exc
        version = document.get("format_version")
        if version != _FORMAT_VERSION:
            raise ValidationError(
                f"{path}: unsupported trace format version {version!r}")
        vms = []
        for i, record in enumerate(document.get("vms", [])):
            try:
                vms.append(vm_from_record(record))
            except (TypeError, KeyError, ValueError) as exc:
                raise ValidationError(
                    f"{path}: malformed VM record #{i}: {exc}") from exc
        return cls(vms=tuple(vms),
                   metadata=dict(document.get("metadata", {})))
