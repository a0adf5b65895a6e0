"""Crash-safe persistence: the request journal and snapshot rotation.

The daemon's durability story is the classic snapshot + write-ahead
pair:

* every state-mutating request (``place``, ``place_batch``, ``tick``,
  ``fail_server``, ``recover_server``, ``consolidate``), after an
  ``init`` entry holding the starting state, is appended to a
  JSON-lines **journal** — flushed (and optionally fsynced) per entry,
  with monotone sequence numbers;
* periodically the whole :class:`~repro.service.state.ClusterStateStore`
  is checkpointed as a **snapshot** that records the last journal
  sequence it covers. :class:`SnapshotManager` is the one writer and
  the one reader of snapshot files; the store hands it the document as
  chunks (:meth:`~repro.service.state.ClusterStateStore.snapshot_parts`),
  never as one string.

Restore loads the newest readable snapshot and replays only the journal
entries after its sequence number. A torn final journal line (the crash
happened mid-write) is dropped on read *and truncated away on reopen* —
an entry only exists once its terminating newline is on disk, and
appending after a partial line would weld two records into one
unparseable line. Corruption anywhere before the final line is an
error. Placements are replayed from the *recorded* decision, not
re-derived through the allocator, so a restored daemon reaches the
identical state even for randomized allocators.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from repro.exceptions import ValidationError
from repro.service.protocol import COMPACT

__all__ = ["RequestJournal", "SnapshotManager", "read_journal"]

_SNAPSHOT_GLOB = "snapshot-*.json"
#: Bytes in a :class:`SnapshotManager`'s one write buffer (8 and 16 KiB
#: ones measured 0.3–0.5 MiB more peak RSS in the serve workloads)
SNAPSHOT_BUFFER = 4 * 1024


class RequestJournal:
    """An append-only JSON-lines journal with monotone sequence numbers."""

    def __init__(self, path: str | Path, *, fsync: bool = True) -> None:
        self.path = Path(path)
        self._fsync = fsync
        self._next_seq = 1
        if self.path.exists():
            entries, keep = _scan_journal(self.path)
            if entries:
                self._next_seq = int(entries[-1]["seq"]) + 1
            if keep < self.path.stat().st_size:
                # Cut the torn tail before appending: writing onto a
                # partial line would merge two entries into one
                # unparseable record and lose both on the next restore.
                with self.path.open("rb+") as fh:
                    fh.truncate(keep)
                    fh.flush()
                    if fsync:
                        os.fsync(fh.fileno())
        self._fh = self.path.open("a", encoding="utf-8")

    @property
    def next_seq(self) -> int:
        return self._next_seq

    def append(self, entry: Mapping[str, object]) -> int:
        """Durably append ``entry``; returns its sequence number."""
        seq = self._next_seq
        self._next_seq += 1
        record = {"seq": seq, **entry}
        self._fh.write(COMPACT.encode(record) + "\n")
        self._fh.flush()
        if self._fsync:
            os.fsync(self._fh.fileno())
        return seq

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "RequestJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _scan_journal(path: Path) -> tuple[list[dict[str, object]], int]:
    """Parse the journal; returns ``(entries, keep)``.

    ``keep`` is the byte offset just past the last complete entry —
    everything beyond it is a torn final write. An entry only counts
    once its terminating newline is on disk, so an unterminated final
    line is dropped even when its JSON happens to parse (the append
    never completed, hence was never acknowledged).

    Raises :class:`ValidationError` when a line *before* the last is
    unreadable — that is corruption, not an interrupted append.
    """
    entries: list[dict[str, object]] = []
    keep = 0
    cursor = 0
    lines = path.read_bytes().splitlines(keepends=True)
    for i, raw in enumerate(lines):
        cursor += len(raw)
        if not raw.endswith(b"\n"):
            break  # unterminated final write: the entry never happened
        if not raw.strip():
            keep = cursor
            continue
        try:
            entry = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            if i == len(lines) - 1:
                break  # torn final write
            raise ValidationError(
                f"{path}:{i + 1}: corrupt journal entry: {exc}") from exc
        if not isinstance(entry, dict) or "seq" not in entry:
            raise ValidationError(
                f"{path}:{i + 1}: journal entry without seq: {raw!r}")
        entries.append(entry)
        keep = cursor
    return entries, keep


def read_journal(path: str | Path) -> Iterator[dict[str, object]]:
    """Yield journal entries in order, dropping a torn final line.

    Raises :class:`ValidationError` when a line *before* the last is
    unreadable — that is corruption, not an interrupted append.
    """
    path = Path(path)
    if not path.exists():
        return
    yield from _scan_journal(path)[0]


class SnapshotManager:
    """Writes, rotates and recovers snapshot files in one directory."""

    def __init__(self, directory: str | Path, *, keep: int = 3) -> None:
        if keep < 1:
            raise ValidationError(f"keep must be >= 1, got {keep}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._keep = keep
        self._buffer = memoryview(bytearray(SNAPSHOT_BUFFER))

    def path_for(self, seq: int) -> Path:
        return self.directory / f"snapshot-{seq:010d}.json"

    def save(self, parts: Iterable[bytes], seq: int) -> Path:
        """Atomically write ``parts`` — the UTF-8 JSON of a snapshot
        document, in chunks — as the snapshot covering journal entries
        <= seq.

        The file is not fsynced before the rename: a crash can leave a
        torn ``.tmp`` or a torn newest snapshot, and both are safe —
        :meth:`load_latest` skips what does not parse, and the journal,
        never truncated behind a snapshot, replays the difference."""
        path = self.path_for(seq)
        tmp = path.with_suffix(".json.tmp")
        # Chunks gather in the manager's one buffer, allocated with it,
        # and reach the file a buffer at a time (a larger chunk goes
        # straight through): a save holds no buffer of its own.
        buffer, filled = self._buffer, 0
        with tmp.open("wb", buffering=0) as fh:
            for part in parts:
                if filled + len(part) > SNAPSHOT_BUFFER:
                    fh.write(buffer[:filled])
                    filled = 0
                if len(part) > SNAPSHOT_BUFFER:
                    fh.write(part)
                else:
                    buffer[filled:filled + len(part)] = part
                    filled += len(part)
            fh.write(buffer[:filled])
        os.replace(tmp, path)
        self._prune()
        return path

    def _prune(self) -> None:
        snapshots = sorted(self.directory.glob(_SNAPSHOT_GLOB))
        # A crash between write and rename leaves a .tmp no later save
        # reuses (the next snapshot covers a higher seq): drop those too.
        for stale in (*snapshots[:-self._keep],
                      *self.directory.glob(_SNAPSHOT_GLOB + ".tmp")):
            stale.unlink(missing_ok=True)

    def load_latest(self) -> dict[str, object] | None:
        """The newest readable snapshot document, or ``None``.

        A snapshot that fails to parse (a crash tore it: the file is not
        fsynced before its rename) is skipped in favour of the previous
        one.
        """
        for path in sorted(self.directory.glob(_SNAPSHOT_GLOB),
                           reverse=True):
            try:
                document = json.loads(path.read_bytes())
            except (OSError, ValueError):  # a torn or garbled file
                continue
            if isinstance(document, dict):
                return document
        return None

