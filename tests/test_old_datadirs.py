"""Data dirs written before snapshot format 4 still restore.

``tests/fixtures/old_datadirs/format-{1,2,3}`` hold what the last build
writing formats 1–3 left after a kill: a newest snapshot of that format
(commits only; then a failure and a recovery; then a consolidation)
and a journal tail after it. ``expected.json`` records the ``stats``
that build answered before the kill and the decisions its restored
daemon made for a fixed follow-up stream (``generate.py`` beside them
wrote all of it). Restored here, through the replay path, each dir must
answer the same ``placed`` and ``clock`` and decide the follow-up the
same way. ``energy_total`` is now the books' running Eq.-17 sum, which
that build summed from scratch instead: the two agree to 1e-12 relative
(a failure's or an episode's cut rounds differently; docs/service.md),
and bit for bit with a restore of the same dir from its journal alone.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.service import AllocationDaemon

FIXTURES = Path(__file__).parent / "fixtures" / "old_datadirs"
EXPECTED = json.loads((FIXTURES / "expected.json").read_text())


@pytest.mark.parametrize("version", [1, 2, 3])
def test_an_old_data_dir_restores_to_what_its_build_answered(
        tmp_path, version):
    recorded = EXPECTED[f"format-{version}"]
    data_dir = tmp_path / "data"
    shutil.copytree(FIXTURES / f"format-{version}", data_dir)
    newest = max(data_dir.glob("snapshot-*.json"))
    assert json.loads(newest.read_text())["format_version"] == version
    journal_only = tmp_path / "journal-only"
    journal_only.mkdir()
    shutil.copy(data_dir / "journal.jsonl", journal_only)
    replayed = AllocationDaemon.restore(journal_only, fsync=False)
    replayed.journal.close()
    daemon = AllocationDaemon.restore(data_dir, fsync=False)
    try:
        stats = daemon.handle({"op": "stats"})
        assert (stats["placed"], stats["clock"]) == \
            (recorded["stats"]["placed"], recorded["stats"]["clock"])
        assert stats["energy_total"] == pytest.approx(
            float.fromhex(recorded["energy_total_hex"]), rel=1e-12)
        assert stats["energy_total"] == replayed.store.energy_total()
        decisions = []
        for request in EXPECTED["follow_up_requests"]:
            response = daemon.handle(request)
            assert response["ok"], response
            decisions.append([response["decision"],
                              response.get("server_id"),
                              response.get("delay", 0)])
        assert decisions == recorded["follow_up"]
    finally:
        daemon.journal.close()
