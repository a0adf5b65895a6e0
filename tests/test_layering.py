"""The package imports only what runs.

``repro`` and ``repro.extensions`` re-export their names lazily, and the
request/restore path (``service``, ``allocators``, ``placement``, ...)
never imports ``analysis``, ``metrics``, ``ilp``, ``experiments``, scipy
or networkx. Each check runs in a fresh interpreter, since this test
process has long since imported everything.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.allocators
import repro.extensions
from repro.model.cluster import Cluster
from repro.service import AllocationClient, AllocationDaemon, \
    ClusterStateStore, place_request
from repro.workload.generator import generate_vms

SRC = Path(repro.__file__).resolve().parents[1]

#: What the request path must not load (nor any submodule of these).
HEAVY = ("repro.analysis", "repro.metrics", "repro.ilp", "repro.experiments",
         "scipy", "networkx")

_ENV = {**os.environ, "PYTHONPATH": str(SRC)}

_REPORT_HEAVY = (f"import json, sys; print(json.dumps(sorted("
                 f"m for m in sys.modules if m.startswith({HEAVY!r}))))")


def _fresh(code: str, *args: str) -> str:
    """Run ``code`` in a new interpreter; its last stdout line."""
    result = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True,
        text=True, timeout=60, env=_ENV)
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout.strip().splitlines()[-1]


def _declared(package) -> dict[str, str]:
    """``name -> module`` of the package's ``if TYPE_CHECKING:`` imports."""
    tree = ast.parse(Path(package.__file__).read_text())
    block = next(node for node in tree.body if isinstance(node, ast.If))
    return {alias.name: node.module for node in block.body
            for alias in node.names}


class TestImportCost:
    def test_import_repro_loads_no_third_party_module(self):
        loaded = json.loads(_fresh(
            "import json, sys; before = set(sys.modules); import repro; "
            "print(json.dumps(sorted(set(sys.modules) - before)))"))
        foreign = [name for name in loaded
                   if name.partition(".")[0] not in sys.stdlib_module_names
                   and name.partition(".")[0] != "repro"]
        assert foreign == []
        assert "repro.service" not in loaded

    def test_service_and_cli_skip_the_analysis_stack(self):
        heavy = json.loads(_fresh(
            "import repro.service, repro.cli; " + _REPORT_HEAVY))
        assert heavy == []

    def test_help_and_list_start_without_numpy(self):
        # ``--algorithm`` choices and ``repro list`` read the names
        # table; the allocator modules, and numpy with them, load only
        # for a command that builds an allocator.
        loaded = json.loads(_fresh(
            "import contextlib, io, json, sys\n"
            "from repro.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    try:\n"
            "        main(['--help'])\n"
            "    except SystemExit:\n"
            "        pass\n"
            "    assert main(['list']) == 0\n"
            "print(json.dumps(sorted(m for m in sys.modules\n"
            "      if m.partition('.')[0] == 'numpy'\n"
            "      or m.startswith('repro.allocators.'))))"))
        assert loaded == ["repro.allocators.names"]

    def test_serve_restore_skips_the_analysis_stack(self, tmp_path):
        store = ClusterStateStore(Cluster.paper_all_types(20))
        daemon = AllocationDaemon(store, data_dir=tmp_path,
                                  snapshot_every=10, fsync=False)
        vms = sorted(generate_vms(25, mean_interarrival=2.0, seed=3),
                     key=lambda vm: (vm.start, vm.end, vm.vm_id))
        for vm in vms:
            assert daemon.handle(place_request(vm))["ok"]
        del daemon  # a kill: the restore replays journal and snapshot

        child = subprocess.Popen(
            [sys.executable, "-c",
             "import sys; from repro.cli import main; "
             "code = main(sys.argv[1:]); " + _REPORT_HEAVY
             + "; sys.exit(code)",
             "serve", "--port", "0", "--http-port", "0",
             "--data-dir", str(tmp_path), "--restore"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=_ENV)
        try:
            for line in child.stdout:
                if line.startswith("serving on "):
                    host, _, port = line.split()[2].rpartition(":")
                    break
            else:
                pytest.fail(f"no banner: {child.stderr.read()[-2000:]}")
            with AllocationClient(host, int(port)) as client:
                assert client.stats()["placed"] == len(vms)
                client.shutdown()
            out, err = child.communicate(timeout=60)
        finally:
            if child.poll() is None:
                child.kill()
                child.communicate()
        assert child.returncode == 0, err[-2000:]
        assert json.loads(out.strip().splitlines()[-1]) == []


class TestLazyExports:
    @pytest.mark.parametrize("package", [repro, repro.extensions,
                                         repro.allocators],
                             ids=lambda p: p.__name__)
    def test_table_matches_all_and_declarations(self, package):
        table = {name: module for module, names in package._EXPORTS.items()
                 for name in names}
        assert set(table) == set(package.__all__) - {"__version__"}
        assert _declared(package) == table
        assert set(package.__all__) <= set(dir(package))

    @pytest.mark.parametrize("package", [repro, repro.extensions,
                                         repro.allocators],
                             ids=lambda p: p.__name__)
    def test_every_name_is_its_home_object(self, package):
        for module, names in package._EXPORTS.items():
            home = importlib.import_module(module)
            for name in names:
                assert getattr(package, name) is getattr(home, name), name

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            repro.no_such_name
        assert not hasattr(repro, "no_such_name")
        assert not hasattr(repro.extensions, "no_such_name")

    def test_star_import_binds_all(self):
        namespace: dict = {}
        exec("from repro import *", namespace)
        assert set(repro.__all__) <= set(namespace)

    def test_subpackage_attribute_after_bare_import(self):
        assert _fresh(
            "import repro; print(repro.analysis.energy_lower_bound.__name__)"
        ) == "energy_lower_bound"

    def test_first_use_imports_only_the_home_package(self):
        loaded = json.loads(_fresh(
            "import json, sys, repro; repro.Cluster; "
            "print(json.dumps(sorted(sys.modules)))"))
        assert "repro.model" in loaded
        assert "repro.service" not in loaded
        assert "repro.analysis" not in loaded


class TestRegistryWithoutExtensions:
    def test_fresh_registry_lists_every_allocator(self):
        names = json.loads(_fresh(
            "import json; from repro.allocators import allocator_names; "
            "print(json.dumps(allocator_names()))"))
        assert len(names) == 11
        assert {"min-energy-offline", "min-energy-longest"} <= set(names)

    def test_fresh_extensions_import_of_an_offline_class(self):
        assert _fresh(
            "from repro.extensions import OfflineMinEnergy; "
            "print(OfflineMinEnergy.name)") == "min-energy-offline"
