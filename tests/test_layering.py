"""The package imports only what runs.

``repro`` and its subpackages re-export their names lazily, and the
request/restore path (``service``, ``allocators``, ``placement``, ...)
never imports ``analysis``, ``metrics``, ``ilp``, ``experiments``, scipy
or networkx. A daemon starts without numpy, which arrives with its first
batch probe, and without the HTTP gateway unless it serves one; a client
loads no server. Each check runs in a fresh interpreter, since this test
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
from types import SimpleNamespace

import pytest

import repro
import repro.allocators
import repro.analysis
import repro.consolidation
import repro.energy
import repro.experiments
import repro.extensions
import repro.ilp
import repro.metrics
import repro.model
import repro.obs
import repro.placement
import repro.results
import repro.robust
import repro.service
import repro.simulation
import repro.workload
from repro._lazy import lazy_exports
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


def _type_checking_block(tree: ast.Module) -> ast.If:
    """The module's top-level ``if TYPE_CHECKING:`` statement."""
    return next(node for node in tree.body if isinstance(node, ast.If)
                and isinstance(node.test, ast.Name)
                and node.test.id == "TYPE_CHECKING")


def _declared(module) -> dict[str, str]:
    """``name -> module`` of the module's ``if TYPE_CHECKING:`` imports,
    in order."""
    block = _type_checking_block(ast.parse(Path(module.__file__).read_text()))
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

    def test_analysis_packages_load_their_stack_on_first_use(self):
        heavy = json.loads(_fresh(
            "import repro.analysis, repro.experiments, repro.ilp, "
            "repro.metrics; " + _REPORT_HEAVY))
        assert heavy == ["repro.analysis", "repro.experiments", "repro.ilp",
                         "repro.metrics"]

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


#: Every package; each re-exports through ``repro._lazy``.
LAZY_PACKAGES = [repro, repro.extensions, repro.allocators, repro.service,
                 repro.model, repro.workload, repro.simulation, repro.obs,
                 repro.placement, repro.energy, repro.consolidation,
                 repro.robust, repro.analysis, repro.experiments, repro.ilp,
                 repro.metrics]

#: The lazy packages and the one plain module that re-exports lazily.
LAZY_MODULES = [*LAZY_PACKAGES, repro.results]


class TestTheClientLoadsNoServer:
    def test_client_names_load_no_daemon_allocator_or_numpy(self):
        loaded = json.loads(_fresh(
            "import json, sys\n"
            "from repro.service import AllocationClient, ClientConfig, "
            "place_request\n"
            "print(json.dumps(sorted(sys.modules)))"))
        assert "repro.service.client" in loaded
        server = [name for name in loaded
                  if name == "repro.service.daemon"
                  or name.startswith("repro.allocators.")
                  or name.partition(".")[0] == "numpy"]
        assert server == []


#: A ``repro serve`` in a thread of a fresh interpreter; once stdin
#: gives a line (the test has had its first ``ping`` answered), it
#: prints what it has loaded, then serves on to the shutdown.
_CENSUS = """
import json, sys, threading
from repro.cli import main
serve = threading.Thread(target=main, args=(sys.argv[1:],))
serve.start()
sys.stdin.readline()
loaded = sorted(sys.modules)
lines = 0
for name in loaded:
    path = getattr(sys.modules[name], "__file__", None)
    if name.partition(".")[0] == "repro" and path:
        with open(path, encoding="utf-8") as source:
            lines += sum(1 for _ in source)
print("census " + json.dumps({"loaded": loaded, "lines": lines}),
      flush=True)
serve.join()
"""

#: Source lines of the ``repro`` modules a fresh ``repro serve`` on 300
#: servers with a ``--data-dir`` holds at its first ``ping``, measured
#: (59 modules; 60 with first-fit's or the gateway's); the census allows
#: 10 % more. Before the daemon start was made lazy it held 16 838 lines
#: (87 modules) in every variant, numpy and the gateway included.
_START_LINES = {"min-energy": 13_479, "first-fit": 13_502, "http": 13_715,
                "restore": 13_479}


def _start_census(data_dir: Path, *args: str) -> tuple[dict, int]:
    """Start ``repro serve`` on ``data_dir``, ``ping`` it once, take the
    census; returns it and the daemon's ``placed`` count."""
    child = subprocess.Popen(
        [sys.executable, "-c", _CENSUS, "serve", "--port", "0",
         "--servers", "300", "--data-dir", str(data_dir), *args],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, env=_ENV)
    try:
        for line in child.stdout:
            if line.startswith("serving on "):
                host, _, port = line.split()[2].rpartition(":")
                break
        else:
            pytest.fail(f"no banner: {child.stderr.read()[-2000:]}")
        with AllocationClient(host, int(port)) as client:
            assert client.ping()["ok"]
            child.stdin.write("census\n")
            child.stdin.flush()
            for line in child.stdout:
                if line.startswith("census "):
                    census = json.loads(line.split(" ", 1)[1])
                    break
            else:
                pytest.fail(child.stderr.read()[-2000:])
            placed = client.stats()["placed"]
            client.shutdown()
        _, err = child.communicate(timeout=60)
    finally:
        if child.poll() is None:
            child.kill()
            child.communicate()
    assert child.returncode == 0, err[-2000:]
    return census, placed


def _assert_start_set(census: dict, variant: str) -> None:
    loaded = set(census["loaded"])
    assert "numpy" not in loaded
    assert "repro.placement.kernels" not in loaded
    assert "repro.service.client" not in loaded
    http = {"http.server", "repro.service.gateway"} & loaded
    assert http == (set() if variant != "http"
                    else {"http.server", "repro.service.gateway"})
    assert census["lines"] <= 1.1 * _START_LINES[variant], census["lines"]


class TestStartCensus:
    """What a daemon holds when it first answers: the code behind every
    op it can serve, and no more — no numpy before its first batch
    probe, no HTTP stack without ``--http-port``, no client."""

    @pytest.mark.parametrize("variant", ["min-energy", "first-fit", "http"])
    def test_a_fresh_daemon_loads_only_what_it_serves(self, variant,
                                                      tmp_path):
        args = {"min-energy": ["--algorithm", "min-energy"],
                "first-fit": ["--algorithm", "first-fit"],
                "http": ["--http-port", "0"]}[variant]
        census, placed = _start_census(tmp_path, *args)
        assert placed == 0
        _assert_start_set(census, variant)

    def test_a_restored_daemon_loads_only_what_it_serves(self, tmp_path):
        daemon = AllocationDaemon(
            ClusterStateStore(Cluster.paper_all_types(300)),
            data_dir=tmp_path, snapshot_every=10, fsync=False)
        for vm in sorted(generate_vms(25, mean_interarrival=2.0, seed=3),
                         key=lambda vm: (vm.start, vm.end, vm.vm_id)):
            assert daemon.handle(place_request(vm))["ok"]
        del daemon  # a kill: the restore replays journal and snapshot
        census, placed = _start_census(tmp_path, "--restore")
        assert placed == 25
        _assert_start_set(census, "restore")


class TestLazyExports:
    @pytest.mark.parametrize("package", LAZY_MODULES,
                             ids=lambda p: p.__name__)
    def test_table_matches_all_and_declarations(self, package):
        # The ``TYPE_CHECKING`` block is the table: ``__all__`` is its
        # names in order, plus what the module defines itself.
        declared = list(_declared(package))
        expected = {
            "repro": [*declared, "__version__"],
            "repro.results": ["STATUSES", "PlacementResult", *declared],
        }.get(package.__name__, declared)
        assert package.__all__ == expected
        assert set(package.__all__) <= set(dir(package))

    @pytest.mark.parametrize("package", LAZY_MODULES,
                             ids=lambda p: p.__name__)
    def test_every_name_is_its_home_object(self, package):
        for name, module in _declared(package).items():
            home = importlib.import_module(module)
            assert getattr(package, name) is getattr(home, name), name

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            repro.no_such_name
        for package in LAZY_MODULES:
            assert not hasattr(package, "no_such_name"), package.__name__

    def test_a_module_installed_without_source_fails_to_import(self):
        spec = SimpleNamespace(loader=SimpleNamespace(
            get_source=lambda name: None))
        with pytest.raises(ImportError, match="declares its exports"):
            lazy_exports({"__name__": "sourceless", "__spec__": spec})

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


def _bound_values(tree: ast.Module, name: str) -> list[ast.expr]:
    """What every assignment in ``tree`` to the name ``name`` assigns."""
    values = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        if any(isinstance(leaf, ast.Name) and leaf.id == name
               for target in targets for leaf in ast.walk(target)):
            values.append(node.value)
    return values


def _is_name_list(value: ast.expr | None) -> bool:
    return isinstance(value, (ast.List, ast.Tuple)) and all(
        isinstance(item, ast.Constant) and isinstance(item.value, str)
        for item in value.elts)


#: Every module under ``src/repro`` that re-exports through ``_lazy``.
_LAZY_SOURCES = sorted(
    path for path in (SRC / "repro").rglob("*.py")
    if "from repro._lazy import lazy_exports" in path.read_text(
        encoding="utf-8"))


class TestOneDeclarationPerName:
    """Each exported name is written once, in its module's ``if
    TYPE_CHECKING:`` block, as ``name as name``: no name table beside
    it, and no ``__all__`` that lists the names again."""

    def test_every_package_init_is_lazy(self):
        inits = sorted((SRC / "repro").rglob("__init__.py"))
        assert set(inits) <= set(_LAZY_SOURCES)
        assert sorted(".".join(path.relative_to(SRC).parent.parts)
                      for path in inits) \
            == sorted(package.__name__ for package in LAZY_PACKAGES)

    def test_no_module_binds_a_name_table(self):
        tables = [str(path.relative_to(SRC))
                  for path in sorted((SRC / "repro").rglob("*.py"))
                  if _bound_values(ast.parse(path.read_text(
                      encoding="utf-8")), "_EXPORTS")]
        assert tables == []

    @pytest.mark.parametrize("path", _LAZY_SOURCES,
                             ids=lambda path: str(path.relative_to(SRC)))
    def test_all_is_computed_from_the_block(self, path):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert not any(_is_name_list(value)
                       for value in _bound_values(tree, "__all__"))
        # ``_lazy`` reads ``from <absolute module> import <name> as
        # <name>`` only; type checkers take the redundant alias, not the
        # computed ``__all__``, as the mark of a re-export.
        for node in _type_checking_block(tree).body:
            assert isinstance(node, ast.ImportFrom) and node.level == 0, \
                ast.unparse(node)
            assert all(alias.asname == alias.name for alias in node.names), \
                ast.unparse(node)


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
