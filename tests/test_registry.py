"""The construction API: make_allocator(name, **params) and its errors."""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

import pytest

import repro
from repro.allocators import ALLOCATORS, allocator_names, make_allocator
from repro.allocators.min_energy import MinIncrementalEnergy
from repro.allocators.names import ALLOCATOR_NAMES
from repro.allocators.random_fit import RandomFit
from repro.energy import SleepPolicy
from repro.exceptions import (
    AllocatorConfigError,
    ReproError,
    ValidationError,
)
from repro.extensions import (
    LongestFirstMinEnergy,
    OfflineMinEnergy,
    WeightedMinEnergy,
)
from repro.extensions.consolidation import EpochConsolidator
from repro.simulation.admission import AdmissionController
from repro.simulation.failures import inject_failures


class TestMakeAllocator:
    def test_builds_every_registered_name(self):
        for name in allocator_names():
            assert make_allocator(name).name == name

    def test_the_cli_names_table_is_the_registry(self):
        assert list(ALLOCATOR_NAMES) == allocator_names()

    def test_forwards_seed(self):
        a = make_allocator("random-fit", seed=42)
        b = make_allocator("random-fit", seed=42)
        assert isinstance(a, RandomFit)
        assert a._rng.integers(1000) == b._rng.integers(1000)

    def test_forwards_policy_enum(self):
        allocator = make_allocator("min-energy",
                                   policy=SleepPolicy.NEVER_SLEEP)
        assert allocator._policy is SleepPolicy.NEVER_SLEEP

    def test_coerces_policy_string(self):
        allocator = make_allocator("min-energy", policy="never-sleep")
        assert allocator._policy is SleepPolicy.NEVER_SLEEP

    def test_forwards_engine(self):
        assert make_allocator("best-fit", engine="indexed:gamma=2") \
            .engine_config.spec == "indexed:gamma=2"

    def test_extension_specific_parameter(self):
        # Extensions register their own kwargs; the registry must not
        # whitelist a fixed set. WeightedMinEnergy-style params go through
        # the same path, exercised here via the common trio.
        allocator = make_allocator("ffps", seed=7, policy="always-sleep",
                                   engine="indexed:gamma=1")
        assert allocator.engine_config.spec == "indexed:gamma=1"
        assert allocator._policy is SleepPolicy.ALWAYS_SLEEP


class TestConfigErrors:
    def test_unknown_name_lists_choices(self):
        with pytest.raises(AllocatorConfigError) as err:
            make_allocator("simulated-annealing")
        for name in allocator_names():
            assert name in str(err.value)

    def test_unknown_parameter_lists_accepted(self):
        with pytest.raises(AllocatorConfigError) as err:
            make_allocator("min-energy", temperature=0.5)
        message = str(err.value)
        assert "temperature" in message
        assert "seed" in message and "policy" in message

    def test_unknown_policy_string_lists_policies(self):
        with pytest.raises(AllocatorConfigError) as err:
            make_allocator("min-energy", policy="deep-sleep")
        assert "never-sleep" in str(err.value)

    def test_unknown_engine_raises_validation_error(self):
        with pytest.raises(ValidationError, match="engine"):
            make_allocator("min-energy", engine="quantum")

    def test_error_type_is_a_validation_error(self):
        assert issubclass(AllocatorConfigError, ValidationError)
        assert issubclass(AllocatorConfigError, ReproError)
        assert repro.AllocatorConfigError is AllocatorConfigError


class TestKeywordOnlyConstruction:
    def test_positional_construction_rejected(self):
        with pytest.raises(TypeError):
            MinIncrementalEnergy(0)
        with pytest.raises(TypeError):
            RandomFit(SleepPolicy.OPTIMAL)

    def test_uniform_parameter_names(self):
        # Every registered allocator takes the same keyword trio.
        for name in allocator_names():
            allocator = make_allocator(name, seed=3, policy="optimal",
                                       engine="indexed")
            assert allocator._policy is SleepPolicy.OPTIMAL


class TestARuleIsStatedOnce:
    """An allocator file declares its rule once — a scan key, a
    ``score`` or a ``choose`` — and the base class derives the rest."""

    def test_at_most_one_declaration_per_class(self):
        for cls in {*ALLOCATORS.values(), WeightedMinEnergy,
                    OfflineMinEnergy, LongestFirstMinEnergy}:
            declared = {"score", "scan_key", "choose"} & set(vars(cls))
            assert len(declared) <= 1, (cls, declared)

    def test_a_declared_rule_is_not_restated(self):
        # round-robin and min-energy walk by their own ``_select`` (a
        # cursor; the queued walk) and keep the hooks that go with it.
        for name in ("best-fit", "worst-fit", "first-fit", "ffps",
                     "power-aware", "gamma-ff"):
            restated = {"choose", "candidate_score", "_select"} \
                & set(vars(ALLOCATORS[name]))
            assert not restated, (name, restated)

    def test_who_probes_is_decided_in_one_place(self):
        package = Path(repro.allocators.__file__).parent

        def callers(call: str) -> dict[str, int]:
            counts = {path.name: path.read_text().count(call)
                      for path in package.glob("*.py")}
            return {name: n for name, n in counts.items() if n}

        # the fill helper asks for verdicts; min-energy asks no kernel:
        # its ``_prefetch`` reads the skyline's remembered refusal, by
        # the rule the skyline's own ``admits`` reads — one nominal, one
        # Γ-robust
        assert callers("probe_fleet(") == {"base.py": 1}
        assert callers(".refuses(") == {"min_energy.py": 1}
        rules = {path.name for path in package.parent.rglob("*.py")
                 if "def refuses(" in path.read_text()}
        assert rules == {"occupancy.py", "skyline.py"}


class TestTheAllocatorOwnsItsBooks:
    """A fleet's books are built by the allocator (``books``) or by the
    live store, and decided on by one offline walk and one live loop,
    both through the per-VM rule ``offer``."""

    SOURCE = Path(repro.__file__).parent

    def _files(self) -> dict[str, str]:
        return {path.relative_to(self.SOURCE).as_posix(): path.read_text()
                for path in sorted(self.SOURCE.rglob("*.py"))}

    def test_books_are_built_in_three_files(self):
        assert {name for name, text in self._files().items()
                if "ServerState(" in text} == {
            "allocators/state.py", "allocators/base.py", "service/state.py"}

    def test_offer_is_called_by_the_two_loops(self):
        callers = set()

        def visit(node: ast.AST, scope: tuple[str, ...], name: str) -> None:
            for child in ast.iter_child_nodes(node):
                inner = scope
                if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    inner = scope + (child.name,)
                elif isinstance(child, ast.Call):
                    func = child.func
                    called = func.id if isinstance(func, ast.Name) \
                        else getattr(func, "attr", None)
                    if called == "offer":
                        callers.add((name, ".".join(scope)))
                visit(child, inner, name)

        for name, text in self._files().items():
            visit(ast.parse(text), (), name)
        assert callers == {("allocators/base.py", "Allocator._walk"),
                           ("service/daemon.py", "AllocationDaemon._decide")}

    def test_no_path_takes_a_policy_of_its_own(self):
        for owner in (AdmissionController, inject_failures,
                      EpochConsolidator):
            assert "policy" not in inspect.signature(owner).parameters, owner
