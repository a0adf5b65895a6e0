"""PEP 562 re-exports for the package ``__init__`` modules.

:mod:`repro` and its subpackages publish names that live in their
submodules. Rather than import every submodule when the package loads,
each ``__init__`` declares its names once, as ``from ... import name as
name`` statements in an ``if TYPE_CHECKING:`` block: the interpreter
skips it, and type checkers take the redundant alias as a re-export
(they do not evaluate a computed ``__all__``). :func:`lazy_exports`
parses the block from the module's source (so the ``.py`` files must be
installed) and gives the module a ``__getattr__`` that imports the home
module on first access and caches the value in the package namespace.
"""

from __future__ import annotations

import ast
import importlib
import sys
from types import ModuleType
from typing import Any, Callable


class _ExportsOverSubmodules(ModuleType):
    """A package one of whose names is also the submodule it lives in
    (``repro.workload.characterize``, the function, in
    ``repro/workload/characterize.py``). Importing that submodule binds
    it on the package, over the name; this binds the name back, as an
    eager ``from ... import`` in the ``__init__`` would have left it."""

    def __setattr__(self, name: str, value: Any) -> None:
        if isinstance(value, ModuleType) \
                and value.__name__ == f"{self.__name__}.{name}" \
                and name in self.__dict__.get("__all__", ()):
            value = getattr(value, name)
        super().__setattr__(name, value)


def _declared_homes(source: str) -> dict[str, str]:
    """``name -> home module`` of the ``from ... import`` statements in
    the top-level ``if TYPE_CHECKING:`` block of ``source``, in order."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name) \
                and node.test.id == "TYPE_CHECKING":
            return {alias.name: statement.module
                    for statement in node.body
                    if isinstance(statement, ast.ImportFrom)
                    for alias in statement.names}
    return {}


def lazy_exports(namespace: dict[str, Any]) -> tuple[
        Callable[[str], Any], Callable[[], list[str]], list[str]]:
    """``(__getattr__, __dir__, __all__)`` of the module whose globals
    are ``namespace``, from its ``if TYPE_CHECKING:`` block.

    A name outside the block that is a submodule of the package
    (``repro.analysis`` after a bare ``import repro``) is imported too;
    any other name raises :class:`AttributeError`. A plain module
    (:mod:`repro.results`) has no submodules to try.
    """
    package = namespace["__name__"]
    source = namespace["__spec__"].loader.get_source(package)
    if source is None:  # installed without its .py files
        raise ImportError(f"{package} declares its exports in its source, "
                          f"which is not installed", name=package)
    homes = _declared_homes(source)
    is_package = "__path__" in namespace
    if any(home == f"{package}.{name}" for name, home in homes.items()):
        sys.modules[package].__class__ = _ExportsOverSubmodules

    def __getattr__(name: str) -> Any:
        home = homes.get(name)
        if home is None:
            if is_package:
                try:
                    return importlib.import_module(f"{package}.{name}")
                except ModuleNotFoundError as exc:
                    if exc.name != f"{package}.{name}":
                        raise
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(home), name)
        namespace[name] = value  # later reads skip __getattr__
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(namespace["__all__"]))

    return __getattr__, __dir__, list(homes)
