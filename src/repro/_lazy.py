"""PEP 562 re-exports for the package ``__init__`` modules.

:mod:`repro` and its subpackages publish names that live in their
submodules. Rather than import every submodule when the package loads,
each ``__init__`` declares where its names live and takes a module
``__getattr__`` that imports the home module on first access and caches
the value in the package namespace, so later reads are plain lookups.
"""

from __future__ import annotations

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


def lazy_exports(
    namespace: dict[str, Any], exports: dict[str, tuple[str, ...]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` of the package whose globals are
    ``namespace``.

    ``exports`` maps each home module to the names it provides. A name
    outside it that is a submodule of the package (``repro.analysis``
    after a bare ``import repro``) is imported too; any other name raises
    :class:`AttributeError`. A plain module (no ``__path__``: the
    aliases of :mod:`repro.results`) has no submodules to try.
    """
    package = namespace["__name__"]
    homes = {name: module for module, names in exports.items()
             for name in names}
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

    return __getattr__, __dir__
