"""DESIGN.md is a map of the code, and a map has to stay true.

Every package under ``src/repro/`` is listed in §7 ("Repository
layout"), every dotted ``repro.…`` name the document puts in backticks
still resolves — a module, or an attribute chain off one — and every
``dir/file.py`` it names exists.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

import repro

DESIGN = Path(__file__).resolve().parents[1] / "DESIGN.md"
NAMES = sorted(set(re.findall(r"`(repro(?:\.\w+)+)`", DESIGN.read_text())))


def test_every_package_is_in_the_layout():
    layout = DESIGN.read_text().partition("## 7. Repository layout")[2]
    packages = sorted(path.parent.name for path
                      in Path(repro.__file__).parent.glob("*/__init__.py"))
    assert len(packages) >= 15
    missing = [name for name in packages
               if not re.search(rf"^\s+{name}/\s", layout, re.MULTILINE)]
    assert not missing, f"not in DESIGN.md section 7: {missing}"


@pytest.mark.parametrize("name", NAMES)
def test_every_mentioned_name_resolves(name):
    # Import the longest module prefix, then walk the attributes.
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attribute in parts[cut:]:
            target = getattr(target, attribute)
        return
    raise AssertionError(f"DESIGN.md names {name}, which does not import")


def test_the_request_path_is_named_and_its_files_exist():
    assert "repro.service.daemon.AllocationDaemon.handle" in NAMES
    root = DESIGN.parent
    files = set(re.findall(r"`(\w+/\w+\.py)`", DESIGN.read_text()))
    assert "service/daemon.py" in files
    for path in sorted(files):
        assert (root / path).is_file() or \
            (root / "src" / "repro" / path).is_file(), path
