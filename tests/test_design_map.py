"""DESIGN.md is a map of the code, and a map has to stay true.

Every package under ``src/repro/`` is listed in §7 ("Repository
layout") with exactly its modules, every dotted ``repro.…`` name the
document puts in backticks still resolves — a module, or an attribute
chain off one — and every ``dir/file.py`` it names exists.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

import repro

DESIGN = Path(__file__).resolve().parents[1] / "DESIGN.md"
NAMES = sorted(set(re.findall(r"`(repro(?:\.\w+)+)`", DESIGN.read_text())))
SRC = Path(repro.__file__).parent
PACKAGES = sorted(path.parent.name for path in SRC.glob("*/__init__.py"))


def layout_modules(text: str) -> dict[str, set[str]]:
    """Each ``name/`` entry of §7's layout block and the modules its
    line and the deeper-indented lines under it list."""
    layout = text.partition("## 7. Repository layout")[2]
    entries: dict[str, set[str]] = {}
    current, column = None, 0
    for line in layout.splitlines():
        entry = re.match(r"^(\s+)(\w+)/(\s+)(.*)$", line)
        if entry:
            current = entries.setdefault(entry.group(2), set())
            column = sum(len(entry.group(i)) for i in (1, 3)) \
                + len(entry.group(2)) + 1
            listed = entry.group(4)
        elif current is not None and line.strip() and \
                len(line) - len(line.lstrip()) == column:
            listed = line
        else:
            current = None
            continue
        current.update(word.strip() for word in listed.split(",")
                       if word.strip())
    return entries


def test_every_package_is_in_the_layout():
    layout = DESIGN.read_text().partition("## 7. Repository layout")[2]
    assert len(PACKAGES) >= 15
    missing = [name for name in PACKAGES
               if not re.search(rf"^\s+{name}/\s", layout, re.MULTILINE)]
    assert not missing, f"not in DESIGN.md section 7: {missing}"


@pytest.mark.parametrize("package", PACKAGES)
def test_each_package_lists_exactly_its_modules(package):
    listed = layout_modules(DESIGN.read_text()).get(package, set())
    present = {path.stem for path in (SRC / package).glob("*.py")
               if path.stem != "__init__"}
    assert listed, f"DESIGN.md section 7 lists no modules for {package}/"
    assert not listed - present, \
        f"DESIGN.md section 7 lists {sorted(listed - present)} under " \
        f"{package}/, which has no such module"
    assert not present - listed, \
        f"{package}/ holds {sorted(present - listed)}, which DESIGN.md " \
        f"section 7 does not list"


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
