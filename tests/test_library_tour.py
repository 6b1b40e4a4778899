"""The README's library tour names the code as it is."""

import dataclasses
import importlib
import re
from pathlib import Path

import orbitkit

README = Path(__file__).resolve().parents[1] / "README.md"


def _tour() -> dict[str, list[str]]:
    """Backticked names per module row of the '## Library tour' table."""
    text = README.read_text().split("## Library tour", 1)[1].split("\n#", 1)[0]
    rows = {}
    for line in text.splitlines():
        if line.startswith("| `orbitkit."):
            module, contents = re.split(r"(?<!\\)\|", line)[1:3]
            rows[module.strip(" `")] = re.findall(r"`([^`]+)`", contents)
    return rows


def _resolves(module, name: str) -> bool:
    """``name`` (dotted names included) is an attribute of ``module``, or
    its last part is a field of a dataclass there."""
    *owners, last = name.split(".")
    obj = module
    for part in owners:
        obj = getattr(obj, part, None)
    if hasattr(obj, last):
        return True
    return dataclasses.is_dataclass(obj) and last in {f.name for f in dataclasses.fields(obj)}


def test_every_tour_name_resolves_in_its_module():
    rows = _tour()
    assert rows
    missing = []
    for module, names in rows.items():
        mod = importlib.import_module(module)
        missing += [f"{module}: {name}" for name in names if not _resolves(mod, name)]
    assert missing == []


def test_every_exported_name_is_in_the_tour():
    rows = _tour()
    toured = {name.split(".")[0] for names in rows.values() for name in names}
    toured |= {module.rsplit(".", 1)[1] for module in rows}
    assert sorted(set(orbitkit.__all__) - toured) == []
