"""Every library name that the benchmark's tracer pins resolves on the package.

`bench/tracer.py` wraps a fixed list of each module's own names (OWN) and
of third-party names the module imports (FOREIGN); a pinned name that the
package no longer defines silently drops the metrics built on it.  The
lists are read from the tracer's source, so the tracer is neither imported
nor changed here.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _pins():
    tree = ast.parse(TRACER.read_text())
    tables = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in ("OWN", "FOREIGN"):
                tables[target.id] = ast.literal_eval(node.value)
    assert set(tables) == {"OWN", "FOREIGN"}
    return sorted(
        (module, name) for table in tables.values() for module, names in table.items()
        for name in names
    )


@pytest.mark.parametrize("module, name", _pins())
def test_pinned_name_resolves(module, name):
    owner = importlib.import_module(f"subplanck.{module}")
    if "." in name:
        cls_name, name = name.split(".")
        owner = getattr(owner, cls_name)
        assert isinstance(owner, type)
    assert name in vars(owner), f"{owner.__name__}.{name}"
    assert callable(vars(owner)[name])
