"""The benchmark's traced names must exist in eqgen.

``perfbench/spans.py`` wraps eqgen functions by name, and only ``--trace 1``
benchmark runs install it; a cut that deleted a traced name would break
those runs and nothing else. The file is loaded without writing bytecode
next to it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for module, names in spans.TRACED.items():
        home = importlib.import_module(f"eqgen.{module}")
        for qual in names:
            target = home
            for attr in qual.split("."):
                target = getattr(target, attr, None)
            if not callable(target):
                missing.append(f"{module}.{qual}")
    assert sum(map(len, spans.TRACED.values())) > 0
    assert missing == []
