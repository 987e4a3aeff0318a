"""The traced benchmark run wraps every ``(module, name)`` of
``perfbench/spans.py`` ``TARGETS``, and ``Recorder.install`` raises on a
name that is gone: each must resolve in ``mahler``. ``spans.py`` is parsed,
not imported, so that this test only reads ``perfbench/``."""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _targets():
    tree = ast.parse(SPANS.read_text())
    value = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"])
    return [(entry.elts[0].value, entry.elts[1].value) for entry in value.elts]


def test_span_targets_resolve():
    targets = _targets()
    assert len(targets) > 20
    missing = [(module, name) for module, name in targets
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert missing == []
