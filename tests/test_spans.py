"""The traced benchmark run wraps clotkit functions where they are bound
(perfbench/spans.py); a binding that moves or goes away fails here."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_traced_binding_exists():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = spans._targets()
    assert targets
    missing = [f"{module.__name__}.{attr}" for module, attr, *_ in targets
               if not callable(getattr(module, attr, None))]
    assert missing == []
