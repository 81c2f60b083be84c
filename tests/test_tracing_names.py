"""The benchmark's tracer (perfbench/tracing.py) wraps library functions by
(module, attribute) name; a name that no longer resolves breaks
`perfbench/run.py --trace 1`.  The file is loaded here, not modified."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = [entry[:2] for entry in tracing.SPANS + tracing.COUNTS]
    assert names
    missing = [f"{m}.{a}" for m, a in names if not hasattr(importlib.import_module(m), a)]
    assert not missing
