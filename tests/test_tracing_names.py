"""The benchmark's tracer (perfbench/tracing.py) wraps library functions by
(module, attribute) name; a name that no longer resolves, or that a run no
longer calls by that name, breaks `perfbench/run.py --trace 1`.  The
benchmark's files are loaded here, not modified."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from bplab.cli import ExperimentConfig, run

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_names_resolve():
    tracing = _load("tracing")
    names = [entry[:2] for entry in tracing.SPANS + tracing.COUNTS]
    assert names
    missing = [f"{m}.{a}" for m, a in names if not hasattr(importlib.import_module(m), a)]
    assert not missing


@pytest.mark.parametrize("name", ["poisson-mp", "cauchy-nonherm"])
def test_declared_spans_record_calls(name, monkeypatch):
    # the tracer keeps one stack of open spans, so the trials run on one worker;
    # the config is parsed under the tracer too, so the calls of from_dict count
    tracing, workloads = _load("tracing"), _load("workloads")
    monkeypatch.setenv("BPLAB_THREADS", "1")
    tracer = tracing.Tracer()
    with tracer.installed():
        run(ExperimentConfig.from_dict(workloads.config(name, 5)))
    assert [span for span in workloads.DECLARED_SPANS[name] if not tracer.calls[span]] == []
