"""Every span and counter target of the benchmark tracer names a function
that exists in `secexp`, so a renamed or deleted target fails here and not
only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("target", tracer.TARGETS, ids=lambda t: t[0])
def test_target_resolves(target):
    # the tracer's own lookup, `Cls+.meth` form included, without wrapping
    name, module_name, path, _ = target
    probe = tracer.Tracer()
    assert probe._owners(importlib.import_module(module_name), path), name
    assert probe._restore == []
