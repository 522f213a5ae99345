"""The benchmark's tracer (bench/spans.py) wraps package functions that it
looks up by name; a renamed or deleted one would break the traced run."""

import importlib
import importlib.util
import pathlib

from strongprops.bifurcation import PerturbationMap

SPANS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    spans = _spans_module()
    missing = [
        f"{layer}.{attr}"
        for layer, attr, _span in spans.GENERIC + spans.BY_CALLER
        if not callable(getattr(importlib.import_module(f"strongprops.{layer}"), attr, None))
    ]
    missing += [
        f"PerturbationMap.{attr}"
        for attr in ("jacobian", "evaluate")
        if not callable(getattr(PerturbationMap, attr, None))
    ]
    assert missing == []
