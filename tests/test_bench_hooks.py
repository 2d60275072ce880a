"""The benchmark's tracing hooks still find every name they patch.

`bench/spans.py` wraps package functions in the namespaces that call them,
so renaming or dropping one of those names breaks the traced benchmark.
This check reads the module's SITES table (the module imports only the
standard library) and resolves each entry against the imported package.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _sites():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, attr) for module, attr, *_ in spans.SITES]


@pytest.mark.parametrize("module, attr", _sites())
def test_span_site_resolves(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
