"""The benchmark's tracing hooks still find every name they patch.

`bench/spans.py` wraps package functions in the namespaces that call them,
so renaming or dropping one of those names breaks the traced benchmark.
This check reads the module's SITES and CACHES tables (the module imports
only the standard library) and resolves each entry against the imported
package; every CACHES entry must still be an lru cache.
It also checks that the operator-matrix cache still builds through the
wrapped `operators.transform_matrix`, called with four positional
arguments, so the benchmark's transform counts stay truthful, and that
every table `prolate.radial_values` returns unpacks as the recurrence
counter expects.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def _sites():
    return [(module, attr) for module, attr, *_ in _spans().SITES]


@pytest.mark.parametrize("module, attr", _sites())
def test_span_site_resolves(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


@pytest.mark.parametrize("module, attr", [(module, attr) for _, module, attr in _spans().CACHES])
def test_cache_row_resolves_to_an_lru_cache(module, attr):
    cache = getattr(importlib.import_module(module), attr)
    assert callable(cache.cache_info)


def test_cache_misses_go_through_transform_matrix(monkeypatch):
    from cliffordprolate import make_cpswf, operators

    seen = []
    real = operators.transform_matrix

    def wrapped(*args, **kwargs):
        nu, c, targets, rule = args  # unpacked like the benchmark's counter
        assert not kwargs
        seen.append(targets.shape)
        return real(*args)

    monkeypatch.setattr(operators, "transform_matrix", wrapped)
    operators._cached_matrices.cache_clear()
    psi = make_cpswf(1, 2, 3, 1.0)
    operators.verify(psi)
    nodes = operators._default_rule().nodes.shape
    assert sorted(seen) == sorted([(operators.GRID_POINTS,), nodes])
    operators.verify(psi)
    assert len(seen) == 2


def test_recurrence_counter_unpacks_every_table(monkeypatch):
    # the legendre.recurrence span wraps prolate.radial_values and counts
    # `pv, _ = out; pv.size`, for a table of grouped degrees too
    import numpy as np
    from cliffordprolate import partial_sum, prolate

    calls = []
    real = prolate.radial_values
    monkeypatch.setattr(prolate, "radial_values",
                        lambda *a: calls.append((a, real(*a))) or calls[-1][1])
    partial_sum(3, 4.0, 9, 4, np.linspace(0, 1, 5))
    assert len(calls) == 2  # degrees 0..7 and 8..9
    count = _spans()._values
    for args, out in calls:
        assert len(out) == 2 and isinstance(out[0], np.ndarray)
        assert count(args, {}, out) == {"values": out[0].size} and out[0].size > 0
