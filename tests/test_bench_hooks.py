"""The benchmark's tracing hooks still find every name they patch.

`bench/spans.py` wraps package functions in the namespaces that call them,
so renaming or dropping one of those names breaks the traced benchmark.
This check reads the module's SITES and CACHES tables (the module imports
only the standard library) and resolves each entry against the imported
package; every CACHES entry must still be an lru cache.
It also checks that the operator-matrix cache still builds G_c's grid
matrix through the wrapped `operators.transform_matrix`, called with four
positional arguments, so the benchmark's transform counts stay truthful, and that
every table `prolate.radial_values` returns unpacks as the recurrence
counter expects, and that every name the package keeps only for a span
hook (a line marked so) is still a SITES or CACHES row: a shim goes with
its row.
"""

import importlib
import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPANS_PATH = ROOT / "bench" / "spans.py"
SHIM_MARK = "(kept for the benchmark's span hooks)"


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


def _shims():
    """(module, line, name) of each package line marked SHIM_MARK: an
    import, or an alias `a = b`, kept only for a span hook.  name is None
    if the line does not parse."""
    shim = re.compile(r"(?:from \.\w+ import (\w+)  # noqa: F401  |(\w+) = \w+  # )"
                      + re.escape(SHIM_MARK))
    out = []
    for path in sorted((ROOT / "src" / "cliffordprolate").glob("*.py")):
        for line in path.read_text().splitlines():
            if SHIM_MARK in line:
                found = shim.fullmatch(line)
                out.append((f"cliffordprolate.{path.stem}", line, found and (found[1] or found[2])))
    return out


@pytest.mark.parametrize("module, line, name", _shims(),
                         ids=[f"{module}.{name}" for module, _, name in _shims()])
def test_every_benchmark_shim_is_a_span_row(module, line, name):
    assert name is not None, f"cannot read the shim {line!r}"
    rows = set(_sites()) | {(module, attr) for _, module, attr in _spans().CACHES}
    assert (module, name) in rows, f"{module}.{name} is kept for no SITES or CACHES row"


def test_shim_finder_sees_the_alias():
    assert ("cliffordprolate.monogenics", "basis_3d") in {(module, name)
                                                         for module, _, name in _shims()}


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
    assert seen == [(operators.GRID_POINTS,)]  # QP_c's matrix comes from the Lommel kernel
    operators.verify(psi)
    assert len(seen) == 1


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
