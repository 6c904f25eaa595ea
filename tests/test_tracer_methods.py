"""The benchmark tracer (``perfbench/spans.py``) wraps the methods in its
``METHODS`` on their classes, and ``spans.install`` raises ``KeyError`` when
one is missing from its class's ``__dict__``.  Some of them, such as
``Poly.eval_float`` and ``OperatorMatrix.shifted_rows``, have no caller in the
library, so without this test only a traced benchmark run would notice that
one was removed or moved to a base class.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _traced_methods():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.METHODS


@pytest.mark.parametrize("module, cls, method", _traced_methods())
def test_traced_method_is_defined_on_its_class(module, cls, method):
    owner = getattr(importlib.import_module(f"specpoly.{module}"), cls)
    assert method in vars(owner)
