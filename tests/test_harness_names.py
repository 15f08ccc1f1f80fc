"""The benchmark's span tracer (``perfbench/spans.py``) replaces names in
terna's modules from outside; a name that is no longer bound there breaks
every traced run.  This checks each of them here, in the fast suite, with
the tracer loaded by file path and left as it is."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_wrapped() -> dict[str, dict[str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPPED


@pytest.mark.parametrize("mod, attr", [(mod, attr) for mod, attrs in load_wrapped().items() for attr in attrs])
def test_wrapped_name_is_bound(mod, attr):
    assert callable(getattr(importlib.import_module(mod), attr, None))
