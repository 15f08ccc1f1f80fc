"""The benchmark (``perfbench/``) reaches into terna from outside: its span
tracer (``perfbench/spans.py``) replaces names in terna's modules, and its
workloads (``perfbench/workloads.py``) import public names.  A name that is
no longer bound there breaks every run of the benchmark.  This checks each
of them here, in the fast suite, with both files loaded by path and left as
they are."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # a module's dataclasses look it up in sys.modules while it runs
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.mark.parametrize("mod, attr", [(mod, attr) for mod, attrs in load("spans").WRAPPED.items() for attr in attrs])
def test_wrapped_name_is_bound(mod, attr):
    assert callable(getattr(importlib.import_module(mod), attr, None))


def test_workload_imports_are_bound():
    # an import of a removed name raises ImportError here
    assert load("workloads").WITNESS_CLAUSE_IDS


def test_value_mask_is_traced_under_attainable():
    # the benchmark reads the sieve's spans by name: exceptional_set must
    # reach value_mask through attainable, each by its module global, so
    # that both are traced and the first is a child of the second
    from terna import PolySum, exceptional_set

    tracer = load("spans").Tracer()
    with tracer.installed():
        exceptional_set(PolySum.of((2, 1), (3, 1), (7, 1)), 10**4)
    masks = [i for i, name in enumerate(tracer.names) if name == "search.value_mask"]
    assert masks
    assert all(tracer.parent[i] >= 0 and tracer.names[tracer.parent[i]] == "search.attainable" for i in masks)


# The benchmark passes two inputs that no longer change anything: the third
# argument of exceptional_set (positional in workloads._sparse_ops, by
# keyword in run.sieve_peak) and --threads 2 on every sieving command of
# sieve-dense.  Both must stay accepted, and inert, until it stops.


def test_exceptional_set_takes_the_unused_workers_argument():
    from terna import DiagonalForm, PolySum, exceptional_set

    for form, limit in ((PolySum.of((2, 1), (3, 1), (6, 1)), 1000), (DiagonalForm((1, 1, 1)), 1000)):
        plain = exceptional_set(form, limit).exceptions
        assert plain and exceptional_set(form, limit, 1).exceptions == plain
        assert exceptional_set(form, limit, workers=1).exceptions == plain


@pytest.mark.parametrize(
    "argv",
    [
        ["exceptions", "x^2+y^2+z^2", "--limit", "2000", "--json", "--no-timing"],
        ["conjecture", "--limit", "200"],
        ["scan-remark21", "--limit", "200"],
        ["bridge", "--remark12", "--limit", "200"],
        ["crosscheck", "--family", "gauss", "--limit", "2000"],
    ],
    ids=lambda argv: argv[0],
)
def test_sieving_commands_ignore_threads(capsys, argv):
    from terna import cli

    assert cli.main(argv) == 0
    plain = capsys.readouterr().out
    assert cli.main([*argv, "--threads", "2"]) == 0
    assert plain and capsys.readouterr().out == plain
    assert cli.main([*argv, "--threads", "0"]) == 2
    assert capsys.readouterr().out == ""
