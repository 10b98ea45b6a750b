"""The names the benchmark's tracer reaches into must exist.

perfbench/spans.py wraps functions by module and attribute name and reads
parameters by name, so deleting or renaming one breaks traced runs
without failing any other test. This reads the tracer's source and checks
every such name against the package; it changes nothing under perfbench/.
"""
import ast
import importlib
import inspect
from dataclasses import fields
from pathlib import Path

import pytest

from dasqos.outage import expected_outage
from dasqos.placement import RMTrace
from dasqos.slotsim import FlowStats, SimConfig, SimStats

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _calls(name: str):
    """Positional arguments of every call to `name` or `self.name` in spans.py."""
    for node in ast.walk(ast.parse(SPANS.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if called == name:
                yield node.args


def _wrapped():
    """(module, attribute) for every self.span(...) and self.count(...)."""
    return sorted(
        {
            (args[0].value, args[1].value)
            for name in ("span", "count")
            for args in _calls(name)
        }
    )


def _read_parameters():
    """(module, function, parameter) for every _arg(module.function, "param")."""
    return sorted(
        (args[0].value.id, args[0].attr, args[1].value) for args in _calls("_arg")
    )


def test_tracer_source_names_hooks():
    assert len(_wrapped()) >= 10
    assert len(_read_parameters()) >= 5


@pytest.mark.parametrize("module, attr", _wrapped())
def test_wrapped_function_exists(module, attr):
    assert callable(getattr(importlib.import_module(f"dasqos.{module}"), attr, None))


@pytest.mark.parametrize("module, function, parameter", _read_parameters())
def test_read_parameter_exists(module, function, parameter):
    fn = getattr(importlib.import_module(f"dasqos.{module}"), function)
    assert parameter in inspect.signature(fn).parameters


def test_benchmark_call_signatures():
    # perfbench/run.py times expected_outage at two worker counts, and the
    # simulate span reads cfg.horizon
    assert "workers" in inspect.signature(expected_outage).parameters
    assert "horizon" in {f.name for f in fields(SimConfig)}


def test_traced_result_attributes():
    # the simulate span sums departures over stats.flows, and the
    # rm_optimize span reads the first and last trace.outage
    assert "flows" in {f.name for f in fields(SimStats)}
    assert isinstance(FlowStats.departures, property)
    assert "outage" in {f.name for f in fields(RMTrace)}
