"""The names the benchmark reaches into must exist.

perfbench/spans.py wraps functions by module and attribute name and reads
parameters by name, and perfbench/run.py, workloads.py and references.py
import dasqos names or reach them by attribute (dasqos.cli.main), so
deleting or renaming one breaks the benchmark without failing any other
test. This reads the benchmark's source and checks every such name against
the package; it changes nothing under perfbench/.
"""
import ast
import importlib
import inspect
import re
from dataclasses import fields
from pathlib import Path

import pytest

from dasqos.outage import expected_outage
from dasqos.placement import RMTrace
from dasqos.slotsim import FlowStats, SimConfig, SimStats

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = BENCH / "spans.py"
# the scripts that import dasqos; spans.py is read by the tests below it
DRIVERS = ("run.py", "workloads.py", "references.py")


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
    # perfbench/run.py passes expected_outage workers=1 and workers=2 (the
    # parameter is inert; both take one thread), and the simulate span reads
    # cfg.horizon
    assert "workers" in inspect.signature(expected_outage).parameters
    assert "horizon" in {f.name for f in fields(SimConfig)}


def test_traced_result_attributes():
    # the simulate span sums departures over stats.flows, and the
    # rm_optimize span reads the first and last trace.outage
    assert "flows" in {f.name for f in fields(SimStats)}
    assert isinstance(FlowStats.departures, property)
    assert "outage" in {f.name for f in fields(RMTrace)}


def _trees(path: Path):
    """A script's syntax tree, and that of each code string in it that
    imports dasqos (run.py times a fresh interpreter running one)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and re.search(r"^import dasqos", str(node.value), re.M):
            yield ast.parse(node.value)


def _dotted(node: ast.AST) -> list[str] | None:
    """["a", "b", "c"] for the expression a.b.c, None for anything else."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        head = _dotted(node.value)
        return None if head is None else head + [node.attr]
    return None


def _driver_names():
    """Every dotted dasqos name the drivers import or reach by attribute."""
    names = set()
    for script in DRIVERS:
        for tree in _trees(BENCH / script):
            bound = {}  # local name -> the dasqos module it is bound to
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "dasqos":
                    for alias in node.names:
                        names.add(f"{node.module}.{alias.name}")
                        bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
                elif isinstance(node, ast.Import):
                    for alias in node.names:
                        if alias.name.split(".")[0] == "dasqos":
                            names.add(alias.name)
                            bound["dasqos"] = "dasqos"
            for node in ast.walk(tree):
                parts = _dotted(node) if isinstance(node, ast.Attribute) else None
                if parts and parts[0] in bound:
                    names.add(".".join([bound[parts[0]]] + parts[1:]))
    return sorted(names)


def _resolve(dotted: str):
    """The object a dotted name points to, importing submodules on the way."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        if not hasattr(obj, part):
            importlib.import_module(".".join(parts[:i]))
        obj = getattr(obj, part)
    return obj


def test_driver_source_names_hooks():
    names = _driver_names()
    for name in ("dasqos.cli.main", "dasqos.cli.load_scenario", "dasqos.outage.expected_outage"):
        assert name in names


@pytest.mark.parametrize("dotted", _driver_names())
def test_driver_name_exists(dotted):
    _resolve(dotted)
