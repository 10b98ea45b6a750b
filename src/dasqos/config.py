"""Scenario files: strict YAML parsing with line/column diagnostics.

A scenario is one YAML document with up to five sections: flows, channel,
geometry, run, rm. Commands check for the sections they need; everything
present is validated here, and unknown keys anywhere are an error. Parsing
goes through yaml.compose rather than safe_load so every complaint can
point at the offending line.

A section's keys are the parameters of the constructor it calls: those
without a default are required, and the parameter's annotation says how
each value is read. Only geometry and the flows list itself are parsed
by hand.
"""
from __future__ import annotations

import functools
import inspect
import io
import math
from collections.abc import Callable, Container
from dataclasses import dataclass, field
from typing import Any, Literal, get_args, get_origin, get_type_hints

import yaml

from .errors import ConfigError
from .geometry import (
    DEFAULT_SPACING,
    AntennaVector,
    ClusterLayout,
    UserVector,
    cluster_from_centers,
    hex_cluster,
    symmetric_circle,
)
from .outage import ChannelParams
from .placement import RMConfig
from .traffic import (
    ArrivalModel,
    DeterministicUnit,
    GenericRenewal,
    MarkovFluidRenewal,
    Poisson,
    ServiceModel,
    TrafficFlow,
    TruncatedGeometric,
)

LINKED = "linked"  # sentinel: derive the per-attempt failure prob from E(outage)

ARRIVALS = {"poisson": Poisson, "markov_fluid": MarkovFluidRenewal, "renewal": GenericRenewal}
SERVICES = {"unit": DeterministicUnit, "truncated_geometric": TruncatedGeometric}


@dataclass(frozen=True)
class RunParams:
    seed: int = 0
    samples: int = 10_000
    horizon: int = 1_000_000
    warmup: int = 0
    output: str | None = None  # CSV path; --out overrides it, stdout when neither is set
    attempt_failure_prob: float | Literal["linked"] | None = None
    delay_convention: Literal["sojourn", "waiting"] = "sojourn"
    higher_priority_mode: Literal["gaussian", "exact_poisson"] = "gaussian"


@dataclass(frozen=True)
class ScenarioConfig:
    flows: tuple[TrafficFlow, ...] = ()
    channel: ChannelParams | None = None
    layout: ClusterLayout | None = None
    antennas: AntennaVector | None = None
    users: UserVector | None = None
    run: RunParams = field(default_factory=RunParams)
    rm: RMConfig | None = None

    def require_flows(self) -> tuple[TrafficFlow, ...]:
        if not self.flows:
            raise ConfigError("this command needs a non-empty flows section")
        return self.flows

    def require_cell(self) -> tuple[ClusterLayout, AntennaVector, ChannelParams]:
        missing = [
            name
            for name, val in (
                ("geometry", self.layout),
                ("geometry.antennas", self.antennas),
                ("channel", self.channel),
            )
            if val is None
        ]
        if missing:
            raise ConfigError(
                f"this command needs sections: {', '.join(missing)}"
            )
        return self.layout, self.antennas, self.channel


def _fail(node: yaml.Node, message: str) -> ConfigError:
    m = node.start_mark
    return ConfigError(f"{m.name}:{m.line + 1}:{m.column + 1}: {message}")


def _mapping(node: yaml.Node, what: str) -> dict[str, yaml.Node]:
    if not isinstance(node, yaml.MappingNode):
        raise _fail(node, f"{what} must be a mapping")
    out: dict[str, yaml.Node] = {}
    for key_node, value_node in node.value:
        if not isinstance(key_node, yaml.ScalarNode):
            raise _fail(key_node, "keys must be plain scalars")
        key = str(key_node.value)
        if key in out:
            raise _fail(key_node, f"duplicate key {key!r}")
        out[key] = value_node
    return out


def _sequence(node: yaml.Node, what: str) -> list[yaml.Node]:
    if not isinstance(node, yaml.SequenceNode):
        raise _fail(node, f"{what} must be a list")
    return list(node.value)


def _scalar(node: yaml.Node, what: str) -> str:
    if not isinstance(node, yaml.ScalarNode):
        raise _fail(node, f"{what} must be a scalar")
    return str(node.value)


def _float(node: yaml.Node, what: str) -> float:
    text = _scalar(node, what)
    try:
        value = float(text)
    except ValueError:
        raise _fail(node, f"{what} must be a number, got {text!r}") from None
    if math.isnan(value):
        raise _fail(node, f"{what} must not be NaN")
    return value


def _int(node: yaml.Node, what: str) -> int:
    text = _scalar(node, what)
    try:
        return int(text)
    except ValueError:
        raise _fail(node, f"{what} must be an integer, got {text!r}") from None


def _str_choice(node: yaml.Node, what: str, choices: tuple[str, ...]) -> str:
    text = _scalar(node, what)
    if text not in choices:
        raise _fail(node, f"{what} must be one of {choices}, got {text!r}")
    return text


def _reject_unknown(fields: dict[str, yaml.Node], allowed: Container[str], what: str) -> None:
    for key, node in fields.items():
        if key not in allowed:
            raise _fail(node, f"unknown key {key!r} in {what}")


def _require(fields: dict[str, yaml.Node], key: str, parent: yaml.Node, what: str) -> yaml.Node:
    if key not in fields:
        raise _fail(parent, f"{what} is missing required key {key!r}")
    return fields[key]


def _coercer(hint: Any) -> Callable[[yaml.Node, str], Any]:
    """The node-to-value function for one constructor annotation."""
    scalars = {int: _int, float: _float, str: _scalar}
    kinds = {ArrivalModel: ARRIVALS, ServiceModel: SERVICES}
    if hint in scalars:
        return scalars[hint]
    if hint in kinds:
        return functools.partial(_build_kind, kinds[hint])
    origin, args = get_origin(hint), get_args(hint)
    if origin is Literal:
        return lambda node, what: _str_choice(node, what, args)
    if origin is tuple:  # tuple[float, ...]
        item = _coercer(args[0])
        return lambda node, what: tuple(item(n, what) for n in _sequence(node, what))
    # X | None reads an X; X | Literal[words] | None reads one of the words, or else an X
    words = [w for a in args if get_origin(a) is Literal for w in get_args(a)]
    (other,) = [a for a in args if a is not type(None) and get_origin(a) is not Literal]
    coerce = _coercer(other)

    def word_or_value(node: yaml.Node, what: str) -> Any:
        text = _scalar(node, what)
        return text if text in words else coerce(node, what)

    return word_or_value


@functools.cache
def _parameters(fn: Callable, skip: tuple[str, ...]) -> dict[str, tuple[bool, Callable]]:
    """Key -> (required, coercer) for each parameter of fn not in skip."""
    hints = get_type_hints(fn)
    return {
        name: (p.default is p.empty, _coercer(hints[name]))
        for name, p in inspect.signature(fn).parameters.items()
        if name not in skip
    }


def _build(fn: Callable, node: yaml.Node, what: str,
           fields: dict[str, yaml.Node] | None = None, skip: tuple[str, ...] = ()):
    """fn called with the mapping at node, one key per parameter not in skip.

    fields is that mapping when the caller has already read it.
    """
    if fields is None:
        fields = _mapping(node, what)
    params = _parameters(fn, skip)
    _reject_unknown(fields, params, what)
    kwargs = {}
    for name, (required, coerce) in params.items():
        if required or name in fields:
            kwargs[name] = coerce(_require(fields, name, node, what), name)
    return fn(**kwargs)


def _build_kind(table: dict[str, Callable], node: yaml.Node, what: str):
    """Build the model that the mapping's kind names in table."""
    fields = _mapping(node, what)
    kind = _str_choice(_require(fields, "kind", node, what), f"{what}.kind", tuple(table))
    return _build(table[kind], node, what, {k: v for k, v in fields.items() if k != "kind"})


def _parse_flows(node: yaml.Node) -> tuple[TrafficFlow, ...]:
    flows = tuple(_build(TrafficFlow, item, "flow") for item in _sequence(node, "flows"))
    if not flows:
        raise _fail(node, "flows must not be empty")
    return flows


def _parse_geometry(
    node: yaml.Node,
) -> tuple[ClusterLayout, AntennaVector | None, UserVector | None]:
    fields = _mapping(node, "geometry")
    _reject_unknown(
        fields, {"cluster_size", "spacing", "centers", "antennas", "users"}, "geometry"
    )
    spacing = _float(fields["spacing"], "spacing") if "spacing" in fields else None
    if "centers" in fields:
        if "cluster_size" in fields:
            raise _fail(fields["cluster_size"], "give either cluster_size or centers, not both")
        centers = []
        for item in _sequence(fields["centers"], "centers"):
            pair = _sequence(item, "center")
            if len(pair) != 2:
                raise _fail(item, "each center needs exactly [x, y]")
            centers.append((_float(pair[0], "x"), _float(pair[1], "y")))
        layout = cluster_from_centers(centers, spacing)
    else:
        size = _int(fields["cluster_size"], "cluster_size") if "cluster_size" in fields else 7
        layout = hex_cluster(size, DEFAULT_SPACING if spacing is None else spacing)
    antennas = users = None
    if "antennas" in fields:
        ring = _mapping(fields["antennas"], "antennas")
        make = symmetric_circle if "count" in ring else AntennaVector
        antennas = _build(make, fields["antennas"], "antennas", ring)
    if "users" in fields:
        users = _build(UserVector, fields["users"], "users")
    return layout, antennas, users


def parse_scenario(text: str, source: str = "<config>") -> ScenarioConfig:
    """Parse and validate one scenario document.

    Raises ConfigError with a source:line:column prefix for structural
    problems; value-range problems re-raise the constructors' messages with
    the section's location attached.
    """
    stream = io.StringIO(text)
    stream.name = source  # compose() stamps every mark with the stream name
    try:
        root = yaml.compose(stream)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{source}: invalid YAML: {exc}") from exc
    if root is None:
        raise ConfigError(f"{source}: empty config")
    sections = _mapping(root, "config")
    _reject_unknown(sections, {"flows", "channel", "geometry", "run", "rm"}, "config")

    flows: tuple[TrafficFlow, ...] = ()
    channel = layout = antennas = users = rm = None
    run = RunParams()
    for key, node in sections.items():
        try:
            if key == "flows":
                flows = _parse_flows(node)
            elif key == "channel":
                channel = _build(ChannelParams, node, "channel")
            elif key == "geometry":
                layout, antennas, users = _parse_geometry(node)
            elif key == "run":
                run = _build(RunParams, node, "run")
            elif key == "rm":
                # the search's radius bounds are set in code only; a scenario
                # always searches the whole unit cell
                rm = _build(RMConfig, node, "rm", skip=("radius_bounds",))
        except ConfigError as exc:
            if str(exc).startswith(source):
                raise
            raise _fail(node, str(exc)) from exc
    return ScenarioConfig(flows, channel, layout, antennas, users, run, rm)


def load_scenario(path: str) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror}") from exc
    return parse_scenario(text, source=path)


def format_float(x: float) -> str:
    return f"{x:.9g}"


def format_antenna_block(antennas: AntennaVector) -> str:
    """Echo an antenna vector as a geometry.antennas YAML snippet.

    Full-precision floats so that re-parsing reproduces the same layout.
    """
    radii = ", ".join(f"{r:.17g}" for r in antennas.radii)
    angles = ", ".join(f"{a:.17g}" for a in antennas.angles)
    return (
        "geometry:\n"
        "  antennas:\n"
        f"    radii: [{radii}]\n"
        f"    angles: [{angles}]\n"
        f"    height: {antennas.height:.17g}\n"
    )
