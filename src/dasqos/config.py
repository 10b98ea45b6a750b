"""Scenario files: strict YAML parsing with line/column diagnostics.

A scenario is one YAML document with up to five sections: flows, channel,
geometry, run, rm. Commands check for the sections they need; everything
present is validated here, and unknown keys anywhere are an error. Parsing
goes through yaml.compose rather than safe_load: the node tree keeps each
value's line and column, so every complaint can point at the offending
line. The composer is libyaml's (yaml.CSafeLoader) when the installed
PyYAML has it: over 10x faster than the pure-Python SafeLoader, which remains
the path on a PyYAML built without libyaml. Both build the same nodes with
the same marks, except on a few inputs: libyaml accepts a tab after "key:"
and a "?" inside a flow scalar, counts a U+FEFF past the first character
as a column, and marks an empty flow value at the next indicator. It also
words the body of an invalid-YAML message its own way.

A section's keys are the parameters of the constructor it calls: those
without a default are required, and the parameter's annotation says how
each value is read. Only geometry and the flows list itself are parsed
by hand.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import io
import math
from collections.abc import Callable, Container
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Literal, get_args, get_origin, get_type_hints

import yaml

from .delay import HigherPriorityMode
from .errors import ConfigError
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

if TYPE_CHECKING:  # these modules load numpy; a section that needs one imports it
    from .geometry import AntennaVector, ClusterLayout, UserVector
    from .outage import ChannelParams
    from .placement import RMConfig

# the fastest composer the installed PyYAML has; both stamp name/line/column marks
LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

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
    higher_priority_mode: HigherPriorityMode = "gaussian"

    def __post_init__(self) -> None:
        if self.seed < 0:  # numpy seeds only non-negative integers
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        # the only checks on these values, run at parse time and again when main
        # applies --seed/--samples: SimConfig, expected_outage and radius_sweep
        # take them as given
        p = self.attempt_failure_prob
        if p not in (None, LINKED) and not 0.0 <= p <= 1.0:
            raise ConfigError(f"attempt failure probability must be in [0, 1], got {p}")
        if not self.horizon > self.warmup >= 0:
            raise ConfigError(f"need horizon > warmup >= 0, got {self.horizon}, {self.warmup}")
        if self.samples < 2:
            raise ConfigError(f"need at least 2 samples, got {self.samples}")


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


def parse_number(text: str, what: str) -> float:
    """The number rule for every float a scenario or a CLI grid gives:
    text that float() reads, not NaN and finite, or a ConfigError naming what."""
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"{what} must be a number, got {text!r}") from None
    if math.isnan(value):
        raise ConfigError(f"{what} must not be NaN")
    if math.isinf(value):
        raise ConfigError(f"{what} must be finite, got {text!r}")
    return value


def _float(node: yaml.Node, what: str) -> float:
    text = _scalar(node, what)
    with _located(node):
        return parse_number(text, what)


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
def _parameters(fn: Callable) -> dict[str, tuple[bool, Callable]]:
    """Key -> (required, coercer) for each parameter of fn."""
    hints = get_type_hints(fn)
    return {
        name: (p.default is p.empty, _coercer(hints[name]))
        for name, p in inspect.signature(fn).parameters.items()
    }


def _build(fn: Callable, node: yaml.Node, what: str, fields: dict[str, yaml.Node] | None = None):
    """fn called with the mapping at node, one key per parameter.

    fields is that mapping when the caller has already read it. A value
    that fn rejects is reported at node, the mapping that holds it; a value
    that cannot be read at all, at the value itself.
    """
    if fields is None:
        fields = _mapping(node, what)
    params = _parameters(fn)
    _reject_unknown(fields, params, what)
    kwargs = {}
    for name, (required, coerce) in params.items():
        if required or name in fields:
            kwargs[name] = coerce(_require(fields, name, node, what), name)
    with _located(node):
        return fn(**kwargs)


def _build_kind(table: dict[str, Callable], node: yaml.Node, what: str):
    """Build the model that the mapping's kind names in table."""
    fields = _mapping(node, what)
    kind = _str_choice(_require(fields, "kind", node, what), f"{what}.kind", tuple(table))
    return _build(table[kind], node, what, {k: v for k, v in fields.items() if k != "kind"})


@contextlib.contextmanager
def _located(node: yaml.Node):
    """Prefix a ConfigError raised inside, which has no location, with node's.

    The scopes never nest: each wraps one call that takes values already read.
    """
    try:
        yield
    except ConfigError as exc:
        raise _fail(node, str(exc)) from exc


def _parse_flows(node: yaml.Node) -> tuple[TrafficFlow, ...]:
    flows = [_build(TrafficFlow, item, "flow") for item in _sequence(node, "flows")]
    if not flows:
        raise _fail(node, "flows must not be empty")
    priorities = [f.priority for f in flows]
    for k, item in enumerate(node.value):
        if priorities[k] in priorities[:k]:
            raise _fail(item, f"duplicate priorities: {sorted(priorities)}")
    return tuple(flows)


def _parse_geometry(
    node: yaml.Node,
) -> tuple[ClusterLayout, AntennaVector | None, UserVector | None]:
    from .geometry import AntennaVector, ClusterLayout, UserVector, hex_cluster, symmetric_circle

    fields = _mapping(node, "geometry")
    _reject_unknown(
        fields, {"cluster_size", "spacing", "centers", "antennas", "users"}, "geometry"
    )
    # hex_cluster gets only the keys the scenario gives; its defaults fill the rest
    given = {"spacing": _float(fields["spacing"], "spacing")} if "spacing" in fields else {}
    if "centers" in fields:
        if "cluster_size" in fields:
            raise _fail(fields["cluster_size"], "give either cluster_size or centers, not both")
        centers = []
        for item in _sequence(fields["centers"], "centers"):
            pair = _sequence(item, "center")
            if len(pair) != 2:
                raise _fail(item, "each center needs exactly [x, y]")
            centers.append((_float(pair[0], "x"), _float(pair[1], "y")))
        with _located(node):
            layout = ClusterLayout(tuple(centers), given.get("spacing"))
    else:
        if "cluster_size" in fields:
            given["size"] = _int(fields["cluster_size"], "cluster_size")
        with _located(node):
            layout = hex_cluster(**given)
    antennas = users = None
    if "antennas" in fields:
        ring = _mapping(fields["antennas"], "antennas")
        make = symmetric_circle if "count" in ring else AntennaVector
        antennas = _build(make, fields["antennas"], "antennas", ring)
    if "users" in fields:
        users = _build(UserVector, fields["users"], "users")
        if users.count != layout.size:  # one user per cell, as user_coordinates needs
            raise _fail(
                fields["users"], f"user vector has {users.count} entries for {layout.size} cells"
            )
    return layout, antennas, users


def parse_scenario(text: str, source: str = "<config>") -> ScenarioConfig:
    """Parse and validate one scenario document.

    Raises ConfigError with a source:line:column prefix. A structural
    problem points at the node at fault; a value that a constructor rejects
    points at the mapping that holds it: the section for channel, run and
    rm, the flow item, its arrival or service mapping, geometry.antennas,
    geometry.users, or the geometry section for the cluster.
    """
    stream = io.StringIO(text)
    stream.name = source  # compose() stamps every mark with the stream name
    try:
        root = yaml.compose(stream, Loader=LOADER)
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
        if key == "flows":
            flows = _parse_flows(node)
        elif key == "channel":
            from .outage import ChannelParams

            channel = _build(ChannelParams, node, "channel")
        elif key == "geometry":
            layout, antennas, users = _parse_geometry(node)
        elif key == "run":
            run = _build(RunParams, node, "run")
        elif key == "rm":
            from .placement import RMConfig

            rm = _build(RMConfig, node, "rm")
    return ScenarioConfig(flows, channel, layout, antennas, users, run, rm)


def load_scenario(path: str) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(
            f"{path}: not UTF-8: byte 0x{exc.object[exc.start]:02x} at offset {exc.start}"
        ) from exc
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
