"""Scenario files: strict YAML parsing with line/column diagnostics.

A scenario is one YAML document with up to five sections: flows, channel,
geometry, run, rm. Commands check for the sections they need; everything
present is validated here, and unknown keys anywhere are an error. Parsing
goes through yaml.compose rather than safe_load so every complaint can
point at the offending line.
"""
from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from typing import Any

import yaml

from .errors import ConfigError
from .geometry import (
    AntennaVector,
    ClusterLayout,
    DEFAULT_HEIGHT,
    UserVector,
    cluster_from_centers,
    hex_cluster,
    symmetric_circle,
)
from .outage import ChannelParams
from .placement import RMConfig
from .traffic import (
    DeterministicUnit,
    GenericRenewal,
    MarkovFluidRenewal,
    Poisson,
    TrafficFlow,
    TruncatedGeometric,
)

LINKED = "linked"  # sentinel: derive the per-attempt failure prob from E(outage)


@dataclass(frozen=True)
class RunParams:
    seed: int = 0
    samples: int = 10_000
    horizon: int = 1_000_000
    warmup: int = 0
    output: str | None = None
    attempt_failure_prob: float | str | None = None
    delay_convention: str = "sojourn"
    higher_priority_mode: str = "gaussian"


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


def _mark(node: yaml.Node) -> str:
    m = node.start_mark
    return f"{m.name}:{m.line + 1}:{m.column + 1}"


def _fail(node: yaml.Node, message: str) -> ConfigError:
    return ConfigError(f"{_mark(node)}: {message}")


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


def _reject_unknown(fields: dict[str, yaml.Node], allowed: set[str], what: str) -> None:
    for key, node in fields.items():
        if key not in allowed:
            raise _fail(node, f"unknown key {key!r} in {what}")


def _require(fields: dict[str, yaml.Node], key: str, parent: yaml.Node, what: str) -> yaml.Node:
    if key not in fields:
        raise _fail(parent, f"{what} is missing required key {key!r}")
    return fields[key]


def _parse_arrival(node: yaml.Node):
    fields = _mapping(node, "arrival")
    kind = _str_choice(
        _require(fields, "kind", node, "arrival"),
        "arrival.kind",
        ("poisson", "markov_fluid", "renewal"),
    )
    if kind == "poisson":
        _reject_unknown(fields, {"kind", "rate"}, "arrival")
        return Poisson(_float(_require(fields, "rate", node, "arrival"), "rate"))
    if kind == "markov_fluid":
        allowed = {"kind", "rate_a", "rate_b", "weight_a", "weight_b"}
        _reject_unknown(fields, allowed, "arrival")
        return MarkovFluidRenewal(
            _float(_require(fields, "rate_a", node, "arrival"), "rate_a"),
            _float(_require(fields, "rate_b", node, "arrival"), "rate_b"),
            _float(_require(fields, "weight_a", node, "arrival"), "weight_a"),
            _float(_require(fields, "weight_b", node, "arrival"), "weight_b"),
        )
    _reject_unknown(fields, {"kind", "mean", "variance"}, "arrival")
    return GenericRenewal(
        _float(_require(fields, "mean", node, "arrival"), "mean"),
        _float(_require(fields, "variance", node, "arrival"), "variance"),
    )


def _parse_service(node: yaml.Node):
    fields = _mapping(node, "service")
    kind = _str_choice(
        _require(fields, "kind", node, "service"),
        "service.kind",
        ("unit", "truncated_geometric"),
    )
    if kind == "unit":
        _reject_unknown(fields, {"kind"}, "service")
        return DeterministicUnit()
    _reject_unknown(fields, {"kind", "failure_prob", "max_attempts"}, "service")
    return TruncatedGeometric(
        _float(_require(fields, "failure_prob", node, "service"), "failure_prob"),
        _int(_require(fields, "max_attempts", node, "service"), "max_attempts"),
    )


def _parse_flows(node: yaml.Node) -> tuple[TrafficFlow, ...]:
    flows = []
    for item in _sequence(node, "flows"):
        fields = _mapping(item, "flow")
        _reject_unknown(fields, {"priority", "name", "arrival", "service"}, "flow")
        flows.append(
            TrafficFlow(
                priority=_int(_require(fields, "priority", item, "flow"), "priority"),
                arrival=_parse_arrival(_require(fields, "arrival", item, "flow")),
                service=_parse_service(_require(fields, "service", item, "flow")),
                name=_scalar(fields["name"], "name") if "name" in fields else "",
            )
        )
    if not flows:
        raise _fail(node, "flows must not be empty")
    return tuple(flows)


def _parse_channel(node: yaml.Node) -> ChannelParams:
    fields = _mapping(node, "channel")
    allowed = {"path_loss_exponent", "spectral_efficiency", "on_probability"}
    _reject_unknown(fields, allowed, "channel")
    kwargs: dict[str, float] = {}
    for key in allowed:
        if key in fields:
            kwargs[key] = _float(fields[key], key)
    if "path_loss_exponent" not in kwargs:
        raise _fail(node, "channel is missing required key 'path_loss_exponent'")
    return ChannelParams(**kwargs)


def _parse_antennas(node: yaml.Node) -> AntennaVector:
    fields = _mapping(node, "antennas")
    if "count" in fields:
        _reject_unknown(fields, {"count", "radius", "rotation", "height"}, "antennas")
        return symmetric_circle(
            _int(fields["count"], "count"),
            _float(_require(fields, "radius", node, "antennas"), "radius"),
            _float(fields["rotation"], "rotation") if "rotation" in fields else 0.0,
            _float(fields["height"], "height") if "height" in fields else DEFAULT_HEIGHT,
        )
    _reject_unknown(fields, {"radii", "angles", "height"}, "antennas")
    radii = tuple(
        _float(n, "radius") for n in _sequence(_require(fields, "radii", node, "antennas"), "radii")
    )
    angles = tuple(
        _float(n, "angle") for n in _sequence(_require(fields, "angles", node, "antennas"), "angles")
    )
    height = _float(fields["height"], "height") if "height" in fields else DEFAULT_HEIGHT
    return AntennaVector(radii, angles, height)


def _parse_users(node: yaml.Node) -> UserVector:
    fields = _mapping(node, "users")
    _reject_unknown(fields, {"radii", "angles"}, "users")
    radii = tuple(
        _float(n, "radius") for n in _sequence(_require(fields, "radii", node, "users"), "radii")
    )
    angles = tuple(
        _float(n, "angle") for n in _sequence(_require(fields, "angles", node, "users"), "angles")
    )
    return UserVector(radii, angles)


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
        layout = hex_cluster(size, spacing if spacing is not None else 2.0)
    antennas = _parse_antennas(fields["antennas"]) if "antennas" in fields else None
    users = _parse_users(fields["users"]) if "users" in fields else None
    return layout, antennas, users


def _parse_run(node: yaml.Node) -> RunParams:
    fields = _mapping(node, "run")
    allowed = {
        "seed",
        "samples",
        "horizon",
        "warmup",
        "output",
        "attempt_failure_prob",
        "delay_convention",
        "higher_priority_mode",
    }
    _reject_unknown(fields, allowed, "run")
    kwargs: dict[str, Any] = {}
    if "seed" in fields:
        kwargs["seed"] = _int(fields["seed"], "seed")
    if "samples" in fields:
        kwargs["samples"] = _int(fields["samples"], "samples")
    if "horizon" in fields:
        kwargs["horizon"] = _int(fields["horizon"], "horizon")
    if "warmup" in fields:
        kwargs["warmup"] = _int(fields["warmup"], "warmup")
    if "output" in fields:
        kwargs["output"] = _scalar(fields["output"], "output")
    if "attempt_failure_prob" in fields:
        raw = _scalar(fields["attempt_failure_prob"], "attempt_failure_prob")
        if raw == LINKED:
            kwargs["attempt_failure_prob"] = LINKED
        else:
            kwargs["attempt_failure_prob"] = _float(
                fields["attempt_failure_prob"], "attempt_failure_prob"
            )
    if "delay_convention" in fields:
        kwargs["delay_convention"] = _str_choice(
            fields["delay_convention"], "delay_convention", ("sojourn", "waiting")
        )
    if "higher_priority_mode" in fields:
        kwargs["higher_priority_mode"] = _str_choice(
            fields["higher_priority_mode"],
            "higher_priority_mode",
            ("gaussian", "exact_poisson"),
        )
    return RunParams(**kwargs)


def _parse_rm(node: yaml.Node) -> RMConfig:
    fields = _mapping(node, "rm")
    allowed = {
        "mode",
        "step_scale",
        "step_exponent",
        "fd_step",
        "max_iter",
        "convergence_window",
        "tolerance",
        "eval_samples",
    }
    _reject_unknown(fields, allowed, "rm")
    kwargs: dict[str, Any] = {}
    if "mode" in fields:
        kwargs["mode"] = _str_choice(fields["mode"], "mode", ("radius_only", "full_polar"))
    for key in ("step_scale", "step_exponent", "fd_step", "tolerance"):
        if key in fields:
            kwargs[key] = _float(fields[key], key)
    for key in ("max_iter", "convergence_window", "eval_samples"):
        if key in fields:
            kwargs[key] = _int(fields[key], key)
    return RMConfig(**kwargs)


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
                channel = _parse_channel(node)
            elif key == "geometry":
                layout, antennas, users = _parse_geometry(node)
            elif key == "run":
                run = _parse_run(node)
            elif key == "rm":
                rm = _parse_rm(node)
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
