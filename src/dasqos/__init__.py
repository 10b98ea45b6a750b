"""Delay and outage workbench for prioritized uplink traffic over
distributed antennas.

The analysis half bounds queueing-delay violation for strict-priority flows
through energy (log moment generating) functions; the geometry half scores
antenna placements by expected outage and optimizes them. A slot-level
queue simulator runs the same priority systems the analysis builds. The
independent checks on each closed form (the simulator's tail fit, a fading
Monte Carlo, the replaced scalar and partial-fraction outage, the exact
binomial energy) live under tests/.

The exports load with their submodule on first use (PEP 562), so the analysis
half imports without numpy.
"""
from importlib import import_module

__version__ = "0.1.0"

# submodule -> the names the package exports from it
_EXPORTS = {
    "delay": (
        "PrioritySystem",
        "delay_decay_rate",
        "delay_violation_probability",
        "solve_phi_star",
    ),
    "energy": ("arrival_energy", "eval_energy"),
    "errors": ("ConfigError", "DasqosError", "NoRootError", "StabilityError"),
    "geometry": (
        "AntennaVector",
        "ClusterLayout",
        "UserVector",
        "antenna_polar",
        "cluster_from_centers",
        "hex_cluster",
        "sample_user_batch",
        "sample_user_vector",
        "symmetric_circle",
        "user_positions",
    ),
    "outage": (
        "CellScenario",
        "ChannelParams",
        "OutageEstimate",
        "antenna_outage_closed_form",
        "conditional_system_outage",
        "expected_outage",
        "layout_outage",
    ),
    "placement": (
        "RMConfig",
        "RMTrace",
        "SweepResult",
        "radius_sweep",
        "rm_optimize",
        "step_sequence",
    ),
    "slotsim": ("FlowStats", "SimConfig", "SimStats", "simulate"),
    "traffic": (
        "DeterministicUnit",
        "GenericRenewal",
        "MarkovFluidRenewal",
        "Poisson",
        "TrafficFlow",
        "TruncatedGeometric",
        "arrival_moments",
        "arrival_rate",
        "packet_loss_probability",
        "sample_interarrival",
        "service_moments",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
