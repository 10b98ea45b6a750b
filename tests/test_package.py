"""The package's exports: a pinned list, each loaded from its submodule on
first use."""
import sys

import pytest

import dasqos

EXPORTS = [
    "AntennaVector",
    "CellScenario",
    "ChannelParams",
    "ClusterLayout",
    "ConfigError",
    "DasqosError",
    "DeterministicUnit",
    "FlowStats",
    "GenericRenewal",
    "MarkovFluidRenewal",
    "NoRootError",
    "OutageEstimate",
    "Poisson",
    "PrioritySystem",
    "RMConfig",
    "RMTrace",
    "SimConfig",
    "SimStats",
    "StabilityError",
    "SweepResult",
    "TrafficFlow",
    "TruncatedGeometric",
    "UserVector",
    "antenna_outage_closed_form",
    "antenna_polar",
    "arrival_energy",
    "arrival_moments",
    "arrival_rate",
    "cluster_from_centers",
    "conditional_system_outage",
    "delay_decay_rate",
    "delay_violation_probability",
    "eval_energy",
    "expected_outage",
    "hex_cluster",
    "layout_outage",
    "packet_loss_probability",
    "radius_sweep",
    "rm_optimize",
    "sample_interarrival",
    "sample_user_batch",
    "sample_user_vector",
    "service_moments",
    "simulate",
    "solve_phi_star",
    "step_sequence",
    "symmetric_circle",
    "user_positions",
]


def test_exports_are_pinned_and_are_their_submodules_objects():
    assert sorted(dasqos.__all__) == EXPORTS
    for name in EXPORTS:
        obj = getattr(dasqos, name)
        home = sys.modules[obj.__module__]
        assert home.__name__.startswith("dasqos."), name
        assert getattr(home, name) is obj, name


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from dasqos import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == EXPORTS


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'numpy'"):
        dasqos.numpy  # noqa: B018
    assert not hasattr(dasqos, "no_such_name")
    assert set(EXPORTS) <= set(dir(dasqos))
