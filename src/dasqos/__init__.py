"""Delay and outage workbench for prioritized uplink traffic over
distributed antennas.

The analysis half bounds queueing-delay violation for strict-priority flows
through energy (log moment generating) functions; the geometry half scores
antenna placements by expected outage and optimizes them. Every closed form
has a simulation twin: a slot-level queue simulator and a fading Monte
Carlo, wired to the same parameter objects.
"""
from .delay import (
    PrioritySystem,
    delay_decay_rate,
    delay_violation_probability,
    four_flow_delay,
    solve_phi_star,
)
from .energy import (
    AsymptoticRenewal,
    ExactBinomial,
    ExactPoisson,
    arrival_energy,
    binomial_asymptotic,
    binomial_energy_gap,
    eval_energy,
)
from .errors import (
    ConfigError,
    DasqosError,
    NoRootError,
    StabilityError,
)
from .geometry import (
    AntennaVector,
    ClusterLayout,
    UserVector,
    antenna_user_distance,
    cluster_from_centers,
    hex_cluster,
    sample_user_batch,
    sample_user_vector,
    symmetric_circle,
    user_positions,
)
from .outage import (
    CellScenario,
    ChannelParams,
    OutageEstimate,
    antenna_outage_closed_form,
    antenna_outage_mc,
    conditional_system_outage,
    expected_outage,
    product_form_outage,
    system_outage,
)
from .placement import (
    RMConfig,
    RMTrace,
    SweepResult,
    radius_sweep,
    rm_optimize,
    step_sequence,
)
from .slotsim import (
    ComparisonReport,
    FlowStats,
    SimConfig,
    SimStats,
    compare_with_analysis,
    simulate,
)
from .traffic import (
    DeterministicUnit,
    GenericRenewal,
    MarkovFluidRenewal,
    Poisson,
    TrafficFlow,
    TruncatedGeometric,
    arrival_moments,
    arrival_rate,
    packet_loss_probability,
    sample_interarrival,
    service_moments,
    service_pgf,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
