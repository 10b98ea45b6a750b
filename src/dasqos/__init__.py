"""Delay and outage workbench for prioritized uplink traffic over
distributed antennas.

The analysis half bounds queueing-delay violation for strict-priority flows
through energy (log moment generating) functions; the geometry half scores
antenna placements by expected outage and optimizes them. A slot-level
queue simulator runs the same priority systems the analysis builds. The
independent checks on each closed form (the simulator's tail fit, a fading
Monte Carlo, the replaced scalar and partial-fraction outage, the exact
binomial energy) live under tests/.
"""
from .delay import (
    PrioritySystem,
    delay_decay_rate,
    delay_violation_probability,
    solve_phi_star,
)
from .energy import arrival_energy, eval_energy
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
    antenna_polar,
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
    conditional_system_outage,
    expected_outage,
    layout_outage,
)
from .placement import (
    RMConfig,
    RMTrace,
    SweepResult,
    radius_sweep,
    rm_optimize,
    step_sequence,
)
from .slotsim import FlowStats, SimConfig, SimStats, simulate
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
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
