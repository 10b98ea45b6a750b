"""Exception types shared across the workbench.

The CLI maps ConfigError to exit code 2 and the numerical failures
(StabilityError, NoRootError) to exit code 3.
"""
from __future__ import annotations


class DasqosError(Exception):
    """Base class for all workbench errors."""


class ConfigError(DasqosError):
    """Invalid configuration input (bad value, unknown key, missing section)."""


class StabilityError(DasqosError):
    """Aggregate load of the queried priority levels is >= 1; no steady state."""


class NoRootError(DasqosError):
    """The decay-rate root equation has no sign change on the search bracket."""
