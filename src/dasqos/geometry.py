"""Cell-cluster geometry: cell centers, antenna rings, and user draws.

Cells are unit-radius disks. The co-channel cluster has the target cell at
the origin plus, for the hexagonal layout, six neighbors at center spacing
`spacing` and angles k*pi/3. Antennas live at polar (radius, angle) around
the target cell center with a common mast height; link distances are 3-D:
sqrt(planar^2 + height^2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

TWO_PI = 2.0 * math.pi

DEFAULT_SPACING = 2.0  # tangent unit disks
DEFAULT_HEIGHT = 0.05


@dataclass(frozen=True)
class ClusterLayout:
    """Cell centers sharing one channel; the target cell is centers[0]."""

    centers: tuple[tuple[float, float], ...]
    spacing: float | None = None

    def __post_init__(self) -> None:
        if self.spacing is not None and self.spacing <= 0.0:
            raise ConfigError(f"center spacing must be > 0, got {self.spacing}")
        if len(self.centers) < 1:
            raise ConfigError("cluster needs at least one cell")
        x0, y0 = self.centers[0]
        if x0 != 0.0 or y0 != 0.0:
            raise ConfigError("target cell center must sit at the origin")

    @property
    def size(self) -> int:
        return len(self.centers)

    def center_array(self) -> np.ndarray:
        return np.asarray(self.centers, dtype=float)


def hex_cluster(size: int = 7, spacing: float = DEFAULT_SPACING) -> ClusterLayout:
    """Target cell plus a ring of six co-channel neighbors at angles k*pi/3.

    Only size 1 (no interferers) and size 7 have a canonical hex layout;
    other sizes must come in as explicit ClusterLayout centers.
    """
    if size == 1:
        return ClusterLayout(((0.0, 0.0),), spacing)
    if size != 7:
        raise ConfigError(
            f"no canonical hex layout for {size} cells; supply explicit centers"
        )
    centers = [(0.0, 0.0)]
    for k in range(6):
        ang = k * math.pi / 3.0
        centers.append((spacing * math.cos(ang), spacing * math.sin(ang)))
    return ClusterLayout(tuple(centers), spacing)


def antenna_polar(radii, angles) -> np.ndarray:
    """Normalized layouts, (..., 2, antennas) radii then angles, from (..., antennas).

    radii and angles have one shape: AntennaVector checks their lengths
    first, and the search builds its probes that way. Angles are wrapped
    into [0, 2*pi) and each layout sorted stably by angle. A radius outside
    [0, 1], a non-finite angle or a repeated wrapped angle raise
    ConfigError; the search's probes can trip each of them.
    """
    radii, angles = np.asarray(radii, dtype=float), np.asarray(angles, dtype=float)
    bad = ~((radii >= 0.0) & (radii <= 1.0))
    if bad.any():
        raise ConfigError(f"antenna radius must lie in [0, 1], got {radii[bad][0]}")
    if not np.isfinite(angles).all():
        raise ConfigError(f"antenna angles must be finite, got {angles[~np.isfinite(angles)][0]}")
    wrapped = np.fmod(angles, TWO_PI)
    wrapped += np.where(wrapped < 0.0, TWO_PI, 0.0)  # + 0.0 also turns -0.0 into 0.0
    wrapped[wrapped == TWO_PI] = 0.0  # a hair below 0 rounds up to 2*pi, the same point as 0
    # each layout's angle order, as flat indices into radii and wrapped
    order = np.argsort(wrapped, axis=-1, kind="stable")
    order += np.arange(wrapped.size).reshape(wrapped.shape)[..., :1]
    polar = np.concatenate([radii.take(order), wrapped.take(order)], axis=-1)
    polar = polar.reshape(wrapped.shape[:-1] + (2, wrapped.shape[-1]))
    ang = polar[..., 1, :]
    same = ang[..., :-1] >= ang[..., 1:]  # the angles are finite here
    if same.any():
        raise ConfigError(f"antenna angles must be distinct, got {ang[..., :-1][same][0]} twice")
    return polar


@dataclass(frozen=True)
class AntennaVector:
    """Antenna ring of the target cell, polar coordinates plus mast height.

    Construction normalizes angles into [0, 2*pi) and sorts the antennas by
    angle (radii permuted along); equal normalized angles are rejected.
    """

    radii: tuple[float, ...]
    angles: tuple[float, ...]
    height: float = DEFAULT_HEIGHT

    def __post_init__(self) -> None:
        if len(self.radii) != len(self.angles):
            raise ConfigError("radii and angles must have equal length")
        if len(self.radii) == 0:
            raise ConfigError("need at least one antenna")
        if not self.height > 0.0:
            raise ConfigError(f"antenna height must be > 0, got {self.height}")
        radii, angles = antenna_polar(self.radii, self.angles).tolist()
        object.__setattr__(self, "radii", tuple(radii))
        object.__setattr__(self, "angles", tuple(angles))

    @property
    def count(self) -> int:
        return len(self.radii)


def symmetric_circle(
    count: int,
    radius: float,
    rotation: float = 0.0,
    height: float = DEFAULT_HEIGHT,
) -> AntennaVector:
    """count antennas evenly spaced on a circle, first one at `rotation`."""
    if count < 1:
        raise ConfigError(f"antenna count must be >= 1, got {count}")
    angles = tuple(rotation + TWO_PI * m / count for m in range(count))
    return AntennaVector((radius,) * count, angles, height)


@dataclass(frozen=True)
class UserVector:
    """One active user per cell, polar offsets (radius, angle) from each center."""

    radii: tuple[float, ...]
    angles: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.radii) != len(self.angles):
            raise ConfigError("user radii and angles must have equal length")
        for r in self.radii:
            if not 0.0 <= r <= 1.0:
                raise ConfigError(f"user radius must lie in [0, 1], got {r}")

    @property
    def count(self) -> int:
        return len(self.radii)


def _draw(
    layout: ClusterLayout, samples: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """The one user draw rule: (samples, cells) radii sqrt(U), then angles
    2*pi*U, each cell's user uniform over its disk."""
    ell = rng.random((samples, layout.size))
    np.sqrt(ell, out=ell)
    theta = rng.random((samples, layout.size))
    theta *= TWO_PI
    return ell, theta


def user_coordinates(
    layout: ClusterLayout, ell: np.ndarray, theta: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Cartesian (x, y) of users at polar offsets (ell, theta) from their cell
    centers, the cell on the last axis: (cells,) for one user vector,
    (samples, cells) for a batch.

    Built in place, with no other temporary of their size: y is written
    into theta, which the call overwrites. Products and sums commute, so
    the result equals center + ell * cos(theta) bit for bit.
    """
    cx, cy = layout.center_array().T
    x = np.cos(theta)
    x *= ell
    x += cx
    y = np.sin(theta, out=theta)
    y *= ell
    y += cy
    return x, y


def sample_user_vector(layout: ClusterLayout, rng: np.random.Generator) -> UserVector:
    """Draw one user uniformly over each cell disk: a one-row sample_user_batch."""
    ell, theta = _draw(layout, 1, rng)
    return UserVector(tuple(ell[0].tolist()), tuple(theta[0].tolist()))


def sample_user_batch(
    layout: ClusterLayout, samples: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Cartesian user coordinates (x, y), each (samples, cells), for many
    independent user vectors drawn by one _draw call."""
    return user_coordinates(layout, *_draw(layout, samples, rng))
