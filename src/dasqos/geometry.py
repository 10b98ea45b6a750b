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
    other sizes must come in through cluster_from_centers.
    """
    if spacing <= 0.0:
        raise ConfigError(f"center spacing must be > 0, got {spacing}")
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


def cluster_from_centers(centers, spacing: float | None = None) -> ClusterLayout:
    """Cluster with arbitrary interferer-cell centers (target first, at origin).

    spacing is a label carried along for reporting, not a constraint on the
    centers given here.
    """
    if spacing is not None and spacing <= 0.0:
        raise ConfigError(f"center spacing must be > 0, got {spacing}")
    return ClusterLayout(tuple((float(x), float(y)) for x, y in centers), spacing)


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
        for r in self.radii:
            if not 0.0 <= r <= 1.0:
                raise ConfigError(f"antenna radius must lie in [0, 1], got {r}")
        wrapped = [math.fmod(a, TWO_PI) + (TWO_PI if math.fmod(a, TWO_PI) < 0 else 0.0)
                   for a in self.angles]
        order = sorted(range(len(wrapped)), key=lambda i: wrapped[i])
        ang = tuple(wrapped[i] for i in order)
        rad = tuple(float(self.radii[i]) for i in order)
        for a, b in zip(ang, ang[1:]):
            if not a < b:
                raise ConfigError(f"antenna angles must be distinct, got {a} twice")
        object.__setattr__(self, "radii", rad)
        object.__setattr__(self, "angles", ang)

    @property
    def count(self) -> int:
        return len(self.radii)

    def positions(self) -> np.ndarray:
        """Planar (count, 2) Cartesian antenna positions."""
        r = np.asarray(self.radii)
        a = np.asarray(self.angles)
        return np.stack([r * np.cos(a), r * np.sin(a)], axis=1)


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


def sample_user_vector(layout: ClusterLayout, rng: np.random.Generator) -> UserVector:
    """Draw one user uniformly over each cell disk (radius sqrt(U))."""
    n = layout.size
    radii = tuple(float(r) for r in np.sqrt(rng.random(n)))
    angles = tuple(float(a) for a in rng.random(n) * TWO_PI)
    return UserVector(radii, angles)


def sample_user_batch(
    layout: ClusterLayout, samples: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Cartesian user coordinates for many independent user vectors.

    Returns (x, y), each of shape (samples, cells). One rng draw pattern per
    call: radii first, then angles, matching sample_user_vector per row.
    """
    centers = layout.center_array()
    ell = np.sqrt(rng.random((samples, layout.size)))
    theta = rng.random((samples, layout.size)) * TWO_PI
    return centers[:, 0] + ell * np.cos(theta), centers[:, 1] + ell * np.sin(theta)


def user_positions(layout: ClusterLayout, users: UserVector) -> np.ndarray:
    """Planar (cells, 2) Cartesian positions of one user vector."""
    if users.count != layout.size:
        raise ConfigError(
            f"user vector has {users.count} entries for {layout.size} cells"
        )
    centers = layout.center_array()
    r = np.asarray(users.radii)
    a = np.asarray(users.angles)
    return centers + np.stack([r * np.cos(a), r * np.sin(a)], axis=1)


def antenna_user_distance(
    layout: ClusterLayout,
    antennas: AntennaVector,
    users: UserVector,
    antenna: int,
    cell: int,
) -> float:
    """3-D distance between antenna `antenna` and the user of cell `cell`.

    Indices are 0-based: antenna in [0, count), cell in [0, layout.size).
    """
    if not 0 <= antenna < antennas.count:
        raise ConfigError(f"antenna index {antenna} out of range")
    if not 0 <= cell < layout.size:
        raise ConfigError(f"cell index {cell} out of range")
    apos = antennas.positions()[antenna]
    upos = user_positions(layout, users)[cell]
    dx = upos[0] - apos[0]
    dy = upos[1] - apos[1]
    return math.sqrt(dx * dx + dy * dy + antennas.height**2)
