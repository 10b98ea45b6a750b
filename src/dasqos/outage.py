"""Per-antenna and system outage for the uplink co-channel cluster.

The target user's signal at antenna m and each interferer's signal are
exponentially faded (Rayleigh amplitude), so received powers are
exponential with rate d^exponent for link distance d (transmit power
cancels in the SIR). Outage at an antenna is P(SIR < K), K = 2^R - 1.

Given the interference I, the signal clears the threshold with probability
exp(-a0*K*I), a0 the signal rate. Averaging over independent exponential
interferer powers, each transmitting with probability alpha, gives the
Laplace functional of the interference in product form (Haenggi & Ganti,
Interference in Large Wireless Networks, 2009):

    P(SIR >= K) = prod_i [1 - alpha * a0 / (q_i + a0)],  q_i = rate_i / K.

The outage 1 - prod_i (1 - t_i), with t_i = alpha * a0 / (q_i + a0) the
outage interferer i would cause alone, is the chance of a union of
independent events of chances t_i, so it is accumulated one interferer at
a time as fail <- fail + t_i * (1 - fail). That holds for every alpha in
[0, 1] and coincident interferer distances, needs no log or exp, and adds
only non-negative terms, so small outages keep their last digits: an
exact-rational test under tests/ bounds the error at n + 4 ulps for n
interferers. The system is in outage only when every antenna fails;
antenna outages are treated as independent, so the system outage is the
per-antenna product. layout_outage holds the only copy of this arithmetic,
in its helper _antenna_outage: it scores antenna layouts of one mast
height, given as one polar array, on users that are already drawn, and
one antenna's outage, the conditional and expected system outage, the
radius sweep, the search's trace rows and its gradient probes all go
through it.
One user vector is scored in one pass over every (antenna, layout) pair.
A batch is walked in blocks of _BLOCK users, each copied cell-major once,
stepping through the layouts inside each block, _BLOCK // block of them
at a time (at least one), so every array step runs along a block of users
and its temporaries stay about one block in size. Both paths compute an
antenna's outage with _antenna_outage.
score_layouts is the one expected-outage scorer: it draws one batch of
users, runs layout_outage on it a slice of layouts at a time, and turns
each layout's values into a mean and a standard error. expected_outage
scores one layout with it, and the radius sweep and the search's trace
score theirs.
The checks on it live under tests/: the scalar product form it replaced,
the log-space form the recurrence replaced, the paper's partial-fraction
expansion, exact rational arithmetic and a fading Monte Carlo.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .geometry import AntennaVector, ClusterLayout, UserVector, sample_user_batch, user_coordinates

_BLOCK = 6144  # users per cell-major step; bounds the kernel's temporaries
# outage values score_layouts holds at once (4 MB): a 70 x 5,000 search trace
# and a 19 x 10,000 radius sweep each take one slice
_SCORE_VALUES = 2**19


@dataclass(frozen=True)
class ChannelParams:
    """Wireless channel constants shared by every link in the cluster."""

    path_loss_exponent: float
    spectral_efficiency: float = 1.0
    on_probability: float = 1.0

    def __post_init__(self) -> None:
        if not self.path_loss_exponent > 0.0:
            raise ConfigError(
                f"path loss exponent must be > 0, got {self.path_loss_exponent}"
            )
        if not self.spectral_efficiency > 0.0:
            raise ConfigError(
                f"spectral efficiency must be > 0, got {self.spectral_efficiency}"
            )
        if not 0.0 <= self.on_probability <= 1.0:
            raise ConfigError(
                f"on probability must be in [0, 1], got {self.on_probability}"
            )

    @property
    def sir_threshold(self) -> float:
        """K = 2^R - 1, the SIR below which decoding fails."""
        return 2.0**self.spectral_efficiency - 1.0


@dataclass(frozen=True)
class CellScenario:
    """Cluster geometry, antenna layout, and channel constants as one unit."""

    layout: ClusterLayout
    antennas: AntennaVector
    channel: ChannelParams


@dataclass(frozen=True)
class OutageEstimate:
    value: float
    std_err: float


def _staggered(*sizes: int) -> list[np.ndarray]:
    """Float buffers of the given lengths, cut from one allocation so that
    the k-th starts k quarter pages (1024 bytes) past a page boundary.
    Buffers at one page offset, as separate allocations of whole pages
    land, make a kernel step's loads alias its stores (4K aliasing);
    staggered, the radius sweep and the search's trace ran 5-8% faster in
    one process, and the kernel's speed no longer depends on where the
    heap puts its buffers."""
    raw = np.empty(sum(sizes) + 512 * (len(sizes) + 1))  # 512 floats a page
    origin = at = (-raw.ctypes.data % 4096) // 8
    buffers = []
    for k, n in enumerate(sizes):
        at += (128 * k - (at - origin)) % 512
        buffers.append(raw[at : at + n])
        at += n
    return buffers


def _antenna_outage(xu, yu, ax, ay, height, channel, rates, dy):
    """Outage of an antenna at (ax, ay) for users at (xu, yu), in place.

    The coordinates broadcast to rates' shape (..., cells, users), cells on
    the second-to-last axis, target cell first; dy is a buffer of that
    shape. The rates and the interferers' outages t_i are computed in place
    in rates, and the t_i joined in cell order into the first interferer's
    row with one row of dy as the temporary, as the scalar product form
    under tests/ joins them, so the two agree bit for bit. Passes whose
    result is already known are skipped, for the same bits: a power of 1, a
    division by K = 1 and the product alpha * a0 at alpha = 1, and a power
    of 2 squares. Returns that row, (..., users), a view of rates.
    """
    k, alpha = channel.sir_threshold, channel.on_probability
    power = channel.path_loss_exponent / 2.0
    np.square(np.subtract(xu, ax, out=rates), out=rates)
    rates += np.square(np.subtract(yu, ay, out=dy), out=dy)
    rates += height * height
    if power == 2.0:
        np.square(rates, out=rates)
    elif power != 1.0:
        rates **= power
    # q's first row keeps the union of the interferers' outages
    a0, q, fail, tmp = rates[..., :1, :], rates[..., 1:, :], rates[..., 1, :], dy[..., 0, :]
    if k != 1.0:
        q /= k
    q += a0
    # t_i, interferer i's outage were it alone
    np.divide(a0 if alpha == 1.0 else alpha * a0, q, out=q)
    for i in range(2, rates.shape[-2]):  # fail = 1 - prod(1 - t_i), in cell order
        fail += np.multiply(np.subtract(1.0, fail, out=tmp), rates[..., i, :], out=tmp)
    return fail


def layout_outage(
    channel: ChannelParams, polar: np.ndarray, height: float, ux: np.ndarray, uy: np.ndarray
) -> np.ndarray:
    """System outage of each antenna layout for users that are already drawn.

    polar holds (layouts, 2, antennas) normalized layouts, as antenna_polar
    returns them, all at one mast height. ux, uy hold user coordinates with
    the cell on the last axis, target cell first: shape (cells,) for one
    user vector, (samples, cells) for a batch. The result has shape
    (layouts, *ux.shape[:-1]); each layout multiplies its antenna outages
    in its own (angle-sorted) order. One cell has no interferer and scores
    0.

    One user vector (the search's gradient probes, a pinned user vector)
    is scored in one pass: every (antenna, layout) pair on an (antennas,
    layouts, cells, 1) array, then each layout's antennas multiplied in
    order. A batch walks the users in blocks of _BLOCK, each copied to
    (cells, block) once, and takes the layouts max(1, _BLOCK // block) at
    a time, so every array step runs along a block of users and its
    temporaries stay about one block in size; an antenna's outage is
    computed in place on (step, cells, block). One buffer of each kind
    serves the whole batch, sliced for a short last block or step. An
    antenna at the point of the one before it, in every layout of the step
    (all antennas at the centre), multiplies in the outage row it still
    holds. Both paths compute an antenna's outage with _antenna_outage, so
    they agree bit for bit. _BLOCK is 6144 users, the fastest of 2048,
    3072, 4096 and 6144 on the search's trace and the radius sweep; 8192
    and 12288 won no consistent margin over it. One layout on 1e5 users of
    7 cells peaks at 2.26 MB, 0.8 MB of it the output.
    """
    # antenna positions indexed antenna first, (antennas, layouts)
    ax = (polar[:, 0] * np.cos(polar[:, 1])).T
    ay = (polar[:, 0] * np.sin(polar[:, 1])).T
    cells = ux.shape[-1]
    if cells == 1:  # no interferer, so no antenna ever fails
        return np.zeros((len(polar),) + ux.shape[:-1])
    if ux.ndim == 1:
        rates = np.empty(ax.shape + (cells, 1))
        fail = _antenna_outage(
            ux[:, None], uy[:, None], ax[..., None, None], ay[..., None, None], height, channel,
            rates, np.empty_like(rates),
        )
        # reduced along its outer axis one antenna row at a time, in order
        return np.multiply.reduce(fail[..., 0], axis=0)
    # antenna m at antenna m - 1's point in a layout: the same rates, the same
    # outage (a signed zero squares away)
    repeats = (ax[1:] == ax[:-1]) & (ay[1:] == ay[:-1])
    ax, ay = ax[..., None, None], ay[..., None, None]  # broadcast over cells and users
    x, y = ux.reshape(-1, cells), uy.reshape(-1, cells)
    out = np.ones((len(polar), x.shape[0]))
    # one buffer of each kind per call, sized for the first block, the widest
    # (a short last block takes more layouts per step, but no more values)
    width = min(_BLOCK, x.shape[0]) or 1  # an empty batch runs no block
    step_values = min(max(1, _BLOCK // width), len(polar)) * cells * width
    xbuf, ybuf, rbuf, dbuf = _staggered(cells * width, cells * width, step_values, step_values)
    for b in range(0, x.shape[0], _BLOCK):
        users = slice(b, b + _BLOCK)
        size = min(_BLOCK, x.shape[0] - b)
        xb = xbuf[: cells * size].reshape(cells, size)
        yb = ybuf[: cells * size].reshape(cells, size)
        xb[...], yb[...] = x[users].T, y[users].T
        step = max(1, _BLOCK // size)  # layouts per step, temporaries ~ one block
        for s in range(0, len(polar), step):
            layouts = slice(s, s + step)
            product = out[layouts, users]
            shape = (len(product), cells, size)
            rates = rbuf[: product.size * cells].reshape(shape)
            dy = dbuf[: product.size * cells].reshape(shape)
            held = [False, *repeats[:, layouts].all(axis=1).tolist()]
            for m in range(len(ax)):
                if not held[m]:  # else every layout of the step repeats antenna m - 1
                    fail = _antenna_outage(xb, yb, ax[m, layouts], ay[m, layouts], height, channel, rates, dy)
                product *= fail
    return out.reshape(out.shape[:1] + ux.shape[:-1])


def _pinned_outage(scenario: CellScenario, users: UserVector, antennas=slice(None)) -> float:
    """layout_outage of the scenario's antennas[antennas] on one pinned user vector."""
    a = scenario.antennas
    ux, uy = user_coordinates(scenario.layout, np.array(users.radii), np.array(users.angles))
    polar = np.array([[a.radii, a.angles]])[..., antennas]
    return float(layout_outage(scenario.channel, polar, a.height, ux, uy)[0])


def antenna_outage_closed_form(
    scenario: CellScenario, users: UserVector, antenna: int
) -> float:
    """Exact P(SIR < K) at one antenna for fixed users: layout_outage on
    that antenna alone. An index outside [0, count) raises ConfigError."""
    if not 0 <= antenna < scenario.antennas.count:
        raise ConfigError(
            f"antenna index {antenna} out of range [0, {scenario.antennas.count})"
        )
    return _pinned_outage(scenario, users, slice(antenna, antenna + 1))


def conditional_system_outage(scenario: CellScenario, users: UserVector) -> float:
    """System outage for a fixed user vector: the product over antennas."""
    return _pinned_outage(scenario, users)


def score_layouts(
    scenario: CellScenario, polar: np.ndarray, height: float, samples: int, rng: np.random.Generator
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Expected outage and standard error of each layout at one height,
    all scored on one batch of samples users drawn from rng.

    The layouts are scored max(1, _SCORE_VALUES // samples) at a time, so
    the values held at once stay under a fixed budget however many rows and
    samples; each row's estimates do not depend on the slicing. A row's
    standard error is numpy's std(ddof=1) / sqrt(samples) step by step, in
    place on the slice's values, so no further rows x samples array is made.
    """
    ux, uy = sample_user_batch(scenario.layout, samples, rng)
    rows = max(1, _SCORE_VALUES // samples)
    mean, std_err = [], []
    for s in range(0, len(polar), rows):
        values = layout_outage(scenario.channel, polar[s : s + rows], height, ux, uy)
        row_mean = values.mean(axis=1)
        values -= row_mean[:, None]
        values *= values
        mean += row_mean.tolist()
        std_err += (np.sqrt(values.sum(axis=1) / (samples - 1)) / math.sqrt(samples)).tolist()
        del values  # so no two slices' values are ever held at once
    return tuple(mean), tuple(std_err)


def expected_outage(
    scenario: CellScenario,
    samples: int,
    rng: np.random.Generator,
    workers: int = 1,
) -> OutageEstimate:
    """System outage marginalized over user placement: score_layouts on
    the scenario's one layout.

    Draws `samples` independent user vectors, evaluates the conditional
    system outage for each, and averages. The user stream depends only on
    rng, never on the antenna layout, so calls sharing a seed share their
    user draws (common random numbers across layouts). samples >= 2, as
    config.RunParams checks it. workers is accepted and unused: splitting
    the batch across threads gained nothing over one thread, and the
    benchmark under perfbench/ still passes workers=2.
    """
    a = scenario.antennas
    (value,), (std_err,) = score_layouts(
        scenario, np.array([[a.radii, a.angles]]), a.height, samples, rng
    )
    return OutageEstimate(value, std_err)
