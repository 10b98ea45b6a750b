import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from dasqos.errors import ConfigError
from dasqos.geometry import (
    AntennaVector,
    ClusterLayout,
    TWO_PI,
    UserVector,
    _draw,
    antenna_polar,
    hex_cluster,
    sample_user_batch,
    sample_user_vector,
    symmetric_circle,
    user_coordinates,
)
from probe_loop_oracle import antenna_user_distance, user_positions


def test_hex_cluster_layout():
    layout = hex_cluster(7, spacing=2.0)
    assert layout.size == 7
    assert layout.centers[0] == (0.0, 0.0)
    assert layout.centers[1] == pytest.approx((2.0, 0.0))
    alt = hex_cluster(7, spacing=math.sqrt(3.0))
    # neighbor 1 sits at sqrt(3) * (cos 60, sin 60)
    assert alt.centers[2][0] == pytest.approx(0.8660, abs=5e-5)
    assert alt.centers[2][1] == pytest.approx(1.5, abs=1e-12)


def test_hex_cluster_single_cell():
    layout = hex_cluster(1)
    assert layout.size == 1


def test_hex_cluster_rejects_other_sizes():
    with pytest.raises(ConfigError):
        hex_cluster(3)
    layout = ClusterLayout(((0, 0), (1.5, 0.2), (-1, 1)))
    assert layout.size == 3
    with pytest.raises(ConfigError):
        ClusterLayout(((1, 0), (0, 0)))


@pytest.mark.parametrize(
    "make",
    [
        lambda s: ClusterLayout(((0.0, 0.0),), spacing=s),
        lambda s: hex_cluster(7, s),
        lambda s: hex_cluster(1, s),
        lambda s: ClusterLayout(((0, 0), (1.5, 0.2)), s),
    ],
    ids=["layout", "hex", "hex-single", "centers"],
)
@pytest.mark.parametrize("spacing", [0.0, -1.0])
def test_spacing_checked_by_the_layout(make, spacing):
    # ClusterLayout holds the one check, so both factories report it alike
    with pytest.raises(ConfigError, match=rf"^center spacing must be > 0, got {spacing}$"):
        make(spacing)


def test_hex_size_checked_before_spacing():
    with pytest.raises(ConfigError, match="no canonical hex layout for 5 cells"):
        hex_cluster(5, 0.0)


def test_distance_user_under_antenna():
    layout = hex_cluster(1)
    antennas = AntennaVector((0.5,), (0.0,), 0.05)
    users = UserVector((0.5,), (0.0,))
    assert antenna_user_distance(layout, antennas, users, 0, 0) == pytest.approx(0.05)


def test_distance_pythagoras():
    layout = hex_cluster(1)
    antennas = AntennaVector((0.5,), (0.0,), 0.05)
    users = UserVector((0.0,), (0.0,))
    assert antenna_user_distance(layout, antennas, users, 0, 0) == pytest.approx(
        math.sqrt(0.25 + 0.0025), rel=1e-12
    )


def test_distance_neighbor_cell():
    # user at the center of neighbor 0 (spacing 2), antenna at (0.58, pi/2)
    layout = hex_cluster(7, spacing=2.0)
    antennas = AntennaVector((0.58,), (math.pi / 2,), 0.05)
    users = UserVector((0.0,) * 7, (0.0,) * 7)
    d = antenna_user_distance(layout, antennas, users, 0, 1)
    assert d == pytest.approx(math.sqrt(4.0 + 0.3364 + 0.0025), rel=1e-9)
    assert d == pytest.approx(2.08300, abs=1e-5)


def test_distance_never_below_height():
    layout = hex_cluster(7)
    rng = np.random.default_rng(5)
    antennas = symmetric_circle(4, 0.4, 0.2, 0.05)
    for _ in range(50):
        users = sample_user_vector(layout, rng)
        for m in range(4):
            for i in range(7):
                assert antenna_user_distance(layout, antennas, users, m, i) >= 0.05


def test_distance_rotation_invariant():
    # rotating antennas, users, and cell centers together preserves distances
    rot = 0.7
    c, s = math.cos(rot), math.sin(rot)
    base_centers = [(0.0, 0.0), (2.0, 0.0), (1.0, 1.7)]
    turned_centers = [(c * x - s * y, s * x + c * y) for x, y in base_centers]
    base = ClusterLayout(tuple(base_centers))
    turned = ClusterLayout(tuple(turned_centers))
    antennas = AntennaVector((0.3, 0.6), (0.5, 2.5), 0.05)
    antennas_t = AntennaVector((0.3, 0.6), (0.5 + rot, 2.5 + rot), 0.05)
    users = UserVector((0.2, 0.9, 0.4), (1.0, 4.0, 0.3))
    users_t = UserVector((0.2, 0.9, 0.4), (1.0 + rot, 4.0 + rot, 0.3 + rot))
    for m in range(2):
        for i in range(3):
            assert antenna_user_distance(base, antennas, users, m, i) == pytest.approx(
                antenna_user_distance(turned, antennas_t, users_t, m, i), rel=1e-12
            )


def test_symmetric_circle_angles():
    v = symmetric_circle(4, 0.58)
    assert v.radii == (0.58,) * 4
    assert v.angles == pytest.approx((0.0, math.pi / 2, math.pi, 3 * math.pi / 2))
    single = symmetric_circle(1, 0.3, 1.1)
    assert single.angles == (1.1,)
    degenerate = symmetric_circle(3, 0.0)
    assert degenerate.radii == (0.0, 0.0, 0.0)


def test_antenna_vector_sorts_and_wraps():
    v = AntennaVector((0.1, 0.2), (3 * math.pi, 0.5))  # 3pi wraps to pi
    assert v.angles[0] == pytest.approx(0.5)
    assert v.angles[1] == pytest.approx(math.pi)
    assert v.radii == (0.2, 0.1)
    w = AntennaVector((0.3,), (-math.pi / 2,))
    assert w.angles[0] == pytest.approx(3 * math.pi / 2)


def test_antenna_angle_just_below_zero_wraps_to_zero():
    # fmod(-1e-17) + 2*pi rounds to 2*pi itself, outside [0, 2*pi)
    v = AntennaVector((0.5, 0.3), (-1e-17, 3.0))
    assert v.angles == (0.0, 3.0)
    assert v.radii == (0.5, 0.3)
    with pytest.raises(ConfigError, match="distinct"):
        AntennaVector((0.5, 0.3), (0.0, -1e-17))  # the same point twice


def test_antenna_vector_validation():
    with pytest.raises(ConfigError):
        AntennaVector((0.1, 0.2), (1.0, 1.0 + 2 * math.pi))  # equal after wrap
    with pytest.raises(ConfigError):
        AntennaVector((1.5,), (0.0,))
    with pytest.raises(ConfigError):
        AntennaVector((0.5,), (0.0,), height=0.0)
    with pytest.raises(ConfigError):
        AntennaVector((), ())
    with pytest.raises(ConfigError):
        UserVector((0.5, 1.2), (0.0, 1.0))
    with pytest.raises(ConfigError, match="finite"):
        AntennaVector((0.5,), (math.inf,))


def scalar_normalize(radii, angles):
    """The per-antenna wrap and sort, one float at a time with math.fmod."""
    wrapped = [math.fmod(a, TWO_PI) + (TWO_PI if math.fmod(a, TWO_PI) < 0 else 0.0)
               for a in angles]
    wrapped = [0.0 if a == TWO_PI else a for a in wrapped]
    order = sorted(range(len(wrapped)), key=lambda i: wrapped[i])
    return [float(radii[i]) for i in order], [wrapped[i] for i in order]


ULP_BELOW_ZERO = -math.ulp(0.0)
ULP_BELOW_TWO_PI = float(np.nextafter(TWO_PI, 0.0))
# one layout per row, each with distinct wrapped angles: below 0, at and
# above 2*pi, one ulp below 0 (rounds up to 2*pi, so to 0) and below 2*pi,
# both zeros, and radii at 0 and 1
EDGE_ANGLES = [
    (ULP_BELOW_ZERO, 3.0, 7.0, -2.0),
    (TWO_PI, ULP_BELOW_TWO_PI, -math.pi / 2, 3 * math.pi),
    (-0.0, 1e-300, -TWO_PI - 1.0, 4 * TWO_PI + 2.0),
    (-1e-17, -3 * TWO_PI + 1e-9, 100.0, -100.0),
    (0.0, -ULP_BELOW_TWO_PI, 1e6, -2.5 * TWO_PI),
]
EDGE_RADII = [
    (0.0, 1.0, 0.3, 0.7),
    (1.0, 0.0, 0.5, 0.25),
    (0.0, 0.0, 1.0, 1.0),
    (0.9, 0.1, 0.0, 1.0),
    (1.0, 0.6, 0.0, 0.2),
]


def test_antenna_polar_rows_equal_antenna_vectors_bitwise():
    polar = antenna_polar(EDGE_RADII, EDGE_ANGLES)
    assert polar.shape == (len(EDGE_ANGLES), 2, 4)
    for row, radii, angles in zip(polar, EDGE_RADII, EDGE_ANGLES):
        v = AntennaVector(radii, angles)
        want = np.array(scalar_normalize(radii, angles))
        assert np.array([v.radii, v.angles]).tobytes() == want.tobytes()
        assert row.tobytes() == want.tobytes()
        assert all(0.0 <= a < TWO_PI for a in v.angles)
    assert polar[0, 1, 0] == 0.0 and polar[1, 1, 0] == 0.0  # one ulp below 0, and 2*pi
    assert math.copysign(1.0, polar[2, 1, 0]) == 1.0  # -0.0 comes out as +0.0
    assert polar[1, 1, -1] == ULP_BELOW_TWO_PI
    # any leading shape: a (2, 5) stack of layouts gives the same rows
    stacked = antenna_polar([EDGE_RADII] * 2, [EDGE_ANGLES] * 2)
    assert stacked.tobytes() == np.stack([polar, polar]).tobytes()


@pytest.mark.parametrize(
    "radii, angles, message",
    [
        ((0.1, 0.2), (1.0, 1.0 + TWO_PI), "distinct"),
        ((0.5, 0.3), (0.0, -1e-17), "distinct"),
        ((0.5, 0.3), (TWO_PI, ULP_BELOW_ZERO), "distinct"),
        ((1.5, 0.3), (0.0, 1.0), r"radius must lie in \[0, 1\], got 1.5"),
        ((0.5, -0.1), (0.0, 1.0), "radius"),
        ((0.5, math.nan), (0.0, 1.0), "radius"),
        ((0.5, 0.3), (0.0, -math.inf), "finite"),
    ],
)
def test_antenna_polar_rejects_as_antenna_vector_does(radii, angles, message):
    with pytest.raises(ConfigError, match=message) as scalar:
        AntennaVector(radii, angles)
    # the bad layout second in a batch: the same error
    with pytest.raises(ConfigError) as batch:
        antenna_polar([(0.5, 0.5), radii], [(0.1, 0.2), angles])
    assert str(batch.value) == str(scalar.value)


def test_user_positions_shape():
    layout = hex_cluster(7)
    users = sample_user_vector(layout, np.random.default_rng(0))
    pos = user_positions(layout, users)
    assert pos.shape == (7, 2)


def test_sampling_moments():
    layout = hex_cluster(1)
    rng = np.random.default_rng(12)
    radii = np.array(
        [sample_user_vector(layout, rng).radii[0] for _ in range(200_000)]
    )
    se1 = radii.std(ddof=1) / math.sqrt(radii.size)
    assert abs(radii.mean() - 2.0 / 3.0) < 4 * se1
    sq = radii**2
    se2 = sq.std(ddof=1) / math.sqrt(sq.size)
    assert abs(sq.mean() - 0.5) < 4 * se2


def test_sampling_distribution_fit():
    rng = np.random.default_rng(99)
    layout = hex_cluster(1)
    n = 100_000
    x, y = sample_user_batch(layout, n, rng)
    r = np.hypot(x[:, 0], y[:, 0])
    theta = np.arctan2(y[:, 0], x[:, 0])
    # KS against CDF r^2 on the radius
    d, p_ks = stats.kstest(r, lambda t: np.clip(t, 0, 1) ** 2)
    assert p_ks > 0.01
    counts, _ = np.histogram(theta, bins=24, range=(-math.pi, math.pi))
    chi2 = ((counts - n / 24) ** 2 / (n / 24)).sum()
    assert chi2 < stats.chi2.ppf(0.99, df=23)


def test_sampling_replay():
    layout = hex_cluster(7)
    a = sample_user_vector(layout, np.random.default_rng(314))
    b = sample_user_vector(layout, np.random.default_rng(314))
    assert a == b
    x1, y1 = sample_user_batch(layout, 10, np.random.default_rng(314))
    x2, y2 = sample_user_batch(layout, 10, np.random.default_rng(314))
    np.testing.assert_array_equal(x1, x2)
    np.testing.assert_array_equal(y1, y2)


def test_batch_matches_vector_protocol():
    # row k of the batch and the k-th sequential vector draw see different
    # rng cuts, but one-row batches must reproduce the vector exactly
    layout = hex_cluster(7)
    x, y = sample_user_batch(layout, 1, np.random.default_rng(8))
    users = sample_user_vector(layout, np.random.default_rng(8))
    pos = user_positions(layout, users)
    np.testing.assert_allclose(x[0], pos[:, 0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(y[0], pos[:, 1], rtol=0, atol=1e-12)


@pytest.mark.parametrize("samples", [1, 2, 10_000])
def test_batch_equals_out_of_place_formula(samples):
    # the in-place build equals center + ell * cos(theta) from the same
    # draws, radii first, bit for bit
    layout = hex_cluster(7, 2.0)
    x, y = sample_user_batch(layout, samples, np.random.default_rng(17))
    rng = np.random.default_rng(17)
    ell = np.sqrt(rng.random((samples, 7)))
    theta = rng.random((samples, 7)) * (2.0 * math.pi)
    centers = layout.center_array()
    assert x.tobytes() == (centers[:, 0] + ell * np.cos(theta)).tobytes()
    assert y.tobytes() == (centers[:, 1] + ell * np.sin(theta)).tobytes()


def test_user_vector_is_the_draw_rules_first_row():
    # one draw rule: the vector is row 0 of a one-row _draw, and it leaves the
    # generator where a one-row batch leaves it
    layout = hex_cluster(7, 2.0)
    for seed in range(50):
        vector_rng, draw_rng, batch_rng = (np.random.default_rng(seed) for _ in range(3))
        users = sample_user_vector(layout, vector_rng)
        ell, theta = _draw(layout, 1, draw_rng)
        assert users == UserVector(tuple(ell[0].tolist()), tuple(theta[0].tolist()))
        sample_user_batch(layout, 1, batch_rng)
        assert vector_rng.bit_generator.state == batch_rng.bit_generator.state
        assert vector_rng.bit_generator.state == draw_rng.bit_generator.state


PINNED_LAYOUTS = {
    1: hex_cluster(1),
    2: ClusterLayout(((0.0, 0.0), (1.7, -0.3))),
    7: hex_cluster(7, 2.0),
}


@given(st.sampled_from(sorted(PINNED_LAYOUTS)), st.data())
def test_pinned_coordinates_equal_the_out_of_place_reference(cells, data):
    # the in-place rule that drawn users take serves pinned users too, bit for
    # bit equal to center + ell * cos(theta); theta is overwritten with y
    layout = PINNED_LAYOUTS[cells]
    vector = st.lists(st.floats(0.0, 1.0), min_size=cells, max_size=cells)
    radii = data.draw(vector)
    angles = data.draw(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=cells, max_size=cells)
    )
    users = UserVector(tuple(radii), tuple(angles))
    theta = np.array(users.angles)
    x, y = user_coordinates(layout, np.array(users.radii), theta)
    reference = user_positions(layout, users)
    assert x.tobytes() == reference[:, 0].tobytes()
    assert y.tobytes() == reference[:, 1].tobytes()
    assert theta.tobytes() == y.tobytes()
