import math

import pytest

from dasqos.config import (
    LINKED,
    RunParams,
    ScenarioConfig,
    format_antenna_block,
    format_float,
    load_scenario,
    parse_scenario,
)
from dasqos.errors import ConfigError
from dasqos.geometry import (
    AntennaVector,
    DEFAULT_HEIGHT,
    UserVector,
    cluster_from_centers,
    hex_cluster,
    symmetric_circle,
)
from dasqos.placement import RMConfig
from dasqos.traffic import (
    DeterministicUnit,
    GenericRenewal,
    MarkovFluidRenewal,
    Poisson,
    TruncatedGeometric,
)

FULL = """\
flows:
  - priority: 1
    name: voice
    arrival: {kind: poisson, rate: 0.2}
    service: {kind: unit}
  - priority: 2
    name: data
    arrival: {kind: poisson, rate: 0.6}
    service: {kind: truncated_geometric, failure_prob: 0.1, max_attempts: 4}
channel:
  path_loss_exponent: 4.0
  spectral_efficiency: 1.0
  on_probability: 0.9
geometry:
  cluster_size: 7
  spacing: 2.0
  antennas:
    count: 4
    radius: 0.3
    rotation: 0.5
    height: 0.08
  users:
    radii: [0.5, 0.7]
    angles: [0.0, 1.0]
run:
  seed: 11
  samples: 5000
  horizon: 200000
  warmup: 1000
  output: out.csv
  attempt_failure_prob: linked
  delay_convention: waiting
  higher_priority_mode: exact_poisson
rm:
  mode: full_polar
  step_scale: 5.0
  step_exponent: 0.8
  fd_step: 0.001
  max_iter: 50
  convergence_window: 8
  tolerance: 0.01
  eval_samples: 400
"""


def expect(text: str, message: str):
    with pytest.raises(ConfigError) as err:
        parse_scenario(text)
    assert str(err.value) == message


class TestFullScenario:
    def test_all_sections_land(self):
        cfg = parse_scenario(FULL)
        assert len(cfg.flows) == 2
        voice, data = cfg.flows
        assert voice.priority == 1
        assert voice.name == "voice"
        assert voice.arrival == Poisson(0.2)
        assert voice.service == DeterministicUnit()
        assert data.arrival == Poisson(0.6)
        assert data.service == TruncatedGeometric(0.1, 4)

        assert cfg.channel is not None
        assert cfg.channel.path_loss_exponent == 4.0
        assert cfg.channel.spectral_efficiency == 1.0
        assert cfg.channel.on_probability == 0.9

        assert cfg.layout == hex_cluster(7, 2.0)
        assert cfg.antennas == symmetric_circle(4, 0.3, 0.5, 0.08)
        assert cfg.users == UserVector((0.5, 0.7), (0.0, 1.0))

        assert cfg.run == RunParams(
            seed=11,
            samples=5000,
            horizon=200_000,
            warmup=1000,
            output="out.csv",
            attempt_failure_prob=LINKED,
            delay_convention="waiting",
            higher_priority_mode="exact_poisson",
        )
        assert cfg.rm == RMConfig(
            mode="full_polar",
            step_scale=5.0,
            step_exponent=0.8,
            fd_step=0.001,
            max_iter=50,
            convergence_window=8,
            tolerance=0.01,
            eval_samples=400,
        )

    def test_sections_optional(self):
        cfg = parse_scenario("channel:\n  path_loss_exponent: 2.0\n")
        assert cfg.flows == ()
        assert cfg.layout is None
        assert cfg.antennas is None
        assert cfg.users is None
        assert cfg.rm is None
        assert cfg.run == RunParams()

    def test_geometry_defaults(self):
        cfg = parse_scenario(
            "geometry:\n  antennas: {radii: [0.3], angles: [0.0]}\n"
        )
        assert cfg.layout == hex_cluster(7, 2.0)
        assert cfg.antennas == AntennaVector((0.3,), (0.0,), DEFAULT_HEIGHT)
        assert cfg.users is None

    def test_explicit_centers(self):
        cfg = parse_scenario("geometry:\n  centers: [[0.0, 0.0], [2.0, 0.0]]\n")
        assert cfg.layout == cluster_from_centers([(0.0, 0.0), (2.0, 0.0)])
        assert cfg.layout.spacing is None

    def test_arrival_kinds(self):
        text = (
            "flows:\n"
            "  - priority: 1\n"
            "    arrival: {kind: markov_fluid, rate_a: 0.1, rate_b: 0.2,"
            " weight_a: 0.4, weight_b: 0.6}\n"
            "    service: {kind: unit}\n"
            "  - priority: 2\n"
            "    arrival: {kind: renewal, mean: 2.0, variance: 0.5}\n"
            "    service: {kind: unit}\n"
        )
        cfg = parse_scenario(text)
        assert cfg.flows[0].arrival == MarkovFluidRenewal(0.1, 0.2, 0.4, 0.6)
        assert cfg.flows[0].name == ""
        assert cfg.flows[1].arrival == GenericRenewal(2.0, 0.5)

    def test_numeric_attempt_failure_prob(self):
        cfg = parse_scenario("run:\n  attempt_failure_prob: 0.25\n")
        assert cfg.run.attempt_failure_prob == 0.25
        assert isinstance(cfg.run.attempt_failure_prob, float)


class TestStructuralErrors:
    def test_empty_document(self):
        expect("", "<config>: empty config")
        expect("   \n\n", "<config>: empty config")

    def test_invalid_yaml(self):
        with pytest.raises(ConfigError) as err:
            parse_scenario("flows: [unclosed\n")
        assert str(err.value).startswith("<config>: invalid YAML:")

    def test_root_must_be_mapping(self):
        expect("just a string\n", "<config>:1:1: config must be a mapping")

    def test_unknown_section(self):
        expect("bogus: 1\n", "<config>:1:8: unknown key 'bogus' in config")

    def test_duplicate_section(self):
        expect(
            "run:\n  seed: 1\nrun:\n  seed: 2\n",
            "<config>:3:1: duplicate key 'run'",
        )

    def test_duplicate_field(self):
        expect(
            "run:\n  seed: 1\n  seed: 2\n",
            "<config>:3:3: duplicate key 'seed'",
        )

    def test_non_scalar_key(self):
        expect("? [1, 2]\n: x\n", "<config>:1:3: keys must be plain scalars")

    def test_section_shape(self):
        expect("flows: {a: 1}\n", "<config>:1:8: flows must be a list")
        expect("channel: 3\n", "<config>:1:10: channel must be a mapping")


class TestFieldErrors:
    # every complaint points at the offending value with 1-based line:column
    def test_unknown_key_location(self):
        expect(
            "channel:\n  path_loss_exponent: 2.0\n  bogus: 1\n",
            "<config>:3:10: unknown key 'bogus' in channel",
        )

    def test_unknown_flow_key(self):
        expect(
            "flows:\n- priority: 1\n  color: red\n"
            "  arrival: {kind: poisson, rate: 1.0}\n  service: {kind: unit}\n",
            "<config>:3:10: unknown key 'color' in flow",
        )

    def test_rm_has_no_radius_bounds_field(self):
        expect(
            "rm:\n  radius_bounds: [0.0, 1.0]\n",
            "<config>:2:18: unknown key 'radius_bounds' in rm",
        )

    def test_retired_keys_rejected(self):
        # power_scale cancelled out of the SIR; the product-form outage is
        # exact at every on-probability, so gradients need no Monte Carlo
        expect(
            "channel:\n  path_loss_exponent: 2.0\n  power_scale: 2.0\n",
            "<config>:3:16: unknown key 'power_scale' in channel",
        )
        expect(
            "rm:\n  gradient_mc_trials: 200\n",
            "<config>:2:23: unknown key 'gradient_mc_trials' in rm",
        )

    def test_missing_arrival_rate(self):
        expect(
            "flows:\n- priority: 1\n  arrival: {kind: poisson}\n"
            "  service: {kind: unit}\n",
            "<config>:3:12: arrival is missing required key 'rate'",
        )

    def test_missing_path_loss_exponent(self):
        expect(
            "channel:\n  spectral_efficiency: 1.0\n",
            "<config>:2:3: channel is missing required key 'path_loss_exponent'",
        )

    def test_antenna_vector_needs_angles(self):
        expect(
            "geometry:\n  antennas: {radii: [0.1]}\n",
            "<config>:2:13: antennas is missing required key 'angles'",
        )

    def test_count_needs_radius(self):
        expect(
            "geometry:\n  antennas:\n    count: 4\n",
            "<config>:3:5: antennas is missing required key 'radius'",
        )

    def test_empty_flows_list(self):
        expect("flows: []\n", "<config>:1:8: flows must not be empty")

    def test_unknown_arrival_kind(self):
        expect(
            "flows:\n- priority: 1\n  arrival: {kind: laplace, rate: 1.0}\n"
            "  service: {kind: unit}\n",
            "<config>:3:19: arrival.kind must be one of "
            "('poisson', 'markov_fluid', 'renewal'), got 'laplace'",
        )

    def test_centers_exclusive_with_cluster_size(self):
        expect(
            "geometry:\n  cluster_size: 7\n  centers: [[0.0, 0.0]]\n",
            "<config>:2:17: give either cluster_size or centers, not both",
        )

    def test_center_needs_two_coordinates(self):
        expect(
            "geometry:\n  centers: [[0.0]]\n",
            "<config>:2:13: each center needs exactly [x, y]",
        )

    def test_bad_delay_convention(self):
        expect(
            "run:\n  delay_convention: holding\n",
            "<config>:2:21: delay_convention must be one of "
            "('sojourn', 'waiting'), got 'holding'",
        )

    def test_bad_rm_mode(self):
        expect(
            "rm:\n  mode: spiral\n",
            "<config>:2:9: mode must be one of ('radius_only', 'full_polar'), got 'spiral'",
        )

    def test_attempt_failure_prob_is_linked_or_a_number(self):
        expect(
            "run:\n  attempt_failure_prob: linkd\n",
            "<config>:2:25: attempt_failure_prob must be a number, got 'linkd'",
        )

    def test_bad_priority_mode(self):
        expect(
            "run:\n  higher_priority_mode: fluid\n",
            "<config>:2:25: higher_priority_mode must be one of "
            "('gaussian', 'exact_poisson'), got 'fluid'",
        )

    def test_scalar_coercion_messages(self):
        base = (
            "flows:\n- priority: 1\n  arrival: {{kind: poisson, rate: {}}}\n"
            "  service: {{kind: unit}}\n"
        )
        expect(base.format("fast"), "<config>:3:34: rate must be a number, got 'fast'")
        expect(base.format("[1]"), "<config>:3:34: rate must be a scalar")
        expect(base.format("nan"), "<config>:3:34: rate must not be NaN")

    def test_list_element_coercion_message(self):
        # a bad element is named by its list, at the element's position
        expect(
            "geometry:\n  users: {radii: [x], angles: [0]}\n",
            "<config>:2:19: radii must be a number, got 'x'",
        )

    def test_int_coercion_message(self):
        expect(
            "flows:\n- priority: 1\n  arrival: {kind: poisson, rate: 0.5}\n"
            "  service: {kind: truncated_geometric, failure_prob: 0.1,"
            " max_attempts: 2.5}\n",
            "<config>:4:73: max_attempts must be an integer, got '2.5'",
        )


class TestValueErrorsGetLocations:
    # range checks live in the model constructors; the parser re-raises
    # their message with the section's position attached
    def test_negative_poisson_rate(self):
        expect(
            "flows:\n- priority: 1\n  arrival:\n    kind: poisson\n"
            "    rate: -0.5\n  service:\n    kind: unit\n",
            "<config>:2:1: poisson rate must be > 0, got -0.5",
        )

    def test_negative_path_loss_exponent(self):
        expect(
            "channel:\n  path_loss_exponent: -2.0\n",
            "<config>:2:3: path loss exponent must be > 0, got -2.0",
        )


class TestRequireHelpers:
    def test_require_flows(self):
        with pytest.raises(ConfigError, match="non-empty flows section"):
            ScenarioConfig().require_flows()
        cfg = parse_scenario(FULL)
        assert cfg.require_flows() == cfg.flows

    def test_require_cell_lists_missing_sections(self):
        with pytest.raises(
            ConfigError,
            match="needs sections: geometry, geometry.antennas, channel",
        ):
            ScenarioConfig().require_cell()
        cfg = parse_scenario("channel:\n  path_loss_exponent: 2.0\n")
        with pytest.raises(
            ConfigError, match="needs sections: geometry, geometry.antennas$"
        ):
            cfg.require_cell()

    def test_require_cell_returns_triple(self):
        cfg = parse_scenario(FULL)
        layout, antennas, channel = cfg.require_cell()
        assert layout is cfg.layout
        assert antennas is cfg.antennas
        assert channel is cfg.channel


class TestLoadScenario:
    def test_reads_file(self, tmp_path):
        p = tmp_path / "scenario.yaml"
        p.write_text(FULL, encoding="utf-8")
        assert load_scenario(str(p)) == parse_scenario(FULL)

    def test_errors_name_the_file(self, tmp_path):
        p = tmp_path / "broken.yaml"
        p.write_text("channel:\n  path_loss_exponent: 2.0\n  bogus: 1\n")
        with pytest.raises(ConfigError) as err:
            load_scenario(str(p))
        assert str(err.value) == f"{p}:3:10: unknown key 'bogus' in channel"

    def test_missing_file_is_a_config_error(self, tmp_path):
        p = tmp_path / "nope.yaml"
        with pytest.raises(ConfigError, match="No such file"):
            load_scenario(str(p))


class TestFormatting:
    def test_format_float_nine_digits(self):
        assert format_float(0.1234567891) == "0.123456789"
        assert format_float(1.0) == "1"
        assert format_float(1 / 3) == "0.333333333"
        assert format_float(12345678912.0) == "1.23456789e+10"

    def test_antenna_block_shape(self):
        block = format_antenna_block(symmetric_circle(2, 0.5))
        lines = block.splitlines()
        assert lines[0] == "geometry:"
        assert lines[1] == "  antennas:"
        assert lines[2].startswith("    radii: [")
        assert lines[3].startswith("    angles: [")
        assert lines[4].startswith("    height: ")

    def test_antenna_block_round_trip_exact(self):
        # 17 significant digits survive the YAML float round trip bit for bit
        av = AntennaVector((1 / 3, 2 / 7), (math.pi / 5, 2.1), 0.05)
        cfg = parse_scenario(format_antenna_block(av))
        assert cfg.antennas == av
        assert cfg.layout == hex_cluster(7, 2.0)
