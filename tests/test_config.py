import ast
import math
import random
import re
from pathlib import Path

import pytest
import yaml

from dasqos import config
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
    ClusterLayout,
    UserVector,
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
    radii: [0.5, 0.7, 0.1, 0.2, 0.3, 0.4, 0.6]
    angles: [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
run:
  seed: 11
  samples: 5000
  horizon: 200000
  warmup: 1000
  output: out.csv
  attempt_failure_prob: linked
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
        assert cfg.users == UserVector(
            (0.5, 0.7, 0.1, 0.2, 0.3, 0.4, 0.6), (0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
        )

        assert cfg.run == RunParams(
            seed=11,
            samples=5000,
            horizon=200_000,
            warmup=1000,
            output="out.csv",
            attempt_failure_prob=LINKED,
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
        assert cfg.layout == ClusterLayout(((0.0, 0.0), (2.0, 0.0)))
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

    def test_negative_seed(self):
        # numpy rejects it only once a command draws, with a traceback
        expect("run: {seed: -1}\n", "<config>:1:6: seed must be >= 0, got -1")

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

    def test_duplicate_priorities(self):
        # at the flow that repeats a priority; the message lists them all
        flow = "- priority: {}\n  arrival: {{kind: poisson, rate: 0.1}}\n  service: {{kind: unit}}\n"
        expect(
            "flows:\n" + "".join(flow.format(p) for p in (2, 1, 2)),
            "<config>:8:3: duplicate priorities: [1, 2, 2]",
        )

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
        # delay is always the sojourn; a waiting-time tail is the sojourn tail at d + 1
        expect(
            "run:\n  delay_convention: waiting\n",
            "<config>:2:21: unknown key 'delay_convention' in run",
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
        for text in ("inf", "-inf", "1e400"):
            expect(base.format(text), f"<config>:3:34: rate must be finite, got {text!r}")

    def test_source_named_like_the_key_keeps_the_location(self):
        # a number message is located once, even when it starts with the source name
        with pytest.raises(ConfigError) as err:
            parse_scenario("geometry:\n  centers: [[a, 0.0]]\n", source="x")
        assert str(err.value) == "x:2:14: x must be a number, got 'a'"

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
    # their message with the position of the mapping that holds the value
    def test_negative_poisson_rate(self):
        expect(
            "flows:\n- priority: 1\n  arrival:\n    kind: poisson\n"
            "    rate: -0.5\n  service:\n    kind: unit\n",
            "<config>:4:5: poisson rate must be > 0, got -0.5",
        )

    def test_bad_value_in_second_flow_points_at_that_flow(self):
        expect(
            "flows:\n"
            "- priority: 1\n  arrival: {kind: poisson, rate: 0.1}\n  service: {kind: unit}\n"
            "- priority: 2\n  arrival: {kind: poisson, rate: 1.0e-320}\n  service: {kind: unit}\n",
            "<config>:5:3: interval moments of Poisson(rate=1e-320) do not fit a float",
        )

    def test_negative_path_loss_exponent(self):
        expect(
            "channel:\n  path_loss_exponent: -2.0\n",
            "<config>:2:3: path loss exponent must be > 0, got -2.0",
        )


BLOCK_SCENARIO = """\
flows:
  - priority: 1
    name: voice
    arrival:
      kind: poisson
      rate: 0.2
    service:
      kind: unit
  - priority: 2
    name: data
    arrival:
      kind: poisson
      rate: 0.6
    service:
      kind: truncated_geometric
      failure_prob: 0.1
      max_attempts: 4
channel:
  path_loss_exponent: 2.0
  spectral_efficiency: 1.0
geometry:
  cluster_size: 7
  spacing: 2.0
  antennas:
    count: 4
    radius: 0.3
  users:
    radii: [0.5, 0.7, 0.1, 0.2, 0.3, 0.4, 0.6]
    angles: [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
run:
  seed: 7
  samples: 100
rm:
  max_iter: 50
"""

COUNT_ANTENNAS = "    count: 4\n    radius: 0.3\n"
POLAR_ANTENNAS = "    radii: [0.3, 0.3]\n    angles: [0.0, 3.0]\n"


def _mark(text: str, path: tuple) -> str:
    """The line:col of the node at path (mapping keys, list indices) in text."""
    node = yaml.compose(text, Loader=config.LOADER)
    for step in path:
        if isinstance(step, int):
            node = node.value[step]
        else:
            node = next(v for k, v in node.value if k.value == step)
    return f"{node.start_mark.line + 1}:{node.start_mark.column + 1}"


class TestConstructorErrorsPointAtTheirMapping:
    # one break per mapping of a block-style scenario; the error's line:col
    # must be where the mapping that holds the broken value starts
    def test_the_scenario_parses(self):
        parse_scenario(BLOCK_SCENARIO)
        parse_scenario(BLOCK_SCENARIO.replace(COUNT_ANTENNAS, POLAR_ANTENNAS))

    @pytest.mark.parametrize(
        "old, new, path, message",
        [
            ("path_loss_exponent: 2.0", "path_loss_exponent: -2.0", ("channel",),
             "path loss exponent must be > 0, got -2.0"),
            ("samples: 100", "samples: 1", ("run",), "need at least 2 samples, got 1"),
            ("max_iter: 50", "max_iter: 0", ("rm",), "max_iter and convergence_window must be >= 1"),
            ("priority: 1", "priority: 0", ("flows", 0), "priority must be >= 1, got 0"),
            ("rate: 0.6", "rate: -0.6", ("flows", 1, "arrival"), "poisson rate must be > 0, got -0.6"),
            ("failure_prob: 0.1", "failure_prob: 1.5", ("flows", 1, "service"),
             "attempt failure probability must be in [0, 1], got 1.5"),
            ("count: 4", "count: 0", ("geometry", "antennas"), "antenna count must be >= 1, got 0"),
            (COUNT_ANTENNAS, POLAR_ANTENNAS.replace("3.0]", "3.0, 4.0]"),
             ("geometry", "antennas"), "radii and angles must have equal length"),
            ("radii: [0.5,", "radii: [1.5,", ("geometry", "users"), "user radius must lie in [0, 1], got 1.5"),
            ("spacing: 2.0", "spacing: 0", ("geometry",), "center spacing must be > 0, got 0.0"),
        ],
        ids=["channel", "run", "rm", "flow", "arrival", "service", "antennas-count",
             "antennas-polar", "users", "cluster"],
    )
    def test_error_points_at_the_mapping(self, old, new, path, message):
        assert BLOCK_SCENARIO.count(old) == 1
        text = BLOCK_SCENARIO.replace(old, new)
        expect(text, f"<config>:{_mark(text, path)}: {message}")


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

    def test_antenna_block_round_trip_keeps_order_at_wrap(self):
        # an angle a hair below 0 is stored as 0, so the echo re-parses
        # with the antennas in the same order
        av = AntennaVector((0.5, 0.3), (-1e-17, 3.0))
        cfg = parse_scenario(format_antenna_block(av))
        assert cfg.antennas == av
        assert cfg.antennas.radii == (0.5, 0.3)


# --- libyaml and pure-Python composers -------------------------------------

# README's example scenario, read from its yaml block without the file-name comment
README_SCENARIO = re.search(
    r"```yaml\n# scenario.yaml\n(.*?)```",
    (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8"),
    re.S,
).group(1)


def _cell(path_loss_exponent: float, antennas: dict) -> dict:
    return {
        "channel": {"path_loss_exponent": path_loss_exponent},
        "geometry": {"cluster_size": 7, "spacing": 2.0, "antennas": antennas},
    }


def _benchmark_documents() -> list[str]:
    """The four benchmark scenarios at seed 1, dumped as the benchmark writes them."""
    unit = {"kind": "unit"}
    sim = {
        "flows": [
            {"priority": 1, "name": "voice", "arrival": {"kind": "poisson", "rate": 0.2}, "service": unit},
            {
                "priority": 2,
                "name": "data",
                "arrival": {"kind": "poisson", "rate": 0.6},
                "service": {"kind": "truncated_geometric", "failure_prob": 0.1, "max_attempts": 4},
            },
        ],
        "run": {"seed": 1, "horizon": 500_000, "warmup": 10_000, "attempt_failure_prob": 0.1},
    }
    analytic = {
        "flows": [
            {"priority": 1, "name": "control", "arrival": {"kind": "poisson", "rate": 0.1}, "service": unit},
            {
                "priority": 2,
                "name": "video",
                "arrival": {
                    "kind": "markov_fluid",
                    "rate_a": 0.5,
                    "rate_b": 0.1,
                    "weight_a": 0.5,
                    "weight_b": 0.5,
                },
                "service": {"kind": "truncated_geometric", "failure_prob": 0.1, "max_attempts": 3},
            },
            {
                "priority": 3,
                "name": "telemetry",
                "arrival": {"kind": "renewal", "mean": 8.0, "variance": 40.0},
                "service": unit,
            },
            {
                "priority": 4,
                "name": "bulk",
                "arrival": {"kind": "poisson", "rate": 0.3},
                "service": {"kind": "truncated_geometric", "failure_prob": 0.2, "max_attempts": 4},
            },
        ],
    }
    sweep = _cell(2.0, {"count": 4, "radius": 0.3})
    sweep["run"] = {"seed": 1, "samples": 10_000}
    optimize = _cell(4.0, {"radii": [0.0] * 4, "angles": [m * math.pi / 2.0 for m in range(4)]})
    optimize["run"] = {"seed": 1, "samples": 5_000}
    optimize["rm"] = {"mode": "full_polar", "max_iter": 70, "eval_samples": 5_000}
    return [yaml.safe_dump(doc, sort_keys=False) for doc in (sim, analytic, sweep, optimize)]


def _test_file_strings() -> list[str]:
    """Every string literal in this file and tests/test_cli.py: each scenario text among them."""
    here = Path(__file__).parent
    return sorted(
        {
            node.value
            for name in ("test_config.py", "test_cli.py")
            for node in ast.walk(ast.parse((here / name).read_text(encoding="utf-8")))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        }
    )


# characters a mutant inserts: YAML indicators, line breaks and a tab, a bell,
# a BOM, non-ASCII and astral characters, digits and letters
MUTANT_ALPHABET = ":-[]{},#&*!|>'\"%@`? \n\r\t\x07\ufeff\u00e9\u2028\U0001f600019.eaz"


def _mutants(texts: list[str], count: int, seed: int) -> list[str]:
    """count texts, each one of texts with 1-3 characters deleted, inserted or replaced."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        chars = list(rng.choice(texts))
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(chars) + 1)
            op = rng.choice(("delete", "insert", "replace"))
            new = rng.choice(MUTANT_ALPHABET + "".join(chars))
            if op == "insert":
                chars.insert(i, new)
            elif i < len(chars):
                chars[i : i + 1] = [new] if op == "replace" else []
        out.append("".join(chars))
    return out


CRAFTED = [
    README_SCENARIO.replace("\n", "\r\n"),
    README_SCENARIO.replace("\n", "\r"),
    "\ufeff" + README_SCENARIO,
    "run:\r\n  seed: 1\r\n  bogus: 2\r\n",
    "run: {seed: 1}  # caf\u00e9\nchannel: {\u00e9: 1}\n",
    "run: {seed: \"\U0001f600\", samples: 9}\n",
    "\U0001f600: 1\n",
    "run: {samples: \U0001f600\U0001f600, seed: x}\n",
    "run: &r {seed: 1}\nchannel: *r\n",
    "base: &b {seed: 3}\nrun:\n  <<: *b\n",
    "run:\n  <<: {seed: 3}\n",
    "run: {seed: 1}\n---\nrun: {seed: 2}\n",
    "run: {seed: 1}\n...\n",
    "run: {seed: \x07}\n",
    "run:\n  seed: 1\n   samples: 2\n",
]


# Inputs on which the two composers are known to differ. libyaml accepts a
# tab after "key:" or in a plain scalar, and a "?" inside a plain scalar in a
# flow collection, as YAML 1.2 does; it counts a U+FEFF past the first
# character as a column and skips one at a line start; it locates an empty
# value in a flow collection at the next ",", "}" or "]", and rejects "key:}".
KNOWN_DIFFERENCES = re.compile(r"\t|\S\?|(?s:.)\ufeff|:[ \r\n]*[,}\]]")


def _outcome(text: str):
    """What parse_scenario makes of text: the config, or its error without libyaml's wording."""
    try:
        return parse_scenario(text)
    except ConfigError as exc:
        message = str(exc)
        if message.startswith("<config>: invalid YAML:"):
            return "<config>: invalid YAML:"
        return message


def _outcomes(monkeypatch, loader, texts: list[str]) -> list:
    monkeypatch.setattr(config, "LOADER", loader)
    return [_outcome(t) for t in texts]


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML was built without libyaml")
class TestComposers:
    """parse_scenario gives the same result under libyaml's composer and the
    pure-Python one, apart from the KNOWN_DIFFERENCES inputs and the body of
    an invalid-YAML message."""

    def assert_same(self, monkeypatch, texts: list[str]) -> list:
        """The outcomes of the texts outside KNOWN_DIFFERENCES, checked equal under both composers."""
        compared = [t for t in texts if not KNOWN_DIFFERENCES.search(t)]
        fast = _outcomes(monkeypatch, yaml.CSafeLoader, compared)
        slow = _outcomes(monkeypatch, yaml.SafeLoader, compared)
        assert [(t, f, s) for t, f, s in zip(compared, fast, slow) if f != s] == []
        return fast

    def test_libyaml_is_the_default_when_present(self):
        assert config.LOADER is yaml.CSafeLoader

    def test_test_file_scenarios(self, monkeypatch):
        results = self.assert_same(monkeypatch, _test_file_strings() + [FULL, README_SCENARIO] + CRAFTED)
        assert sum(isinstance(r, ScenarioConfig) for r in results) >= 20

    def test_benchmark_documents_parse(self, monkeypatch):
        results = self.assert_same(monkeypatch, _benchmark_documents() + [README_SCENARIO])
        assert len(results) == 5
        assert all(isinstance(r, ScenarioConfig) for r in results)

    @pytest.mark.parametrize("seed", range(4))
    def test_mutants(self, monkeypatch, seed):
        texts = _mutants(_benchmark_documents() + [README_SCENARIO], 550, seed)
        results = self.assert_same(monkeypatch, texts)
        assert len(results) >= 500
        # the corpus reaches past the composer: whole configs and located errors
        assert any(isinstance(r, ScenarioConfig) for r in results)
        assert any(isinstance(r, str) and "YAML" not in r for r in results)

    @pytest.mark.parametrize(
        "text, libyaml, pure_python",
        [
            (
                "run: {seed: , samples: 9}\n",
                "<config>:1:13: seed must be an integer, got ''",
                "<config>:1:12: seed must be an integer, got ''",
            ),
            ("run: {seed:}\n", "<config>: invalid YAML:", "<config>:1:12: seed must be an integer, got ''"),
            ("run: {seed: 7, samples?: 9}\n", "<config>:1:26: unknown key 'samples?' in run", "<config>: invalid YAML:"),
            (
                "run:\n  \ufeffbogus: 1\n",
                "<config>:2:11: unknown key '\\ufeffbogus' in run",
                "<config>:2:10: unknown key '\\ufeffbogus' in run",
            ),
        ],
    )
    def test_known_differences(self, monkeypatch, text, libyaml, pure_python):
        assert KNOWN_DIFFERENCES.search(text)
        assert _outcomes(monkeypatch, yaml.CSafeLoader, [text]) == [libyaml]
        assert _outcomes(monkeypatch, yaml.SafeLoader, [text]) == [pure_python]

    def test_tab_separator_is_accepted(self):
        assert parse_scenario("run:\n  seed:\t7\n").run.seed == 7
