"""Print the frozen reference values the workload checks compare against.

    python3 perfbench/references.py

Run from the repository root, on the dasqos sources the references should
come from. It prints, for pasting into workloads.py:

- SWEEP_REFERENCE: radius_sweep on the sweep workload's cell at
  SWEEP_SAMPLES draws, (e_outage, std_err) per radius 0, 0.05, ..., 0.9;
- OPT_CENTRE_REFERENCE: expected_outage of the optimize workload's start
  layout (all antennas at the centre) at CENTRE_SAMPLES draws;
- ANALYTIC_DECAY_RATES: delay_decay_rate of each delay-analytic flow.

The scenarios are the workloads' own documents, and the draws are many
times those of a workload call, so the references' errors are small
beside a call's. Takes about a minute.
"""
import math
import os
import sys
import warnings

import numpy as np
import yaml

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from dasqos.config import parse_scenario  # noqa: E402
from dasqos.delay import PrioritySystem, delay_decay_rate  # noqa: E402
from dasqos.outage import CellScenario, expected_outage  # noqa: E402
from dasqos.placement import radius_sweep  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SWEEP_SEED, SWEEP_SAMPLES = 20260101, 200_000
CENTRE_SEED, CENTRE_SAMPLES = 20260102, 400_000


def scenario(workload: str):
    return parse_scenario(yaml.safe_dump(WORKLOADS[workload].document(0), sort_keys=False))


def main() -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # coincident-pole fallbacks are expected
        cell = CellScenario(*scenario("sweep").require_cell())
        grid = [round(0.05 * i, 2) for i in range(19)]
        sweep = radius_sweep(cell, grid, SWEEP_SAMPLES, np.random.default_rng(SWEEP_SEED))
        centre = expected_outage(
            CellScenario(*scenario("optimize").require_cell()), CENTRE_SAMPLES,
            np.random.default_rng(CENTRE_SEED),
        )
    print("SWEEP_REFERENCE = (")
    for value, se in zip(sweep.outage, sweep.std_err):
        print(f"    ({value:.6f}, {se:.6f}),")
    print(")")
    print(f"OPT_CENTRE_REFERENCE = ({centre.value:.6f}, {centre.std_err:.6f})")

    cfg = scenario("delay-analytic")
    system = PrioritySystem(cfg.flows, cfg.run.higher_priority_mode)
    print("ANALYTIC_DECAY_RATES = {")
    for flow in cfg.flows:
        rate = delay_decay_rate(system, flow.priority)
        assert math.isfinite(rate) and rate > 0.0, rate
        print(f'    "{flow.priority}": {rate!r},')
    print("}")


if __name__ == "__main__":
    main()
