"""Traced runs: spans and counts around the public functions of each layer.

The tracer replaces a function with a wrapper in its own module and in
every `dasqos` module that imported it by name (cli, placement, delay and
slotsim bind many of them directly), and restores the originals on exit.
Each span records its name, start, end and parent; a span's self time is
its duration minus the durations of its children. Functions called
hundreds of thousands of times per call (energy and moment evaluations,
the per-antenna closed form) are counted, not timed, so that the wrapper
does not swamp what it measures.
"""
from __future__ import annotations

import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("config", "cli", "geometry", "outage", "placement", "slotsim", "traffic", "delay")


def _arg(fn, name):
    sig = inspect.signature(fn)
    return lambda args, kwargs: sig.bind(*args, **kwargs).arguments[name]


class Tracer:
    """Spans of the current call plus counters; install() wraps, close() restores."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._open: list[int] = []
        self.counts: Counter = Counter()
        self.flows_seen: set = set()
        self._patched: list[tuple[object, str, object]] = []

    def _rebind(self, module_name: str, attr: str, wrapper) -> None:
        original = getattr(sys.modules[f"dasqos.{module_name}"], attr)
        for name, module in list(sys.modules.items()):
            if name == "dasqos" or name.startswith("dasqos."):
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def span(self, module_name: str, attr: str, name: str | None = None, after=None, before=None) -> None:
        """Time `attr`; after(args, kwargs, result, token) runs on return,
        with token = before(args, kwargs) taken at entry."""
        fn = getattr(sys.modules[f"dasqos.{module_name}"], attr)
        name = name or f"{module_name}.{attr}"
        spans, open_ = self.spans, self._open

        def wrapper(*args, **kwargs):
            token = before(args, kwargs) if before is not None else None
            record = [name, perf_counter(), 0.0, open_[-1] if open_ else -1]
            open_.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                open_.pop()
            if after is not None:
                after(args, kwargs, result, token)
            return result

        self._rebind(module_name, attr, wrapper)

    def count(self, module_name: str, attr: str, counter: str) -> None:
        fn = getattr(sys.modules[f"dasqos.{module_name}"], attr)
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        self._rebind(module_name, attr, wrapper)

    def install(self) -> "Tracer":
        import dasqos.cli  # noqa: F401  loads every layer module
        from dasqos import cli, delay, geometry, outage, placement, slotsim

        c = self.counts
        self.count("energy", "eval_energy", "energy.eval_energy.calls")
        self.count("traffic", "arrival_moments", "traffic.moment_calls")
        self.count("traffic", "service_moments", "traffic.moment_calls")
        self.count("outage", "antenna_outage_closed_form", "outage.closed_form.calls")

        rows = _arg(cli._emit, "rows")
        self.span("cli", "_emit", "cli.emit", lambda a, k, r, t: c.update({"cli.rows": len(rows(a, k))}))
        self.span("config", "load_scenario")
        batch = _arg(geometry.sample_user_batch, "samples")
        self.span("geometry", "sample_user_batch",
                  after=lambda a, k, r, t: c.update({"geometry.user_draws": batch(a, k)}))
        self.span("geometry", "sample_user_vector",
                  after=lambda a, k, r, t: c.update({"geometry.user_draws": 1}))
        samples = _arg(outage.expected_outage, "samples")
        self.span("outage", "expected_outage",
                  after=lambda a, k, r, t: c.update({"outage.user_evals": samples(a, k)}))
        self.span("outage", "conditional_system_outage",
                  after=lambda a, k, r, t: c.update({"outage.user_evals": 1}))
        # search quality: final expected outage over that of the start layout
        self.span("placement", "rm_optimize", after=lambda a, k, r, t: c.update({
            "placement.final_over_start": r[1].outage[-1] / r[1].outage[0]}))
        self.span("placement", "_fd_gradient", "placement.gradient")
        self.span("placement", "radius_sweep")
        sim_cfg = _arg(slotsim.simulate, "cfg")
        self.span("slotsim", "simulate", after=lambda a, k, r, t: c.update({
            "slotsim.slots": sim_cfg(a, k).horizon,
            "slotsim.departures": sum(f.departures for f in r.flows),
        }))
        self.span("traffic", "sample_interarrival")

        system = _arg(delay.solve_phi_star, "system")
        priority = _arg(delay.solve_phi_star, "priority")

        def solved(args, kwargs, result, evals_before):
            c["delay.energy_evals_in_solve"] += c["energy.eval_energy.calls"] - evals_before
            self.flows_seen.add((id(system(args, kwargs)), priority(args, kwargs)))

        self.span("delay", "solve_phi_star", before=lambda a, k: c["energy.eval_energy.calls"], after=solved)
        return self

    def close(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def root(self, start: float, end: float) -> None:
        """Record the whole `dasqos` call as the parent of the top spans."""
        root = len(self.spans)
        self.spans.append(["cli.main", start, end, -1])
        for record in self.spans[:root]:
            if record[3] == -1:
                record[3] = root

    def call_metrics(self, fallback_draws: int) -> dict[str, float]:
        """Per-layer figures for the call just traced."""
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        child_time = [0.0] * len(self.spans)
        for record in self.spans:
            if record[3] >= 0:
                child_time[record[3]] += record[2] - record[1]
        parent_total: dict[tuple[str, str], float] = defaultdict(float)
        parent_calls: Counter = Counter()
        for i, (name, start, end, parent) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child_time[i]
            calls[name] += 1
            if parent >= 0:
                parent_total[(self.spans[parent][0], name)] += end - start
                parent_calls[(self.spans[parent][0], name)] += 1
        c = self.counts
        solves = calls["delay.solve_phi_star"]
        gradients = calls["placement.gradient"]
        slots = c["slotsim.slots"]
        evals = c["outage.user_evals"] - calls["outage.conditional_system_outage"]
        m = {
            "slotsim.simulate.self_s": own["slotsim.simulate"],
            "slotsim.ns_per_slot": total["slotsim.simulate"] * 1e9 / slots if slots else 0.0,
            "slotsim.slots": slots,
            "slotsim.departures": c["slotsim.departures"],
            "traffic.sample_interarrival.s": total["traffic.sample_interarrival"],
            "delay.solve_phi_star.s": total["delay.solve_phi_star"],
            "delay.solve_phi_star.calls": solves,
            "delay.solves_per_flow": solves / len(self.flows_seen) if self.flows_seen else 0.0,
            "delay.energy_evals_per_solve": c["delay.energy_evals_in_solve"] / solves if solves else 0.0,
            "energy.eval_energy.calls": c["energy.eval_energy.calls"],
            "traffic.moment_calls": c["traffic.moment_calls"],
            "cli.emit.s": total["cli.emit"],
            "cli.rows": c["cli.rows"],
            "outage.expected_outage.s": total["outage.expected_outage"],
            "outage.expected_outage.self_s": own["outage.expected_outage"],
            "outage.user_evals": c["outage.user_evals"],
            "outage.conditional_system_outage.s": total["outage.conditional_system_outage"],
            "outage.conditional_system_outage.calls": calls["outage.conditional_system_outage"],
            "outage.closed_form.calls": c["outage.closed_form.calls"],
            "outage.fallback_draws": fallback_draws,
            "outage.fallback_share": fallback_draws / evals if evals else 0.0,
            "geometry.sample_user_batch.s": total["geometry.sample_user_batch"],
            "geometry.user_draws": c["geometry.user_draws"],
            "placement.rm_optimize.self_s": own["placement.rm_optimize"],
            "placement.trace_scoring.s": parent_total[("placement.rm_optimize", "outage.expected_outage")],
            "placement.gradient.s": total["placement.gradient"],
            # every expected_outage under rm_optimize scores one trace row
            "placement.iterations": parent_calls[("placement.rm_optimize", "outage.expected_outage")],
            "placement.final_over_start": c["placement.final_over_start"],
            "placement.probes_per_iter": (
                parent_calls[("placement.gradient", "outage.conditional_system_outage")] / gradients
                if gradients else 0.0
            ),
            "placement.radius_sweep.self_s": own["placement.radius_sweep"],
            "config.load_scenario.s": total["config.load_scenario"],
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = sum(v for k, v in own.items() if k.split(".")[0] == layer)
        return m
