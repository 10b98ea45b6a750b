"""Delay and outage workbench for prioritized uplink traffic over
distributed antennas.

The analysis half bounds queueing-delay violation for strict-priority flows
through energy (log moment generating) functions; the geometry half scores
antenna placements by expected outage and optimizes them. A slot-level
queue simulator runs the same priority systems the analysis builds. The
independent checks on each closed form (the simulator's tail fit, a fading
Monte Carlo, the replaced scalar and partial-fraction outage, the exact
binomial energy) live under tests/.

The package is used through the `dasqos` command (dasqos.cli) and exports no
names of its own: its modules import as dasqos.<module>. Importing the
package loads none of them, so the analysis half imports without numpy.
"""
__version__ = "0.1.0"
