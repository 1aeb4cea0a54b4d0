"""Discrete-event simulation substrate (replaces the paper's ModelSim/VHDL testbed).

* :mod:`repro.simulation.events` -- typed simulation events.
* :mod:`repro.simulation.engine` -- the time-ordered event queue.
* :mod:`repro.simulation.links` -- link delay models (uniform random,
  deterministic, per-link tables).
* :mod:`repro.simulation.network` -- a HEX grid of node automata wired through
  delay channels, with fault injection and arbitrary initial states.

Runs are executed through the engine API (``get_engine(name).run(spec)``,
see :mod:`repro.engines`), which builds on this substrate.
"""

from repro.simulation.engine import EventQueue
from repro.simulation.links import (
    ConstantDelays,
    DelayModel,
    FreshUniformDelays,
    TableDelays,
    UniformRandomDelays,
)
from repro.simulation.network import HexNetwork, TimerPolicy

__all__ = [
    "DelayModel",
    "ConstantDelays",
    "TableDelays",
    "UniformRandomDelays",
    "FreshUniformDelays",
    "EventQueue",
    "HexNetwork",
    "TimerPolicy",
]
