"""Golden digests of the single-pulse heap sweep under faults.

Each case pins the sha256 of ``(trigger_times, guards, correct_mask, work)``
of :func:`repro.core.pulse_solver.solve_single_pulse` on a fault scenario the
sweep must reproduce bit for bit: node faults of every type, explicit link
faults, a faulty clock source, a starved node, a damaged die and table
delays.  The digests double as a record contract -- the delay draws happen
inside the sweep, so a change of traversal order changes them.

Regenerate (only for an intended record change) with::

    PYTHONPATH=src python tests/test_solver_golden.py
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np
import pytest

from repro.core.parameters import TimingConfig
from repro.core.pulse_solver import solve_single_pulse
from repro.core.topology import HexGrid
from repro.faults.models import FaultModel, FaultType, LinkBehavior, NodeFault
from repro.faults.placement import build_fault_model
from repro.simulation.links import TableDelays, UniformRandomDelays
from repro.topologies import build_topology

TIMING = TimingConfig.paper_defaults()


def _random(grid, seed):
    rng = np.random.default_rng(seed)
    layer0 = rng.uniform(0.0, TIMING.d_max, size=grid.width)
    return rng, layer0, UniformRandomDelays(TIMING, rng)


def _fault_free():
    grid = HexGrid(layers=14, width=9)
    _, layer0, delays = _random(grid, 0)
    return grid, layer0, delays, None, 0.0


def _byzantine():
    grid = HexGrid(layers=14, width=9)
    rng, layer0, delays = _random(grid, 1)
    model = FaultModel(
        grid,
        [NodeFault.byzantine(grid, node, rng=rng) for node in [(3, 2), (7, 6), (11, 0)]],
    )
    return grid, layer0, delays, model, 0.0


def _byzantine_late_high():
    grid, layer0, delays, model, _ = _byzantine()
    return grid, layer0, delays, model, 40.0


def _fail_silent():
    grid = HexGrid(layers=12, width=8)
    _, layer0, delays = _random(grid, 2)
    model = FaultModel(grid, [NodeFault.fail_silent(grid, (5, 3))])
    return grid, layer0, delays, model, 0.0


def _crash():
    grid = HexGrid(layers=12, width=8)
    _, layer0, delays = _random(grid, 3)
    model = FaultModel(
        grid, [NodeFault.crash(grid, (4, 1), 30.0), NodeFault.crash(grid, (9, 5), 0.0)]
    )
    return grid, layer0, delays, model, 0.0


def _link_faults():
    grid = HexGrid(layers=10, width=7)
    _, layer0, delays = _random(grid, 4)
    model = FaultModel(
        grid,
        link_faults={
            ((2, 3), (3, 3)): LinkBehavior.CONSTANT_ONE,
            ((2, 3), (2, 4)): LinkBehavior.CONSTANT_ZERO,
            ((5, 0), (6, 6)): LinkBehavior.CONSTANT_ONE,
            ((5, 1), (6, 1)): LinkBehavior.CONSTANT_ONE,
            ((5, 2), (6, 1)): LinkBehavior.CONSTANT_ONE,
            ((6, 2), (6, 1)): LinkBehavior.CONSTANT_ONE,
            ((0, 4), (1, 4)): LinkBehavior.CONSTANT_ZERO,
        },
    )
    return grid, layer0, delays, model, 0.0


def _faulty_source():
    grid = HexGrid(layers=10, width=8)
    rng, layer0, delays = _random(grid, 5)
    model = FaultModel(
        grid,
        [
            NodeFault.byzantine(grid, (0, 2), rng=rng),
            NodeFault.fail_silent(grid, (0, 6)),
        ],
    )
    return grid, layer0, delays, model, 0.0


def _adjacent_silent():
    grid = HexGrid(layers=10, width=8)
    _, layer0, delays = _random(grid, 6)
    model = FaultModel(
        grid, [NodeFault.fail_silent(grid, (4, 3)), NodeFault.fail_silent(grid, (4, 4))]
    )
    return grid, layer0, delays, model, 0.0


def _degraded():
    grid = build_topology("degraded:links=4,nodes=3,seed=2", 16, 10)
    rng, layer0, delays = _random(grid, 7)
    model = build_fault_model(grid, 2, FaultType.BYZANTINE, rng)
    return grid, layer0, delays, model, 0.0


def _table_delays():
    grid = HexGrid(layers=10, width=6)
    rng = np.random.default_rng(8)
    table = {
        link: (TIMING.d_min if index % 3 else TIMING.d_max)
        for index, link in enumerate(grid.links())
    }
    delays = TableDelays(table, default=TIMING.d_max)
    model = FaultModel(
        grid,
        [NodeFault.byzantine(grid, (3, 1), rng=rng), NodeFault.fail_silent(grid, (6, 4))],
        link_faults={((1, 0), (2, 0)): LinkBehavior.CONSTANT_ONE},
    )
    return grid, np.zeros(grid.width), delays, model, 0.0


CASES = {
    "fault_free": _fault_free,
    "byzantine": _byzantine,
    "byzantine_late_high": _byzantine_late_high,
    "fail_silent": _fail_silent,
    "crash": _crash,
    "link_faults": _link_faults,
    "faulty_source": _faulty_source,
    "adjacent_silent": _adjacent_silent,
    "degraded": _degraded,
    "table_delays": _table_delays,
}

GOLDEN = {
    "adjacent_silent": "65bf6ffa795390612234e034a1dda13be48b37a98949733a52ce6ab55bac820c",
    "byzantine": "648b7e691200e4633413298c968576c1e06068b2ed4a7779edcbf6d1b3404c43",
    "byzantine_late_high": "9ab10a75ddb6583bb6691d76781ee427ac9a4aded0f48b178fa5402f982c0040",
    "crash": "417eb7975d3603f4cabf897a7fecd52f425eaaae7279289bf01b3ed30a6e421f",
    "degraded": "2c7404064ac691f73b59e2ab06665132f979381d30b790ad37edaebe53a513e6",
    "fail_silent": "e4382c8cb82411044d7f56a76554f577e2c5ffd2fbf6116be5a112776862bb25",
    "fault_free": "6130007b27bbea5201dec10de7d4d7f152abcb728b16c02e560a701e95df3e1e",
    "faulty_source": "17fe854a1a17d3a58d5cffead2ca9cbce8ebfe3fc8d440d7d440c120c4d9aa5c",
    "link_faults": "0adc0eb3f255ae8fa84328a995984761e2e3d061458b48998c3109026f3eb11d",
    "table_delays": "03efbfbdee97bbe1391ba935d61f35ddad4a69def64f13fb43c47f5c44a2f7c5",
}


def _solve(name):
    grid, layer0, delays, model, high = CASES[name]()
    return solve_single_pulse(grid, layer0, delays, fault_model=model, byzantine_high_time=high)


def _digest(solution) -> str:
    digest = hashlib.sha256()
    for array in (solution.trigger_times, solution.guards, solution.correct_mask):
        digest.update(repr((array.dtype.str, array.shape)).encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    digest.update(json.dumps(solution.work, sort_keys=True).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_faulty_sweep_matches_golden_digest(name):
    assert _digest(_solve(name)) == GOLDEN[name]


def test_adjacent_silent_nodes_starve_their_common_successor():
    solution = _solve("adjacent_silent")
    assert math.isinf(solution.trigger_times[5, 3])
    assert solution.correct_mask[5, 3]
    assert np.isnan(solution.trigger_times[4, 3]) and np.isnan(solution.trigger_times[4, 4])


if __name__ == "__main__":
    for case in sorted(CASES):
        print(f'    "{case}": "{_digest(_solve(case))}",')
