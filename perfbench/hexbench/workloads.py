"""The three benchmark workloads and one measured round of each.

A *round* is the unit the benchmark repeats for ``--seconds``: the same
seeded inputs every time, so every round of a run does identical work and
produces identical outputs.

* ``sweep-random`` -- the paper's single-pulse skew sweep on the 50x20
  cylinder with the default (uniform random) link delays: scenarios
  (i)-(iv) on the ``solver``, ``array`` and ``clocktree`` engines, plus 1-3
  Byzantine faults on ``solver``.  150 small tasks.
* ``scale-worstcase`` -- deterministic ``max_skew`` delays, scenario (iii):
  ``array`` on 512x512 cylinder, torus and patch dies, a 128x128
  ``degraded:links=3,nodes=3,seed=1`` die on ``array`` and ``solver``, and
  ``solver`` and ``clocktree`` on a 96x96 cylinder.  Records keep their
  trigger times, so the store traffic is large.
* ``soak-churn`` -- :func:`repro.experiments.soak.run_soak` with the default
  :class:`~repro.experiments.soak.SoakSpec` (10x6 grid, two Byzantine
  faults injected and healed per 512-pulse epoch, random initial states)
  cut to two epochs, checkpointing to a scratch store.

Campaign rounds run ``CampaignRunner(workers=1)`` into a scratch
:class:`~repro.campaign.CampaignStore`, then ``resume=True`` passes served
entirely from that store.  Soak rounds then resume from the checkpoint their
first epoch left.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import repro.experiments.soak as soak_module
from repro.adversary.schedule import FaultSchedule
from repro.analysis.skew import SkewStatistics
from repro.campaign import CampaignRunner, CampaignSpec, SweepSpec
from repro.campaign.runner import execute_task
from repro.campaign.store import CampaignStore, ShardWriter
from repro.engines import ArrayEngine, ClockTreeEngine, DesEngine, SolverEngine
from repro.experiments.soak import SoakSpec, checkpoint_path, run_soak
from repro.simulation.network import HexNetwork
from repro.stream import StreamSummary
from repro.topologies import TopologySpec

from hexbench import oracle
from hexbench.spans import Instrumentation

#: The seed whose outputs ``perfbench/digests.json`` pins.
DEFAULT_SEED = 2013

#: Tasks on dies of at most this many nodes are re-checked against the
#: exactness contract after the timed rounds.
CONTRACT_NODES = 20_000

ENGINE_CLASSES = {
    "solver": SolverEngine,
    "array": ArrayEngine,
    "clocktree": ClockTreeEngine,
}


def _records_loaded(recorder, result, args) -> None:
    recorder.add("campaign.store.records_loaded", len(result))


def _events(recorder, result, args) -> None:
    # HexNetwork.run returns the number of events it processed.  The obs
    # counter des.events_processed is not emitted when a caller supplies its
    # own network observer (as run_soak does), so the count is taken here.
    recorder.add("des.events_processed", result)


CAMPAIGN_TARGETS = [
    (CampaignSpec, "tasks", "campaign.spec.expand", None),
    (CampaignRunner, "run", "campaign.runner", None),
    (ShardWriter, "append", "campaign.store.append", None),
    (CampaignStore, "load", "campaign.store.load", _records_loaded),
    (TopologySpec, "build", "topologies.build", None),
    (SkewStatistics, "from_times", "analysis.skew", None),
] + [
    (engine_class, method, f"engines.{name}", None)
    for name, engine_class in ENGINE_CLASSES.items()
    for method in ("run", "run_batch")
]

SOAK_TARGETS = [
    (DesEngine, "multi_pulse", "engines.des", None),
    (HexNetwork, "run", None, _events),
    (FaultSchedule, "burst", "adversary.schedule", None),
    (FaultSchedule, "materialize", "adversary.schedule", None),
    (StreamSummary, "add", "stream.update", None),
    (StreamSummary, "extend", "stream.update", None),
    (StreamSummary, "flush", "stream.update", None),
    (soak_module, "save_checkpoint", "soak.checkpoint", None),
    (soak_module, "load_checkpoint", "soak.checkpoint", None),
]


@dataclass
class Round:
    """What one round did, how long it took and what its outputs were."""

    run_s: Optional[float] = None
    #: Time of the round's block of resume passes (``None`` if one raised).
    resume_s: Optional[float] = None
    #: Lap durations of the fresh pass, and of each resume pass (see
    #: :attr:`Workload.lap_mark`), read from the round's clock.
    fresh_laps: List[float] = field(default_factory=list)
    resume_laps: List[List[float]] = field(default_factory=list)
    bytes_written: int = 0
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    digests: Dict[str, str] = field(default_factory=dict)

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        self.problems.append(problem)


def lap_durations(start: float, marks: List[float], end: float) -> List[float]:
    """The laps ``[start, mark 1, ..., mark n, end]`` cuts a pass into."""
    edges = [start] + marks + [end]
    return [after - before for before, after in zip(edges, edges[1:])]


class Workload:
    """One round: a fresh pass into a scratch store, then resume passes from it.

    Subclasses supply the passes and their checks; this class times them,
    keeps the reference digests and does the failure accounting.
    """

    name = ""
    targets: list = []
    #: Resume passes per round.  Each is a pass of its own in the lap
    #: estimate, so short passes give a run more samples of the same work.
    resume_passes = 1
    #: Clock pulses one engine run of the fresh pass simulates.
    pulses_per_unit = 1
    #: ``(owner, attribute)`` of a program function whose every return ends a
    #: lap of the pass that calls it.  Rounds repeat identical work, so lap
    #: ``i`` is the same stretch of work in every round of a run.
    lap_mark: tuple = ()

    def __init__(self, seed: int, committed: Optional[Dict[str, str]] = None) -> None:
        self.seed = seed
        #: Digests every round must reproduce: the committed ones at the
        #: default seed, else those of the run's first round.
        self.reference: Optional[Dict[str, str]] = (
            dict(committed) if committed is not None and seed == DEFAULT_SEED else None
        )
        #: The first round's fresh records, for the exactness-contract check.
        self.first_records: Optional[list] = None
        self._checked: set = set()

    def run_round(self, root: Path, span: Callable = nullcontext,
                  between: Optional[Callable[[Path], None]] = None,
                  clock: Callable[[], float] = time.perf_counter) -> Round:
        """Time one fresh pass and the resume passes, then check the outputs.

        ``span`` wraps each timed pass (the traced run's instrumentation);
        ``between`` is called with the store directory between the passes;
        ``clock`` times the laps (the wall-clock times ``run_s`` and
        ``resume_s`` always read ``time.perf_counter``).
        """
        current = Round()
        root.mkdir(parents=True, exist_ok=True)
        store = Path(tempfile.mkdtemp(dir=root))
        resumed = None
        try:
            try:
                with span(), self.laps(clock) as marks:
                    start, lap_start = time.perf_counter(), clock()
                    fresh = self.fresh_pass(store)
                    lap_end = clock()
                    current.run_s = time.perf_counter() - start
                current.fresh_laps = lap_durations(lap_start, marks, lap_end)
            except Exception as error:  # a raising task must not abort the run
                current.run_s = None
                self.isolate_failures(current, error)
                return current
            current.bytes_written = sum(path.stat().st_size for path in store.iterdir())
            if between is not None:
                between(store)
            try:
                with span():
                    block = time.perf_counter()
                    for _ in range(self.resume_passes):
                        with self.laps(clock) as marks:
                            lap_start = clock()
                            resumed = self.resume_pass(store)
                            lap_end = clock()
                        current.resume_laps.append(lap_durations(lap_start, marks, lap_end))
                    current.resume_s = time.perf_counter() - block
            except Exception as error:
                resumed = None
                current.fail(self.resume_units, f"resume pass raised {error!r}")
        finally:
            shutil.rmtree(store, ignore_errors=True)
        # The passes repeat one read of the same bytes; the last one is checked.
        current.attempted = self.fresh_units + self.resume_units
        self.check(current, fresh, resumed)
        self.compare_digests(current)
        return current

    @contextmanager
    def laps(self, clock: Callable[[], float]):
        """Collect the ``clock`` reading at every return of :attr:`lap_mark` in the block."""
        marks: List[float] = []

        def mark(recorder, result, args) -> None:
            marks.append(clock())

        owner, attribute = self.lap_mark
        with Instrumentation([(owner, attribute, None, mark)]):
            yield marks

    def compare_digests(self, current: Round) -> None:
        if self.reference is None:
            self.reference = dict(current.digests)
            return
        wrong = sorted(
            unit for unit, digest in current.digests.items()
            if self.reference.get(unit) != digest
        )
        missing = sorted(set(self.reference) - set(current.digests))
        if wrong or missing:
            current.fail(
                (len(wrong) + len(missing)) * self.units_per_digest,
                f"{len(wrong)} outputs differ from the reference digests, "
                f"{len(missing)} missing (first: {(wrong + missing)[:3]})",
            )


class CampaignWorkload(Workload):
    """A campaign run into a scratch store, then resumed from it."""

    targets = CAMPAIGN_TARGETS
    lap_mark = (ShardWriter, "append")
    bytes_metric = "campaign.store.bytes_written"
    units_per_digest = 1

    def __init__(self, seed: int, committed: Optional[Dict[str, str]] = None) -> None:
        super().__init__(seed, committed)
        self.spec = CampaignSpec(name=self.name, seed=seed, cells=self.cells())
        self.tasks = self.spec.tasks()
        self.fresh_units = self.resume_units = len(self.tasks)

    def cells(self) -> tuple:
        raise NotImplementedError

    def warm_up(self) -> None:
        """One tiny task per engine, so lazy imports and caches are filled."""
        engines = sorted({task.engine for task in self.tasks})
        tiny = CampaignSpec(
            name="warm-up",
            seed=DEFAULT_SEED,
            cells=(SweepSpec(layers=6, width=5, engine=tuple(engines), runs=1),),
        )
        CampaignRunner(tiny, workers=1).run()

    def fresh_pass(self, store: Path):
        return CampaignRunner(self.spec, workers=1, store=str(store)).run()

    def resume_pass(self, store: Path):
        return CampaignRunner(self.spec, workers=1, store=str(store), resume=True).run()

    def check(self, current: Round, fresh, resumed) -> None:
        self._check_records(current, fresh.records)
        if resumed is None:
            return
        if resumed.cached != len(self.tasks):
            current.fail(len(self.tasks) - resumed.cached,
                         f"resume pass simulated {resumed.executed} tasks instead of "
                         "serving all from the store")
        wrong = sum(
            oracle.record_digest(record) != current.digests.get(record.key)
            for record in resumed.records
        )
        if wrong:
            current.fail(wrong, f"{wrong} records changed through a store round trip")

    def _check_records(self, current: Round, records: list) -> None:
        if self.first_records is None:
            self.first_records = records
        for record in records:
            digest = oracle.record_digest(record)
            current.digests[record.key] = digest
            if digest in self._checked:
                continue
            problems = oracle.bound_violations(record, self.spec.timing)
            if problems:
                current.fail(1, f"task {record.key}: {problems[0]}")
            else:
                self._checked.add(digest)

    def isolate_failures(self, current: Round, error: Exception) -> None:
        """Re-execute task by task to count which tasks raise."""
        current.problems.append(f"campaign raised {error!r}; isolating failed tasks")
        records = []
        for task in self.tasks:
            current.attempted += 1
            try:
                records.append(execute_task(task))
            except Exception as task_error:
                current.fail(1, f"task {task.key()} raised {task_error!r}")
        self._check_records(current, records)

    def check_contract(self) -> Round:
        """Re-check the small dies' records against their engine's contract.

        Dies up to :data:`CONTRACT_NODES` nodes only: re-running a 512x512
        die on the heap solver alone would take longer than a whole run.
        """
        current = Round()
        by_key = {record.key: record for record in self.first_records or []}
        for task in self.tasks:
            record = by_key.get(task.key())
            if record is None or task.layers * task.width > CONTRACT_NODES:
                continue
            current.attempted += 1
            try:
                problem = oracle.contract_violation(task, record)
            except Exception as error:
                problem = f"contract re-run raised {error!r}"
            if problem:
                current.fail(1, f"task {task.key()}: {problem}")
        return current


class SweepRandom(CampaignWorkload):
    name = "sweep-random"
    resume_passes = 10

    def cells(self) -> tuple:
        return (
            SweepSpec(
                layers=50,
                width=20,
                scenario=("i", "ii", "iii", "iv"),
                engine=("solver", "array", "clocktree"),
                runs=10,
            ),
            SweepSpec(
                layers=50,
                width=20,
                scenario="i",
                num_faults=(1, 2, 3),
                engine="solver",
                runs=10,
                seed_salt=1000,
                label="byzantine",
            ),
        )


class ScaleWorstcase(CampaignWorkload):
    name = "scale-worstcase"
    resume_passes = 5

    def cells(self) -> tuple:
        common = dict(scenario="iii", delay_model="max_skew", runs=1)
        return (
            SweepSpec(
                layers=512, width=512, engine="array",
                topology=("cylinder", "torus", "patch"), **common,
            ),
            SweepSpec(
                layers=128, width=128, engine=("array", "solver"),
                topology="degraded:links=3,nodes=3,seed=1", seed_salt=100, **common,
            ),
            SweepSpec(
                layers=96, width=96, engine=("solver", "clocktree"), seed_salt=200, **common,
            ),
        )


class SoakChurn(Workload):
    """The default soak, two epochs per round, checkpointing to a scratch store.

    The resume pass restarts from the checkpoint the first epoch left and
    runs the second epoch again, as a soak interrupted there would; it must
    end in the same state as the uninterrupted pass.
    """

    name = "soak-churn"
    targets = SOAK_TARGETS
    lap_mark = (StreamSummary, "add")
    bytes_metric = "soak.checkpoint_bytes"
    epochs = 2
    resume_units = 1

    def __init__(self, seed: int, committed: Optional[Dict[str, str]] = None) -> None:
        super().__init__(seed, committed)
        default = SoakSpec()
        self.spec = SoakSpec(num_pulses=self.epochs * default.pulses_per_epoch, seed=seed)
        self.pulses_per_unit = self.spec.pulses_per_epoch
        # One state key covers every epoch of the round.
        self.fresh_units = self.units_per_digest = self.spec.num_epochs

    def warm_up(self) -> None:
        run_soak(SoakSpec(num_pulses=8, pulses_per_epoch=8, seed=DEFAULT_SEED))

    def fresh_pass(self, store: Path):
        self.epochs_done = 0
        path = checkpoint_path(store, self.spec)

        def epoch_done(stats) -> None:
            self.epochs_done += 1
            if self.epochs_done == self.epochs:
                # Still the first epoch's checkpoint: the last epoch's is
                # written after this call.
                self.first_checkpoint = path.read_bytes()

        return run_soak(self.spec, store=store, progress=epoch_done)

    def resume_pass(self, store: Path):
        checkpoint_path(store, self.spec).write_bytes(self.first_checkpoint)
        return run_soak(self.spec, store=store, resume=True)

    def check(self, current: Round, fresh, resumed) -> None:
        state = fresh.final_checkpoint().state_key()
        current.digests = {"state_key": state}
        problems = oracle.soak_violations(fresh, self.spec)
        if problems:
            current.fail(self.fresh_units, problems[0])
        if resumed is not None and (
            resumed.resumed_epochs != self.spec.num_epochs - 1
            or resumed.final_checkpoint().state_key() != state
        ):
            current.fail(1, "resuming after the first epoch did not reproduce the state")

    def isolate_failures(self, current: Round, error: Exception) -> None:
        current.attempted = self.fresh_units
        current.fail(self.fresh_units - self.epochs_done, f"soak raised {error!r}")

    def check_contract(self) -> Round:
        # Soak epochs are multi-pulse DES runs; no engine contract compares them.
        return Round()


WORKLOADS = {cls.name: cls for cls in (SweepRandom, ScaleWorstcase, SoakChurn)}
