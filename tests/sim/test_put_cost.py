"""What one simulated request costs, as counts.

The sibling of ``tests/live/test_put_cost.py`` below the live seam, on the
same warmed CoREC deployment (16 blocks of 4 KiB, every one written and one
step closed, so each put is a rewrite).  Three counts repeat exactly and are
pinned exactly — they are the event sequence's size:

- **heap pushes**: calls of ``_schedule_event`` / ``_schedule_callback``;
- **processes**: ``sim.process`` calls (the driving workflow included);
- **resumes**: ``send`` / ``throw`` on a process's generator.

They are pinned twice.  As the simulator runs, an uncontended booking takes
no event (``runs_next`` / ``skip``): 5 / 2 / 3 for a replicated rewrite.  On
a simulator that answers "no" every booking takes its event and the counts
are those of 149fcf0, 23 / 2 / 21: an optimisation that claims to leave the
sequence alone may move neither set.

The fourth is what the Python around those events costs: **frames** entered
under ``src/repro`` whose code name is not ``<…>`` (lambdas, comprehensions
and generator expressions are skipped so CPython 3.11 and 3.12, which inlines
comprehensions, count alike).  It is pinned as an upper bound.  Measured at
149fcf0 (before the slotted event core) on this deployment: 624–628 per
replicated rewrite, 706–710 per encoded rewrite, 236 per verified get; on the
benchmark's ``small_put_hot`` tape 622 per put and 240 per get.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro import CoRECConfig, CoRECPolicy, StagingConfig, StagingService
from repro.sim.engine import Simulator
from repro.staging.objects import ResilienceState
from tests.sim.test_event_sequence import AlwaysNo

BLOCK_BYTES = 4096


class CountingGenerator:
    """Forwards to a process body, counting every resume."""

    def __init__(self, gen, sim):
        self.gen, self.sim = gen, sim
        self.__name__ = getattr(gen, "__name__", "process")

    def send(self, value):
        self.sim.resumes += 1
        return self.gen.send(value)

    def throw(self, exc):
        self.sim.resumes += 1
        return self.gen.throw(exc)


class CountingSimulator(Simulator):
    def __init__(self):
        super().__init__()
        self.pushes = self.processes = self.resumes = 0

    def _schedule_event(self, event, delay=0.0):
        self.pushes += 1
        super()._schedule_event(event, delay)

    def _schedule_callback(self, cb, delay=0.0):
        self.pushes += 1
        super()._schedule_callback(cb, delay)

    def process(self, gen, name=""):
        self.processes += 1
        return super().process(CountingGenerator(gen, self), name=name)


class Deployment:
    """The warmed deployment of the live cost test, on a counting simulator."""

    def __init__(self, sim: CountingSimulator):
        self.sim = sim
        self.svc = StagingService(
            StagingConfig(
                n_servers=8,
                domain_shape=(32, 32, 64),
                element_bytes=1,
                object_max_bytes=BLOCK_BYTES,
                seed=1,
            ),
            CoRECPolicy(CoRECConfig(storage_bound=0.67)),
            engine=self.sim,
        )
        domain = self.svc.domain
        self.boxes = [domain.block_bbox(b) for b in range(domain.n_blocks)]
        self.data = np.arange(BLOCK_BYTES, dtype=np.uint8)
        for box in self.boxes:
            self.run(self.svc.put("w", "v", box, self.data))
        self.run(self.svc.end_step())
        self.frames = 0

    def run(self, flow) -> None:
        self.svc.run_workflow(flow)
        self.svc.run()

    def blocks_in(self, state: ResilienceState) -> list[int]:
        return [
            b for b in range(len(self.boxes)) if self.svc.directory.get("v", b).state == state
        ]

    def _profile(self, frame, event, arg) -> None:
        if event == "call":
            code = frame.f_code
            if "/src/repro/" in code.co_filename and not code.co_name.startswith("<"):
                self.frames += 1

    def cost(self, flow) -> tuple[int, int, int, int]:
        """(heap pushes, processes, resumes, repro frames) of one drained op."""
        sim = self.sim
        before = (sim.pushes, sim.processes, sim.resumes)
        self.frames = 0
        sys.setprofile(self._profile)
        try:
            self.run(flow)
        finally:
            sys.setprofile(None)
        after = (sim.pushes, sim.processes, sim.resumes)
        return (*(b - a for a, b in zip(before, after)), self.frames)

    def put_cost(self, block: int) -> tuple[int, int, int, int]:
        return self.cost(self.svc.put("w", "v", self.boxes[block], self.data))


class SlowPathSimulator(AlwaysNo, CountingSimulator):
    pass


@pytest.fixture(scope="module")
def dep() -> Deployment:
    return Deployment(CountingSimulator())


@pytest.fixture(scope="module")
def slow() -> Deployment:
    return Deployment(SlowPathSimulator())


def replicated_rewrites(dep: Deployment) -> list[tuple[int, int, int, int]]:
    blocks = dep.blocks_in(ResilienceState.REPLICATED)
    assert len(blocks) >= 4
    costs = [dep.put_cost(b) for b in blocks[:4]]
    assert dep.blocks_in(ResilienceState.REPLICATED) == blocks  # steady state
    return costs


def encoded_rewrites(dep: Deployment) -> list[tuple[int, int, int, int]]:
    """Cold writes: a delta parity update (to a remote parity server, or on
    the block's own primary), plus the promotion process the access
    schedules (which finds no headroom)."""
    blocks = dep.blocks_in(ResilienceState.ENCODED)
    costs = [dep.put_cost(b) for b in blocks]
    assert dep.blocks_in(ResilienceState.ENCODED) == blocks
    return costs


def verified_gets(dep: Deployment) -> list[tuple[int, int, int, int]]:
    def read(block):
        return (yield from dep.svc.get("r", "v", dep.boxes[block], True))

    costs = [dep.cost(read(b)) for b in range(8)]
    assert dep.svc.read_errors == 0
    return costs


# What is left of a request that never waits: the workflow's start, the
# block's start, its completion, the join and the workflow's completion —
# five pushes, and a resume each for the block and the workflow's two.
def test_replicated_rewrite_is_5_pushes_2_processes_3_resumes(dep):
    costs = replicated_rewrites(dep)
    assert {c[:3] for c in costs} == {(5, 2, 3)}
    # 624-628 frames before the slotted core; 394 with it; 211 now.
    assert max(c[3] for c in costs) <= 250


def test_encoded_rewrite_is_9_pushes_3_processes_6_resumes(dep):
    costs = encoded_rewrites(dep)
    # The promotion process is started mid-put, so the bookings after it
    # find its start due at ``now`` and take their events until it has run.
    assert {c[:3] for c in costs} == {(9, 3, 6)}
    # 706-710 frames before; 458 with the slotted core; 262-284 now.
    assert max(c[3] for c in costs) <= 330


def test_verified_get_is_5_pushes_2_processes_3_resumes(dep):
    costs = verified_gets(dep)
    assert {c[:3] for c in costs} == {(5, 2, 3)}
    # 236 frames before; 146 with the slotted core; 91 now.
    assert max(c[3] for c in costs) <= 110


# The same three ops with the clock answering "no": the counts of 149fcf0,
# unmoved — the slow path is the old sequence, not a third one.
def test_replicated_rewrite_is_23_pushes_2_processes_21_resumes(slow):
    assert {c[:3] for c in replicated_rewrites(slow)} == {(23, 2, 21)}


def test_encoded_rewrite_is_26_pushes_3_processes_23_resumes(slow):
    costs = encoded_rewrites(slow)
    # A block whose parity lives on its own primary saves the transfer.
    assert {c[:3] for c in costs} <= {(26, 3, 23), (23, 3, 20)}
    assert len([c for c in costs if c[:3] == (26, 3, 23)]) >= 4


def test_verified_get_is_11_pushes_2_processes_9_resumes(slow):
    assert {c[:3] for c in verified_gets(slow)} == {(11, 2, 9)}
