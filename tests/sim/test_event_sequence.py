"""The simulator's event *sequence* is pinned, not only its outcome.

Goldens, projections and fingerprints pin what a run leaves behind; two
engines that schedule the same work in a different same-timestamp order can
agree on all of them today and diverge on the next workload.  This file pins
the order itself: a :class:`~repro.sim.engine.Simulator` subclass logs
``(time, kind, process-name)`` at the two scheduling primitives every event,
process start and interrupt goes through, and the sha256 of that log is a
committed literal per workload.

An optimisation below the live seam reproduces these literals unedited, or
explains the diff event by event.  There are two sets: ``PINNED`` is the
sequence as it runs, where an uncontended booking takes no event
(``Simulator.runs_next`` / ``skip``); ``PINNED_SLOW_PATH`` is the sequence on
a simulator that answers those two questions "no", which is every event the
flows can spell out and has not moved since 149fcf0.  Regenerate ``PINNED``
(``python tests/sim/test_event_sequence.py``) only from a commit whose fig8 /
fig10 goldens and conformance projections are green and whose
``tests/sim/test_fast_path.py`` passes — see docs/TESTING.md.
"""

from __future__ import annotations

import hashlib
from contextlib import closing

import pytest

from repro import CoRECConfig, CoRECPolicy, StagingConfig, StagingService
from repro.live.conformance import WORKLOADS, build_config, build_tape, policy_spec
from repro.sim.engine import Process, Simulator
from repro.workloads.load import apply_op, open_target
from repro.workloads.s3d import S3DConfig, S3DWorkload


class LoggingSimulator(Simulator):
    """A simulator that digests every scheduling decision as it is made."""

    def __init__(self):
        super().__init__()
        self.scheduled = 0
        self._sha = hashlib.sha256()

    def _log(self, delay: float, kind: str, name: str) -> None:
        self.scheduled += 1
        self._sha.update(f"{(self.now + delay).hex()} {kind} {name}\n".encode())

    def _schedule_event(self, event, delay=0.0):
        self._log(delay, type(event).__name__, getattr(event, "name", ""))
        super()._schedule_event(event, delay)

    def _schedule_callback(self, cb, delay=0.0):
        # Process starts are bound methods of the process; anything else
        # (an interrupt's deferred throw) carries no stable name.
        owner = getattr(cb, "__self__", None)
        self._log(delay, "callback", owner.name if isinstance(owner, Process) else "")
        super()._schedule_callback(cb, delay)

    def fingerprint(self) -> tuple[str, int]:
        return self._sha.hexdigest(), self.scheduled


class AlwaysNo:
    """Mixin: the clock's two questions answered "no", so every booking
    takes its event — the sequence from before the fast path."""

    def runs_next(self) -> bool:
        return False

    def skip(self, delay: float) -> bool:
        return False


class SlowPathSimulator(AlwaysNo, LoggingSimulator):
    pass


def conformance_run(name: str, sim: Simulator) -> StagingService:
    spec = WORKLOADS[name]
    with open_target("sim", build_config(spec), policy_spec(spec), engine=sim) as connect:
        with closing(connect("w")) as client:
            for op in build_tape(spec).ops:
                apply_op(client, op)
            return client.service


def s3d_run(sim: Simulator) -> StagingService:
    """Three S3D timesteps at Table II scale 1 / 4: a server fails before
    step 1's reads (degraded) and is replaced before step 2's."""
    cfg = S3DConfig(
        scale_index=1, shrink=4, per_core_subdomain=16, element_bytes=1,
        timesteps=3, analysis_every=1,
        failure_plan={1: [("fail", 2)], 2: [("replace", 2)]},
    )
    svc = StagingService(
        StagingConfig(
            n_servers=cfg.n_staging, domain_shape=cfg.domain_shape, element_bytes=1,
            object_max_bytes=4096, async_protection=True, seed=1,
        ),
        CoRECPolicy(CoRECConfig(storage_bound=0.67)),
        engine=sim,
    )
    svc.run_workflow(S3DWorkload(svc, cfg).run())
    svc.run()
    assert svc.read_errors == 0
    return svc


# name -> run the scenario on the given simulator, return its service.
RUNS = {name: (lambda sim, name=name: conformance_run(name, sim)) for name in WORKLOADS}
RUNS["s3d-fail-replace"] = s3d_run


def sequence(name: str, sim_cls=LoggingSimulator) -> tuple[str, int]:
    sim = sim_cls()
    RUNS[name](sim)
    return sim.fingerprint()


# (sha256 of the schedule log, scheduled entries) with every booking taking
# its event, computed at 149fcf0: the whole sequence before PR 24, and still
# the sequence of the path taken whenever runs_next() / skip() say no.
PINNED_SLOW_PATH = {
    "failure-and-recover": (
        "968dac31051489031b60a6a02d561c0e58ecf15705d4940133a3244018a6b4d3", 1667),
    "hybrid": (
        "483f8c04684634845aea6e18a9235a728d03a0d6b8890d3f1eb4d53f58781cec", 1544),
    "replication-only": (
        "a95d2d0c028844764a0bce366bad117028990071f784a04cabd555891b186302", 756),
    "s3d-fail-replace": (
        "73fc9baef08d90d70f3a5b6db65ee005ec6c900c6b8200f6d7c68feb79f9194d", 16045),
}

# The same four runs with uncontended bookings taking no event (PR 24).
# What is left is what really waits; tests/sim/test_fast_path.py holds the
# two sequences to one order of bookings, grants and stores.
PINNED = {
    "failure-and-recover": (
        "a5427b3574b8e013492369136a52cec1b1e8060103202c766855d3d2a0b8ff61", 528),
    "hybrid": (
        "64784035fb8de584518b47412bbf82e0c8e7493d7b40fca7081468d5b3a1ff90", 468),
    "replication-only": (
        "72a36a9ca2f0436a825e6df876d86c51772f1d811cde0109736caa42b7ed7ae8", 230),
    "s3d-fail-replace": (
        "7bfb9d947c9e094fefab0aa63ed18454aa57efd458e4bfc6fa51549847864ebd", 14528),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_event_sequence_is_the_pinned_one(name):
    assert sequence(name) == PINNED[name]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_slow_path_is_the_sequence_from_before_the_fast_path(name):
    assert sequence(name, SlowPathSimulator) == PINNED_SLOW_PATH[name]


def test_the_log_sees_order_not_only_content():
    """Two same-time processes started in the other order change the digest."""

    def digest(names):
        sim = LoggingSimulator()

        def body():
            yield sim.timeout(1.0)

        for name in names:
            sim.process(body(), name=name)
        sim.run()
        return sim.fingerprint()

    assert digest(["a", "b"]) == digest(["a", "b"])
    assert digest(["a", "b"]) != digest(["b", "a"])


if __name__ == "__main__":
    for name in sorted(RUNS):
        sha, n = sequence(name)
        print(f'    "{name}": (\n        "{sha}", {n}),')
