"""Replay a tape against one deployment and record what the client sees.

Three targets run the same tape through successively fewer layers:

- :class:`TcpTarget` — the end-to-end path: ``LiveClient`` over a real
  socket to ``serve_in_thread(..., time_scale=0.0)`` in this process
  (server thread + this client thread, no child processes);
- :class:`InprocTarget` — ``LiveStagingService`` awaited on the driver's
  own event loop: everything but the wire and the dispatch;
- :class:`SimTarget` — ``StagingService`` on the deterministic simulator:
  runtime/policy/staging/codec without asyncio.

:func:`replay` is the only place ops are timed.  Every get is compared
byte for byte with the payload of the last acknowledged put of that
block; the comparison, and the directory query that classifies degraded
reads, are driver work and are subtracted from the measured window.
"""

from __future__ import annotations

import asyncio
import hashlib
import statistics
import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from tape import VAR, Tape

clock = time.perf_counter


#: What one reference unit takes on the quiet reference host.  Only scales
#: the normalised numbers so that they read like that host's raw ones.
REF_UNIT_S = 0.00075
_CALIB_BUF = np.arange(1 << 20, dtype=np.uint32).astype(np.uint8)
_CALIB_CHUNK = _CALIB_BUF[: 1 << 18].tobytes()


def calib_unit() -> float:
    """Seconds one fixed unit of reference work takes right now.

    Pure-Python arithmetic, a blake2b pass and a numpy pass in roughly the
    proportions the request path has them.  It touches no repo code, so
    only the host can change it: see ``Lap.speed``.
    """
    t0 = clock()
    acc = 0
    for i in range(5000):
        acc += i * i
    hashlib.blake2b(_CALIB_CHUNK, digest_size=12).digest()
    np.bitwise_xor(_CALIB_BUF, 0x5A)
    return clock() - t0


class Untimed:
    """Wall and CPU time of driver work done inside a measured window."""

    wall = cpu = 0.0

    def __enter__(self):
        self._wall0, self._cpu0 = clock(), time.process_time()

    def __exit__(self, *exc):
        self.wall += clock() - self._wall0
        self.cpu += time.process_time() - self._cpu0


@dataclass
class Spans:
    """In-memory span log of the traced run (written out at exit)."""

    rows: list[tuple] = field(default_factory=list)

    def add(self, name: str, t0: float, t1: float, parent: int | None, op: int | None) -> int:
        self.rows.append((name, t0, t1, parent, op))
        return len(self.rows) - 1

    def close(self, span_id: int, t1: float) -> None:
        name, t0, _, parent, op = self.rows[span_id]
        self.rows[span_id] = (name, t0, t1, parent, op)

    def dicts(self):
        for i, (name, t0, t1, parent, op) in enumerate(self.rows):
            yield {"id": i, "name": name, "t0": t0, "t1": t1, "parent": parent, "op": op}


@dataclass
class Lap:
    """Client-side record of one tape replay."""

    setup_s: float = 0.0
    window_s: float = 0.0  # measured ops only: driver checks subtracted
    cpu_s: float = 0.0  # process CPU (all threads) over the same window
    put: list[float] = field(default_factory=list)
    get: list[float] = field(default_factory=list)
    degraded: list[float] = field(default_factory=list)
    recover: list[float] = field(default_factory=list)
    calib: list[float] = field(default_factory=list)  # reference units run at quiescent points
    bytes_moved: int = 0
    ops: int = 0  # puts + gets replayed into this record (block puts + gets on the simulator)
    attempted: int = 0  # the lap's ops plus its warm-up's
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    efficiency: float = 0.0
    peak_rss_mb: float = 0.0  # the process's high-water mark once this lap was torn down
    counters: dict[str, float] = field(default_factory=dict)

    @cached_property
    def speed(self) -> float:
        """How much slower than the reference host this lap's host ran (1.0 = same).

        The shared VM this runs on switches between speed regimes lasting
        seconds to minutes (other tenants on the same hardware); raw times,
        CPU time included, then spread 15-35 % between identical runs.
        Reference units interleaved with the lap at its quiescent points
        see the same regimes, so dividing the lap's times by this factor
        removes most of the host and none of the code.  Read it only once
        the lap is complete: the value is kept.
        """
        return statistics.fmean(self.calib) / REF_UNIT_S

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 8:
            self.problems.append(what)


def service_counters(svc) -> dict[str, float]:
    """Policy, directory and codec counts of one StagingService (read-only)."""
    out = {k: float(v) for k, v in svc.metrics.counters.items()}
    out.update({f"directory.{k}": float(v) for k, v in svc.directory.op_stats.items()})
    code = svc.codec.code
    out["decode_cache_hits"] = float(code.decode_cache_hits)
    out["decode_cache_misses"] = float(code.decode_cache_misses)
    return out


class _Target:
    """Block-granular surface shared by the three replay paths."""

    layer = "?"

    def __init__(self, tape: Tape):
        self.boxes = tape.boxes

    # Subclasses set ``self.service`` (the StagingService, for read-only
    # counters) and implement the ops below.
    def blocks_on(self, server: int) -> set[int]:
        directory = self.service.directory
        return {
            bid
            for bid in range(len(self.boxes))
            if (ent := directory.get(VAR, bid)) is not None and ent.primary == server
        }

    def settle(self) -> None:
        self.step()
        self.flush()
        self.quiesce()


class TcpTarget(_Target):
    layer = "client"

    def __init__(self, tape: Tape, tracing: bool = False):
        from repro.live import LiveClient, serve_in_thread

        super().__init__(tape)
        self.handle = serve_in_thread(
            tape.spec.config(), tape.spec.policy, time_scale=0.0, tracing=tracing
        )
        try:
            tracer = None
            if tracing:
                from repro.obs.wallclock import WallClockTracer

                tracer = WallClockTracer()
            self.client = LiveClient(
                self.handle.host, self.handle.port, name="bench", timeout=60.0, tracer=tracer
            )
        except BaseException:
            self.handle.stop()
            raise
        self.service = self.handle.live.service
        # Traced laps keep the server's per-put latency attribution.
        self.put_attrs: list[dict] | None = [] if tracing else None

    def put(self, bid, data):
        self.client.put(VAR, *self.boxes[bid], data)
        if self.put_attrs is not None:
            self.put_attrs.append(self.client.last_attr)

    def get(self, bid):
        return self.client.get(VAR, *self.boxes[bid])[1][bid]

    def step(self):
        self.client.step()

    def flush(self):
        self.client.flush()

    def quiesce(self):
        self.client.quiesce()

    def fail(self, server):
        self.client.fail_server(server)

    def replace(self, server):
        self.client.replace_server(server)

    def blocks_on(self, server):
        # Over the wire, not through handle.live: the directory belongs to
        # the server thread while requests are in flight.
        lb, ub = self.boxes[0][0], self.boxes[-1][1]
        return {e["block"] for e in self.client.query(VAR, lb, ub) if e["primary"] == server}

    def audit(self) -> list[str]:
        problems = list(self.client.invariants())
        problems += [f"unrecoverable {key}" for key in self.client.verify()["unrecoverable"]]
        return problems

    def close(self):
        try:
            self.client.close()
        finally:
            self.handle.stop()


class InprocTarget(_Target):
    layer = "live.service"

    def __init__(self, tape: Tape):
        from repro.live import LiveStagingService
        from repro.staging.domain import BBox

        super().__init__(tape)
        self.bboxes = [BBox(lb, ub) for lb, ub in tape.boxes]
        self.loop = asyncio.new_event_loop()

        async def build():
            return LiveStagingService(tape.spec.config(), tape.spec.policy(), time_scale=0.0)

        try:
            self.live = self._run(build())
        except BaseException:
            self.loop.close()
            raise
        self.service = self.live.service

    def _run(self, coro):
        return self.loop.run_until_complete(coro)

    def put(self, bid, data):
        self._run(self.live.put("bench", VAR, self.bboxes[bid], data))

    def get(self, bid):
        return self._run(self.live.get("bench", VAR, self.bboxes[bid]))[1][bid]

    def step(self):
        self._run(self.live.end_step())

    def flush(self):
        self._run(self.live.flush())

    def quiesce(self):
        self._run(self.live.quiesce())

    def fail(self, server):
        self.live.fail_server(server)

    def replace(self, server):
        self.live.replace_server(server)

    def close(self):
        try:
            self._run(self.live.close())
        finally:
            self.loop.close()


class SimTarget(_Target):
    layer = "core.runtime"

    def __init__(self, tape: Tape):
        from repro import StagingService
        from repro.workloads.load import SimTarget as BlockingSim

        super().__init__(tape)
        self.service = StagingService(tape.spec.config(), tape.spec.policy())
        self.sim = BlockingSim(self.service, name="bench")

    def put(self, bid, data):
        self.sim.put(VAR, *self.boxes[bid], data)

    def get(self, bid):
        return self.sim.get(VAR, *self.boxes[bid])[1][bid]

    def step(self):
        self.sim.step()

    def flush(self):
        self.sim.flush()

    def quiesce(self):
        self.sim.quiesce()

    def fail(self, server):
        self.service.fail_server(server)

    def replace(self, server):
        self.service.replace_server(server)

    def close(self):
        self.sim.close()


def _op_errors() -> tuple:
    from repro import DataLossError
    from repro.live import RemoteOpError

    return (RemoteOpError, DataLossError, KeyError)


def replay(
    target: _Target,
    tape: Tape,
    ops,
    lap: Lap,
    last_put: dict[int, int],
    spans: Spans | None = None,
    parent: int | None = None,
    corrupt_expected: bool = False,
) -> None:
    """Execute ``ops`` on ``target``; time each one; verify each get.

    ``last_put`` maps block -> pool index of its last acknowledged put and
    carries over from the warm-up replay.  ``corrupt_expected`` (self-test
    only) makes the driver expect a wrong payload for block 0.
    """
    op_errors = _op_errors()
    pool = tape.pool
    layer = target.layer
    lost: set[int] = set()
    untimed = Untimed()
    replaced_at = None
    cpu_begin = time.process_time()
    t_begin = clock()
    for i, (kind, arg, pidx) in enumerate(ops):
        t0 = clock()
        try:
            if kind == "put":
                lap.ops += 1
                target.put(arg, pool[pidx])
                t1 = clock()
                last_put[arg] = pidx
                lap.put.append(t1 - t0)
                lap.bytes_moved += tape.block_bytes
            elif kind == "get":
                lap.ops += 1
                buf = target.get(arg)
                t1 = clock()
                (lap.degraded if arg in lost else lap.get).append(t1 - t0)
                lap.bytes_moved += tape.block_bytes
                with untimed:
                    want = pool[last_put[arg] ^ (corrupt_expected and arg == 0)]
                    if not np.array_equal(np.frombuffer(buf, dtype=np.uint8), want):
                        lap.fail(f"get of block {arg} returned bytes that were not put")
            elif kind == "fail":
                # Which blocks the victim serves decides which of the next
                # gets are degraded; looking that up is driver work.
                with untimed:
                    lost = target.blocks_on(arg)
                t0 = clock()
                target.fail(arg)
                t1 = clock()
            elif kind == "replace":
                target.replace(arg)
                t1 = clock()
                lost = set()
                replaced_at = t0
            elif kind == "settle":
                target.settle()
                t1 = clock()
                lap.recover.append(t1 - (t0 if replaced_at is None else replaced_at))
                replaced_at = None
            else:
                getattr(target, kind)()
                t1 = clock()
            if kind in ("quiesce", "settle"):
                # Nothing of the deployment runs now: sample the host's speed.
                with untimed:
                    lap.calib += [calib_unit(), calib_unit()]
        except op_errors as exc:
            t1 = clock()
            lap.fail(f"{kind} {arg}: {type(exc).__name__}: {exc}")
        if spans is not None:
            spans.add(f"{layer}.{kind}", t0, t1, parent, i)
    lap.window_s += clock() - t_begin - untimed.wall
    lap.cpu_s += time.process_time() - cpu_begin - untimed.cpu


def run_lap(
    make_target,
    tape: Tape,
    spans: Spans | None = None,
    audit: bool = True,
    corrupt_expected: bool = False,
) -> Lap:
    """One fresh deployment: set up (build, connect, warm-up), replay, audit, close."""
    lap = Lap()
    t_setup = clock()
    target = make_target()
    try:
        last_put: dict[int, int] = {}
        warm = Lap()
        replay(target, tape, tape.warmup, warm, last_put)
        t_ready = clock()
        lap.setup_s = t_ready - t_setup
        lap.failed, lap.problems, lap.calib = warm.failed, warm.problems, warm.calib
        parent = None if spans is None else spans.add(f"{target.layer}.lap", t_ready, t_ready, None, None)
        replay(target, tape, tape.ops, lap, last_put, spans, parent, corrupt_expected)
        lap.attempted = warm.ops + lap.ops
        if spans is not None:
            spans.close(parent, clock())
        # Every tape ends on a settle, so the deployment is quiescent here.
        lap.efficiency = target.service.metrics.storage.efficiency()
        lap.counters = service_counters(target.service)
        if audit:
            for problem in target.audit():
                lap.fail(problem)
    finally:
        target.close()
    return lap
