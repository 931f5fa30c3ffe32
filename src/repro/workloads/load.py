"""The Tape -> Target seam, tape replay and open-loop load generation.

A *target* is a blocking client: ``put``/``get``/``step``/``flush``/
``quiesce``/``fail_server``/``replace_server``/``projection``/``close``.
:class:`~repro.live.protocol.LiveClient` and the sharded
:class:`~repro.live.router.ClusterClient` are targets; :class:`SimTarget`
makes the simulator one.  :func:`open_target` opens a deployment on any
of the three backends and hands out targets; :func:`apply_op` is the one
place a :class:`~repro.workloads.capture.TapeOp` is dispatched onto one.
Conformance, ``repro replay``, ``repro load`` and ``bench_load.py`` all
go through those two.

Two drivers build on the seam:

- :func:`replay_tape` re-emits a :class:`~repro.workloads.capture.Tape`
  against a target with time compression (``speedup``), selective flow
  amplification, and byte-digest equivalence checks against what the
  recording actually read.
- :func:`run_load` drives N concurrent flow clients from a seeded
  open-loop schedule (:func:`build_schedule`): operations are issued at
  their scheduled arrival times regardless of completion of earlier ones
  on *other* flows (each flow's own connection is serial, so per-flow
  streams stay ordered — the locust/k6 model).  Per-op latencies feed a
  :class:`~repro.obs.registry.MetricsRegistry`, and :class:`SLO`
  evaluates p99 put/get ceilings and an error-rate ceiling the way
  ``check_regression.py`` gates the codec.

Arrival processes (all seeded, all deterministic given the spec):

``constant``
    evenly spaced arrivals at ``rate`` ops/s.
``poisson``
    homogeneous Poisson process at ``rate``.
``hotspot``
    Poisson at ``rate`` with a ``BURST_FACTOR``× window covering the
    middle ``BURST_SPAN`` fraction of the run.
``diurnal``
    nonhomogeneous Poisson, sinusoidal rate between ``rate`` and
    ``rate * PEAK_FACTOR`` over ``CYCLES`` full periods.
``flash-crowd``
    Poisson at ``rate`` until ``SPIKE_AT`` (fraction of duration), then a
    ``SPIKE_FACTOR``× spike decaying exponentially back to base.

Determinism note for replay equivalence: a digest-checked replay issues
ops sequentially on one connection (recorded order = issue order); the
multi-flow open-loop driver is for throughput/latency work, where byte
equivalence is checked per-op, not cross-run.
"""

from __future__ import annotations

import math
import time
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable, Iterator

import numpy as np

from repro.core.policies import policy_from_spec
from repro.obs.registry import MetricsRegistry, latency_edges
from repro.staging.domain import BBox
from repro.staging.service import StagingService, projection_sha256
from repro.workloads.capture import CaptureRecorder, Tape, TapeOp, block_digests

__all__ = [
    "ARRIVAL_PROCESSES",
    "arrival_times",
    "LoadSpec",
    "OpSpec",
    "build_schedule",
    "LoadReport",
    "run_load",
    "SLO",
    "SimTarget",
    "open_target",
    "apply_op",
    "ReplayReport",
    "replay_tape",
]

ARRIVAL_PROCESSES = ("constant", "poisson", "hotspot", "diurnal", "flash-crowd")
# Shapes of the non-constant processes (the one set of values ever run).
BURST_FACTOR, BURST_SPAN = 4.0, 0.25  # hotspot
PEAK_FACTOR, CYCLES = 3.0, 2.0  # diurnal
SPIKE_AT, SPIKE_FACTOR, SPIKE_DECAY = 0.5, 8.0, 0.1  # flash-crowd


# ---------------------------------------------------------------------------
# arrival processes
# ---------------------------------------------------------------------------
def _thinned_poisson(
    rng: np.random.Generator,
    duration: float,
    rate_fn: Callable[[float], float],
    rate_max: float,
) -> list[float]:
    """Nonhomogeneous Poisson arrivals on [0, duration) by thinning."""
    times: list[float] = []
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / rate_max))
        if t >= duration:
            return times
        if rng.random() < rate_fn(t) / rate_max:
            times.append(t)


def arrival_times(process: str, rate: float, duration: float, seed: int) -> list[float]:
    """Seeded arrival offsets (seconds) for one run of ``process``."""
    if rate <= 0 or duration <= 0:
        raise ValueError("rate and duration must be positive")
    rng = np.random.default_rng(seed)
    if process == "constant":
        gap = 1.0 / rate
        return [i * gap for i in range(int(rate * duration))]
    if process == "poisson":
        return _thinned_poisson(rng, duration, lambda t: rate, rate)
    if process == "hotspot":
        lo = duration * (0.5 - BURST_SPAN / 2)
        hi = duration * (0.5 + BURST_SPAN / 2)

        def rate_hot(t: float) -> float:
            return rate * BURST_FACTOR if lo <= t < hi else rate

        return _thinned_poisson(rng, duration, rate_hot, rate * BURST_FACTOR)
    if process == "diurnal":
        amp = rate * (PEAK_FACTOR - 1.0) / 2.0
        mid = rate + amp

        def rate_diurnal(t: float) -> float:
            return mid + amp * math.sin(2 * math.pi * CYCLES * t / duration)

        return _thinned_poisson(rng, duration, rate_diurnal, mid + amp)
    if process == "flash-crowd":
        t_spike = duration * SPIKE_AT
        tau = duration * SPIKE_DECAY

        def rate_flash(t: float) -> float:
            if t < t_spike:
                return rate
            return rate * (1.0 + (SPIKE_FACTOR - 1.0) * math.exp(-(t - t_spike) / tau))

        return _thinned_poisson(rng, duration, rate_flash, rate * SPIKE_FACTOR)
    raise ValueError(f"unknown arrival process {process!r} "
                     f"(choose from {ARRIVAL_PROCESSES})")


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class OpSpec:
    """One scheduled operation of an open-loop run."""

    t: float
    flow: str
    op: str  # "put" | "get"
    var: str
    block: int


@dataclass(frozen=True)
class LoadSpec:
    """Seeded open-loop workload description."""

    process: str = "poisson"
    rate: float = 50.0  # aggregate ops/s across all flows
    duration: float = 5.0  # seconds of scheduled arrivals
    flows: int = 2  # concurrent clients
    n_vars: int = 2
    n_blocks: int = 12  # first N blocks of the grid are the working set
    read_fraction: float = 0.4
    seed: int = 7

    def flow_names(self) -> list[str]:
        return [f"flow{i}" for i in range(self.flows)]


def build_schedule(spec: LoadSpec) -> list[OpSpec]:
    """Deterministic op schedule: arrivals + op mix, seeded by the spec.

    Ops target single blocks (data-less puts; the servers synthesize
    payloads deterministically).  Gets only ever target blocks already
    written *earlier in the schedule*, so every scheduled read is
    servable.  Flows are assigned round-robin in arrival order.
    """
    times = arrival_times(spec.process, spec.rate, spec.duration, spec.seed)
    rng = np.random.default_rng(spec.seed + 1)
    flows = spec.flow_names()
    variables = [f"var{v}" for v in range(spec.n_vars)]
    written: list[tuple[str, int]] = []
    schedule: list[OpSpec] = []
    for i, t in enumerate(times):
        flow = flows[i % len(flows)]
        if written and rng.random() < spec.read_fraction:
            var, block = written[int(rng.integers(len(written)))]
            # One draw per get, unused: it keeps every seeded schedule
            # (BENCH_load.json's, the tests') op for op what it was when a
            # fraction of gets asked for an explicit verify.
            rng.random()
            schedule.append(OpSpec(t, flow, "get", var, block))
        else:
            var = variables[int(rng.integers(len(variables)))]
            block = int(rng.integers(spec.n_blocks))
            schedule.append(OpSpec(t, flow, "put", var, block))
            if (var, block) not in written:
                written.append((var, block))
    return schedule


# ---------------------------------------------------------------------------
# SLO gate
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SLO:
    """Latency/error objectives an open-loop run must meet.

    ``None`` disables a clause.  Evaluation returns the violated clauses
    so CI output names exactly what failed, mirroring
    ``check_regression.py``.
    """

    put_p99_ms: float | None = None
    get_p99_ms: float | None = None
    max_error_rate: float = 0.01

    def evaluate(self, report: "LoadReport") -> list[str]:
        violations: list[str] = []
        if self.put_p99_ms is not None and report.puts:
            got = report.put_percentiles_ms.get("p99", 0.0)
            if got > self.put_p99_ms:
                violations.append(
                    f"put p99 {got:.2f} ms > SLO {self.put_p99_ms:.2f} ms"
                )
        if self.get_p99_ms is not None and report.gets:
            got = report.get_percentiles_ms.get("p99", 0.0)
            if got > self.get_p99_ms:
                violations.append(
                    f"get p99 {got:.2f} ms > SLO {self.get_p99_ms:.2f} ms"
                )
        if self.max_error_rate is not None and report.ops:
            rate = report.errors / report.ops
            if rate > self.max_error_rate:
                violations.append(
                    f"error rate {rate:.4f} > SLO {self.max_error_rate:.4f}"
                )
        return violations


class _Report:
    """The one ``to_json`` of :class:`LoadReport` and :class:`ReplayReport`."""

    _DIGITS = {"wall_s": 4, "achieved_rate": 2, "lateness_p99_ms": 3}

    def to_json(self) -> dict[str, Any]:
        """Fields in declaration order, timings rounded (ms to 3 places)."""
        out: dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in self._DIGITS:
                value = round(value, self._DIGITS[f.name])
            elif f.name.endswith("_percentiles_ms"):
                value = {k: round(v, 3) for k, v in value.items()}
            out[f.name] = value
        return out


@dataclass
class LoadReport(_Report):
    """Outcome of one open-loop run (JSON-serializable via ``to_json``)."""

    ops: int = 0
    puts: int = 0
    gets: int = 0
    errors: int = 0
    wall_s: float = 0.0
    achieved_rate: float = 0.0
    put_percentiles_ms: dict[str, float] = field(default_factory=dict)
    get_percentiles_ms: dict[str, float] = field(default_factory=dict)
    lateness_p99_ms: float = 0.0
    slo_violations: list[str] = field(default_factory=list)
    slo_gate: str = "not-evaluated"


def _latency_hists(registry: MetricsRegistry | None, prefix: str):
    """``(registry, put histogram, get histogram)`` of one driver run."""
    registry = registry if registry is not None else MetricsRegistry()
    return (
        registry,
        registry.histogram(f"{prefix}_put_seconds", latency_edges()),
        registry.histogram(f"{prefix}_get_seconds", latency_edges()),
    )


def _percentiles_ms(hist) -> dict[str, float]:
    return {k: v * 1000.0 for k, v in hist.percentiles().items()}


def run_load(
    client_factory: Callable[[str], Any],
    spec: LoadSpec,
    domain: Any = None,
    registry: MetricsRegistry | None = None,
    slo: SLO | None = None,
    enforce_slo: bool = True,
    capture_tape: Tape | None = None,
) -> LoadReport:
    """Drive an open-loop schedule through N concurrent flow clients.

    ``client_factory(flow_name)`` must return a fresh client (own
    connection) per flow; each is closed when its flow drains.
    ``domain`` maps block ids to regions (defaults to the client's own
    ``.domain`` when it has one — routed clients do).  Latencies
    land in ``registry`` histograms ``load_put_seconds`` /
    ``load_get_seconds`` (client-observed wall time) plus
    ``load_lateness_seconds`` (issue time minus scheduled time — the
    open-loop health signal: a saturated backend shows up as lateness
    before it shows up as latency).  With ``capture_tape``, every flow
    client is wrapped in a :class:`CaptureRecorder` writing to that tape.
    """
    registry, put_hist, get_hist = _latency_hists(registry, "load")
    late_hist = registry.histogram("load_lateness_seconds", latency_edges())
    ops_total = registry.counter("load_ops_total")
    err_total = registry.counter("load_errors_total")

    schedule = build_schedule(spec)
    per_flow: dict[str, list[OpSpec]] = {name: [] for name in spec.flow_names()}
    for op in schedule:
        per_flow[op.flow].append(op)

    errors: list[str] = []
    fatal: list[BaseException] = []
    err_lock = threading.Lock()
    start = time.monotonic()

    def drive(flow: str, ops: list[OpSpec]) -> None:
        try:
            _drive(flow, ops)
        except BaseException as exc:  # setup failures must reach the caller
            with err_lock:
                fatal.append(exc)

    def _drive(flow: str, ops: list[OpSpec]) -> None:
        client = client_factory(flow)
        recorder = (
            CaptureRecorder(client, tape=capture_tape, flow=flow)
            if capture_tape is not None
            else None
        )
        try:
            grid = domain if domain is not None else getattr(client, "domain", None)
            if grid is None:
                raise TypeError(
                    "run_load needs a block domain: pass domain= or use a "
                    "client exposing .domain"
                )
            for op in ops:
                deadline = start + op.t
                delay = deadline - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                late_hist.observe(max(0.0, time.monotonic() - deadline))
                t0 = time.monotonic()
                try:
                    # Inside the per-op try: a block id beyond the grid must
                    # count as an op error, not silently kill the flow thread.
                    box = grid.block_bbox(op.block)
                    if op.op == "put":
                        client.put(op.var, box.lb, box.ub)
                    else:
                        client.get(op.var, box.lb, box.ub)
                except Exception as exc:
                    err_total.inc()
                    with err_lock:
                        errors.append(f"{flow} {op.op} {op.var}/{op.block}: {exc}")
                    continue
                finally:
                    ops_total.inc()
                (put_hist if op.op == "put" else get_hist).observe(
                    time.monotonic() - t0
                )
        finally:
            if recorder is not None:
                recorder.detach()
            client.close()

    threads = [
        threading.Thread(target=drive, args=(flow, ops), name=f"load-{flow}")
        for flow, ops in per_flow.items()
        if ops
    ]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    if fatal:
        raise fatal[0]
    wall = time.monotonic() - start

    report = LoadReport(
        ops=len(schedule),
        puts=sum(1 for o in schedule if o.op == "put"),
        gets=sum(1 for o in schedule if o.op == "get"),
        errors=len(errors),
        wall_s=wall,
        achieved_rate=(len(schedule) / wall) if wall > 0 else 0.0,
        put_percentiles_ms=_percentiles_ms(put_hist),
        get_percentiles_ms=_percentiles_ms(get_hist),
        lateness_p99_ms=late_hist.quantile(0.99) * 1000.0,
    )
    if slo is not None:
        report.slo_violations = slo.evaluate(report)
        if not report.slo_violations:
            report.slo_gate = "pass"
        else:
            # "fail" is the CI-gating verdict; "report-only" records the
            # violation honestly without gating (constrained hosts).
            report.slo_gate = "fail" if enforce_slo else "report-only"
    return report


# ---------------------------------------------------------------------------
# targets: one blocking-client surface over sim / live / cluster
# ---------------------------------------------------------------------------
class SimTarget:
    """Adapt a sim :class:`StagingService` to the blocking client surface.

    Every op drains the simulator before returning, so a tape played here
    walks the same quiescent-state sequence a per-op-quiesced live or
    cluster run does.
    """

    def __init__(self, service, name: str = "replay"):
        self.service = service
        self.name = name
        self.domain = service.domain

    def put(self, var, lb, ub, data=None):
        arr = None if data is None else np.ascontiguousarray(data)
        self.service.run_workflow(
            self.service.put(self.name, var, BBox(tuple(lb), tuple(ub)), arr)
        )
        self.service.run()
        return 0.0

    def get(self, var, lb, ub, verify=None):
        box: list = []

        def flow():
            result = yield from self.service.get(
                self.name, var, BBox(tuple(lb), tuple(ub)), verify
            )
            box.append(result)

        self.service.run_workflow(flow())
        self.service.run()
        duration, payloads = box[0]
        return duration, payloads

    def step(self):
        self.service.run_workflow(self.service.end_step())
        self.service.run()
        return self.service.step

    def flush(self):
        self.service.run_workflow(self.service.flush())
        self.service.run()

    def quiesce(self):
        self.service.run()

    def fail_server(self, sid):
        self.service.fail_server(sid)
        self.service.run()

    def replace_server(self, sid):
        self.service.replace_server(sid)
        self.service.run()

    def projection(self):
        return self.service.projection()

    def close(self):
        self.service.run()


@contextmanager
def open_target(
    backend: str,
    config,
    policy_spec: tuple[str, dict[str, Any]],
    **live_kwargs: Any,
) -> Iterator[Callable[..., Any]]:
    """Open a deployment on ``backend``; yields its ``client(name)`` factory.

    ``backend`` is ``"sim"`` (in-process simulator), ``"live"`` (one live
    server on a background thread, clients over TCP) or ``"cluster"`` (one
    OS process per shard, routed clients).  Every ``client(name)`` call
    returns a fresh target the caller closes — one per flow, the way
    :meth:`LiveCluster.client` hands out routers.  ``live_kwargs`` go
    unchanged to the backend's constructor: ``StagingService``,
    :class:`~repro.live.service.LiveStagingService` (through
    ``serve_in_thread``) or :class:`~repro.live.cluster.LiveCluster`
    (``n_shards`` is required there).  Each server builds its own policy
    from ``policy_spec``, the hybrid stream seeded by ``config.seed``.
    The deployment is torn down on exit.
    """
    if backend == "sim":
        service = StagingService(
            config, policy_from_spec(policy_spec, seed=config.seed), **live_kwargs
        )
        yield lambda name="client": SimTarget(service, name=name)
    elif backend == "live":
        # repro.live is imported on use: its conformance module drives this one.
        from repro.live.protocol import LiveClient
        from repro.live.server import serve_in_thread

        handle = serve_in_thread(
            config, lambda: policy_from_spec(policy_spec, seed=config.seed), **live_kwargs
        )
        try:
            yield lambda name="client": LiveClient(handle.host, handle.port, name=name)
        finally:
            handle.stop()
            handle.join()
    elif backend == "cluster":
        from repro.live.cluster import LiveCluster

        with LiveCluster(config, policy_spec, **live_kwargs) as cluster:
            yield cluster.client
    else:
        raise ValueError(f"unknown backend {backend!r} (choose from sim, live, cluster)")


def apply_op(target: Any, op: TapeOp):
    """Issue one tape op on ``target``; returns a ``get``'s payloads, else None.

    The only place a :class:`TapeOp` is dispatched onto a backend, so a
    new op kind is taught to every driver here (and to
    :data:`~repro.workloads.capture.OP_FIELDS`, which gates what loads).
    """
    kind = op.op
    if kind == "put":
        target.put(op.var, op.lb, op.ub, op.decode_payload())
    elif kind == "get":
        return target.get(op.var, op.lb, op.ub, op.verify)[1]
    elif kind == "step":
        target.step()
    elif kind == "flush":
        target.flush()
    elif kind == "quiesce":
        target.quiesce()
    elif kind == "fail":
        target.fail_server(op.server)
    elif kind == "replace":
        target.replace_server(op.server)
    else:
        raise ValueError(f"unknown tape op {kind!r}")


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------
@dataclass
class ReplayReport(_Report):
    """Outcome of one tape replay (JSON-serializable via ``to_json``)."""

    ops: int = 0
    amplified_ops: int = 0
    wall_s: float = 0.0
    speedup: float | None = None
    digest_checks: int = 0
    mismatches: list[str] = field(default_factory=list)
    unfaithful_puts: int = 0  # elided payloads replayed data-less
    projection_check: str = "not-checked"  # "match" | "MISMATCH" | reason
    put_percentiles_ms: dict[str, float] = field(default_factory=dict)
    get_percentiles_ms: dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.mismatches and self.projection_check != "MISMATCH"

    def to_json(self) -> dict[str, Any]:
        return {**super().to_json(), "ok": self.ok}


def _amplified(op: TapeOp, copy: int) -> TapeOp:
    """Clone of ``op`` for amplification round ``copy`` (≥1).

    Cloned *puts* write shadow variables (``var~ampN``) so the original
    flow's read digests stay valid; cloned *gets* re-read the original
    variable (extra read load on the same hot data — a block another flow
    wrote has no shadow twin to read).  Clones are never digest-checked.
    """
    return replace(
        op,
        var=f"{op.var}~amp{copy}" if op.op == "put" else op.var,
        flow=f"{op.flow}~amp{copy}",
        digests={},
    )


def replay_tape(
    tape: Tape,
    target: Any,
    speedup: float | None = None,
    amplify: dict[str, int] | None = None,
    check_digests: bool = True,
    registry: MetricsRegistry | None = None,
) -> ReplayReport:
    """Re-emit ``tape`` against ``target`` and check byte equivalence.

    ``target`` is a client from :func:`open_target` (or any object with
    that surface).  Ops are issued sequentially in recorded order — the
    property that makes digest comparison exact.

    ``speedup`` compresses recorded inter-op gaps (2.0 = twice as fast);
    ``None`` replays as fast as the backend accepts (no pacing).
    ``amplify`` maps flow name → total copies (``{"w": 3}`` issues each
    of w's data ops three times; copies touch shadow variables and are
    never digest-checked).  Get digests and, when the tape carries a
    ``projection_sha256``, the final quiescent projection are compared
    against the recording; mismatches are collected, not raised — the
    caller decides (CI asserts ``report.ok``).
    """
    _, put_hist, get_hist = _latency_hists(registry, "replay")
    amplify = amplify or {}
    report = ReplayReport(speedup=speedup)

    start = time.monotonic()
    for op in tape.ops:
        if speedup is not None and speedup > 0:
            deadline = start + op.t / speedup
            delay = deadline - time.monotonic()
            if delay > 0:
                time.sleep(delay)
        copies = [op]
        if op.op in ("put", "get"):
            for i in range(1, amplify.get(op.flow, 1)):
                copies.append(_amplified(op, i))
        for emitted in copies:
            original = emitted is op
            if original:
                report.ops += 1
            else:
                report.amplified_ops += 1
            if emitted.op == "put" and emitted.payload == "elided":
                report.unfaithful_puts += 1
            t0 = time.monotonic()
            payloads = apply_op(target, emitted)
            elapsed = time.monotonic() - t0
            if emitted.op == "put":
                put_hist.observe(elapsed)
            elif emitted.op == "get":
                get_hist.observe(elapsed)
                if original and check_digests and emitted.digests:
                    got = block_digests(payloads)
                    report.digest_checks += len(emitted.digests)
                    if got != emitted.digests:
                        report.mismatches.append(
                            f"op {emitted.seq} get {emitted.var}"
                            f"[{emitted.lb}:{emitted.ub}]: "
                            f"recorded {emitted.digests} != replayed {got}"
                        )
    report.wall_s = time.monotonic() - start

    recorded_sha = tape.meta.get("projection_sha256")
    if recorded_sha:
        if amplify:
            # Shadow variables change the final state by construction.
            report.projection_check = "skipped-amplified"
        elif report.unfaithful_puts:
            report.projection_check = "skipped-elided-payloads"
        else:
            target.quiesce()
            got_sha = projection_sha256(target.projection())
            if got_sha == recorded_sha:
                report.projection_check = "match"
            else:
                report.projection_check = "MISMATCH"
                report.mismatches.append(
                    f"projection sha256 {got_sha} != recorded {recorded_sha}"
                )
    report.put_percentiles_ms = _percentiles_ms(put_hist)
    report.get_percentiles_ms = _percentiles_ms(get_hist)
    return report
