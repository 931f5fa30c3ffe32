"""Seed-reproducible fault campaigns against the full staging stack.

A campaign builds one :class:`~repro.staging.service.StagingService`,
drives a deterministic write/read workload on it, and injects a failure
schedule while the workload is in flight.  After *every* injected event
the online invariant suite runs; once the workload completes and the
simulator drains, the strict quiescent suite runs (lock leaks, accounting
conservation, placement anti-affinity, parity recompute, byte-exact
digest audit).

All three scenario modes reduce to one replayable artifact — a list of
:class:`FailureUnit` (fail time, server, optional replace time) — which
makes reproduction and shrinking uniform:

- ``scheduled``: units drawn in serialized slots across a calibrated
  workload horizon, so each repair finishes before the next failure;
- ``stochastic``: a :class:`~repro.sim.failures.FailureInjector` in MTBF
  mode (with the repair-delay re-arm) is pre-run on a scratch simulator
  and its event stream recorded, then replayed as a schedule;
- ``cabinet``: correlated failures — every server of one cabinet dies at
  the same instant (the topology-aware layout must keep this survivable).

On violation the failure list is shrunk ddmin-style to a minimal failing
schedule, and the minimal schedule is re-run with tracing enabled to dump
``trace.json`` / ``spans.jsonl`` / ``events.jsonl`` / ``metrics.json``
plus ``schedule.json`` and ``violations.json``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from typing import Generator

import numpy as np

from repro.chaos.invariants import ONLINE, QUIESCENT, Violation, run_invariants
from repro.core.runtime import DataLossError
from repro.sim.failures import FailureInjector, FailureSchedule
from repro.sim.engine import Simulator

__all__ = ["ChaosConfig", "FailureUnit", "CampaignResult", "run_campaign", "shrink_units"]

_POLICIES = ("replicate", "erasure", "hybrid", "corec")
_MODES = ("scheduled", "stochastic", "cabinet")

READ_STRIDE = 4  # the workload reads every Nth block back each step
# Fraction of the calibrated horizon the recovery sweep deadline gets.
# Kept small so repairs land between failure slots — chaos verifies
# correctness of the machinery, not the paper's deadline tradeoff.
DEADLINE_FRAC = 0.04
# Minimum spacing (fraction of horizon) between one unit's replacement
# and the next unit's failure: the repair sweep must be able to finish,
# otherwise back-to-back failures exceed the code's tolerance by
# construction and every durability report would be noise.
REPAIR_GUARD_FRAC = 0.08
MAX_SHRINK_RUNS = 40


@dataclass(frozen=True)
class FailureUnit:
    """One fail→replace cycle of one server (``t_replace=None``: never)."""

    t_fail: float
    server: int
    t_replace: float | None

    def as_dict(self) -> dict:
        return {"t_fail": self.t_fail, "server": self.server, "t_replace": self.t_replace}


@dataclass
class ChaosConfig:
    """One campaign: deployment geometry, workload shape, failure regime."""

    mode: str = "scheduled"
    policy: str = "corec"
    seed: int = 0
    n_servers: int = 8
    nodes_per_cabinet: int = 2
    domain_shape: tuple = (32, 32, 32)
    object_bytes: int = 4096
    n_variables: int = 2
    timesteps: int = 4
    n_failures: int = 3
    placement_mode: str = "grouped"
    max_coding_sets: int = 2
    storage_bound: float = 0.67
    shrink: bool = True
    out_dir: str | None = None

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"unknown chaos mode {self.mode!r} (pick from {_MODES})")
        if self.policy not in _POLICIES:
            raise ValueError(f"unknown policy {self.policy!r} (pick from {_POLICIES})")
        if self.timesteps < 1 or self.n_variables < 1:
            raise ValueError("need at least one timestep and one variable")
        if self.n_failures < 1:
            raise ValueError("a chaos campaign needs at least one failure")


@dataclass
class CampaignResult:
    """Everything needed to report, reproduce, and shrink one campaign."""

    mode: str
    seed: int
    units: list[FailureUnit]
    events: list[tuple[float, str, int]]
    violations: list[Violation]
    checks_run: int
    read_errors: int
    fingerprint: str
    waived_losses: int = 0
    horizon: float = 0.0
    minimal_units: list[FailureUnit] | None = None
    shrink_runs: int = 0
    artifacts: dict | None = None

    @property
    def passed(self) -> bool:
        return not self.violations

    def summary(self) -> dict:
        out = {
            "mode": self.mode,
            "seed": self.seed,
            "passed": self.passed,
            "failures_injected": len(self.units),
            "events": len(self.events),
            "checks_run": self.checks_run,
            "violations": [str(v) for v in self.violations],
            "read_errors": self.read_errors,
            "waived_losses": self.waived_losses,
            "fingerprint": self.fingerprint,
            "horizon_s": self.horizon,
        }
        if self.minimal_units is not None:
            out["minimal_schedule"] = [u.as_dict() for u in self.minimal_units]
            out["shrink_runs"] = self.shrink_runs
        if self.artifacts:
            out["artifacts"] = self.artifacts
        return out


# ----------------------------------------------------------------------
# service / workload assembly
# ----------------------------------------------------------------------
def _build_service(cfg: ChaosConfig, horizon: float | None, tracing: bool = False):
    from repro import StagingConfig, StagingService
    from repro.core.policies import bounded_spec, policy_from_spec
    from repro.core.recovery import RecoveryConfig

    recovery = None
    if horizon is not None:
        # Lazy recovery whose sweep deadline fits inside a failure slot.
        recovery = RecoveryConfig(
            mode="lazy", mtbf_s=4.0 * DEADLINE_FRAC * horizon, deadline_fraction=0.25
        )
    return StagingService(
        StagingConfig(
            n_servers=cfg.n_servers,
            nodes_per_cabinet=cfg.nodes_per_cabinet,
            domain_shape=tuple(cfg.domain_shape),
            object_max_bytes=cfg.object_bytes,
            placement_mode=cfg.placement_mode,
            max_coding_sets=cfg.max_coding_sets,
            tracing=tracing,
            seed=cfg.seed,
        ),
        policy_from_spec(
            bounded_spec(cfg.policy, cfg.storage_bound), seed=cfg.seed, recovery=recovery
        ),
    )


def _workload(svc, cfg: ChaosConfig, losses: list) -> Generator:
    """Deterministic writer/reader mix; read losses recorded, not raised.

    Every put/get that raises :class:`DataLossError` is a durability breach
    under a survivable schedule, so it lands in ``losses`` for the campaign
    to convert into violations — but the workload keeps going, because the
    interesting bugs are often *after* the first loss.
    """
    names = [f"v{i}" for i in range(cfg.n_variables)]
    blocks = list(range(svc.domain.n_blocks))
    for step in range(cfg.timesteps):
        for name in names:
            for b in blocks:
                try:
                    yield from svc.put(f"w{step}", name, svc.domain.block_bbox(b))
                except DataLossError as exc:
                    losses.append((svc.sim.now, f"put {name}/{b}: {exc}"))
        for name in names:
            for b in blocks[::READ_STRIDE]:
                try:
                    yield from svc.get(f"r{step}", name, svc.domain.block_bbox(b))
                except DataLossError as exc:
                    losses.append((svc.sim.now, f"get {name}/{b}: {exc}"))
        try:
            yield from svc.end_step()
        except DataLossError as exc:
            losses.append((svc.sim.now, f"end_step {step}: {exc}"))
    try:
        yield from svc.flush()
    except DataLossError as exc:
        losses.append((svc.sim.now, f"flush: {exc}"))


def calibrate_horizon(cfg: ChaosConfig) -> float:
    """Simulated duration of the workload with no failures (deterministic)."""
    svc = _build_service(cfg, horizon=None)
    losses: list = []
    svc.run_workflow(_workload(svc, cfg, losses))
    svc.run()
    return svc.sim.now


# ----------------------------------------------------------------------
# scenario generation (all modes produce a FailureUnit list)
# ----------------------------------------------------------------------
def generate_units(cfg: ChaosConfig, horizon: float) -> list[FailureUnit]:
    rng = np.random.default_rng(cfg.seed)
    if cfg.mode == "scheduled":
        return _scheduled_units(cfg, horizon, rng)
    if cfg.mode == "stochastic":
        return _stochastic_units(cfg, horizon, rng)
    return _cabinet_units(cfg, horizon, rng)


def _scheduled_units(cfg: ChaosConfig, horizon: float, rng) -> list[FailureUnit]:
    """Serialized fail→replace slots across the active part of the run."""
    lo, hi = 0.15 * horizon, 0.85 * horizon
    slot = (hi - lo) / cfg.n_failures
    units = []
    for i in range(cfg.n_failures):
        start = lo + i * slot
        t_fail = start + float(rng.uniform(0.0, 0.3)) * slot
        t_replace = t_fail + float(rng.uniform(0.1, 0.3)) * slot
        victim = int(rng.integers(cfg.n_servers))
        units.append(FailureUnit(t_fail, victim, t_replace))
    return units


def _stochastic_units(cfg: ChaosConfig, horizon: float, rng) -> list[FailureUnit]:
    """Record an MTBF-mode injector run on a scratch simulator, then replay.

    Pre-recording (rather than coupling the stochastic injector to the live
    service) keeps the event stream identical between the campaign run, the
    bit-identical reproduction run, and every shrink replay.
    """
    cutoff = 0.85 * horizon
    # Fleet failure rate n/mtbf over the window ≈ n_failures expected.
    mtbf = cfg.n_servers * cutoff / cfg.n_failures
    sim = Simulator()
    events: list[tuple[float, str, int]] = []
    inj = FailureInjector(
        sim,
        on_fail=lambda s: events.append((sim.now, "fail", s)),
        on_replace=lambda s: events.append((sim.now, "replace", s)),
        mtbf_s=mtbf,
        n_servers=cfg.n_servers,
        rng=rng,
        repair_delay_s=0.05 * horizon,
        repair_delay_dist="uniform",
        max_concurrent_failures=1,
    )
    inj.start()
    sim.run(until=cutoff)
    units = []
    open_fail: dict[int, float] = {}
    for t, kind, sid in events:
        if kind == "fail":
            open_fail[sid] = t
        else:
            units.append(FailureUnit(open_fail.pop(sid), sid, t))
    for sid, t in sorted(open_fail.items()):
        units.append(FailureUnit(t, sid, None))  # replacement past the cutoff
    units.sort(key=lambda u: u.t_fail)
    return _enforce_guard(units, REPAIR_GUARD_FRAC * horizon)


def _enforce_guard(units: list[FailureUnit], guard: float) -> list[FailureUnit]:
    """Drop units that start before the previous repair could finish."""
    kept: list[FailureUnit] = []
    for u in units:
        prev = kept[-1] if kept else None
        if prev is not None:
            prev_end = prev.t_replace if prev.t_replace is not None else math.inf
            if u.t_fail < prev_end + guard:
                continue
        kept.append(u)
    return kept


def _cabinet_units(cfg: ChaosConfig, horizon: float, rng) -> list[FailureUnit]:
    """Correlated rounds: a whole cabinet dies at one instant per round."""
    from repro.sim.cluster import Cluster

    cluster = Cluster(n_servers=cfg.n_servers, nodes_per_cabinet=cfg.nodes_per_cabinet)
    n_rounds = max(1, min(2, cfg.n_failures // max(1, cfg.nodes_per_cabinet)))
    lo, hi = 0.2 * horizon, 0.8 * horizon
    slot = (hi - lo) / n_rounds
    units = []
    for r in range(n_rounds):
        cabinet = int(rng.integers(cluster.n_cabinets))
        t_fail = lo + r * slot + float(rng.uniform(0.0, 0.2)) * slot
        t_replace = t_fail + float(rng.uniform(0.1, 0.25)) * slot
        for sid in cluster.servers_in_cabinet(cabinet):
            units.append(FailureUnit(t_fail, sid, t_replace))
    return units


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------
def _units_to_schedule(units: list[FailureUnit]) -> FailureSchedule:
    sched = FailureSchedule()
    for u in units:
        sched.add_failure(u.t_fail, u.server)
        if u.t_replace is not None:
            sched.add_replacement(u.t_replace, u.server)
    sched.validate()
    return sched


def fingerprint(svc, events: list, units: list[FailureUnit]) -> str:
    """What two runs of one seed must agree on, bit for bit: the injected
    schedule, when each event landed, where the clock stopped, every
    policy/runtime counter and the deployment's state projection."""
    payload = {
        "events": events,
        "units": [u.as_dict() for u in units],
        "t_end": svc.sim.now,
        "counters": dict(svc.metrics.counters),
        "projection": svc.projection(),
    }
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


def execute_units(
    cfg: ChaosConfig, units: list[FailureUnit], horizon: float, tracing: bool = False
):
    """Run one campaign against a fixed failure-unit list.

    Returns ``(CampaignResult, service)``; the service is still live so a
    caller can export its tracer/log (the dump path does).
    """
    svc = _build_service(cfg, horizon, tracing=tracing)
    violations: list[Violation] = []
    events: list[tuple[float, str, int]] = []
    checks = 0

    def _checked(kind: str, sid: int) -> None:
        nonlocal checks
        if kind == "fail":
            svc.fail_server(sid)
        else:
            svc.replace_server(sid)
        events.append((svc.sim.now, kind, sid))
        checks += 1
        found = run_invariants(svc, tier=ONLINE)
        for v in found:
            svc.log.emit(svc.sim.now, "invariant_violated", source="chaos",
                         invariant=v.invariant, detail=v.detail)
            svc.tracer.instant(
                "chaos.violation", category="failure",
                invariant=v.invariant, detail=v.detail,
            )
        violations.extend(found)

    if units:
        inj = FailureInjector(
            svc.sim,
            on_fail=lambda s: _checked("fail", s),
            on_replace=lambda s: _checked("replace", s),
            schedule=_units_to_schedule(units),
        )
        inj.start()
    losses: list = []
    svc.run_workflow(_workload(svc, cfg, losses))
    svc.run()  # drain background protection / recovery / injector tail
    waived = 0
    for t, detail in losses:
        if (
            cfg.policy in ("erasure", "hybrid")
            and "primary copy unavailable and no replica to restore from" in detail
        ):
            # The documented unprotected window of the non-replicating
            # baselines: an entity queued for encoding has only its primary
            # copy until the stripe forms (exactly the gap CoREC's
            # replicate-first scheme closes, Section III of the paper).
            # Waived — losing it is those baselines' specified behaviour —
            # but counted so campaigns still surface how often it happens.
            waived += 1
            continue
        violations.append(Violation("workload_loss", detail, t))
    checks += 1
    violations.extend(run_invariants(svc, tier=QUIESCENT))
    result = CampaignResult(
        mode=cfg.mode,
        seed=cfg.seed,
        units=list(units),
        events=events,
        violations=violations,
        checks_run=checks,
        read_errors=svc.read_errors,
        fingerprint=fingerprint(svc, events, units),
        waived_losses=waived,
        horizon=horizon,
    )
    return result, svc


# ----------------------------------------------------------------------
# shrinking (ddmin over the failure-unit list)
# ----------------------------------------------------------------------
def shrink_units(
    cfg: ChaosConfig, units: list[FailureUnit], horizon: float, max_runs: int = MAX_SHRINK_RUNS
) -> tuple[list[FailureUnit], int]:
    """Minimize ``units`` while the campaign still fails.

    Classic delta-debugging over the unit list: try dropping chunks,
    halving the chunk size on a full pass without progress.  Unit times
    stay absolute, so the minimal schedule replays the original timeline.
    Returns ``(minimal_units, replays_used)``.
    """

    runs = 0

    def fails(candidate: list[FailureUnit]) -> bool:
        nonlocal runs
        runs += 1
        result, _ = execute_units(cfg, candidate, horizon)
        return not result.passed

    if fails([]):
        # Fails with no injected failures at all: the bug is failure-
        # independent and the empty schedule is the minimal reproducer.
        return [], runs
    current = list(units)
    n = 2
    while len(current) >= 2 and runs < max_runs:
        chunk = max(1, math.ceil(len(current) / n))
        reduced = False
        for i in range(0, len(current), chunk):
            candidate = current[:i] + current[i + chunk:]
            if not candidate or runs >= max_runs:
                continue
            if fails(candidate):
                current = candidate
                n = max(2, n - 1)
                reduced = True
                break
        if not reduced:
            if chunk == 1:
                break
            n = min(len(current), 2 * n)
    return current, runs


# ----------------------------------------------------------------------
# artifact dump
# ----------------------------------------------------------------------
def dump_artifacts(
    cfg: ChaosConfig, units: list[FailureUnit], result: CampaignResult, out_dir: str
) -> dict:
    """Re-run the (minimal) schedule traced and export every artifact.

    Tracing is byte-identical to the untraced run, so the traced replay
    reproduces the same violations while capturing the full span tree
    around them.
    """
    from repro.obs.export import write_trace_dir

    traced_result, svc = execute_units(cfg, units, result.horizon, tracing=True)
    artifacts = write_trace_dir(
        out_dir, svc.tracer, svc.log, svc.metrics,
        process_name=f"chaos-{cfg.mode}-seed{cfg.seed}",
    )
    schedule_path = os.path.join(out_dir, "schedule.json")
    with open(schedule_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "mode": cfg.mode,
                "seed": cfg.seed,
                "policy": cfg.policy,
                "horizon_s": result.horizon,
                "units": [u.as_dict() for u in units],
            },
            fh,
            indent=2,
        )
    artifacts["schedule"] = schedule_path
    violations_path = os.path.join(out_dir, "violations.json")
    with open(violations_path, "w", encoding="utf-8") as fh:
        json.dump(
            [
                {"invariant": v.invariant, "detail": v.detail, "t": v.t}
                for v in traced_result.violations
            ],
            fh,
            indent=2,
        )
    artifacts["violations"] = violations_path
    return artifacts


# ----------------------------------------------------------------------
# top-level entry point
# ----------------------------------------------------------------------
def run_campaign(cfg: ChaosConfig) -> CampaignResult:
    """Calibrate, generate, execute — and on violation, shrink and dump."""
    horizon = calibrate_horizon(cfg)
    units = generate_units(cfg, horizon)
    result, _ = execute_units(cfg, units, horizon)
    if not result.passed and cfg.shrink:
        minimal, runs = shrink_units(cfg, units, horizon)
        result.minimal_units = minimal
        result.shrink_runs = runs
        if cfg.out_dir:
            result.artifacts = dump_artifacts(cfg, minimal, result, cfg.out_dir)
    return result
