"""Deterministic weak-scaling harness for the failure paths.

Extends the Table II shrink sweep (``repro.workloads.s3d``) past its three
paper columns: the deployment is scaled from 4 to 64 staging servers while
the *per-server* share stays fixed (the paper keeps the same 16:1
simulation:staging ratio as the machine grows), and each scale injects one
fail/replace cycle against a quiesced service.

Instead of wall-clock time — flaky under CI noise — the harness asserts
*operation counts*: the directory's ``op_stats`` touch counters record how
many entity/stripe records every failure-handling path visited.  With the
reverse indexes in place, touches per failure are proportional to the data
on the failed server (constant across a weak-scaling sweep); a regression
to any whole-directory walk makes them grow with the total object count
and trips the bound.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chaos.invariants import QUIESCENT, run_invariants
from repro.core.corec import CoRECPolicy

__all__ = ["ScalingConfig", "run_scale", "check_bounds"]

#: Server counts of the full sweep (each divisible by the k+m=4 coding
#: group and the size-2 replication group).
SWEEP_SERVERS = (4, 8, 16, 32, 64)

#: Block edge in cells (element_bytes=1 -> bytes per object).
_BLOCK_CELLS = 256

# Touches per failure may exceed the affected-record count by a small
# constant factor (each repair reads and rewrites its record, and the
# rebalance scans its coding group's stripes); what must NOT happen is
# growth with deployment size.
MAX_TOUCH_RATIO = 16.0
# The per-scale ratio must stay flat: the largest scale may exceed the
# smallest by at most this factor (a whole-directory walk grows it by
# ~n_servers, 16x across the sweep).
MAX_RATIO_GROWTH = 2.0
VICTIM = 1  # the server failed at each scale


@dataclass
class ScalingConfig:
    """One weak-scaling sweep: fixed per-server load, growing server count."""

    servers: tuple[int, ...] = SWEEP_SERVERS
    blocks_per_server: int = 8   # primaries per server per variable
    timesteps: int = 3
    seed: int = 1

    def __post_init__(self) -> None:
        for n in self.servers:
            if n % 4 or n % 2:
                raise ValueError(f"{n} servers cannot host the 4-wide coding groups")


def _build_service(cfg: ScalingConfig, n_servers: int):
    from repro.staging.service import StagingConfig, StagingService

    n_blocks = cfg.blocks_per_server * n_servers
    config = StagingConfig(
        n_servers=n_servers,
        domain_shape=(n_blocks * _BLOCK_CELLS,),
        element_bytes=1,
        object_max_bytes=_BLOCK_CELLS,
        seed=cfg.seed,
    )
    return StagingService(config, CoRECPolicy())  # lazy recovery, CoREC's default


def _populate(svc, cfg: ScalingConfig):
    """Write a hot and a cold variable over every block, then quiesce."""

    def wf():
        for step in range(cfg.timesteps):
            names = ("hot", "cold") if step == 0 else ("hot",)
            for name in names:
                for b in range(svc.domain.n_blocks):
                    yield from svc.put(f"w{b % 16}", name, svc.domain.block_bbox(b))
            yield from svc.end_step()
        yield from svc.flush()

    svc.run_workflow(wf())
    svc.run()


def run_scale(cfg: ScalingConfig, n_servers: int) -> dict:
    """Populate one deployment, fail/replace one server, count touches."""
    svc = _build_service(cfg, n_servers)
    _populate(svc, cfg)
    d = svc.directory
    victim = VICTIM

    group = set(svc.layout.coding_group(victim))
    affected = {
        "primaries": len(d.entities_by_primary.get(victim, ())),
        "replicas": len(d.replicas_by_server.get(victim, ())),
        "stripes": len(d.stripes_by_server.get(victim, ())),
        # The post-replacement rebalance legitimately inspects every stripe
        # of the victim's coding group; group size is constant, so this is
        # still O(per-server share).
        "group_stripes": len(
            set().union(*(d.stripes_by_server.get(s, set()) for s in group))
        ),
    }
    before = dict(d.op_stats)

    svc.fail_server(victim)
    svc.run()
    svc.replace_server(victim)
    svc.run()

    after = dict(d.op_stats)
    touches = (
        after["entity_touches"] - before["entity_touches"]
        + after["stripe_touches"] - before["stripe_touches"]
    )
    affected_total = sum(affected.values())
    row = {
        "n_servers": n_servers,
        "total_entities": len(d.entities),
        "total_stripes": len(d.stripes),
        "affected": affected,
        "affected_total": affected_total,
        "touches": touches,
        "touch_ratio": touches / max(1, affected_total),
        "full_scans_during_failure": after["full_scans"] - before["full_scans"],
        "invariant_violations": [
            str(v) for v in run_invariants(svc, tier=QUIESCENT)
        ],
    }
    return row


def check_bounds(rows: list[dict]) -> list[str]:
    """Complexity-bound assertions over a sweep; returns problem strings."""
    problems = []
    for row in rows:
        n = row["n_servers"]
        if row["invariant_violations"]:
            problems.append(
                f"n={n}: quiescent invariants failed: {row['invariant_violations']}"
            )
        if row["full_scans_during_failure"]:
            problems.append(
                f"n={n}: {row['full_scans_during_failure']} full directory "
                f"scans during the failure window (expected 0)"
            )
        if row["touch_ratio"] > MAX_TOUCH_RATIO:
            problems.append(
                f"n={n}: {row['touches']} directory touches for "
                f"{row['affected_total']} affected records "
                f"(ratio {row['touch_ratio']:.1f} > {MAX_TOUCH_RATIO})"
            )
    if len(rows) >= 2:
        first, last = rows[0], rows[-1]
        growth = last["touch_ratio"] / max(1e-9, first["touch_ratio"])
        if growth > MAX_RATIO_GROWTH:
            problems.append(
                f"touch ratio grew {growth:.2f}x from {first['n_servers']} to "
                f"{last['n_servers']} servers (> {MAX_RATIO_GROWTH}x): "
                f"failure cost is scaling with directory size"
            )
    return problems
