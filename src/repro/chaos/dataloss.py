"""Correlated-failure data-loss campaign: unconstrained vs CodingSets placement.

The headline measurement of CodingSets parity placement (grounded in
Hydra): under a correlated cabinet failure, how many stripes lose more
shards than the code tolerates?  The campaign stages a
deterministic workload twice — once under ``spread`` placement (parity
scattered cluster-wide, cabinet-oblivious: the unconstrained layout large
deployments drift into) and once under ``coding_sets`` (parity bounded to
a small cabinet-disjoint menu per group) — then measures blast radius two
ways:

1. **Exhaustive sweep** (static, metadata-only): for *every* cabinet,
   count the stripes that would lose more than ``m`` shards if that whole
   cabinet died.  Summing over all cabinets gives the total stripe-kill
   exposure of the placement — a pure function of the seed, so the
   numbers are exactly reproducible and CI can gate on them verbatim.
2. **Injected verification** (dynamic, ground truth): actually kill the
   worst cabinet through the real failure paths and audit every entity
   through the real read paths (`verify_all`), confirming the static
   count: every unrecoverable entity belongs to a predicted-killed
   stripe, and a placement predicted loss-free verifies loss-free.

Everything is deterministic per seed; the result carries a fingerprint so
regression tests can assert bit-identical reproduction.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from repro.core.recovery import RecoveryConfig
from repro.staging.objects import ResilienceState

__all__ = ["DataLossConfig", "run_dataloss_campaign"]

DOMAIN_SHAPE = (32, 64, 64)
PLACEMENTS = ("spread", "coding_sets")  # the baseline, then the placement it is compared with


@dataclass
class DataLossConfig:
    """One comparison run: deployment geometry and the placements to pit."""

    seed: int = 0
    n_servers: int = 16
    nodes_per_cabinet: int = 2
    object_bytes: int = 4096
    n_variables: int = 3
    max_coding_sets: int = 2
    # Kill the worst cabinet for real and audit through the read paths.
    inject: bool = True

    def __post_init__(self) -> None:
        if self.n_servers < 8:
            raise ValueError("the campaign needs at least 8 servers")


def _build_service(cfg: DataLossConfig, placement: str):
    from repro import ErasurePolicy, StagingConfig, StagingService

    return StagingService(
        StagingConfig(
            n_servers=cfg.n_servers,
            nodes_per_cabinet=cfg.nodes_per_cabinet,
            domain_shape=DOMAIN_SHAPE,
            object_max_bytes=cfg.object_bytes,
            placement_mode=placement,
            max_coding_sets=cfg.max_coding_sets,
            seed=cfg.seed,
        ),
        # No repair: the campaign measures placement exposure, so the
        # post-failure state must stay exactly what the failure left.
        ErasurePolicy(recovery=RecoveryConfig(mode="none", repair_on_access=False)),
    )


def _stage_workload(svc, cfg: DataLossConfig) -> None:
    """Write every block of every variable once and force full encoding."""

    def flow():
        for v in range(cfg.n_variables):
            for b in range(svc.domain.n_blocks):
                yield from svc.put(f"w{v}", f"v{v}", svc.domain.block_bbox(b))
        yield from svc.end_step()
        yield from svc.flush()

    svc.run_workflow(flow())
    svc.run()


def _stripes_killed_by(svc, dead: set[int]) -> list[int]:
    """Stripe ids that lose more than ``m`` real shards to ``dead``."""
    killed = []
    for sid, stripe in sorted(svc.directory.stripes.items()):
        lost = sum(1 for _, s in stripe.holders() if s in dead)
        if lost > stripe.m:
            killed.append(sid)
    return killed


def _entities_on_killed_stripes(svc, killed: list[int]) -> set:
    out = set()
    for sid in killed:
        stripe = svc.directory.stripes[sid]
        for mk in stripe.members:
            if mk is not None:
                out.add(mk)
    return out


def _distinct_sets_per_group(svc) -> dict[int, int]:
    """How many distinct server sets the stripes of each group span."""
    sets_by_group: dict[int, set] = {}
    for stripe in svc.directory.stripes.values():
        sets_by_group.setdefault(stripe.group_id, set()).add(
            frozenset(s for _, s in stripe.holders())
        )
    return {gid: len(s) for gid, s in sorted(sets_by_group.items())}


def _measure_placement(cfg: DataLossConfig, placement: str) -> dict:
    svc = _build_service(cfg, placement)
    _stage_workload(svc, cfg)
    cluster = svc.cluster
    kills_by_cabinet = {}
    for cab in range(cluster.n_cabinets):
        dead = set(cluster.servers_in_cabinet(cab))
        kills_by_cabinet[cab] = len(_stripes_killed_by(svc, dead))
    total_kills = sum(kills_by_cabinet.values())
    result = {
        "placement": placement,
        "stripes_total": len(svc.directory.stripes),
        "cabinets": cluster.n_cabinets,
        "kills_by_cabinet": kills_by_cabinet,
        "stripe_kill_events": total_kills,
        "kill_probability": (
            total_kills / (cluster.n_cabinets * len(svc.directory.stripes))
            if svc.directory.stripes
            else 0.0
        ),
        "distinct_sets_per_group": _distinct_sets_per_group(svc),
    }
    if cfg.inject:
        result["injected"] = _inject_and_audit(svc, cfg, kills_by_cabinet)
    return result


def _inject_and_audit(svc, cfg: DataLossConfig, kills_by_cabinet: dict) -> dict:
    """Kill the worst cabinet for real; audit losses through the read paths."""
    cabinet = max(kills_by_cabinet, key=lambda c: (kills_by_cabinet[c], -c))
    dead = set(svc.cluster.servers_in_cabinet(cabinet))
    predicted_killed = _stripes_killed_by(svc, dead)
    predicted_lost = _entities_on_killed_stripes(svc, predicted_killed)
    # Predicted losses are stripe members whose data shard actually died or
    # whose stripe can no longer decode; survivors of a killed stripe that
    # kept their primary copy still read fine.  The audit below is ground
    # truth — here we only record the static expectation.
    for sid in sorted(dead):
        svc.fail_server(sid)
    audit = svc.verify_all()
    unrecoverable = set(audit["unrecoverable"])
    # Entities not protected by any stripe member role (e.g. still pending)
    # are not the placement comparison's subject.
    unexplained = sorted(
        key for key in unrecoverable
        if key not in predicted_lost
        and svc.directory.entities[key].state == ResilienceState.ENCODED
    )
    return {
        "cabinet": cabinet,
        "servers_killed": sorted(dead),
        "predicted_killed_stripes": predicted_killed,
        "verified": audit["verified"],
        "unrecoverable": sorted(f"{n}/{b}" for n, b in unrecoverable),
        "unexplained_losses": [f"{n}/{b}" for n, b in unexplained],
    }


def run_dataloss_campaign(cfg: DataLossConfig) -> dict:
    """Measure both placements and compare ``spread`` against ``coding_sets``.

    Returns a JSON-ready payload: per-placement exposure, the loss ratio
    of ``spread`` vs ``coding_sets`` (``inf``-free: a loss-free
    ``coding_sets`` reports the raw event counts and a ratio against 1), and
    a fingerprint of the whole payload for bit-identical regression gates.
    """
    placements = {p: _measure_placement(cfg, p) for p in PLACEMENTS}
    payload = {
        "seed": cfg.seed,
        "n_servers": cfg.n_servers,
        "nodes_per_cabinet": cfg.nodes_per_cabinet,
        "max_coding_sets": cfg.max_coding_sets,
        "placements": placements,
    }
    base, other = PLACEMENTS
    base_kills = placements[base]["stripe_kill_events"]
    other_kills = placements[other]["stripe_kill_events"]
    payload["comparisons"] = {
        f"{base}_vs_{other}": {
            f"{base}_kill_events": base_kills,
            f"{other}_kill_events": other_kills,
            "loss_ratio": base_kills / max(1, other_kills),
        }
    }
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    payload["fingerprint"] = hashlib.blake2b(blob, digest_size=16).hexdigest()
    return payload
