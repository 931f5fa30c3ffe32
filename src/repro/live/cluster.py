"""Sharded multi-process live cluster.

One OS process per shard, each running the complete live stack
(:func:`~repro.live.server.serve_in_thread`'s engine + service + TCP
server) for a *subset of the coding groups*.  The partitioning unit is
the coding group because every structure that matters already breaks
along group lines:

- placement never crosses a coding group: replicas live in the aligned
  replication sub-window, stripe shards in the group, and every failure
  redirect (replica promotion, encoded primary move, pending redirect,
  unprotected fallback) stays inside the group;
- the metadata directory's reverse indexes are keyed by server and
  group, so a shard's directory is exactly the global directory
  restricted to its groups — no record is split, none is shared;
- stripe ids are allocated per group (``g + n_groups * i``), so shards
  mint exactly the ids a single process would.

Each shard process instantiates the *full* deployment config (all N
servers); servers outside its groups are empty husks that never host an
object.  That keeps every id computation (ring positions, group
windows, hash owners) bit-identical to a single-process run, which is
what the sharded conformance suite asserts.

The coordinator (:class:`LiveCluster`) spawns the shard processes,
collects their endpoints, and hands out :class:`~repro.live.router.ClusterClient`
routers.  Clean teardown goes through the wire: a ``shutdown`` frame per
shard drains in-flight requests, closes the engine and lets the process
exit on its own; ``kill_shard`` is the chaos path (SIGKILL, nothing
drains — the shard's in-memory state is gone, which is exactly the
failure domain the test suite probes).
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from typing import Any, Sequence

from repro.core.policies import policy_from_spec
from repro.staging.service import StagingConfig, build_geometry

__all__ = ["ShardPlan", "LiveCluster"]


# ---------------------------------------------------------------------------
# shard plan
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ShardPlan:
    """Static partition of one deployment's coding groups onto shards.

    Pure function of (config, n_shards): the coordinator, every router
    and every test derive the same plan independently, so there is no
    membership state to synchronize.  Shard ``s`` owns the contiguous
    group range ``[s * groups_per_shard, (s+1) * groups_per_shard)``.
    """

    config: StagingConfig
    n_shards: int
    groups_per_shard: int
    group_to_shard: tuple[int, ...]
    server_to_shard: tuple[int, ...]

    @classmethod
    def build(cls, config: StagingConfig, n_shards: int) -> "ShardPlan":
        _, _, _, layout = build_geometry(config)
        n_groups = layout.n_coding_groups()
        if n_shards < 1:
            raise ValueError(f"need at least one shard, got {n_shards}")
        if n_shards > 1 and config.placement_mode != "grouped":
            # Sharding partitions the cluster by coding-group ranges; the
            # spread/coding_sets modes place parity on servers outside the
            # group, which may land on a different shard — cross-shard
            # stripes are not supported by the shard-local directories.
            raise ValueError(
                f"placement_mode={config.placement_mode!r} can place parity "
                f"across coding-group boundaries and cannot be sharded; "
                f"use n_shards=1 or grouped placement"
            )
        if n_groups % n_shards:
            raise ValueError(
                f"{n_groups} coding groups do not divide into {n_shards} shards; "
                f"choose a server count whose group count is a multiple of the "
                f"shard count"
            )
        groups_per_shard = n_groups // n_shards
        group_to_shard = tuple(g // groups_per_shard for g in range(n_groups))
        server_to_shard = tuple(
            group_to_shard[layout.coding_group_id(sid)]
            for sid in range(config.n_servers)
        )
        return cls(
            config=config,
            n_shards=n_shards,
            groups_per_shard=groups_per_shard,
            group_to_shard=group_to_shard,
            server_to_shard=server_to_shard,
        )

    # -- routing -------------------------------------------------------
    def shard_of_server(self, sid: int) -> int:
        return self.server_to_shard[sid]

    def shard_groups(self, shard: int) -> list[int]:
        return [g for g, s in enumerate(self.group_to_shard) if s == shard]

    def shard_servers(self, shard: int) -> list[int]:
        return [sid for sid, s in enumerate(self.server_to_shard) if s == shard]


# ---------------------------------------------------------------------------
# shard worker (child-process entry point)
# ---------------------------------------------------------------------------
def _shard_worker(
    config: StagingConfig,
    policy_spec: tuple[str, dict[str, Any]],
    host: str,
    conn,
    live_kwargs: dict[str, Any],
) -> None:  # pragma: no cover - runs in a child process
    """Run one shard: a full live server bound to an ephemeral port.

    Reports ``("ready", host, port)`` (or ``("error", repr)``) over the
    pipe, then blocks until the server thread exits — which happens when
    a ``shutdown`` frame arrives and the graceful drain completes, so a
    clean cluster stop needs no signals at all.
    """
    from repro.live.server import serve_in_thread

    try:
        handle = serve_in_thread(
            config,
            lambda: policy_from_spec(policy_spec, seed=config.seed),
            host=host,
            port=0,
            **live_kwargs,
        )
    except BaseException as exc:
        try:
            conn.send(("error", repr(exc)))
        finally:
            conn.close()
        return
    conn.send(("ready", handle.host, handle.port))
    conn.close()
    handle.join()


# ---------------------------------------------------------------------------
# coordinator
# ---------------------------------------------------------------------------
class LiveCluster:
    """Spawn and manage one sharded live deployment.

    ``policy_spec`` is a ``(name, options)`` pair (see
    :func:`~repro.core.policies.policy_from_spec`): shard processes cannot
    receive live policy objects, so every shard builds its own instance
    from the spec.  ``live_kwargs`` (``time_scale``, ``tracing``) go
    unchanged to every shard's
    :class:`~repro.live.service.LiveStagingService`.  Shards are forked
    where the platform can (cheap on Linux; the coordinator holds no event
    loop or server threads when spawning) and spawned elsewhere.
    """

    def __init__(
        self,
        config: StagingConfig,
        policy_spec: tuple[str, dict[str, Any]],
        n_shards: int,
        host: str = "127.0.0.1",
        start_timeout: float = 60.0,
        **live_kwargs: Any,
    ):
        self.plan = ShardPlan.build(config, n_shards)
        self.config = config
        self.policy_spec = policy_spec
        self._host = host
        self._live_kwargs = live_kwargs
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        )
        self._start_timeout = start_timeout
        self.processes: list[multiprocessing.Process | None] = [None] * n_shards
        self.endpoints: list[tuple[str, int] | None] = [None] * n_shards
        try:
            for shard in range(n_shards):
                self._spawn(shard)
        except BaseException:
            self.stop(force=True)
            raise

    # -- lifecycle -----------------------------------------------------
    def _spawn(self, shard: int) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_shard_worker,
            args=(
                self.config, self.policy_spec, self._host, child_conn, self._live_kwargs
            ),
            name=f"repro-live-shard-{shard}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        if not parent_conn.poll(self._start_timeout):
            proc.kill()
            raise RuntimeError(f"shard {shard} did not report within {self._start_timeout}s")
        msg = parent_conn.recv()
        parent_conn.close()
        if msg[0] != "ready":
            proc.join(5.0)
            raise RuntimeError(f"shard {shard} failed to start: {msg[1]}")
        self.processes[shard] = proc
        self.endpoints[shard] = (msg[1], msg[2])

    @property
    def n_shards(self) -> int:
        return self.plan.n_shards

    def client(self, name: str = "client", **client_kwargs):
        """A router connected to every shard (see :class:`ClusterClient`)."""
        from repro.live.router import ClusterClient

        endpoints = list(self.endpoints)
        if any(ep is None for ep in endpoints):
            raise RuntimeError("cluster has unstarted shards")
        return ClusterClient(self.plan, endpoints, name=name, **client_kwargs)

    def alive_shards(self) -> list[int]:
        return [
            s for s, p in enumerate(self.processes) if p is not None and p.is_alive()
        ]

    def kill_shard(self, shard: int) -> None:
        """Chaos path: SIGKILL the shard process (no drain, state lost)."""
        proc = self.processes[shard]
        if proc is not None and proc.is_alive():
            proc.kill()
            proc.join(10.0)
        self.endpoints[shard] = None

    def restart_shard(self, shard: int) -> tuple[str, int]:
        """Replace a dead shard with a fresh (empty) process.

        Mirrors the paper's staging-server replacement at the process
        level: the replacement owns the same groups but starts with no
        objects — only data protected *within* surviving shards is still
        servable, and the chaos suite asserts exactly that boundary.
        """
        proc = self.processes[shard]
        if proc is not None and proc.is_alive():
            raise RuntimeError(f"shard {shard} is still alive; kill it first")
        self._spawn(shard)
        return self.endpoints[shard]  # type: ignore[return-value]

    def stop(self, timeout: float = 30.0, force: bool = False) -> None:
        """Drain and stop every live shard; escalate to kill on timeout."""
        from repro.live.protocol import LiveClient

        if not force:
            for shard, proc in enumerate(self.processes):
                ep = self.endpoints[shard]
                if proc is None or not proc.is_alive() or ep is None:
                    continue
                try:
                    with LiveClient(
                        ep[0], ep[1], name="coordinator",
                        timeout=timeout, reconnect=False,
                    ) as cli:
                        cli.shutdown()
                except OSError:
                    pass  # already gone; the join below reaps it
        for proc in self.processes:
            if proc is not None and proc.is_alive():
                proc.join(timeout)
        stuck = [
            s for s, p in enumerate(self.processes) if p is not None and p.is_alive()
        ]
        for shard in stuck:
            self.processes[shard].kill()  # type: ignore[union-attr]
            self.processes[shard].join(10.0)  # type: ignore[union-attr]
        self.processes = [None] * self.plan.n_shards
        self.endpoints = [None] * self.plan.n_shards
        if stuck and not force:
            raise RuntimeError(f"shards {stuck} did not drain within {timeout}s; killed")

    def __enter__(self) -> "LiveCluster":
        return self

    def __exit__(self, *exc) -> None:
        self.stop(force=exc[0] is not None)

