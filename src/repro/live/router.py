"""Client-side router for the sharded live cluster.

:class:`ClusterClient` gives callers the single-server :class:`~repro.live.protocol.LiveClient`
surface over a :class:`~repro.live.cluster.LiveCluster`: one blocking
client per shard plus the block→shard routing that decides which
connection each operation rides.

Routing is pure geometry, derived from the same :func:`~repro.staging.service.build_geometry`
the servers use: a block's owner is the shard owning the coding group of
its index-placed primary (``index.primary_of_block``).  Failure
redirects never move an object across coding groups, so this static
mapping stays correct across server kills and replacements — no
membership chatter, no ownership leases.

Multi-block requests are decomposed on the block grid, grouped by owning
shard and shipped as one batched ``mput``/``mget`` frame per shard, so a
cross-shard put costs one RPC per *shard* touched, not per block.  The
data slicing mirrors the staging service's own region-to-block payload
slicing byte for byte (element-wise uint8 grid views), which is what
keeps sharded runs digest-identical to single-process runs.

Deployment-wide controls (``step``, ``flush``, ``quiesce``) broadcast to
every shard; ``fail``/``replace`` route to the shard owning the server.
``projection()`` merges the per-shard quiescent conformance projections
into one deployment-shaped projection the differential harness can diff
directly against a single-process run.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Sequence

import numpy as np

from repro.live.cluster import ShardPlan
from repro.live.protocol import Buffer, LiveClient
from repro.staging.domain import BBox
from repro.staging.service import build_geometry

__all__ = ["ClusterClient"]


class ClusterClient:
    """Synchronous client speaking to every shard of one live cluster.

    Not thread-safe (each underlying :class:`LiveClient` owns one TCP
    connection): use one router per thread/process.  Multi-shard data ops
    overlap their per-shard RPCs on an internal thread pool — safe because
    each in-flight RPC rides a *different* shard's connection.
    ``client_kwargs`` (timeouts, reconnect policy, tracer) are passed to
    every per-shard client; ``client_factory`` swaps the per-shard client
    constructor (tests inject fakes with deterministic delays).
    """

    def __init__(
        self,
        plan: ShardPlan,
        endpoints: Sequence[tuple[str, int]],
        name: str = "client",
        client_factory: Callable[..., LiveClient] | None = None,
        **client_kwargs: Any,
    ):
        if len(endpoints) != plan.n_shards:
            raise ValueError(
                f"plan has {plan.n_shards} shards but {len(endpoints)} endpoints given"
            )
        self.plan = plan
        self.name = name
        self._client_kwargs = dict(client_kwargs)
        self._factory = client_factory or LiveClient
        _, self.domain, self.index, self.layout = build_geometry(plan.config)
        self._clients: list[LiveClient] = [
            self._factory(host, port, name=name, **self._client_kwargs)
            for host, port in endpoints
        ]
        self._pool: ThreadPoolExecutor | None = None

    # -- routing -------------------------------------------------------
    def shard_of_block(self, block_id: int, var: str) -> int:
        """Owning shard: the shard of the block's hash-placed primary."""
        primary = self.index.primary_of_block(block_id, var)
        return self.plan.server_to_shard[primary]

    def shard_client(self, shard: int) -> LiveClient:
        return self._clients[shard]

    def set_endpoint(self, shard: int, host: str, port: int) -> None:
        """Repoint one shard's connection (after a shard restart)."""
        old = self._clients[shard]
        self._clients[shard] = self._factory(host, port, name=self.name, **self._client_kwargs)
        try:
            old.close()
        except OSError:  # pragma: no cover - best effort
            pass

    def _decompose(self, var: str, region: BBox) -> dict[int, list[tuple[int, BBox]]]:
        """Group the region's overlapping blocks by owning shard.

        Returns ``{shard: [(block_id, block ∩ region), ...]}`` in block-id
        order — each sub-box is confined to one block, so a shard's
        service stages exactly the blocks it owns and nothing else.
        """
        block_ids = self.domain.blocks_overlapping(region)
        if not block_ids:
            raise ValueError(f"region {region} outside the staged domain")
        per_shard: dict[int, list[tuple[int, BBox]]] = {}
        for bid in block_ids:
            inter = self.domain.block_bbox(bid).intersect(region)
            assert inter is not None
            per_shard.setdefault(self.shard_of_block(bid, var), []).append((bid, inter))
        return per_shard

    def _fanout(self, calls: list[Callable[[], Any]]) -> list[Any]:
        """Run per-shard RPCs concurrently, results in input order.

        A multi-shard put/get used to contact shards one at a time, so the
        client-side cost grew linearly with shards touched even though the
        shards work independently.  Each call targets a distinct shard
        connection, so overlapping them is safe; a single call runs
        inline (no pool hop on the hot single-shard path).  The first
        exception propagates after all calls settle.
        """
        if len(calls) == 1:
            return [calls[0]()]
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.plan.n_shards,
                thread_name_prefix=f"router-{self.name}",
            )
        futures = [self._pool.submit(c) for c in calls]
        results: list[Any] = []
        first_exc: BaseException | None = None
        for fut in futures:
            try:
                results.append(fut.result())
            except BaseException as exc:  # settle every connection first
                first_exc = first_exc or exc
                results.append(None)
        if first_exc is not None:
            raise first_exc
        return results

    # -- data plane ----------------------------------------------------
    def put(self, var: str, lb, ub, data: np.ndarray | None = None) -> float:
        """Write ``[lb, ub)`` of ``var``; one ``mput`` per shard touched.

        Returns the slowest shard's batch duration (the put's completion
        time).  With ``data`` the region's bytes are sliced per block
        exactly like the staging service's region-to-block slicing, so a
        sharded write stages byte-identical payloads.
        """
        region = BBox(tuple(lb), tuple(ub))
        per_shard = self._decompose(var, region)
        grid = None
        eb = self.domain.element_bytes
        if data is not None:
            arr = np.ascontiguousarray(data)
            if arr.size * arr.itemsize != region.volume * eb:
                raise ValueError(
                    f"data has {arr.size * arr.itemsize} bytes; region {region} "
                    f"needs {region.volume * eb}"
                )
            # Element-wise byte view: (*region.shape, element_bytes) —
            # the same view _block_payload takes server-side.
            grid = arr.view(np.uint8).reshape(region.shape + (eb,))
        calls: list[Callable[[], float]] = []
        for shard in sorted(per_shard):
            puts: list[tuple] = []
            parts: list[Buffer] = []
            for _, inter in per_shard[shard]:
                if grid is None:
                    puts.append((inter.lb, inter.ub, 0))
                    continue
                src = np.ascontiguousarray(
                    grid[
                        tuple(
                            slice(il - rl, iu - rl)
                            for il, iu, rl in zip(inter.lb, inter.ub, region.lb)
                        )
                    ]
                ).ravel()
                puts.append((inter.lb, inter.ub, src.nbytes))
                parts.append(memoryview(src).cast("B"))
            calls.append(
                lambda cli=self._clients[shard], puts=puts, parts=parts: cli.mput(
                    var, puts, parts, dtype=None if grid is None else "uint8"
                )
            )
        return max(self._fanout(calls))

    def get(
        self, var: str, lb, ub, verify: bool | None = None
    ) -> tuple[float, dict[int, memoryview]]:
        """Read ``[lb, ub)``; one ``mget`` per shard, merged block views."""
        region = BBox(tuple(lb), tuple(ub))
        per_shard = self._decompose(var, region)
        calls = [
            lambda cli=self._clients[shard], regions=[
                (inter.lb, inter.ub) for _, inter in per_shard[shard]
            ]: cli.mget(var, regions, verify=verify)
            for shard in sorted(per_shard)
        ]
        merged: dict[int, memoryview] = {}
        duration = 0.0
        for dur, blocks in self._fanout(calls):
            duration = max(duration, dur)
            merged.update(blocks)
        return duration, merged

    def query(self, var: str, lb, ub) -> list[dict[str, Any]]:
        """Merged block metadata, each block answered by its owning shard."""
        region = BBox(tuple(lb), tuple(ub))
        per_shard = self._decompose(var, region)
        rows: dict[int, dict[str, Any]] = {}
        for shard, blocks in per_shard.items():
            owned = {bid for bid, _ in blocks}
            for row in self._clients[shard].query(var, region.lb, region.ub):
                if row["block"] in owned:
                    rows[row["block"]] = row
        return [rows[bid] for bid in sorted(rows)]

    # -- deployment-wide controls (broadcast) --------------------------
    def ping(self) -> float:
        return max(cli.ping() for cli in self._clients)

    def step(self) -> int:
        """Advance the application step on every shard (must agree)."""
        steps = [cli.step() for cli in self._clients]
        if len(set(steps)) != 1:
            raise RuntimeError(f"shards disagree on step: {steps}")
        return steps[0]

    def flush(self) -> None:
        for cli in self._clients:
            cli.flush()

    def quiesce(self) -> None:
        for cli in self._clients:
            cli.quiesce()

    # -- failures (routed to the owning shard) -------------------------
    def fail_server(self, sid: int) -> None:
        self._clients[self.plan.shard_of_server(sid)].fail_server(sid)

    def replace_server(self, sid: int) -> None:
        self._clients[self.plan.shard_of_server(sid)].replace_server(sid)

    # -- merged introspection ------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Cluster-wide operational summary (sums + per-shard rows)."""
        shard_stats = [cli.stats() for cli in self._clients]
        alive: list[int] = []
        for shard, st in enumerate(shard_stats):
            owned = set(self.plan.shard_servers(shard))
            alive.extend(s for s in st["alive_servers"] if s in owned)
        return {
            "shards": len(shard_stats),
            "step": shard_stats[0]["step"],
            "puts": sum(st["puts"] for st in shard_stats),
            "gets": sum(st["gets"] for st in shard_stats),
            "entities": sum(st["entities"] for st in shard_stats),
            "stripes": sum(st["stripes"] for st in shard_stats),
            "read_errors": sum(st["read_errors"] for st in shard_stats),
            "alive_servers": sorted(alive),
            "per_shard": shard_stats,
        }

    def verify(self) -> dict[str, Any]:
        """Cluster-wide read audit: every shard audits the objects it owns."""
        verified = 0
        unrecoverable: list[str] = []
        for cli in self._clients:
            result = cli.verify()
            verified += result["verified"]
            unrecoverable.extend(result["unrecoverable"])
        return {"verified": verified, "unrecoverable": sorted(unrecoverable)}

    def invariants(self) -> list[str]:
        """Quiescent invariant sweep across all shards (prefixed per shard)."""
        out: list[str] = []
        for shard, cli in enumerate(self._clients):
            out.extend(f"shard {shard}: {v}" for v in cli.invariants())
        return out

    def projection(self) -> dict[str, Any]:
        """Merged quiescent conformance projection of the whole cluster.

        Entity/stripe/pending records live wholly within one shard (group
        partitioning), so the merge is a disjoint union; each server's
        row comes from its owning shard (the only shard whose husk of
        that server ever holds state); storage counters sum.  The result
        is shaped exactly like a single-process projection modulo JSON
        key stringification — compare against
        :func:`repro.staging.service.normalize_projection` of the
        reference.
        """
        shard_projs = [cli.projection() for cli in self._clients]
        entities: dict[str, Any] = {}
        stripes: dict[str, Any] = {}
        pending: dict[str, Any] = {}
        servers: list[Any] = [None] * self.plan.config.n_servers
        storage = {"original": 0, "replica": 0, "parity": 0}
        read_errors = 0
        for shard, proj in enumerate(shard_projs):
            for key, ent in proj["entities"].items():
                if key in entities:
                    raise RuntimeError(f"entity {key} present on two shards")
                entities[key] = ent
            for sid, stripe in proj["stripes"].items():
                if sid in stripes:
                    raise RuntimeError(f"stripe {sid} present on two shards")
                stripes[sid] = stripe
            for gid, group in proj["pending"].items():
                pending[gid] = group
            for srv in self.plan.shard_servers(shard):
                servers[srv] = proj["servers"][srv]
            for k in storage:
                storage[k] += proj["storage"][k]
            read_errors += proj["read_errors"]
        return {
            "entities": entities,
            "stripes": stripes,
            "servers": servers,
            "pending": pending,
            "storage": storage,
            "read_errors": read_errors,
        }

    # -- lifecycle -----------------------------------------------------
    def shutdown(self) -> None:
        """Graceful cluster stop: every shard drains and exits."""
        for cli in self._clients:
            cli.shutdown()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        for cli in self._clients:
            cli.close()

    def __enter__(self) -> "ClusterClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
