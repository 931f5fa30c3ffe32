"""``--trace 1``: the per-layer numbers, measured from outside each layer.

One lap of the workload's own tape is replayed through each entry point
in turn — ``LiveClient`` over TCP (untraced, then with the repo's own
``tracing=True``), ``LiveStagingService`` awaited in-process, and
``StagingService`` on the simulator — and the tape's exact header, payload
and shard sizes are fed to the protocol, digest and codec functions.  A
span (name, start, end, parent, op) is recorded around every such call
and written to ``out/trace.jsonl``; counts come from the public
read-only views the code already keeps (``PROTO_STATS``,
``GF256.KERNEL_STATS``, the service's metrics registry).  Nothing under
``src/`` is instrumented.

Every metric of ``PER_LAYER`` is reported for every workload; a layer the
workload never enters reports 0 (all of ``live.*`` and ``client.*`` on
``sim_s3d``, ``sim.engine.*`` on the live workloads).
"""

from __future__ import annotations

import asyncio
import json
import os
import statistics

import numpy as np

from targets import InprocTarget, SimTarget, Spans, TcpTarget, calib_unit, clock, run_lap

ATTR_CATEGORIES = ("socket_read", "serialization", "lock_wait", "transfer", "digest", "codec",
                   "loop_cpu")

PER_LAYER = {
    "client.put_p99_us": "us",
    "client.get_p99_us": "us",
    "client.segment_rate_spread": "ratio",
    "live.protocol.frame_roundtrip_us": "us",
    "live.protocol.frames_per_op": "count",
    "live.protocol.payload_copies": "count",
    "live.protocol.bytes_copied": "count",
    "live.protocol.preamble_hit_ratio": "ratio",
    "live.server.ping_rtt_p50_us": "us",
    "live.server.rpcs_per_op": "count",
    "live.service.put_inproc_p50_us": "us",
    "live.service.get_inproc_p50_us": "us",
    "live.wire.self_us": "us",
    "live.engine.loop_lag_p99_ms": "ms",
    **{f"live.attr.{cat}_p50_us": "us" for cat in ATTR_CATEGORIES},
    "core.runtime.put_sim_us": "us",
    "core.runtime.get_sim_us": "us",
    "core.runtime.replica_writes_per_put": "count",
    "core.runtime.metadata_updates_per_put": "count",
    "core.runtime.stripe_encodes": "count",
    "core.runtime.parity_updates": "count",
    "core.runtime.degraded_reads": "count",
    "core.corec.demotions": "count",
    "core.corec.promotions": "count",
    "core.recovery.recovered_objects": "count",
    "core.recovery.recovered_parities": "count",
    "core.recovery.recovered_replicas": "count",
    "core.recovery.rebuild_MB_per_s": "MB/s",
    "staging.objects.digest_us": "us",
    "staging.metadata.entity_touches_per_op": "count",
    "staging.metadata.stripe_touches_per_op": "count",
    "staging.metadata.full_scans": "count",
    "erasure.encode_us": "us",
    "erasure.decode_us": "us",
    "erasure.reconstruct_us": "us",
    "erasure.encode_MB_per_s": "MB/s",
    "erasure.matmul_calls": "count",
    "erasure.decode_cache_hit_ratio": "ratio",
    "sim.engine.wall_us_per_block": "us",
    "sim.engine.sim_time_s": "s",
    "obs.tracing_overhead_ratio": "ratio",
    "host.calib_us": "us",
}


def _us(seconds) -> float:
    return statistics.median(seconds) * 1e6


def _probe(spans: Spans, name: str, fn, budget_s: float = 0.25, at_least: int = 20) -> list[float]:
    """Call ``fn`` repeatedly for ``budget_s``; one span and one duration per call."""
    durations = []
    t_stop = clock() + budget_s
    while len(durations) < at_least or clock() < t_stop:
        t0 = clock()
        fn()
        t1 = clock()
        spans.add(name, t0, t1, None, len(durations))
        durations.append(t1 - t0)
    return durations


def frame_roundtrip(spans: Spans, header: dict, payload, n: int = 200) -> list[float]:
    """Request frame (with payload) + response frame through an in-memory stream."""
    from repro.live.protocol import read_frame, write_frame

    response = {"ok": True, "duration": 0.001}

    async def go():
        reader = asyncio.StreamReader(limit=1 << 22)

        class Pipe:  # the StreamWriter surface write_frame uses
            def writelines(self, parts):
                for part in parts:
                    reader.feed_data(bytes(part))

            async def drain(self):
                pass

        pipe = Pipe()
        out = []
        for i in range(n):
            t0 = clock()
            await write_frame(pipe, header, payload)
            _, body = await read_frame(reader)
            await write_frame(pipe, response)
            await read_frame(reader)
            t1 = clock()
            if len(body) != len(payload):
                raise RuntimeError("frame round trip lost payload bytes")
            spans.add("live.protocol.frame_roundtrip", t0, t1, None, i)
            out.append(t1 - t0)
        return out

    loop = asyncio.new_event_loop()
    try:
        return loop.run_until_complete(go())
    finally:
        loop.close()


def byte_plane(spans: Spans, metrics: dict, block: np.ndarray, k: int = 3, m: int = 1) -> None:
    """Digest and RS(k, m) encode / decode / reconstruct at the workload's block size."""
    from repro.erasure.reedsolomon import RSCode
    from repro.staging.objects import payload_digest

    metrics["staging.objects.digest_us"] = _us(
        _probe(spans, "staging.objects.digest", lambda: payload_digest(block))
    )
    code = RSCode(k, m)
    rng = np.random.default_rng(0)
    data = [block] + [rng.integers(0, 256, size=block.size, dtype=np.uint8) for _ in range(k - 1)]
    parities = code.encode(data)
    survivors = {i: shard for i, shard in enumerate(data + parities) if i != 0}
    encode = _probe(spans, "erasure.encode", lambda: code.encode(data))
    metrics["erasure.encode_us"] = _us(encode)
    metrics["erasure.encode_MB_per_s"] = k * block.size / statistics.median(encode) / 1e6
    metrics["erasure.decode_us"] = _us(_probe(spans, "erasure.decode", lambda: code.decode(survivors)))
    metrics["erasure.reconstruct_us"] = _us(
        _probe(spans, "erasure.reconstruct", lambda: code.reconstruct_shard(survivors, 0))
    )
    if not np.array_equal(code.reconstruct_shard(survivors, 0), block):
        raise RuntimeError("RS reconstruct returned wrong bytes")


def counts(metrics: dict, lap, block_bytes: int, n_puts: int, n_ops: int) -> None:
    """Exact counts of one lap, from the service's own counters."""
    c = lap.counters
    metrics["core.runtime.replica_writes_per_put"] = c.get("replica_writes", 0.0) / n_puts
    metrics["core.runtime.metadata_updates_per_put"] = c.get("metadata_updates", 0.0) / n_puts
    metrics["core.runtime.stripe_encodes"] = c.get("stripe_encodes", 0.0)
    metrics["core.runtime.parity_updates"] = c.get("parity_updates", 0.0)
    metrics["core.runtime.degraded_reads"] = c.get("degraded_reads", 0.0)
    metrics["core.corec.demotions"] = c.get("demotions_scheduled", 0.0)
    metrics["core.corec.promotions"] = c.get("promotions_scheduled", 0.0)
    rebuilt = 0.0
    for kind in ("objects", "parities", "replicas"):
        metrics[f"core.recovery.recovered_{kind}"] = c.get(f"recovered_{kind}", 0.0)
        rebuilt += c.get(f"recovered_{kind}", 0.0)
    metrics["core.recovery.rebuild_MB_per_s"] = rebuilt * block_bytes / sum(lap.recover) / 1e6
    metrics["staging.metadata.entity_touches_per_op"] = c["directory.entity_touches"] / n_ops
    metrics["staging.metadata.stripe_touches_per_op"] = c["directory.stripe_touches"] / n_ops
    metrics["staging.metadata.full_scans"] = c["directory.full_scans"]
    lookups = c["decode_cache_hits"] + c["decode_cache_misses"]
    metrics["erasure.decode_cache_hit_ratio"] = c["decode_cache_hits"] / lookups if lookups else 0.0


def live_layers(args, spans: Spans, metrics: dict) -> list:
    from repro.erasure.gf256 import GF256
    from repro.live.protocol import PROTO_STATS
    from repro.util.stats import percentile
    from tape import LIVE_SPECS, SMOKE_SPECS, VAR, build_tape

    tape = build_tape((SMOKE_SPECS if args.smoke else LIVE_SPECS)[args.workload], args.seed)
    print(f"tape {args.workload} seed {args.seed}: sha256 {tape.sha256}")
    n_puts = sum(1 for kind, _, _ in tape.warmup + tape.ops if kind == "put")
    n_ops = sum(1 for kind, _, _ in tape.warmup + tape.ops if kind in ("put", "get"))

    # live.server: wire + dispatch with no service work behind it.
    target = TcpTarget(tape)
    try:
        pings = _probe(spans, "live.server.ping", target.client.ping, at_least=500)
    finally:
        target.close()
    metrics["live.server.ping_rtt_p50_us"] = _us(pings)

    # client: the end-to-end lap, untraced; its counts are the workload's counts.
    proto0, matmul0 = PROTO_STATS.snapshot(), GF256.KERNEL_STATS["matmul_calls"]
    tcp = run_lap(lambda: TcpTarget(tape), tape, spans)
    proto = {k: v - proto0[k] for k, v in PROTO_STATS.snapshot().items()}
    metrics["erasure.matmul_calls"] = float(GF256.KERNEL_STATS["matmul_calls"] - matmul0)
    metrics["client.put_p99_us"] = percentile(tcp.put, 99) * 1e6
    metrics["client.get_p99_us"] = percentile(tcp.get, 99) * 1e6
    eighth = len(tcp.put) // 8
    segments = [statistics.fmean(tcp.put[i * eighth:(i + 1) * eighth]) for i in range(8)]
    metrics["client.segment_rate_spread"] = max(segments) / min(segments)
    metrics["live.protocol.frames_per_op"] = (proto["frames_out"] + proto["frames_in"]) / n_ops
    metrics["live.protocol.payload_copies"] = float(proto["payload_copies"])
    metrics["live.protocol.bytes_copied"] = float(proto["bytes_copied"])
    # Client and server share this process: half the frames sent are requests.
    metrics["live.protocol.preamble_hit_ratio"] = proto["preamble_hits"] / (proto["frames_out"] / 2)
    if proto["payload_copies"] or proto["bytes_copied"]:
        tcp.fail(f"{proto['payload_copies']} payload copies on the wire path")
    counts(metrics, tcp, tape.block_bytes, n_puts, n_ops)

    # obs: the same lap with the repo's tracing on, server and client.
    made = []

    def traced_target():
        made.append(TcpTarget(tape, tracing=True))
        return made[0]

    traced = run_lap(traced_target, tape, audit=False)
    metrics["obs.tracing_overhead_ratio"] = statistics.median(traced.put) / statistics.median(tcp.put)
    for cat in ATTR_CATEGORIES:
        metrics[f"live.attr.{cat}_p50_us"] = _us([a.get(cat, 0.0) for a in made[0].put_attrs])
    registry = made[0].service.metrics.registry  # the server has stopped: safe to read
    metrics["live.engine.loop_lag_p99_ms"] = registry.histogram("live.loop.lag_s").quantile(0.99) * 1e3
    rpcs = sum(n for name, n in registry.counters().items() if name.startswith("live.rpc."))
    metrics["live.server.rpcs_per_op"] = rpcs / n_ops

    # live.service / core.runtime: the same tape with the wire, then asyncio, removed.
    inproc = run_lap(lambda: InprocTarget(tape), tape, spans, audit=False)
    sim = run_lap(lambda: SimTarget(tape), tape, spans, audit=False)
    metrics["live.service.put_inproc_p50_us"] = _us(inproc.put)
    metrics["live.service.get_inproc_p50_us"] = _us(inproc.get)
    metrics["live.wire.self_us"] = _us(tcp.put) - _us(inproc.put)
    metrics["core.runtime.put_sim_us"] = _us(sim.put)
    metrics["core.runtime.get_sim_us"] = _us(sim.get)

    lb, ub = tape.boxes[0]
    header = {"op": "put", "client": "bench", "var": VAR, "lb": list(lb), "ub": list(ub),
              "dtype": "uint8"}
    metrics["live.protocol.frame_roundtrip_us"] = _us(
        frame_roundtrip(spans, header, memoryview(tape.pool[0]))
    )
    byte_plane(spans, metrics, tape.pool[0])
    return [tcp, traced, inproc, sim]


def sim_layers(args, spans: Spans, metrics: dict) -> list:
    import simwl
    from repro.erasure.gf256 import GF256

    spec = simwl.SIM_SMOKE if args.smoke else simwl.SIM_SPEC
    matmul0 = GF256.KERNEL_STATS["matmul_calls"]
    lap = simwl.run_lap(args.seed, spec, spans)
    metrics["erasure.matmul_calls"] = float(GF256.KERNEL_STATS["matmul_calls"] - matmul0)
    traced = simwl.run_lap(args.seed, spec, tracing=True)
    block_bytes = lap.bytes_moved // lap.attempted
    n_puts = int(lap.counters["blocks"]) * spec.steps
    counts(metrics, lap, block_bytes, n_puts, n_puts + len(lap.get + lap.degraded) * int(lap.counters["blocks"]))
    metrics["core.runtime.put_sim_us"] = _us(lap.put)
    metrics["core.runtime.get_sim_us"] = _us(lap.get)
    metrics["sim.engine.wall_us_per_block"] = lap.window_s / lap.attempted * 1e6
    metrics["sim.engine.sim_time_s"] = lap.counters["sim_time_s"]
    metrics["obs.tracing_overhead_ratio"] = statistics.median(traced.put) / statistics.median(lap.put)
    block = np.random.default_rng(args.seed).integers(0, 256, size=block_bytes, dtype=np.uint8)
    byte_plane(spans, metrics, block)
    return [lap, traced]


def measure(args, out_dir: str):
    spans = Spans()
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    # The reference unit of Lap.speed, raw: tells host drift from a code change.
    metrics["host.calib_us"] = _us(_probe(spans, "host.calib", calib_unit))
    laps = (sim_layers if args.workload == "sim_s3d" else live_layers)(args, spans, metrics)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "trace.jsonl"), "w", encoding="utf-8") as fh:
        for row in spans.dicts():
            fh.write(json.dumps(row) + "\n")
    print(f"{len(spans.rows)} spans -> {os.path.join(out_dir, 'trace.jsonl')}")
    return laps, {name: (metrics[name], unit) for name, unit in PER_LAYER.items()}
