"""Command-line interface: run experiments without writing a script.

Usage::

    python -m repro run-case --case case1 --policy corec --timesteps 20
    python -m repro run-s3d --scale 0 --policy corec --shrink 8
    python -m repro model --s 0.67 --miss 0.2
    python -m repro run-case --case case5 --policy corec \
        --fail 4:0 --replace 8:0
    python -m repro trace --case case1 --policy corec --out traces/
    python -m repro report --trace traces/spans.jsonl
    python -m repro scale --servers 4 8 16
    python -m repro load --process poisson --rate 50 --duration 2 \
        --shards 2 --capture run.tape.jsonl
    python -m repro replay --tape run.tape.jsonl --backend cluster --shards 2

``--fail STEP:SERVER`` / ``--replace STEP:SERVER`` inject the paper's
Figure-10-style failure schedules.  ``trace`` runs with hierarchical span
tracing enabled and exports Perfetto-loadable ``trace.json`` plus JSONL
span/event dumps and metrics snapshots (see docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import closing


def _policy(args: argparse.Namespace):
    """Fresh policy from the shared --policy/--storage-bound/--seed flags."""
    from repro.core.policies import bounded_spec, policy_from_spec

    return policy_from_spec(bounded_spec(args.policy, args.storage_bound), seed=args.seed)


def _parse_plan(fails: list[str], replaces: list[str]) -> dict:
    plan: dict[int, list[tuple[str, int]]] = {}
    for action, items in (("fail", fails), ("replace", replaces)):
        for item in items:
            step_s, _, sid_s = item.partition(":")
            plan.setdefault(int(step_s), []).append((action, int(sid_s)))
    return plan


def _build_case(args: argparse.Namespace, tracing: bool = False):
    """One synthetic Table-I case: service + workload, ready to run."""
    from repro import StagingConfig, StagingService
    from repro.workloads.synthetic import SyntheticWorkload, SyntheticWorkloadConfig

    service = StagingService(
        StagingConfig(
            n_servers=args.servers,
            domain_shape=tuple(args.domain),
            element_bytes=args.element_bytes,
            object_max_bytes=args.object_bytes,
            async_protection=args.async_protection,
            tracing=tracing,
            seed=args.seed,
        ),
        _policy(args),
    )
    workload = SyntheticWorkload(
        service,
        SyntheticWorkloadConfig(
            case=args.case,
            n_writers=args.writers,
            n_readers=args.readers,
            timesteps=args.timesteps,
            failure_plan=_parse_plan(args.fail, args.replace),
            seed=args.seed,
        ),
    )
    return service, workload


def cmd_run_case(args: argparse.Namespace) -> int:
    service, workload = _build_case(args)
    service.run_workflow(workload.run())
    service.run()
    out = {
        "case": args.case,
        "policy": args.policy,
        **service.metrics.snapshot(),
        "read_errors": service.read_errors,
        "step_put_ms": [v * 1e3 for v in workload.step_put.values],
        "step_get_ms": [v * 1e3 for v in workload.step_get.values],
    }
    _emit(out, args)
    return 0 if service.read_errors == 0 else 1


def cmd_trace(args: argparse.Namespace) -> int:
    """Run one traced case and export Chrome-trace / JSONL / metrics files."""
    from repro.obs.export import spans_to_breakdown, write_trace_dir

    service, workload = _build_case(args, tracing=True)
    service.run_workflow(workload.run())
    service.run()
    tracer = service.tracer
    artifacts = write_trace_dir(
        args.out, tracer, service.log, service.metrics,
        process_name=f"repro-{args.case}-{args.policy}",
    )
    # Cross-check: summed leaf-span costs must reproduce Metrics.breakdown.
    recon = spans_to_breakdown(tracer.spans)
    breakdown = service.metrics.breakdown
    drift = max(
        (abs(recon.get(c, 0.0) - v) for c, v in breakdown.items()), default=0.0
    )
    out = {
        "case": args.case,
        "policy": args.policy,
        "spans": len(tracer.spans),
        "root_spans": len(tracer.roots()),
        "events": len(service.log),
        "events_dropped": service.log.dropped,
        "breakdown_max_drift_s": drift,
        "read_errors": service.read_errors,
        "artifacts": artifacts,
    }
    _emit(out, args)
    if drift > 1e-6:
        print(f"warning: trace/breakdown drift {drift:.3e}s exceeds 1e-6s", file=sys.stderr)
        return 1
    return 0 if service.read_errors == 0 else 1


def cmd_run_s3d(args: argparse.Namespace) -> int:
    from repro import StagingConfig, StagingService
    from repro.workloads.s3d import S3DConfig, S3DWorkload

    cfg = S3DConfig(
        scale_index=args.scale,
        shrink=args.shrink,
        per_core_subdomain=args.subdomain,
        timesteps=args.timesteps,
        analysis_every=args.analysis_every,
        failure_plan=_parse_plan(args.fail, args.replace),
    )
    service = StagingService(
        StagingConfig(
            n_servers=max(4, cfg.n_staging),
            domain_shape=cfg.domain_shape,
            element_bytes=cfg.element_bytes,
            object_max_bytes=args.object_bytes,
            nodes_per_cabinet=1,
            async_protection=args.async_protection,
            seed=args.seed,
        ),
        _policy(args),
    )
    workload = S3DWorkload(service, cfg)
    service.run_workflow(workload.run())
    service.run()
    out = {
        "scale_index": args.scale,
        "writers": cfg.n_writers,
        "staging": cfg.n_staging,
        "policy": args.policy,
        "cumulative_write_s": workload.cumulative_write_s,
        "cumulative_read_s": workload.cumulative_read_s,
        **service.metrics.snapshot(),
        "read_errors": service.read_errors,
    }
    _emit(out, args)
    return 0 if service.read_errors == 0 else 1


def cmd_durability(args: argparse.Namespace) -> int:
    from repro.core.durability import (
        DurabilityParams,
        annual_loss_probability,
        group_mttdl,
        recovery_deadline_tradeoff,
    )

    p = DurabilityParams(
        mtbf_s=args.mtbf,
        mttr_s=args.mttr,
        group_size=args.group_size,
        tolerance=args.tolerance,
    )
    out = {
        "group_mttdl_s": group_mttdl(p),
        "annual_loss_probability": annual_loss_probability(p, args.groups),
        "deadline_sweep": recovery_deadline_tradeoff(
            args.mtbf, args.group_size, args.tolerance
        ),
    }
    _emit(out, args)
    return 0


def _events_dropped_nearby(path: str) -> int | None:
    """Read ``eventlog.dropped`` from a metrics.json next to ``path``."""
    metrics_path = os.path.join(os.path.dirname(os.path.abspath(path)), "metrics.json")
    try:
        with open(metrics_path, encoding="utf-8") as fh:
            registry = json.load(fh).get("registry", {})
    except (OSError, ValueError):
        return None
    dropped = registry.get("eventlog.dropped")
    return int(dropped) if dropped is not None else None


def _span_table(rows: list[dict]) -> None:
    header = f"{'span':<22} {'n':>7} {'total_s':>10} {'p50_s':>10} {'p95_s':>10} {'p99_s':>10} {'max_s':>10}"
    print(header)
    print("-" * len(header))
    for r in rows:
        print(
            f"{r['name']:<22} {r['n']:>7} {r['total']:>10.4f} {r['p50']:>10.6f} "
            f"{r['p95']:>10.6f} {r['p99']:>10.6f} {r['max']:>10.6f}"
        )


def _report_spans(spans_path: str, args: argparse.Namespace) -> int:
    """Summary of a ``spans.jsonl`` dump (simulated or wall-clock).

    Per-span-name duration percentiles; for a live trace also the
    request / distinct-trace counts and the per-category latency
    attribution aggregated from the dispatch spans' ``breakdown`` attrs.
    ``metrics.json`` in the same directory contributes the dropped-event
    count.
    """
    from repro.obs.export import span_summary

    with open(spans_path, encoding="utf-8") as fh:
        summary = span_summary(json.loads(line) for line in fh if line.strip())
    dropped = summary["events_dropped"] = _events_dropped_nearby(spans_path)
    if args.json:
        _emit(summary, args)
        return 0
    dropped_line = f"events dropped: {dropped}\n" if dropped is not None else ""
    if summary["traces"]:
        # A wall-clock trace leads with its trace / request counts.
        print(f"{summary['spans']} spans in {summary['traces']} traces, "
              f"{summary['requests']} attributed requests")
        print(dropped_line, end="")
        print()
    _span_table(summary["by_span"])
    if not summary["traces"]:
        print(dropped_line, end="")
    if summary["attribution"]:
        print()
        print("latency attribution (per request, seconds):")
        _span_table(summary["attribution"])
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis import ascii_bars, ascii_series, list_results, load_results

    if args.live_trace:
        return _report_spans(os.path.join(args.live_trace, "spans.jsonl"), args)
    if args.trace:
        return _report_spans(args.trace, args)
    if args.list:
        for name in list_results(args.results_dir):
            print(name)
        return 0
    if not args.name:
        print("pick a result with --name (see --list)", file=sys.stderr)
        return 2
    payload = load_results(args.name, args.results_dir)
    if args.json:
        json.dump(payload, sys.stdout, indent=2, default=float)
        print()
        return 0
    # Heuristic rendering: dict of per-name series -> line plot; list of
    # rows with a numeric column -> bars; otherwise pretty-print.
    if isinstance(payload, dict) and all(
        isinstance(v, list) and v and isinstance(v[0], (int, float))
        for v in payload.values()
    ):
        print(ascii_series(payload, title=args.name))
        return 0
    if isinstance(payload, list) and payload and isinstance(payload[0], dict):
        numeric = [
            k for k, v in payload[0].items() if isinstance(v, (int, float)) and k != "read_errors"
        ]
        if numeric and "policy" in payload[0]:
            key = numeric[0]
            print(ascii_bars({r["policy"]: r[key] for r in payload}, title=f"{args.name}: {key}"))
            return 0
    json.dump(payload, sys.stdout, indent=2, default=float)
    print()
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Run seed-reproducible fault campaigns with invariant checking.

    Exit status: 0 when every campaign passed, 1 when any invariant was
    violated (the failing campaign's schedule is shrunk and, with --out,
    its trace artifacts are dumped).
    """
    from repro.chaos import ChaosConfig, run_campaign

    modes = ["scheduled", "stochastic", "cabinet"] if args.mode == "all" else [args.mode]
    results = []
    failed = False
    for mode in modes:
        for i in range(args.campaigns):
            cfg = ChaosConfig(
                mode=mode,
                policy=args.policy,
                seed=args.seed + i,
                n_servers=args.servers,
                timesteps=args.timesteps,
                object_bytes=args.object_bytes,
                n_failures=args.failures,
                storage_bound=args.storage_bound,
                shrink=not args.no_shrink,
                out_dir=args.out,
            )
            result = run_campaign(cfg)
            results.append({"policy": args.policy, **result.summary()})
            if not result.passed:
                failed = True
    _emit({"campaigns": results} if len(results) > 1 else results[0], args)
    return 1 if failed else 0


def cmd_dataloss(args: argparse.Namespace) -> int:
    """Correlated-cabinet data-loss campaign: spread vs CodingSets placement.

    Exit status: 0 when CodingSets reduces stripe-kill events by at least
    ``--min-ratio`` (default 2x), 1 otherwise — so CI can gate on the
    placement actually paying off.
    """
    from repro.chaos import DataLossConfig, run_dataloss_campaign

    cfg = DataLossConfig(
        seed=args.seed,
        n_servers=args.servers,
        nodes_per_cabinet=args.nodes_per_cabinet,
        n_variables=args.variables,
        object_bytes=args.object_bytes,
        max_coding_sets=args.max_coding_sets,
        inject=not args.no_inject,
    )
    payload = run_dataloss_campaign(cfg)
    comparison = payload["comparisons"]["spread_vs_coding_sets"]
    if args.json:
        _emit(payload, args)
    else:
        for name, res in payload["placements"].items():
            print(
                f"{name:12s} stripes={res['stripes_total']} "
                f"kill_events={res['stripe_kill_events']} "
                f"p(kill|cabinet)={res['kill_probability']:.4f}"
            )
            inj = res.get("injected")
            if inj:
                print(
                    f"{'':12s} injected cabinet {inj['cabinet']}: "
                    f"{len(inj['unrecoverable'])} unrecoverable, "
                    f"{len(inj['unexplained_losses'])} unexplained"
                )
        print(f"loss ratio (spread/coding_sets): {comparison['loss_ratio']:.1f}")
        print(f"fingerprint: {payload['fingerprint']}")
    if comparison["loss_ratio"] < args.min_ratio:
        print(
            f"FAIL: loss ratio {comparison['loss_ratio']:.2f} "
            f"below required {args.min_ratio:.2f}",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_scale(args: argparse.Namespace) -> int:
    """Weak-scaling sweep of the failure paths with operation-count bounds.

    Exit status: 0 when directory touches per failure stay proportional to
    the failed server's share across the sweep, 1 when any complexity
    bound (or quiescent invariant) is violated.
    """
    from repro.scaling import SWEEP_SERVERS, ScalingConfig, check_bounds, run_scale

    cfg = ScalingConfig(
        servers=tuple(args.servers) if args.servers else SWEEP_SERVERS,
        blocks_per_server=args.blocks_per_server,
        timesteps=args.timesteps,
        seed=args.seed,
    )
    rows = [run_scale(cfg, n) for n in cfg.servers]
    problems = [] if args.no_assert else check_bounds(rows)
    _emit({"sweep": rows, "bound_violations": problems}, args)
    if problems and not args.json:
        for p in problems:
            print(f"BOUND VIOLATED: {p}", file=sys.stderr)
    return 1 if problems else 0


def _export_live(args: argparse.Namespace, live) -> dict[str, str]:
    """``--trace-dir``: a stopped live service's artifacts, wall-clock labeled."""
    from repro.obs.export import write_trace_dir

    return write_trace_dir(
        args.trace_dir, live.tracer, live.service.log, live.service.metrics,
        process_name="repro-live", clock="wall-clock seconds",
    )


def _smoke(cli, domain: tuple[int, ...]) -> dict:
    """The ``live --smoke`` workload against a connected (routing) client.

    Whole-domain puts and gets (cross-shard on a cluster), step/flush
    broadcasts, then the full read audit and the quiescent invariant
    sweep — on every shard when ``cli`` routes.
    """
    for _ in range(3):
        for v in range(2):
            cli.put(f"var{v}", (0, 0, 0), domain)
        cli.step()
    _, blocks = cli.get("var0", (0, 0, 0), domain)
    cli.flush()
    cli.quiesce()
    audit = cli.verify()
    violations = cli.invariants()
    return {
        "blocks_read": len(blocks),
        **cli.stats(),
        "unrecoverable": audit["unrecoverable"],
        "invariant_violations": violations,
    }


def _emit_smoke(out: dict, args: argparse.Namespace) -> int:
    _emit(out, args)
    return 0 if not out["unrecoverable"] and not out["invariant_violations"] else 1


def cmd_live(args: argparse.Namespace) -> int:
    """Serve the live (wall-clock, concurrent) staging backend over TCP.

    Default mode serves in the foreground until a ``shutdown`` frame or
    Ctrl-C.  ``--smoke`` instead runs the server on a background thread,
    drives a small client workload through the real socket path, prints
    the resulting stats and exits — the self-contained health check CI
    runs on every push.  ``--trace-dir DIR`` turns on wall-clock tracing
    and exports the span tree, event log, metrics snapshot and a
    Prometheus text dump to ``DIR`` on exit (both modes).
    """
    from repro import StagingConfig

    config = StagingConfig(
        n_servers=args.servers,
        domain_shape=tuple(args.domain),
        element_bytes=args.element_bytes,
        object_max_bytes=args.object_bytes,
        async_protection=args.async_protection,
        seed=args.seed,
    )
    tracing = bool(args.trace_dir)

    if args.shards > 1:
        return _cmd_live_cluster(args, config)

    if args.smoke:
        from repro.live import LiveClient, serve_in_thread

        handle = serve_in_thread(
            config, lambda: _policy(args), host=args.host, port=args.port,
            time_scale=args.time_scale, tracing=tracing,
        )
        try:
            # Sharing the server's tracer puts the in-process client's
            # rpc spans and the server's dispatch spans in one exported
            # span list — each request reads as one linked trace.
            tracer = handle.live.tracer if tracing else None
            with LiveClient(
                handle.host, handle.port, name="smoke", tracer=tracer
            ) as cli:
                out = {
                    "host": handle.host,
                    "port": handle.port,
                    **_smoke(cli, tuple(args.domain)),
                }
        finally:
            handle.stop()
        if tracing:
            out["spans"] = len(handle.live.tracer.spans)
            out["artifacts"] = _export_live(args, handle.live)
        return _emit_smoke(out, args)

    import asyncio

    from repro.live import LiveServer, LiveStagingService

    box: dict = {}

    async def serve() -> None:
        live = LiveStagingService(
            config, _policy(args), time_scale=args.time_scale,
            max_workers=args.workers, tracing=tracing,
        )
        box["live"] = live
        server = LiveServer(live)
        host, port = await server.start(args.host, args.port)
        print(f"live staging server on {host}:{port} "
              f"({args.servers} servers, policy={args.policy})", file=sys.stderr)
        await server.serve_until_shutdown()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    if tracing and "live" in box:
        artifacts = _export_live(args, box["live"])
        print(f"trace artifacts in {args.trace_dir}: "
              f"{', '.join(sorted(artifacts))}", file=sys.stderr)
    return 0


def _cmd_live_cluster(args: argparse.Namespace, config) -> int:
    """``repro live --shards N``: the sharded multi-process deployment.

    One OS process per coding-group shard; clients route block ops by
    primary placement.  ``--smoke`` drives the smoke workload through a
    routing client and exits — the CI health check for the cluster path.
    Foreground mode prints each shard's endpoint and serves until Ctrl-C.
    """
    from repro.core.policies import bounded_spec
    from repro.live.cluster import LiveCluster

    if args.policy not in ("replicate", "corec"):
        print(
            f"--shards requires a process-shippable policy "
            f"(replicate or corec), not {args.policy!r}",
            file=sys.stderr,
        )
        return 2
    if args.trace_dir:
        print("--trace-dir is per-process; ignored with --shards > 1", file=sys.stderr)
    pspec = bounded_spec(args.policy, args.storage_bound)
    if args.policy == "corec":
        # Group-scoped enforcement is the only storage-bound scope a
        # sharded deployment can evaluate (each shard sees its groups).
        pspec[1]["enforcement_scope"] = "group"

    cluster = LiveCluster(
        config, pspec, args.shards,
        time_scale=args.time_scale, max_workers=args.workers, host=args.host,
    )
    if args.smoke:
        with cluster, cluster.client(name="smoke") as cli:
            out = {
                "endpoints": [list(ep) for ep in cluster.endpoints],
                **_smoke(cli, tuple(args.domain)),
            }
        return _emit_smoke(out, args)

    for shard, (host, port) in enumerate(cluster.endpoints):
        print(
            f"live staging shard {shard} on {host}:{port} "
            f"(servers {cluster.plan.shard_servers(shard)}, policy={args.policy})",
            file=sys.stderr,
        )
    try:
        for proc in cluster.processes:
            if proc is not None:
                proc.join()
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    finally:
        cluster.stop()
    return 0


def _load_config(args: argparse.Namespace):
    """Deployment config for the load/replay verbs (conformance-sized)."""
    from repro import StagingConfig

    return StagingConfig(
        n_servers=args.servers,
        domain_shape=tuple(args.domain),
        element_bytes=1,
        object_max_bytes=args.object_bytes,
        seed=args.seed,
    )


def _load_policy_spec(args: argparse.Namespace) -> tuple[str, dict]:
    """Process-shippable policy spec shared by every load/replay backend.

    The differential-conformance discipline (``replay_spec``: promotions
    off) plus group-scoped enforcement (the only scope a sharded
    deployment can evaluate), so captures and replays stay comparable
    across backends.
    """
    from repro.core.policies import replay_spec

    if args.policy == "replicate":
        return replay_spec("replicate")
    return replay_spec(
        "corec", storage_bound=args.storage_bound, enforcement_scope="group"
    )


def _open_backend(args: argparse.Namespace, backend: str, config, pspec):
    """``open_target`` fed from the load/replay verbs' shared flags."""
    from repro.workloads.load import open_target

    kwargs = {
        "sim": {},
        "live": {"host": args.host, "port": args.port},
        "cluster": {"host": args.host, "n_shards": args.shards},
    }[backend]
    return open_target(backend, config, pspec, **kwargs)


def _backend_label(args: argparse.Namespace, backend: str) -> str:
    return f"cluster-{args.shards}" if backend == "cluster" else backend


def cmd_load(args: argparse.Namespace) -> int:
    """Open-loop load generation against a live or sharded backend.

    Seeded arrivals (constant/poisson/hotspot/diurnal/flash-crowd) drive
    ``--flows`` concurrent clients; per-op latencies land in a metrics
    registry and the p99/error-rate SLO gate decides the exit code.
    ``--capture PATH`` records the run as a replayable JSONL tape.
    """
    from repro.staging.service import build_geometry
    from repro.workloads.capture import Tape, config_meta
    from repro.workloads.load import SLO, LoadSpec, run_load

    config = _load_config(args)
    pspec = _load_policy_spec(args)
    _, domain, _, _ = build_geometry(config)
    spec = LoadSpec(
        process=args.process,
        rate=args.rate,
        duration=args.duration,
        flows=args.flows,
        n_vars=args.vars,
        n_blocks=args.blocks,
        read_fraction=args.read_fraction,
        seed=args.seed,
    )
    slo = SLO(
        put_p99_ms=args.slo_put_p99,
        get_p99_ms=args.slo_get_p99,
        max_error_rate=args.max_error_rate,
    )
    tape = Tape() if args.capture else None
    backend = "cluster" if args.shards > 1 else "live"

    with _open_backend(args, backend, config, pspec) as connect:
        report = run_load(
            connect, spec, domain=domain, slo=slo,
            enforce_slo=not args.report_only, capture_tape=tape,
        )
        if tape is not None:
            with closing(connect("control")) as control:
                control.flush()
                control.quiesce()
            tape.meta["load_spec"] = {
                "process": spec.process, "rate": spec.rate,
                "duration": spec.duration, "flows": spec.flows,
                "seed": spec.seed,
            }
            tape.meta["config"] = config_meta(config)
            tape.meta["policy"] = [pspec[0], dict(pspec[1])]
            # No projection_sha256 on load tapes: a streamed (unquiesced)
            # capture's background batching — stripe formation groups
            # whatever is pending when the encoder runs — depends on
            # arrival timing, so the quiescent state is not a replay
            # invariant.  Projection-grade tapes come from the serial
            # per-op-quiesced capture in benchmarks/bench_load.py.
            tape.save(args.capture)
    out = report.to_json()
    out["backend"] = _backend_label(args, backend)
    if tape is not None:
        out["tape"] = args.capture
        out["tape_ops"] = len(tape)
    _emit(out, args)
    return 0 if out["slo_gate"] in ("pass", "report-only", "not-evaluated") else 1


def cmd_replay(args: argparse.Namespace) -> int:
    """Replay a captured tape against any backend with equivalence checks.

    The tape's own config/policy meta rebuilds the deployment; read
    digests (and the recorded quiescent projection, when present) are
    compared byte-for-byte against the recording.  Exit code 1 on any
    mismatch.
    """
    from repro.workloads.capture import Tape
    from repro.workloads.load import replay_tape

    try:
        tape = Tape.load(args.tape)
        deployment = tape.deployment()
    except ValueError as exc:
        print(f"{args.tape}: {exc}", file=sys.stderr)
        return 2
    amplify = {}
    for item in args.amplify:
        flow, _, count = item.partition("=")
        amplify[flow] = int(count)

    with _open_backend(args, args.backend, *deployment) as connect:
        with closing(connect("replay")) as client:
            report = replay_tape(
                tape, client, speedup=args.speedup or None, amplify=amplify or None,
                check_digests=not args.no_check,
            )
    out = report.to_json()
    out["backend"] = _backend_label(args, args.backend)
    out["tape"] = args.tape
    _emit(out, args)
    return 0 if out["ok"] else 1


def cmd_model(args: argparse.Namespace) -> int:
    from repro.core.model import CoRECModel, ModelParams

    model = CoRECModel(ModelParams(n_level=args.n_level, n_node=args.n_node))
    series = model.fig4_series(miss_ratios=tuple(args.miss), s=args.s, n_points=args.points)
    out = {
        "p_r_star": series["p_r_star"],
        "E_r": model.E_r,
        "E_e": model.E_e,
        "curves": {
            k: (v.tolist() if hasattr(v, "tolist") else v) for k, v in series.items()
        },
    }
    _emit(out, args)
    return 0


def _emit(payload: dict, args: argparse.Namespace) -> None:
    if args.json:
        json.dump(payload, sys.stdout, indent=2, default=float)
        print()
        return
    for key, value in payload.items():
        if isinstance(value, dict):
            print(f"{key}:")
            for k, v in value.items():
                print(f"  {k}: {v}")
        elif isinstance(value, list) and len(value) > 8:
            head = ", ".join(f"{v:.3f}" if isinstance(v, float) else str(v) for v in value[:8])
            print(f"{key}: [{head}, ... {len(value)} values]")
        else:
            print(f"{key}: {value}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="CoREC reproduction experiment runner"
    )
    parser.add_argument("--json", action="store_true", help="emit JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--policy", default="corec",
                       choices=["none", "replicate", "erasure", "hybrid", "corec"])
        p.add_argument("--storage-bound", type=float, default=0.67)
        p.add_argument("--timesteps", type=int, default=20)
        p.add_argument("--object-bytes", type=int, default=4096)
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--async-protection", action="store_true")
        p.add_argument("--fail", action="append", default=[], metavar="STEP:SERVER")
        p.add_argument("--replace", action="append", default=[], metavar="STEP:SERVER")

    def synthetic_case(p):
        common(p)
        p.add_argument("--case", default="case1",
                       choices=["case1", "case2", "case3", "case4", "case5"])
        p.add_argument("--writers", type=int, default=64)
        p.add_argument("--readers", type=int, default=32)
        p.add_argument("--servers", type=int, default=8)
        p.add_argument("--domain", type=int, nargs=3, default=[64, 64, 64])
        p.add_argument("--element-bytes", type=int, default=1)

    p_case = sub.add_parser("run-case", help="run a synthetic Table-I case")
    synthetic_case(p_case)
    p_case.set_defaults(func=cmd_run_case)

    p_trace = sub.add_parser(
        "trace", help="run a traced synthetic case and export trace artifacts"
    )
    synthetic_case(p_trace)
    p_trace.add_argument("--out", default="trace-out",
                         help="directory for trace.json / spans.jsonl / "
                              "events.jsonl / metrics.json / metrics.prom")
    p_trace.set_defaults(func=cmd_trace)

    p_s3d = sub.add_parser("run-s3d", help="run the S3D workflow (Table II)")
    common(p_s3d)
    p_s3d.add_argument("--scale", type=int, default=0, choices=[0, 1, 2])
    p_s3d.add_argument("--shrink", type=int, default=8)
    p_s3d.add_argument("--subdomain", type=int, default=16)
    p_s3d.add_argument("--analysis-every", type=int, default=2)
    p_s3d.set_defaults(func=cmd_run_s3d)

    p_dur = sub.add_parser("durability", help="MTTDL / loss-probability analysis")
    p_dur.add_argument("--mtbf", type=float, default=400 * 3600.0)
    p_dur.add_argument("--mttr", type=float, default=3600.0)
    p_dur.add_argument("--group-size", type=int, default=4)
    p_dur.add_argument("--tolerance", type=int, default=1)
    p_dur.add_argument("--groups", type=int, default=1)
    p_dur.set_defaults(func=cmd_durability)

    p_report = sub.add_parser("report", help="render stored benchmark results")
    p_report.add_argument("--name", default="")
    p_report.add_argument("--list", action="store_true")
    p_report.add_argument("--results-dir", default=None)
    p_report.add_argument("--trace", default="",
                          help="summarize a spans.jsonl dump instead of a stored result")
    p_report.add_argument("--live-trace", default="", metavar="DIR",
                          help="the same summary for DIR/spans.jsonl (a live trace "
                               "adds trace counts and latency attribution)")
    p_report.set_defaults(func=cmd_report)

    p_chaos = sub.add_parser(
        "chaos", help="run fault campaigns with invariant checking"
    )
    p_chaos.add_argument("--mode", default="all",
                         choices=["scheduled", "stochastic", "cabinet", "all"])
    p_chaos.add_argument("--policy", default="corec",
                         choices=["replicate", "erasure", "hybrid", "corec"])
    p_chaos.add_argument("--seed", type=int, default=0)
    p_chaos.add_argument("--campaigns", type=int, default=1,
                         help="campaigns per mode (seeds seed..seed+N-1)")
    p_chaos.add_argument("--servers", type=int, default=8)
    p_chaos.add_argument("--timesteps", type=int, default=4)
    p_chaos.add_argument("--object-bytes", type=int, default=4096)
    p_chaos.add_argument("--failures", type=int, default=3)
    p_chaos.add_argument("--storage-bound", type=float, default=0.67)
    p_chaos.add_argument("--no-shrink", action="store_true",
                         help="skip minimizing a failing schedule")
    p_chaos.add_argument("--out", default=None,
                         help="directory for trace/schedule dumps of a failing campaign")
    p_chaos.set_defaults(func=cmd_chaos)

    p_loss = sub.add_parser(
        "dataloss", help="correlated-cabinet loss: spread vs CodingSets placement"
    )
    p_loss.add_argument("--seed", type=int, default=0)
    p_loss.add_argument("--servers", type=int, default=16)
    p_loss.add_argument("--nodes-per-cabinet", type=int, default=2)
    p_loss.add_argument("--variables", type=int, default=3)
    p_loss.add_argument("--object-bytes", type=int, default=4096)
    p_loss.add_argument("--max-coding-sets", type=int, default=2)
    p_loss.add_argument("--min-ratio", type=float, default=2.0,
                        help="required spread/coding_sets stripe-kill ratio")
    p_loss.add_argument("--no-inject", action="store_true",
                        help="static sweep only; skip the real cabinet kill")
    p_loss.set_defaults(func=cmd_dataloss)

    p_scale = sub.add_parser(
        "scale", help="weak-scaling sweep of the failure paths (4 -> 64 servers)"
    )
    p_scale.add_argument("--servers", type=int, nargs="*", default=None,
                         help="server counts to sweep (each divisible by 4)")
    p_scale.add_argument("--blocks-per-server", type=int, default=8)
    p_scale.add_argument("--timesteps", type=int, default=3)
    p_scale.add_argument("--seed", type=int, default=1)
    p_scale.add_argument("--no-assert", action="store_true",
                         help="report only; do not enforce the complexity bounds")
    p_scale.set_defaults(func=cmd_scale)

    p_live = sub.add_parser(
        "live", help="serve the live concurrent staging backend over TCP"
    )
    p_live.add_argument("--host", default="127.0.0.1")
    p_live.add_argument("--port", type=int, default=0,
                        help="TCP port (0 picks a free one)")
    p_live.add_argument("--policy", default="corec",
                        choices=["none", "replicate", "erasure", "hybrid", "corec"])
    p_live.add_argument("--storage-bound", type=float, default=0.67)
    p_live.add_argument("--servers", type=int, default=8)
    p_live.add_argument("--domain", type=int, nargs=3, default=[64, 64, 32])
    p_live.add_argument("--element-bytes", type=int, default=1)
    p_live.add_argument("--object-bytes", type=int, default=4096)
    p_live.add_argument("--seed", type=int, default=1)
    p_live.add_argument("--async-protection", action="store_true")
    p_live.add_argument("--time-scale", type=float, default=0.0,
                        help="wall seconds per modeled second (0: run flat out)")
    p_live.add_argument("--workers", type=int, default=None,
                        help="codec offload thread pool size")
    p_live.add_argument("--shards", type=int, default=1,
                        help="split the deployment into N shard processes "
                             "(one per coding-group range; requires the "
                             "group count to divide by N)")
    p_live.add_argument("--smoke", action="store_true",
                        help="serve on a thread, run a client workload, exit")
    p_live.add_argument("--trace-dir", default="",
                        help="enable wall-clock tracing; export span/metrics "
                             "artifacts to this directory on exit")
    p_live.set_defaults(func=cmd_live)

    def load_replay_common(p):
        p.add_argument("--host", default="127.0.0.1")
        p.add_argument("--port", type=int, default=0,
                       help="TCP port (0 picks a free one)")
        p.add_argument("--shards", type=int, default=2,
                       help="shard processes for the cluster backend")

    p_load = sub.add_parser(
        "load", help="open-loop load generation with SLO gate (live/cluster)"
    )
    load_replay_common(p_load)
    p_load.add_argument("--policy", default="corec", choices=["replicate", "corec"])
    p_load.add_argument("--storage-bound", type=float, default=0.67)
    p_load.add_argument("--servers", type=int, default=8)
    p_load.add_argument("--domain", type=int, nargs=3, default=[64, 64, 32])
    p_load.add_argument("--object-bytes", type=int, default=4096)
    p_load.add_argument("--seed", type=int, default=7)
    p_load.add_argument("--process", default="poisson",
                        choices=["constant", "poisson", "hotspot", "diurnal",
                                 "flash-crowd"],
                        help="seeded arrival process")
    p_load.add_argument("--rate", type=float, default=50.0,
                        help="aggregate arrival rate (ops/s)")
    p_load.add_argument("--duration", type=float, default=5.0,
                        help="seconds of scheduled arrivals")
    p_load.add_argument("--flows", type=int, default=2,
                        help="concurrent flow clients")
    p_load.add_argument("--vars", type=int, default=2)
    p_load.add_argument("--blocks", type=int, default=12,
                        help="working-set size (first N blocks)")
    p_load.add_argument("--read-fraction", type=float, default=0.4)
    p_load.add_argument("--capture", default="",
                        help="record the run to this JSONL tape")
    p_load.add_argument("--slo-put-p99", type=float, default=None, metavar="MS")
    p_load.add_argument("--slo-get-p99", type=float, default=None, metavar="MS")
    p_load.add_argument("--max-error-rate", type=float, default=0.01)
    p_load.add_argument("--report-only", action="store_true",
                        help="report SLO violations without failing")
    p_load.set_defaults(func=cmd_load, shards=1)

    p_replay = sub.add_parser(
        "replay", help="replay a captured tape with byte-equivalence checks"
    )
    load_replay_common(p_replay)
    p_replay.add_argument("--tape", required=True, help="JSONL tape path")
    p_replay.add_argument("--backend", default="sim",
                          choices=["sim", "live", "cluster"])
    p_replay.add_argument("--speedup", type=float, default=0.0,
                          help="pace replay at recorded-time/N (0: no pacing, "
                               "replay flat out)")
    p_replay.add_argument("--amplify", action="append", default=[],
                          metavar="FLOW=K",
                          help="issue FLOW's data ops K times (shadow vars; "
                               "repeatable)")
    p_replay.add_argument("--no-check", action="store_true",
                          help="skip digest equivalence checks")
    p_replay.set_defaults(func=cmd_replay)

    p_model = sub.add_parser("model", help="evaluate the Section II-D model")
    p_model.add_argument("--s", type=float, default=0.67)
    p_model.add_argument("--miss", type=float, nargs="*", default=[0.0, 0.2, 0.4])
    p_model.add_argument("--n-level", type=int, default=1)
    p_model.add_argument("--n-node", type=int, default=3)
    p_model.add_argument("--points", type=int, default=11)
    p_model.set_defaults(func=cmd_model)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
