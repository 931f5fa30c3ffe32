"""Workload capture/replay + open-loop load benchmark with SLO gate.

Three phases, mirroring how the harness is meant to be used:

1. **Capture** — a deterministic conformance-style workload (the
   ``hybrid`` differential spec with group-scoped enforcement) runs
   against a single-process live server with a
   :class:`~repro.workloads.capture.CaptureRecorder` tapping the client:
   every op's geometry, verify flag, wall-clock issue time and read
   digests land on a JSONL tape, finalized with the deployment's
   quiescent projection digest.
2. **Replay equivalence** — the tape replays against a 2-shard
   multi-process cluster.  Read digests must match the recording
   byte-for-byte and the merged cluster projection must hash to the
   recorded ``projection_sha256``.  This is a correctness gate, enforced
   unconditionally (it does not depend on host speed).  ``--check-tape``
   additionally replays a committed tape from a previous release — the
   format back-compat guarantee.
3. **Open-loop SLO burst** — seeded Poisson arrivals drive concurrent
   routed flow clients against the 2-shard cluster; put/get p99 and the
   error rate are gated against the committed ``BENCH_load.json``
   baseline with headroom (the same committed-baseline-with-tolerance
   style ``check_regression.py`` uses).  On hosts
   with fewer than ``MIN_CPUS_FOR_SLO_GATE`` CPUs the shard processes
   and flow threads time-slice one core, so wall-clock percentiles say
   nothing about the code; the gate drops to report-only and the emitted
   JSON records that decision honestly in ``slo_gate``.

``--smoke`` shrinks the burst for CI and never overwrites the committed
baseline.  ``--emit-tape PATH`` writes the freshly captured tape (how
``benchmarks/tapes/smoke.tape.jsonl`` was produced).

Run: ``PYTHONPATH=src python benchmarks/bench_load.py``
"""

from __future__ import annotations

import argparse
import json
import os
import sys

OUT_PATH = os.path.join(os.path.dirname(__file__), "BENCH_load.json")
DEFAULT_COMMITTED_TAPE = os.path.join(
    os.path.dirname(__file__), "tapes", "smoke.tape.jsonl"
)

N_SHARDS = 2

# Open-loop burst parameters.
LOAD_PROCESS = "poisson"
LOAD_RATE = 80.0
LOAD_DURATION = 5.0
LOAD_FLOWS = 4
SMOKE_RATE = 40.0
SMOKE_DURATION = 1.5
SMOKE_FLOWS = 2
LOAD_SEED = 7

# Absolute latency SLOs (time_scale=0: pure event-machinery cost).  The
# committed baseline tightens the effective ceiling to baseline x
# P99_HEADROOM (floored at MIN_P99_CEILING_MS for scheduler noise).
SLO_PUT_P99_MS = 150.0
SLO_GET_P99_MS = 150.0
P99_HEADROOM = 10.0
MIN_P99_CEILING_MS = 50.0
MAX_ERROR_RATE = 0.01
MIN_CPUS_FOR_SLO_GATE = 4


def available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def slo_ceilings_ms() -> tuple[float, float]:
    """Effective (put, get) p99 ceilings, committed-baseline-aware."""
    try:
        with open(OUT_PATH, encoding="utf-8") as fh:
            committed = json.load(fh)
        base_put = committed["load"]["put_percentiles_ms"]["p99"]
        base_get = committed["load"]["get_percentiles_ms"]["p99"]
    except (OSError, ValueError, KeyError):
        return SLO_PUT_P99_MS, SLO_GET_P99_MS
    return (
        min(SLO_PUT_P99_MS, max(base_put * P99_HEADROOM, MIN_P99_CEILING_MS)),
        min(SLO_GET_P99_MS, max(base_get * P99_HEADROOM, MIN_P99_CEILING_MS)),
    )


def capture_spec():
    """The hybrid differential workload, enforced per group (shardable)."""
    from repro.live.conformance import WORKLOADS

    return WORKLOADS["hybrid"].with_overrides(enforcement_scope="group")


def capture_tape():
    """Phase 1: record the hybrid differential workload from a live client."""
    from repro.live.conformance import build_config, build_tape, policy_spec
    from repro.workloads.capture import CaptureRecorder
    from repro.workloads.load import apply_op, open_target

    spec = capture_spec()
    config = build_config(spec)
    with open_target("live", config, policy_spec(spec)) as connect:
        with connect("w") as cli:
            recorder = CaptureRecorder(cli, flow="w")
            # The spec's tape quiesces after every op, which keeps
            # background work deterministic: the recorded digests are
            # backend-independent ground truth.
            for op in build_tape(spec).ops:
                apply_op(cli, op)
            return recorder.finalize(
                config=config,
                policy_spec=policy_spec(spec),
                projection=cli.projection(),
            )


def replay_against_cluster(tape) -> dict:
    """Phase 2: replay a tape on the sharded cluster; byte equivalence."""
    from repro.workloads.load import open_target, replay_tape

    with open_target("cluster", *tape.deployment(), n_shards=N_SHARDS) as connect:
        with connect("replay") as client:
            report = replay_tape(tape, client)
    return report.to_json()


def run_burst(smoke: bool, enforce: bool, put_ceiling: float,
              get_ceiling: float) -> dict:
    """Phase 3: seeded open-loop burst against the sharded cluster."""
    from repro.live.conformance import build_config, policy_spec
    from repro.staging.service import build_geometry
    from repro.workloads.load import SLO, LoadSpec, open_target, run_load

    spec = capture_spec()
    config = build_config(spec)
    _, domain, _, _ = build_geometry(config)
    load_spec = LoadSpec(
        process=LOAD_PROCESS,
        rate=SMOKE_RATE if smoke else LOAD_RATE,
        duration=SMOKE_DURATION if smoke else LOAD_DURATION,
        flows=SMOKE_FLOWS if smoke else LOAD_FLOWS,
        seed=LOAD_SEED,
    )
    slo = SLO(
        put_p99_ms=put_ceiling,
        get_p99_ms=get_ceiling,
        max_error_rate=MAX_ERROR_RATE,
    )
    with open_target(
        "cluster", config, policy_spec(spec), n_shards=N_SHARDS
    ) as connect:
        report = run_load(
            connect, load_spec, domain=domain, slo=slo, enforce_slo=enforce
        )
    out = report.to_json()
    out["spec"] = {
        "process": load_spec.process,
        "rate": load_spec.rate,
        "duration": load_spec.duration,
        "flows": load_spec.flows,
        "seed": load_spec.seed,
        "shards": N_SHARDS,
    }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="short CI burst; committed baseline left untouched")
    parser.add_argument("--emit-tape", default="", metavar="PATH",
                        help="write the freshly captured tape here")
    parser.add_argument("--check-tape", default="", metavar="PATH",
                        help="also replay a committed tape (format back-compat; "
                             f"e.g. {os.path.relpath(DEFAULT_COMMITTED_TAPE)})")
    parser.add_argument("--out", default="",
                        help="directory for the smoke run's JSON payload")
    args = parser.parse_args(argv)

    cpus = available_cpus()
    put_ceiling, get_ceiling = slo_ceilings_ms()
    if cpus >= MIN_CPUS_FOR_SLO_GATE:
        slo_gate = f"enforced (put p99 <= {put_ceiling:.0f} ms, " \
                   f"get p99 <= {get_ceiling:.0f} ms)"
        enforce = True
    else:
        slo_gate = (
            f"report-only ({cpus} cpus < {MIN_CPUS_FOR_SLO_GATE}; shard "
            f"processes and flow threads time-slice one core, percentiles "
            f"measure the scheduler, not the code)"
        )
        enforce = False

    print("phase 1: capturing hybrid workload from single-process live ...")
    tape = capture_tape()
    print(f"  {len(tape)} ops on tape "
          f"({sum(1 for o in tape.ops if o.op == 'put')} puts, "
          f"{sum(1 for o in tape.ops if o.op == 'get')} gets)")
    if args.emit_tape:
        tape.save(args.emit_tape)
        print(f"  tape written to {args.emit_tape}")

    print(f"phase 2: replaying tape against the {N_SHARDS}-shard cluster ...")
    replay = replay_against_cluster(tape)
    print(f"  digest checks: {replay['digest_checks']}  "
          f"mismatches: {len(replay['mismatches'])}  "
          f"projection: {replay['projection_check']}")

    committed_replay = None
    if args.check_tape:
        from repro.workloads.capture import Tape

        print(f"phase 2b: replaying committed tape {args.check_tape} ...")
        committed_replay = replay_against_cluster(Tape.load(args.check_tape))
        print(f"  digest checks: {committed_replay['digest_checks']}  "
              f"mismatches: {len(committed_replay['mismatches'])}  "
              f"projection: {committed_replay['projection_check']}")

    print(f"phase 3: open-loop {LOAD_PROCESS} burst on {N_SHARDS} shards ...")
    load = run_burst(args.smoke, enforce, put_ceiling, get_ceiling)
    print(f"  {load['ops']} ops ({load['errors']} errors) in "
          f"{load['wall_s']:.2f} s -> {load['achieved_rate']:.1f} ops/s  "
          f"put p99 {load['put_percentiles_ms'].get('p99', 0):.2f} ms  "
          f"get p99 {load['get_percentiles_ms'].get('p99', 0):.2f} ms  "
          f"lateness p99 {load['lateness_p99_ms']:.2f} ms")

    payload = {
        "config": {
            "shards": N_SHARDS,
            "cpus": cpus,
            "smoke": args.smoke,
            "slo_put_p99_ms": SLO_PUT_P99_MS,
            "slo_get_p99_ms": SLO_GET_P99_MS,
            "effective_put_ceiling_ms": put_ceiling,
            "effective_get_ceiling_ms": get_ceiling,
            "max_error_rate": MAX_ERROR_RATE,
        },
        "tape_ops": len(tape),
        "replay": replay,
        "committed_tape_replay": committed_replay,
        "load": load,
        "slo_gate": slo_gate,
    }
    # A smoke run never overwrites the committed full baseline.
    if not args.smoke:
        out_path = OUT_PATH
    elif args.out:
        out_path = os.path.join(args.out, "bench_load_smoke.json")
    else:
        out_path = ""
    if out_path:
        os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
        print(f"payload -> {out_path}")
    print(f"slo_gate: {slo_gate}")

    if not replay["ok"]:
        print("FAIL: tape replay against the sharded cluster is not "
              "byte-equivalent:", file=sys.stderr)
        for m in replay["mismatches"][:5]:
            print(f"  {m}", file=sys.stderr)
        return 1
    if committed_replay is not None and not committed_replay["ok"]:
        print("FAIL: committed tape no longer replays byte-equivalently "
              "(format or behavior regression):", file=sys.stderr)
        for m in committed_replay["mismatches"][:5]:
            print(f"  {m}", file=sys.stderr)
        return 1
    if load["slo_gate"] == "fail":
        print("FAIL: open-loop SLO gate: " + "; ".join(load["slo_violations"]),
              file=sys.stderr)
        return 1
    if load["slo_violations"]:
        # report-only: recorded, printed, not gating.
        print("slo violations (report-only): "
              + "; ".join(load["slo_violations"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
