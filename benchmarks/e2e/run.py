"""The repo benchmark: one workload per invocation, closed loop, hermetic.

    python3 benchmarks/e2e/run.py --workload small_put_hot --seed 1 --seconds 20 --trace 0

Runs laps of one seeded tape (each lap a fresh deployment) against the
real code at ``time_scale=0`` until ``--seconds`` have been measured,
checks every byte read, and prints as its last stdout line one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` runs
the same tape once through each layer's entry point and reports the
per-layer metrics (see README.md).  Exit code 0 only if every op and
every audit passed and no thread or child process is left behind.
"""

from __future__ import annotations

import argparse
import faulthandler
import gc
import json
import os
import resource
import statistics
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT = os.path.join(HERE, "out")
WORKLOADS = ("small_put_hot", "block_rw_1m", "fail_recover", "sim_s3d")
WATCHDOG_S = 170  # the driver allows 180 s per run

sys.path.insert(0, HERE)


def import_repro() -> tuple[float, bool]:
    """Import the checkout's ``repro`` and time it (fresh interpreter only).

    The native GF kernel's build cache and any compiler temp files are kept
    under ``out/`` so the run touches nothing outside the checkout.
    """
    cache = os.path.join(OUT, "native-cache")
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["REPRO_NATIVE_CACHE"] = cache
    os.environ["TMPDIR"] = tmp
    warm = os.path.isdir(cache) and any(f.endswith(".so") for f in os.listdir(cache))
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import repro
    import repro.live  # noqa: F401  (what a client or a server process pays)

    elapsed = time.perf_counter() - t0
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise ImportError(f"repro was imported from {repro.__file__}, not from {src}")
    from targets import REF_UNIT_S, calib_unit

    speed = statistics.fmean(calib_unit() for _ in range(20)) / REF_UNIT_S
    return elapsed / speed, warm


def git_sha() -> str:
    """HEAD of the checkout, read without git (the driver's checkout has none)."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as fh:
                head = fh.read().strip()
        return head[:12]
    except OSError:
        return "none"


def fingerprint(seed: int, native_warm: bool, cpus: int) -> dict:
    import numpy

    from repro.erasure.gf256 import GF256

    return {
        "git": git_sha(),
        "cpus": cpus,
        "pinned_to_cpu": max(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "gf_kernels": GF256.selected_kernels(),
        "native_cache": "warm" if native_warm else "cold",
        "seed": seed,
    }


def end_to_end(laps, import_s: float) -> dict[str, tuple[float, str]]:
    """Pool latencies over laps; take the median lap for rates and sums.

    Every time is divided by its lap's host-speed factor (``Lap.speed``)
    first, so the numbers read "at reference host speed".
    """
    med = statistics.median

    def p50_us(kind: str) -> float:
        return med(x / lap.speed for lap in laps for x in getattr(lap, kind)) * 1e6

    def lap_median(value) -> float:
        return med(value(lap) for lap in laps)

    return {
        "setup_s": (import_s + lap_median(lambda lap: lap.setup_s / lap.speed), "s"),
        "ops_per_s": (lap_median(lambda lap: lap.ops * lap.speed / lap.window_s), "1/s"),
        "put_p50_us": (p50_us("put"), "us"),
        "get_p50_us": (p50_us("get"), "us"),
        "degraded_get_p50_us": (p50_us("degraded"), "us"),
        "recover_s": (lap_median(lambda lap: sum(lap.recover) / lap.speed), "s"),
        "goodput_MB_per_s": (
            lap_median(lambda lap: lap.bytes_moved * lap.speed / lap.window_s) / 1e6, "MB/s"),
        "cpu_us_per_op": (lap_median(lambda lap: lap.cpu_s / lap.speed / lap.ops) * 1e6, "us"),
        # Read after the first lap: the high-water mark then creeps up with
        # every further deployment built and torn down (allocator arenas of
        # threads that are gone; 2-40 MB a lap on block_rw_1m), and how many
        # laps fit in a run is the host's doing.
        "peak_rss_mb": (laps[0].peak_rss_mb, "MB"),
        "storage_efficiency": (med(lap.efficiency for lap in laps), "ratio"),
    }


def measure(args, import_s: float) -> tuple[list, dict[str, tuple[float, str]]]:
    """``--trace 0``: laps until ``--seconds`` of lap time have been spent."""
    if args.workload == "sim_s3d":
        import simwl

        spec = simwl.SIM_SMOKE if args.smoke else simwl.SIM_SPEC

        def one_lap():
            return simwl.run_lap(args.seed, spec)
    else:
        from tape import LIVE_SPECS, SMOKE_SPECS, build_tape
        from targets import TcpTarget, run_lap

        tape = build_tape((SMOKE_SPECS if args.smoke else LIVE_SPECS)[args.workload], args.seed)
        print(f"tape {args.workload} seed {args.seed}: {len(tape.warmup)} warm-up + "
              f"{len(tape.ops)} ops, sha256 {tape.sha256}")

        def one_lap():
            return run_lap(lambda: TcpTarget(tape), tape, corrupt_expected=args.corrupt_expected)

    laps = []
    t_begin = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        laps.append(one_lap())
        # A deployment is a cyclic object graph: free it now, so peak RSS
        # does not depend on when the collector happens to run.
        gc.collect()
        laps[-1].peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        now = time.perf_counter()
        print(f"lap {len(laps)}: {now - t0:.3f} s raw (set-up {laps[-1].setup_s:.3f} s, "
              f"measured {laps[-1].window_s:.3f} s, recovery {sum(laps[-1].recover):.4f} s), "
              f"host {laps[-1].speed:.3f}x reference time, peak RSS {laps[-1].peak_rss_mb:.1f} MB")
        if now - t_begin + 0.5 * (now - t0) >= args.seconds:
            break
    if args.workload == "sim_s3d":
        # The simulator is deterministic: every lap must have made the same decisions.
        for lap in laps[1:]:
            if lap.counters != laps[0].counters or lap.efficiency != laps[0].efficiency:
                lap.fail("simulated outputs differ from the first lap's")
    return laps, end_to_end(laps, import_s)


def assert_hermetic() -> list[str]:
    import multiprocessing

    left = [f"thread {t.name}" for t in threading.enumerate() if t is not threading.main_thread()]
    left += [f"child {p.pid}" for p in multiprocessing.active_children()]
    return left


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tenth-size tapes, for the self-test")
    parser.add_argument("--out", default="",
                        help="also append the result, with workload and seed, to this JSONL file")
    parser.add_argument("--corrupt-expected", action="store_true",
                        help="self-test: expect wrong bytes for block 0, so the run must fail")
    args = parser.parse_args(argv)

    faulthandler.dump_traceback_later(WATCHDOG_S, exit=True, file=sys.__stderr__)
    # One CPU for the client thread and, by inheritance, every server thread.
    # Where the scheduler puts the two sides of a ping-pong decides whether a
    # round trip costs a context switch or a cross-vCPU wake-up (ping RTT 60 us
    # or 200 us on the reference host) and it decides anew for each deployment;
    # a single closed-loop client never has two threads busy anyway.
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        import_s, native_warm = import_repro()
        env = fingerprint(args.seed, native_warm, len(allowed))
        print("env " + json.dumps(env))
        if args.trace:
            import layers

            laps, metrics = layers.measure(args, OUT)
        else:
            laps, metrics = measure(args, import_s)
        failed = sum(lap.failed for lap in laps)
        for problem in [p for lap in laps for p in lap.problems][:8]:
            print("FAILED " + problem)
        for leftover in assert_hermetic():
            failed += 1
            print("FAILED left running: " + leftover)
    finally:
        os.sched_setaffinity(0, allowed)
        faulthandler.cancel_dump_traceback_later()

    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.4f} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": sum(lap.attempted for lap in laps),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "a", encoding="utf-8") as fh:
            row = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env,
                   **result,
                   # raw, per lap: to see the host's speed regimes behind the medians
                   "laps": [{"host_speed": lap.speed, "setup_s": lap.setup_s,
                             "window_s": lap.window_s, "recover_s": sum(lap.recover)}
                            for lap in laps]}
            fh.write(json.dumps(row) + "\n")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
