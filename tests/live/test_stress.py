"""Concurrency stress: many real clients, overlapping regions, server kill.

Unlike the conformance suite (sequential ops, byte-identical states),
this test embraces nondeterminism: N client threads hammer one live
server over TCP with overlapping puts/gets while a chaos thread kills
and replaces a staging server mid-run.  The assertions are invariants
that must hold under *any* interleaving:

- bounded wall-clock: every client thread finishes (no deadlock);
- no lost updates: entity versions advance once per acknowledged write
  (two acked writes can never share a version — the entity lock
  serializes them);
- read-your-writes at quiescence: each client's private variable reads
  back its last successfully acknowledged payload;
- the chaos invariant suite (durability, accounting, store consistency,
  parity integrity, anti-affinity, reverse indexes) holds on the final
  quiesced state, and a full digest audit finds nothing unrecoverable;
- the engine drains completely: no alive processes after quiesce.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.chaos.invariants import QUIESCENT, run_invariants
from repro.core.corec import CoRECPolicy
from repro.live.protocol import LiveClient, RemoteOpError
from repro.live.server import serve_in_thread
from repro.staging.service import StagingConfig

N_CLIENTS = 6
OPS_PER_CLIENT = 18
SHARED_REGION = ((0, 0, 0), (16, 16, 16))  # block 0 of every variable
JOIN_TIMEOUT = 180.0


def stress_config() -> StagingConfig:
    return StagingConfig(
        n_servers=8,
        domain_shape=(64, 64, 32),
        element_bytes=1,
        object_max_bytes=4096,
        seed=7,
    )


class Worker(threading.Thread):
    """One client: writes its own variable + the shared one, reads both."""

    def __init__(self, host: str, port: int, idx: int):
        super().__init__(name=f"stress-client-{idx}")
        self.host, self.port, self.idx = host, port, idx
        self.shared_put_attempts = 0
        self.shared_put_acks = 0
        self.last_acked_payload: bytes | None = None
        self.tainted = False  # a private-var put failed mid-protection
        self.op_errors: list[str] = []
        self.crashes: list[BaseException] = []

    def run(self) -> None:
        try:
            self._run()
        except BaseException as exc:  # noqa: BLE001 - surfaced by the test
            self.crashes.append(exc)

    def _run(self) -> None:
        rng = np.random.default_rng(1000 + self.idx)
        var = f"own{self.idx}"
        with LiveClient(self.host, self.port, name=f"c{self.idx}") as cli:
            for opno in range(OPS_PER_CLIENT):
                roll = rng.random()
                try:
                    if roll < 0.45:
                        # Private write: 1-4 blocks, version-stamped bytes.
                        blocks_x = int(rng.integers(1, 3))
                        blocks_y = int(rng.integers(1, 3))
                        region = ((0, 0, 0), (16 * blocks_x, 16 * blocks_y, 16))
                        shape = tuple(u - l for l, u in zip(*region))
                        data = np.full(shape, (self.idx * 64 + opno) % 256, np.uint8)
                        cli.put(var, region[0], region[1], data.ravel())
                        if region == SHARED_REGION:
                            self.last_acked_payload = data.tobytes()
                        elif region[1][0] >= 16 and region[1][1] >= 16:
                            # Block 0 is covered by every private write here;
                            # remember its slice for the final read-back.
                            self.last_acked_payload = np.ascontiguousarray(
                                data[:16, :16, :16]
                            ).tobytes()
                    elif roll < 0.70:
                        # Shared write: every client slams the same block.
                        self.shared_put_attempts += 1
                        data = np.full((16, 16, 16), (self.idx + 1) * 10 % 256, np.uint8)
                        cli.put("shared", *SHARED_REGION, data.ravel())
                        self.shared_put_acks += 1
                    elif roll < 0.9:
                        target = "shared" if rng.random() < 0.5 else var
                        cli.get(target, *SHARED_REGION)
                    else:
                        cli.query(var, *SHARED_REGION)
                except RemoteOpError as exc:
                    # Legal under chaos (e.g. a transfer raced the server
                    # kill); record it, taint read-back if it was a private
                    # write, but keep hammering.
                    self.op_errors.append(f"op{opno}: {exc}")
                    if roll < 0.45:
                        self.tainted = True
                    elif roll < 0.70:
                        self.tainted = True  # version count no longer exact
                except KeyError:
                    pass  # read raced the first write of that variable


class Chaos(threading.Thread):
    """Kill a staging server mid-run, then bring a replacement back."""

    def __init__(self, host: str, port: int, victim: int, trigger: threading.Event):
        super().__init__(name="stress-chaos")
        self.host, self.port, self.victim = host, port, victim
        self.trigger = trigger
        self.crashes: list[BaseException] = []

    def run(self) -> None:
        try:
            with LiveClient(self.host, self.port, name="chaos") as cli:
                self.trigger.wait(timeout=30)
                for _ in range(2):
                    cli.fail_server(self.victim)
                    for _ in range(3):  # let traffic hit the hole
                        cli.query("shared", *SHARED_REGION)
                    cli.replace_server(self.victim)
        except BaseException as exc:  # noqa: BLE001
            self.crashes.append(exc)


def test_concurrent_clients_with_server_kill():
    handle = serve_in_thread(stress_config(), CoRECPolicy)
    try:
        workers = [Worker(handle.host, handle.port, i) for i in range(N_CLIENTS)]
        trigger = threading.Event()
        chaos = Chaos(handle.host, handle.port, victim=3, trigger=trigger)
        for w in workers:
            w.start()
        chaos.start()
        trigger.set()
        for t in [*workers, chaos]:
            t.join(timeout=JOIN_TIMEOUT)
        hung = [t.name for t in [*workers, chaos] if t.is_alive()]
        assert hung == [], f"threads hung (deadlock?): {hung}"
        for t in [*workers, chaos]:
            assert not t.crashes, f"{t.name} crashed: {t.crashes!r}"

        with LiveClient(handle.host, handle.port, name="control") as control:
            control.flush()
            control.quiesce()

            # --- no lost updates on the contended shared block ----------
            acks = sum(w.shared_put_acks for w in workers)
            attempts = sum(w.shared_put_attempts for w in workers)
            tainted_shared = any(w.tainted for w in workers)
            (row,) = [
                r
                for r in control.query("shared", *SHARED_REGION)
                if r["block"] == 0
            ]
            writes_seen = row["version"] + 1
            assert writes_seen >= acks or tainted_shared, (
                f"lost update: {acks} acked shared puts but version shows "
                f"{writes_seen} writes"
            )
            assert writes_seen <= attempts + sum(
                1 for w in workers if w.last_acked_payload is not None
            ) * OPS_PER_CLIENT, "version ran ahead of every possible write"

            # --- read-your-writes on private variables ------------------
            for w in workers:
                if w.last_acked_payload is None or w.tainted:
                    continue
                _, blocks = control.get(f"own{w.idx}", *SHARED_REGION)
                assert blocks[0] == w.last_acked_payload, (
                    f"client {w.idx}: final read differs from last acked write"
                )

            # --- full digest audit through the real read paths ----------
            audit = control.verify()
            assert audit["unrecoverable"] == [], audit
            assert control.stats()["alive_servers"] == list(range(8))

        # --- chaos invariant suite on the drained deployment ------------
        live = handle._server.live
        assert live.engine.alive_processes() == [], "deadlocked processes"
        violations = run_invariants(
            live.service,
            tier=QUIESCENT,
            names=[
                "durability",
                "bytes_conservation",
                "lock_leaks",
                "accounting",
                "anti_affinity",
                "store_consistency",
                "parity_integrity",
                "reverse_indexes",
                # digest_audit is sim-only (drives sim.run); the wire-level
                # verify above covers the same ground on the live backend.
            ],
        )
        assert violations == [], [str(v) for v in violations]
    finally:
        handle.stop()


def test_server_kill_during_stripe_forming_puts():
    """Chaos while a writer's puts keep forming stripes.

    Cold single-write variables are striped by the policy, and a flush
    every fourth put forces the batched encodes; servers 2 and 5 are
    killed and replaced mid-traffic.  At quiesce the full invariant
    sweep and a digest audit must come back clean, and no process may
    be left waiting.
    """
    config = StagingConfig(
        n_servers=8,
        domain_shape=(64, 64, 32),
        element_bytes=1,
        object_max_bytes=32768,
        seed=7,
    )
    region = ((0, 0, 0), (32, 32, 32))  # exactly one 32 KiB block
    handle = serve_in_thread(config, CoRECPolicy)
    try:
        live = handle._server.live
        first_put = threading.Event()
        op_errors: list[str] = []
        crashes: list[BaseException] = []

        def writer() -> None:
            try:
                with LiveClient(handle.host, handle.port, name="pwriter") as cli:
                    for opno in range(36):
                        # Cold single-write variables -> the policy stripes
                        # them; flushing forces the batched encodes.
                        var = f"pv{opno % 12}"
                        data = np.full((32, 32, 32), opno % 256, np.uint8)
                        try:
                            cli.put(var, *region, data.ravel())
                            if opno % 4 == 3:
                                cli.flush()
                        except RemoteOpError as exc:
                            op_errors.append(f"op{opno}: {exc}")
                        first_put.set()
            except BaseException as exc:  # noqa: BLE001
                crashes.append(exc)

        t = threading.Thread(target=writer, name="stripe-writer")
        t.start()
        with LiveClient(handle.host, handle.port, name="chaos") as cli:
            assert first_put.wait(timeout=30)
            for victim in (2, 5):
                cli.fail_server(victim)
                for _ in range(2):  # traffic into the hole mid-encode
                    cli.query("pv0", *region)
                cli.replace_server(victim)
        t.join(timeout=JOIN_TIMEOUT)
        assert not t.is_alive(), "writer hung (deadlock?)"
        assert not crashes, f"writer crashed: {crashes!r}"

        with LiveClient(handle.host, handle.port, name="control") as control:
            control.flush()
            control.quiesce()
            audit = control.verify()
            assert audit["unrecoverable"] == [], audit
            assert control.stats()["alive_servers"] == list(range(8))

        assert live.engine.alive_processes() == [], "deadlocked processes"
        assert live.metrics.counters["stripe_encodes"] > 0, "no stripe formed: tested nothing"
        violations = run_invariants(
            live.service,
            tier=QUIESCENT,
            names=[
                "durability",
                "bytes_conservation",
                "lock_leaks",
                "accounting",
                "anti_affinity",
                "store_consistency",
                "parity_integrity",
                "reverse_indexes",
            ],
        )
        assert violations == [], [str(v) for v in violations]
    finally:
        handle.stop()


def test_client_vanishing_mid_session_is_tolerated():
    """A client that drops its socket must not poison the server."""
    handle = serve_in_thread(stress_config(), CoRECPolicy)
    try:
        rude = LiveClient(handle.host, handle.port, name="rude")
        rude.put("rude", (0, 0, 0), (16, 16, 16))
        rude.sock.close()  # vanish without shutdown handshake
        with LiveClient(handle.host, handle.port, name="polite") as polite:
            assert polite.ping() >= 0.0
            polite.quiesce()
            _, blocks = polite.get("rude", (0, 0, 0), (16, 16, 16))
            assert len(blocks) == 1  # the rude client's write survived
    finally:
        handle.stop()
