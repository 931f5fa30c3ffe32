"""The op tape: the one workload format, and its client-side recorder.

A :class:`Tape` is an ordered list of client operations plus the
deployment they ran against.  Conformance specs generate tapes
(:func:`repro.live.conformance.build_tape`), :class:`CaptureRecorder`
records them, and :mod:`repro.workloads.load` plays them on any backend
(``apply_op`` on an ``open_target`` client: sim service, single-process
live, sharded cluster) with byte-digest equivalence checks, time
compression and flow amplification.

:class:`CaptureRecorder` taps a blocking client — a
:class:`~repro.live.protocol.LiveClient`, a sharded
:class:`~repro.live.router.ClusterClient` or a sim-backed
:class:`~repro.workloads.load.SimTarget` — and records every
``put``/``get``/``step``/``flush``/``quiesce`` the application issues:
region geometry, the read-verification flag *as issued*, payload byte
digests, and wall-clock issue times.

Tape format (version 2)
-----------------------
JSONL.  The first line is a meta record::

    {"format": "repro-live-tape", "version": 2,
     "config": {...simple StagingConfig fields...},
     "policy": ["corec", {...}],
     "flows": ["w", ...],
     "projection_sha256": "..."}        # optional, set by finalize()

``config`` carries only the scalar/tuple :class:`StagingConfig` fields —
enough to rebuild an equivalent deployment with default network/cost
models (replay compares *state*, not timing, so modelled costs are
irrelevant).  Every following line is one operation::

    {"seq": 0, "t": 0.00012, "op": "put", "flow": "w", "var": "var0",
     "lb": [0,0,0], "ub": [16,16,16], "verify": null, "nbytes": 0,
     "digests": {"4": "ab12..."}, "payload_b64": "...", "dtype": "uint8"}

- ``t`` is seconds since capture start (monotonic clock) — the replay
  pacing signal.
- ``digests`` are ``staging.objects.content_id`` values (blake2b-96, the
  stable identity — not the CRC the request path checks): on a ``get``
  they map block-id → id of the bytes the recorded run actually read; on
  a ``put`` with inline data the written payload's id sits under
  ``"data"``.
- ``payload_b64`` appears only on puts that carried explicit data small
  enough to inline (``inline_limit``); data-less puts replay as data-less
  puts (the staging service synthesizes payloads deterministically, which
  is what makes cross-backend digest equality possible).  Oversized
  payloads record ``"payload": "elided"`` and replay data-less — flagged,
  because that replay is *not* byte-faithful.
- ``fail`` / ``replace`` ops (version 2) carry the staging ``server`` id
  to fail or to replace with an empty one; version 1 tapes have neither
  and load unchanged.

Capture recorders save and restore the exact instance attributes they
displace, so they nest and never discard a pre-existing wrapper.
"""

from __future__ import annotations

import base64
import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Iterable

import numpy as np

from repro.staging.objects import content_id
from repro.staging.service import StagingConfig, projection_sha256

__all__ = [
    "TapeOp",
    "Tape",
    "CaptureRecorder",
    "TAPE_FORMAT",
    "TAPE_VERSION",
    "OP_FIELDS",
    "SIMPLE_CONFIG_FIELDS",
    "config_meta",
    "config_from_meta",
    "block_digests",
]

TAPE_FORMAT = "repro-live-tape"
TAPE_VERSION = 2

# Every op kind a tape may carry -> the fields that kind cannot do without
# (on top of ``seq``/``t``/``op``).  ``Tape.loads`` checks rows against it.
OP_FIELDS: dict[str, tuple[str, ...]] = {
    "put": ("var", "lb", "ub"),
    "get": ("var", "lb", "ub"),
    "step": (),
    "flush": (),
    "quiesce": (),
    "fail": ("server",),
    "replace": ("server",),
}

# StagingConfig fields a tape records: scalars and tuples only.  The
# nested network/cost models shape simulated timing, never state, so a
# replayed deployment uses defaults for them.  A field a tape lacks (the
# placement pair on tapes written before it was recorded) takes the
# ``StagingConfig`` default.
SIMPLE_CONFIG_FIELDS = (
    "n_servers",
    "servers_per_node",
    "nodes_per_cabinet",
    "domain_shape",
    "element_bytes",
    "object_max_bytes",
    "n_level",
    "k",
    "rs_construction",
    "topology_aware",
    "placement_mode",
    "max_coding_sets",
    "async_protection",
    "tracing",
    "seed",
)
# Fields older tapes carry whose one value in use became a constant of the
# build: such a tape loads when it recorded that value and fails closed
# when it asks for another.
RETIRED_CONFIG_FIELDS = {"index_scheme": "round_robin", "verify_reads": True}

_MISSING = object()
_TAPPED = ("put", "get", "step", "flush", "quiesce")


def config_meta(config) -> dict[str, Any]:
    """The simple-field projection of a :class:`StagingConfig` for a tape."""
    return {name: getattr(config, name) for name in SIMPLE_CONFIG_FIELDS}


def config_from_meta(meta: dict[str, Any]):
    """Rebuild a :class:`StagingConfig` from a tape's ``config`` record."""
    if not isinstance(meta, dict):
        raise ValueError("tape config is not a JSON object")
    kwargs = dict(meta)
    for name, constant in RETIRED_CONFIG_FIELDS.items():
        if kwargs.pop(name, constant) != constant:
            raise ValueError(
                f"tape config asks for {name}={meta[name]!r}; this build "
                f"only has {name}={constant!r}"
            )
    unknown = sorted(set(kwargs) - set(SIMPLE_CONFIG_FIELDS))
    if unknown:
        raise ValueError(f"tape config has unknown field(s) {unknown}")
    if "domain_shape" in kwargs:
        kwargs["domain_shape"] = tuple(kwargs["domain_shape"])
    return StagingConfig(**kwargs)


def block_digests(payloads: dict[int, Any]) -> dict[str, str]:
    """Per-block ``content_id``, accepting ndarrays or raw buffers."""
    out: dict[str, str] = {}
    for bid in sorted(payloads):
        data = payloads[bid]
        if not isinstance(data, np.ndarray):
            data = np.frombuffer(data, dtype=np.uint8)
        out[str(bid)] = content_id(data)
    return out


@dataclass(frozen=True)
class TapeOp:
    """One captured client operation."""

    seq: int
    t: float  # seconds since capture start
    op: str  # one of OP_FIELDS
    flow: str = "client"
    var: str | None = None
    lb: tuple[int, ...] | None = None
    ub: tuple[int, ...] | None = None
    verify: bool | None = None
    nbytes: int = 0
    digests: dict[str, str] = field(default_factory=dict)
    payload_b64: str | None = None
    payload: str | None = None  # "elided" when data was too large to inline
    dtype: str | None = None
    server: int | None = None  # fail / replace target

    def to_json(self) -> dict[str, Any]:
        row: dict[str, Any] = {"seq": self.seq, "t": self.t, "op": self.op,
                               "flow": self.flow}
        if self.var is not None:
            row["var"] = self.var
            row["lb"] = list(self.lb)
            row["ub"] = list(self.ub)
        if self.op == "get":
            row["verify"] = self.verify
        if self.nbytes:
            row["nbytes"] = self.nbytes
        if self.digests:
            row["digests"] = self.digests
        if self.payload_b64 is not None:
            row["payload_b64"] = self.payload_b64
            row["dtype"] = self.dtype
        if self.payload is not None:
            row["payload"] = self.payload
        if self.server is not None:
            row["server"] = self.server
        return row

    @classmethod
    def from_json(cls, row: dict[str, Any]) -> "TapeOp":
        """Parse one op row; ``ValueError`` on an unknown kind or a hole."""
        if not isinstance(row, dict):
            raise ValueError("op row is not a JSON object")
        kind = row.get("op")
        if kind not in OP_FIELDS:
            raise ValueError(f"unknown op {kind!r} (known: {sorted(OP_FIELDS)})")
        missing = [f for f in ("seq", "t", *OP_FIELDS[kind]) if row.get(f) is None]
        if missing:
            raise ValueError(f"{kind} op is missing {missing}")
        return cls(
            seq=int(row["seq"]),
            t=float(row["t"]),
            op=row["op"],
            flow=row.get("flow", "client"),
            var=row.get("var"),
            lb=None if row.get("lb") is None else tuple(row["lb"]),
            ub=None if row.get("ub") is None else tuple(row["ub"]),
            verify=row.get("verify"),
            nbytes=int(row.get("nbytes", 0)),
            digests=row.get("digests", {}),
            payload_b64=row.get("payload_b64"),
            payload=row.get("payload"),
            dtype=row.get("dtype"),
            server=None if row.get("server") is None else int(row["server"]),
        )

    def decode_payload(self) -> np.ndarray | None:
        """The inlined put payload as a uint8 array, or ``None``."""
        if self.payload_b64 is None:
            return None
        return np.frombuffer(base64.b64decode(self.payload_b64), dtype=np.uint8)


class Tape:
    """A captured workload: meta record + ordered operation list.

    Thread-safe recording (multiple flow clients can share one tape); the
    op order on disk is the global issue order across all flows.
    """

    def __init__(self, meta: dict[str, Any] | None = None,
                 ops: Iterable[TapeOp] = ()):
        self.meta: dict[str, Any] = {
            "format": TAPE_FORMAT,
            "version": TAPE_VERSION,
        }
        if meta:
            self.meta.update(meta)
        self.ops: list[TapeOp] = list(ops)
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self.ops)

    def record(self, t: float, op: str, flow: str, **fields: Any) -> TapeOp:
        with self._lock:
            row = TapeOp(seq=len(self.ops), t=t, op=op, flow=flow, **fields)
            self.ops.append(row)
            flows = self.meta.setdefault("flows", [])
            if flow not in flows:
                flows.append(flow)
            return row

    def flows(self) -> list[str]:
        return list(self.meta.get("flows", []))

    def deployment(self) -> tuple[StagingConfig, tuple]:
        """``(config, policy spec)`` of the deployment the tape ran against,
        rebuilt from its own meta — ``open_target(backend, *tape.deployment())``
        is how a tape is replayed."""
        if "config" not in self.meta or "policy" not in self.meta:
            raise ValueError(
                "tape has no config/policy meta; cannot rebuild a deployment "
                "to replay against"
            )
        return config_from_meta(self.meta["config"]), tuple(self.meta["policy"])

    # ------------------------------------------------------------------
    def dumps(self) -> str:
        # Leading-underscore meta keys are capture-session scratch
        # (e.g. the monotonic t=0 pin), never part of the format.
        meta = {k: v for k, v in self.meta.items() if not k.startswith("_")}
        lines = [json.dumps(meta, sort_keys=True)]
        lines.extend(json.dumps(o.to_json(), sort_keys=True) for o in self.ops)
        return "\n".join(lines) + "\n"

    @classmethod
    def loads(cls, text: str) -> "Tape":
        lines = [
            (no, ln) for no, ln in enumerate(text.splitlines(), 1) if ln.strip()
        ]
        if not lines:
            raise ValueError("empty tape")
        meta = json.loads(lines[0][1])
        if not isinstance(meta, dict) or meta.get("format") != TAPE_FORMAT:
            raise ValueError(f"not a live tape: format={meta.get('format')!r}"
                             if isinstance(meta, dict) else "not a live tape")
        version = meta.get("version")
        if not isinstance(version, int) or version < 1 or version > TAPE_VERSION:
            raise ValueError(
                f"unsupported tape version {version!r} "
                f"(this build reads 1..{TAPE_VERSION})"
            )
        # Fail closed here: a bad row or a deployment this build cannot
        # rebuild must not surface mid-replay, after earlier ops have
        # already mutated the target.
        if "config" in meta:
            config_from_meta(meta["config"])
        ops = []
        for no, ln in lines[1:]:
            try:
                ops.append(TapeOp.from_json(json.loads(ln)))
            except (ValueError, TypeError) as exc:
                raise ValueError(f"tape line {no}: {exc}") from None
        return cls(meta=meta, ops=ops)

    def save(self, path: str) -> None:
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.dumps())

    @classmethod
    def load(cls, path: str) -> "Tape":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.loads(fh.read())


class CaptureRecorder:
    """Tap a live client's data/control plane onto a :class:`Tape`.

    ``client`` needs the blocking client surface (``put``, ``get``,
    ``step``, ``flush``, ``quiesce``); both :class:`LiveClient` and
    :class:`ClusterClient` qualify.  Several recorders may share one
    ``tape`` (one per flow client) — pass the same instance and a
    distinct ``flow`` name; issue order is serialized by the tape lock.

    Wall-clock zero is the first recorder's attach on a shared tape.
    """

    def __init__(
        self,
        client,
        tape: Tape | None = None,
        flow: str | None = None,
        inline_limit: int = 1 << 20,
    ):
        self.client = client
        self.tape = tape if tape is not None else Tape()
        self.flow = flow or getattr(client, "name", "client")
        self.inline_limit = inline_limit
        self._saved: dict[str, object] | None = None
        self._orig: dict[str, Any] = {}
        self.attach()

    @property
    def attached(self) -> bool:
        return self._saved is not None

    def _now(self) -> float:
        # Shared-tape recorders agree on t=0 (stored on the tape itself).
        t0 = self.tape.meta.get("_t0")
        if t0 is None:
            t0 = time.monotonic()
            self.tape.meta["_t0"] = t0
        return time.monotonic() - t0

    def attach(self) -> "CaptureRecorder":
        if self.attached:
            raise RuntimeError("CaptureRecorder is already attached")
        cli = self.client
        self._saved = {a: cli.__dict__.get(a, _MISSING) for a in _TAPPED}
        self._orig = {a: getattr(cli, a) for a in _TAPPED}
        self._now()  # pin t=0 at attach
        cli.put = self._put
        cli.get = self._get
        for op in ("step", "flush", "quiesce"):
            setattr(cli, op, self._marker(op))
        return self

    def detach(self) -> Tape:
        """Restore exactly what attach displaced; returns the tape."""
        if not self.attached:
            raise RuntimeError("CaptureRecorder is not attached")
        for attr, saved in self._saved.items():
            if saved is _MISSING:
                self.client.__dict__.pop(attr, None)
            else:
                setattr(self.client, attr, saved)
        self._saved = None
        self._orig = {}
        return self.tape

    # -- wrappers ------------------------------------------------------
    def _put(self, var, lb, ub, data=None):
        t = self._now()
        result = self._orig["put"](var, lb, ub, data)
        fields: dict[str, Any] = {
            "var": var, "lb": tuple(lb), "ub": tuple(ub),
        }
        if data is not None:
            arr = np.ascontiguousarray(data)
            raw = arr.view(np.uint8).ravel()
            fields["nbytes"] = int(raw.nbytes)
            fields["digests"] = {"data": content_id(raw)}
            if raw.nbytes <= self.inline_limit:
                fields["payload_b64"] = base64.b64encode(raw.tobytes()).decode()
                fields["dtype"] = "uint8"
            else:
                fields["payload"] = "elided"
        self.tape.record(t, "put", self.flow, **fields)
        return result

    def _get(self, var, lb, ub, verify=None):
        t = self._now()
        duration, payloads = self._orig["get"](var, lb, ub, verify)
        self.tape.record(
            t, "get", self.flow,
            var=var, lb=tuple(lb), ub=tuple(ub), verify=verify,
            digests=block_digests(payloads),
        )
        return duration, payloads

    def _marker(self, op: str):
        """Tap for a control op: no region, no payload, only its issue time."""
        orig = self._orig[op]

        def tapped():
            t = self._now()
            result = orig()
            self.tape.record(t, op, self.flow)
            return result

        return tapped

    # -- finalization --------------------------------------------------
    def finalize(self, config=None, policy_spec=None,
                 projection: dict | None = None) -> Tape:
        """Stamp deployment meta (and the quiescent-state digest) and detach.

        ``projection`` should come from ``client.projection()`` after a
        quiesce; its digest lets a replay assert *state* equivalence, not
        just read-digest equivalence.
        """
        if config is not None:
            self.tape.meta["config"] = config_meta(config)
        if policy_spec is not None:
            name, opts = policy_spec
            self.tape.meta["policy"] = [name, dict(opts)]
        if projection is not None:
            self.tape.meta["projection_sha256"] = projection_sha256(projection)
        self.tape.meta.pop("_t0", None)  # capture-session scratch, not format
        if self.attached:
            self.detach()
        return self.tape
