"""Differential conformance: sim and live must reach byte-identical state.

Each seeded workload tape is played twice through the one runner
(``conformance.run``) — once on the virtual-time simulator, once on the
wall-clock live server over TCP — with the tape's full drain between
ops.  At every read, payload digests must match op-for-op; at the end,
the timing-free state projections (directory metadata, stripe geometry,
every server's store contents, pending pools, storage accounting) must
be identical.  This is the live backend's core correctness claim: same
policies, same decisions, same bytes.
"""

from __future__ import annotations

import pytest

from repro.live.conformance import WORKLOADS, build_tape, run
from repro.staging.service import diff_projections, projection_sha256

# Sim-backend projection digest, non-quiesce op count and read-digest
# count of each spec, measured at the commit before specs became tape
# generators: the spec -> Tape rewrite must emit the same op sequence.
PINNED = {
    "replication-only": (
        "306c66b7d6903b5f0feec6fc477c679837501b5153f75b321aeefd939e37ea15", 49, 20),
    "hybrid": (
        "a88b64994ac9dd908b64c4e8e9903105df2db3931856e20ed3352415f1251532", 74, 28),
    "failure-and-recover": (
        "662884120deaabca6203eb5334235010c7505686f66d888cb2beea066310ae24", 78, 30),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_sim_and_live_agree(name):
    spec = WORKLOADS[name]
    sim_proj, sim_reads = run(spec, "sim")
    live_proj, live_reads = run(spec, "live")
    diffs = diff_projections(sim_proj, live_proj, ("sim", "live"))
    assert diffs == [], "sim/live state diverged:\n" + "\n".join(diffs[:40])
    assert len(sim_reads) == len(live_reads) > 0
    assert sim_reads == live_reads, "read payload digests diverged"


def test_live_runs_are_deterministic():
    """Two live runs of one seed match each other (not just the sim)."""
    spec = WORKLOADS["hybrid"]
    proj_a, reads_a = run(spec, "live")
    proj_b, reads_b = run(spec, "live")
    assert diff_projections(proj_a, proj_b) == []
    assert reads_a == reads_b


def test_offload_choice_does_not_change_state(monkeypatch):
    """Worker-pool codec offload must be invisible to the state machine."""
    spec = WORKLOADS["failure-and-recover"]
    # The tape's 4 KiB objects sit under the inline threshold: all on the loop.
    proj_inline, reads_inline = run(spec, "live")
    # Threshold 0: every digest, encode and reconstruct hops to a worker.
    monkeypatch.setattr("repro.live.service.INLINE_COMPUTE_BYTES", 0)
    proj_pool, reads_pool = run(spec, "live")
    assert diff_projections(proj_inline, proj_pool) == []
    assert reads_inline == reads_pool


def test_workloads_are_not_vacuous():
    """The tapes must actually exercise the paths they claim to cover."""
    rep = run(WORKLOADS["replication-only"], "sim")[0]
    assert rep["entities"] and all(
        e["state"] == "replicated" for e in rep["entities"].values()
    )
    hyb = run(WORKLOADS["hybrid"], "sim")[0]
    assert len(hyb["stripes"]) >= 2, "hybrid workload formed no stripes"
    fail = run(WORKLOADS["failure-and-recover"], "sim")[0]
    assert len(fail["stripes"]) >= 2
    assert all(not s["failed"] for s in fail["servers"]), "ends fully replaced"
    # Recovery actually ran: the projection is only comparable because
    # both backends completed the sweep; spot-check durability here.
    assert fail["read_errors"] == 0


def test_op_tapes_are_reproducible():
    for spec in WORKLOADS.values():
        tape = build_tape(spec)
        assert build_tape(spec).ops == tape.ops
        assert any(op.op == "put" for op in tape.ops)
        # The per-op drain is written into the tape, not into a runner.
        assert [op.op for op in tape.ops[1::2]] == ["quiesce"] * (len(tape) // 2)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_sim_projection_matches_pinned_digest(name):
    sha, n_ops, n_reads = PINNED[name]
    spec = WORKLOADS[name]
    assert sum(1 for op in build_tape(spec).ops if op.op != "quiesce") == n_ops
    projection, reads = run(spec, "sim")
    assert len(reads) == n_reads
    assert projection_sha256(projection) == sha


def test_diff_projections_names_the_sides_it_was_given():
    a = {"entities": {"x": 1}, "both": [1]}
    b = {"stripes": {"y": 2}, "both": [2]}
    assert diff_projections(a, b, ("sim", "cluster")) == [
        "both: [1] != [2]",
        "entities: only in sim",
        "stripes: only in cluster",
    ]
    assert diff_projections(a, b)[1:] == [
        "entities: only in left",
        "stripes: only in right",
    ]
