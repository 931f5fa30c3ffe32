"""Property-based tests of CoREC's transcode state machine.

Hypothesis generates interleavings of writes, reads, step barriers,
single-server failure/replace pairs and direct transition requests
against a CoREC service with a low storage bound.  ``demote`` and
``promote`` ops call the policy's own primitives (``_schedule_demotion``,
``_maybe_schedule_promotion``) on an entity currently replicated or
encoded and not in flight, so transitions race traffic and failures far
more often than the classifier alone would make them.  After draining,
every entity ever written must read back byte-exactly (digest-verified
through the real read paths) and the full quiescent invariant suite must
hold — regardless of how transcodes interleaved with traffic and
failures.  A companion test walks the same seeded examples and counts how
many completed a demotion and scheduled a promotion (18 and 11 of 20), so
the property cannot quietly stop exercising the machine it is about.

Two deterministic pins ride along: scheduling a demotion twice is
idempotent, and a transcode cancelled by a mid-flight server failure
leaves the entity readable (the old protection form outlives the
attempt).
"""

from hypothesis import given, seed, settings, strategies as st

from repro import CoRECConfig, CoRECPolicy, StagingConfig, StagingService
from repro.chaos.invariants import QUIESCENT, run_invariants
from repro.staging.objects import ResilienceState

N_SERVERS = 8
VARS = ("u", "v")


def make_service() -> StagingService:
    return StagingService(
        StagingConfig(n_servers=N_SERVERS, domain_shape=(32, 64, 64), object_max_bytes=4096),
        CoRECPolicy(CoRECConfig(storage_bound=0.4)),
    )


# One op: (kind, variable index, block slot).  Failure ops carry a server
# slot, transition ops an index into the eligible entities; ``drive`` maps
# slots onto the domain/cluster and keeps at most one server's data missing
# at a time (RS(3,1) tolerates exactly one): a server is failed only while
# none is down and every replacement's lazy sweep has finished.  Writes and
# demotions are weighted up so stripes form mid-run and promotions have
# encoded entities to draw from.
KINDS = ["write"] * 6 + ["read", "step", "fail", "replace"] + ["demote"] * 6 + ["promote"] * 3
OPS = st.lists(
    st.tuples(
        st.sampled_from(KINDS),
        st.integers(min_value=0, max_value=1),
        st.integers(min_value=0, max_value=63),
    ),
    min_size=24,
    max_size=80,
)


def eligible(svc: StagingService, state: ResilienceState) -> list:
    return [e for e in svc.directory.entities_in_state(state) if not e.transition_in_flight]


def drive(svc: StagingService, ops) -> set:
    """Run the op list through the service; returns the written key set."""
    written: set = set()
    down: list[int] = []
    recovery = svc.policy.recovery
    sweeps_due = 0  # one lazy sweep per replacement so far

    def flow():
        nonlocal sweeps_due
        for kind, vi, slot in ops:
            var = VARS[vi]
            block = slot % svc.domain.n_blocks
            if kind == "write":
                yield from svc.put("w", var, svc.domain.block_bbox(block))
                written.add((var, block))
            elif kind == "read" and (var, block) in written:
                yield from svc.get("r", var, svc.domain.block_bbox(block))
            elif kind == "step":
                yield from svc.end_step()
            elif kind == "fail" and not down and recovery.sweeps_finished >= sweeps_due:
                sid = slot % N_SERVERS
                svc.fail_server(sid)
                down.append(sid)
            elif kind == "replace" and down:
                svc.replace_server(down.pop())
                sweeps_due += 1
            elif kind == "demote":
                ents = eligible(svc, ResilienceState.REPLICATED)
                if ents:
                    svc.policy._schedule_demotion(ents[slot % len(ents)])
            elif kind == "promote":
                ents = eligible(svc, ResilienceState.ENCODED)
                if ents:
                    svc.policy._maybe_schedule_promotion(ents[slot % len(ents)])
        # Drain: bring everything back, flush all protection work.
        while down:
            svc.replace_server(down.pop())
        yield from svc.end_step()
        yield from svc.flush()

    svc.run_workflow(flow())
    svc.run()
    return written


def check_durability(ops) -> dict:
    """Drive ``ops``, require every entity back and the quiescent invariants;
    returns the run's counters."""
    svc = make_service()
    written = drive(svc, ops)
    audit = svc.verify_all()
    assert not audit["unrecoverable"], f"lost entities after {len(ops)} ops"
    assert audit["verified"] == len(written)
    violations = run_invariants(svc, tier=QUIESCENT)
    assert not violations, [str(v) for v in violations]
    return svc.metrics.snapshot()["counters"]


# The durability property and the count below walk the same examples: one
# fixed seed, no example database.
EXAMPLES = 20
EXAMPLES_SEED = 0
same_examples = settings(max_examples=EXAMPLES, deadline=None, database=None)


@given(OPS)
@seed(EXAMPLES_SEED)
@same_examples
def test_interleavings_preserve_durability_and_reads(ops):
    check_durability(ops)


def test_the_examples_exercise_both_directions():
    """Over the durability property's own examples, demotions complete and
    promotions get scheduled in a good share of them."""
    counters: list[dict] = []

    @given(OPS)
    @seed(EXAMPLES_SEED)
    @same_examples
    def collect(ops):
        counters.append(check_durability(ops))

    collect()
    assert len(counters) == EXAMPLES
    demoted = sum(1 for c in counters if c.get("transitions_to_encoded", 0) > 0)
    promoted = sum(1 for c in counters if c.get("promotions_scheduled", 0) > 0)
    assert demoted >= 10, demoted
    assert promoted >= 5, promoted


@given(OPS)
@settings(max_examples=10, deadline=None, derandomize=True)
def test_interleavings_read_back_byte_exact(ops):
    """Every written entity re-reads digest-verified through the real path."""
    svc = make_service()
    written = drive(svc, ops)

    def reread():
        for var, block in sorted(written):
            yield from svc.get("audit", var, svc.domain.block_bbox(block), verify=True)

    svc.run_workflow(reread())
    svc.run()
    assert svc.read_errors == 0


class TestDeterministicPins:
    def stage_one(self, svc):
        def flow():
            yield from svc.put("w", "u", svc.domain.block_bbox(0))
            yield from svc.end_step()

        svc.run_workflow(flow())
        svc.run()
        return svc.directory.get("u", 0)

    def test_double_demotion_schedule_is_idempotent(self):
        svc = make_service()
        ent = self.stage_one(svc)
        assert ent.state == ResilienceState.REPLICATED
        svc.policy._schedule_demotion(ent)
        svc.policy._schedule_demotion(ent)  # second is a no-op once in flight
        svc.run()

        def drain():
            yield from svc.end_step()
            yield from svc.flush()

        svc.run_workflow(drain())
        svc.run()
        audit = svc.verify_all()
        assert not audit["unrecoverable"]
        assert svc.metrics.snapshot()["counters"]["demotions_scheduled"] == 2
        # Exactly one stripe membership resulted despite two schedules.
        assert sum(
            1
            for stripe in svc.directory.stripes.values()
            for mk in stripe.members
            if mk == ("u", 0)
        ) <= 1

    def test_cancelled_demotion_keeps_entity_readable(self):
        """A server failure racing the demotion aborts it cleanly: the
        entity keeps its pre-transcode protection and stays readable."""
        svc = make_service()
        ent = self.stage_one(svc)
        svc.policy._schedule_demotion(ent)
        # Kill the primary before the background encode can run.
        svc.fail_server(ent.primary)
        svc.run()
        svc.replace_server(ent.primary)

        def drain():
            yield from svc.end_step()
            yield from svc.flush()

        svc.run_workflow(drain())
        svc.run()
        audit = svc.verify_all()
        assert not audit["unrecoverable"]
        assert not ent.transition_in_flight
