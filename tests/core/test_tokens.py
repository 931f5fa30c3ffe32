"""Tests for the encoding-token workflow (load balance + conflict avoid)."""

import pytest

from repro.core.tokens import EncodingTokenManager
from repro.sim.engine import Simulator
from repro.staging.server import StagingServer


def hold_cpu(server, duration):
    """Process body: occupy ``server``'s CPU slot for ``duration``."""
    yield server.cpu.request()
    yield server.sim.timeout(duration)
    server.cpu.release()


def make(n=4, enabled=True):
    sim = Simulator()
    servers = [StagingServer(sim, i) for i in range(n)]
    mgr = EncodingTokenManager(sim, n_groups=2, servers=servers, enabled=enabled)
    return sim, servers, mgr


class TestChooseExecutor:
    def test_prefers_idle_server(self):
        sim, servers, mgr = make()
        # Load server 0 with queued work.
        def hog():
            yield from hold_cpu(servers[0], 100.0)
        sim.process(hog())
        sim.process(hog())
        sim.run(until=0.1)
        assert mgr.choose_executor([0, 1], preferred=0) == 1

    def test_preferred_breaks_ties(self):
        _, _, mgr = make()
        assert mgr.choose_executor([0, 1], preferred=1) == 1
        assert mgr.choose_executor([0, 1], preferred=0) == 0

    def test_skips_failed(self):
        _, servers, mgr = make()
        servers[0].fail()
        assert mgr.choose_executor([0, 1], preferred=0) == 1

    def test_all_failed_raises(self):
        _, servers, mgr = make()
        servers[0].fail()
        servers[1].fail()
        with pytest.raises(RuntimeError):
            mgr.choose_executor([0, 1], preferred=0)

    def test_disabled_returns_preferred(self):
        sim, servers, mgr = make(enabled=False)
        def hog():
            yield from hold_cpu(servers[0], 100.0)
        sim.process(hog())
        sim.process(hog())
        sim.run(until=0.1)
        # Even though 0 is busy, disabled mode sticks with the preferred.
        assert mgr.choose_executor([0, 1], preferred=0) == 0


class TestRunEncode:
    def test_serializes_per_group(self):
        sim, servers, mgr = make()
        log = []

        def work_factory(tag):
            def work(executor):
                log.append((sim.now, tag, "start", executor))
                yield sim.timeout(1.0)
                log.append((sim.now, tag, "end", executor))
                return tag
            return work

        def run(tag, group):
            result = yield from mgr.run_encode(group, [0, 1], 0, work_factory(tag))
            assert result == tag

        sim.process(run("a", 0))
        sim.process(run("b", 0))
        sim.run()
        # Group-0 encodes must not overlap.
        assert log[0][2] == "start" and log[1][2] == "end"
        assert log[1][0] <= log[2][0]

    def test_different_groups_parallel(self):
        sim, servers, mgr = make()
        ends = []

        def work(executor):
            yield sim.timeout(1.0)
            ends.append(sim.now)

        def run(group):
            yield from mgr.run_encode(group, [group * 2], group * 2, work)

        sim.process(run(0))
        sim.process(run(1))
        sim.run()
        assert ends == [1.0, 1.0]

    def test_offload_counted(self):
        sim, servers, mgr = make()

        def hog():
            yield from hold_cpu(servers[0], 100.0)

        sim.process(hog())
        sim.process(hog())

        def work(executor):
            yield sim.timeout(0.1)

        def run():
            yield sim.timeout(0.5)
            yield from mgr.run_encode(0, [0, 1], 0, work)

        sim.process(run())
        sim.run(until=10)
        assert mgr.offloaded == 1
        assert mgr.encodes_by_server.get(1) == 1

    def test_token_released_on_error(self):
        sim, servers, mgr = make()

        def bad(executor):
            yield sim.timeout(0.1)
            raise ValueError("encode failed")

        def good(executor):
            yield sim.timeout(0.1)

        errors = []

        def run_bad():
            try:
                yield from mgr.run_encode(0, [0], 0, bad)
            except ValueError as e:
                errors.append(str(e))

        done = []

        def run_good():
            yield from mgr.run_encode(0, [0], 0, good)
            done.append(sim.now)

        sim.process(run_bad())
        sim.process(run_good())
        sim.run()
        assert errors == ["encode failed"]
        assert done  # second encode proceeded: token was released
