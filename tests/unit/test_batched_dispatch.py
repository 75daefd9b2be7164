"""Equivalence tests for the batched same-timestamp dispatch loop.

The PR-5 rewrite pops every queue entry sharing one timestamp and
dispatches the batch without re-touching the heap per event; NIC
engines additionally chain consecutive WQEs and coalesce deliveries.
All of it is only admissible because it is *invisible*:
``fast_dispatch=False`` keeps the original one-pop-at-a-time loop as
the oracle, and these tests assert bit-for-bit identical event orders
— on randomized process soups, with tracing off and on, on a real NIC
workload, and across the parallel sweep runner (worker processes
flipped to the oracle via ``REPRO_FAST_DISPATCH``).
"""

import os
import random

import pytest

from repro.bench.parallel import make_specs, run_parallel, run_serial
from repro.hw import Cluster
from repro.obs import TRACER
from repro.rdma import AccessFlags, FLAG_SIGNALED, Opcode, Wqe
from repro.sim import AnyOf, Event, Simulator, US


@pytest.fixture(autouse=True)
def _tracer_off():
    TRACER.disable()
    TRACER.reset()
    yield
    TRACER.disable()
    TRACER.reset()


def _random_soup(seed, fast_dispatch, traced=False):
    """A randomized process soup covering every dispatch shape.

    Zero-delay timeouts, hops, event ping-pong, AnyOf composition,
    call_at callbacks, interrupts, and process joins — all scheduled
    from one seeded RNG so same-timestamp contention (the regime the
    batched loop rewrites) is maximal. Returns the resume log.
    """
    sim = Simulator(seed=seed, fast_dispatch=fast_dispatch)
    if traced:
        TRACER.enable()
        TRACER.install(sim)
    plan = random.Random(seed)
    log = []
    gates = [Event(sim, f"gate{i}") for i in range(3)]

    def timer(index):
        rng = sim.rng(f"timer/{index}")
        for step in range(plan.randrange(10, 40)):
            log.append((sim.now, "timer", index, step))
            yield sim.timeout(rng.randrange(0, 4))  # mostly same-time

    def hopper(index):
        for step in range(plan.randrange(5, 25)):
            log.append((sim.now, "hopper", index, step))
            if step % 3 == 0:
                yield sim.hop()
            else:
                yield sim.timeout(1)

    def waiter(index, gate):
        value = yield gate
        log.append((sim.now, "waiter", index, value))
        yield sim.timeout(0)
        log.append((sim.now, "waiter", index, "done"))

    def any_waiter(index):
        result = yield AnyOf(sim, [gates[index % 3], sim.timeout(plan.randrange(5, 30))])
        log.append((sim.now, "any", index, len(result)))

    def victim(index):
        try:
            yield sim.timeout(1000)
            log.append((sim.now, "victim", index, "survived"))
        except Exception:
            log.append((sim.now, "victim", index, "interrupted"))

    def joiner(index, target):
        yield target
        log.append((sim.now, "joiner", index, "joined"))

    procs = []
    for index in range(plan.randrange(4, 9)):
        procs.append(sim.spawn(timer(index)))
    for index in range(plan.randrange(2, 5)):
        procs.append(sim.spawn(hopper(index)))
    for index in range(plan.randrange(2, 6)):
        sim.spawn(waiter(index, gates[plan.randrange(3)]))
    for index in range(plan.randrange(1, 4)):
        sim.spawn(any_waiter(index))
    victims = [sim.spawn(victim(index)) for index in range(2)]
    sim.spawn(joiner(0, procs[0]))
    for i, gate in enumerate(gates):
        sim.call_at(plan.randrange(3, 25), lambda g=gate, i=i: g.succeed(i))
    interrupt_at = plan.randrange(2, 20)
    for index, proc in enumerate(victims):
        sim.call_at(interrupt_at, lambda p=proc, i=index: p.interrupt(f"chaos{i}"))
    sim.call_at(plan.randrange(1, 15), lambda: log.append((sim.now, "cb", 0, None)))
    sim.run()
    log.append(("final", sim.now))
    return log


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("seed", [1, 7, 23, 91, 404, 1759])
    def test_batched_matches_generic(self, seed):
        assert _random_soup(seed, True) == _random_soup(seed, False)

    @pytest.mark.parametrize("seed", [7, 404])
    def test_batched_matches_generic_traced(self, seed):
        """A traced fast-dispatch run (the generic loop under the
        tracer's dispatch wrapper, fire markers and all) must reproduce
        the same interleaving as a traced generic-dispatch run *and* as
        the untraced batched loop."""
        untraced = _random_soup(seed, True)
        batched = _random_soup(seed, True, traced=True)
        batched_dispatches = TRACER.dispatches
        assert batched_dispatches > 0
        TRACER.disable()
        TRACER.reset()
        generic = _random_soup(seed, False, traced=True)
        assert TRACER.dispatches > 0
        assert batched == generic == untraced

    def test_env_var_flips_default_dispatch_mode(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAST_DISPATCH", "0")
        assert Simulator()._fast_dispatch is False
        monkeypatch.setenv("REPRO_FAST_DISPATCH", "1")
        assert Simulator()._fast_dispatch is True
        monkeypatch.delenv("REPRO_FAST_DISPATCH")
        assert Simulator()._fast_dispatch is True
        # An explicit argument always wins over the environment.
        monkeypatch.setenv("REPRO_FAST_DISPATCH", "0")
        assert Simulator(fast_dispatch=True)._fast_dispatch is True


def _nic_workload(fast_dispatch):
    """Posts, doorbells, WAIT chaining, and a channel consumer on a
    real two-host cluster; returns every observable: consumer wakeups,
    polled completions with timestamps, and remote memory bytes."""
    sim = Simulator(seed=17, fast_dispatch=fast_dispatch)
    cluster = Cluster(sim, n_hosts=2, n_cores=2)
    a, b = cluster[0], cluster[1]
    qp_a = a.dev.create_qp(name="a")
    qp_b = b.dev.create_qp(name="b")
    qp_a.connect(qp_b)
    buf_a = a.memory.alloc(8192, label="buf_a")
    buf_b = b.memory.alloc(8192, label="buf_b")
    a.dev.reg_mr(buf_a, AccessFlags.ALL_REMOTE)
    mr_b = b.dev.reg_mr(buf_b, AccessFlags.ALL_REMOTE)
    log = []

    def consumer():
        while len(log) < 12:
            event = qp_a.send_cq.next_event()
            if not event.triggered:
                yield event
            for entry in qp_a.send_cq.poll():
                log.append((sim.now, entry.wr_id, entry.ok))
            yield sim.timeout(0)

    sim.spawn(consumer())

    def producer():
        # Burst-post to exercise the send engine's chained execution,
        # then trickle to exercise doorbell kicks from idle.
        for index in range(8):
            buf_a.write(index * 8, bytes([index + 1]) * 8)
            qp_a.post_send(
                Wqe(
                    opcode=Opcode.WRITE,
                    flags=FLAG_SIGNALED,
                    length=8,
                    local_addr=buf_a.addr + index * 8,
                    remote_addr=buf_b.addr + index * 8,
                    rkey=mr_b.rkey,
                    wr_id=index,
                )
            )
        yield sim.timeout(50 * US)
        for index in range(8, 12):
            qp_a.post_send(
                Wqe(
                    opcode=Opcode.WRITE,
                    flags=FLAG_SIGNALED,
                    length=8,
                    local_addr=buf_a.addr,
                    remote_addr=buf_b.addr + index * 8,
                    rkey=mr_b.rkey,
                    wr_id=index,
                )
            )
            yield sim.timeout(2 * US)

    sim.spawn(producer())
    sim.run(until=10_000 * US)
    log.append(("memory", b.nic.cache.read(buf_b.addr, 96)))
    log.append(("final", sim.now, qp_a.send_cq.completions_total))
    return log


class TestNicWorkloadEquivalence:
    def test_nic_batched_matches_generic(self):
        assert _nic_workload(True) == _nic_workload(False)

    def test_nic_batched_matches_generic_traced(self):
        TRACER.enable()
        batched = _nic_workload(True)
        assert TRACER.dispatches > 0
        TRACER.disable()
        TRACER.reset()
        assert batched == _nic_workload(False)


QUICK = dict(
    system="hyperloop",
    message_size=256,
    n_ops=30,
    stress_per_core=1,
    pipeline_depth=2,
    n_cores=4,
    rounds=256,
)


class TestParallelEquivalence:
    def test_worker_processes_match_generic_oracle(self, monkeypatch):
        """A sweep's worker processes run batched by default; the same
        sweep with workers flipped to the generic loop (via the
        ``REPRO_FAST_DISPATCH`` environment, inherited at pool start)
        must produce identical normalized results."""
        specs = make_specs("latency", base_seed=7, n_seeds=2, **QUICK)
        batched = run_parallel(specs, workers=2)
        monkeypatch.setenv("REPRO_FAST_DISPATCH", "0")
        generic = run_parallel(specs, workers=2)
        assert batched == generic
        # And both match the in-process serial reference (which here
        # runs generic too, proving the env gate reaches this process).
        serial = run_serial(specs)
        assert serial == generic
