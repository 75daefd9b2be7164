"""S4: tracing must be observationally invisible to the simulation.

Two directions, both bit-for-bit:

* **Tracing off** — a simulator built with the tracer dark runs the
  original loop, so event order matches the seed kernel exactly (the
  fast-vs-generic harness from ``test_kernel_perf`` stands in for the
  pre-obs kernel, same as it stood in for the pre-rewrite one).
* **Tracing on** — ``run()`` takes the generic loop with
  ``Tracer.dispatch`` wrapping each call, in either dispatch mode. It
  pops the same heap entries in the same order as the untraced loops,
  never schedules events, never consumes randomness: the
  event interleaving and full experiment outputs (stats *and* raw
  samples) are identical to an untraced run of the same seed.
"""

import dataclasses

import pytest

from repro.bench.experiments import microbench_latency
from repro.obs import TRACER, tracing
from repro.sim import Event, Simulator


@pytest.fixture(autouse=True)
def _tracer_off():
    TRACER.disable()
    TRACER.reset()
    yield
    TRACER.disable()
    TRACER.reset()


def mixed_run(fast_dispatch=True, until=None, chunk=None):
    """Timeouts + triggered events + callbacks: every dispatch shape
    a traced run must reproduce. Returns the resume log + final now."""
    sim = Simulator(seed=11, fast_dispatch=fast_dispatch)
    log = []
    gate = Event(sim)

    def waiter(name):
        value = yield gate
        log.append((sim.now, name, value))
        yield sim.timeout(4)
        log.append((sim.now, name, "done"))

    def ticker(index):
        rng = sim.rng(f"tick/{index}")
        for step in range(25):
            log.append((sim.now, index, step))
            yield sim.timeout(rng.randrange(0, 6))

    for name in ("w0", "w1"):
        sim.spawn(waiter(name))
    for index in range(8):
        sim.spawn(ticker(index))
    sim.call_at(15, lambda: log.append((sim.now, "callback", None)))
    sim.call_at(20, lambda: gate.succeed("open"))
    if chunk:
        while sim._queue and (until is None or sim.now < until):
            sim.run(until=min(sim.now + chunk, until) if until else sim.now + chunk)
            if until is None and not sim._queue:
                break
    else:
        sim.run(until=until)
    return log, sim.now


def latency_output(**overrides):
    """Normalized output of a tiny Fig-8 slice (stats + raw samples)."""
    params = dict(
        system="hyperloop",
        message_size=256,
        n_ops=20,
        stress_per_core=1,
        pipeline_depth=2,
        n_cores=4,
        rounds=256,
        seed=7,
    )
    params.update(overrides)
    system = params.pop("system")
    return dataclasses.asdict(microbench_latency(system, **params))


class TestTracingOffMatchesSeedKernel:
    def test_fast_dispatch_matches_generic_with_obs_merged(self):
        # Same acceptance bar the hot-path rewrite had to clear: with
        # the observability layer merged but dark, the fast and generic
        # loops still interleave identically.
        assert mixed_run(True) == mixed_run(False)

    def test_repeated_runs_identical(self):
        assert mixed_run() == mixed_run()


class TestTracingOnIsInvisible:
    def test_event_order_identical_traced_vs_untraced(self):
        untraced = mixed_run()
        with tracing():
            traced = mixed_run()
        assert traced == untraced

    def test_generic_dispatch_path_also_identical(self):
        untraced = mixed_run(fast_dispatch=False)
        with tracing():
            traced = mixed_run(fast_dispatch=False)
        assert traced == untraced

    def test_until_semantics_identical(self):
        untraced = mixed_run(until=17)
        with tracing():
            traced = mixed_run(until=17)
        assert traced == untraced
        # until beyond the last event advances the clock identically
        untraced_far = mixed_run(until=10_000)
        with tracing():
            traced_far = mixed_run(until=10_000)
        assert traced_far == untraced_far
        assert traced_far[1] == 10_000

    def test_chunked_runs_identical(self):
        # run_until()-style repeated run(until=now+chunk) calls: the
        # traced run must honour the same clock-advance rules.
        untraced = mixed_run(until=120, chunk=7)
        with tracing():
            traced = mixed_run(until=120, chunk=7)
        assert traced == untraced

    def test_record_kernel_off_still_identical(self):
        untraced = mixed_run()
        with tracing(record_kernel=False):
            traced = mixed_run()
        assert traced == untraced


class TestExperimentOutputsUnchanged:
    def test_fig8_slice_identical_traced_vs_untraced(self):
        untraced = latency_output()
        with tracing():
            traced = latency_output()
        # Full structural equality: latency stats, per-op raw samples,
        # error list — nothing about the simulated result may move.
        assert traced == untraced
        assert traced["samples_ns"] == untraced["samples_ns"]
        assert len(traced["samples_ns"]) == traced["stats"]["count"]

    def test_traced_run_actually_traced(self):
        with tracing() as tracer:
            latency_output()
        assert tracer.dispatches > 0
        cats = {rec.cat for rec in tracer.iter_records()}
        assert {"kernel", "nic", "fabric", "scheduler", "group"} <= cats
