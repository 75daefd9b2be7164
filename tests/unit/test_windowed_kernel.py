"""Windowing a run from the caller must be invisible to the simulation.

A shard worker advances in conservative windows by calling
``sim.run(until=window_end)`` once per window with ``_advance_clock``
off (``repro.sim.shard._shard_worker``). A single-process simulation
sliced that way must produce bit-identical state, logs, and clock
whatever the window width.
"""

from repro.sim.kernel import Simulator


def _workload(sim):
    """A mixed workload with same-timestamp collisions and callbacks."""
    log = []

    def proc(name, gap, count):
        for index in range(count):
            yield sim.timeout(gap)
            log.append((sim.now, name, index))

    for name, gap in (("a", 7), ("b", 13), ("c", 7), ("d", 91)):
        sim.spawn(proc(name, gap, 40), name=name)
    sim.call_at(500, lambda: log.append((sim.now, "callback", -1)))
    return log


def _run_windows(sim, window_ns, until):
    """The shard worker's loop: one ``until`` slice per window."""
    queue = sim._queue
    sim._advance_clock = False
    try:
        while queue and (until is None or queue[0][0] <= until):
            end = queue[0][0] + window_ns
            sim.run(until=end if until is None else min(end, until))
    finally:
        sim._advance_clock = True
    if until is not None:
        sim.run(until=until)


def _run(window_ns, until=None):
    sim = Simulator(seed=3)
    log = _workload(sim)
    if window_ns:
        _run_windows(sim, window_ns, until)
    else:
        sim.run(until=until)
    return log, sim.now, sim._sequence


def test_windowed_run_matches_plain():
    plain = _run(0)
    for window in (1, 13, 100, 1300, 10**9):
        assert _run(window) == plain, f"window_ns={window} diverged"


def test_windowed_run_with_until_matches_plain():
    plain = _run(0, until=700)
    windowed = _run(50, until=700)
    assert windowed == plain
    assert windowed[1] == 700  # clock pinned to until either way
