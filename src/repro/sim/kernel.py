"""The discrete-event simulation kernel.

A :class:`Simulator` owns a priority queue of scheduled triggers and a
virtual clock in **integer nanoseconds**. Behaviour is expressed as
*processes*: Python generators that ``yield`` events to block on
(:mod:`repro.sim.events`). This is the same execution model as SimPy,
re-implemented here so the whole substrate is self-contained and every
scheduling decision is inspectable.

The kernel is the ceiling on every experiment's wall-clock time, so
its inner loop is deliberately hand-optimized (see
``docs/INTERNALS.md``, *Performance*): bare timeouts dispatch through
a claimed fast path with zero callback machinery, timeout objects are
pooled and recycled, and generator resumption happens without
per-step closure allocation. ``Simulator(fast_dispatch=False)`` runs
the generic path instead; both produce bit-for-bit identical event
orderings (asserted by ``tests/unit/test_kernel_perf.py``).

There are exactly two run loops: the batched same-timestamp loop
(untraced fast dispatch) and the one-pop-at-a-time generic loop, the
oracle, which also carries traced runs through the tracer's dispatch
wrapper (:meth:`Simulator.run`).

Example
-------
>>> from repro.sim import Simulator
>>> sim = Simulator()
>>> log = []
>>> def worker(sim, label, delay):
...     yield sim.timeout(delay)
...     log.append((sim.now, label))
>>> _ = sim.spawn(worker(sim, "a", 30))
>>> _ = sim.spawn(worker(sim, "b", 10))
>>> sim.run()
>>> log
[(10, 'b'), (30, 'a')]
"""

from __future__ import annotations

import os
import random
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

from .events import AllOf, AnyOf, Event, EventFailed, Hop, Interrupt, Timeout
from ..obs.trace import TRACER

__all__ = ["Simulator", "Process", "SimulationError"]

# Upper bound on pooled Timeout instances kept for reuse. Sized for
# "every concurrently-blocked engine in a large cluster", far above
# steady-state demand; beyond it, retired timeouts are simply dropped.
_TIMEOUT_POOL_MAX = 512


class SimulationError(RuntimeError):
    """Raised for kernel-level misuse (deadlock, bad yields, ...)."""


class Process(Event):
    """A running generator, joinable as an event.

    The process event triggers when the generator finishes: it succeeds
    with the generator's return value, or fails with the uncaught
    exception. Other processes may ``yield process`` to join it.
    """

    __slots__ = ("generator", "_waiting_on")

    def __init__(self, sim, generator: Generator, name: str = ""):
        super().__init__(sim, name=name or getattr(generator, "__name__", "process"))
        if not hasattr(generator, "send"):
            raise TypeError(f"spawn() requires a generator, got {generator!r}")
        self.generator = generator
        self._waiting_on: Optional[Event] = None
        # Kick off the process at the current simulation time, but via
        # the event queue so spawn order does not reorder side effects
        # relative to already-scheduled work at the same timestamp.
        sim._schedule_call(0, self._resume, None, None)

    @property
    def alive(self) -> bool:
        """True until the generator has finished."""
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is a no-op. The event the
        process was waiting on is abandoned (its trigger will find no
        waiter).
        """
        if self._triggered:
            return
        self.sim._schedule_call(0, self._throw, Interrupt(cause), None)

    # -- kernel plumbing ---------------------------------------------------

    def _resume(self, send_value: Any, recycle: Optional[Timeout]) -> None:
        """Advance the generator with ``send_value``.

        ``recycle`` is the claimed Timeout that produced this resume
        (fast path), returned to the simulator's pool once the step has
        run; the generic path passes ``None``.
        """
        sim = self.sim
        try:
            target = self.generator.send(send_value)
        except StopIteration as stop:
            if recycle is not None:
                sim._recycle_timeout(recycle)
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate via event
            if recycle is not None:
                sim._recycle_timeout(recycle)
            self.fail(exc)
            return
        if recycle is not None:
            pool = sim._timeout_pool
            if len(pool) < _TIMEOUT_POOL_MAX:
                pool.append(recycle)
        # _wait_on's claim check, inlined: this is the hottest branch
        # in the whole simulator (every bare timeout yield lands here).
        if (
            target.__class__ is Timeout
            and target._proc is None
            and not target._triggered
            and not target._callbacks
            and sim._fast_dispatch
        ):
            target._proc = self
            self._waiting_on = target
            return
        self._wait_on(target)

    def _throw(self, exc: BaseException, _unused: Any) -> None:
        if self._triggered:
            return
        self._waiting_on = None
        try:
            target = self.generator.throw(exc)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as err:  # noqa: BLE001 - propagate via event
            self.fail(err)
            return
        self._wait_on(target)

    # A failure delivered through the event queue takes the same path
    # as an interrupt: throw into the generator, then wait on whatever
    # it yields next.
    _deferred_throw = _throw

    def _wait_on(self, target: Any) -> None:
        """Block this process on ``target``.

        Fast path: a fresh, unobserved Timeout is *claimed* — its
        scheduled entry will resume this process directly, skipping
        callback registration and the generic trigger walk. The claim
        preserves heap-operation order exactly, so fast and generic
        dispatch produce identical event interleavings.
        """
        if (
            target.__class__ is Timeout
            and target._proc is None
            and not target._triggered
            and not target._callbacks
            and self.sim._fast_dispatch
        ):
            target._proc = self
            self._waiting_on = target
            return
        if target.__class__ is Hop:
            # One queue hop at the current time: push the resume
            # directly, exactly where a pre-triggered event's
            # _on_event push would land. The hop itself never
            # triggers and is shared — nothing to clean up.
            sim = self.sim
            batch = sim._batch
            if batch is not None:
                batch.append((self._resume, (None, None)))
            else:
                sim._sequence += 1
                heappush(
                    sim._queue, (sim.now, sim._sequence, self._resume, (None, None))
                )
            return
        if not isinstance(target, Event):
            self._throw(
                SimulationError(
                    f"process {self.name!r} yielded {target!r}; "
                    "processes may only yield Event instances"
                ),
                None,
            )
            return
        self._waiting_on = target
        target.add_callback(self._on_event)

    def _on_event(self, event: Event) -> None:
        if self._waiting_on is not event:
            # The process was interrupted (or finished) while waiting;
            # drop the stale wakeup.
            return
        self._waiting_on = None
        # Resume via the event queue (same timestamp, FIFO) rather than
        # synchronously: a trigger must never re-enter process code in
        # the middle of whatever call stack fired it. (Concretely: a
        # driver posting a receive must finish posting before the NIC
        # process that was blocked on that doorbell runs.)
        sim = self.sim
        batch = sim._batch
        if event._ok:
            if batch is not None:
                batch.append((self._resume, (event._value, None)))
            else:
                sim._sequence += 1
                heappush(
                    sim._queue,
                    (sim.now, sim._sequence, self._resume, (event._value, None)),
                )
        else:
            exc = event._value
            if not isinstance(exc, BaseException):
                exc = EventFailed(exc)
            if batch is not None:
                batch.append((self._deferred_throw, (exc, None)))
            else:
                sim._sequence += 1
                heappush(
                    sim._queue,
                    (sim.now, sim._sequence, self._deferred_throw, (exc, None)),
                )


class Simulator:
    """Event loop and virtual clock (integer nanoseconds).

    Parameters
    ----------
    seed:
        Seed for the simulator's root RNG. Components should derive
        their own streams via :meth:`rng` so experiment results are
        reproducible regardless of construction order.
    fast_dispatch:
        Enable the claimed-timeout fast path, timeout pooling, and the
        batched same-timestamp run loop (default). Disabling it routes
        every event through the generic one-pop-at-a-time trigger
        machinery; results are bit-for-bit identical either way — the
        flag exists for the equivalence tests and as an escape hatch.
        ``None`` (the default) reads the ``REPRO_FAST_DISPATCH``
        environment variable (``0``/``false``/``no`` disable), which
        lets sweep worker *processes* be flipped to the generic oracle
        without plumbing the flag through every runner signature.
    """

    def __init__(self, seed: int = 0, fast_dispatch: Optional[bool] = None):
        self.now: int = 0
        self.seed = seed
        self._queue: list = []
        self._sequence = 0
        self._running = False
        self._process_count = 0
        self._root_rng = random.Random(seed)
        if fast_dispatch is None:
            fast_dispatch = os.environ.get(
                "REPRO_FAST_DISPATCH", "1"
            ).lower() not in ("0", "false", "no")
        self._fast_dispatch = fast_dispatch
        # When False, a bounded run leaves the clock at the last
        # dispatched event instead of advancing to ``until`` — a shard
        # worker runs its windows as ``until`` slices with this off, so
        # its final clock matches an unwindowed run exactly.
        self._advance_clock = True
        self._timeout_pool: list = []
        self._hop: Optional[Hop] = None
        # Active same-timestamp dispatch batch (batched loop only). While
        # run() is draining one timestamp, every push targeting the
        # current time appends here instead of touching the heap; the
        # batch is dispatched in append order, which equals seq order,
        # so interleavings match the generic path exactly.
        self._batch: Optional[list] = None
        # Observability hook: None on the fast path. A tracer attaches
        # itself only to simulators constructed while tracing is
        # enabled (or via Tracer.install), so untraced runs never see
        # its per-dispatch wrapper.
        self._obs = None
        if TRACER.enabled:
            TRACER.install(self)

    # -- randomness --------------------------------------------------------

    def rng(self, label: str) -> random.Random:
        """Return a deterministic RNG stream for ``label``.

        Streams are independent of the order in which components ask
        for them: the stream seed is derived from ``(simulator seed,
        label)`` only.
        """
        return random.Random(f"{self.seed}/{label}")

    # -- event construction -------------------------------------------------

    def event(self, name: str = "") -> Event:
        """Create a fresh pending :class:`Event`."""
        return Event(self, name=name)

    def hop(self) -> Hop:
        """The simulator's shared zero-delay re-dispatch point.

        ``yield sim.hop()`` resumes the process after exactly one
        event-queue hop at the current time — see
        :class:`~repro.sim.events.Hop`. One instance is shared by all
        processes; it is never triggered, only claimed per yield.
        """
        hop = self._hop
        if hop is None:
            hop = self._hop = Hop(self, "hop")
        return hop

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` ns from now.

        Reuses a pooled instance when one is available; see
        :class:`~repro.sim.events.Timeout` for the (kernel-owned
        once yielded bare) ownership rule.
        """
        # Validate once, before the pool check: both the pooled and the
        # cold construction path must reject the same inputs, or the
        # same call site raises or not depending on pool state.
        delay = int(delay)
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        pool = self._timeout_pool
        if pool:
            timeout = pool.pop()
            # Pooled instances arrive from Timeout._fire's claimed
            # path, which guarantees _proc is None, _ok is True, and
            # _callbacks is still an (empty) list — only the fields
            # that vary per arm need a store here.
            timeout._triggered = False
            timeout.delay = delay
            timeout._tvalue = value
            # The pool only fills on the fast path, so rearms always
            # schedule the batched loop's fire marker (timeout, None).
            if delay == 0 and self._batch is not None:
                self._batch.append((timeout, None))
            else:
                self._sequence += 1
                heappush(
                    self._queue,
                    (self.now + delay, self._sequence, timeout, None),
                )
            return timeout
        return Timeout(self, delay, value)

    def _recycle_timeout(self, timeout: Timeout) -> None:
        """Return a consumed fast-path timeout to the pool."""
        pool = self._timeout_pool
        if len(pool) < _TIMEOUT_POOL_MAX:
            pool.append(timeout)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event triggering when the first of ``events`` triggers."""
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event triggering when all of ``events`` have triggered."""
        return AllOf(self, events)

    def spawn(self, generator: Generator, name: str = "") -> Process:
        """Start a new process running ``generator``."""
        self._process_count += 1
        return Process(self, generator, name=name)

    # -- scheduling --------------------------------------------------------

    def call_at(self, time: int, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` at absolute virtual time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule into the past: {time} < now={self.now}"
            )
        if time == self.now and self._batch is not None:
            self._batch.append((fn, args))
            return
        self._sequence += 1
        heappush(self._queue, (time, self._sequence, fn, args))

    def call_in(self, delay: int, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` ns."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        delay = int(delay)
        if delay == 0 and self._batch is not None:
            self._batch.append((fn, args))
            return
        self._sequence += 1
        heappush(self._queue, (self.now + delay, self._sequence, fn, args))

    def _schedule_call(self, delay: int, fn: Callable, a: Any, b: Any) -> None:
        delay = int(delay)
        if delay == 0 and self._batch is not None:
            self._batch.append((fn, (a, b)))
            return
        self._sequence += 1
        heappush(self._queue, (self.now + delay, self._sequence, fn, (a, b)))

    def _schedule_trigger(self, delay: int, event: Event, value: Any) -> None:
        delay = int(delay)
        if delay == 0 and self._batch is not None:
            self._batch.append((event.succeed, (value,)))
            return
        self._sequence += 1
        heappush(self._queue, (self.now + delay, self._sequence, event.succeed, (value,)))

    def _push(self, time: int, fn: Callable, args: tuple) -> None:
        if time == self.now and self._batch is not None:
            self._batch.append((fn, args))
            return
        self._sequence += 1
        heappush(self._queue, (time, self._sequence, fn, args))

    # -- execution ---------------------------------------------------------

    def run(self, until: Optional[int] = None) -> int:
        """Run until the queue drains or the clock passes ``until``.

        Returns the final value of :attr:`now`. When ``until`` is given
        the clock is advanced exactly to it even if the last event fired
        earlier, so back-to-back ``run(until=...)`` calls tile time.
        Windowing is done this way, by the caller: a sharded worker runs
        one ``until`` slice per window with ``_advance_clock`` off.

        A reentrant call raises :class:`SimulationError` before it
        changes any state. Then one of two loops runs. Untraced
        fast-dispatch simulators run the batched loop
        (:meth:`_run_batched`); everything else runs the
        one-pop-at-a-time :meth:`_run_generic`, the equivalence oracle,
        which a tracer enters with its
        :meth:`~repro.obs.trace.Tracer.dispatch` wrapper as the
        dispatch hook. Batched, generic and traced runs dispatch in the
        same order. Tracing is chosen here, once per call, so the
        untraced hot path never calls a dispatch function per event.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        obs = self._obs
        if obs is not None and obs.enabled:
            return self._run_generic(until, obs.dispatch)
        if self._fast_dispatch:
            return self._run_batched(until)
        return self._run_generic(until, None)

    def _run_batched(self, until: Optional[int]) -> int:
        """The fast loop: dispatch in same-timestamp batches.

        Every heap entry at the head timestamp is popped into ``batch``
        as an ``(fn, args)`` pair, then the batch is walked once. While
        the batch is installed as ``self._batch``, every push targeting
        the current time (claimed-timeout resumes, zero-delay calls)
        appends to it instead of round-tripping through the heap; the
        walk picks those up in push order. The popped entries carry
        seqs assigned before any of them ran, so they precede every
        such push, and the order is exactly the generic loop's
        ``(time, seq)`` order.
        """
        self._running = True
        queue = self._queue
        pop = heappop
        batch: list = []
        append = batch.append
        walk = None
        # The batch stays installed across timestamps: between batches
        # no user code runs, so nothing can push while it is "idle".
        self._batch = batch
        try:
            while queue:
                time = queue[0][0]
                if until is not None and time > until:
                    break
                self.now = time
                del batch[:]
                while True:
                    _t, _seq, fn, args = pop(queue)
                    append((fn, args))
                    if not queue or queue[0][0] != time:
                        break
                # A list iterator, not enumerate(): it is the cheaper
                # walk, it picks up entries appended mid-walk, and it
                # remembers where an exception stopped it.
                walk = iter(batch)
                for fn, args in walk:
                    if args is None:
                        # Claimed-timeout fire marker: ``fn`` is the
                        # Timeout itself and this is Timeout._fire
                        # inlined — the single hottest dispatch in any
                        # run, worth skipping a Python call for.
                        timeout = fn
                        proc = timeout._proc
                        value = timeout._tvalue
                        if proc is None:
                            timeout.succeed(value)
                        elif proc._waiting_on is not timeout:
                            timeout._proc = None
                            timeout.succeed(value)
                        else:
                            timeout._proc = None
                            proc._waiting_on = None
                            timeout._triggered = True
                            timeout._value = value
                            callbacks = timeout._callbacks
                            if callbacks:
                                timeout._callbacks = None
                                append((proc._resume, (value, None)))
                                for callback in callbacks:
                                    callback(timeout)
                            else:
                                append((proc._resume, (value, timeout)))
                    else:
                        fn(*args)
            if until is not None and self._advance_clock and until > self.now:
                self.now = until
        finally:
            self._batch = None
            if walk is not None:
                # Exhausted after a normal finish. If an exception
                # escaped mid-batch it yields the undispatched tail,
                # which goes back on the heap so the queue state stays
                # consistent (the entry that raised is consumed, like
                # the generic loop).
                for fn, args in walk:
                    self._sequence += 1
                    heappush(queue, (self.now, self._sequence, fn, args))
            del batch[:]
            self._running = False
        return self.now

    def _run_generic(
        self,
        until: Optional[int],
        hook: Optional[Callable[[int, Callable, tuple], None]],
    ) -> int:
        """The unbatched event loop: pop one entry, dispatch, repeat.

        This is the dispatch oracle — ``fast_dispatch=False`` runs it,
        and the batched loop must produce bit-for-bit identical event
        orderings (asserted by the equivalence tests). A traced
        simulator runs it too, in either dispatch mode, with
        ``hook(now, fn, args)`` making each call; fire markers (``args``
        is ``None``, only pushed under fast dispatch) dispatch through
        ``Timeout._fire``.
        """
        self._running = True
        queue = self._queue
        pop = heappop
        now = self.now
        try:
            while queue:
                if until is not None and queue[0][0] > until:
                    break
                time, _seq, fn, args = pop(queue)
                if time != now:
                    now = self.now = time
                if args is None:
                    fn = fn._fire
                    args = ()
                if hook is None:
                    fn(*args)
                else:
                    hook(now, fn, args)
            if until is not None and self._advance_clock and until > self.now:
                self.now = until
        finally:
            self._running = False
        return self.now

    def run_process(self, generator: Generator, name: str = "") -> Any:
        """Spawn ``generator``, run to completion, and return its result.

        Convenience for tests and benchmarks that drive one top-level
        scenario. Raises the process's exception if it failed.
        """
        process = self.spawn(generator, name=name)
        self.run()
        if not process.triggered:
            raise SimulationError(
                f"process {process.name!r} never finished; "
                "it is blocked on an event nobody will trigger"
            )
        if not process.ok:
            raise process.value
        return process.value

    @property
    def pending_events(self) -> int:
        """Number of triggers currently scheduled (diagnostic)."""
        return len(self._queue)
