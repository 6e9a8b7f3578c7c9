"""Discrete-event engine unit tests."""

import itertools
import math
import random

import pytest

from repro.exceptions import SimulationError
from repro.sim.engine import Engine


def _script(seed):
    """A deterministic op script: phases of scheduling, cancels, runs.

    Single and bulk schedules, nested zero-delay and later schedules,
    duplicate instants (the sequence tiebreak) and cancel bursts big
    enough to trigger lazy-cancel compaction.
    """
    rng = random.Random(seed)
    ops = []
    clock = 0.0
    scheduled = 0
    for _phase in range(rng.randint(3, 6)):
        for _ in range(rng.randint(4, 20)):
            roll = rng.random()
            if roll < 0.45:
                time = clock + rng.choice(
                    [0.0, rng.uniform(0, 5), rng.uniform(0, 60),
                     rng.uniform(0, 200)])
                nested = tuple(
                    (rng.choice([0.0, rng.uniform(0, 25)]), f"n{scheduled}.{k}")
                    for k in range(rng.randint(0, 2)))
                ops.append(("schedule", time, f"e{scheduled}", nested))
                scheduled += 1
            elif roll < 0.60 and scheduled:
                ops.append(("cancel", rng.randrange(scheduled)))
            elif roll < 0.65:
                first = scheduled
                for _ in range(rng.randint(70, 120)):
                    ops.append(("schedule", clock + rng.uniform(0, 90),
                                f"b{scheduled}", ()))
                    scheduled += 1
                ops.extend(("cancel", index)
                           for index in range(first, scheduled)
                           if rng.random() < 0.9)
            else:
                base = clock + rng.uniform(0, 150)
                times = sorted(base + rng.uniform(0, 40) for _ in range(
                    rng.randint(1, 6)))
                if rng.random() < 0.5:
                    times += times[:1]  # a duplicate instant
                ops.append(("many", tuple(times), f"m{scheduled}"))
                scheduled += len(times)
        clock += rng.uniform(0.5, 45)
        ops.append(("run", clock))
    ops.append(("run", None))
    return ops


def _drive(engine, script):
    """Apply one script; return the (time, tag) log plus peeks."""
    log = []
    handles = []

    def callback(tag, nested):
        def fire():
            log.append((engine.now, tag))
            for delay, sub_tag in nested:
                engine.schedule_in(delay, callback(sub_tag, ()))
        return fire

    for op in script:
        if op[0] == "schedule":
            _, time, tag, nested = op
            handles.append(engine.schedule(time, callback(tag, nested)))
        elif op[0] == "cancel":
            handles[op[1]].cancel()
        elif op[0] == "many":
            _, times, prefix = op
            handles.extend(engine.schedule_many(
                [(time, callback(f"{prefix}.{k}", ()))
                 for k, time in enumerate(times)]))
        else:
            engine.run(until=math.inf if op[1] is None else op[1])
            log.append(("peek", engine.peek_next_time(), engine.now))
    return log


def _reference(script):
    """The same script on a plain list fired in sorted (time, seq) order."""
    queue = []      # (time, seq, tag, nested) entries not yet fired
    handles = []
    cancelled = set()
    log = []
    now = 0.0
    sequence = itertools.count()

    def schedule(time, tag, nested):
        entry = (time, next(sequence), tag, nested)
        queue.append(entry)
        return entry

    def live():
        return [entry for entry in queue if entry[1] not in cancelled]

    for op in script:
        if op[0] == "schedule":
            handles.append(schedule(op[1], op[2], op[3]))
        elif op[0] == "cancel":
            cancelled.add(handles[op[1]][1])
        elif op[0] == "many":
            handles.extend(schedule(time, f"{op[2]}.{k}", ())
                           for k, time in enumerate(op[1]))
        else:
            until = math.inf if op[1] is None else op[1]
            while live():
                entry = min(live(), key=lambda e: (e[0], e[1]))
                if entry[0] > until:
                    break
                queue.remove(entry)
                now = entry[0]
                log.append((now, entry[2]))
                for delay, sub_tag in entry[3]:
                    schedule(now + delay, sub_tag, ())
            if until != math.inf and until > now:
                now = until
            waiting = live()
            log.append(("peek", min(e[0] for e in waiting) if waiting
                        else None, now))
    return log


class TestScheduling:
    def test_runs_in_time_order(self):
        engine = Engine()
        fired = []
        engine.schedule(2.0, lambda: fired.append("b"))
        engine.schedule(1.0, lambda: fired.append("a"))
        engine.schedule(3.0, lambda: fired.append("c"))
        engine.run()
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_scheduling_order(self):
        engine = Engine()
        fired = []
        for tag in "abc":
            engine.schedule(5.0, lambda tag=tag: fired.append(tag))
        engine.run()
        assert fired == ["a", "b", "c"]
        # A callback may schedule at ``now``: it fires in the same run,
        # behind the peers already queued for that instant.
        engine.schedule(8.0, lambda: (fired.append("d"), engine.schedule_in(
            0.0, lambda: fired.append("f"))))
        engine.schedule(8.0, lambda: fired.append("e"))
        engine.run(until=8.0)
        assert fired == ["a", "b", "c", "d", "e", "f"]

    def test_now_advances(self):
        engine = Engine()
        seen = []
        engine.schedule(4.5, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [4.5]
        assert engine.now == 4.5

    def test_schedule_in(self):
        engine = Engine()
        seen = []
        engine.schedule(2.0, lambda: engine.schedule_in(
            3.0, lambda: seen.append(engine.now)))
        engine.run()
        assert seen == [5.0]

    def test_past_scheduling_rejected(self):
        engine = Engine()
        engine.schedule(5.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError, match="past"):
            engine.schedule(1.0, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Engine().schedule_in(-1.0, lambda: None)


class TestNonFiniteGuards:
    """NaN/inf event times corrupt the heap order silently; reject them."""

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_schedule_rejects_non_finite(self, bad):
        with pytest.raises(SimulationError, match="finite"):
            Engine().schedule(bad, lambda: None)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_schedule_in_rejects_non_finite(self, bad):
        with pytest.raises(SimulationError, match="finite"):
            Engine().schedule_in(bad, lambda: None)

    def test_schedule_many_rejects_non_finite(self):
        engine = Engine()
        with pytest.raises(SimulationError, match="finite"):
            engine.schedule_many([(1.0, lambda: None),
                                  (float("nan"), lambda: None)])


class TestRunControl:
    def test_until_horizon(self):
        engine = Engine()
        fired = []
        engine.schedule(1.0, lambda: fired.append(1))
        engine.schedule(10.0, lambda: fired.append(10))
        engine.run(until=5.0)
        assert fired == [1]
        assert engine.now == 5.0
        engine.run()
        assert fired == [1, 10]

    def test_event_exactly_at_horizon_fires(self):
        engine = Engine()
        fired = []
        engine.schedule(5.0, lambda: fired.append(5))
        engine.run(until=5.0)
        assert fired == [5]

    def test_cancellation(self):
        engine = Engine()
        fired = []
        handle = engine.schedule(1.0, lambda: fired.append(1))
        handle.cancel()
        engine.run()
        assert fired == []

    def test_peek_next_time_skips_cancelled(self):
        engine = Engine()
        first = engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        first.cancel()
        assert engine.peek_next_time() == 2.0

    def test_peek_empty(self):
        assert Engine().peek_next_time() is None

    def test_events_processed_counter(self):
        engine = Engine()
        for t in (1.0, 2.0):
            engine.schedule(t, lambda: None)
        engine.run()
        assert engine.events_processed == 2

    def test_runaway_guard(self):
        engine = Engine()

        def rearm():
            engine.schedule_in(0.1, rearm)
        engine.schedule(0.0, rearm)
        with pytest.raises(SimulationError, match="max_events"):
            engine.run(until=1e12, max_events=100)


class TestScheduleMany:
    def test_matches_individual_scheduling(self):
        batched, loop = Engine(), Engine()
        times = [3.0, 1.0, 2.0, 1.0, 5.0]
        fired_batched, fired_loop = [], []
        batched.schedule_many(
            (t, lambda i=i: fired_batched.append(i))
            for i, t in enumerate(times))
        for i, t in enumerate(times):
            loop.schedule(t, lambda i=i: fired_loop.append(i))
        batched.run()
        loop.run()
        assert fired_batched == fired_loop == [1, 3, 2, 0, 4]
        # Randomized single/bulk/nested/cancel scripts against a plain
        # sorted (time, sequence) model of the queue.
        for seed in range(12):
            script = _script(seed)
            engine = Engine()
            assert _drive(engine, script) == _reference(script)
            assert engine.pending_events == engine.heap_size == 0

    def test_ties_against_prior_schedule_calls(self):
        engine = Engine()
        fired = []
        engine.schedule(1.0, lambda: fired.append("first"))
        engine.schedule_many([(1.0, lambda: fired.append("second")),
                              (1.0, lambda: fired.append("third"))])
        engine.run()
        assert fired == ["first", "second", "third"]

    def test_returns_cancellable_handles(self):
        engine = Engine()
        fired = []
        handles = engine.schedule_many(
            [(1.0, lambda: fired.append(1)), (2.0, lambda: fired.append(2))])
        assert len(handles) == 2
        handles[0].cancel()
        engine.run()
        assert fired == [2]

    def test_rejects_past_times(self):
        engine = Engine()
        engine.schedule(5.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError, match="past"):
            engine.schedule_many([(1.0, lambda: None)])

    def test_empty_iterable(self):
        engine = Engine()
        assert engine.schedule_many([]) == []
        assert engine.heap_size == 0


class TestLazyCancelCompaction:
    def test_heap_stays_bounded_under_churn(self):
        """Schedule/cancel cycles (re-armed timers) must not leak."""
        engine = Engine()
        live = [engine.schedule(1e9, lambda: None) for _ in range(50)]
        for step in range(10_000):
            engine.schedule(float(step + 1), lambda: None).cancel()
            assert engine.heap_size <= 250
        assert engine.pending_events == 50
        assert all(not handle.cancelled for handle in live)

    def test_compaction_preserves_firing_order(self):
        churny, reference = Engine(), Engine()
        fired_churny, fired_reference = [], []
        for engine, fired in ((churny, fired_churny),
                              (reference, fired_reference)):
            for i in range(40):
                engine.schedule(10.0 + (i % 4),
                                lambda i=i, out=fired: out.append(i))
        # Only the churny engine takes enough cancels to compact.
        for _ in range(5):
            doomed = [churny.schedule(5.0, lambda: None)
                      for _ in range(100)]
            for handle in doomed:
                handle.cancel()
        churny.run()
        reference.run()
        assert fired_churny == fired_reference

    def test_cancel_is_idempotent_in_the_accounting(self):
        engine = Engine()
        handle = engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert engine.pending_events == 1

    def test_pending_events_tracks_cancellations(self):
        engine = Engine()
        handles = [engine.schedule(float(i + 1), lambda: None)
                   for i in range(10)]
        assert engine.pending_events == 10
        for handle in handles[:4]:
            handle.cancel()
        assert engine.pending_events == 6
        engine.run()
        assert engine.pending_events == 0
        assert engine.events_processed == 6

    def test_small_heaps_never_compact(self):
        engine = Engine()
        handles = [engine.schedule(float(i + 1), lambda: None)
                   for i in range(10)]
        for handle in handles:
            handle.cancel()
        # All ten stay in the heap lazily (below the compaction floor).
        assert engine.heap_size == 10
        engine.run()
        assert engine.events_processed == 0


class TestProcess:
    """Generators as resumable processes: the admission-plane primitive."""

    def test_yields_become_waits(self):
        engine = Engine()
        ticks = []

        def steps():
            ticks.append(engine.now)
            yield 2.0
            ticks.append(engine.now)
            yield 3.5
            ticks.append(engine.now)

        engine.process(steps())
        engine.run()
        assert ticks == [0.0, 2.0, 5.5]

    def test_return_value_lands_in_result(self):
        engine = Engine()
        finished = []

        def steps():
            yield 1.0
            return "committed"

        handle = engine.process(steps(), on_done=finished.append)
        assert not handle.done
        engine.run()
        assert handle.done
        assert handle.result == "committed"
        assert handle.error is None
        assert finished == [handle]

    def test_exceptions_are_captured_not_propagated(self):
        engine = Engine()
        survivor = []

        def doomed():
            yield 1.0
            raise ValueError("walk rejected")

        handle = engine.process(doomed())
        engine.schedule(5.0, lambda: survivor.append(engine.now))
        engine.run()                      # must not raise
        assert handle.done
        assert isinstance(handle.error, ValueError)
        assert handle.result is None
        assert survivor == [5.0], "one dead process stalled the engine"

        # An invalid wait fails only the process that yielded it: its
        # generator is closed, on_done fires, and a sibling completes.
        for bad, error in ((-1.0, SimulationError),
                           (float("nan"), SimulationError),
                           ("soon", ValueError), (None, TypeError)):
            engine = Engine()
            finished, closed = [], []

            def bad_wait(bad=bad):
                try:
                    yield 1.0
                    yield bad
                finally:
                    closed.append(True)

            def sibling():
                yield 2.0
                return "ok"

            broken = engine.process(bad_wait(), on_done=finished.append)
            healthy = engine.process(sibling(), on_done=finished.append)
            engine.run()                  # must not raise
            assert broken.done and isinstance(broken.error, error)
            assert closed == [True]
            assert healthy.done and healthy.result == "ok"
            assert finished == [broken, healthy]
            assert engine.pending_events == 0

    def test_cancel_runs_finally_blocks(self):
        engine = Engine()
        cleaned = []

        def steps():
            try:
                yield 10.0
            finally:
                cleaned.append(True)

        handle = engine.process(steps())
        engine.run(until=1.0)             # started, now suspended
        handle.cancel()
        handle.cancel()                   # idempotent
        assert handle.done and cleaned == [True]
        engine.run()
        assert engine.now == 1.0          # resume event was dropped

    def test_zero_yield_queues_behind_same_instant_events(self):
        engine = Engine()
        order = []

        def steps():
            order.append("start")
            yield 0.0
            order.append("resumed")

        engine.process(steps())
        engine.schedule(0.0, lambda: order.append("queued"))
        engine.run()
        # The process starts first (submitted first), but its zero-wait
        # resume lands behind the already-queued same-instant event.
        assert order == ["start", "queued", "resumed"]

    def test_concurrent_processes_interleave_deterministically(self):
        def run_once():
            engine = Engine()
            order = []

            def walker(tag, wait):
                for step in range(3):
                    order.append((tag, engine.now))
                    yield wait
                return tag

            a = engine.process(walker("a", 2.0))
            b = engine.process(walker("b", 3.0))
            engine.run()
            return order, a.result, b.result

        first = run_once()
        second = run_once()
        assert first == second
        order, result_a, result_b = first
        assert (result_a, result_b) == ("a", "b")
        assert order == [("a", 0.0), ("b", 0.0), ("a", 2.0), ("b", 3.0),
                         ("a", 4.0), ("b", 6.0)]
