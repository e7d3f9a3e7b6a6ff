"""Unit tests for the discrete-event engine core."""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.sim import AllOf, AnyOf, Engine, Event, Resource, Store, Timeout


class TestEventBasics:
    def test_event_starts_untriggered(self):
        eng = Engine()
        ev = eng.event("x")
        assert not ev.triggered
        with pytest.raises(SimulationError):
            _ = ev.value

    def test_succeed_delivers_value(self):
        eng = Engine()
        ev = eng.event()
        ev.succeed(42)
        assert ev.triggered and ev.ok
        assert ev.value == 42

    def test_double_trigger_rejected(self):
        eng = Engine()
        ev = eng.event()
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)
        with pytest.raises(SimulationError):
            ev.fail(RuntimeError("nope"))

    def test_fail_reraises_in_value(self):
        eng = Engine()
        ev = eng.event()
        ev.fail(ValueError("boom"))
        with pytest.raises(ValueError, match="boom"):
            _ = ev.value

    def test_fail_requires_exception(self):
        eng = Engine()
        with pytest.raises(TypeError):
            eng.event().fail("not an exception")  # type: ignore[arg-type]

    def test_callback_after_dispatch_runs_immediately(self):
        eng = Engine()
        ev = eng.event()
        ev.succeed("v")
        eng.run()
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        assert seen == ["v"]


class TestTimeouts:
    def test_timeout_advances_clock(self):
        eng = Engine()
        eng.timeout(2.5)
        eng.run()
        assert eng.now == pytest.approx(2.5)

    def test_negative_delay_rejected(self):
        eng = Engine()
        with pytest.raises(ValueError):
            eng.timeout(-1.0)

    def test_timeouts_dispatch_in_time_order(self):
        eng = Engine()
        order = []
        for d in (3.0, 1.0, 2.0):
            eng.timeout(d).add_callback(lambda _e, d=d: order.append(d))
        eng.run()
        assert order == [1.0, 2.0, 3.0]

    def test_ties_broken_by_schedule_order(self):
        eng = Engine()
        order = []
        for i in range(5):
            eng.timeout(1.0).add_callback(lambda _e, i=i: order.append(i))
        eng.run()
        assert order == [0, 1, 2, 3, 4]

    def test_run_until_time(self):
        eng = Engine()
        fired = []
        eng.timeout(1.0).add_callback(lambda _e: fired.append(1))
        eng.timeout(5.0).add_callback(lambda _e: fired.append(5))
        eng.run(until=2.0)
        assert fired == [1]
        assert eng.now == pytest.approx(2.0)

    def test_call_at(self):
        eng = Engine()
        hits = []
        eng.call_at(4.0, lambda: hits.append(eng.now))
        eng.run()
        assert hits == [4.0]

    def test_call_at_past_rejected(self):
        eng = Engine()
        eng.timeout(1.0)
        eng.run()
        with pytest.raises(SimulationError):
            eng.call_at(0.5, lambda: None)


class TestScheduleAt:
    def test_value_delivered_at_absolute_time(self):
        eng = Engine(seed=0)
        ev = eng.event("x")
        ev.schedule_at(5.0, "payload")
        woke = []

        def waiter():
            value = yield ev
            woke.append((eng.now, value))

        eng.process(waiter(), name="w")
        eng.run()
        assert woke == [(5.0, "payload")]

    def test_past_is_rejected(self):
        eng = Engine(seed=0)

        def advance():
            yield 3.0

        eng.process(advance(), name="advance")
        eng.run()
        assert eng.now == 3.0
        with pytest.raises(SimulationError, match="in the past"):
            eng.event("x").schedule_at(1.0)

    def test_double_trigger_rejected(self):
        eng = Engine(seed=0)
        ev = eng.event("x")
        ev.schedule_at(1.0, "a")
        with pytest.raises(SimulationError, match="already triggered"):
            ev.schedule_at(2.0, "b")
        with pytest.raises(SimulationError, match="already triggered"):
            ev.succeed("c")


class TestProcesses:
    def test_process_returns_value(self):
        eng = Engine()

        def prog():
            yield eng.timeout(1.0)
            return "done"

        p = eng.process(prog())
        eng.run()
        assert p.value == "done"
        assert eng.now == pytest.approx(1.0)

    def test_numeric_yield_is_timeout(self):
        eng = Engine()

        def prog():
            yield 2.0
            yield 3
            return eng.now

        p = eng.process(prog())
        eng.run()
        assert p.value == pytest.approx(5.0)

    def test_process_waits_on_process(self):
        eng = Engine()

        def child():
            yield eng.timeout(2.0)
            return 7

        def parent():
            v = yield eng.process(child())
            return v * 2

        p = eng.process(parent())
        eng.run()
        assert p.value == 14

    def test_exception_propagates_to_waiter(self):
        eng = Engine()

        def bad():
            yield eng.timeout(1.0)
            raise RuntimeError("inner")

        def outer():
            try:
                yield eng.process(bad())
            except RuntimeError as exc:
                return f"caught {exc}"

        p = eng.process(outer())
        eng.run()
        assert p.value == "caught inner"

    def test_uncaught_exception_fails_process(self):
        eng = Engine()

        def bad():
            yield eng.timeout(1.0)
            raise ValueError("oops")

        p = eng.process(bad())
        eng.run()
        assert p.triggered and not p.ok
        with pytest.raises(ValueError):
            _ = p.value

    def test_yielding_garbage_fails_process(self):
        eng = Engine()

        def bad():
            yield "not an event"

        p = eng.process(bad())
        eng.run()
        assert not p.ok

    def test_requires_generator(self):
        eng = Engine()
        with pytest.raises(TypeError):
            eng.process(lambda: None)  # type: ignore[arg-type]

    def test_deadlock_detection(self):
        eng = Engine()

        def stuck():
            yield eng.event()

        eng.process(stuck())
        with pytest.raises(DeadlockError):
            eng.run()


class TestProcessStepping:
    """Edge cases of the one-frame step: a sleep pushes the process's own
    wake-up token, and an event wait resumes straight from the event."""

    def test_negative_numeric_yield_raises_out_of_run(self):
        eng = Engine()

        def prog():
            yield 1.0
            yield -0.5

        eng.process(prog())
        with pytest.raises(SimulationError, match="in the past"):
            eng.run()
        assert eng.now == 1.0

    def test_int_yields_sleep(self):
        eng = Engine()
        seen = []

        def prog():
            yield 2
            seen.append(eng.now)
            yield 0
            seen.append(eng.now)
            yield 3
            return eng.now

        p = eng.process(prog())
        eng.run()
        assert seen == [2.0, 2.0]
        assert p.value == 5.0 and type(p.value) is float

    def test_already_dispatched_event_resumes_at_once(self):
        eng = Engine()
        done = eng.event()
        done.succeed("v")
        order = []

        def late():
            yield 1.0
            assert done.callbacks is None  # dispatched long ago
            order.append(("before", eng.now))
            value = yield done
            order.append((value, eng.now))
            value = yield done  # twice: still no wait
            order.append((value, eng.now))

        def bystander():
            yield 1.0
            order.append(("bystander", eng.now))

        eng.process(late())
        eng.process(bystander())
        eng.run()
        # ``late`` ran through both yields before the bystander woke,
        # at the same instant, and left nothing blocked.
        assert order == [("before", 1.0), ("v", 1.0), ("v", 1.0),
                         ("bystander", 1.0)]
        assert eng._blocked == 0

    def test_already_failed_event_throws_into_the_generator(self):
        eng = Engine()
        broken = eng.event()
        broken.fail(KeyError("k"))

        def prog():
            yield 1.0
            try:
                yield broken
            except KeyError:
                return "caught"

        p = eng.process(prog())
        eng.run()
        assert p.value == "caught"

    def test_generator_exception_fails_process_and_reaches_waiters(self):
        eng = Engine()
        gate = eng.event()

        def bad():
            yield gate
            raise RuntimeError("inner")

        def waiter(proc):
            try:
                yield proc
            except RuntimeError as exc:
                return f"caught {exc}"

        child = eng.process(bad())
        outer = eng.process(waiter(child))
        seen = []
        child.add_callback(lambda ev: seen.append(ev.ok))
        eng.call_at(2.0, lambda: gate.succeed())
        eng.run()
        assert child.triggered and not child.ok
        with pytest.raises(RuntimeError, match="inner"):
            _ = child.value
        assert outer.value == "caught inner"
        assert seen == [False]
        assert eng._blocked == 0

    def test_start_is_after_the_current_dispatch_in_schedule_order(self):
        eng = Engine()
        order = []

        def prog(tag):
            order.append((tag, eng.now))
            yield 0.0

        def spawner():
            yield 1.0
            eng.process(prog("a"))
            eng.process(prog("b"))
            order.append(("spawner", eng.now))

        eng.process(spawner())
        eng.run()
        assert order == [("spawner", 1.0), ("a", 1.0), ("b", 1.0)]

    def test_finished_process_is_freed_without_the_cycle_collector(self):
        import gc
        import weakref

        eng = Engine()

        def prog():
            yield 1.0
            yield eng.timeout(1.0)

        gen = prog()
        ref = weakref.ref(gen)
        p = eng.process(gen)
        eng.run()
        del gen
        gc.disable()
        try:
            del p
            assert ref() is None
        finally:
            gc.enable()

class TestConditions:
    def test_all_of_collects_values(self):
        eng = Engine()
        t1, t2 = eng.timeout(1.0, "a"), eng.timeout(2.0, "b")
        cond = eng.all_of([t1, t2])

        def waiter():
            vals = yield cond
            return vals

        p = eng.process(waiter())
        eng.run()
        assert p.value == ["a", "b"]
        assert eng.now == pytest.approx(2.0)

    def test_any_of_returns_first(self):
        eng = Engine()
        slow, fast = eng.timeout(5.0, "slow"), eng.timeout(1.0, "fast")
        cond = eng.any_of([slow, fast])

        def waiter():
            idx, val = yield cond
            return idx, val, eng.now

        p = eng.process(waiter())
        eng.run()
        assert p.value == (1, "fast", 1.0)

    def test_all_of_empty_fires_immediately(self):
        eng = Engine()
        cond = eng.all_of([])
        assert cond.triggered
        assert cond.value == []


class TestResource:
    def test_fifo_granting(self):
        eng = Engine()
        res = Resource(eng, capacity=1)
        grants = []

        def worker(i):
            yield res.request()
            grants.append((i, eng.now))
            yield eng.timeout(1.0)
            res.release()

        for i in range(3):
            eng.process(worker(i))
        eng.run()
        assert grants == [(0, 0.0), (1, 1.0), (2, 2.0)]

    def test_capacity_two(self):
        eng = Engine()
        res = Resource(eng, capacity=2)
        grants = []

        def worker(i):
            yield res.request()
            grants.append((i, eng.now))
            yield eng.timeout(1.0)
            res.release()

        for i in range(4):
            eng.process(worker(i))
        eng.run()
        assert grants == [(0, 0.0), (1, 0.0), (2, 1.0), (3, 1.0)]

    def test_release_idle_raises(self):
        eng = Engine()
        res = Resource(eng)
        with pytest.raises(SimulationError):
            res.release()

    def test_invalid_capacity(self):
        eng = Engine()
        with pytest.raises(ValueError):
            Resource(eng, capacity=0)

    def test_utilisation_accounting(self):
        eng = Engine()
        res = Resource(eng, capacity=1)

        def worker():
            yield res.request()
            yield eng.timeout(2.0)
            res.release()
            yield eng.timeout(2.0)

        eng.process(worker())
        eng.run()
        assert res.utilisation() == pytest.approx(0.5)


class TestStore:
    def test_put_then_get(self):
        eng = Engine()
        store = Store(eng)
        store.put("a")

        def getter():
            item = yield store.get()
            return item

        p = eng.process(getter())
        eng.run()
        assert p.value == "a"

    def test_get_blocks_until_put(self):
        eng = Engine()
        store = Store(eng)

        def getter():
            item = yield store.get()
            return item, eng.now

        def putter():
            yield eng.timeout(3.0)
            store.put("late")

        p = eng.process(getter())
        eng.process(putter())
        eng.run()
        assert p.value == ("late", 3.0)

    def test_fifo_ordering(self):
        eng = Engine()
        store = Store(eng)
        for x in (1, 2, 3):
            store.put(x)

        def getter():
            out = []
            for _ in range(3):
                out.append((yield store.get()))
            return out

        p = eng.process(getter())
        eng.run()
        assert p.value == [1, 2, 3]

    def test_match_predicate_selects_item(self):
        eng = Engine()
        store = Store(eng)
        store.put(("tagA", 1))
        store.put(("tagB", 2))

        def getter():
            item = yield store.get(match=lambda it: it[0] == "tagB")
            return item

        p = eng.process(getter())
        eng.run()
        assert p.value == ("tagB", 2)
        assert store.peek_all() == [("tagA", 1)]

    def test_matching_waiter_woken_by_put(self):
        eng = Engine()
        store = Store(eng)

        def getter(tag):
            item = yield store.get(match=lambda it: it[0] == tag)
            return item

        pa = eng.process(getter("A"))
        pb = eng.process(getter("B"))

        def putter():
            yield eng.timeout(1.0)
            store.put(("B", "forB"))
            yield eng.timeout(1.0)
            store.put(("A", "forA"))

        eng.process(putter())
        eng.run()
        assert pa.value == ("A", "forA")
        assert pb.value == ("B", "forB")


class TestDeterminism:
    def test_same_seed_same_trajectory(self):
        def run(seed):
            eng = Engine(seed=seed)
            samples = []

            def prog():
                rng = eng.rng.stream("test")
                for _ in range(5):
                    dt = rng.exponential(1.0)
                    samples.append(dt)
                    yield eng.timeout(dt)
                return eng.now

            p = eng.process(prog())
            eng.run()
            return p.value, samples

        t1, s1 = run(42)
        t2, s2 = run(42)
        t3, _ = run(43)
        assert t1 == t2 and s1 == s2
        assert t1 != t3

    def test_named_streams_are_independent(self):
        eng = Engine(seed=1)
        a1 = eng.rng.stream("a").random(3).tolist()
        # Drawing from "b" must not perturb "a"'s continuation.
        eng.rng.stream("b").random(100)
        a2 = eng.rng.stream("a").random(3).tolist()

        eng2 = Engine(seed=1)
        b1 = eng2.rng.stream("a").random(6).tolist()
        assert a1 + a2 == pytest.approx(b1)

    def test_child_streams_differ_from_parent(self):
        eng = Engine(seed=5)
        root = eng.rng.stream("x").random(4).tolist()
        child = eng.rng.child("ns").stream("x").random(4).tolist()
        assert root != pytest.approx(child)
