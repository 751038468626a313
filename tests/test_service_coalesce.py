"""Request coalescing: shared runs, fan-out, cancellation refcounts."""

import asyncio
import threading

import pytest

from repro.errors import ParameterError, RunAborted
from repro.service.coalesce import Coalescer, SharedRun

KEY = "f" * 32


def _gated_thunk(calls, release, result=None):
    """A blocking runner that parks until the test releases it."""
    def thunk(abort, publish):
        calls.append(threading.get_ident())
        release.wait(30.0)
        if abort.is_set():
            raise RunAborted("abandoned")
        publish(1, 1)
        return result if result is not None else {"value": 42}
    return thunk


async def _wait_for(predicate, timeout=10.0):
    """Poll ``predicate`` on the loop until true (or fail)."""
    step = 0.005
    waited = 0.0
    while not predicate():
        await asyncio.sleep(step)
        waited += step
        assert waited < timeout, "condition never became true"


class TestCoalescing:
    def test_concurrent_identical_queries_run_once(self):
        """The tentpole invariant: N concurrent identical queries cost
        exactly one engine run."""
        calls = []
        release = threading.Event()
        thunk = _gated_thunk(calls, release)

        async def main():
            coalescer = Coalescer()
            tasks = [asyncio.create_task(coalescer.run(KEY, thunk))
                     for _ in range(5)]
            await _wait_for(
                lambda: coalescer.is_running(KEY)
                and coalescer._runs[KEY].subscribers == 5)
            release.set()
            results = await asyncio.gather(*tasks)
            assert results == [{"value": 42}] * 5
            assert coalescer.started == 1
            assert coalescer.joined == 4
            assert coalescer.in_flight() == 0

        asyncio.run(main())
        assert len(calls) == 1

    def test_different_keys_run_separately(self):
        calls = []
        release = threading.Event()
        release.set()
        thunk = _gated_thunk(calls, release)

        async def main():
            coalescer = Coalescer()
            await asyncio.gather(coalescer.run("a" * 32, thunk),
                                 coalescer.run("b" * 32, thunk))
            assert coalescer.started == 2
            assert coalescer.joined == 0

        asyncio.run(main())
        assert len(calls) == 2

    def test_sequential_queries_run_twice(self):
        """Coalescing is for *in-flight* overlap only — a finished run
        is the memo cache's job, not the coalescer's."""
        calls = []
        release = threading.Event()
        release.set()
        thunk = _gated_thunk(calls, release)

        async def main():
            coalescer = Coalescer()
            await coalescer.run(KEY, thunk)
            await coalescer.run(KEY, thunk)
            assert coalescer.started == 2

        asyncio.run(main())
        assert len(calls) == 2

    def test_progress_fans_out_to_every_subscriber(self):
        release = threading.Event()
        thunk = _gated_thunk([], release)
        seen = {"a": [], "b": []}

        async def main():
            coalescer = Coalescer()
            tasks = [
                asyncio.create_task(coalescer.run(
                    KEY, thunk,
                    on_progress=lambda d, t, _n=name:
                        seen[_n].append((d, t))))
                for name in ("a", "b")]
            await _wait_for(
                lambda: coalescer.is_running(KEY)
                and coalescer._runs[KEY].subscribers == 2)
            release.set()
            await asyncio.gather(*tasks)

        asyncio.run(main())
        assert seen == {"a": [(1, 1)], "b": [(1, 1)]}


class TestCancellation:
    def test_one_subscriber_cancelling_keeps_the_run_alive(self):
        """The satellite invariant: a subscriber abandoning a shared
        run does not cancel it for the others."""
        calls = []
        release = threading.Event()
        thunk = _gated_thunk(calls, release)

        async def main():
            coalescer = Coalescer()
            tasks = [asyncio.create_task(coalescer.run(KEY, thunk))
                     for _ in range(3)]
            await _wait_for(
                lambda: coalescer.is_running(KEY)
                and coalescer._runs[KEY].subscribers == 3)
            run = coalescer._runs[KEY]
            tasks[0].cancel()
            with pytest.raises(asyncio.CancelledError):
                await tasks[0]
            assert not run.abort.is_set()
            release.set()
            results = await asyncio.gather(*tasks[1:])
            assert results == [{"value": 42}] * 2
            assert coalescer.aborted == 0
            assert coalescer.started == 1

        asyncio.run(main())
        assert len(calls) == 1

    def test_last_subscriber_cancelling_aborts_the_run(self):
        calls = []
        release = threading.Event()
        thunk = _gated_thunk(calls, release)

        async def main():
            coalescer = Coalescer()
            tasks = [asyncio.create_task(coalescer.run(KEY, thunk))
                     for _ in range(2)]
            await _wait_for(
                lambda: coalescer.is_running(KEY)
                and coalescer._runs[KEY].subscribers == 2)
            run = coalescer._runs[KEY]
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            assert run.abort.is_set()
            assert coalescer.aborted == 1
            release.set()   # thunk wakes, sees abort, raises RunAborted
            await _wait_for(lambda: coalescer.in_flight() == 0)

        asyncio.run(main())
        assert len(calls) == 1


class TestErrorPropagation:
    def test_errors_reach_every_subscriber(self):
        release = threading.Event()

        def thunk(abort, publish):
            release.wait(30.0)
            raise ParameterError("bad physics")

        async def main():
            coalescer = Coalescer()
            tasks = [asyncio.create_task(coalescer.run(KEY, thunk))
                     for _ in range(3)]
            await _wait_for(
                lambda: coalescer.is_running(KEY)
                and coalescer._runs[KEY].subscribers == 3)
            release.set()
            results = await asyncio.gather(*tasks,
                                           return_exceptions=True)
            assert all(isinstance(r, ParameterError)
                       for r in results)

        asyncio.run(main())


class TestListeners:
    def test_progress_reaches_only_current_listeners(self):
        async def main():
            run = SharedRun(KEY, asyncio.get_running_loop())
            seen = {"a": [], "b": []}
            a = run.add_listener(lambda d, t: seen["a"].append((d, t)))
            b = run.add_listener(lambda d, t: seen["b"].append((d, t)))
            assert a != b
            run.publish(1, 4)
            await asyncio.sleep(0)
            run.remove_listener(a)
            run.remove_listener(a)  # leaving twice is harmless
            # Progress may be published from the worker thread.
            worker = threading.Thread(target=run.publish, args=(2, 4))
            worker.start()
            worker.join()
            await _wait_for(lambda: len(seen["b"]) == 2)
            assert seen == {"a": [(1, 4)], "b": [(1, 4), (2, 4)]}
            run.done.cancel()

        asyncio.run(main())
