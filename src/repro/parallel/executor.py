"""ProcessPoolExecutor dispatch with bounded retries and test hooks.

:func:`run_tasks` is the one place worker pools are created.  Its
contract with callers:

* Results are yielded **as tasks complete** (or, with ``scramble_seed``
  set, in a deterministically shuffled order — the equivalence suite
  uses this to prove the consumer is completion-order independent).
* An exception raised *inside* the worker function propagates to the
  caller immediately, matching the serial loop's abort semantics.
  (Campaign workers isolate per-run failures into error-status records
  themselves, so anything escaping them is a harness bug.)
* A **dead worker** (``os._exit``, OOM-kill, segfault) breaks the whole
  pool; the dispatcher rebuilds it and resubmits every unfinished task,
  up to ``max_retries`` extra rounds per task.  Rebuild rounds after the
  first wait under the shared exponential-backoff-with-full-jitter
  helper (:mod:`repro.util.backoff` — the same schedule the distributed
  queue uses), so a persistently crashing environment is probed, not
  hammered.  Tasks still failing then are yielded as failures rather
  than raised, so one poisonous run cannot sink a campaign.
* ``KeyboardInterrupt`` / ``SystemExit`` (e.g. a SIGTERM handler) tear
  the pool down, SIGKILL any still-running workers so the parent leaves
  no orphans behind, and propagate — leaving whatever the caller already
  consumed intact.  This is what makes a killed checkpointed campaign
  resumable.
* Every worker exits on its own once its parent is gone (a SIGKILLed
  parent runs none of the above), so no pool outlives its campaign.
* A :class:`repro.guard.Watchdog` can be attached via ``watchdog=``;
  the dispatcher points it at each live pool's worker pids so stale
  heartbeats get the worker SIGKILLed — which surfaces here as a broken
  pool and flows through the same bounded-retry machinery as a crash.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from repro.util.backoff import Backoff, BackoffPolicy

#: start method for worker pools; ``fork`` lets workers inherit the
#: campaign context (topology, apps, scenario pool) without pickling
DEFAULT_MP_CONTEXT = "fork"

#: pool-rebuild backoff after a worker death: short base (a crashed
#: fork pool rebuilds cheaply) with a tight cap so the bounded-retry
#: rounds stay inside CI timeouts
POOL_RETRY_BACKOFF = BackoffPolicy(base=0.05, cap=1.0)

#: seconds between a worker's checks that its parent is still alive
PARENT_POLL_S = 0.25


@dataclass
class TaskOutcome:
    """One finished (or given-up-on) task."""

    task: Any
    result: Any = None
    error: BaseException | None = None
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.error is None


def _pool_pids(pool: ProcessPoolExecutor) -> set[int]:
    """Pids of the pool's live worker processes (empty once shut down)."""
    procs = getattr(pool, "_processes", None) or {}
    return set(procs)


def _kill_pool_workers(pool: ProcessPoolExecutor) -> None:
    """SIGKILL every worker still alive — the parent is going down."""
    for pid in _pool_pids(pool):
        try:
            os.kill(pid, signal.SIGKILL)
        except (OSError, ProcessLookupError):
            pass


def _init_worker(parent: int, initializer, initargs: tuple) -> None:
    """Watch ``parent`` from a thread that exits this worker once it is
    gone (blocked on the call queue, a worker would never see end-of-file:
    its siblings hold the pipe too), then run the caller's initializer."""

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(PARENT_POLL_S)
        os._exit(1)

    threading.Thread(target=watch, name="repro-parent-watch", daemon=True).start()
    if initializer is not None:
        initializer(*initargs)


def _unstick_manager(pool: ProcessPoolExecutor) -> None:
    """Free a manager thread stuck on a result torn by the SIGKILL above.

    A worker killed mid-result-write leaves a partial message in the
    result pipe; if the executor's (non-daemon) manager thread had
    already entered ``recv`` it blocks forever on the missing bytes and
    would hang interpreter exit when ``concurrent.futures`` joins it.
    Feeding filler bytes completes the read; the garbage fails to
    unpickle, so the manager marks the pool broken and exits.  Only
    called on the parent-death path, where the pool is garbage anyway.
    """
    manager = getattr(pool, "_executor_manager_thread", None)
    writer = getattr(getattr(pool, "_result_queue", None), "_writer", None)
    if manager is None or writer is None or not manager.is_alive():
        return

    def feed() -> None:
        chunk = b"\x00" * 65536
        try:
            while manager.is_alive():
                writer.send_bytes(chunk)
                manager.join(0.05)
        except OSError:
            pass

    threading.Thread(target=feed, name="repro-pool-unstick", daemon=True).start()


def run_tasks(
    tasks: Sequence[Any],
    worker_fn: Callable[[Any], Any],
    *,
    jobs: int,
    initializer: Callable[..., None] | None = None,
    initargs: tuple = (),
    max_retries: int = 2,
    scramble_seed: int | None = None,
    mp_context: str = DEFAULT_MP_CONTEXT,
    watchdog: Any | None = None,
    retry_backoff: Backoff | None = None,
) -> Iterator[TaskOutcome]:
    """Fan ``tasks`` over ``jobs`` worker processes; yield outcomes.

    See the module docstring for the full contract.  ``retry_backoff``
    overrides the jittered wait before each pool-rebuild round (tests
    inject a no-sleep recorder); the default draws from
    :data:`POOL_RETRY_BACKOFF`.
    """
    ctx = mp.get_context(mp_context)
    scramble = (
        np.random.default_rng(scramble_seed) if scramble_seed is not None else None
    )
    backoff = retry_backoff if retry_backoff is not None else Backoff(POOL_RETRY_BACKOFF)
    pending: list[tuple[int, Any]] = list(enumerate(tasks))
    attempts = {pos: 0 for pos, _ in pending}
    round_ready: list[TaskOutcome] = []
    round_no = 0

    while pending:
        round_no += 1
        if round_no > 1:
            # a pool just died; give the host a jittered breather before
            # rebuilding instead of re-forking in a tight crash loop
            backoff.sleep(round_no - 1)
        for pos, _ in pending:
            attempts[pos] += 1
        pool = ProcessPoolExecutor(
            max_workers=jobs,
            mp_context=ctx,
            initializer=_init_worker,
            initargs=(os.getpid(), initializer, initargs),
        )
        if watchdog is not None:
            # only this pool's workers are fair game for the watchdog;
            # stale heartbeat files from a previous (broken) pool must
            # not get live-looking pids killed after reuse
            watchdog.pid_provider = lambda pool=pool: _pool_pids(pool)
        broken: list[tuple[int, Any]] = []
        try:
            futs = {}
            for pos, task in pending:
                try:
                    futs[pool.submit(worker_fn, task)] = (pos, task)
                except BrokenProcessPool:
                    broken.append((pos, task))
            not_done = set(futs)
            while not_done:
                done, not_done = wait(not_done, return_when=FIRST_COMPLETED)
                for fut in done:
                    pos, task = futs[fut]
                    exc = fut.exception()
                    if isinstance(exc, BrokenProcessPool):
                        broken.append((pos, task))
                        continue
                    if exc is not None:
                        raise exc
                    outcome = TaskOutcome(
                        task=task, result=fut.result(), attempts=attempts[pos]
                    )
                    if scramble is None:
                        yield outcome
                    else:
                        round_ready.append(outcome)
        except (KeyboardInterrupt, SystemExit, GeneratorExit):
            # the parent is dying (Ctrl-C, SIGTERM handler, consumer
            # abandoned us): reap the children so none are orphaned
            _kill_pool_workers(pool)
            _unstick_manager(pool)
            raise
        finally:
            if watchdog is not None:
                watchdog.pid_provider = lambda: set()
            pool.shutdown(wait=False, cancel_futures=True)

        pending = []
        for pos, task in broken:
            if attempts[pos] > max_retries:
                yield TaskOutcome(
                    task=task,
                    error=BrokenProcessPool(
                        f"worker died {attempts[pos]} times executing this task"
                    ),
                    attempts=attempts[pos],
                )
            else:
                pending.append((pos, task))

    if scramble is not None:
        for j in scramble.permutation(len(round_ready)):
            yield round_ready[int(j)]
