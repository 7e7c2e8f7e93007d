"""Shared process-pool plumbing for sharded evaluation.

Both the Eq. (1) estimators (:mod:`repro.eval.ler`), the high-HW
censuses (:mod:`repro.eval.experiments`) and the campaign executor
(:mod:`repro.eval.campaign`) fan tiny index-only tasks over a pool of
worker processes while the heavy per-run state (decoders, DEM, sampled
batches) is shared out-of-band:

* on fork platforms the children inherit :data:`_POOL_SHARED`
  copy-on-write -- nothing is pickled per task and non-picklable decoder
  configurations keep working;
* on spawn-only platforms the pool initializer ships the shared state
  once per worker.

Workers read the state back with :func:`pool_shared`.  Because only
(failures, trials) counts or per-shot rows cross the process boundary,
and every task's randomness is seeded up front by the parent, results
are identical however the tasks are scheduled.

Persistent pools
----------------
:class:`WorkerPool` keeps the worker processes alive across many
``map`` calls, so a campaign pays the fork-and-import cost **once**
instead of once per refinement round, k-slice batch, and grid point.  The shared
state installed at fork time can be swapped between calls:

* a payload identical (by object identity) to the installed one is a
  no-op -- every refinement round of one operating point reuses the
  live workers untouched;
* a new payload is broadcast to every worker through a
  barrier-synchronized task (each worker installs the pickled state
  exactly once) -- this is how one pool serves every (distance, p)
  step of a campaign;
* a payload that cannot be pickled falls back to recycling the pool, so
  fork-only state keeps working at one fork per payload change.

:func:`run_sharded` is the one-shot facade: with ``pool=None`` it spins
up a throwaway pool per call (the historic behavior); handed a
:class:`WorkerPool` it becomes a thin alias for ``pool.map``.
:func:`pool_spinups` counts every pool creation process-wide, so tests
and benchmarks can assert that the persistent path actually forks less.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
from typing import List, Optional, Tuple

#: Heavy per-run state (decoders, DEM, batches, ...) shared with pool
#: workers.  See the module docstring for the fork/spawn delivery story.
_POOL_SHARED = None

#: Barrier synchronizing shared-state broadcasts to a persistent pool
#: (inherited at fork / installed by the spawn initializer).
_POOL_BARRIER = None

#: Process-wide count of pool creations (worker-set forks).
_POOL_SPINUPS = 0

#: Sentinel distinguishing "no payload installed yet" from ``None``.
_UNSET = object()


def pool_spinups() -> int:
    """How many process pools this process has created so far."""
    return _POOL_SPINUPS


def _init_pool_worker(blob: Optional[bytes], barrier) -> None:
    """Spawn-platform initializer: install shared state and the barrier."""
    global _POOL_SHARED, _POOL_BARRIER
    _POOL_SHARED = None if blob is None else pickle.loads(blob)
    _POOL_BARRIER = barrier


def pool_shared():
    """The shared state installed by the pool (worker side)."""
    return _POOL_SHARED


def _broadcast_worker(blob: bytes) -> bool:
    """Install a new shared payload in this worker.

    The barrier holds every worker until all of them have taken exactly
    one broadcast task, so no worker misses the swap (a free worker
    cannot grab a second task while blocked here).
    """
    global _POOL_SHARED
    _POOL_SHARED = pickle.loads(blob)
    _POOL_BARRIER.wait()
    return True


class WorkerPool:
    """Persistent process pool with swappable out-of-band shared state.

    Usage::

        with WorkerPool(processes=8) as pool:
            for point in grid:
                shared = build_heavy_state(point)
                for round_tasks in rounds:
                    outputs = pool.map(shared, worker_fn, round_tasks)

    The workers are forked on the first ``map`` and live until
    :meth:`close` / context exit.  ``shared`` is delivered by fork
    inheritance on the first spin-up and by pickled broadcast on later
    changes (see the module docstring); consecutive calls with the same
    payload object ship nothing.
    """

    def __init__(self, processes: Optional[int] = None) -> None:
        if processes is not None and processes < 1:
            raise ValueError("processes must be >= 1")
        self.processes = processes or (os.cpu_count() or 1)
        self._pool = None
        self._shared = _UNSET
        self._forks = 0

    @property
    def forks(self) -> int:
        """How many times this pool has forked its worker set."""
        return self._forks

    # -- lifecycle ---------------------------------------------------------------

    def _spinup(self, shared) -> None:
        global _POOL_SHARED, _POOL_BARRIER, _POOL_SPINUPS
        use_fork = "fork" in multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context("fork" if use_fork else None)
        barrier = context.Barrier(self.processes)
        if use_fork:
            previous = (_POOL_SHARED, _POOL_BARRIER)
            _POOL_SHARED, _POOL_BARRIER = shared, barrier
            try:
                self._pool = context.Pool(processes=self.processes)
            finally:
                _POOL_SHARED, _POOL_BARRIER = previous
        else:  # pragma: no cover - exercised only on spawn-only platforms
            self._pool = context.Pool(
                processes=self.processes,
                initializer=_init_pool_worker,
                initargs=(pickle.dumps(shared), barrier),
            )
        self._shared = shared
        self._forks += 1
        _POOL_SPINUPS += 1

    def _install(self, shared) -> None:
        """Make ``shared`` the payload every live worker sees."""
        if self._pool is None:
            self._spinup(shared)
            return
        if shared is self._shared:
            return
        try:
            blob = pickle.dumps(shared)
        except (KeyboardInterrupt, SystemExit):
            # Interrupts are never a pickling failure to fall back from.
            raise
        except Exception:  # reprolint: broad-except -- any pickling error means "use fork inheritance", not "crash the sweep"
            # Fork inheritance is the only channel for non-picklable
            # payloads: recycle the pool (one fork per payload change,
            # still far cheaper than one per map call).
            self.close()
            self._spinup(shared)
            return
        self._pool.map(_broadcast_worker, [blob] * self.processes, chunksize=1)
        self._shared = shared

    def map(self, shared, worker, tasks: List[Tuple]) -> List:
        """Map ``worker`` over ``tasks`` with ``shared`` installed.

        Tasks stay tiny (ints only); output order matches task order.
        Results are identical to inline evaluation and to any other
        pool width because every task's randomness is pre-seeded.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        self._install(shared)
        return self._pool.map(worker, tasks)

    def close(self) -> None:
        """Shut the workers down (idempotent)."""
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None
            self._shared = _UNSET

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def run_sharded(
    shared,
    worker,
    tasks: List[Tuple],
    processes: int,
    pool: Optional[WorkerPool] = None,
) -> List:
    """Map ``worker`` over ``tasks`` in a process pool.

    With ``pool=None`` a throwaway :class:`WorkerPool` is created for
    this one call (the historic per-call behavior); passing a live
    :class:`WorkerPool` reuses its forked workers and ignores
    ``processes`` (the pool's own width applies).
    """
    if pool is not None:
        return pool.map(shared, worker, tasks)
    with WorkerPool(processes) as throwaway:
        return throwaway.map(shared, worker, tasks)
