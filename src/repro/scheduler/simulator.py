"""Discrete-event batch scheduler simulation.

The workload model (:mod:`repro.scheduler.workload`) samples *snapshots*
of active jobs; this module evolves a machine **through time**: jobs
arrive in a Poisson stream, queue FCFS with simple backfill, receive a
production placement when capacity frees up, run for their duration, and
depart.  The resulting trace gives the facility studies time-correlated
machine states (the real LDMS weeks are consecutive minutes of *one*
evolving system, not independent draws) and produces the schedule-level
metrics facilities track: utilization timeline, queue wait times, and
the core-hours log behind Fig. 1.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.scheduler.jobs import Job, JobLog
from repro.scheduler.placement import FreeNodePool, production_placement
from repro.scheduler.workload import WorkloadModel
from repro.topology.dragonfly import DragonflyTopology


@dataclass
class ScheduledJob:
    """A job with its life-cycle timestamps (hours)."""

    job: Job
    submit: float
    start: float = -1.0
    end: float = -1.0
    nodes: np.ndarray | None = None

    @property
    def wait(self) -> float:
        """Queue wait in hours (-1 if never started)."""
        return self.start - self.submit if self.start >= 0 else -1.0

    @property
    def ran(self) -> bool:
        return self.start >= 0


@dataclass
class ScheduleTrace:
    """Outcome of one scheduler simulation."""

    top: DragonflyTopology
    jobs: list[ScheduledJob]
    sample_times: np.ndarray  # hours
    utilization: np.ndarray  # fraction of nodes busy per sample
    active_at: list[list[ScheduledJob]]  # running jobs per sample

    def mean_wait_hours(self) -> float:
        waits = [j.wait for j in self.jobs if j.ran]
        return float(np.mean(waits)) if waits else 0.0

    def job_log(self) -> JobLog:
        """The completed-jobs log (Fig. 1's input) from this trace."""
        return JobLog(jobs=[s.job for s in self.jobs if s.ran])


class BatchScheduler:
    """FCFS-with-backfill scheduler over a dragonfly's node pool.

    Parameters
    ----------
    top:
        The machine.
    workload:
        Job size/duration/archetype source.
    arrival_rate:
        Mean job arrivals per hour.
    backfill_depth:
        How many queued jobs past the FCFS head may start early if the
        head does not fit (0 = pure FCFS).
    """

    def __init__(
        self,
        top: DragonflyTopology,
        *,
        workload: WorkloadModel | None = None,
        arrival_rate: float = 12.0,
        backfill_depth: int = 8,
    ) -> None:
        if arrival_rate <= 0:
            raise ValueError("arrival_rate must be > 0")
        if backfill_depth < 0:
            raise ValueError("backfill_depth must be >= 0")
        self.top = top
        self.workload = workload or WorkloadModel(top)
        self.arrival_rate = arrival_rate
        self.backfill_depth = backfill_depth

    def run(
        self,
        duration_hours: float,
        rng: np.random.Generator,
        *,
        sample_interval_hours: float = 1.0 / 60.0,
        warmup_hours: float = 6.0,
    ) -> ScheduleTrace:
        """Simulate ``duration_hours`` (after a warm-up fill period)."""
        if duration_hours <= 0:
            raise ValueError("duration_hours must be > 0")
        horizon = warmup_hours + duration_hours
        pool = FreeNodePool(self.top)

        # pre-draw arrivals
        jobs: list[ScheduledJob] = []
        t = 0.0
        while t < horizon:
            t += float(rng.exponential(1.0 / self.arrival_rate))
            size = self.workload.mix.sample_size(rng, self.top.n_nodes)
            jobs.append(
                ScheduledJob(
                    job=Job(
                        n_nodes=size,
                        duration_hours=self.workload.mix.sample_duration(rng),
                        archetype=self.workload._sample_archetype(rng),
                        start_hours=t,
                    ),
                    submit=t,
                )
            )

        queue: list[ScheduledJob] = []
        running: list[ScheduledJob] = []
        end_heap: list[tuple[float, int]] = []  # (end time, index into jobs)
        arrivals = iter(jobs)
        next_arrival = next(arrivals, None)

        sample_times = warmup_hours + np.arange(
            0.0, duration_hours, sample_interval_hours
        )
        utilization = np.zeros(sample_times.size)
        active_at: list[list[ScheduledJob]] = [[] for _ in sample_times]
        sample_i = 0

        def try_start(now: float) -> None:
            nonlocal queue
            started: list[ScheduledJob] = []
            blocked_head = False
            for qi, sj in enumerate(queue):
                if blocked_head and qi > self.backfill_depth:
                    break
                if sj.job.n_nodes <= pool.n_free:
                    try:
                        sj.nodes = production_placement(
                            self.top, sj.job.n_nodes, rng, pool=pool
                        )
                    except ValueError:
                        blocked_head = blocked_head or qi == 0
                        continue
                    sj.start = now
                    sj.end = now + sj.job.duration_hours
                    running.append(sj)
                    heapq.heappush(end_heap, (sj.end, id(sj)))
                    started.append(sj)
                else:
                    blocked_head = blocked_head or qi == 0
                    if qi == 0 and self.backfill_depth == 0:
                        break
            queue = [sj for sj in queue if sj not in started]

        now = 0.0
        while now < horizon:
            # next event: arrival, completion, or sample boundary
            candidates = []
            if next_arrival is not None:
                candidates.append(next_arrival.submit)
            if end_heap:
                candidates.append(end_heap[0][0])
            if sample_i < sample_times.size:
                candidates.append(float(sample_times[sample_i]))
            if not candidates:
                break
            now = min(candidates)

            # completions first (free capacity before placing)
            while end_heap and end_heap[0][0] <= now:
                _, sid = heapq.heappop(end_heap)
                done = [sj for sj in running if id(sj) == sid]
                for sj in done:
                    running.remove(sj)
                    pool.release(sj.nodes)
            # arrivals
            while next_arrival is not None and next_arrival.submit <= now:
                queue.append(next_arrival)
                next_arrival = next(arrivals, None)
            try_start(now)
            # samples
            while sample_i < sample_times.size and sample_times[sample_i] <= now:
                busy = sum(sj.job.n_nodes for sj in running)
                utilization[sample_i] = busy / self.top.n_nodes
                active_at[sample_i] = list(running)
                sample_i += 1

        return ScheduleTrace(
            top=self.top,
            jobs=[sj for sj in jobs if sj.submit <= horizon],
            sample_times=sample_times,
            utilization=utilization,
            active_at=active_at,
        )
