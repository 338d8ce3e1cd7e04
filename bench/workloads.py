"""Seeded input generators for the benchmark workloads.

Each generator turns a seed into the three inputs `hpcbundle simulate`
reads: a sites file, a workload CSV and a policy string.  The program
under test sees only this text.  The same seed always yields the same
bytes, because every draw comes from one `random.Random(seed)` in a
fixed order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

_DEEP_QUEUE_ORDER = 2880  # fixed, not the run's seed: see deep_queue
HEADER = "job_id,test_id,model_id,cores,requested_minutes,true_runtime_minutes,arrival_minute"


@dataclass(frozen=True)
class Inputs:
    """Generated text inputs plus whether the run writes per-bundle artifacts."""

    sites_text: str
    workload_text: str
    policy_text: str
    n_jobs: int
    artifacts: bool = False


def _site(site_id: str, cores: int, minutes: int, wait: str | None) -> list[str]:
    lines = [f"[site {site_id}]", f"cores_per_node = {cores}",
             f"max_walltime_minutes = {minutes}"]
    if wait is not None:
        lines.append(f"queue_wait = {wait}")
    return lines + [""]


def _job_row(n: int, cores: int, req: int, true: int, arrival: int) -> str:
    return f"j{n:05d},T_j{n:05d},M,{cores},{req},{true},{arrival}"


def stream(seed: int, n_jobs: int = 10_000) -> Inputs:
    """The scale-criterion generator: many small jobs, 10 arrivals a minute.

    Same draws, in the same order, as the 10k-job acceptance criterion,
    so seed 12 reproduces that test's input.
    """
    rng = random.Random(seed)
    rows = [HEADER]
    for n in range(n_jobs):
        req = rng.randint(10, 180)
        draw = rng.random()
        if draw < 0.85:
            true = max(1, int(req * rng.uniform(0.2, 0.95)))
        elif draw < 0.97:
            true = int(req * rng.uniform(1.05, 1.9))
        else:
            true = int(req * rng.uniform(2.2, 5.0))
        rows.append(_job_row(n, rng.randint(1, 8), req, true, n // 10))
    sites = ["[sim]", "grace_minutes = 5", "tick_minutes = 10", ""]
    for site_id, cores, minutes in (("alpha", 8, 240), ("beta", 16, 720), ("gamma", 4, 1440)):
        sites += _site(site_id, cores, minutes, "uniform 0 30")
    return Inputs("\n".join(sites), "\n".join(rows) + "\n",
                  "min_jobs=6,min_fill=0.4,flush=30", n_jobs)


def deep_queue(seed: int, blocks: int = 2) -> Inputs:
    """One wide site whose queue grows to 200 jobs before a bundle forms.

    One arrival a minute keeps the (default 60-minute) flush timer from
    ever firing, so every arrival repacks the whole queue, and one
    200-member bundle forms per block of arrivals.  Each block holds every
    shape of 1-4 cores x 10-59 minutes once, in one fixed shuffled order;
    the seed draws only the true runtimes.  With a seeded order, packing
    cost and waste of a single 200-job queue swing by a third from seed
    to seed.  No faults, no queue wait, no artifacts.
    """
    shapes = [(cores, req) for cores in range(1, 5) for req in range(10, 60)]
    random.Random(_DEEP_QUEUE_ORDER).shuffle(shapes)
    rng = random.Random(seed)
    rows = [HEADER]
    for n, (cores, req) in enumerate(shapes * blocks):
        true = max(1, int(req * rng.uniform(0.2, 0.95)))
        rows.append(_job_row(n, cores, req, true, n))
    return Inputs("\n".join(_site("wide", 64, 2880, None)), "\n".join(rows) + "\n",
                  "min_jobs=200,min_fill=0.9", len(rows) - 1)


# Per-job fault classes for faults_io: (cumulative probability, fault lines).
# A multiplier of 2 forces one doubling; 6 forces two or three, which
# pushes long jobs off the 240-minute site (rebind); 1000 outgrows every
# site, so the job ends as a resource error.
_FAULT_CLASSES = (
    (0.08, ("STEP_OVERRUN", "multiplier = 2")),
    (0.12, ("STEP_OVERRUN", "multiplier = 6")),
    (0.13, ("STEP_OVERRUN", "multiplier = 1000")),
    (0.17, ("NODE_FAULT", "times = 1")),
    (0.18, ("NODE_FAULT", "times = 2")),
)
_STALL_PERIOD = 300
_STALL_LENGTH = 25
_STALL_UNTIL = 9_000


def faults_io(seed: int, n_jobs: int = 5_000) -> Inputs:
    """Every recovery path at once, with per-bundle artifacts written to disk.

    Jobs draw an overrun, a node fault or nothing.  Every site freezes
    for 25 minutes every 300.  Site alpha's queue wait (0-240 minutes)
    exceeds twice the request of its smaller bundles, so the heartbeat
    monitor cancels healthy queued bundles there: the known defect stays
    visible in `dispatcher.cancels_queued` and `dispatcher.late_events`.
    """
    rng = random.Random(seed)
    rows = [HEADER]
    faults: list[str] = []
    for n in range(n_jobs):
        req = rng.randint(10, 180)
        true = max(1, int(req * rng.uniform(0.2, 0.95)))
        rows.append(_job_row(n, rng.randint(1, 8), req, true, n // 10))
        draw = rng.random()
        for bound, (kind, setting) in _FAULT_CLASSES:
            if draw < bound:
                faults += ["[fault]", f"kind = {kind}", f"target = j{n:05d}", setting, ""]
                break
    sites = ["[sim]", "grace_minutes = 5", "tick_minutes = 10", ""]
    site_defs = (("alpha", 8, 240, "uniform 0 240"), ("beta", 16, 720, "uniform 0 60"),
                 ("gamma", 4, 1440, "uniform 0 120"))
    for index, (site_id, cores, minutes, wait) in enumerate(site_defs):
        sites += _site(site_id, cores, minutes, wait)
        for start in range(50 + 100 * index, _STALL_UNTIL, _STALL_PERIOD):
            sites += ["[fault]", "kind = GLOBAL_STALL", f"target = {site_id}",
                      f"window = {start} {start + _STALL_LENGTH}", ""]
    return Inputs("\n".join(sites + faults), "\n".join(rows) + "\n",
                  "min_jobs=6,min_fill=0.4,flush=30", n_jobs, artifacts=True)


WORKLOADS: dict[str, Callable[[int], Inputs]] = {
    "stream": stream,
    "deep_queue": deep_queue,
    "faults_io": faults_io,
}
