"""Correctness gate and simulated-outcome metrics for one finished replay.

Both read only the state a finished `Simulation.run()` leaves behind
(`JobRecord`, `BundleReport`, the submitted bundles and the result
envelopes), never `metrics.summarize`, so a change to the program's own
reporting cannot hide a wrong outcome.
"""

from __future__ import annotations

import math
from collections import Counter


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, the same rule as numpy's default."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    k = (len(ordered) - 1) * q / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (k - lo)


def check(report, job_ids: list[str]) -> list[str]:
    """Every broken invariant of a finished run, as readable messages."""
    from hpcbundle.dispatcher import TERMINAL_STATES, JobState

    dispatcher = report.dispatcher
    problems: list[str] = []
    if report.horizon_exhausted or report.live_at_end:
        problems.append(f"horizon reached with {report.live_at_end} jobs live")
    if not dispatcher.conservation_ok():
        problems.append("Dispatcher.conservation_ok() is false")

    envelopes = Counter(e.job_id for e in report.sink.envelopes)
    completed = {e.job_id for e in report.sink.envelopes if e.status == "completed"}
    not_terminal = bad_envelope = 0
    for job_id in job_ids:
        job = dispatcher.jobs.get(job_id)
        if job is None or job.state not in TERMINAL_STATES:
            not_terminal += 1
        elif envelopes[job_id] != 1 or (job.state is JobState.COMPLETED) != (job_id in completed):
            bad_envelope += 1
    if not_terminal:
        problems.append(f"{not_terminal} jobs are not terminal")
    if bad_envelope:
        problems.append(f"{bad_envelope} jobs lack exactly one matching result envelope")
    if sum(envelopes.values()) != len(job_ids):
        problems.append(f"{sum(envelopes.values())} envelopes for {len(job_ids)} jobs")

    registry = report.dispatcher.registry
    for run in report.backend.runs.values():
        bundle = run.bundle
        site = registry.site(bundle.site_id)
        if (bundle.request_cores > site.cores_per_node
                or bundle.request_minutes > site.max_walltime_minutes):
            problems.append(f"{bundle.bundle_id} request exceeds site {site.site_id}")
        placements = [p for _, p in bundle.members]
        for i, p in enumerate(placements):
            if (p.left < 0 or p.bottom < 0 or p.right > bundle.request_cores
                    or p.top > bundle.request_minutes):
                problems.append(f"{bundle.bundle_id} placement outside its request")
            if any(p.overlaps(q) for q in placements[i + 1:]):
                problems.append(f"{bundle.bundle_id} has overlapping placements")
    return problems


def outcomes(report) -> dict[str, float]:
    """Simulated outcomes: deterministic for a given seed and program."""
    from hpcbundle.dispatcher import JobState

    dispatcher = report.dispatcher
    jobs = list(dispatcher.jobs.values())
    turnaround = [j.terminal_at - j.ingested_at for j in jobs]
    reports = dispatcher.bundle_reports
    requested = sum(r.requested_core_minutes for r in reports)
    packed = sum(p.rect.area for run in report.backend.runs.values()
                 for _, p in run.bundle.members)
    completed = dispatcher.state_counts[JobState.COMPLETED]
    return {
        "turnaround_p50_min": percentile(turnaround, 50),
        "turnaround_p95_min": percentile(turnaround, 95),
        "makespan_min": max(j.terminal_at for j in jobs) - min(j.ingested_at for j in jobs),
        "waste_frac": 1.0 - packed / requested,
        "core_min_efficiency": sum(r.consumed_core_minutes for r in reports) / requested,
        "bundles_per_job": len(reports) / len(jobs),
        "submissions_per_job": sum(r.n_jobs for r in reports) / len(jobs),
        "job_completion_rate": completed / len(jobs),
        "job_error_rate": dispatcher.state_counts[JobState.ERRORED] / len(jobs),
    }
