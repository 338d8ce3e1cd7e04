"""Execution sites, random job binding, and online bundle formation.

Each HPC cluster/partition pair is an execution site with a FIFO queue of
bound jobs.  New jobs are bound to a compatible site chosen uniformly at
random; a retried job stays at its site while that site still fits it.  A
bundle forms by packing the queue, in arrival order, into a fresh bin of
the site until the sufficiency policy is met; sites with idle queues are
flushed (forced single-pass packing) at a regular interval so small
queues are never stranded.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Container, Iterable, Mapping, Protocol

from .packing import PackingBin, Placement, ResourceRect, bounding_request, waste_fraction


class JobLike(Protocol):
    """Anything with a resource request: a dispatcher JobSpec or JobRecord."""

    cores: int
    requested_minutes: int


@dataclass(frozen=True)
class BundlePolicy:
    """Knobs governing bundle formation and fault handling.

    A queue is sufficient once ``min_jobs`` members are packed or the
    packed area reaches ``min_fill`` of the bin.  ``timeout_buffer_minutes``
    is added to every packed height so a scheduler grace-period kill is
    distinguishable from normal completion.  A bundle silent for more than
    ``heartbeat_factor`` times its requested minutes is presumed lost.
    """

    min_jobs: int = 5
    min_fill: float = 0.5
    flush_interval_minutes: int = 60
    timeout_buffer_minutes: int = 5
    heartbeat_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.min_jobs < 1:
            raise ValueError("min_jobs must be >= 1")
        if not 0.0 <= self.min_fill <= 1.0:
            raise ValueError("min_fill must be in [0, 1]")
        if self.flush_interval_minutes < 1:
            raise ValueError("flush_interval_minutes must be >= 1")
        if self.timeout_buffer_minutes < 0:
            raise ValueError("timeout_buffer_minutes must be >= 0")
        if self.heartbeat_factor <= 1.0:
            raise ValueError("heartbeat_factor must be > 1")


@dataclass
class ExecutionSite:
    """A cluster/partition pair with its queue of bound job ids."""

    site_id: str
    cores_per_node: int
    max_walltime_minutes: int
    active: bool = True
    queue: list[str] = field(default_factory=list)
    last_attempt_at: int = 0

    def __post_init__(self) -> None:
        if self.cores_per_node < 1:
            raise ValueError(f"site {self.site_id!r}: cores_per_node must be >= 1")
        if self.max_walltime_minutes < 1:
            raise ValueError(f"site {self.site_id!r}: max_walltime_minutes must be >= 1")


@dataclass(slots=True)
class Bundle:
    """An ordered set of packed jobs submitted to the backend as one job.

    Placement heights include the timeout buffer; the request is the
    bounding rectangle of the placements, anchored at the origin.  Once
    submitted, the dispatcher keeps the backend's handle, the heartbeat
    clock and the member outcome tallies (in ``dispatcher.OUTCOMES``
    order) here.
    """

    bundle_id: str
    site_id: str
    members: list[tuple[str, Placement]]
    request_cores: int
    request_minutes: int
    handle: str = ""
    last_event_at: int = 0
    outcome_counts: tuple[int, int, int, int, int] = (0, 0, 0, 0, 0)
    consumed_core_minutes: int = 0

    @property
    def job_ids(self) -> list[str]:
        return [job_id for job_id, _ in self.members]

    @property
    def n_jobs(self) -> int:
        return len(self.members)

    @property
    def requested_core_minutes(self) -> int:
        return self.request_cores * self.request_minutes

    def waste_fraction(self) -> float:
        return waste_fraction([p for _, p in self.members],
                              (self.request_cores, self.request_minutes))


def site_id_error(site_id: str, known: Container[str]) -> str | None:
    """Why ``SiteRegistry`` refuses a site named ``site_id``, or None: an id in ``known``."""
    if site_id in known:
        return f"duplicate site id {site_id!r}"
    return None


class SiteRegistry:
    """Owns the execution sites, their queues, and bundle formation.

    Only the registry changes a queue: ``bind`` and ``enqueue`` append, ``commit``
    removes the members of a bundle the backend accepted, and ``set_active`` empties
    the queue of a site it switches off.  A rejected proposal leaves nothing to undo.
    All mutation happens through one event loop, so no locking; reads for
    reporting take snapshots of the queue lists.  ``bind`` keeps a job at
    ``prefer``, a retried job's own site, while that site still takes it, and
    otherwise draws a site from ``rng``, so a seeded generator makes a run reproducible.
    """

    def __init__(self, sites: Iterable[ExecutionSite], policy: BundlePolicy,
                 rng: random.Random):
        self.sites: dict[str, ExecutionSite] = {}
        for site in sites:
            error = site_id_error(site.site_id, self.sites)
            if error is not None:
                raise ValueError(error)
            self.sites[site.site_id] = site
        self.policy = policy
        self.rng = rng
        self._bundle_seq = 0
        # One buffered rectangle per (cores, requested minutes) request.
        self._rects: dict[tuple[int, int], ResourceRect] = {}

    def site(self, site_id: str) -> ExecutionSite:
        return self.sites[site_id]

    def bind(self, job: JobLike, job_id: str,
             prefer: ExecutionSite | None = None) -> ExecutionSite | None:
        """Queue ``job`` at a site that takes it, and return that site.

        A site takes a job while it is active and a fresh bin of it holds the
        request plus the timeout buffer.  The job stays at ``prefer`` while that
        site takes it, and draws nothing; otherwise one site is drawn uniformly
        at random among those that do.  ``None`` when no site takes it, which
        the caller turns into a terminal resource error.
        """
        cores = job.cores
        minutes = job.requested_minutes + self.policy.timeout_buffer_minutes
        fits = [s for s in self.sites.values()
                if s.active and cores <= s.cores_per_node and minutes <= s.max_walltime_minutes]
        if prefer is not None and prefer in fits:
            site = prefer
        elif fits:
            site = fits[self.rng.randrange(len(fits))]
        else:
            return None
        site.queue.append(job_id)
        return site

    def enqueue(self, site: ExecutionSite, job_id: str) -> None:
        """Append a job to a site's queue as a fresh arrival, with no fit check."""
        site.queue.append(job_id)

    def commit(self, bundle: Bundle) -> None:
        """Remove an accepted bundle's members from its site's queue."""
        site = self.sites[bundle.site_id]
        members = {job_id for job_id, _ in bundle.members}
        site.queue = [j for j in site.queue if j not in members]

    def set_active(self, site: ExecutionSite, active: bool) -> list[str]:
        """Switch a site on or off; switching off empties its queue and returns it."""
        site.active = active
        if active:
            return []
        drained, site.queue = site.queue, []
        return drained

    def try_form_bundle(
        self,
        site: ExecutionSite,
        jobs: Mapping[str, JobLike],
        force: bool = False,
        now: int = 0,
    ) -> Bundle | None:
        """Propose a bundle: pack the site queue into a fresh bin until sufficiency.

        The queue is walked in FIFO order; a job whose buffered rectangle
        no longer fits the partially packed bin is skipped.  Packing stops
        as soon as the policy is satisfied.  The queue is left as it is:
        the members leave it only when ``commit`` accepts the bundle.
        Returns ``None`` when the packed jobs are insufficient and
        ``force`` is unset, or when nothing packed at all.  Every call,
        successful or not, resets the site's flush timer.
        """
        site.last_attempt_at = now
        if not site.active:
            return None

        bin_ = PackingBin(site.cores_per_node, site.max_walltime_minutes)
        insert = bin_.insert
        area = bin_.area
        min_jobs, min_fill = self.policy.min_jobs, self.policy.min_fill
        rects = self._rects
        packed: list[tuple[str, Placement]] = []
        sufficient = False
        for job_id in site.queue:
            job = jobs[job_id]
            shape = (job.cores, job.requested_minutes)
            rect = rects.get(shape)
            if rect is None:
                rect = rects[shape] = ResourceRect(
                    job.cores, job.requested_minutes + self.policy.timeout_buffer_minutes)
            placement = insert(rect)
            if placement is None:
                continue
            packed.append((job_id, placement))
            if len(packed) >= min_jobs or bin_.used_area() / area >= min_fill:
                sufficient = True
                break

        if not packed or not (force or sufficient):
            return None

        cores, minutes = bounding_request([p for _, p in packed])
        self._bundle_seq += 1
        return Bundle(
            bundle_id=f"B{self._bundle_seq:05d}",
            site_id=site.site_id,
            members=packed,
            request_cores=cores,
            request_minutes=minutes,
        )

    def flush_due_sites(self, now: int, jobs: Mapping[str, JobLike]) -> list[Bundle]:
        """Force-propose bundles on active sites overdue for an attempt."""
        bundles = []
        for site in self.sites.values():
            if not site.active:
                continue
            if now - site.last_attempt_at < self.policy.flush_interval_minutes:
                continue
            bundle = self.try_form_bundle(site, jobs, force=True, now=now)
            if bundle is not None:
                bundles.append(bundle)
        return bundles

    def snapshot_queues(self) -> dict[str, list[str]]:
        """Read-only copy of every site queue, for reporting."""
        return {site_id: list(site.queue) for site_id, site in self.sites.items()}
