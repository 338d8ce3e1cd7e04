"""Queue jobs at execution sites and form bundles under a policy.

Arriving jobs bind uniformly at random to a compatible site (enough
cores, and buffered minutes within the walltime cap).  Each site keeps
a FIFO queue; a bundle forms once the packed queue passes the policy's
sufficiency bar (enough jobs, or enough of the bin filled), or when the
flush timer forces whatever is waiting.
"""

import random

from hpcbundle import BundlePolicy, ExecutionSite, JobSpec, SiteRegistry


def job(job_id: str, cores: int, minutes: int) -> JobSpec:
    return JobSpec(job_id=job_id, test_id=f"T_{job_id}", model_id="MO_x",
                   cores=cores, requested_minutes=minutes)


def main() -> None:
    sites = [
        ExecutionSite("cluster-a", cores_per_node=8, max_walltime_minutes=240),
        ExecutionSite("cluster-b", cores_per_node=16, max_walltime_minutes=720),
    ]
    policy = BundlePolicy(min_jobs=3, min_fill=0.5,
                          flush_interval_minutes=60, timeout_buffer_minutes=5)
    registry = SiteRegistry(sites, policy, random.Random(7))

    jobs = {}
    print("binding eight jobs:")
    for n in range(8):
        spec = job(f"job{n}", cores=1 + n % 4, minutes=30 + 10 * n)
        jobs[spec.job_id] = spec
        site = registry.bind(spec, spec.job_id)
        print(f"  {spec.job_id} ({spec.cores}c x {spec.requested_minutes}m) "
              f"-> {site.site_id}")

    print("\nqueues:")
    for site_id, queue in registry.snapshot_queues().items():
        print(f"  {site_id}: {queue}")

    print("\ntrying to form bundles (min 3 jobs or half the bin):")
    for site in sites:
        bundle = registry.try_form_bundle(site, jobs, now=0)
        if bundle is None:
            print(f"  {site.site_id}: not yet sufficient")
            continue
        # Formation only proposes; the members leave the queue once the
        # backend accepts the bundle.  Here every proposal is accepted.
        registry.commit(bundle)
        print(f"  {site.site_id}: {bundle.bundle_id} "
              f"request {bundle.request_cores}c x {bundle.request_minutes}m "
              f"waste {bundle.waste_fraction():.3f}")
        for job_id, placement in bundle.members:
            print(f"     {job_id} at x={placement.x} y={placement.y}")

    print("\nleftover queues wait for more arrivals or the flush timer:")
    for site_id, queue in registry.snapshot_queues().items():
        print(f"  {site_id}: {queue}")

    # An hour later nothing new arrived; the flush timer forces the rest.
    for bundle in registry.flush_due_sites(now=60, jobs=jobs):
        registry.commit(bundle)
        print(f"\nflush at minute 60: {bundle.bundle_id} on {bundle.site_id} "
              f"with {bundle.job_ids}")


if __name__ == "__main__":
    main()
