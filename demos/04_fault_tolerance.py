"""Survive timeouts, vanished nodes, and stalled clusters.

Three miniature simulations against the virtual cluster:

1. a job that keeps outrunning its wallclock request, which doubles on
   every timeout and rebinds to a roomier site when needed;
2. a node fault, detected by a missing conclusion sentinel and retried
   without touching the request;
3. a cluster that freezes mid-run, caught by the heartbeat monitor,
   cancelled, and finished elsewhere in time.
"""

from hpcbundle import (
    BundlePolicy,
    ExecutionSite,
    FaultSpec,
    JobSpec,
    QueueWait,
    SimConfig,
    Simulation,
)


def job(job_id, cores, req, true):
    return JobSpec(job_id=job_id, test_id=f"T_{job_id}", model_id="MO_x",
                   cores=cores, requested_minutes=req, true_runtime_minutes=true)


def banner(title):
    print(f"\n=== {title} " + "=" * (60 - len(title)))


def show_job_lines(report, job_id):
    for line in report.log:
        if job_id in line:
            print(" ", line)


def main() -> None:
    banner("wallclock doubling")
    print("the job asks for 30 minutes but truly needs 250; the small site")
    print("caps walltime at 100, the big one at 300.\n")
    sim = Simulation(
        sites=[ExecutionSite("small", 8, 100), ExecutionSite("big", 8, 300)],
        workload=[job("stubborn", 3, req=30, true=250)],
        policy=BundlePolicy(min_jobs=1, min_fill=0.0, timeout_buffer_minutes=5),
        config=SimConfig(seed=0, grace_minutes=5),
    )
    report = sim.run()
    show_job_lines(report, "stubborn")
    env = report.sink.envelopes[0]
    print(f"\n  -> {env.status} after {env.attempts} attempts, "
          f"{env.elapsed_minutes} true minutes")

    banner("node fault")
    print("the first run dies without writing its sentinel file; the retry")
    print("keeps the original request because nothing timed out.\n")
    sim = Simulation(
        sites=[ExecutionSite("site", 8, 100)],
        workload=[job("unlucky", 2, req=30, true=20)],
        policy=BundlePolicy(min_jobs=1, min_fill=0.0, timeout_buffer_minutes=5),
        config=SimConfig(seed=0, faults=(FaultSpec("NODE_FAULT", "unlucky"),)),
    )
    report = sim.run()
    show_job_lines(report, "unlucky")

    banner("frozen cluster and heartbeat")
    print("two jobs share a bundle; the site freezes at minute 35.  A is")
    print("already done, B is not.  The silent bundle is cancelled once it")
    print("misses 2x its requested walltime; A's result survives, only B")
    print("runs again.\n")
    sim = Simulation(
        sites=[ExecutionSite("site", 6, 100)],
        workload=[job("A", 3, req=10, true=10), job("B", 3, req=90, true=85)],
        policy=BundlePolicy(min_jobs=2, min_fill=0.5, flush_interval_minutes=50,
                            timeout_buffer_minutes=0),
        config=SimConfig(
            seed=0, grace_minutes=0,
            queue_waits={"site": QueueWait("fixed", 20)},
            faults=(FaultSpec("GLOBAL_STALL", "site", window=(35, 250)),),
        ),
    )
    report = sim.run()
    for line in report.log:
        if any(k in line for k in (" CANCEL ", "BUNDLE_START", "ANALYZED",
                                   "STEP_END", "SUBMIT")):
            print(" ", line)
    print()
    for job_id in ("A", "B"):
        record = report.dispatcher.jobs[job_id]
        print(f"  {job_id}: {record.state.value} after "
              f"{record.attempts} attempt(s)")


if __name__ == "__main__":
    main()
