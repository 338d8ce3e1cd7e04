"""End to end: files in, a fault-ridden run, artifacts and metrics out.

Reads the sites file and workload CSV from ``demos/data``, replays the
workload against the simulated cluster, and writes everything a real
run would leave behind: per-bundle directories with accounting, step
outputs, sentinel files and the generated makefile, plus events.log,
metrics.csv and jobs.csv.

The same run is available from the command line:

    hpcbundle simulate --seed 5 --sites demos/data/sites.txt \\
        --workload demos/data/workload.csv \\
        --policy min_jobs=3,min_fill=0.4,flush=40 --out /tmp/demo-run
"""

import itertools
import tempfile
from pathlib import Path

from hpcbundle import Simulation, parse_policy, parse_sites_text, parse_workload_text
from hpcbundle.metrics import summarize, write_jobs_csv, write_metrics_csv

DATA = Path(__file__).parent / "data"


def main() -> None:
    contents = parse_sites_text((DATA / "sites.txt").read_text())
    workload = parse_workload_text((DATA / "workload.csv").read_text())
    policy = parse_policy("min_jobs=3,min_fill=0.4,flush=40")
    config = contents.build_config(seed=5)

    out = Path(tempfile.mkdtemp(prefix="hpcbundle-demo-"))
    sim = Simulation(contents.sites, workload, policy, config, out_dir=out)
    report = sim.run()

    (out / "events.log").write_text(report.event_log_text)
    write_metrics_csv(out / "metrics.csv", report.dispatcher)
    write_jobs_csv(out / "jobs.csv", report.dispatcher)

    print(f"{len(workload)} jobs over {len(contents.sites)} sites, "
          f"finished at virtual minute {report.now}\n")
    print(summarize(report.dispatcher).render())

    print(f"\noutputs under {out}:")
    for path in sorted(out.rglob("*")):
        if path.is_file():
            print(f"  {path.relative_to(out)}")

    bundle_dir = next(p for p in sorted(out.iterdir()) if p.is_dir())
    print(f"\n{bundle_dir.name}/accounting.txt:")
    for line in (bundle_dir / "accounting.txt").read_text().splitlines():
        print(f"  {line}")

    print("\nfirst events:")
    for line in itertools.islice(report.log, 12):
        print(f"  {line}")


if __name__ == "__main__":
    main()
