"""Command line entry points: ``pack``, ``simulate``, ``report``.

``pack`` runs the bin packer once over a workload file and prints the
placements, the derived execution-order graph, the bounding request and
an ASCII rendering of the bin.  ``simulate`` replays a workload against
the simulated cluster and writes metrics.csv, jobs.csv and events.log.
``report`` pools jobs.csv files from several runs and prints their
job-level summary lines.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bundling import ExecutionSite
from .dispatcher import MAKEFILE_FILENAME, make_text
from .metrics import aggregate, summarize, write_jobs_csv, write_metrics_csv
from .packing import PackingBin, ResourceRect
from .simcluster import Simulation
from .stepgraph import step_graph
from .workload import (
    ParseError,
    SiteFileContents,
    parse_policy,
    parse_sites_file,
    parse_workload_file,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hpcbundle",
        description="Bundle resource-rectangle jobs for HPC sites and simulate their execution.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pack = sub.add_parser("pack", help="pack one workload into one site bin")
    pack.add_argument("--sites", required=True, help="sites file")
    pack.add_argument("--workload", required=True, help="workload CSV")
    pack.add_argument("--policy", default="", help="min_jobs=,min_fill=,flush=,buffer=,heartbeat=")
    pack.add_argument("--site", default=None, help="site id (default: first in file)")
    pack.add_argument("--row-minutes", type=int, default=5, help="minutes per rendered row")
    pack.add_argument("--out", default=None, help="directory for pack.txt and Makefile")

    sim = sub.add_parser("simulate", help="run a workload against the simulated cluster")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--sites", required=True, help="sites file")
    sim.add_argument("--workload", required=True, help="workload CSV")
    sim.add_argument("--policy", default="", help="min_jobs=,min_fill=,flush=,buffer=,heartbeat=")
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--horizon", type=int, default=1_000_000, help="stop after this virtual minute")

    rep = sub.add_parser("report", help="pool the job-level fields of jobs.csv tables")
    rep.add_argument("tables", nargs="+", help="jobs.csv files")
    return parser


def _choose_site(contents: SiteFileContents, site_id: str | None) -> ExecutionSite:
    if not contents.sites:
        raise ParseError("sites file declares no sites")
    if site_id is None:
        return contents.sites[0]
    for site in contents.sites:
        if site.site_id == site_id:
            return site
    raise ParseError(f"unknown site {site_id!r}")


def _cmd_pack(args: argparse.Namespace) -> int:
    contents = parse_sites_file(args.sites)
    site = _choose_site(contents, args.site)
    jobs = parse_workload_file(args.workload)
    if not jobs:
        raise ParseError("workload declares no jobs")
    policy = parse_policy(args.policy)
    buffer = policy.timeout_buffer_minutes

    bin_ = PackingBin(site.cores_per_node, site.max_walltime_minutes)
    members = []
    for job in jobs:
        placement = bin_.insert(ResourceRect(job.cores, job.requested_minutes + buffer))
        if placement is None:
            print(
                f"error: job {job.job_id} ({job.cores} cores x "
                f"{job.requested_minutes + buffer} min buffered) does not fit "
                f"site {site.site_id}",
                file=sys.stderr,
            )
            return 2
        members.append((job.job_id, placement))

    graph = step_graph(members)
    lines = [f"site {site.site_id}: {site.cores_per_node} cores x "
             f"{site.max_walltime_minutes} min, buffer {buffer} min"]
    for job_id, placement in members:
        lines.append(
            f"  {job_id}: x={placement.x} y={placement.y} "
            f"{placement.rect.cores}x{placement.rect.minutes}"
        )
    lines.append("edges: " + (", ".join(f"{a}->{b}" for a, b in sorted(graph.edges)) or "none"))
    cores, minutes = bin_.bounding()
    lines.append(f"request: {cores} cores x {minutes} min "
                 f"(waste {bin_.waste_fraction():.4f})")
    lines.append("")
    script = make_text(graph)
    lines.append(script)
    labels = [job_id[0] if job_id else "?" for job_id, _ in members]
    lines.append(bin_.render(row_minutes=args.row_minutes, labels=labels))
    text = "\n".join(lines)
    print(text)
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "pack.txt").write_text(text + "\n")
        (out / MAKEFILE_FILENAME).write_text(script)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    contents = parse_sites_file(args.sites)
    jobs = parse_workload_file(args.workload)
    policy = parse_policy(args.policy)
    config = contents.build_config(seed=args.seed, horizon_minutes=args.horizon)
    out = Path(args.out)
    sim = Simulation(contents.sites, jobs, policy, config, out_dir=out)
    out.mkdir(parents=True, exist_ok=True)  # only once the inputs are accepted
    report = sim.run()
    (out / "events.log").write_text(report.event_log_text)
    write_metrics_csv(out / "metrics.csv", report.dispatcher)
    write_jobs_csv(out / "jobs.csv", report.dispatcher)
    print(summarize(report.dispatcher).render())
    if report.horizon_exhausted:
        print(
            f"warning: horizon {args.horizon} reached with "
            f"{report.live_at_end} jobs still live",
            file=sys.stderr,
        )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    print("\n".join(aggregate(args.tables).job_lines()))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"pack": _cmd_pack, "simulate": _cmd_simulate, "report": _cmd_report}
    try:
        return handlers[args.command](args)
    except (ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
