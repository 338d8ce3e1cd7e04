"""Benchmark for hpcbundle: seeded simulation replays, timed end to end.

Usage, from the repository root:

    python3 bench/run.py --workload stream --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1

For the given seed the benchmark generates a sites file, a workload CSV
and a policy string (workloads.py) and replays them the way
`hpcbundle simulate` does: parse, build a `Simulation`, run it, render
and write events.log, metrics.csv and jobs.csv.  It repeats the replay
until ``--seconds`` have passed and reports medians.  Every replay is
checked (verify.py), and all replays of one seed must produce identical
outputs.

``--trace 0`` reports the end-to-end metrics listed in BENCHMARK.json.
``--trace 1`` alternates untraced and traced replays and reports the
per-layer metrics of the traced ones plus the tracing overhead.  The
last line of standard output is one JSON object; the exit code is 0
only when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import tracer as tracing
import verify
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
DEFAULT_SEED = 1
HELD_OUT_SEED = 1001  # confirms a claim on inputs nobody tuned against
MIN_SETUPS = 9


def load_program() -> None:
    """Import hpcbundle from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "hpcbundle" / "__init__.py").is_file():
        raise SystemExit(f"error: no hpcbundle package under {src}")
    sys.path.insert(0, str(src))
    import hpcbundle

    if Path(hpcbundle.__file__).resolve().parent != src / "hpcbundle":
        raise SystemExit(f"error: imported hpcbundle from {hpcbundle.__file__}")


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """Units of the end-to-end and per-layer metrics, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def environment() -> dict[str, object]:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu}


@dataclass
class Replay:
    """Measurements and outputs of one replay."""

    setup_s: float
    wall_s: float  # from Simulation.run() through writing the three output files
    ingest_us: list[float]
    digests: dict[str, str]
    problems: list[str]
    outcomes: dict[str, float]
    log_kinds: Counter
    layers: dict[str, float] = field(default_factory=dict)


def setup(inputs, seed: int, artifacts_dir: Path | None):
    """Parse the inputs and build the Simulation, as `hpcbundle simulate` does.

    Returns the simulation, the parsed jobs and the seconds spent in
    (all of set-up, parse_sites_text, parse_workload_text).
    """
    from hpcbundle import Simulation, parse_policy, parse_sites_text, parse_workload_text

    t0 = time.perf_counter()
    contents = parse_sites_text(inputs.sites_text)
    t1 = time.perf_counter()
    jobs = parse_workload_text(inputs.workload_text)
    t2 = time.perf_counter()
    sim = Simulation(contents.sites, jobs, parse_policy(inputs.policy_text),
                     contents.build_config(seed=seed), out_dir=artifacts_dir)
    t3 = time.perf_counter()
    return sim, jobs, (t3 - t0, t1 - t0, t2 - t1)


def timed_setup(inputs, seed: int) -> float:
    gc.collect()
    return setup(inputs, seed, None)[2][0]


def replay(inputs, seed: int, work: Path, artifacts: bool = False,
           spans_path: Path | None = None) -> Replay:
    """One replay.  Untraced, only `Dispatcher.ingest` is wrapped (timed).
    With ``spans_path`` every layer boundary is, and the spans are written
    there.  With ``artifacts`` the simulation writes per-bundle artifacts
    into a fresh directory, as `hpcbundle simulate` does."""
    from hpcbundle.dispatcher import Dispatcher
    from hpcbundle.metrics import jobs_csv_text, metrics_csv_text

    artifacts_dir = work / "artifacts" if artifacts else None
    out_dir = work / "out"
    out_dir.mkdir(exist_ok=True)
    clock = time.perf_counter
    ingest_us: list[float] = []
    original_ingest = vars(Dispatcher)["ingest"]

    def timed_ingest(self, spec, now):
        start = clock()
        job = original_ingest(self, spec, now)
        ingest_us.append((clock() - start) * 1e6)
        return job

    tracer = tracing.Tracer() if spans_path is not None else None
    gc.collect()
    if tracer is not None:
        tracing.install(tracer)
    else:
        Dispatcher.ingest = timed_ingest
    try:
        sim, jobs, (setup_s, sites_s, workload_s) = setup(inputs, seed, artifacts_dir)
        t0 = clock()
        report = sim.run()
        t1 = clock()
        texts = {
            "events.log": report.event_log_text,
            "metrics.csv": metrics_csv_text(report.dispatcher),
            "jobs.csv": jobs_csv_text(report.dispatcher),
        }
        t2 = clock()
        for name, text in texts.items():
            (out_dir / name).write_text(text)
        t3 = clock()
    finally:
        if tracer is not None:
            tracer.restore()
        else:
            Dispatcher.ingest = original_ingest

    problems = verify.check(report, [spec.job_id for spec in jobs])
    result = Replay(
        setup_s=setup_s,
        wall_s=t3 - t0,
        ingest_us=ingest_us,
        digests={n: hashlib.sha256(t.encode()).hexdigest() for n, t in texts.items()},
        problems=problems,
        outcomes={} if problems else verify.outcomes(report),
        log_kinds=Counter(line.split(None, 2)[1] for line in report.log),
    )
    if tracer is not None:
        layers = tracing.layer_metrics(tracer, result.wall_s)
        files, size = 0, 0
        if artifacts_dir is not None:
            for path in artifacts_dir.rglob("*"):
                if path.is_file():
                    files += 1
                    size += path.stat().st_size
        kinds = result.log_kinds
        layers.update({
            "dispatcher.timeouts": report.dispatcher.timeout_total,
            "dispatcher.rebinds": report.dispatcher.rebind_total,
            "dispatcher.cancels": kinds["CANCEL"],
            "dispatcher.late_events": kinds["LATE_EVENT"],
            "simcluster.suppressed": kinds["SUPPRESSED"],
            "metrics.render_s": t2 - t1,
            "io.artifacts.files": files,
            "io.artifacts.bytes": size,
            "workload.parse_sites_text.s": sites_s,
            "workload.parse_workload_text.s": workload_s,
        })
        result.layers = layers
        tracer.write(spans_path)
    if artifacts_dir is not None:
        shutil.rmtree(artifacts_dir)
    return result


def median_of(rows: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def measure(name: str, seed: int, seconds: float, trace: bool) -> int:
    """Run one workload for ``seconds``, print its metrics, return the exit code."""

    e2e_units, layer_units = declared_metrics()
    inputs = WORKLOADS[name](seed)
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    untraced: list[Replay] = []
    traced: list[Replay] = []
    # Artifact files cost this host's disk 0.05-0.6 ms each, drifting
    # 2-3x between minutes, so only the traced run writes them (io.artifacts.*);
    # the end-to-end replays stop at the three output files.
    artifacts = trace and inputs.artifacts
    # Set-ups are sampled after every replay as well, so that setup_s spans
    # the whole run rather than one moment of it.
    setups: list[float] = []
    try:
        deadline = time.perf_counter() + seconds
        while True:
            if trace and len(traced) < len(untraced):
                traced.append(replay(inputs, seed, work, artifacts, OUT / f"spans-{name}.csv"))
            else:
                untraced.append(replay(inputs, seed, work, artifacts))
                setups += [untraced[-1].setup_s, timed_setup(inputs, seed)]
            if time.perf_counter() >= deadline and (traced or not trace):
                break
        while len(setups) < MIN_SETUPS:
            setups.append(timed_setup(inputs, seed))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    replays = untraced + traced
    reference = replays[0]
    failed_replays = 0
    for r in replays:
        if r.problems:
            print(f"# CHECK FAILED: {'; '.join(sorted(set(r.problems)))}")
            failed_replays += 1
        elif r.digests != reference.digests or r.outcomes != reference.outcomes:
            print("# NONDETERMINISTIC: replays of one seed disagree")
            failed_replays += 1
    attempted = inputs.n_jobs * len(replays)
    failed = inputs.n_jobs * failed_replays
    correct = failed_replays == 0

    env = environment()
    print(f"# workload {name} seed {seed} trace {int(trace)} jobs {inputs.n_jobs}")
    print(f"# python {env['python']} nproc {env['nproc']} cpu {env['cpu']}")
    print(f"# replays: {len(untraced)} untraced, {len(traced)} traced; "
          f"{len(setups)} set-ups; artifacts {'on' if artifacts else 'off'}")
    for file_name, digest in reference.digests.items():
        print(f"# sha256 {file_name:<12} {digest}")
    for key, value in reference.outcomes.items():
        print(f"# outcome {key:<24} {value!r}")
    kinds = reference.log_kinds
    print(f"# defects cancels {kinds['CANCEL']} late_events {kinds['LATE_EVENT']}")

    if trace:
        metrics = median_of([r.layers for r in traced])
        traced_wall = statistics.median(r.wall_s for r in traced)
        untraced_wall = statistics.median(r.wall_s for r in untraced)
        metrics["trace.overhead_s"] = traced_wall - untraced_wall
        metrics["trace.overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
        units = layer_units
    else:
        metrics = {
            "jobs_per_s": statistics.median(inputs.n_jobs / r.wall_s for r in untraced),
            "ingest_p50_us": statistics.median(
                verify.percentile(r.ingest_us, 50) for r in untraced),
            "ingest_p95_us": statistics.median(
                verify.percentile(r.ingest_us, 95) for r in untraced),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics.update({k: v for k, v in reference.outcomes.items() if k in e2e_units})
        units = e2e_units
    if correct and set(metrics) != set(units):
        raise SystemExit("error: measured metrics differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ set(units))}")
    for key in units:
        if key in metrics:
            print(f"{key:<40} {metrics[key]:>16.6f} {units[key]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in a fresh process, one after another."""

    merged: dict[str, dict] = {}
    correct, attempted, failed = True, 0, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"# {name}: no result (exit code {proc.returncode})")
            correct = False
            continue
        correct = correct and result["correct"] and proc.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        for key, value in result["metrics"].items():
            merged[f"{name}.{key}"] = value
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": merged}))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; held out: {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measure for at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from traced replays")
    args = parser.parse_args(argv)
    load_program()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return measure(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
