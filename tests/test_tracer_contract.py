"""The benchmark still finds every name it wraps or reads.

``bench/tracer.py`` patches hpcbundle by ``vars(owner)[attr]``, so a
rename in the program breaks ``bench/run.py --trace 1`` with a KeyError.
``bench/verify.py`` reads a finished run's dispatcher, bundles and result
envelopes by attribute name.  These tests load both modules as the
benchmark does and run the criterion-11 input through a Simulation.
"""

import importlib.util
import sys
from pathlib import Path

from test_golden import CRITERION_11_SITES, criterion_11_workload

from hpcbundle import Simulation, parse_policy, parse_sites_text, parse_workload_text
from hpcbundle.packing import PackingBin

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


def load_bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # Registered first, as an import would, so dataclasses can resolve the
    # module's postponed annotations.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def criterion_11_simulation() -> Simulation:
    contents = parse_sites_text(CRITERION_11_SITES)
    jobs = parse_workload_text(criterion_11_workload())
    return Simulation(contents.sites, jobs,
                      parse_policy("min_jobs=3,min_fill=0.3,flush=30"),
                      contents.build_config(seed=11))


def test_tracer_wraps_and_restores_the_program():
    tracing = load_bench_module("tracer")
    original_insert = vars(PackingBin)["insert"]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        criterion_11_simulation().run()
    finally:
        tracer.restore()
    names = {span[0] for span in tracer.spans}
    assert {"packing.insert", "stepgraph.step_graph", "stepgraph.transitive_reduction",
            "simcluster.schedule_steps"} <= names
    assert tracer.counts["free_rects"] > 0
    assert vars(PackingBin)["insert"] is original_insert


def test_verify_reads_a_finished_run():
    verify = load_bench_module("verify")
    sim = criterion_11_simulation()
    report = sim.run()
    assert verify.check(report, [spec.job_id for spec in sim.workload]) == []
    outcomes = verify.outcomes(report)
    bundles = report.dispatcher.bundle_reports
    assert outcomes["bundles_per_job"] == len(bundles) / len(sim.workload)
    assert outcomes["submissions_per_job"] >= 1.0
    assert 0.0 < outcomes["waste_frac"] < 1.0
    assert 0.0 < outcomes["core_min_efficiency"] <= 1.0
