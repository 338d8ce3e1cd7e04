"""The benchmark's tracer still finds every name it wraps.

``bench/tracer.py`` patches hpcbundle by ``vars(owner)[attr]``, so a
rename in the program breaks ``bench/run.py --trace 1`` with a KeyError.
This test installs the tracer, as the traced benchmark does, and runs the
criterion-11 input through a Simulation.
"""

import importlib.util
from pathlib import Path

from test_golden import CRITERION_11_SITES, criterion_11_workload

from hpcbundle import Simulation, parse_policy, parse_sites_text, parse_workload_text
from hpcbundle.packing import PackingBin

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_the_program():
    tracing = load_tracer_module()
    original_insert = vars(PackingBin)["insert"]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        contents = parse_sites_text(CRITERION_11_SITES)
        jobs = parse_workload_text(criterion_11_workload())
        sim = Simulation(contents.sites, jobs,
                         parse_policy("min_jobs=3,min_fill=0.3,flush=30"),
                         contents.build_config(seed=11))
        sim.run()
    finally:
        tracer.restore()
    assert any(span[0] == "packing.insert" for span in tracer.spans)
    assert tracer.counts["free_rects"] > 0
    assert vars(PackingBin)["insert"] is original_insert
