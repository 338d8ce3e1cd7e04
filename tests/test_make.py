"""Bundle make scripts run under GNU make, as a site runs them.

Both tests need GNU make at ``/usr/bin/make`` and fail without it: a
bundle directory that make cannot run is what they exist to catch.
"""

import subprocess

from hypothesis import given, settings, strategies as st

from hpcbundle.dispatcher import ACCOUNTING_FILENAME, JOB_ID_PATTERN, AccountingRecord
from hpcbundle.packing import PackingBin, ResourceRect
from hpcbundle.stepgraph import beneath_relation, emit_make, step_graph

from test_golden import simulate

MAKE = "/usr/bin/make"


def test_every_bundle_of_the_faults_case_runs_under_make(tmp_path, capsys):
    simulate(tmp_path, "faults")
    capsys.readouterr()
    bundle_dirs = sorted(path for path in (tmp_path / "out").iterdir() if path.is_dir())
    assert bundle_dirs
    for bundle_dir in bundle_dirs:
        record = AccountingRecord.from_text((bundle_dir / ACCOUNTING_FILENAME).read_text())
        result = subprocess.run([MAKE, "-n", "-C", str(bundle_dir)],
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        recipes = [line for line in result.stdout.splitlines() if line.startswith("run-kim-job ")]
        assert sorted(recipes) == sorted(f"run-kim-job {job_id}" for job_id in record.rows)


@st.composite
def packed_bundles(draw):
    """Members of one packed bin, each with an id drawn from ``JOB_ID_PATTERN``."""
    rects = draw(st.lists(st.tuples(st.integers(1, 8), st.integers(1, 30)),
                          min_size=1, max_size=10))
    ids = draw(st.lists(st.from_regex(JOB_ID_PATTERN, fullmatch=True),
                        min_size=len(rects), max_size=len(rects), unique=True))
    bin_ = PackingBin(8, 120)
    placements = [bin_.insert(ResourceRect(cores, minutes)) for cores, minutes in rects]
    return [(job_id, p) for job_id, p in zip(ids, placements) if p is not None]


@settings(max_examples=60, deadline=None)
@given(packed_bundles())
def test_parallel_make_ends_every_lower_step_before_the_upper_starts(tmp_path_factory, members):
    work = tmp_path_factory.mktemp("bundle")
    script = emit_make(step_graph(members),
                       lambda job_id: f"echo s {job_id} >> steps.log; echo e {job_id} >> steps.log")
    (work / "Makefile").write_text(script)
    subprocess.run([MAKE, "-s", "-j8", "-C", str(work)], check=True, capture_output=True)
    log = (work / "steps.log").read_text().splitlines()
    assert sorted(log) == sorted(f"{mark} {job_id}" for job_id, _ in members for mark in "se")
    for lower, upper in beneath_relation(members):
        assert log.index(f"e {lower}") < log.index(f"s {upper}")
