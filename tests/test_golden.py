"""Behaviour goldens: sha256 of the three output files of fixed-seed runs.

A refactor must leave every hash here unchanged.  A change that alters
behaviour on purpose updates the hash and says why in CHANGES.md.  On a
mismatch the assertion message shows all three actual hashes of the case.
The ``faults`` case also pins the bytes of its per-bundle artifact tree.
"""

import hashlib
import random
from pathlib import Path

import pytest

from test_acceptance import SITES_FILE as CRITERION_11_SITES

from hpcbundle.cli import main

DEMO_DATA = Path(__file__).resolve().parent.parent / "demos" / "data"
HEADER = "job_id,test_id,model_id,cores,requested_minutes,true_runtime_minutes,arrival_minute"
OUTPUTS = ("events.log", "metrics.csv", "jobs.csv")
ARTIFACT_FILES = ("accounting.txt", "Makefile", "output.txt", "kim-done")


def criterion_11_workload() -> str:
    """The 30-job workload of test_criterion_11_byte_identical_event_logs."""
    rng = random.Random(11)
    rows = [HEADER]
    for n in range(30):
        req = rng.randint(10, 120)
        rows.append(f"j{n},T{n},M,{rng.randint(1, 6)},{req},"
                    f"{max(1, int(req * rng.uniform(0.3, 1.4)))},{n // 3}")
    return "\n".join(rows) + "\n"


def fault_case() -> tuple[str, str]:
    """Sites and workload with every recovery path.

    120 jobs on three sites, with overruns (a 1000x overrun outgrows every site),
    node faults, a stall on ``slow`` and queue waits on ``far`` well
    above twice the request of its small bundles, so the heartbeat
    monitor cancels bundles that are still queued.
    """
    rng = random.Random(7)
    rows = [HEADER]
    faults: list[str] = []
    for n in range(120):
        req = rng.randint(10, 120)
        rows.append(f"f{n:03d},T{n},M{n % 4},{rng.randint(1, 6)},{req},"
                    f"{max(1, int(req * rng.uniform(0.3, 0.95)))},{n // 2}")
        draw = rng.random()
        if draw < 0.08:
            faults += ["[fault]", "kind = STEP_OVERRUN", f"target = f{n:03d}",
                       f"multiplier = {rng.choice((2, 3, 1000))}", ""]
        elif draw < 0.14:
            faults += ["[fault]", "kind = NODE_FAULT", f"target = f{n:03d}",
                       f"times = {rng.randint(1, 2)}", ""]
    sites = """\
[sim]
grace_minutes = 5
tick_minutes = 10

[site slow]
cores_per_node = 8
max_walltime_minutes = 300
queue_wait = uniform 0 20

[site far]
cores_per_node = 6
max_walltime_minutes = 400
queue_wait = uniform 60 300

[site wide]
cores_per_node = 16
max_walltime_minutes = 720
queue_wait = fixed 15

[fault]
kind = GLOBAL_STALL
target = slow
window = 60 140

"""
    return sites + "\n".join(faults), "\n".join(rows) + "\n"


def demo_case() -> tuple[str, str]:
    return (DEMO_DATA / "sites.txt").read_text(), (DEMO_DATA / "workload.csv").read_text()


def criterion_11_case() -> tuple[str, str]:
    return CRITERION_11_SITES, criterion_11_workload()


# case -> (inputs, seed, policy, sha256 of events.log, metrics.csv, jobs.csv)
GOLDEN = {
    "demo": (demo_case, 5, "min_jobs=3,min_fill=0.4,flush=40", (
        "b7aabae8611c47c11271913a75e4f2e1d79ac39a1fffb1364ea459a3885690de",
        "7247084d435b1880ddd9ea3a6e1c7ec99fa026963ee04c7fc6179868cbc0172f",
        "c0f71f745205bce10b6cf7a0b125e92400a7060c34c251fb5261b3e3500ebd0f",
    )),
    "criterion_11": (criterion_11_case, 11, "min_jobs=3,min_fill=0.3,flush=30", (
        "7b885e1bcfb295b26570f9542671449947e3766caa0b7238b583a9df9022791b",
        "b9e65a11f2bb95e56c96da1af5a67e47b63d335d544e00c38ac3983f16c77397",
        "10da26e530bb0ae69b68f5f4ebe23605a5f2bd0c6fa831d0898c8bcb461ea703",
    )),
    "faults": (fault_case, 7, "min_jobs=4,min_fill=0.4,flush=30", (
        "7c3095746e11c73ef357324abcef497bd3907fbc6eea6ac4076ee89bc32f7924",
        "b423b9ff0f8ae1ed8840850a1adda0cbd52cb38d7417faf3f9ce289767a7a437",
        "ca88f8125fecf226660c674c5876e04e7debd8bfce168a8ef2eae7a47734af2e",
    )),
}


# sha256 of the ``faults`` case's per-bundle tree (see ``artifact_tree_digest``)
FAULTS_ARTIFACT_TREE = "da14e0ee5ab3805daea6ab9ca89593a2321f3d05288f738c0a9554d02f2e66de"


def simulate(tmp_path: Path, case: str) -> tuple[str, ...]:
    make_inputs, seed, policy, _ = GOLDEN[case]
    sites_text, workload_text = make_inputs()
    sites = tmp_path / "sites.txt"
    sites.write_text(sites_text)
    workload = tmp_path / "workload.csv"
    workload.write_text(workload_text)
    out = tmp_path / "out"
    rc = main(["simulate", "--seed", str(seed), "--sites", str(sites),
               "--workload", str(workload), "--policy", policy, "--out", str(out)])
    assert rc == 0
    return tuple(hashlib.sha256((out / name).read_bytes()).hexdigest() for name in OUTPUTS)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_outputs_match_golden_hashes(tmp_path, capsys, case):
    actual = simulate(tmp_path, case)
    capsys.readouterr()
    assert actual == GOLDEN[case][3], f"{case}: actual hashes {actual}"


def artifact_tree_digest(out: Path) -> str:
    """sha256 over every per-bundle path, sorted, and each artifact file's bytes.

    Every directory and file under a bundle directory contributes its
    relative path, so empty step directories count too; the files named
    in ``ARTIFACT_FILES`` also contribute their length and bytes.
    """
    digest = hashlib.sha256()
    paths = sorted(path.relative_to(out).as_posix()
                   for bundle_dir in out.iterdir() if bundle_dir.is_dir()
                   for path in [bundle_dir, *bundle_dir.rglob("*")])
    for rel in paths:
        path = out / rel
        digest.update(rel.encode() + b"\0")
        if path.name in ARTIFACT_FILES:
            data = path.read_bytes()
            digest.update(f"{len(data)}\0".encode() + data)
    return digest.hexdigest()


def test_fault_artifact_tree_matches_golden_hash(tmp_path, capsys):
    simulate(tmp_path, "faults")
    capsys.readouterr()
    actual = artifact_tree_digest(tmp_path / "out")
    assert actual == FAULTS_ARTIFACT_TREE, f"faults artifact tree: actual hash {actual}"
