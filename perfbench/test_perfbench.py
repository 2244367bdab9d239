"""Tests of the benchmark itself: python3 -m pytest perfbench

The traced-run tests start the benchmark in fresh processes, about five
minutes in all on two cores.
"""
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TIMES = (".s", ".self_s")


@pytest.fixture(scope="module")
def lib():
    return run.load_library()


def traced_run(workload, seed=3):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stderr
    return {k: v["value"] for k, v in result["metrics"].items()}


def work_counts(metrics):
    return {k: v for k, v in metrics.items()
            if not k.endswith(TIMES) and not k.startswith("trace.")}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_work_counts_repeat_exactly(workload):
    first, second = traced_run(workload), traced_run(workload)
    assert work_counts(first) == work_counts(second)
    if workload == "crossed-exact":
        assert first["tower.embed_unit.calls"] == 0
        assert first["linalg.rref.calls"] > 0
    else:
        assert first["tower.embed_unit.calls"] > 0
        assert first["linalg.rref.calls"] == 0
        assert all(first[f"cyclotomic.Cyc.{op}.calls"] == 0
                   for op in ("mul", "add", "inverse", "init"))


def test_wrappers_rebind_every_importing_module(lib):
    from limitalg import cli, dynamics, links, radical, tower
    original = tower.embed_unit
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = tower.embed_unit
        assert wrapped is not original
        for mod in (cli, dynamics, links, radical):
            assert mod.embed_unit is wrapped
        tower.embed_unit(tower.preset("standard-2"),
                         tower.MatrixUnit(0, 0, 1, 2), 3)
        links.has_link_at(tower.preset("standard-2"),
                          tower.MatrixUnit(0, 0, 1, 2), 2)
    finally:
        tracer.uninstall()
    assert tower.embed_unit is original and links.embed_unit is original
    assert tracer.counts["tower.embed_unit.calls"] == 2
    assert tracer.counts["tower.embed_unit.units_out"] == 8 + 4
    (_, s0, e0, p0, _), (_, s1, e1, p1, _), (_, s2, e2, p2, _) = tracer.spans
    assert p0 == -1 and p1 == -1 and p2 == 1 and s1 <= s2 <= e2 <= e1


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    outer = tracer._enter("outer")
    inner = tracer._enter("inner")
    tracer._exit(inner)
    tracer._exit(outer)
    assert tracer.self_time["outer"] == pytest.approx(
        tracer.total_time["outer"] - tracer.total_time["inner"])


@pytest.mark.parametrize("size,reps", [(1, 3), (3, 1), (4, 2), (5, 3)])
def test_ballot_words_are_valid_embeddings(lib, size, reps):
    rng = random.Random(size * 10 + reps)
    for _ in range(20):
        word = tuple((0, p) for p in workloads.ballot_word(size, reps, rng))
        rep = lib.tower.validate_embedding((size,), (size * reps,), (word,))
        assert rep.ok, rep.violations


def test_brute_force_count_matches_enumeration(lib):
    for npts in (4, 5, 6):
        text, points, phi = workloads.system_text(npts, random.Random(npts))
        system = lib.peters.FiniteDynSys(points, phi)
        for horizon in (0, 1, 2):
            assert checks.brute_force_count(points, phi, horizon) == len(
                lib.peters.enumerate_sequences(system, horizon))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seeded_draws_are_repeatable_and_covered_by_golden(lib, workload):
    golden = run.load_golden()[workload]
    pool = workloads.pool(workload, lib)
    pool_ids = {workloads.query_id(q) for q in pool.queries + pool.warmup}
    assert pool_ids == set(golden)
    a = workloads.build(workload, 7, lib)
    assert a == workloads.build(workload, 7, lib)
    assert len(a.queries) >= 100
    for seed in range(5):
        wl = workloads.build(workload, seed, lib)
        assert {workloads.query_id(q) for q in wl.queries} <= pool_ids
        assert all(pool.files[name] == text for name, text in wl.files.items())


def test_checker_rejects_a_wrong_witness(lib):
    checker = checks.Checker(lib, {}, None)
    argv = ("links", "standard-2", "--unit", "0:0:1:2")
    good = {"status": "linked", "level": 1, "witness": [0, 2, 3],
            "unit": [0, 0, 1, 2], "command": "links"}
    assert checker.check("q", argv, 0, json.dumps(good)) == []
    bad = dict(good, witness=[0, 3, 4])
    assert checker.check("q", argv, 0, json.dumps(bad))


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tower-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""
