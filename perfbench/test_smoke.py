"""Smoke tests of the benchmark at a tiny size.

    python3 -m pytest -q perfbench/test_smoke.py
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
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import jobs  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=600,
    )


def tiny(workload, trace, seed=3):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "0",
                 "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines(), json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_printed_with_its_unit(workload, trace):
    lines, result = tiny(workload, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in named}
    for m in named:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.split()[:1] == [m["name"]] and m["unit"] in line.split()
                   for line in lines), m["name"]
    if not trace:
        assert any(line.startswith("failed_frac ") for line in lines)


def test_traced_counts_repeat_for_one_seed():
    _, first = tiny("closure", 1, seed=5)
    _, second = tiny("closure", 1, seed=5)
    counted = [n for n in first["metrics"]
               if n.endswith(".calls") or n in ("construction.candidates", "construction.points_new")]
    assert counted
    assert {n: first["metrics"][n] for n in counted} == {n: second["metrics"][n] for n in counted}


def drop_certificate(path):
    obj = json.loads(path.read_text())
    obj["certificates"] = obj["certificates"][1:]
    path.write_text(json.dumps(obj))


def perturb_witness(path):
    obj = json.loads(path.read_text())
    obj["a"] = str(int(obj["a"]) + 1)
    path.write_text(json.dumps(obj))


def drop_csv_row(path):
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))


@pytest.mark.parametrize("workload, tamper", [
    ("certify", drop_certificate),
    ("density", perturb_witness),
    ("closure", drop_csv_row),
])
def test_corrupted_output_raises_failed_frac(tmp_path, workload, tamper):
    pool = jobs.TINY_POOLS[workload][:1]
    ctx = jobs.setup(workload, tmp_path, pool)
    job = jobs.make_round(ctx, random.Random(1))[0]
    clean = jobs.execute(ctx, job)
    corrupted = jobs.execute(ctx, job, tamper=tamper)
    assert clean.failure is None
    assert corrupted.failure is not None
    metrics, _ = run.end_to_end([clean, corrupted], setup_s=0.0)
    assert metrics["failed_frac"][0] == 0.5


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
