"""Tests of the benchmark itself, on a tiny config (8 panels of 2x2 elements,
256 QMC samples, 5 annealing proposals).

    python -m pytest -q perfbench/test_perfbench.py
"""

import copy
import json
import shutil
import subprocess
import sys
import time

import pytest

import run

sys.path.insert(0, str(run.SRC))
import checks  # noqa: E402  (imports switchseq from the checkout's src/)

TINY = copy.deepcopy(run.QUICKSTART)
TINY["array"].update(rows=2, cols=2)
TINY["objective"]["samples"] = 256
TINY["anneal"]["k_max"] = 5
# a 32-element array has a wide main lobe; widen the sweep to contain it
TINY["sweep"].update(doppler_span_hz=2000.0, doppler_step_hz=10.0,
                     angle_span_deg=60.0, angle_step_deg=1.0)
SEED = 3

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _reps(tmp_path, workload):
    """Two repetitions with one seed, run exactly as the benchmark runs them."""
    inputs = run.write_inputs(tmp_path, workload, SEED, TINY)
    deadline = time.perf_counter() + 120.0
    reps = [run.run_rep(workload, inputs, tmp_path / f"rep{i}", deadline)
            for i in range(2)]
    return inputs, checks.Checker(inputs.config), reps


def _failed(reps):
    return sum(1 for rep in reps if rep.problems)


def test_flipped_csv_cell_is_a_failure(tmp_path):
    inputs, checker, reps = _reps(tmp_path, "surface")
    path = reps[1].out_dir / "hybrid" / "surface.csv"
    lines = path.read_bytes().split(b"\r\n")
    dop, ang, db = lines[1000].decode().split(",")
    lines[1000] = ",".join([dop, ang, repr(float(db) + 1.0)]).encode()
    path.write_bytes(b"\r\n".join(lines))

    run.check_reps(checker, "surface", inputs, reps)
    assert reps[0].problems == []
    assert any("1 cells differ from ambiguity_surface" in p
               for p in reps[1].problems)
    assert _failed(reps) == 1


def test_non_permutation_best_sequence_is_a_failure(tmp_path):
    inputs, checker, reps = _reps(tmp_path, "anneal")
    path = reps[1].out_dir / "best_sequence.json"
    doc = json.loads(path.read_text())
    doc["order"][0] = doc["order"][1]
    path.write_text(json.dumps(doc))

    run.check_reps(checker, "anneal", inputs, reps)
    assert reps[0].problems == []
    assert any("not a permutation" in p for p in reps[1].problems)
    assert _failed(reps) == 1


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_prints_every_benchmark_metric(workload, trace, capsys):
    code = run.main(["--workload", workload, "--seed", str(SEED),
                     "--seconds", "0", "--trace", str(trace)],
                    base=TINY, probes=1)
    assert code == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}
    if trace and workload == "surface":
        # this workload never builds an objective evaluator
        assert result["metrics"]["ambiguity.evaluate_calls"]["value"] == 0
        assert result["metrics"]["ambiguity.evaluator_builds"]["value"] == 0


def test_fails_without_a_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "surface",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
