"""Benchmark of the switchseq CLI pipelines.

    python3 perfbench/run.py --workload {anneal,surface,compare} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout: the package is imported from
``src/`` (it does not need to be installed). Every workload uses the README
quick-start config with the seed from ``--seed``; the program receives only
the generated config and sequence files.

``--trace 0`` measures end to end. Each CLI invocation is a fresh child
process, one child at a time. The workload repeats until its repetitions
have taken ``--seconds``, and at least twice, so that every run also checks
that the same seed gives byte-identical artifacts. Set-up probes
(``probe.py``) alternate with the repetitions. Times are medians.

``--trace 1`` runs ``tracer.py`` twice, each a fresh child that calls
``switchseq.cli.main`` in-process: once untraced, once with timing wrappers
on the package's public entry points. It reports per-layer times and counts
from the traced child, and the difference between the two as the tracing
overhead.

Outputs are checked outside the timed region (``checks.py``). The last line
printed is one JSON object with the keys correct, attempted, failed and
metrics. The exit code is 0 whenever that line is printed, and 2 when the
checkout holds no ``src/switchseq`` to benchmark.
"""

from __future__ import annotations

import argparse
import copy
import ctypes
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("anneal", "surface", "compare")
SCHEMES = ("sequential", "random", "hybrid")
MIN_REPS = 2          # two runs with one seed are needed to check reproducibility
SETUP_PROBES = 5
RUN_LIMIT_S = 160.0   # no child may outlive this, so a run ends within 180 s

# The README quick-start: octagon of 8 panels x 4x4 patch elements (M=128),
# objective power 6 over 4096 Sobol samples, 200 annealing proposals, and an
# 801 Doppler x 121 elevation sweep. "seed" is filled in per run.
QUICKSTART = {
    "version": 1,
    "array": {"kind": "octagonal", "panels": 8, "rows": 4, "cols": 4,
              "patch_exponent": 2.0},
    "sequence": {"scheme": "sequential", "delta_t_s": 1e-4},
    "anneal": {"scheme": "hybrid", "k_max": 200},
    "objective": {"power": 6, "samples": 4096},
    "reference": {"azimuth_deg": 45.0, "elevation_deg": 90.0},
    "sweep": {"doppler_span_hz": 400.0, "doppler_step_hz": 1.0,
              "angle_span_deg": 30.0, "angle_step_deg": 0.5,
              "angle_axis": "eoa"},
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER_UNITS = {
    "switchseq.import_s": "s",
    "config.load_s": "s",
    "arrays.build_s": "s",
    "ambiguity.evaluator_builds": "count",
    "ambiguity.evaluator_build_s": "s",
    "ambiguity.evaluator_alloc_mb": "MiB",
    "ambiguity.evaluate_calls": "count",
    "ambiguity.evaluate_s": "s",
    "ambiguity.evaluate_ms_p50": "ms",
    "ambiguity.evaluate_ms_p95": "ms",
    "switching.init_s": "s",
    "switching.move_calls": "count",
    "switching.move_s": "s",
    "switching.save_s": "s",
    "anneal.loop_s": "s",
    "anneal.self_s": "s",
    "anneal.proposals": "count",
    "anneal.proposal_ms": "ms",
    "anneal.accept_rate": "ratio",
    "anneal.save_trace_csv_s": "s",
    "ambiguity.surface_calls": "count",
    "ambiguity.surface_cells": "count",
    "ambiguity.surface_s": "s",
    "analysis.compare_schemes_self_s": "s",
    "analysis.half_power_width_s": "s",
    "analysis.peak_sidelobe_s": "s",
    "ambiguity.save_surface_csv_s": "s",
    "ambiguity.save_surface_csv_bytes": "bytes",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "tracing.overhead_s": "s",
}

# what `switchseq` on the command line runs
CLI_ENTRY = "import sys; from switchseq.cli import main; sys.exit(main())"


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int


@dataclass
class Rep:
    """One repetition of a workload: all its CLI invocations."""

    out_dir: Path
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    problems: list[str] = field(default_factory=list)


@dataclass
class Inputs:
    config: Path
    sequences: dict[str, Path]


# ---- inputs ---------------------------------------------------------------

def write_inputs(work: Path, workload: str, seed: int, base: dict) -> Inputs:
    """Config from the seed and, for the surface workload, a sequential, a
    random and a hybrid sequence file drawn from the same seed."""
    config = copy.deepcopy(base)
    config["seed"] = seed
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config, indent=2) + "\n")
    sequences = {}
    if workload == "surface":
        import numpy as np

        arr = config["array"]
        size = arr["rows"] * arr["cols"]
        m = arr["panels"] * size
        partition = [list(range(p * size, (p + 1) * size))
                     for p in range(arr["panels"])]
        rng = np.random.default_rng(seed)
        orders = {
            "sequential": list(range(m)),
            "random": [int(x) for x in rng.permutation(m)],
            "hybrid": [int(x) for s in partition for x in rng.permutation(s)],
        }
        for name in SCHEMES:
            doc = {"M": m, "delta_t_s": config["sequence"]["delta_t_s"],
                   "snapshots": 1, "order": orders[name]}
            if name != "random":
                doc["partition"] = partition
            path = work / f"sequence_{name}.json"
            path.write_text(json.dumps(doc, indent=2) + "\n")
            sequences[name] = path
    return Inputs(config_path, sequences)


def invocations(workload: str, inputs: Inputs, out_dir: Path) -> list[list[str]]:
    """CLI argument lists of one repetition. No --threads flag is passed, so
    the run uses the program's default."""
    cfg = str(inputs.config)
    if workload == "anneal":
        return [["optimize", "--config", cfg, "--out", str(out_dir)]]
    if workload == "compare":
        return [["compare", "--config", cfg, "--out", str(out_dir)]]
    return [["ambiguity", "--config", cfg, "--out", str(out_dir / name),
             "--sequence", str(inputs.sequences[name])] for name in SCHEMES]


# ---- child processes --------------------------------------------------------

def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(argv: list[str], log_path: Path, deadline: float) -> Child:
    """Run one child to completion; wall time from spawn to reaping, CPU time
    and peak RSS from the child's own rusage. A child still running at the
    deadline is killed and counts as failed."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(max(deadline - start, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                 proc.returncode)


def _last_line(log_path: Path) -> str:
    lines = log_path.read_text(errors="replace").strip().splitlines()
    return lines[-1][:200] if lines else ""


def _from_src(log_path: Path) -> bool:
    line = _last_line(log_path)
    return bool(line) and Path(line).resolve().is_relative_to(SRC.resolve())


def run_probe(workload: str, inputs: Inputs, log: Path,
              deadline: float) -> tuple[float, str | None]:
    """Set-up wall time; a probe that fails or imports the package from
    anywhere but this checkout is a problem."""
    if workload == "surface":
        extra = ["load"] + [str(inputs.sequences[n]) for n in SCHEMES]
    else:
        extra = ["evaluator"]
    child = spawn([sys.executable, str(HERE / "probe.py"), str(inputs.config)]
                  + extra, log, deadline)
    if child.code != 0 or not _from_src(log):
        return child.wall_s, (f"{log.stem} failed (exit {child.code}): "
                              f"{_last_line(log)}")
    return child.wall_s, None


def run_rep(workload: str, inputs: Inputs, out_dir: Path, deadline: float) -> Rep:
    rep = Rep(out_dir)
    out_dir.mkdir(parents=True)
    for i, args in enumerate(invocations(workload, inputs, out_dir)):
        log = out_dir.parent / f"{out_dir.name}.{i}.log"
        child = spawn([sys.executable, "-c", CLI_ENTRY] + args, log, deadline)
        rep.wall_s += child.wall_s
        rep.cpu_s += child.cpu_s
        rep.rss_mb = max(rep.rss_mb, child.rss_mb)
        if child.code != 0:
            rep.problems.append(f"{args[0]} exited with {child.code}: "
                                f"{_last_line(log)}")
    return rep


# ---- output checks ----------------------------------------------------------

def check_reps(checker, workload: str, inputs: Inputs, reps: list[Rep]) -> None:
    """Add every failed output check to its repetition's problems.

    Repetitions share one seed, so each must write the same bytes as the
    first; identical artifacts are checked once.
    """
    from checks import artifact_digest  # imports switchseq from src/

    seen: dict[tuple, list[str]] = {}
    first = None
    for rep in reps:
        key = tuple(sorted(artifact_digest(rep.out_dir).items()))
        if key not in seen:
            seen[key] = check_output(checker, workload, inputs, rep.out_dir)
        rep.problems += seen[key]
        if first is None:
            first = key
        elif key != first:
            rep.problems.append("artifacts differ from the first run of this seed")


def check_output(checker, workload: str, inputs: Inputs, out_dir: Path) -> list[str]:
    if workload == "anneal":
        return checker.check_anneal(out_dir)
    if workload == "compare":
        return checker.check_compare(out_dir)
    return [f"{name}: {p}" for name in SCHEMES
            for p in checker.check_surface(out_dir / name, inputs.sequences[name])]


# ---- per-layer metrics from spans -------------------------------------------

def _percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile; 0 for no samples."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def layer_metrics(doc: dict, untraced_s: float) -> dict[str, float]:
    """Per-layer times and counts from a traced run; untraced_s is the time
    the same calls of cli.main took without tracing. A layer that was not
    called reads 0."""
    spans = doc["spans"]
    dur = [s["end"] - s["start"] for s in spans]
    in_children = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            in_children[s["parent"]] += dur[i]
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s["name"], []).append(i)

    def calls(name):
        return len(by_name.get(name, []))

    def total(name):
        return sum(dur[i] for i in by_name.get(name, []))

    def self_total(name):
        return sum(dur[i] - in_children[i] for i in by_name.get(name, []))

    def summed(name, key):
        return sum(spans[i].get(key, 0) for i in by_name.get(name, []))

    evals_ms = sorted(dur[i] * 1e3 for i in by_name.get("ambiguity.evaluate", []))
    proposals = summed("anneal.loop", "proposals")
    loop_s = total("anneal.loop")
    builds = by_name.get("ambiguity.evaluator_build", [])
    return {
        "switchseq.import_s": doc["import_s"],
        "config.load_s": total("config.load"),
        "arrays.build_s": total("arrays.build"),
        "ambiguity.evaluator_builds": calls("ambiguity.evaluator_build"),
        "ambiguity.evaluator_build_s": total("ambiguity.evaluator_build"),
        "ambiguity.evaluator_alloc_mb": max(
            (spans[i].get("alloc_bytes", 0) for i in builds), default=0) / 2**20,
        "ambiguity.evaluate_calls": len(evals_ms),
        "ambiguity.evaluate_s": total("ambiguity.evaluate"),
        "ambiguity.evaluate_ms_p50": _percentile(evals_ms, 50),
        "ambiguity.evaluate_ms_p95": _percentile(evals_ms, 95),
        "switching.init_s": total("switching.init"),
        "switching.move_calls": calls("switching.move"),
        "switching.move_s": total("switching.move"),
        "switching.save_s": total("switching.save"),
        "anneal.loop_s": loop_s,
        "anneal.self_s": self_total("anneal.loop"),
        "anneal.proposals": proposals,
        "anneal.proposal_ms": loop_s * 1e3 / proposals if proposals else 0.0,
        "anneal.accept_rate": (summed("anneal.loop", "accepts") / proposals
                               if proposals else 0.0),
        "anneal.save_trace_csv_s": total("anneal.save_trace_csv"),
        "ambiguity.surface_calls": calls("ambiguity.surface"),
        "ambiguity.surface_cells": summed("ambiguity.surface", "cells"),
        "ambiguity.surface_s": total("ambiguity.surface"),
        "analysis.compare_schemes_self_s": self_total("analysis.compare_schemes"),
        "analysis.half_power_width_s": total("analysis.half_power_width"),
        "analysis.peak_sidelobe_s": total("analysis.peak_sidelobe"),
        "ambiguity.save_surface_csv_s": total("ambiguity.save_surface_csv"),
        "ambiguity.save_surface_csv_bytes": summed("ambiguity.save_surface_csv",
                                                   "bytes"),
        "cli.main_s": total("cli.main"),
        "cli.self_s": self_total("cli.main"),
        "tracing.overhead_s": total("cli.main") - untraced_s,
    }


# ---- environment ----------------------------------------------------------

def environment() -> dict:
    """Machine and library facts printed with every result."""
    import numpy
    import scipy

    env = {"nproc": os.cpu_count(), "cpu": platform.processor() or None,
           "python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__}
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu"] = next(line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(caches.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                env[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    env["blas_threads"] = _blas_threads(numpy)
    return env


def _blas_threads(numpy) -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it is OpenBLAS."""
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


# ---- runs -------------------------------------------------------------------

def measure(workload: str, inputs: Inputs, work: Path, seconds: float,
            probes: int, checker, deadline: float) -> tuple[dict, int, int, list[str]]:
    # probes alternate with repetitions, so both sample the same stretch of
    # machine load; the window counts repetition time only
    setup: list[float] = []
    problems: list[str] = []

    def probe():
        wall, problem = run_probe(workload, inputs, work / f"probe{len(setup)}.log",
                                  deadline)
        setup.append(wall)
        if problem:
            problems.append(problem)

    reps: list[Rep] = []
    while len(reps) < MIN_REPS or sum(r.wall_s for r in reps) < seconds:
        if reps and time.perf_counter() + reps[-1].wall_s > deadline:
            break
        if len(setup) < probes:
            probe()
        reps.append(run_rep(workload, inputs, work / f"rep{len(reps)}", deadline))
    while len(setup) < probes:
        probe()
    check_reps(checker, workload, inputs, reps)
    notes = [f"rep{i}: {p}" for i, rep in enumerate(reps) for p in rep.problems]
    metrics = {
        "wall_s": statistics.median([r.wall_s for r in reps]),
        "cpu_s": statistics.median([r.cpu_s for r in reps]),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median([r.rss_mb for r in reps]),
    }
    attempted = len(reps) + probes
    failed = sum(1 for r in reps if r.problems) + len(problems)
    notes.append("repetition wall_s " + " ".join(f"{r.wall_s:.3f}" for r in reps))
    notes.append("set-up probe wall_s " + " ".join(f"{t:.3f}" for t in setup))
    return metrics, attempted, failed, problems + notes


def trace(workload: str, inputs: Inputs, work: Path, checker,
          deadline: float) -> tuple[dict, int, int, list[str]]:
    """Run the workload in-process once untraced and once traced, each in a
    fresh child, and derive per-layer metrics from the traced spans."""
    reps = [Rep(work / "untraced"), Rep(work / "traced")]
    docs = []
    for rep in reps:
        mode = rep.out_dir.name
        runs = invocations(workload, inputs, rep.out_dir)
        runs_path, spans_path = work / f"{mode}.runs.json", work / f"{mode}.spans.json"
        runs_path.write_text(json.dumps(runs))
        child = spawn([sys.executable, str(HERE / "tracer.py"), str(spans_path),
                       str(runs_path), mode], work / f"{mode}.log", deadline)
        if not spans_path.is_file():
            raise RuntimeError(f"{mode} run wrote no spans (exit {child.code}): "
                               f"{_last_line(work / f'{mode}.log')}")
        doc = json.loads(spans_path.read_text())
        if not Path(doc["module"]).resolve().is_relative_to(SRC.resolve()):
            raise RuntimeError(f"{mode} run imported {doc['module']}, not {SRC}")
        if doc["codes"] != [0] * len(runs):
            rep.problems.append(f"switchseq.cli.main returned {doc['codes']}")
        docs.append(doc)
    check_reps(checker, workload, inputs, reps)
    notes = [f"{rep.out_dir.name}: {p}" for rep in reps for p in rep.problems]
    untraced, traced = docs
    if traced["absent"]:
        notes.append("absent entry points: " + ", ".join(traced["absent"]))
    untraced_s = sum(s["end"] - s["start"] for s in untraced["spans"])
    return (layer_metrics(traced, untraced_s), len(reps),
            sum(1 for r in reps if r.problems), notes)


def main(argv: list[str] | None = None, base: dict = QUICKSTART,
         probes: int = SETUP_PROBES) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.perf_counter() + RUN_LIMIT_S
    if not (SRC / "switchseq" / "cli.py").is_file():
        print(f"no package to benchmark: {SRC / 'switchseq'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import switchseq

    if not Path(switchseq.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"switchseq imported from {switchseq.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from checks import Checker  # imports switchseq, so only now

    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs = write_inputs(work, args.workload, args.seed, base)
        checker = Checker(inputs.config)
        if args.trace:
            metrics, attempted, failed, notes = trace(
                args.workload, inputs, work, checker, deadline)
            units = PER_LAYER_UNITS
        else:
            metrics, attempted, failed, notes = measure(
                args.workload, inputs, work, args.seconds, probes, checker,
                deadline)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("env " + json.dumps(environment()))
    for note in notes:
        print("note " + note)
    for name, unit in units.items():
        print(f"{name:34s} {metrics[name]:.6g} {unit}")
    print(f"{'error_rate':34s} {failed / attempted:.6g} ratio "
          f"({failed} failed of {attempted} attempted)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
