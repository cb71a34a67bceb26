import contextlib
import csv
import hashlib
import importlib.util
import inspect
import io
import json
import math
import os
import pkgutil
import shlex
import subprocess
import sys
import tempfile
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import switchseq
from switchseq.ambiguity import ambiguity_surface
from switchseq.arrays import make_octagonal
from switchseq.cli import cmd_crlb, main
from switchseq.config import ConfigError, ExperimentConfig
from switchseq.crlb import crlb_aoa

from conftest import readme_block, readme_config


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


def ula_config(**overrides):
    doc = {
        "version": 1,
        "seed": 42,
        "array": {"kind": "ula", "elements": 16},
        "sequence": {"scheme": "sequential", "delta_t_s": 1e-3},
        # a Doppler bound of 200 Hz at 1 ms
        "objective": {"power": 6, "samples": 256, "doppler_fraction": 0.4},
        "sweep": {"doppler_span_hz": 60.0, "doppler_step_hz": 1.0,
                  "angle_span_deg": 25.0, "angle_step_deg": 0.5,
                  "angle_axis": "aoa"},
        "reference": {"azimuth_deg": 90.0, "elevation_deg": 90.0},
    }
    doc.update(overrides)
    return doc


def octagon_config(**overrides):
    doc = {
        "version": 1,
        "seed": 7,
        "array": {"kind": "octagonal", "panels": 4, "rows": 2, "cols": 2,
                  "patch_exponent": 2.0},
        "sequence": {"scheme": "sequential", "delta_t_s": 1e-4},
        "anneal": {"scheme": "hybrid", "k_max": 3},
        "objective": {"power": 6, "samples": 256},
        "reference": {"azimuth_deg": 90.0, "elevation_deg": 90.0},
        "sweep": {"doppler_span_hz": 4000.0, "doppler_step_hz": 25.0,
                  "angle_span_deg": 45.0, "angle_step_deg": 1.0,
                  "angle_axis": "eoa"},
    }
    doc.update(overrides)
    return doc


# ---- config validation ------------------------------------------------


def test_config_rejects_unknown_top_level_key(tmp_path):
    cfg = ula_config()
    cfg["bogus"] = 1
    with pytest.raises(ConfigError, match="bogus"):
        ExperimentConfig.from_file(write_config(tmp_path, cfg))


def test_config_rejects_unknown_nested_key():
    cfg = ula_config()
    cfg["array"]["typo_field"] = 3
    with pytest.raises(ConfigError, match="typo_field"):
        ExperimentConfig.from_dict(cfg)


def test_config_requires_seed():
    cfg = ula_config()
    del cfg["seed"]
    with pytest.raises(ConfigError, match="seed"):
        ExperimentConfig.from_dict(cfg)


def test_config_rejects_non_integer_seed():
    with pytest.raises(ConfigError, match="seed"):
        ExperimentConfig.from_dict(ula_config(seed=1.5))


def test_config_wraps_a_negative_azimuth():
    cfg = ula_config()
    cfg["reference"]["azimuth_deg"] = -45.0
    config = ExperimentConfig.from_dict(cfg)
    cfg["reference"]["azimuth_deg"] = 315.0
    assert config.reference == ExperimentConfig.from_dict(cfg).reference
    assert config.reference.rx_azimuth == pytest.approx(math.radians(315.0))


def test_path_doppler_and_phase_change_no_surface_or_bound(capsys):
    # why the config fixes the path's Doppler at 0.0 and has no phase: a
    # surface compares two paths by their Doppler difference, so the sweep
    # reads only the path's direction, and neither the closed-form bounds
    # nor the numeric FIM's variances depend on the path's own Doppler
    config = ExperimentConfig.from_dict(readme_config())
    seq = config.build_sequence("hybrid", np.random.default_rng(0))
    surface = ambiguity_surface(config.array, seq, config.reference, *config.sweep)
    for nu in (-450.0, 300.0, 700.0):
        moved = ambiguity_surface(config.array, seq, replace(
            config.reference, doppler_hz=nu), *config.sweep)
        assert np.array_equal(moved.magnitude, surface.magnitude)
    config = ExperimentConfig.from_dict(json.loads(readme_block(
        "CLI quick start", "json", 1)))
    (report,) = cmd_crlb(config).values()
    for nu in (300.0, -40.0):
        moved = replace(config, reference=replace(config.reference, doppler_hz=nu))
        (other,) = cmd_crlb(moved).values()
        assert other["closed_form"] == report["closed_form"]
        for block in ("numeric", "numeric_diagonal"):
            assert other[block] == pytest.approx(report[block], rel=1e-8, abs=0)


def test_config_rejects_wrong_version():
    with pytest.raises(ConfigError, match="version"):
        ExperimentConfig.from_dict(ula_config(version=99))


def test_config_rejects_hybrid_anneal_on_ula():
    cfg = ula_config()
    cfg["anneal"] = {"scheme": "hybrid"}
    with pytest.raises(ConfigError, match="hybrid"):
        ExperimentConfig.from_dict(cfg)


def test_anneal_needs_two_elements_in_every_swap_set(tmp_path, capsys):
    cfg = ula_config(anneal={"scheme": "random"})
    cfg["array"]["elements"] = 1
    with pytest.raises(ConfigError, match="swap"):
        ExperimentConfig.from_dict(cfg)
    cfg = octagon_config()
    cfg["array"].update(rows=1, cols=1)
    with pytest.raises(ConfigError, match="swap"):
        ExperimentConfig.from_dict(cfg)
    del cfg["anneal"]  # compare anneals both schemes without the section
    assert main(["compare", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "out")]) == 2
    assert "swap" in json.loads(capsys.readouterr().err)["error"]["message"]
    cfg["sequence"]["scheme"] = "hybrid"  # a hybrid sequence is one that anneals
    with pytest.raises(ConfigError, match="config.sequence.scheme: .*swap"):
        ExperimentConfig.from_dict(cfg)


@pytest.mark.parametrize("scheme", ["sequential", "greedy"])
def test_anneal_scheme_must_be_random_or_hybrid(tmp_path, capsys, scheme):
    cfg = octagon_config(anneal={"scheme": scheme})
    assert main(["optimize", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "out")]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["message"] == "config.anneal.scheme: must be random|hybrid"


@pytest.mark.parametrize("text, key", [
    ('"seed": 1234, "seed": 7', "seed"),
    ('"array": {"kind": "ula", "elements": 16, "kind": "octagonal"}', "kind"),
], ids=["top-level", "nested"])
def test_config_refuses_a_repeated_key(tmp_path, capsys, text, key):
    # json keeps the last copy of a key, so the typo would leave no trace
    cfg = ula_config()
    del cfg["seed"], cfg["array"]
    path = tmp_path / "config.json"
    path.write_text("{" + text + ", " + json.dumps(cfg)[1:])
    assert main(["effective-factor", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    error = json.loads(line)["error"]
    assert error["type"] == "config"
    assert f"repeated key '{key}'" in error["message"]


def test_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        ExperimentConfig.from_file(tmp_path / "nope.json")


def test_config_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    for content in (b"{not json", b'{"version": "\xff"}',
                     b"[" * 100000 + b"]" * 100000):  # recursion limit
        path.write_bytes(content)
        with pytest.raises(ConfigError, match="JSON"):
            ExperimentConfig.from_file(path)
    with pytest.raises(ConfigError, match="JSON"):
        ExperimentConfig.from_file(tmp_path)  # a directory


def test_every_package_error_is_a_config_or_numeric_failure():
    # main maps ConfigError to exit 2 and ArithmeticError to exit 3 by
    # type, so an error class outside both would end a run in a traceback
    errors = [cls for info in pkgutil.iter_modules(switchseq.__path__)
              for _, cls in inspect.getmembers(
                  importlib.import_module(f"switchseq.{info.name}"), inspect.isclass)
              if issubclass(cls, BaseException)
              and cls.__module__ == f"switchseq.{info.name}"]
    assert len(errors) >= 7  # ConfigError and six numeric failures
    for cls in errors:
        assert issubclass(cls, (ConfigError, ArithmeticError)), cls


def test_cli_exit_code_for_config_error(tmp_path, capsys):
    cfg = ula_config()
    cfg["array"]["kind"] = "spherical"
    rc = main(["crlb", "--config", write_config(tmp_path, cfg),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "config"


@pytest.mark.parametrize("command, section, key, value", [
    ("optimize", None, "seed", True),
    ("ambiguity", "sweep", "doppler_step_hz", 0),
    ("ambiguity", "sweep", "angle_step_deg", 0),
    ("optimize", "anneal", "k_max", "abc"),
    ("optimize", "objective", "samples", 0),
    ("optimize", "objective", "power", 3),
    ("optimize", None, "seed", -1),
    ("optimize", "--", "seed", -2),  # the command-line flag --seed
    ("optimize", "objective", "sin_elevation", "no"),
    ("ambiguity", "array", "panels", 2),
    ("ambiguity", "array", "rows", 0),
    ("ambiguity", "sequence", "snapshots", "abc"),
    ("optimize", "objective", "doppler_fraction", -1),
    ("optimize", "objective", "doppler_fraction", 0),
    ("ambiguity", "sweep", "angle_span_deg", 120),
    ("ambiguity", "sweep", "doppler_span_hz", -5),
    ("ambiguity", "reference", "azimuth_deg", "x"),
    ("effective-factor", "reference", "effective_threshold_db", "x"),
    ("optimize", "anneal", "k_max", 2.7),
    ("optimize", "anneal", "t0", True),
    ("optimize", "objective", "samples", True),
    ("optimize", "objective", "power", 6.5),
    ("ambiguity", "sequence", "delta_t_s", True),
    ("ambiguity", "sequence", "snapshots", 1.5),
    ("ambiguity", "array", "radius_wavelengths", True),
    ("optimize", "objective", "doppler_fraction", True),
    ("effective-factor", "reference", "effective_threshold_db", False),
    ("ambiguity", "sweep", "doppler_span_hz", float("inf")),
    ("ambiguity", "sweep", "doppler_step_hz", float("inf")),
    ("ambiguity", "sweep", "angle_span_deg", float("inf")),
    ("ambiguity", "sweep", "angle_step_deg", float("inf")),
    ("crlb", "array", "spacing_wavelengths", float("nan")),
    ("crlb", "sequence", "delta_t_s", float("inf")),
    ("crlb", "sequence", "delta_t_s", 1e308),
    ("optimize", "sequence", "delta_t_s", 1e308),
    ("optimize", "objective", "doppler_fraction", 1e308),
    # the crlb section is built at load, so every command refuses it
    ("crlb", "crlb", "noise_sigma", 0),
    ("crlb", "reference", "elevation_deg", 500),
    ("compare", "crlb", "noise_sigma", -1),
    ("ambiguity", "reference", "elevation_deg", 500),
    # a number field must be a JSON number, not a string or a boolean
    ("optimize", "anneal", "k_max", "200"),
    ("ambiguity", "sequence", "delta_t_s", "1e-4"),
    ("optimize", "objective", "samples", " 512 "),
    ("optimize", None, "version", True),
    # the bounds square the noise sigma as a float
    ("crlb", "crlb", "noise_sigma", 1e308),
    # a choice field takes one of its values; an optional string a string
    ("ambiguity", "sequence", "scheme", "zigzag"),
    ("ambiguity", "sweep", "angle_axis", "zoa"),
    ("ambiguity", "array", "pattern_file", 5),
    # refused after load: optimize anneals, so it needs the section
    ("optimize", None, "anneal", None),
    ("ambiguity", "sequence", "snapshots", 0),
    ("effective-factor", "reference", "effective_threshold_db", 1.0),
])
def test_cli_bad_field_exits_2_with_one_json_line(tmp_path, capsys, command,
                                                  section, key, value):
    # crlb needs a ULA; a 1e308 delta_t_s is refused by the size gate, which
    # runs before the Doppler bound (here 0.25/(2*delta_t)) is checked
    cfg = ula_config() if command == "crlb" else octagon_config()
    flags = []
    if section == "--":
        flags = [f"--{key}", str(value)]
    else:
        (cfg if section is None else cfg.setdefault(section, {}))[key] = value
    rc = main([command, "--config", write_config(tmp_path, cfg),
               "--out", str(tmp_path / "out"), *flags])
    assert rc == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (line,) = err.splitlines()
    error = json.loads(line)["error"]
    assert error["type"] == "config"
    assert key in error["message"]


def test_doppler_bound_that_underflows_exits_2():
    # a positive fraction whose bound, fraction / (2 delta_t), is 0.0
    cfg = octagon_config(sequence={"scheme": "sequential", "delta_t_s": 1.0},
                         objective={"doppler_fraction": 5e-324})
    with pytest.raises(ConfigError, match=r"config\.objective\.doppler_fraction: "):
        ExperimentConfig.from_dict(cfg)


@pytest.mark.parametrize("section, key, value", [
    ("sequence", "delta_t_s", 1e308),
    ("objective", "doppler_fraction", 1e308),
    ("sweep", "doppler_span_hz", 1e307),
    ("sweep", "doppler_span_hz", 1e308),
], ids=["sequence-delta_t_s", "objective-doppler_fraction", "sweep-doppler_span_hz",
        "sweep-doppler_span_hz-1e308"])
def test_doppler_phases_that_overflow_name_the_field_of_the_doppler(section, key,
                                                                    value):
    # the instants of 16 slots of 1 s are finite, so a Doppler of 1e307 or
    # more overflows the phases, and the gate names the field that set it;
    # huge instants overflow them whatever the Doppler, so it names delta_t_s
    # alone
    cfg = ula_config(sequence={"scheme": "sequential", "delta_t_s": 1.0})
    cfg.setdefault(section, {})[key] = value
    if key == "doppler_span_hz":
        # a span at its step is three Dopplers, which the surfaces' budget
        # admits even where twice the span overflows a float
        cfg["sweep"]["doppler_step_hz"] = value
    fields = "" if key == "delta_t_s" else f" and config.{section}.{key}"
    with pytest.raises(ConfigError) as caught:
        ExperimentConfig.from_dict(cfg)
    assert str(caught.value).startswith(
        f"config.sequence.delta_t_s{fields}: the run's Doppler phases overflow")


def test_power_product_that_underflows_is_a_degenerate_sample(tmp_path):
    # at patch exponent 180 both directions' powers can be positive while
    # their product underflows to 0.0: such a sample is degenerate, where an
    # inf scale would make the products inf or NaN and wrap the sums
    cfg = octagon_config(array={"kind": "octagonal", "panels": 5, "rows": 1,
                                "cols": 3, "patch_exponent": 180.0})
    config = ExperimentConfig.from_dict(cfg)
    ev = config.evaluator()
    assert all(np.isfinite(cross).all() for cross in ev._cross)
    for scheme in ("sequential", "hybrid"):
        seq = config.build_sequence(scheme, np.random.default_rng(0))
        # a contribution, |S_n|**2 times the snapshot power, is at most 1
        assert ev.contributions(ev.sample_sums(seq)).max() <= 1.0
    assert main(["optimize", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("section, key", [
    ("anneal", "t0"), ("anneal", "alpha"), ("array", "radius_wavelengths"),
    ("array", "pattern_file")])
def test_optional_field_null_loads_like_a_missing_one(section, key):
    cfg = octagon_config()
    where = cfg if section is None else cfg.setdefault(section, {})
    where.pop(key, None)
    missing = ExperimentConfig.from_dict(cfg)
    where[key] = None
    null = ExperimentConfig.from_dict(cfg)
    assert (null.array_spec, null.anneal_spec, null.doppler_bound, null.anneal) == (
        missing.array_spec, missing.anneal_spec, missing.doppler_bound, missing.anneal)
    assert (null.array.positions == missing.array.positions).all()


def test_config_integer_fields_accept_integral_floats():
    cfg = octagon_config(anneal={"scheme": "hybrid", "k_max": 200.0})
    cfg["objective"]["samples"] = 256.0
    config = ExperimentConfig.from_dict(cfg)
    assert config.anneal.k_max == 200 and type(config.anneal.k_max) is int
    assert config.objective.samples == 256 and type(config.objective.samples) is int
    cfg = ula_config(seed=7.0)
    cfg["array"]["elements"] = 16.0
    config = ExperimentConfig.from_dict(cfg)
    assert config.array.num_elements == 16
    assert config.seed == 7 and type(config.seed) is int
    for bad in (16.5, True):
        cfg["array"]["elements"] = bad
        with pytest.raises(ConfigError, match="elements"):
            ExperimentConfig.from_dict(cfg)


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def run_python(code, *args, timeout=120, blas_env=None):
    """Run python code in a fresh interpreter that imports this checkout's
    switchseq; return the completed process. The variables OpenBLAS takes
    its thread count from are cleared, then set from blas_env."""
    src = str(Path(switchseq.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update(blas_env or {}, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=timeout)


def usable_cpus():
    """CPUs this process may run on; OpenBLAS starts no more threads."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


@pytest.mark.parametrize("blas_env, preload, seen, count", [
    ({}, "", "1", 1),
    ({"OPENBLAS_NUM_THREADS": "2"}, "", "2", 2),
    ({"OMP_NUM_THREADS": "2"}, "", None, 2),
    ({"GOTO_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, "", None, 2),
    ({}, "import numpy; ", None, None),
], ids=["unset", "openblas", "omp", "goto-before-omp", "numpy-first"])
def test_import_defaults_openblas_to_one_thread(blas_env, preload, seen, count):
    # the default acts before numpy loads OpenBLAS, so no worker thread is
    # started; any variable OpenBLAS reads wins, and a numpy imported first
    # keeps its pool, with the count then unknown
    proc = run_python(preload + "import json, os, switchseq\n"
                      "task = '/proc/self/task'\n"
                      "threads = len(os.listdir(task)) if os.path.isdir(task) else None\n"
                      "print(json.dumps([os.environ.get('OPENBLAS_NUM_THREADS'),\n"
                      "                  switchseq.BLAS_THREADS, threads]))",
                      blas_env=blas_env)
    assert proc.returncode == 0, proc.stderr
    env_after, blas_threads, threads = json.loads(proc.stdout)
    assert env_after == seen
    assert blas_threads == count
    if threads is not None:
        # OpenBLAS caps its pool at the usable CPUs
        assert threads == min(count or usable_cpus(), usable_cpus())


def artifacts(out_dir):
    """Every file under out_dir by relative path, the manifest without the
    keys that may differ between runs of one config and seed."""
    files = {}
    for path in sorted(out_dir.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            if path.name == "manifest.json":
                doc = json.loads(data)
                del doc["wall_time_s"], doc["openblas_num_threads"]
                data = json.dumps(doc)
            files[str(path.relative_to(out_dir))] = data
    return files


@pytest.mark.skipif(usable_cpus() < 2, reason="on one CPU OpenBLAS runs one "
                    "thread either way, so the runs would match trivially")
def test_artifacts_do_not_depend_on_blas_threads(tmp_path):
    # README quick-start octagon: its 121x128 @ 128x801 surface product and
    # 4096x3 @ 3x128 steering product are big enough for OpenBLAS to thread
    cfg = readme_config()
    cfg["anneal"]["k_max"] = 20
    config = write_config(tmp_path, cfg)
    runs = {}
    for threads in ("1", "2"):
        out = tmp_path / threads
        for command in ("optimize", "ambiguity"):
            proc = run_python("import sys; from switchseq.cli import main; "
                              "sys.exit(main(sys.argv[1:]))",
                              command, "--config", config,
                              "--out", str(out / command),
                              blas_env={"OPENBLAS_NUM_THREADS": threads})
            assert proc.returncode == 0, proc.stderr
            manifest = json.loads((out / command / "manifest.json").read_text())
            assert manifest["openblas_num_threads"] == int(threads)
        runs[threads] = artifacts(out)
    assert len(runs["1"]) == 8
    assert runs["1"] == runs["2"]


# the OpenBLAS core a child runs, and whether numpy dispatches to its
# X86_V4 (AVX-512) paths
CPU_PATHS = """
import ctypes, json
from pathlib import Path
import numpy
from numpy._core._multiarray_umath import __cpu_features__
core = None
libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
for path in sorted(libs.glob("*openblas*")):
    lib = ctypes.CDLL(str(path))
    if hasattr(lib, "scipy_openblas_get_corename64_"):
        lib.scipy_openblas_get_corename64_.argtypes = []
        lib.scipy_openblas_get_corename64_.restype = ctypes.c_char_p
        core = lib.scipy_openblas_get_corename64_().decode()
print(json.dumps({"core": core, "x86_v4": __cpu_features__.get("X86_V4", False)}))
"""


def cpu_paths(env):
    """CPU_PATHS read in a child with env added; None if the child fails."""
    proc = run_python(CPU_PATHS, blas_env=env)
    return json.loads(proc.stdout) if proc.returncode == 0 else None


def cpu_flags():
    try:
        return set(Path("/proc/cpuinfo").read_text().split())
    except OSError:
        return set()


def compare_outputs(out_dir, env):
    """Run a small README compare in a child with env added; return the
    directory it wrote."""
    cfg = readme_config()
    cfg["anneal"]["k_max"] = 20
    config = write_config(out_dir, cfg)
    proc = run_python("import sys; from switchseq.cli import main; "
                      "sys.exit(main(sys.argv[1:]))",
                      "compare", "--config", config, "--out", str(out_dir / "out"),
                      blas_env=env)
    assert proc.returncode == 0, proc.stderr
    return out_dir / "out"


@pytest.fixture(scope="module")
def default_compare(tmp_path_factory):
    return compare_outputs(tmp_path_factory.mktemp("default"), {})


def read_columns(path):
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    return {key: np.array([float(row[key]) for row in rows]) for key in rows[0]}


@pytest.mark.parametrize("env", [
    {"OPENBLAS_CORETYPE": "Haswell"},
    {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
], ids=["openblas-haswell", "numpy-no-avx512"])
def test_compare_holds_across_cpu_paths(tmp_path, default_compare, env):
    # another OpenBLAS kernel or numpy CPU dispatch moves the last bits of
    # objectives and surfaces, not the annealed sequences
    paths = cpu_paths(env)
    if "OPENBLAS_CORETYPE" in env:
        if not {"avx2", "fma"} <= cpu_flags():
            pytest.skip("the CPU cannot run OpenBLAS's Haswell kernels")
        if paths is None or paths["core"] != "Haswell":
            pytest.skip("the OpenBLAS core cannot be read or set")
    elif not (cpu_paths({}) or {}).get("x86_v4") or paths is None or paths["x86_v4"]:
        pytest.skip("numpy's AVX-512 paths are absent or cannot be turned off")
    out = compare_outputs(tmp_path, env)
    # the manifest records the path the run took
    manifest = json.loads((out / "manifest.json").read_text())
    if "OPENBLAS_CORETYPE" in env:
        assert manifest["openblas_core"] == "Haswell"
    else:
        assert "X86_V4" not in manifest["numpy_cpu_dispatch"]
    for scheme in ("random", "hybrid"):
        name = f"sequence_{scheme}.json"
        assert (out / name).read_bytes() == (default_compare / name).read_bytes()
        trace, base = (read_columns(d / f"trace_{scheme}.csv")
                       for d in (out, default_compare))
        for key in ("objective", "proposal_objective"):
            np.testing.assert_allclose(trace[key], base[key], rtol=1e-12, atol=0)
    runs = [json.loads((d / "comparison.json").read_text())["anneal"]
            for d in (out, default_compare)]
    for scheme, report in runs[0].items():
        for key in ("initial_objective", "final_objective", "best_objective"):
            assert report[key] == pytest.approx(runs[1][scheme][key], rel=1e-12)
    for scheme in ("sequential", "random", "hybrid"):
        surface, base = (read_columns(d / f"surface_{scheme}.csv")
                         for d in (out, default_compare))
        assert surface.keys() == base.keys()
        for key in ("delta_doppler_hz", "angle_deg"):
            assert (surface[key] == base[key]).all()
        np.testing.assert_allclose(surface["magnitude_db"], base["magnitude_db"],
                                   rtol=0, atol=1e-9)


def test_failing_run_prints_one_json_line_despite_sobol_warning(tmp_path):
    # 3 samples break Sobol balance, which must not print a warning; the
    # run then fails numerically, and stderr must still be the JSON error
    # line alone
    # (a subprocess, because pytest captures warnings in-process)
    cfg = octagon_config(objective={"samples": 3})
    cfg["array"].update(panels=8, rows=1, cols=2)
    cfg["sweep"] = {"angle_span_deg": 0.5}
    proc = run_python("import sys; from switchseq.cli import main; "
                      "sys.exit(main(sys.argv[1:]))",
                      "compare", "--config", write_config(tmp_path, cfg),
                      "--out", str(tmp_path / "out"))
    assert proc.returncode == 3
    (line,) = proc.stderr.splitlines()
    assert json.loads(line)["error"]["type"] == "GridTooNarrowError"


@pytest.mark.parametrize("delta_t", [1e300, 1e200])
def test_crlb_overflowing_fim_prints_one_json_line(tmp_path, delta_t):
    # the activation instants are finite, so the config loads, but the eta
    # norm and the finite-difference Jacobian overflow: exit 3 with the
    # JSON error line alone, no numpy warning ahead of it
    # (a subprocess, because pytest captures warnings in-process)
    cfg = ula_config(sequence={"scheme": "sequential", "delta_t_s": delta_t})
    proc = run_python("import sys; from switchseq.cli import main; "
                      "sys.exit(main(sys.argv[1:]))",
                      "crlb", "--config", write_config(tmp_path, cfg),
                      "--out", str(tmp_path / "out"))
    assert proc.returncode == 3
    (line,) = proc.stderr.splitlines()
    assert json.loads(line)["error"]["type"] == "SingularFIMError"


def test_crlb_singularity_does_not_depend_on_units(tmp_path):
    # at delta_t_s 1e6 the Doppler FIM entry is 1e18 times that at 1e-3;
    # the amplitude stays as well identified, with the same bound
    var_r = {}
    for delta_t in (1e-3, 1e6):
        cfg = ula_config(sequence={"scheme": "random", "delta_t_s": delta_t})
        out = tmp_path / str(delta_t)
        assert main(["crlb", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 0
        report = json.loads((out / "crlb_report.json").read_text())
        var_r[delta_t] = report["numeric"]["var_r"]
    assert var_r[1e6] == pytest.approx(var_r[1e-3], rel=1e-9)


def test_over_budget_samples_exit_2_without_allocating(tmp_path):
    # the README octagon (128 elements) at 2**28 samples: the evaluator
    # tables alone would need 1 TiB; under a 1.5 GB address-space limit a
    # run that tried to allocate them would end in a MemoryError traceback
    cfg = readme_config()
    cfg["objective"]["samples"] = 2 ** 28
    proc = run_python(
        "import resource, sys\n"
        "_, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, hard))\n"
        "from switchseq.cli import main\n"
        "sys.exit(main(sys.argv[1:]))",
        "optimize", "--config", write_config(tmp_path, cfg),
        "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    (line,) = proc.stderr.splitlines()
    error = json.loads(line)["error"]
    assert error["type"] == "config"
    assert "config.objective.samples" in error["message"]


def test_over_budget_snapshots_exit_2_without_allocating(tmp_path):
    # 2**25 activation instants: crlb's Fisher matrix would hold about 4.5
    # GiB of them; under a 3 GB address-space limit a run that built them
    # would end in a MemoryError traceback
    cfg = ula_config(array={"kind": "ula", "elements": 2},
                     sequence={"scheme": "sequential", "delta_t_s": 1e-3,
                               "snapshots": 2 ** 24},
                     objective={"samples": 1},
                     sweep={"doppler_span_hz": 0.0, "angle_span_deg": 0.0})
    proc = run_python(
        "import resource, sys\n"
        "_, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
        "resource.setrlimit(resource.RLIMIT_AS, (3_000_000_000, hard))\n"
        "from switchseq.cli import main\n"
        "sys.exit(main(sys.argv[1:]))",
        "ambiguity", "--config", write_config(tmp_path, cfg),
        "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    (line,) = proc.stderr.splitlines()
    error = json.loads(line)["error"]
    assert error["type"] == "config"
    assert "config.sequence.snapshots" in error["message"]


def test_readme_config_at_2_pow_19_samples_loads():
    # the gate counts 3936 bytes a sample of objective tables at M = 128,
    # so 2**19 samples (1.9 GiB) fit the 2 GiB budget
    cfg = readme_config()
    cfg["objective"]["samples"] = 2 ** 19
    assert ExperimentConfig.from_dict(cfg).objective.samples == 2 ** 19


def test_samples_over_the_budget_exit_2_with_one_json_line(tmp_path, capsys):
    # 2**20 samples on the README octagon need 3.8 GiB of evaluator tables
    cfg = readme_config()
    cfg["objective"]["samples"] = 2 ** 20
    rc = main(["optimize", "--config", write_config(tmp_path, cfg),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    (line,) = capsys.readouterr().err.splitlines()
    error = json.loads(line)["error"]
    assert error["type"] == "config"
    assert "config.objective.samples" in error["message"]


def test_huge_panel_count_exits_2_before_building_the_array(tmp_path):
    # 1e308 panels read as a huge integer; building them one by one would
    # run until killed, so the element count is held to the budget first
    cfg = octagon_config()
    cfg["array"]["panels"] = 1e308
    proc = run_python("import sys; from switchseq.cli import main; "
                      "sys.exit(main(sys.argv[1:]))",
                      "effective-factor", "--config", write_config(tmp_path, cfg),
                      "--out", str(tmp_path / "out"), timeout=30)
    assert proc.returncode == 2
    (line,) = proc.stderr.splitlines()
    error = json.loads(line)["error"]
    assert error["type"] == "config"
    assert "panels" in error["message"]


@pytest.mark.parametrize("k_max", [1e12, 1e308])
def test_huge_k_max_exits_2_before_annealing(tmp_path, k_max):
    # an 8-element ULA annealed for 1e12 proposals would run for ever: the
    # proposals x samples are held to the work budget at load
    cfg = ula_config(array={"kind": "ula", "elements": 8},
                     anneal={"scheme": "random", "k_max": k_max})
    proc = run_python("import sys; from switchseq.cli import main; "
                      "sys.exit(main(sys.argv[1:]))",
                      "optimize", "--config", write_config(tmp_path, cfg),
                      "--out", str(tmp_path / "out"), timeout=30)
    assert proc.returncode == 2
    (line,) = proc.stderr.splitlines()
    error = json.loads(line)["error"]
    assert error["type"] == "config"
    assert "config.anneal.k_max" in error["message"]


@pytest.mark.parametrize("spacing", [1e-300, 1e300])
def test_crlb_bound_that_overflows_exits_3(tmp_path, capsys, spacing):
    # a loadable geometry whose closed-form bound overflows or underflows
    # to zero is a numeric failure: exit 3 with one JSON line, no warning
    cfg = ula_config(array={"kind": "ula", "elements": 16,
                            "spacing_wavelengths": spacing})
    rc = main(["crlb", "--config", write_config(tmp_path, cfg),
               "--out", str(tmp_path / "out")])
    assert rc == 3
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line)["error"]["message"]


@pytest.mark.parametrize("base, key", [(ula_config, "spacing_wavelengths"),
                                       (octagon_config, "spacing_wavelengths"),
                                       (octagon_config, "radius_wavelengths")])
def test_geometry_whose_steering_phases_overflow_exits_2(tmp_path, capsys,
                                                         base, key):
    # element positions of 1e308 wavelengths give steering phases
    # that overflow a float, so the objective sums would hold garbage
    cfg = small_sweep_config(base)
    cfg["array"][key] = 1e308
    rc = main(["optimize", "--config", write_config(tmp_path, cfg),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    (line,) = capsys.readouterr().err.splitlines()
    error = json.loads(line)["error"]
    assert error["type"] == "config"
    assert f"config.array.{key}" in error["message"]
    assert not (tmp_path / "out" / "sequence.json").exists()


def test_work_budget_admits_thousands_of_proposals_at_2_pow_19_samples():
    cfg = readme_config()
    cfg["objective"]["samples"] = 2 ** 19
    cfg["anneal"]["k_max"] = 16384
    assert ExperimentConfig.from_dict(cfg).anneal.k_max == 16384
    cfg["anneal"]["k_max"] = 16385
    with pytest.raises(ConfigError, match="config.anneal.k_max"):
        ExperimentConfig.from_dict(cfg)


def test_huge_array_at_one_sample_exits_2_before_building_the_array(tmp_path):
    # 4e6 panels of 2 x 2 elements at one sample: the array itself (16e6
    # elements of 640 bytes) is over the budget at the default sweep and on
    # a one-cell sweep; the gate counts the spec's elements, so the panels
    # are never built
    for sweep in ({}, {"angle_span_deg": 0.0, "doppler_span_hz": 0.0}):
        cfg = octagon_config(sweep=sweep)
        cfg["array"]["panels"] = 4e6
        cfg["objective"]["samples"] = 1
        proc = run_python("import sys; from switchseq.cli import main; "
                          "sys.exit(main(sys.argv[1:]))",
                          "effective-factor", "--config",
                          write_config(tmp_path, cfg),
                          "--out", str(tmp_path / "out"), timeout=30)
        assert proc.returncode == 2
        (line,) = proc.stderr.splitlines()
        error = json.loads(line)["error"]
        assert error["type"] == "config"
        assert "config.array.panels/rows/cols" in error["message"]
        assert "config.sweep" in error["message"]


def test_ambiguity_imports_neither_scipy_stats_nor_ndimage(tmp_path):
    # no command loads scipy at all: ambiguity, a bare evaluator build,
    # optimize and compare on the small test configs
    code = """
import json, sys
from switchseq.cli import main
loaded = {}
assert main(["ambiguity", "--config", sys.argv[1], "--out", sys.argv[3]]) == 0
loaded["ambiguity"] = "scipy" in sys.modules
from switchseq.config import ExperimentConfig
evaluator = ExperimentConfig.from_file(sys.argv[1]).evaluator()
assert evaluator._snapshot_power.size == 256
loaded["evaluator"] = "scipy" in sys.modules
assert main(["optimize", "--config", sys.argv[1], "--out", sys.argv[3]]) == 0
loaded["optimize"] = "scipy" in sys.modules
assert main(["compare", "--config", sys.argv[2], "--out", sys.argv[3]]) == 0
loaded["compare"] = "scipy" in sys.modules
print(json.dumps(loaded))
"""
    ula = write_config(tmp_path, small_sweep_config(ula_config), "ula.json")
    octagon = write_config(tmp_path, octagon_config(), "octagon.json")
    proc = run_python(code, ula, octagon, str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report == {"ambiguity": False, "evaluator": False, "optimize": False,
                      "compare": False}


def small_sweep_config(base):
    doc = base()
    doc["sweep"].update(doppler_span_hz=50.0, doppler_step_hz=5.0,
                        angle_span_deg=10.0, angle_step_deg=2.0)
    doc["anneal"] = {"scheme": "random" if base is ula_config else "hybrid",
                     "k_max": 3}
    return doc


# every field the configs set or default, plus whole sections; a huge value
# (1e308) must be refused at load wherever it would ask for a huge
# allocation, run or phase
MUTABLE_FIELDS = [(None, key) for key in (
    "version", "seed", "array", "sequence", "anneal", "objective", "reference",
    "sweep", "crlb")] + [
    (section, key) for section, keys in {
        "array": ("kind", "elements", "panels", "rows", "cols",
                  "spacing_wavelengths", "radius_wavelengths", "patch_exponent",
                  "pattern_file"),
        "sequence": ("scheme", "delta_t_s", "snapshots"),
        "anneal": ("scheme", "k_max", "t0", "alpha"),
        "objective": ("power", "samples", "doppler_fraction"),
        "reference": ("azimuth_deg", "elevation_deg", "effective_threshold_db"),
        "sweep": ("doppler_span_hz", "doppler_step_hz", "angle_span_deg",
                  "angle_step_deg", "angle_axis"),
        "crlb": ("noise_sigma",),
    }.items() for key in keys]
MUTATION_VALUES = [-1, 0, 0.5, 1, 2, 3, "abc", True, None, [], {},
                   float("nan"), float("inf"), -float("inf"), 1e308]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(base=st.sampled_from([ula_config, octagon_config]),
       field=st.sampled_from(MUTABLE_FIELDS),
       value=st.sampled_from(MUTATION_VALUES),
       command=st.sampled_from(["optimize", "ambiguity", "effective-factor",
                                "compare", "crlb"]))
def test_cli_mutated_config_never_raises(base, field, value, command):
    doc = small_sweep_config(base)
    section, key = field
    (doc if section is None else doc.setdefault(section, {}))[key] = value
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/config.json"
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main([command, "--config", path, "--out", f"{tmp}/out"])
    assert rc in (0, 2, 3)
    if rc:
        (line,) = err.getvalue().splitlines()
        assert json.loads(line)["error"]["message"]


# ---- optimize ----------------------------------------------------------


def test_optimize_outputs_and_determinism(tmp_path):
    cfg = ula_config()
    cfg["anneal"] = {"scheme": "random", "k_max": 4}
    path = write_config(tmp_path, cfg)
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["optimize", "--config", path, "--out", str(out1)]) == 0
    assert main(["optimize", "--config", path, "--out", str(out2)]) == 0

    seq1 = (out1 / "sequence.json").read_bytes()
    seq2 = (out2 / "sequence.json").read_bytes()
    assert seq1 == seq2

    with open(out1 / "trace.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "objective", "proposal_objective",
                       "temperature", "accepted"]
    assert len(rows) - 1 == 4

    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["command"] == "optimize"
    assert manifest["seed"] == 42
    assert "config_sha256" in manifest
    summary = json.loads((out1 / "summary.json").read_text())
    assert set(summary) == {"initial_objective", "final_objective",
                            "best_objective", "best_k", "t0", "alpha",
                            "iterations", "degenerate_samples", "live_fraction"}
    # an omni ULA sees power on every sample
    assert summary["degenerate_samples"] == 0 and summary["live_fraction"] == 1.0


def test_optimize_seed_override_changes_result(tmp_path):
    cfg = ula_config()
    cfg["anneal"] = {"scheme": "random", "k_max": 4}
    path = write_config(tmp_path, cfg)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["optimize", "--config", path, "--out", str(out1)]) == 0
    assert main(["optimize", "--config", path, "--out", str(out2),
                 "--seed", "43"]) == 0
    assert ((out1 / "sequence.json").read_bytes()
            != (out2 / "sequence.json").read_bytes())


def test_optimize_whose_schedule_cools_to_zero_takes_improvements_only(tmp_path):
    # t0 * 0.001**k underflows to 0.0 by k = 110, where exp(delta / T)
    # would divide by zero; a chain at T = 0.0 rejects every worse proposal
    cfg = octagon_config(anneal={"scheme": "hybrid", "k_max": 200, "alpha": 0.001})
    out = tmp_path / "out"
    assert main(["optimize", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 0
    with open(out / "trace.csv") as fh:
        rows = list(csv.DictReader(fh))
    # each row's proposal against the objective held before it
    worse_at_zero = [row["accepted"] for before, row in zip(rows, rows[1:])
                     if float(row["temperature"]) == 0.0
                     and float(row["proposal_objective"]) > float(before["objective"])]
    assert worse_at_zero and set(worse_at_zero) == {"0"}


# ---- ambiguity ---------------------------------------------------------


def test_ambiguity_from_config_sequence(tmp_path):
    path = write_config(tmp_path, ula_config())
    out = tmp_path / "amb"
    assert main(["ambiguity", "--config", path, "--out", str(out)]) == 0
    with open(out / "surface.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["delta_doppler_hz", "angle_deg", "magnitude_db"]
    assert len(rows) - 1 == 121 * 101  # doppler x angle grid
    meta = json.loads((out / "surface.csv.meta.json").read_text())
    assert meta["angle_axis"] == "aoa"
    # exact 0 dB sample at the self point
    zero_rows = [r for r in rows[1:] if float(r[0]) == 0.0 and float(r[1]) == 0.0]
    assert len(zero_rows) == 1
    assert float(zero_rows[0][2]) == pytest.approx(0.0, abs=1e-9)


def test_ambiguity_from_sequence_file(tmp_path):
    path = write_config(tmp_path, ula_config())
    opt_out = tmp_path / "opt"
    cfg = ula_config()
    cfg["anneal"] = {"scheme": "random", "k_max": 2}
    assert main(["optimize", "--config", write_config(tmp_path, cfg, "o.json"),
                 "--out", str(opt_out)]) == 0
    out = tmp_path / "amb2"
    rc = main(["ambiguity", "--config", path, "--out", str(out),
               "--sequence", str(opt_out / "sequence.json")])
    assert rc == 0
    meta = json.loads((out / "surface.csv.meta.json").read_text())
    assert meta["sequence_sha256"] is not None


def test_ambiguity_missing_sequence_file(tmp_path, capsys):
    path = write_config(tmp_path, ula_config())
    rc = main(["ambiguity", "--config", path, "--out", str(tmp_path / "x"),
               "--sequence", str(tmp_path / "missing.json")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert "missing.json" in err["error"]["message"]


SEQUENCE_8 = {"M": 8, "delta_t_s": 1e-3, "snapshots": 1, "order": list(range(8))}


@pytest.mark.parametrize("content", [
    "{not json",
    json.dumps({k: v for k, v in SEQUENCE_8.items() if k != "order"}),
    json.dumps([SEQUENCE_8]),
    json.dumps(dict(SEQUENCE_8, order=[0, 0, 1, 2, 3, 4, 5, 6])),
    json.dumps(dict(SEQUENCE_8, delta_t_s="x")),
    json.dumps(dict(SEQUENCE_8, partition=[[0, 2], [1, 3, 4, 5, 6, 7]])),
    # a falsy partition is a bad partition, not a random-scheme sequence
    *(json.dumps(dict(SEQUENCE_8, partition=p)) for p in ([], 0, False, "")),
    json.dumps(dict(SEQUENCE_8, delta_t_s=float("inf"))),
    "[" * 100000 + "]" * 100000,
    # a fraction or a boolean is refused, not truncated to an integer
    json.dumps(dict(SEQUENCE_8, order=[0.9, *range(1, 8)])),
    json.dumps(dict(SEQUENCE_8, snapshots=1.5)),
    json.dumps(dict(SEQUENCE_8, snapshots=True)),
    # parsed, but the config sets the timing: a file whose timing differs
    # from it is refused, including timing whose Doppler phases would
    # overflow a float or whose surface arrays would exceed the budget
    json.dumps(dict(SEQUENCE_8, delta_t_s=5e-4, snapshots=3)),
    json.dumps(dict(SEQUENCE_8, delta_t_s=1e306)),
    json.dumps(dict(SEQUENCE_8, snapshots=10 ** 9)),
    json.dumps(dict(SEQUENCE_8, M=0, order=[])),
    # json would keep the later order, the reverse of the first
    json.dumps(SEQUENCE_8)[:-1] + ', "order": [7, 6, 5, 4, 3, 2, 1, 0]}',
], ids=["not-json", "no-order", "top-level-list", "not-permutation",
        "delta-t-string", "partition-not-contiguous", "partition-empty-list",
        "partition-zero", "partition-false", "partition-empty-string",
        "delta-t-infinity",
        "nested-past-recursion-limit", "order-fraction", "snapshots-fraction",
        "snapshots-true", "timing-differs-from-config", "delta-t-overflow",
        "snapshots-over-budget", "order-empty", "repeated-key"])
def test_ambiguity_bad_sequence_file_exits_2(tmp_path, capsys, content):
    cfg = ula_config()
    cfg["array"]["elements"] = 8  # matches the file, so only its content is bad
    seq_path = tmp_path / "seq.json"
    seq_path.write_text(content)
    rc = main(["ambiguity", "--config", write_config(tmp_path, cfg),
               "--out", str(tmp_path / "out"), "--sequence", str(seq_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (line,) = err.splitlines()
    error = json.loads(line)["error"]
    assert error["type"] == "config"
    assert "--sequence" in error["message"]
    assert not (tmp_path / "out" / "surface.csv").exists()


def test_ambiguity_sequence_array_mismatch(tmp_path):
    from switchseq import sequential

    seq_path = tmp_path / "seq4.json"
    sequential(4, 1e-3).save(seq_path)
    rc = main(["ambiguity", "--config", write_config(tmp_path, ula_config()),
               "--out", str(tmp_path / "y"), "--sequence", str(seq_path)])
    assert rc == 2


def test_unusable_output_directory_exits_2(tmp_path, capsys):
    # --out names an existing file
    blocker = tmp_path / "file"
    blocker.write_text("")
    config = write_config(tmp_path, ula_config())
    assert main(["effective-factor", "--config", config, "--out", str(blocker)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    error = json.loads(line)["error"]
    assert error["type"] == "config"
    assert error["message"].startswith("--out:")


@pytest.mark.parametrize("command, base, section, key, value", [
    ("effective-factor", ula_config, None, "output_dir", "elsewhere"),
    ("crlb", ula_config, "reference", "doppler_hz", 0.0),
    ("crlb", ula_config, "crlb", "doppler_hz", 0.0),
    ("crlb", ula_config, "crlb", "phase", 0.0),
    ("crlb", ula_config, "crlb", "azimuth_deg", 0.0),
    ("crlb", ula_config, "crlb", "elevation_deg", 0.0),
    ("crlb", ula_config, "crlb", "amplitude", 0.0),
    ("ambiguity", ula_config, "array", "carrier_hz", 28e9),
    ("ambiguity", octagon_config, "array", "carrier_hz", 28e9),
    ("ambiguity", octagon_config, "array", "radius_m", 0.01),
    ("effective-factor", ula_config, None, "region", {"doppler_fraction": 0.25}),
    ("effective-factor", ula_config, None, "effective_threshold_db", -10.0)],
    ids=["output_dir", "reference.doppler_hz", "crlb.doppler_hz", "crlb.phase",
         "crlb.azimuth_deg", "crlb.elevation_deg", "crlb.amplitude",
         "ula-array.carrier_hz", "octagon-array.carrier_hz", "array.radius_m",
         "region", "effective_threshold_db"])
def test_removed_fields_exit_2_as_unknown_fields(
        tmp_path, capsys, monkeypatch, command, base, section, key, value):
    # each field is refused even at its old default: --out alone names where
    # a run writes; the path's Doppler and phase are 0.0, and crlb bounds
    # the reference path with a noise sigma relative to a unit amplitude;
    # the model fixes the carrier at 28 GHz and takes every length in
    # wavelengths; objective.doppler_fraction and
    # reference.effective_threshold_db hold the last two settings
    monkeypatch.chdir(tmp_path)
    cfg = base()
    (cfg if section is None else cfg.setdefault(section, {}))[key] = value
    assert main([command, "--config", write_config(tmp_path, cfg)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    where = "config" if section is None else f"config.{section}"
    assert json.loads(line)["error"] == {
        "type": "config", "message": f"{where}: unknown field(s) ['{key}']"}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_octagon_radius_is_given_in_wavelengths():
    cfg = octagon_config()
    cfg["array"]["radius_wavelengths"] = 3.0
    array = ExperimentConfig.from_dict(cfg).array
    expected = make_octagonal(panels=4, rows=2, cols=2, radius_wavelengths=3.0)
    assert np.array_equal(array.positions, expected.positions)


@pytest.mark.parametrize("argv, name", [
    (["optimize", "--config", "config.json", "--seed", "abc"], "--seed"),
    (["optimize", "--config", "config.json", "--seed", "7.5"], "--seed"),
    (["optimize", "--config", "config.json", "--seed", "true"], "--seed"),
    (["optimize", "--config", "config.json", "--seed"], "--seed"),
    (["optimize", "--config", "config.json", "--bogus"], "--bogus"),
    (["bogus", "--config", "config.json"], "bogus"),
    (["optimize"], "--config"),
    ([], "command"),
], ids=["seed-string", "seed-fraction", "seed-boolean", "seed-missing-value",
        "unknown-flag", "unknown-command", "no-config", "no-command"])
def test_cli_argument_error_exits_2_with_one_json_line(tmp_path, capsys, monkeypatch,
                                                      argv, name):
    # main returns the exit code; argparse's usage text and SystemExit stay out
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path, octagon_config())
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    error = json.loads(line)["error"]
    assert error["type"] == "config"
    assert name in error["message"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize("argv", [["-h"], ["optimize", "-h"]])
def test_cli_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as caught:
        main(argv)
    assert caught.value.code == 0
    assert capsys.readouterr().out.startswith("usage: switchseq")


def test_seed_flag_reads_an_integral_float_as_the_config_does(tmp_path):
    # --seed 7.0 is the config's "seed": 7.0, which reads as 7
    cfg = ula_config(anneal={"scheme": "random", "k_max": 4})
    path = write_config(tmp_path, cfg)
    runs = {}
    for seed in ("7", "7.0"):
        out = tmp_path / seed
        assert main(["optimize", "--config", path, "--out", str(out), "--seed", seed]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        del manifest["wall_time_s"]
        runs[seed] = manifest, {p.name: p.read_bytes() for p in out.iterdir()
                                if p.name != "manifest.json"}
    assert runs["7"] == runs["7.0"]
    assert runs["7"][0]["seed"] == 7


def one_element_panels():
    cfg = octagon_config()
    cfg["array"].update(rows=1, cols=1)
    del cfg["anneal"]  # compare anneals both schemes without the section
    return cfg


def readme_without_anneal():
    cfg = readme_config()
    del cfg["anneal"]
    return cfg


@pytest.mark.parametrize("command, cfg, code, error_type", [
    ("optimize", readme_without_anneal(), 2, "config"),
    ("crlb", octagon_config(), 2, "config"),
    ("compare", one_element_panels(), 2, "config"),
    ("compare", octagon_config(sweep={"angle_span_deg": 0.5}), 3,
     "GridTooNarrowError")],
    ids=["optimize", "crlb", "compare", "compare-numeric"])
def test_command_refused_after_load_leaves_no_directory(tmp_path, capsys,
                                                        command, cfg, code,
                                                        error_type):
    # main makes the directory only once the command has its artifacts, so
    # a refused or failing run makes none, and one that existed is untouched
    config = write_config(tmp_path, cfg)
    out = tmp_path / "made" / "out"
    assert main([command, "--config", config, "--out", str(out)]) == code
    assert json.loads(capsys.readouterr().err)["error"]["type"] == error_type
    assert not (tmp_path / "made").exists()
    out.mkdir(parents=True)
    (out / "kept.txt").write_text("kept")
    assert main([command, "--config", config, "--out", str(out)]) == code
    assert [p.name for p in out.iterdir()] == ["kept.txt"]
    assert (out / "kept.txt").read_text() == "kept"


@pytest.mark.parametrize("command, artifact", [
    ("optimize", "sequence.json"), ("ambiguity", "surface.csv"),
    ("crlb", "crlb_report.json"), ("compare", "surface_sequential.csv"),
    ("effective-factor", "effective_factor.json"),
    ("effective-factor", "manifest.json")])
def test_unwritable_artifact_exits_2(tmp_path, capsys, command, artifact):
    # a directory where the file goes (file modes do not stop every user)
    cfg = octagon_config()
    if command == "crlb":  # a random order leaves the FIM regular
        cfg = ula_config(sequence={"scheme": "random", "delta_t_s": 1e-3})
    out = tmp_path / "out"
    (out / artifact).mkdir(parents=True)
    assert main([command, "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    error = json.loads(line)["error"]
    assert error["type"] == "config"
    assert error["message"].startswith("--out: ") and artifact in error["message"]


def test_readme_quick_start_runs(tmp_path, monkeypatch, capsys):
    # the README's two config blocks under the names its commands read, and
    # every switchseq command of its two shell blocks run through main
    monkeypatch.chdir(tmp_path)
    for index, name in enumerate(("config.json", "config_ula.json")):
        (tmp_path / name).write_text(readme_block("CLI quick start", "json", index))
    commands = [shlex.split(line) for index in (0, 1) for line in
                readme_block("CLI quick start", "sh", index)
                .replace("\\\n", " ").splitlines()]
    assert [argv[:2] for argv in commands] == [
        ["switchseq", name] for name in ("optimize", "ambiguity", "compare",
                                         "effective-factor", "crlb")]
    assert "--sequence" in commands[1]
    for argv in commands:
        assert main(argv[1:]) == 0, capsys.readouterr().err
    report = json.loads((tmp_path / "runs/crlb/crlb_report.json").read_text())
    assert report["agreement"]["within_1pct"] is True


def test_benchmark_checks_pass_on_the_readme_config(tmp_path):
    # the benchmark's output checks, which build their references through
    # the config's accessors and the evaluator's positional signature, pass
    # on each workload's command, run through main on a small README config
    spec = importlib.util.spec_from_file_location(
        "checks", Path(__file__).resolve().parents[1] / "perfbench" / "checks.py")
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    cfg = readme_config()
    cfg["objective"]["samples"] = 256
    cfg["anneal"]["k_max"] = 5
    path = write_config(tmp_path, cfg)
    checker = checks.Checker(Path(path))
    run, surface, compare = (tmp_path / name for name in ("run", "surface", "compare"))
    sequence = run / "best_sequence.json"
    for argv in (["optimize", "--out", str(run)],
                 ["ambiguity", "--out", str(surface), "--sequence", str(sequence)],
                 ["compare", "--out", str(compare)]):
        assert main([*argv, "--config", path]) == 0
    assert checker.check_anneal(run) == []
    assert checker.check_surface(surface, sequence) == []
    assert checker.check_compare(compare) == []


# ---- crlb --------------------------------------------------------------


def test_crlb_report_fields_and_agreement(tmp_path):
    cfg = ula_config()
    cfg["sequence"] = {"scheme": "random", "delta_t_s": 1e-3}
    cfg["crlb"] = {"noise_sigma": 0.1}
    out = tmp_path / "crlb"
    assert main(["crlb", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 0
    report = json.loads((out / "crlb_report.json").read_text())
    assert report["params"]["elevation_deg"] == 90.0  # the default, echoed
    assert set(report["closed_form"]) == {"var_phi", "var_nu"}
    assert set(report["numeric"]) == {"var_phi", "var_nu", "var_r", "var_psi"}
    assert "off_diag_ratio" in report
    assert report["agreement"]["within_1pct"] is True


def test_crlb_closed_forms_agree_off_the_horizon(tmp_path):
    # the azimuth bound carries sin(theta): at 60 degrees it is 4/3 of the
    # horizon's, and the numeric oracle agrees with it
    cfg = ula_config()
    cfg["sequence"] = {"scheme": "random", "delta_t_s": 1e-3}
    cfg["reference"]["elevation_deg"] = 60.0
    out = tmp_path / "crlb"
    assert main(["crlb", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 0
    report = json.loads((out / "crlb_report.json").read_text())
    assert report["params"]["elevation_deg"] == 60.0
    assert report["agreement"]["var_phi_rel_err"] < 1e-6
    assert report["agreement"]["within_1pct"] is True


def test_crlb_bounds_the_reference_path(tmp_path):
    # the crlb section has no direction: the bounds are the reference path's
    cfg = json.loads(readme_block("CLI quick start", "json", 1))
    cfg["reference"] = {"azimuth_deg": 60.0, "elevation_deg": 70.0}
    assert set(cfg["crlb"]) == {"noise_sigma"}
    out = tmp_path / "crlb"
    assert main(["crlb", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 0
    report = json.loads((out / "crlb_report.json").read_text())
    assert (report["params"]["azimuth_deg"], report["params"]["elevation_deg"]) == (
        60.0, 70.0)
    assert report["closed_form"]["var_phi"] == crlb_aoa(
        16, 0.5, math.radians(60.0), math.radians(70.0), 0.1, 1)


def test_crlb_rejects_non_ula_array(tmp_path):
    rc = main(["crlb", "--config", write_config(tmp_path, octagon_config()),
               "--out", str(tmp_path / "c3")])
    assert rc == 2


@pytest.mark.parametrize("cfg, field", [
    (octagon_config(), "config.array.kind"),
    (ula_config(array={"kind": "ula", "elements": 1}), "config.array.elements"),
], ids=["octagon", "one-element"])
def test_crlb_refuses_an_array_without_closed_forms(tmp_path, capsys, cfg, field):
    # the closed forms hold for an omni ULA of at least 2 elements
    assert main(["crlb", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (line,) = err.splitlines()
    error = json.loads(line)["error"]
    assert error["type"] == "config"
    assert error["message"].startswith(field + ": ")


@pytest.mark.parametrize("snapshots", [2, 3])
def test_crlb_closed_forms_agree_over_snapshots(tmp_path, snapshots):
    # every snapshot observes the array once more, so both bounds fall as 1/S
    cfg = ula_config()
    cfg["sequence"] = {"scheme": "random", "delta_t_s": 1e-3, "snapshots": snapshots}
    out = tmp_path / "crlb"
    assert main(["crlb", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 0
    report = json.loads((out / "crlb_report.json").read_text())
    assert report["agreement"]["var_phi_rel_err"] < 1e-6
    assert report["agreement"]["within_1pct"] is True


def test_ambiguity_at_a_reference_no_element_sees_exits_3(tmp_path, capsys):
    # every patch of the octagon faces the horizon, so none sees the zenith:
    # neither as the reference nor in an elevation sweep 90 degrees either
    # side of the horizon
    at_zenith = octagon_config(reference={"azimuth_deg": 90.0, "elevation_deg": 0.0})
    at_zenith["sweep"]["angle_axis"] = "aoa"
    through_zenith = octagon_config()
    through_zenith["sweep"]["angle_span_deg"] = 90.0
    for cfg, message in ((at_zenith, "reference direction"),
                         (through_zenith, "sweep contains a zero-response direction")):
        assert main(["ambiguity", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "out")]) == 3
        (line,) = capsys.readouterr().err.splitlines()
        error = json.loads(line)["error"]
        assert error["type"] == "DegenerateDirectionError"
        assert message in error["message"]


def test_crlb_endfire_structured_error(tmp_path, capsys):
    cfg = ula_config()
    cfg["reference"]["azimuth_deg"] = 0.0
    rc = main(["crlb", "--config", write_config(tmp_path, cfg),
               "--out", str(tmp_path / "z")])
    assert rc == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "EndfireSingularityError"


# ---- compare and effective-factor --------------------------------------


def test_compare_pipeline(tmp_path):
    out = tmp_path / "cmp"
    rc = main(["compare", "--config", write_config(tmp_path, octagon_config()),
               "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "comparison.json").read_text())
    assert "broadening_ratio" in report
    assert report["broadening_ratio"] > 1.0
    assert set(report["schemes"]) == {"sequential", "random", "hybrid"}
    for update in ("random", "hybrid"):
        with open(out / f"trace_{update}.csv") as fh:
            rows = list(csv.DictReader(fh))
        block = report["anneal"][update]
        assert set(block) == {"initial_objective", "final_objective",
                              "best_objective", "best_k", "t0", "alpha",
                              "iterations", "degenerate_samples",
                              "live_fraction"}
        assert block["live_fraction"] == 0.25  # each patch sees a half-space
        assert block["final_objective"] == float(rows[-1]["objective"])
    for name in ("surface_sequential.csv", "surface_random.csv",
                 "surface_hybrid.csv", "sequence_random.json",
                 "sequence_hybrid.json", "trace_random.csv",
                 "trace_hybrid.csv", "manifest.json"):
        assert (out / name).exists()


def test_comparison_json_key_layout(tmp_path):
    # the file's bytes follow the keys' order, which no key lookup sees
    out = tmp_path / "cmp"
    assert main(["compare", "--config", write_config(tmp_path, octagon_config()),
                 "--out", str(out)]) == 0
    doc = json.loads((out / "comparison.json").read_text())
    assert list(doc) == [
        "schemes", "broadening_ratio", "angle_width_ratio", "effective_factor",
        "inverse_effective_factor", "block_aperture_ratio",
        "broadening_vs_inverse_factor", "effective_threshold_db",
        "angle_cell_deg", "anneal"]
    assert list(doc["schemes"]) == ["sequential", "random", "hybrid"]
    assert list(doc["schemes"]["hybrid"]) == [
        "doppler_half_power_hz", "doppler_width_hz", "angle_half_power_deg",
        "angle_width_deg", "psl", "psl_db", "crlb_nu_full_hz2",
        "crlb_nu_effective_hz2"]
    assert list(doc["anneal"]) == ["random", "hybrid"]
    assert list(doc["anneal"]["hybrid"]) == [
        "initial_objective", "final_objective", "best_objective", "best_k",
        "t0", "alpha", "iterations", "degenerate_samples", "live_fraction"]


def test_compare_traces_follow_the_anneal_schedule(tmp_path):
    cfg = octagon_config()
    cfg["anneal"].update(t0=5.0, alpha=0.9)
    out = tmp_path / "cmp"
    assert main(["compare", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 0
    for name in ("trace_random.csv", "trace_hybrid.csv"):
        with open(out / name) as fh:
            temperatures = [float(row["temperature"]) for row in csv.DictReader(fh)]
        assert temperatures == [5.0 * 0.9 ** k for k in range(3)]


def test_compare_seed_override_writes_the_library_comparison(tmp_path):
    # --seed 7 replaces the run's seed, which draws the sequences and
    # anneals of config.compare; the objective's QMC points keep the
    # file's seed (11)
    cfg = octagon_config(seed=11)
    out = tmp_path / "cmp"
    assert main(["compare", "--config", write_config(tmp_path, cfg),
                 "--seed", "7", "--out", str(out)]) == 0
    config = replace(ExperimentConfig.from_dict(cfg), seed=7)
    assert config.objective.seed == 11
    doc, _, _, traces = config.compare()
    written = json.loads((out / "comparison.json").read_text())
    assert written == json.loads(json.dumps(doc))
    for update, trace in traces.items():
        with open(out / f"trace_{update}.csv") as fh:
            objectives = [float(row["objective"]) for row in csv.DictReader(fh)]
        assert objectives == [rec.objective for rec in trace.records]
    # a run at either seed alone differs: at 11 its draws, at 7 its points
    for alone in (11, 7):
        _, _, _, other = ExperimentConfig.from_dict(dict(cfg, seed=alone)).compare()
        assert all(other[update].records != trace.records
                   for update, trace in traces.items())


def test_optimize_random_writes_compares_random_anneal(tmp_path):
    # both anneal through one stage on one stream from the seed, and the
    # sequential sequence compare builds first draws nothing; the stage
    # builds the one report that is summary.json and the anneal block
    path = write_config(tmp_path, octagon_config(anneal={"scheme": "random",
                                                         "k_max": 20}))
    for command in ("optimize", "compare"):
        assert main([command, "--config", path, "--out",
                     str(tmp_path / command)]) == 0
    opt, cmp = tmp_path / "optimize", tmp_path / "compare"
    assert (opt / "trace.csv").read_bytes() == (cmp / "trace_random.csv").read_bytes()
    orders = [json.loads(f.read_text())["order"] for f in
              (opt / "sequence.json", cmp / "sequence_random.json")]
    assert orders[0] == orders[1]
    assert (json.loads((opt / "summary.json").read_text())
            == json.loads((cmp / "comparison.json").read_text())["anneal"]["random"])


def test_compare_drops_the_evaluator_before_the_surface_sweeps(tmp_path,
                                                              monkeypatch):
    # the anneals' evaluator is not read by compare_schemes, so it must be
    # freed before the three surfaces are swept, not held beside them
    built, alive = [], []
    make, sweep = switchseq.config.ObjectiveEvaluator, switchseq.config.compare_schemes

    def evaluator(*args, **kwargs):
        made = make(*args, **kwargs)
        built.append(weakref.ref(made))
        return made

    def compare_schemes(*args, **kwargs):
        alive.append([ref() is not None for ref in built])
        return sweep(*args, **kwargs)

    monkeypatch.setattr(switchseq.config, "ObjectiveEvaluator", evaluator)
    monkeypatch.setattr(switchseq.config, "compare_schemes", compare_schemes)
    assert main(["compare", "--config", write_config(tmp_path, octagon_config()),
                 "--out", str(tmp_path / "cmp")]) == 0
    assert alive == [[False]]


@pytest.mark.parametrize("defect", ["nan-gain", "repeated-row", "upper-hemisphere",
                                    "directory", "long-field", "missing-column",
                                    "missing-element", "short-row", "long-row",
                                    "repeated-column", "negative-element",
                                    "extra-element", "azimuth-360",
                                    "elevation-over-180", "fractional-element",
                                    "underscore-gain"])
@pytest.mark.parametrize("command", ["optimize", "ambiguity", "compare",
                                     "effective-factor"])
def test_bad_pattern_file_exits_2_at_load(tmp_path, capsys, command, defect):
    # refused at load: past it a NaN gain gives optimize a meaningless
    # objective and compare an unobservable Doppler (exit 3), a repeated
    # row replaces the first one, and an elevation off the grid, which the
    # objective samples, raises in the gain lookup; a directory or a field
    # over the csv module's 131072-character limit cannot be read; a file
    # without the im column, or without element 15, does not give every
    # element a complex V gain, and neither does a row short of fields; a
    # row with more fields than the header (decimal commas, say) would load
    # the wrong gain; a header that repeats a column would read the gains
    # from its last copy, and rows for a negative element, or for element
    # 16 of this 16-element array, would load unread; azimuth 360 repeats
    # azimuth 0, and no elevation lies past 180; a value that does not parse,
    # or has a digit-group underscore, is named by its line
    def table(elevations, azimuths=range(0, 360, 90)):
        return ["element,pol,azimuth_deg,elevation_deg,re,im"] + [
            f"{e},V,{a},{el},1.0,0.0" for e in range(16)
            for a in azimuths for el in elevations]
    lines = table((0, 90, 180))
    good = octagon_config()
    good["array"]["pattern_file"] = str(tmp_path / "good.csv")
    (tmp_path / "good.csv").write_text("\n".join(lines) + "\n")
    ExperimentConfig.from_dict(good)
    if defect == "nan-gain":
        lines[5] = lines[5].replace("1.0,0.0", "nan,0.0")
    elif defect == "repeated-row":
        lines.append(lines[5].replace("1.0,0.0", "5.0,0.0"))
    elif defect == "long-field":
        lines[5] = lines[5].replace("1.0,0.0", "1." + "0" * 131072 + ",0.0")
    elif defect == "upper-hemisphere":
        lines = table((0, 45, 90))
    elif defect == "missing-column":
        lines = [line.rsplit(",", 1)[0] for line in lines]
    elif defect == "missing-element":
        lines = [line for line in lines if not line.startswith("15,")]
    elif defect == "short-row":
        lines = [lines[0], "0"]
    elif defect == "long-row":
        lines[5] = lines[5].replace("1.0,0.0", "0,5,0")  # meant as 0.5, 0
    elif defect == "repeated-column":
        lines = [lines[0] + ",re"] + [line + ",7.0" for line in lines[1:]]
    elif defect == "negative-element":
        lines.append("-1" + lines[1][1:])
    elif defect == "extra-element":
        lines.append("16" + lines[1][1:])
    elif defect == "azimuth-360":
        lines = table((0, 90, 180), range(0, 361, 90))
    elif defect == "elevation-over-180":
        lines = table((0, 90, 180, 190))
    elif defect == "fractional-element":
        lines[5] = "1.0" + lines[5][1:]
    elif defect == "underscore-gain":  # float() would read 10.0
        lines[5] = lines[5].replace("1.0,0.0", "1_0,0.0")
    cfg = octagon_config()
    cfg["array"]["pattern_file"] = str(tmp_path / "bad.csv")
    if defect == "directory":
        (tmp_path / "bad.csv").mkdir()
    else:
        (tmp_path / "bad.csv").write_text("\n".join(lines) + "\n")
    rc = main([command, "--config", write_config(tmp_path, cfg),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    (line,) = capsys.readouterr().err.splitlines()
    error = json.loads(line)["error"]
    assert error["type"] == "config"
    assert error["message"].startswith("config.array.pattern_file: ")
    assert {"long-row": "more fields than its header", "extra-element": "element 16",
            "azimuth-360": "azimuth grid must lie inside [0, 2*pi)",
            "elevation-over-180": "elevation grid must lie inside [0, pi]",
            "fractional-element": "pattern file line 6 has element '1.0', not an integer",
            "underscore-gain": "pattern file line 6 has re '1_0', not a number"
            }.get(defect, "") in error["message"]
    assert not (tmp_path / "out").exists()


def test_manifest_records_the_pattern_file_hash(tmp_path):
    # the manifest hashes the bytes the array was parsed from, so editing
    # one gain changes the hash as well as the outputs; without a file it
    # is null
    lines = ["element,pol,azimuth_deg,elevation_deg,re,im"]
    for e in range(16):  # cos^2 patches on a 10-degree grid, as the tool writes
        for az in range(0, 360, 10):
            for el in range(0, 181, 10):
                cos_psi = (math.sin(math.radians(el))
                           * math.cos(math.radians(az - 90.0 * (e // 4))))
                lines.append(f"{e},V,{az},{el},{max(cos_psi, 0.0) ** 2:.6f},0")
    row = lines[100].split(",")
    row[4] = f"{float(row[4]) + 0.25:.6f}"
    hashes = {}
    for name, table in (("table", lines), ("edited", lines[:100] + [",".join(row)]
                                           + lines[101:])):
        path = tmp_path / f"{name}.csv"
        path.write_text("\n".join(table) + "\n")
        cfg = octagon_config()
        cfg["array"]["pattern_file"] = str(path)
        out = tmp_path / name
        assert main(["compare", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 0
        hashes[name] = json.loads((out / "manifest.json").read_text())[
            "pattern_file_sha256"]
        assert hashes[name] == hashlib.sha256(path.read_bytes()).hexdigest()
    assert hashes["table"] != hashes["edited"]
    out = tmp_path / "quick"
    assert main(["effective-factor", "--config",
                 write_config(tmp_path, readme_config()), "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["pattern_file_sha256"] is None


def test_pattern_file_is_read_no_further_than_the_gate_counted(tmp_path, monkeypatch):
    # the size gate counts the file's size before it is read, and the read
    # stops there, so a file that grows after, or a device such as
    # /dev/zero whose size reads 0, is no larger than the gate counted
    path = tmp_path / "table.csv"
    path.write_text("element,pol,azimuth_deg,elevation_deg,re,im\n"
                    + "".join(f"{e},V,0,{el},1,0\n" for e in range(16) for el in (0, 180)))
    cfg = octagon_config()
    cfg["array"]["pattern_file"] = str(path)
    ExperimentConfig.from_dict(cfg)
    monkeypatch.setattr(os.path, "getsize", lambda _: 0)
    with pytest.raises(ConfigError, match="pattern_file: pattern file must have columns"):
        ExperimentConfig.from_dict(cfg)


def test_compare_requires_partitioned_array(tmp_path):
    cfg = ula_config()
    rc = main(["compare", "--config", write_config(tmp_path, cfg),
               "--out", str(tmp_path / "c2")])
    assert rc == 2


class Annealed(Exception):
    pass


def refuse_to_anneal(*args):
    raise Annealed


@pytest.mark.parametrize("sweep, span, step", [
    ({"angle_step_deg": 0.7}, "angle_span_deg", "angle_step_deg"),
    ({"doppler_step_hz": 3.0}, "doppler_span_hz", "doppler_step_hz"),
    ({"doppler_span_hz": 4000.0 + 25.0 * 1.1e-6}, "doppler_span_hz", "doppler_step_hz"),
    ({"doppler_span_hz": 4000.025}, "doppler_span_hz", "doppler_step_hz"),
    ({"angle_span_deg": 0.0}, "angle_span_deg", "angle_step_deg"),
    ({"doppler_span_hz": 0.0}, "doppler_span_hz", "doppler_step_hz"),
], ids=["angle", "doppler", "doppler-millionth", "doppler-thousandth", "angle-zero",
        "doppler-zero"])
def test_compare_refuses_a_sweep_axis_without_a_zero_offset_cell(
        tmp_path, capsys, monkeypatch, sweep, span, step):
    # the nearest cells are 0.1 degrees, 1 Hz, 1.1e-6 and 1e-3 steps from
    # zero, where the main lobe is anchored, or the zero cell is the axis's
    # only one, which has no half-power width; compare refuses before it
    # anneals anything, even though this array's main lobe still reads 1
    # within 1e-6 at 1.1e-6 and 1e-3 steps (it falls by 1e-6 near 0.08
    # steps), while ambiguity writes each of these grids
    monkeypatch.setattr(ExperimentConfig, "anneal_schemes", refuse_to_anneal)
    cfg = octagon_config()
    cfg["sweep"].update(sweep)
    config = write_config(tmp_path, cfg)
    assert main(["compare", "--config", config, "--out", str(tmp_path / "out")]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    error = json.loads(line)["error"]
    assert error["type"] == "config"
    assert error["message"].startswith(f"config.sweep.{span}: ")
    assert f"config.sweep.{step}" in error["message"]
    assert not (tmp_path / "out").exists()
    assert main(["ambiguity", "--config", config, "--out", str(tmp_path / "cut")]) == 0


@pytest.mark.parametrize("sweep, axis, nearest", [
    ({"angle_span_deg": 3.0, "angle_step_deg": 0.1}, 1, 1e-14),
    ({"doppler_span_hz": 4000.0 + 25.0 * 0.9e-6}, 0, 25.0 * 1e-6),
], ids=["angle", "doppler"])
def test_compare_accepts_a_nearest_cell_within_a_millionth_of_a_step(sweep, axis, nearest):
    # np.arange puts the middle cell of a 3.0 span at step 0.1 at 2.7e-15
    # degrees, not 0.0, and a cell 0.9e-6 steps from zero is also within the
    # tolerance: those are zero-offset cells, so compare goes on to anneal
    cfg = octagon_config()
    cfg["sweep"].update(sweep)
    config = ExperimentConfig.from_dict(cfg)
    assert 0.0 < abs(config.sweep[axis]).min() < nearest
    config.anneal_schemes = refuse_to_anneal
    with pytest.raises(Annealed):
        config.compare()


def test_effective_factor_cmd(tmp_path):
    doc = {
        "version": 1,
        "seed": 1,
        "array": {"kind": "octagonal"},
        "reference": {"azimuth_deg": 45.0, "elevation_deg": 90.0,
                      "effective_threshold_db": -10.0},
    }
    out = tmp_path / "eff"
    assert main(["effective-factor", "--config", write_config(tmp_path, doc),
                 "--out", str(out)]) == 0
    report = json.loads((out / "effective_factor.json").read_text())
    assert report["effective_elements"] == 48
    assert report["effective_factor"] == pytest.approx(0.375)
    # at -4000 dB the threshold's power ratio underflows to 0.0, yet the 80
    # elements at zero gain toward the reference still do not count
    doc["reference"]["effective_threshold_db"] = -4000.0
    assert main(["effective-factor", "--config", write_config(tmp_path, doc),
                 "--out", str(out)]) == 0
    report = json.loads((out / "effective_factor.json").read_text())
    assert report["effective_elements"] == 48


# ---- manifest ----------------------------------------------------------


# each command's files, in the order it writes them
OUTPUTS = {
    "optimize": ["sequence.json", "best_sequence.json", "trace.csv", "summary.json"],
    "ambiguity": ["surface.csv", "surface.csv.meta.json"],
    "crlb": ["crlb_report.json"],
    "compare": [f"surface_{name}.csv{suffix}"
                for name in ("sequential", "random", "hybrid")
                for suffix in ("", ".meta.json")]
               + ["sequence_random.json", "sequence_hybrid.json",
                  "trace_random.csv", "trace_hybrid.csv", "comparison.json"],
    "effective-factor": ["effective_factor.json"],
}


@pytest.mark.parametrize("command, doc", [
    ("optimize", small_sweep_config(ula_config)),
    ("ambiguity", ula_config()),
    ("crlb", ula_config(sequence={"scheme": "random", "delta_t_s": 1e-3})),
    ("compare", octagon_config()),
    ("effective-factor", octagon_config()),
])
def test_manifest_lists_every_file_the_command_wrote(tmp_path, command, doc):
    out = tmp_path / "out"
    assert main([command, "--config", write_config(tmp_path, doc),
                 "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == command
    # conftest imports numpy before switchseq, so the count is unknown here;
    # known counts are checked in test_artifacts_do_not_depend_on_blas_threads
    assert manifest["openblas_num_threads"] is None
    assert manifest["outputs"] == OUTPUTS[command]
    written = {p.name for p in out.iterdir() if p.name != "manifest.json"}
    assert written == set(OUTPUTS[command])
