import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import switchseq
from switchseq.cli import main
from switchseq.config import ConfigError, ExperimentConfig


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
        "objective": {"power": 6, "samples": 256},
        "region": {"doppler_bound_hz": 200.0},
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


def test_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        ExperimentConfig.from_file(tmp_path / "nope.json")


def test_config_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        ExperimentConfig.from_file(path)


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
    ("optimize", "region", "doppler_fraction", -1),
    ("optimize", "region", "doppler_bound_hz", 0),
    ("ambiguity", "sweep", "angle_span_deg", 120),
    ("ambiguity", "sweep", "doppler_span_hz", -5),
    ("ambiguity", "reference", "azimuth_deg", "x"),
    ("effective-factor", None, "effective_threshold_db", "x"),
    ("optimize", "anneal", "k_max", 2.7),
    ("optimize", "anneal", "t0", True),
    ("optimize", "objective", "samples", True),
    ("optimize", "objective", "power", 6.5),
    ("ambiguity", "sequence", "delta_t_s", True),
    ("ambiguity", "sequence", "snapshots", 1.5),
    ("ambiguity", "array", "radius_m", True),
    ("optimize", "region", "doppler_bound_hz", True),
    ("effective-factor", None, "effective_threshold_db", False),
    ("ambiguity", "sweep", "doppler_span_hz", float("inf")),
    ("ambiguity", "sweep", "doppler_step_hz", float("inf")),
    ("ambiguity", "sweep", "angle_span_deg", float("inf")),
    ("ambiguity", "sweep", "angle_step_deg", float("inf")),
    ("crlb", "array", "spacing_wavelengths", float("nan")),
    ("crlb", "sequence", "delta_t_s", float("inf")),
])
def test_cli_bad_field_exits_2_with_one_json_line(tmp_path, capsys, command,
                                                  section, key, value):
    cfg = ula_config() if command == "crlb" else octagon_config()  # crlb needs a ULA
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


def test_config_integer_fields_accept_integral_floats():
    cfg = octagon_config(anneal={"scheme": "hybrid", "k_max": 200.0})
    cfg["objective"]["samples"] = 256.0
    config = ExperimentConfig.from_dict(cfg)
    assert config.anneal.k_max == 200 and type(config.anneal.k_max) is int
    assert config.objective.samples == 256 and type(config.objective.samples) is int
    cfg = ula_config()
    cfg["array"]["elements"] = 16.0
    assert ExperimentConfig.from_dict(cfg).array.num_elements == 16
    for bad in (16.5, True):
        cfg["array"]["elements"] = bad
        with pytest.raises(ConfigError, match="elements"):
            ExperimentConfig.from_dict(cfg)


def run_python(code, *args):
    """Run python code in a fresh interpreter that imports this checkout's
    switchseq; return the completed process."""
    src = str(Path(switchseq.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)


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
from switchseq.ambiguity import ObjectiveEvaluator
config = ExperimentConfig.from_file(sys.argv[1])
evaluator = ObjectiveEvaluator(config.array, config.region, config.objective, 1e-3)
assert evaluator.azimuth.size == 256
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


# every field the configs set or default, plus whole sections; a value from
# the pool stays small, so no mutation can ask for a huge allocation
MUTABLE_FIELDS = [(None, key) for key in (
    "version", "seed", "array", "sequence", "anneal", "region", "objective",
    "reference", "sweep", "effective_threshold_db", "output_dir")] + [
    (section, key) for section, keys in {
        "array": ("kind", "elements", "panels", "rows", "cols",
                  "spacing_wavelengths", "radius_m", "carrier_hz",
                  "patch_exponent", "pattern_file"),
        "sequence": ("scheme", "delta_t_s", "snapshots"),
        "anneal": ("scheme", "k_max", "t0", "alpha"),
        "objective": ("power", "samples", "sin_elevation"),
        "region": ("doppler_fraction", "doppler_bound_hz"),
        "reference": ("azimuth_deg", "elevation_deg", "doppler_hz"),
        "sweep": ("doppler_span_hz", "doppler_step_hz", "angle_span_deg",
                  "angle_step_deg", "angle_axis"),
    }.items() for key in keys]
MUTATION_VALUES = [-1, 0, 0.5, 1, 2, 3, "abc", True, None, [], {},
                   float("nan"), float("inf"), -float("inf")]


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
    assert {"initial_objective", "final_objective", "best_objective",
            "best_k", "t0", "alpha", "iterations"} <= set(summary)


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


def test_ambiguity_sequence_array_mismatch(tmp_path):
    from switchseq import sequential

    seq_path = tmp_path / "seq4.json"
    sequential(4, 1e-3).save(seq_path)
    rc = main(["ambiguity", "--config", write_config(tmp_path, ula_config()),
               "--out", str(tmp_path / "y"), "--sequence", str(seq_path)])
    assert rc == 2


# ---- crlb --------------------------------------------------------------


def test_crlb_report_fields_and_agreement(tmp_path):
    cfg = ula_config()
    cfg["sequence"] = {"scheme": "random", "delta_t_s": 1e-3}
    cfg["crlb"] = {"azimuth_deg": 90.0, "noise_sigma": 0.1}
    out = tmp_path / "crlb"
    assert main(["crlb", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 0
    report = json.loads((out / "crlb_report.json").read_text())
    assert set(report["closed_form"]) == {"var_phi", "var_nu"}
    assert set(report["numeric"]) == {"var_phi", "var_nu", "var_r", "var_psi"}
    assert "off_diag_ratio" in report
    assert report["agreement"]["within_1pct"] is True


def test_crlb_rejects_non_ula_array(tmp_path):
    rc = main(["crlb", "--config", write_config(tmp_path, octagon_config()),
               "--out", str(tmp_path / "c3")])
    assert rc == 2


def test_crlb_endfire_structured_error(tmp_path, capsys):
    cfg = ula_config()
    cfg["crlb"] = {"azimuth_deg": 0.0}
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
    for name in ("surface_sequential.csv", "surface_random.csv",
                 "surface_hybrid.csv", "sequence_random.json",
                 "sequence_hybrid.json", "trace_random.csv",
                 "trace_hybrid.csv", "manifest.json"):
        assert (out / name).exists()


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


def test_compare_requires_partitioned_array(tmp_path):
    cfg = ula_config()
    rc = main(["compare", "--config", write_config(tmp_path, cfg),
               "--out", str(tmp_path / "c2")])
    assert rc == 2


def test_effective_factor_cmd(tmp_path):
    doc = {
        "version": 1,
        "seed": 1,
        "array": {"kind": "octagonal"},
        "reference": {"azimuth_deg": 45.0, "elevation_deg": 90.0},
        "effective_threshold_db": -10.0,
    }
    out = tmp_path / "eff"
    assert main(["effective-factor", "--config", write_config(tmp_path, doc),
                 "--out", str(out)]) == 0
    report = json.loads((out / "effective_factor.json").read_text())
    assert report["effective_elements"] == 48
    assert report["effective_factor"] == pytest.approx(0.375)
