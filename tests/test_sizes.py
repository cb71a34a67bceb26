"""The config's size gate against what runs hold: each stage's count lies
between the tracemalloc peak of a probe run of that stage and twice it,
and the limits README states are the gate's edges."""

import gc
import re
import tracemalloc

import numpy as np
import pytest

import switchseq.config as config_module
from switchseq.analysis import compare_schemes
from switchseq.anneal import anneal
from switchseq.config import ConfigError, ExperimentConfig
from switchseq.crlb import fim_numeric

from conftest import README, readme_config

ONE_CELL = {"doppler_span_hz": 0.0, "angle_span_deg": 0.0}


def probe_config(array, **sections):
    doc = {"version": 1, "seed": 3, "array": array,
           "objective": {"samples": 1}, "sweep": ONE_CELL}
    doc.update(sections)
    return doc


def write_patterns(path, elements):
    """Tabulated patterns, one object per element, zero within 5 degrees of
    the zenith: each element is live on most samples, on its own index."""
    lines = ["element,pol,azimuth_deg,elevation_deg,re,im"]
    for e in range(elements):
        for az in range(0, 360, 45):
            for el in range(0, 185, 5):
                lines.append(f"{e},V,{az},{el},{float(el > 5)},0")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def write_grids(path, elements):
    """The fewest bytes a pattern grid can take, each on rows as short as
    its element allows: per element, a V grid of elevations 0 and 180
    degrees at one azimuth and an H grid of one row."""
    lines = ["element,pol,azimuth_deg,elevation_deg,re,im"]
    for e in range(elements):
        lines += [f"{e},V,0,0,1,0", f"{e},V,0,180,1,0", f"{e},H,0,0,1,0"]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def run_load(doc):
    return lambda: ExperimentConfig.from_dict(doc)


def run_evaluator(doc):
    return ExperimentConfig.from_dict(doc).evaluator


def run_array(doc):
    rng = np.random.default_rng(0)
    return lambda: ExperimentConfig.from_dict(doc).build_sequence("hybrid", rng)


def run_instants(doc):
    config = ExperimentConfig.from_dict(doc)
    seq = config.build_sequence("sequential", None)
    return lambda: fim_numeric(config.array, seq, config.reference, config.noise_sigma)


def run_surfaces(doc):
    config = ExperimentConfig.from_dict(doc)
    rng = np.random.default_rng(0)
    sequences = {s: config.build_sequence(s, rng)
                 for s in ("sequential", "random", "hybrid")}
    return lambda: compare_schemes(
        config.array, sequences, config.reference, *config.sweep,
        threshold_db=config.reference_spec["effective_threshold_db"],
        noise_sigma=config.noise_sigma)


def run_traces(doc):
    config = ExperimentConfig.from_dict(doc)
    rng, evaluator = np.random.default_rng(0), config.evaluator()
    return lambda: [anneal(config.build_sequence("random", rng), config.anneal,
                           evaluator, rng) for _ in range(2)]


def probes(tmp_path):
    """Per stage, a small config whose run that stage dominates, and the
    stage's run on it."""
    return {
        "the objective tables": (probe_config(
            {"kind": "octagonal", "panels": 4, "rows": 2, "cols": 2,
             "pattern_file": write_patterns(tmp_path / "patterns.csv", 16)},
            objective={"samples": 2 ** 14}), run_evaluator),
        "the array": (probe_config(
            {"kind": "octagonal", "panels": 1024, "rows": 1, "cols": 1}),
            run_array),
        "the activation instants": (probe_config(
            {"kind": "ula", "elements": 2}, sequence={"snapshots": 2 ** 16}),
            run_instants),
        "the surfaces": (probe_config(
            {"kind": "octagonal"},
            sweep={"angle_span_deg": 30.0, "angle_step_deg": 0.1,
                   "doppler_span_hz": 400.0, "doppler_step_hz": 0.5}),
            run_surfaces),
        "the anneal traces": (probe_config(
            {"kind": "ula", "elements": 8},
            anneal={"scheme": "random", "k_max": 256}), run_traces),
        "the pattern file": (probe_config(
            {"kind": "octagonal", "panels": 300, "rows": 1, "cols": 1,
             "pattern_file": write_grids(tmp_path / "grids.csv", 300)}),
            run_load),
    }


def traced_peak(run) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("stage", ["the objective tables", "the array",
                                   "the activation instants", "the surfaces",
                                   "the anneal traces", "the pattern file"])
def test_gate_counts_each_stage_between_its_peak_and_twice_it(
        tmp_path, monkeypatch, stage):
    # the gate refuses a config whose count exceeds the budget: at a budget
    # one byte under the probe's peak it refuses the probe for this stage,
    # and at twice the peak it loads it
    doc, runner = probes(tmp_path)[stage]
    peak = traced_peak(runner(doc))
    monkeypatch.setattr(config_module, "MEMORY_BUDGET_BYTES", peak - 1)
    with pytest.raises(ConfigError, match=stage):
        ExperimentConfig.from_dict(doc)
    monkeypatch.setattr(config_module, "MEMORY_BUDGET_BYTES", 2 * peak)
    ExperimentConfig.from_dict(doc)


def readme_number(pattern: str) -> int:
    text = " ".join(README.read_text().split())
    (number,) = re.findall(pattern, text)
    return int(number.replace(",", ""))


def test_readme_size_limits_are_the_gate_edges():
    cfg = readme_config()
    edge = readme_number(r"octagon \(M = 128\) loads up to ([\d,]+) samples")
    for samples, loads in ((edge, True), (edge + 1, False)):
        cfg["objective"]["samples"] = samples
        if loads:
            ExperimentConfig.from_dict(cfg)
        else:
            with pytest.raises(ConfigError, match="config.objective.samples"):
                ExperimentConfig.from_dict(cfg)
    cfg["objective"]["samples"] = 2 ** 19
    edge = readme_number(r"admits ([\d,]+) proposals at 2\^19 samples")
    cfg["anneal"]["k_max"] = edge
    assert ExperimentConfig.from_dict(cfg).anneal.k_max == edge
    cfg["anneal"]["k_max"] = edge + 1
    with pytest.raises(ConfigError, match="config.anneal.k_max"):
        ExperimentConfig.from_dict(cfg)


def test_readme_lists_the_gate_costs():
    text = " ".join(README.read_text().split())
    c = config_module
    for phrase in (
            f"{c.ARRAY_BYTES} B an element",
            f"{c.INSTANT_BYTES} B an element × snapshot",
            f"2 × {c.TRACE_BYTES} B a proposal",
            f"{c.EVALUATOR_ELEMENT_BYTES} B an element, plus "
            f"{c.EVALUATOR_SAMPLE_BYTES} + {c.EVALUATOR_ELEMENT_SAMPLE_BYTES} M + "
            f"{c.EVALUATOR_SNAPSHOT_SAMPLE_BYTES} S bytes a sample",
            f"{c.SURFACE_CELL_BYTES} B a cell",
            f"{c.SURFACE_ANGLE_ELEMENT_BYTES} B an angle × element",
            f"{c.SURFACE_BLOCK_BYTES} B an (element + angle) × block column "
            f"(a sweep block has at most {c.SWEEP_COLUMNS + 1} Dopplers)",
            f"{c.SURFACE_DOPPLER_SNAPSHOT_BYTES} B a Doppler × snapshot",
            f"{c.PATTERN_FILE_BYTES} B a byte of `array.pattern_file`"):
        assert phrase in text
