"""Experiment configuration: a single versioned JSON document, validated
fail-closed (unknown and repeated keys are rejected) so typos cannot
silently change a scientific run.

Loading builds every run object once (array, Doppler bound, objective and
anneal settings, reference path and noise sigma, sweep grids) through the
domain constructors, so their checks are the config's checks: any error
they raise becomes a ConfigError that names the field. The config alone
sets a run's timing (element count, slot duration, snapshots).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ambiguity import (SWEEP_COLUMNS, ObjectiveConfig, ObjectiveEvaluator,
                        sweep_directions)
from .analysis import compare_schemes
from .anneal import AnnealConfig, anneal
from .arrays import (WAVELENGTH, ArrayModel, StructuralParams, attach_patterns,
                     make_octagonal, make_ula, parse_pattern_file)
from .switching import (SwitchingSequence, random_init, sequential, swap_sets,
                        unique_keys)

CONFIG_VERSION = 1
MEMORY_BUDGET_BYTES = 2 * 2 ** 30  # what a config may ask any stage of a run for
# annealing proposals x objective samples a config may ask for: a proposal
# costs 60-150 ns a sample, so 2**33 (16384 proposals at 2**19 samples) is
# at most about 20 minutes of annealing
WORK_BUDGET_SAMPLES = 2 ** 33

# Bytes a stage holds at its tracemalloc peak per unit of the sizes a config
# sets, fitted on the worst case of each (tests/test_sizes.py probes them)
ARRAY_BYTES = 640  # an element: a one-element octagon panel and a hybrid order
INSTANT_BYTES = 144  # an element x snapshot: crlb's finite-difference FIM
TRACE_BYTES = 208  # a proposal: its trace record, held twice by compare
EVALUATOR_ELEMENT_BYTES = 544  # the evaluator: an element's row objects,
EVALUATOR_SAMPLE_BYTES = 576  # a sample's points,
EVALUATOR_ELEMENT_SAMPLE_BYTES = 26  # its tables (all live, on own indices)
EVALUATOR_SNAPSHOT_SAMPLE_BYTES = 32  # and its snapshot gain temporaries
SURFACE_CELL_BYTES = 26  # compare's three surfaces,
SURFACE_ANGLE_ELEMENT_BYTES = 60  # the sweep's steering rows,
SURFACE_BLOCK_BYTES = 20  # its block's phase and product rows
SURFACE_DOPPLER_SNAPSHOT_BYTES = 36  # and snapshot gains
PATTERN_FILE_BYTES = 96  # a byte of the pattern file, parsed into grids of a row or two


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the offending field."""


_REQUIRED = object()


def _section(section, defaults: dict[str, object], path: str) -> dict:
    """Check a section's key set and fill defaults. Each default declares its
    field's kind: _REQUIRED marks a mandatory key; a tuple lists the allowed
    values, its first the default or _REQUIRED; the type float or str marks an
    optional field, None when missing or null; a float or an int is converted
    to that type by _number."""
    if not isinstance(section, dict):
        raise ConfigError(f"{path}: must be a JSON object")
    unknown = set(section) - set(defaults)
    if unknown:
        raise ConfigError(f"{path}: unknown field(s) {sorted(unknown)}")
    out = {}
    for key, default in defaults.items():
        where = f"{path}.{key}"
        value = section.get(key, default[0] if isinstance(default, tuple) else default)
        if value is _REQUIRED:
            raise ConfigError(f"{where}: required field missing")
        if isinstance(default, tuple):
            choices = [choice for choice in default if choice is not _REQUIRED]
            if value not in choices:
                raise ConfigError(f"{where}: must be {'|'.join(choices)}")
        elif default in (float, str):
            value = section.get(key)
            if value is not None and default is float:
                value = _number(where, float, value)
            elif value is not None and not isinstance(value, str):
                raise ConfigError(f"{where}: must be a string")
        elif isinstance(default, (int, float)):
            value = _number(where, type(default), value)
        out[key] = value
    return out


# each array kind's fields besides kind, with their defaults as _section
# reads them, and the fields whose product is its element count; lengths
# are in wavelengths
ARRAY_KINDS = {
    "ula": ({"elements": _REQUIRED, "spacing_wavelengths": 0.5}, ("elements",)),
    "octagonal": ({"panels": 8, "rows": 4, "cols": 4, "spacing_wavelengths": 0.5,
                   "radius_wavelengths": float, "patch_exponent": 2.0,
                   "pattern_file": str}, ("panels", "rows", "cols")),
}


def _field(path: str, build, *args, **kwargs):
    """Call a converter, domain constructor or file reader, reporting its
    ValueError, TypeError or read error as a ConfigError that names the
    field."""
    try:
        return build(*args, **kwargs)
    except (TypeError, ValueError, OverflowError, OSError, csv.Error) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _number(path: str, kind: type, value):
    """Convert a JSON number field to kind (int or float). A string, a
    boolean, NaN and +-Infinity are refused, and so is a fraction for an
    integer field; an integral float such as 200.0 reads as an integer."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: must be a number")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{path}: must be an integer")
    number = _field(path, kind, value)
    if kind is float and not math.isfinite(number):
        raise ConfigError(f"{path}: must be finite")
    return number


def _positive(value: float, path: str) -> float:
    if not value > 0:
        raise ConfigError(f"{path}: must be positive")
    return value


def _check_sizes(counts: str, m: int, snapshots: int, samples: int, k_max: int,
                 angles: float, dopplers: float, delta_t: float, nus: dict,
                 pattern_bytes: int) -> None:
    """The size gate, run before anything is built or read. Refuse a config
    whose run would hold more than MEMORY_BUDGET_BYTES at a stage (the
    *_BYTES times the sizes, pattern_bytes the pattern file's), anneal more
    than WORK_BUDGET_SAMPLES proposal samples, or form Doppler phases
    2*pi*nu*t, at the largest Doppler nu, over a float: nus maps the fields
    that set each Doppler to it."""
    run = f"config.array.{counts}, config.sequence.snapshots and config.sweep"
    over = f"would need more than the {MEMORY_BUDGET_BYTES >> 30} GiB memory budget"
    m = max(m, 1)  # building refuses m < 1
    # exact integers, so a huge field never meets a float before it is refused
    for fields, stage, need in (
            (run, "the array", m * ARRAY_BYTES),
            (run, "the activation instants", m * snapshots * INSTANT_BYTES),
            ("config.anneal.k_max", "the anneal traces", k_max * 2 * TRACE_BYTES),
            (f"config.objective.samples, config.array.{counts} and config.sequence"
             ".snapshots", "the objective tables", m * EVALUATOR_ELEMENT_BYTES
             + samples * (EVALUATOR_SAMPLE_BYTES + m * EVALUATOR_ELEMENT_SAMPLE_BYTES
                          + snapshots * EVALUATOR_SNAPSHOT_SAMPLE_BYTES)),
            ("config.array.pattern_file", "the pattern file",
             pattern_bytes * PATTERN_FILE_BYTES)):
        if need > MEMORY_BUDGET_BYTES:
            raise ConfigError(f"{fields}: {stage} {over}")
    if k_max > WORK_BUDGET_SAMPLES / samples:
        raise ConfigError("config.anneal.k_max and config.objective.samples: k_max x "
                          f"samples exceeds the work budget of {WORK_BUDGET_SAMPLES}")
    # m and snapshots are small here, so these products are finite or inf
    if (angles * dopplers * SURFACE_CELL_BYTES + m * angles * SURFACE_ANGLE_ELEMENT_BYTES
            + (m + angles) * min(dopplers, SWEEP_COLUMNS + 1) * SURFACE_BLOCK_BYTES
            + dopplers * snapshots * SURFACE_DOPPLER_SNAPSHOT_BYTES > MEMORY_BUDGET_BYTES):
        raise ConfigError(f"{run}: the surfaces {over}")
    instants = m * snapshots * delta_t
    fields, nu = max(nus.items(), key=lambda item: item[1])
    if not math.isfinite(2 * math.pi * nu * instants):
        # instants over a float are delta_t's alone
        fields = f" and {fields}" if math.isfinite(instants) else ""
        raise ConfigError(f"config.sequence.delta_t_s{fields}: the run's Doppler "
                          "phases overflow a float")


def _read(path: str, size: int) -> bytes:
    with open(path, "rb") as fh:
        return fh.read(size)


def _axis(spec: dict, span: str, step: str) -> tuple[float, float]:
    """Span and step of a sweep axis, which runs from -span to +span."""
    if not spec[span] >= 0:
        raise ConfigError(f"config.sweep.{span}: must be >= 0")
    return spec[span], _positive(spec[step], f"config.sweep.{step}")


def _grid(path: str, span: float, step: float) -> np.ndarray:
    return _field(path, np.arange, -span, span + step / 2, step)


def check_seed(value, path: str) -> int:
    """A seed is a non-negative integer; there is no wall-clock default."""
    seed = _number(path, int, value)
    if seed < 0:
        raise ConfigError(f"{path}: must be a non-negative integer "
                          "(no wall-clock default)")
    return seed


def _check_scheme(array: ArrayModel, scheme: str, path: str) -> None:
    """Refuse a scheme whose sequences could not anneal on the array: a
    hybrid one needs the array's partition, and every swap set (all slots
    for random, each subset's block for hybrid) at least 2 slots."""
    if scheme == "hybrid" and array.partition is None:
        raise ConfigError(f"{path}: hybrid requires a partitioned (octagonal) array")
    _field(path, swap_sets, array.num_elements,
           array.partition if scheme == "hybrid" else None)


@dataclass
class ExperimentConfig:
    """Fully resolved experiment settings and the run objects built from them.

    seed seeds the run's draws (starting sequences and anneals); a CLI
    --seed replaces it, while objective.seed keeps the file's seed, so the
    objective's QMC points do not move. anneal holds the anneal section's
    settings, or the AnnealConfig defaults (k_max 200, automatic t0/alpha)
    when the section is absent. reference is the one path every command
    reads: the reference section's angles in radians and Doppler 0.0;
    noise_sigma is crlb.noise_sigma, the noise standard deviation relative
    to the path's amplitude. reference_spec holds the
    effective-factor threshold, effective_threshold_db. pattern_file_sha256
    is the SHA-256 of the pattern file's bytes the array was parsed from,
    None without one.
    """

    raw: dict
    seed: int
    array_spec: dict
    sequence_spec: dict
    anneal_spec: dict | None
    reference_spec: dict
    array: ArrayModel
    doppler_bound: float
    objective: ObjectiveConfig
    anneal: AnnealConfig
    reference: StructuralParams
    sweep: tuple[np.ndarray, np.ndarray, str]
    noise_sigma: float
    pattern_file_sha256: str | None

    # ---- constructors -------------------------------------------------

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            doc = json.loads(path.read_bytes(), object_pairs_hook=unique_keys)
        except (OSError, ValueError, RecursionError) as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return cls.from_dict(doc)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        top = _section(doc, {
            "version": _REQUIRED,
            "seed": _REQUIRED,
            "array": _REQUIRED,
            "sequence": {},
            "anneal": None,
            "objective": {},
            "reference": {},
            "sweep": {},
            "crlb": {},
        }, "config")
        if _number("config.version", int, top["version"]) != CONFIG_VERSION:
            raise ConfigError(f"config.version: expected {CONFIG_VERSION}")
        seed = check_seed(top["seed"], "config.seed")

        sequence_spec = _section(top["sequence"], {
            "scheme": ("sequential", "random", "hybrid"),
            "delta_t_s": 1e-4,
            "snapshots": 1,
        }, "config.sequence")
        delta_t = _positive(sequence_spec["delta_t_s"], "config.sequence.delta_t_s")
        if sequence_spec["snapshots"] < 1:
            raise ConfigError("config.sequence.snapshots: must be >= 1")

        objective_spec = _section(top["objective"], {
            "power": 6,
            "samples": 4096,
            "doppler_fraction": 0.25,
        }, "config.objective")
        # the objective's Doppler bound, a fraction of 1/(2 delta_t)
        doppler_bound = _positive(objective_spec.pop("doppler_fraction"),
                                  "config.objective.doppler_fraction") / (2.0 * delta_t)
        objective = _field("config.objective", ObjectiveConfig, seed=seed,
                           **objective_spec)
        array_spec, m, counts = cls._array_spec(top["array"])

        noise_sigma = _positive(_section(top["crlb"], {"noise_sigma": 0.1},
                                         "config.crlb")["noise_sigma"],
                                "config.crlb.noise_sigma")
        if not noise_sigma * noise_sigma < math.inf:  # the bounds square it
            raise ConfigError("config.crlb.noise_sigma: its square overflows a float")

        # the one path every command reads, of Doppler 0.0: a surface sees
        # only Doppler differences, and no bound depends on it
        reference_spec = _section(top["reference"], {
            "azimuth_deg": 45.0,
            "elevation_deg": 90.0,
            "effective_threshold_db": -10.0,
        }, "config.reference")
        if reference_spec["effective_threshold_db"] > 0:
            raise ConfigError("config.reference.effective_threshold_db: must be <= 0")
        reference = _field(
            "config.reference.elevation_deg", StructuralParams,
            math.radians(reference_spec["azimuth_deg"]),
            math.radians(reference_spec["elevation_deg"]), 0.0)
        sweep_spec = _section(top["sweep"], {
            "doppler_span_hz": 400.0,
            "doppler_step_hz": 1.0,
            "angle_span_deg": 30.0,
            "angle_step_deg": 0.5,
            "angle_axis": ("eoa", "aoa"),
        }, "config.sweep")
        axis = sweep_spec["angle_axis"]
        d_span, d_step = _axis(sweep_spec, "doppler_span_hz", "doppler_step_hz")
        a_span, a_step = _axis(sweep_spec, "angle_span_deg", "angle_step_deg")

        anneal_spec = None
        anneal_cfg = AnnealConfig()
        if top["anneal"] is not None:
            anneal_spec = _section(top["anneal"], {
                "scheme": (_REQUIRED, "random", "hybrid"),
                "k_max": 200,
                "t0": float,
                "alpha": float,
            }, "config.anneal")
            anneal_cfg = _field("config.anneal", AnnealConfig, k_max=anneal_spec["k_max"],
                                t0=anneal_spec["t0"], alpha=anneal_spec["alpha"])
        pattern_file = array_spec.get("pattern_file")  # only an octagon has one
        pattern_size = 0 if pattern_file is None else _field(
            "config.array.pattern_file", os.path.getsize, pattern_file)
        _check_sizes(counts, m, sequence_spec["snapshots"], objective.samples,
                     anneal_cfg.k_max, 2 * (a_span / a_step) + 1,
                     2 * (d_span / d_step) + 1, delta_t,
                     {"config.objective.doppler_fraction": doppler_bound,
                      "config.sweep.doppler_span_hz": d_span}, pattern_size)
        # underflow, checked after the gate names a huge delta_t_s
        _positive(doppler_bound, "config.objective.doppler_fraction")

        # read once, no more than the gate counted: the array is parsed from
        # the bytes the manifest hashes
        patterns = None if pattern_file is None else _field(
            "config.array.pattern_file", _read, pattern_file, pattern_size)
        # a steering phase k <u, p> or k <u' - u, p> (unit u, u') is at most
        # 2 k sum_i |p_i| in magnitude; twice that, finite, leaves room for
        # rounding, so no command's phases overflow a float
        with np.errstate(over="ignore", invalid="ignore"):
            array = cls._build_array(array_spec, m, patterns)
            reach = 4 * array.wavenumber * np.abs(array.positions).sum(axis=1).max()
        if not np.isfinite(reach):
            fields = ", ".join(f"config.array.{key}" for key in
                               ("spacing_wavelengths", "radius_wavelengths")
                               if key in array_spec)
            raise ConfigError(f"{fields}: the steering phases overflow a float")
        if sequence_spec["scheme"] == "hybrid":
            _check_scheme(array, "hybrid", "config.sequence.scheme")
        if anneal_spec is not None:
            _check_scheme(array, anneal_spec["scheme"], "config.anneal.scheme")

        angles = _grid("config.sweep.angle_span_deg", a_span, a_step)
        _field("config.sweep.angle_span_deg", sweep_directions, reference,
               angles, axis)
        sweep = (_grid("config.sweep.doppler_span_hz", d_span, d_step),
                 angles, axis)

        return cls(
            raw=doc,
            seed=seed,
            array_spec=array_spec,
            sequence_spec=sequence_spec,
            anneal_spec=anneal_spec,
            reference_spec=reference_spec,
            array=array,
            doppler_bound=doppler_bound,
            objective=objective,
            anneal=anneal_cfg,
            reference=reference,
            sweep=sweep,
            noise_sigma=noise_sigma,
            pattern_file_sha256=None if patterns is None
            else hashlib.sha256(patterns).hexdigest(),
        )

    @staticmethod
    def _array_spec(section) -> tuple[dict, int, str]:
        """Array spec, its element count and the fields that set the count."""
        if not isinstance(section, dict) or "kind" not in section:
            raise ConfigError("config.array.kind: required field missing")
        if not isinstance(section["kind"], str) or section["kind"] not in ARRAY_KINDS:
            raise ConfigError("config.array.kind: must be 'ula' or 'octagonal'")
        fields, counts = ARRAY_KINDS[section["kind"]]
        spec = _section(section, {"kind": _REQUIRED, **fields}, "config.array")
        m = math.prod(_number(f"config.array.{key}", int, spec[key]) for key in counts)
        return spec, m, "/".join(counts)

    @staticmethod
    def _build_array(spec: dict, m: int, patterns: bytes | None) -> ArrayModel:
        """The array model of a spec _array_spec has checked, with the
        pattern file's bytes, if it names one."""
        spacing = spec["spacing_wavelengths"] * WAVELENGTH
        if spec["kind"] == "ula":
            return _field("config.array", make_ula, m, spacing, WAVELENGTH)
        radius = spec["radius_wavelengths"]
        array = _field(
            "config.array", make_octagonal,
            panels=spec["panels"], rows=spec["rows"], cols=spec["cols"],
            element_spacing=spacing,
            radius=None if radius is None else radius * WAVELENGTH,
            wavelength=WAVELENGTH, patch_exponent=spec["patch_exponent"],
        )
        if patterns is not None:
            array = _field("config.array.pattern_file", lambda: attach_patterns(
                array, parse_pattern_file(patterns)))
            # the objective samples every elevation; gain() refuses one off the grid
            if any(p.elevation_grid[0] > 0 or p.elevation_grid[-1] < math.pi
                   for p in array.patterns):
                raise ConfigError("config.array.pattern_file: elevations must be "
                                  "tabulated from 0 to 180 degrees")
        return array

    # ---- run objects ---------------------------------------------------

    def build_sequence(self, scheme: str,
                       rng: np.random.Generator) -> SwitchingSequence:
        """Starting sequence of a scheme. Sequential and hybrid sequences
        carry the array's partition; a random one has none."""
        spec = self.sequence_spec
        m = self.array.num_elements
        if scheme == "sequential":
            return sequential(m, spec["delta_t_s"], spec["snapshots"],
                              self.array.partition)
        return random_init(m, spec["delta_t_s"], spec["snapshots"], rng,
                           self.array.partition if scheme == "hybrid" else None)

    def evaluator(self) -> ObjectiveEvaluator:
        """The run's objective evaluator, timed by the sequence section."""
        spec = self.sequence_spec
        return ObjectiveEvaluator(self.array, self.doppler_bound, self.objective,
                                  spec["delta_t_s"], spec["snapshots"])

    def anneal_schemes(self, schemes, rng: np.random.Generator
                       ) -> tuple[dict, dict, dict]:
        """Each scheme's starting sequence annealed within its partition, in
        turn from rng, against one objective evaluator dropped on return:
        the final sequences, traces and reports by scheme. A report, which
        optimize writes as summary.json and compare as an anneal block, is
        the chain's objectives, schedule and length, and the evaluator's
        degenerate_samples (with a direction no element sees, or a power
        product that underflows) and live_fraction."""
        evaluator = self.evaluator()
        sequences, traces = {}, {}
        for scheme in schemes:
            sequences[scheme], traces[scheme] = anneal(
                self.build_sequence(scheme, rng), self.anneal, evaluator, rng)
        reports = {scheme: {"initial_objective": trace.initial_objective,
                            "final_objective": trace.final_objective,
                            "best_objective": trace.best_objective,
                            "best_k": trace.best_k,
                            "t0": trace.t0,
                            "alpha": trace.alpha,
                            "iterations": len(trace.records),
                            "degenerate_samples": evaluator.degenerate_count,
                            "live_fraction": evaluator.live_fraction}
                   for scheme, trace in traces.items()}
        return sequences, traces, reports

    def compare(self) -> tuple[dict, dict, dict, dict]:
        """The sequential/random/hybrid comparison drawn from seed: the
        comparison.json document, with each anneal's report in its anneal
        block, then the three surfaces, the three sequences, and the random
        and hybrid anneal traces."""
        for scheme in ("random", "hybrid"):
            _check_scheme(self.array, scheme, "compare")
        # the widths and the PSL anchor the main lobe at the zero-offset cell,
        # and a half-power width needs a cell on each side of it
        for grid, axis, unit in zip(self.sweep, ("doppler", "angle"), ("hz", "deg")):
            if grid.size == 1 or np.abs(grid).min() > 1e-6 * (grid[1] - grid[0]):
                raise ConfigError(f"config.sweep.{axis}_span_{unit}: compare needs a "
                                  f"nonzero multiple of config.sweep.{axis}_step_{unit}")
        # one RNG stream, drawn in order: random init and anneal, then hybrid
        rng = np.random.default_rng(self.seed)
        sequences = {"sequential": self.build_sequence("sequential", rng)}
        annealed, traces, reports = self.anneal_schemes(("random", "hybrid"), rng)
        sequences |= annealed
        document, surfaces = compare_schemes(
            self.array, sequences, self.reference, *self.sweep,
            threshold_db=self.reference_spec["effective_threshold_db"],
            noise_sigma=self.noise_sigma)
        document["anneal"] = reports
        return document, surfaces, sequences, traces

    # The accessors below return objects built once by from_dict; the
    # benchmark scripts under perfbench/ call them by these names.

    def build_array(self) -> ArrayModel:
        return self.array

    def build_region(self) -> float:
        return self.doppler_bound

    def build_objective(self) -> ObjectiveConfig:
        return self.objective

    def reference_params(self) -> StructuralParams:
        return self.reference

    def sweep_grids(self) -> tuple[np.ndarray, np.ndarray, str]:
        return self.sweep
