"""Experiment configuration: a single versioned JSON document, validated
fail-closed (unknown keys are rejected) so typos cannot silently change a
scientific run."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .ambiguity import ObjectiveConfig, Region
from .anneal import AnnealConfig
from .arrays import (ArrayModel, attach_patterns, load_pattern_file, make_octagonal,
                     make_ula, SPEED_OF_LIGHT)
from .switching import SwitchingSequence, hybrid_init, random_init, sequential

CONFIG_VERSION = 1


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the offending field."""


def _require_keys(section: dict, allowed: dict[str, object], path: str) -> dict:
    """Check key set and fill defaults. allowed maps key -> default
    (REQUIRED sentinel for mandatory keys)."""
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"{path}: unknown field(s) {sorted(unknown)}")
    out = {}
    for key, default in allowed.items():
        if key in section:
            out[key] = section[key]
        elif default is _REQUIRED:
            raise ConfigError(f"{path}.{key}: required field missing")
        else:
            out[key] = default
    return out


_REQUIRED = object()


def _field(path: str, build, *args, **kwargs):
    """Call a converter or domain constructor, reporting its ValueError or
    TypeError as a ConfigError that names the field."""
    try:
        return build(*args, **kwargs)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _positive(value, path: str) -> float:
    value = _field(path, float, value)
    if not value > 0:
        raise ConfigError(f"{path}: must be positive")
    return value


@dataclass
class ExperimentConfig:
    """Fully resolved experiment settings."""

    raw: dict
    seed: int
    array_spec: dict
    sequence_spec: dict
    anneal_spec: dict | None
    region_spec: dict
    reference_spec: dict
    sweep_spec: dict
    crlb_spec: dict
    effective_threshold_db: float
    output_dir: str | None
    objective: ObjectiveConfig
    anneal: AnnealConfig | None

    # ---- constructors -------------------------------------------------

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            doc = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return cls.from_dict(doc)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        top = _require_keys(doc, {
            "version": _REQUIRED,
            "seed": _REQUIRED,
            "array": _REQUIRED,
            "sequence": {},
            "anneal": None,
            "region": {},
            "objective": {},
            "reference": {},
            "sweep": {},
            "crlb": {},
            "effective_threshold_db": -10.0,
            "output_dir": None,
        }, "config")
        if top["version"] != CONFIG_VERSION:
            raise ConfigError(f"config.version: expected {CONFIG_VERSION}")
        if isinstance(top["seed"], bool) or not isinstance(top["seed"], int):
            raise ConfigError("config.seed: must be an integer (no wall-clock default)")

        array_spec = cls._validate_array(top["array"])
        sequence_spec = _require_keys(top["sequence"], {
            "scheme": "sequential",
            "delta_t_s": 1e-4,
            "snapshots": 1,
        }, "config.sequence")
        if sequence_spec["scheme"] not in ("sequential", "random", "hybrid"):
            raise ConfigError("config.sequence.scheme: must be sequential|random|hybrid")
        sequence_spec["delta_t_s"] = _positive(sequence_spec["delta_t_s"],
                                               "config.sequence.delta_t_s")
        if int(sequence_spec["snapshots"]) < 1:
            raise ConfigError("config.sequence.snapshots: must be >= 1")
        sequence_spec["snapshots"] = int(sequence_spec["snapshots"])

        anneal_spec = None
        if top["anneal"] is not None:
            anneal_spec = _require_keys(top["anneal"], {
                "scheme": _REQUIRED,
                "k_max": 200,
                "t0": None,
                "alpha": None,
            }, "config.anneal")
            if anneal_spec["scheme"] not in ("random", "hybrid"):
                raise ConfigError("config.anneal.scheme: must be random|hybrid")
            if anneal_spec["scheme"] == "hybrid" and array_spec["kind"] != "octagonal":
                raise ConfigError(
                    "config.anneal.scheme: hybrid requires a partitioned "
                    "(octagonal) array"
                )
            anneal_spec["k_max"] = _field("config.anneal.k_max", int,
                                          anneal_spec["k_max"])
            for key in ("t0", "alpha"):
                if anneal_spec[key] is not None:
                    anneal_spec[key] = _field(f"config.anneal.{key}", float,
                                              anneal_spec[key])

        region_spec = _require_keys(top["region"], {
            "doppler_fraction": 0.25,
            "doppler_bound_hz": None,
        }, "config.region")
        objective_spec = _require_keys(top["objective"], {
            "power": 6,
            "samples": 4096,
            "sin_elevation": False,
        }, "config.objective")
        objective = _field(
            "config.objective", ObjectiveConfig,
            power=_field("config.objective.power", int, objective_spec["power"]),
            samples=_field("config.objective.samples", int, objective_spec["samples"]),
            seed=top["seed"],
            sin_elevation=bool(objective_spec["sin_elevation"]),
        )
        anneal = None
        if anneal_spec is not None:
            anneal = _field(
                "config.anneal", AnnealConfig,
                objective=objective,
                update=anneal_spec["scheme"],
                k_max=anneal_spec["k_max"],
                t0=anneal_spec["t0"],
                alpha=anneal_spec["alpha"],
                seed=top["seed"],
            )
        reference_spec = _require_keys(top["reference"], {
            "azimuth_deg": 45.0,
            "elevation_deg": 90.0,
            "doppler_hz": 0.0,
        }, "config.reference")
        sweep_spec = _require_keys(top["sweep"], {
            "doppler_span_hz": 400.0,
            "doppler_step_hz": 1.0,
            "angle_span_deg": 30.0,
            "angle_step_deg": 0.5,
            "angle_axis": "eoa",
        }, "config.sweep")
        if sweep_spec["angle_axis"] not in ("eoa", "aoa"):
            raise ConfigError("config.sweep.angle_axis: must be eoa|aoa")
        for key in ("doppler_step_hz", "angle_step_deg"):
            _positive(sweep_spec[key], f"config.sweep.{key}")
        crlb_spec = _require_keys(top["crlb"], {
            "azimuth_deg": 90.0,
            "elevation_deg": 90.0,
            "doppler_hz": 0.0,
            "amplitude": 1.0,
            "phase": 0.0,
            "noise_sigma": 0.1,
        }, "config.crlb")

        threshold = float(top["effective_threshold_db"])
        if threshold > 0:
            raise ConfigError("config.effective_threshold_db: must be <= 0")

        return cls(
            raw=doc,
            seed=top["seed"],
            array_spec=array_spec,
            sequence_spec=sequence_spec,
            anneal_spec=anneal_spec,
            region_spec=region_spec,
            reference_spec=reference_spec,
            sweep_spec=sweep_spec,
            crlb_spec=crlb_spec,
            effective_threshold_db=threshold,
            output_dir=top["output_dir"],
            objective=objective,
            anneal=anneal,
        )

    @staticmethod
    def _validate_array(section: dict) -> dict:
        if not isinstance(section, dict) or "kind" not in section:
            raise ConfigError("config.array.kind: required field missing")
        kind = section["kind"]
        if kind == "ula":
            spec = _require_keys(section, {
                "kind": _REQUIRED,
                "elements": _REQUIRED,
                "spacing_wavelengths": 0.5,
                "carrier_hz": 28e9,
            }, "config.array")
            if int(spec["elements"]) < 1:
                raise ConfigError("config.array.elements: must be >= 1")
            spec["elements"] = int(spec["elements"])
        elif kind == "octagonal":
            spec = _require_keys(section, {
                "kind": _REQUIRED,
                "panels": 8,
                "rows": 4,
                "cols": 4,
                "spacing_wavelengths": 0.5,
                "radius_m": None,
                "carrier_hz": 28e9,
                "patch_exponent": 2.0,
                "pattern_file": None,
            }, "config.array")
            if spec["pattern_file"] is not None and not Path(spec["pattern_file"]).exists():
                raise ConfigError(
                    f"config.array.pattern_file: file not found: {spec['pattern_file']}"
                )
        else:
            raise ConfigError("config.array.kind: must be 'ula' or 'octagonal'")
        _positive(spec["spacing_wavelengths"], "config.array.spacing_wavelengths")
        _positive(spec["carrier_hz"], "config.array.carrier_hz")
        return spec

    # ---- builders ------------------------------------------------------

    def build_array(self) -> ArrayModel:
        spec = self.array_spec
        wavelength = SPEED_OF_LIGHT / spec["carrier_hz"]
        if spec["kind"] == "ula":
            return make_ula(spec["elements"],
                            spec["spacing_wavelengths"] * wavelength, wavelength)
        array = make_octagonal(
            panels=spec["panels"], rows=spec["rows"], cols=spec["cols"],
            element_spacing=spec["spacing_wavelengths"] * wavelength,
            radius=spec["radius_m"], wavelength=wavelength,
            patch_exponent=spec["patch_exponent"],
        )
        if spec["pattern_file"] is not None:
            array = attach_patterns(array, load_pattern_file(spec["pattern_file"]))
        return array

    def build_sequence(self, array: ArrayModel,
                       rng: np.random.Generator) -> SwitchingSequence:
        spec = self.sequence_spec
        m = array.num_elements
        if spec["scheme"] == "sequential":
            return sequential(m, spec["delta_t_s"], spec["snapshots"], array.partition)
        if spec["scheme"] == "random":
            return random_init(m, spec["delta_t_s"], spec["snapshots"], rng)
        if array.partition is None:
            raise ConfigError("config.sequence.scheme: hybrid requires a "
                              "partitioned (octagonal) array")
        return hybrid_init(m, spec["delta_t_s"], spec["snapshots"],
                           array.partition, rng)

    def build_region(self) -> Region:
        if self.region_spec["doppler_bound_hz"] is not None:
            return Region(doppler_bound=float(self.region_spec["doppler_bound_hz"]))
        return Region.default_for(self.sequence_spec["delta_t_s"],
                                  float(self.region_spec["doppler_fraction"]))

    def build_objective(self, workers: int = 1) -> ObjectiveConfig:
        return replace(self.objective, workers=workers)

    def build_anneal(self, workers: int = 1) -> AnnealConfig:
        if self.anneal is None:
            raise ConfigError("config.anneal: section required for this command")
        return replace(self.anneal, objective=self.build_objective(workers))

    def reference_params(self):
        from .signal import StructuralParams

        return StructuralParams.simo(
            math.radians(self.reference_spec["azimuth_deg"]) % (2 * math.pi),
            math.radians(self.reference_spec["elevation_deg"]),
            float(self.reference_spec["doppler_hz"]),
        )

    def sweep_grids(self) -> tuple[np.ndarray, np.ndarray, str]:
        s = self.sweep_spec
        dop = np.arange(-s["doppler_span_hz"], s["doppler_span_hz"] + s["doppler_step_hz"] / 2,
                        s["doppler_step_hz"])
        ang = np.arange(-s["angle_span_deg"], s["angle_span_deg"] + s["angle_step_deg"] / 2,
                        s["angle_step_deg"])
        return dop, ang, s["angle_axis"]
