"""Experiment configuration: a single versioned JSON document, validated
fail-closed (unknown keys are rejected) so typos cannot silently change a
scientific run.

Loading builds every run object once (array, region, objective and anneal
settings, reference and crlb parameters, sweep grids) through the domain
constructors, so their checks are the config's checks: any error they
raise becomes a ConfigError that names the field. The config alone sets a
run's timing (element count, slot duration, snapshots).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ambiguity import ObjectiveConfig, Region, sweep_directions
from .anneal import AnnealConfig
from .arrays import (ArrayModel, Direction, attach_patterns, load_pattern_file,
                     make_octagonal, make_ula, SPEED_OF_LIGHT)
from .crlb import ParamVector
from .signal import StructuralParams
from .switching import (SwitchingSequence, hybrid_init, random_init, sequential,
                        swap_sets)

CONFIG_VERSION = 1
MEMORY_BUDGET_BYTES = 2 * 2 ** 30  # what a config may ask a run's largest arrays for


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the offending field."""


_REQUIRED = object()


def _section(section, defaults: dict[str, object], path: str) -> dict:
    """Check a section's key set and fill defaults (_REQUIRED marks a
    mandatory key). A value whose default is a float or an int is converted
    to that type by _number; one whose default is a bool must be a JSON
    boolean."""
    if not isinstance(section, dict):
        raise ConfigError(f"{path}: must be a JSON object")
    unknown = set(section) - set(defaults)
    if unknown:
        raise ConfigError(f"{path}: unknown field(s) {sorted(unknown)}")
    out = {}
    for key, default in defaults.items():
        value = section.get(key, default)
        if value is _REQUIRED:
            raise ConfigError(f"{path}.{key}: required field missing")
        if isinstance(default, bool):
            if not isinstance(value, bool):
                raise ConfigError(f"{path}.{key}: must be true or false")
        elif isinstance(default, (int, float)):
            value = _number(f"{path}.{key}", type(default), value)
        out[key] = value
    return out


def _field(path: str, build, *args, **kwargs):
    """Call a converter or domain constructor, reporting its ValueError or
    TypeError as a ConfigError that names the field."""
    try:
        return build(*args, **kwargs)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _number(path: str, kind: type, value):
    """Convert a number field with kind (int or float). A JSON boolean,
    NaN and +-Infinity are refused, and so is a fraction for an integer
    field; an integral float such as 200.0 reads as an integer."""
    if isinstance(value, bool):
        raise ConfigError(f"{path}: must be a number, not true/false")
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


def _check_budget(fields: str, rows: float, row_items: int) -> None:
    """Refuse, before anything is allocated, a run that would hold complex
    arrays of rows x row_items over the memory budget (compared by division,
    so a huge integer field cannot overflow a float)."""
    if rows > MEMORY_BUDGET_BYTES / (16 * row_items):
        raise ConfigError(f"{fields}: needs arrays over the "
                          f"{MEMORY_BUDGET_BYTES >> 30} GiB memory budget")


def _axis(spec: dict, span: str, step: str) -> tuple[float, float]:
    """Span and step of a sweep axis, which runs from -span to +span."""
    if not spec[span] >= 0:
        raise ConfigError(f"config.sweep.{span}: must be >= 0")
    return spec[span], _positive(spec[step], f"config.sweep.{step}")


def _grid(path: str, span: float, step: float) -> np.ndarray:
    return _field(path, np.arange, -span, span + step / 2, step)


def check_seed(value, path: str) -> int:
    """A seed is a non-negative integer; there is no wall-clock default."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ConfigError(f"{path}: must be a non-negative integer "
                          "(no wall-clock default)")
    return value


def require_swaps(array: ArrayModel, update: str, path: str) -> None:
    """Reject an array on which the update's swap sets (swap_sets) hold no
    two slots to exchange."""
    _field(path, swap_sets, update, array.num_elements, array.partition)


@dataclass
class ExperimentConfig:
    """Fully resolved experiment settings and the run objects built from them.

    anneal holds the anneal section's settings, or the AnnealConfig defaults
    (k_max 200, automatic t0/alpha) when the section is absent. crlb holds
    the crlb section's parameters, elevation in radians and noise sigma.
    """

    raw: dict
    seed: int
    array_spec: dict
    sequence_spec: dict
    anneal_spec: dict | None
    reference_spec: dict
    crlb_spec: dict
    effective_threshold_db: float
    output_dir: str | None
    array: ArrayModel
    region: Region
    objective: ObjectiveConfig
    anneal: AnnealConfig
    reference: StructuralParams
    sweep: tuple[np.ndarray, np.ndarray, str]
    crlb: tuple[ParamVector, float, float]

    # ---- constructors -------------------------------------------------

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            doc = json.loads(path.read_bytes())
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
        seed = check_seed(top["seed"], "config.seed")
        if top["output_dir"] is not None and not isinstance(top["output_dir"], str):
            raise ConfigError("config.output_dir: must be a string")

        sequence_spec = _section(top["sequence"], {
            "scheme": "sequential",
            "delta_t_s": 1e-4,
            "snapshots": 1,
        }, "config.sequence")
        if sequence_spec["scheme"] not in ("sequential", "random", "hybrid"):
            raise ConfigError("config.sequence.scheme: must be sequential|random|hybrid")
        delta_t = _positive(sequence_spec["delta_t_s"], "config.sequence.delta_t_s")
        if sequence_spec["snapshots"] < 1:
            raise ConfigError("config.sequence.snapshots: must be >= 1")

        region_spec = _section(top["region"], {
            "doppler_fraction": 0.25,
            "doppler_bound_hz": None,
        }, "config.region")
        bound = region_spec["doppler_bound_hz"]
        if bound is None:
            region = _field("config.region.doppler_fraction", Region.default_for,
                            delta_t, region_spec["doppler_fraction"])
        else:
            bound = _number("config.region.doppler_bound_hz", float, bound)
            region = _field("config.region.doppler_bound_hz", Region,
                            doppler_bound=bound)

        objective_spec = _section(top["objective"], {
            "power": 6,
            "samples": 4096,
            "sin_elevation": False,
        }, "config.objective")
        objective = _field("config.objective", ObjectiveConfig, seed=seed,
                           **objective_spec)
        array_spec, array = cls._build_array(top["array"], objective.samples,
                                             sequence_spec["snapshots"])
        if sequence_spec["scheme"] == "hybrid" and array.partition is None:
            raise ConfigError("config.sequence.scheme: hybrid requires a "
                              "partitioned (octagonal) array")

        anneal_spec = None
        anneal = AnnealConfig()
        if top["anneal"] is not None:
            anneal_spec = _section(top["anneal"], {
                "scheme": _REQUIRED,
                "k_max": 200,
                "t0": None,
                "alpha": None,
            }, "config.anneal")
            for key in ("t0", "alpha"):
                if anneal_spec[key] is not None:
                    anneal_spec[key] = _number(f"config.anneal.{key}", float,
                                               anneal_spec[key])
            anneal = _field("config.anneal", AnnealConfig,
                            update=anneal_spec["scheme"], k_max=anneal_spec["k_max"],
                            t0=anneal_spec["t0"], alpha=anneal_spec["alpha"])
            require_swaps(array, anneal.update, "config.anneal.scheme")

        reference_spec = _section(top["reference"], {
            "azimuth_deg": 45.0,
            "elevation_deg": 90.0,
            "doppler_hz": 0.0,
        }, "config.reference")
        reference = _field(
            "config.reference", StructuralParams,
            math.radians(reference_spec["azimuth_deg"]) % (2 * math.pi),
            math.radians(reference_spec["elevation_deg"]),
            reference_spec["doppler_hz"],
        )
        sweep_spec = _section(top["sweep"], {
            "doppler_span_hz": 400.0,
            "doppler_step_hz": 1.0,
            "angle_span_deg": 30.0,
            "angle_step_deg": 0.5,
            "angle_axis": "eoa",
        }, "config.sweep")
        axis = sweep_spec["angle_axis"]
        if axis not in ("eoa", "aoa"):
            raise ConfigError("config.sweep.angle_axis: must be eoa|aoa")
        d_span, d_step = _axis(sweep_spec, "doppler_span_hz", "doppler_step_hz")
        a_span, a_step = _axis(sweep_spec, "angle_span_deg", "angle_step_deg")

        crlb_spec = _section(top["crlb"], {
            "azimuth_deg": 90.0,
            "elevation_deg": 90.0,
            "doppler_hz": 0.0,
            "amplitude": 1.0,
            "phase": 0.0,
            "noise_sigma": 0.1,
        }, "config.crlb")
        params = _field("config.crlb", ParamVector,
                        math.radians(crlb_spec["azimuth_deg"]), crlb_spec["doppler_hz"],
                        crlb_spec["amplitude"], crlb_spec["phase"])
        elevation = math.radians(crlb_spec["elevation_deg"])
        _field("config.crlb.elevation_deg", Direction,
               params.azimuth % (2 * math.pi), elevation)
        crlb = (params, elevation,
                _positive(crlb_spec["noise_sigma"], "config.crlb.noise_sigma"))

        # the run's timing, snapshots x M slots of delta_t: its surface
        # arrays, a row per element and snapshot, stay in the memory budget,
        # and its Doppler phases 2*pi*nu*t, at the region bound, the swept
        # or the crlb Doppler, must not overflow a float
        rows = array.num_elements * sequence_spec["snapshots"]
        angle_count = 2 * a_span / a_step + 1
        fields = "config.sequence.snapshots and config.sweep"
        _check_budget(fields, angle_count, rows)
        _check_budget(fields, 2 * d_span / d_step + 1, max(rows, angle_count))
        nu = max(region.doppler_bound, abs(params.doppler_hz),
                 abs(reference.doppler_hz) + d_span)
        instants = rows * delta_t
        if not (math.isfinite(instants) and math.isfinite(2 * math.pi * nu * instants)):
            raise ConfigError("config.sequence.delta_t_s: the run's Doppler "
                              "phases overflow a float")
        angles = _grid("config.sweep.angle_span_deg", a_span, a_step)
        _field("config.sweep.angle_span_deg", sweep_directions, reference,
               angles, axis)
        sweep = (_grid("config.sweep.doppler_span_hz", d_span, d_step),
                 angles, axis)
        if top["effective_threshold_db"] > 0:
            raise ConfigError("config.effective_threshold_db: must be <= 0")

        return cls(
            raw=doc,
            seed=seed,
            array_spec=array_spec,
            sequence_spec=sequence_spec,
            anneal_spec=anneal_spec,
            reference_spec=reference_spec,
            crlb_spec=crlb_spec,
            effective_threshold_db=top["effective_threshold_db"],
            output_dir=top["output_dir"],
            array=array,
            region=region,
            objective=objective,
            anneal=anneal,
            reference=reference,
            sweep=sweep,
            crlb=crlb,
        )

    @staticmethod
    def _build_array(section, samples: int,
                     snapshots: int) -> tuple[dict, ArrayModel]:
        """Array spec and model; the element count the spec asks for is
        held to the memory budget of the evaluator tables before anything
        is built."""
        if not isinstance(section, dict) or "kind" not in section:
            raise ConfigError("config.array.kind: required field missing")
        if section["kind"] == "ula":
            spec = _section(section, {
                "kind": _REQUIRED,
                "elements": _REQUIRED,
                "spacing_wavelengths": 0.5,
                "carrier_hz": 28e9,
            }, "config.array")
            m = _number("config.array.elements", int, spec["elements"])
            counts = "elements"
        elif section["kind"] == "octagonal":
            spec = _section(section, {
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
            m = spec["panels"] * spec["rows"] * spec["cols"]
            counts = "panels/rows/cols"
        else:
            raise ConfigError("config.array.kind: must be 'ula' or 'octagonal'")
        # evaluator tables, complex numbers per sample: M steering products,
        # the ceil(M/L) coarse and L = ceil(sqrt(M)) fine Doppler phase
        # factors, and the snapshot factors
        size = max(m, 1)
        step = math.isqrt(size - 1) + 1
        _check_budget(f"config.objective.samples and config.array.{counts}",
                      samples, size + -(-size // step) + step + snapshots)
        wavelength = SPEED_OF_LIGHT / _positive(spec["carrier_hz"],
                                                "config.array.carrier_hz")
        spacing = spec["spacing_wavelengths"] * wavelength
        if spec["kind"] == "ula":
            return spec, _field("config.array", make_ula, m, spacing, wavelength)
        radius = spec["radius_m"]
        if radius is not None:
            radius = _number("config.array.radius_m", float, radius)
        array = _field(
            "config.array", make_octagonal,
            panels=spec["panels"], rows=spec["rows"], cols=spec["cols"],
            element_spacing=spacing, radius=radius,
            wavelength=wavelength, patch_exponent=spec["patch_exponent"],
        )
        if spec["pattern_file"] is not None:
            path = _field("config.array.pattern_file", Path, spec["pattern_file"])
            if not path.exists():
                raise ConfigError(f"config.array.pattern_file: file not found: {path}")
            array = _field("config.array.pattern_file",
                           lambda: attach_patterns(array, load_pattern_file(path)))
        return spec, array

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
        if scheme == "random":
            return random_init(m, spec["delta_t_s"], spec["snapshots"], rng)
        return hybrid_init(m, spec["delta_t_s"], spec["snapshots"],
                           self.array.partition, rng)

    def build_anneal(self) -> AnnealConfig:
        if self.anneal_spec is None:
            raise ConfigError("config.anneal: section required for this command")
        return self.anneal

    # The accessors below return objects built once by from_dict; the
    # benchmark scripts under perfbench/ call them by these names.

    def build_array(self) -> ArrayModel:
        return self.array

    def build_region(self) -> Region:
        return self.region

    def build_objective(self) -> ObjectiveConfig:
        return self.objective

    def reference_params(self) -> StructuralParams:
        return self.reference

    def sweep_grids(self) -> tuple[np.ndarray, np.ndarray, str]:
        return self.sweep
