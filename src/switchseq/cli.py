"""Command-line experiment runner.

Subcommands: optimize, ambiguity, crlb, compare, effective-factor. Each
cmd_* takes the config, with --seed applied, computes, prints one summary
line and returns its artifacts by file name, each a JSON document or a
writer called with the file's path. Only then does main make the --out
directory and write them, in that order, and last a manifest with the
run's seed, the config as given, its hash and the pattern file's, library
versions, the OpenBLAS thread count asked for, the CPU paths that fix the
last bits, wall time and those files, so an output directory is sufficient
to reproduce itself. A run that fails before that point leaves no
directory.

Exit codes: 0 success, 2 config, argument or output error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import functools
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import BLAS_THREADS, __version__
from .ambiguity import ambiguity_surface, save_surface_csv, surface_sidecar
from .anneal import save_trace_csv
from .arrays import effective_elements
from .config import ConfigError, ExperimentConfig, check_seed
from .crlb import PARAM_NAMES, crlb_aoa, crlb_doppler, fim_numeric
from .switching import SwitchingSequence

EXIT_CONFIG = 2
EXIT_NUMERIC = 3

# every numeric failure raised in the package is an ArithmeticError
NUMERIC_ERRORS = (ArithmeticError, np.linalg.LinAlgError)


def _cpu_paths() -> dict:
    """The core of the OpenBLAS bundled with numpy (None without one) and
    the CPU dispatch targets numpy enables: another of either moves the
    last bits of objectives and surfaces."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    core = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        if hasattr(lib, "scipy_openblas_get_corename64_"):
            lib.scipy_openblas_get_corename64_.restype = ctypes.c_char_p
            core = lib.scipy_openblas_get_corename64_().decode()
    return {"openblas_core": core,
            "numpy_cpu_dispatch": [target for target in __cpu_dispatch__
                                   if __cpu_features__.get(target)]}


def _manifest(command: str, config: ExperimentConfig, wall_time_s: float,
              outputs: list[str]) -> dict:
    canonical = json.dumps(config.raw, sort_keys=True).encode()
    return {
        "command": command,
        "package_version": __version__,
        "python_version": sys.version.split()[0],
        "numpy_version": np.__version__,
        "openblas_num_threads": BLAS_THREADS,
        **_cpu_paths(),
        "seed": config.seed,
        "config": config.raw,
        "config_sha256": hashlib.sha256(canonical).hexdigest(),
        "pattern_file_sha256": config.pattern_file_sha256,
        "wall_time_s": wall_time_s,
        "outputs": outputs,
    }


def _write(path: Path, artifact) -> None:
    """Write a JSON document, or call a writer with the path."""
    if callable(artifact):
        artifact(path)
    else:
        path.write_text(json.dumps(artifact, indent=2) + "\n")


def cmd_optimize(config: ExperimentConfig) -> dict:
    if config.anneal_spec is None:
        raise ConfigError("config.anneal: section required for this command")
    scheme = config.anneal_spec["scheme"]
    sequences, traces, reports = config.anneal_schemes(
        [scheme], np.random.default_rng(config.seed))
    final, trace = sequences[scheme], traces[scheme]
    print(f"final objective {trace.final_objective:.6g} "
          f"(best {trace.best_objective:.6g} at k={trace.best_k})")
    return {"sequence.json": final.save,
            "best_sequence.json": trace.best_sequence.save,
            "trace.csv": functools.partial(save_trace_csv, trace),
            "summary.json": reports[scheme]}


def cmd_ambiguity(config: ExperimentConfig, sequence_file: str | None = None) -> dict:
    array = config.array
    doppler, angles, axis = config.sweep
    if sequence_file is not None:
        path = Path(sequence_file)
        try:  # the hash is of the bytes parsed
            data = path.read_bytes()
            seq = SwitchingSequence.from_json(data)
        except (OSError, LookupError, TypeError, ValueError, OverflowError,
                RecursionError) as exc:
            raise ConfigError(f"--sequence: {path}: {exc!r}") from exc
        seq_hash = hashlib.sha256(data).hexdigest()
        # the file gives the order and partition; the config sets the timing
        spec = config.sequence_spec
        timing = (seq.num_elements, seq.delta_t, seq.snapshots)
        expected = (array.num_elements, spec["delta_t_s"], spec["snapshots"])
        if timing != expected:
            raise ConfigError(
                f"--sequence: {path}: M, delta_t_s and snapshots {timing} "
                f"differ from the config's {expected}")
    else:
        seq = config.build_sequence(config.sequence_spec["scheme"],
                                    np.random.default_rng(config.seed))
        seq_hash = None

    surface = ambiguity_surface(array, seq, config.reference, doppler, angles, axis)
    print(f"surface {surface.magnitude.shape[0]}x{surface.magnitude.shape[1]} "
          "written to surface.csv")
    return {"surface.csv": functools.partial(save_surface_csv, surface),
            "surface.csv.meta.json": surface_sidecar(
                surface, seed=config.seed, sequence_sha256=seq_hash)}


def cmd_crlb(config: ExperimentConfig) -> dict:
    if config.array_spec["kind"] != "ula":
        raise ConfigError("config.array.kind: crlb closed forms are derived for "
                          "the omni ULA; use an array of kind 'ula'")
    array = config.array
    if array.num_elements < 2:
        raise ConfigError("config.array.elements: crlb needs at least 2 elements; "
                          "the azimuth is unobservable with fewer")
    seq = config.build_sequence(config.sequence_spec["scheme"],
                                np.random.default_rng(config.seed))
    params, sigma, spec = config.reference, config.noise_sigma, config.reference_spec
    wavelength = array.wavelength
    spacing = config.array_spec["spacing_wavelengths"] * wavelength

    # a bound that overflows or underflows to zero at extreme geometry or
    # noise raises an ArithmeticError (exit 3) instead of warning
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        closed_phi = crlb_aoa(array.num_elements, spacing, wavelength,
                              params.rx_azimuth, params.rx_elevation, sigma,
                              seq.snapshots)
        closed_nu = crlb_doppler(seq.eta(), sigma)
        numeric = fim_numeric(array, seq, params, sigma)

        # the closed forms are reciprocal-diagonal bounds, so the oracle check
        # compares against 1/F_ii; the full-inverse variances are reported
        # too, with off_diag_ratio saying how far apart the two routes can be
        recip = numeric.reciprocal_diagonal
        err_phi = abs(recip[0] - closed_phi) / closed_phi
        err_nu = abs(recip[1] - closed_nu) / closed_nu
    report = {
        "params": {"azimuth_deg": spec["azimuth_deg"],
                   "elevation_deg": spec["elevation_deg"],
                   "noise_sigma": sigma, "elements": array.num_elements,
                   "delta_t_s": seq.delta_t},
        "closed_form": {"var_phi": closed_phi, "var_nu": closed_nu},
        "numeric": {f"var_{n}": v for n, v in numeric.variances.items()},
        "numeric_diagonal": {f"var_{n}": r for n, r in zip(PARAM_NAMES, recip)},
        "off_diag_ratio": numeric.off_diag_ratio,
        "agreement": {
            "var_phi_rel_err": err_phi,
            "var_nu_rel_err": err_nu,
            "within_1pct": bool(err_phi < 0.01 and err_nu < 0.01),
        },
    }
    print(json.dumps(report["agreement"], indent=2))
    return {"crlb_report.json": report}


def cmd_compare(config: ExperimentConfig) -> dict:
    doc, surfaces, sequences, traces = config.compare()
    print(f"broadening ratio {doc['broadening_ratio']:.3f} "
          f"(1/effective factor {doc['inverse_effective_factor']:.3f})")
    artifacts = {}
    for name, surface in surfaces.items():
        artifacts[f"surface_{name}.csv"] = functools.partial(save_surface_csv, surface)
        artifacts[f"surface_{name}.csv.meta.json"] = surface_sidecar(
            surface, seed=config.seed)
    # the traces' order, random then hybrid, is the files' order
    artifacts |= {f"sequence_{s}.json": sequences[s].save for s in traces}
    artifacts |= {f"trace_{s}.csv": functools.partial(save_trace_csv, trace)
                  for s, trace in traces.items()}
    return artifacts | {"comparison.json": doc}


def cmd_effective_factor(config: ExperimentConfig) -> dict:
    array, spec = config.array, config.reference_spec
    idx = effective_elements(array, config.reference, spec["effective_threshold_db"])
    report = {
        "azimuth_deg": spec["azimuth_deg"],
        "elevation_deg": spec["elevation_deg"],
        "threshold_db": spec["effective_threshold_db"],
        "effective_elements": int(idx.size),
        "total_elements": array.num_elements,
        "effective_factor": idx.size / array.num_elements,
        "indices": idx.tolist(),
    }
    print(f"effective factor {report['effective_factor']:.4f} "
          f"({idx.size}/{array.num_elements})")
    return {"effective_factor.json": report}


class _Parser(argparse.ArgumentParser):
    """Raises a ConfigError for a bad argument, as its subparsers do: exit 2."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="switchseq",
        description="Design and evaluate antenna switching sequences for "
                    "switched-array channel sounders.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("optimize", "anneal a switching sequence against the ambiguity objective"),
        ("ambiguity", "compute an ambiguity surface for a sequence"),
        ("crlb", "closed-form vs numeric estimation bounds"),
        ("compare", "full sequential/random/hybrid comparison pipeline"),
        ("effective-factor", "count elements receiving significant power"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="experiment JSON config")
        p.add_argument("--seed", default=None,
                       help="the run's seed, in place of the config's seed")
        p.add_argument("--out", default=".", help="output directory (default: cwd)")
        if name == "ambiguity":
            p.add_argument("--sequence", default=None,
                           help="sequence JSON file (default: built from config)")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = ExperimentConfig.from_file(args.config)
        if args.seed is not None:
            try:  # JSON, so it reads as the config's seed does
                seed = json.loads(args.seed)
            except ValueError:
                seed = args.seed  # a string, which check_seed refuses
            config = dataclasses.replace(config, seed=check_seed(seed, "--seed"))
        command = {"optimize": cmd_optimize, "ambiguity": cmd_ambiguity,
                   "crlb": cmd_crlb, "compare": cmd_compare,
                   "effective-factor": cmd_effective_factor}[args.command]
        extra = [args.sequence] if args.command == "ambiguity" else []
        start = time.perf_counter()
        artifacts = command(config, *extra)
        try:  # the output directory, a command's files or the manifest
            out_dir = Path(args.out)
            out_dir.mkdir(parents=True, exist_ok=True)
            for name, artifact in artifacts.items():
                _write(out_dir / name, artifact)
            _write(out_dir / "manifest.json",
                   _manifest(args.command, config, time.perf_counter() - start,
                             list(artifacts)))
        except OSError as exc:
            raise ConfigError(f"--out: {exc}") from exc
        return 0
    except ConfigError as exc:
        print(json.dumps({"error": {"type": "config", "message": str(exc)}}),
              file=sys.stderr)
        return EXIT_CONFIG
    except NUMERIC_ERRORS as exc:
        print(json.dumps({"error": {"type": type(exc).__name__,
                                    "message": str(exc)}}),
              file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
