"""Command-line experiment runner.

Subcommands: optimize, ambiguity, crlb, compare, effective-factor. Each
cmd_* returns the files it wrote; main times it and writes a manifest with
the config as given, its hash, library versions, the OpenBLAS thread count
asked for, wall time and those files, so an output directory is sufficient
to reproduce itself.

Exit codes: 0 success, 2 configuration or output error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import BLAS_THREADS, __version__
from .ambiguity import (DegenerateDirectionError, ambiguity_surface,
                        save_surface_csv)
from .analysis import GridTooNarrowError
from .anneal import AnnealError, save_trace_csv
from .arrays import effective_elements
from .config import (ConfigError, ExperimentConfig, check_seed, evaluator_counts,
                     unique_keys)
from .crlb import (PARAM_NAMES, EndfireSingularityError, SingularFIMError,
                   UnobservableDopplerError, crlb_aoa, crlb_doppler, fim_numeric)
from .switching import SwitchingSequence

EXIT_CONFIG = 2
EXIT_NUMERIC = 3

NUMERIC_ERRORS = (DegenerateDirectionError, EndfireSingularityError,
                  UnobservableDopplerError, SingularFIMError,
                  GridTooNarrowError, AnnealError, np.linalg.LinAlgError,
                  ArithmeticError)


def _write_manifest(out_dir: Path, command: str, config: ExperimentConfig,
                    seed: int, wall_time_s: float,
                    outputs: list[str]) -> None:
    canonical = json.dumps(config.raw, sort_keys=True).encode()
    manifest = {
        "command": command,
        "package_version": __version__,
        "python_version": sys.version.split()[0],
        "numpy_version": np.__version__,
        "openblas_num_threads": BLAS_THREADS,
        "seed": seed,
        "config": config.raw,
        "config_sha256": hashlib.sha256(canonical).hexdigest(),
        "wall_time_s": wall_time_s,
        "outputs": outputs,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def cmd_optimize(config: ExperimentConfig, out_dir: Path, seed: int) -> list[str]:
    if config.anneal_spec is None:
        raise ConfigError("config.anneal: section required for this command")
    evaluator = config.evaluator()
    final, trace = config.anneal_scheme(config.anneal_spec["scheme"], evaluator,
                                        np.random.default_rng(seed))

    final.save(out_dir / "sequence.json")
    trace.best_sequence.save(out_dir / "best_sequence.json")
    save_trace_csv(trace, out_dir / "trace.csv")
    summary = {
        "initial_objective": trace.initial_objective,
        "final_objective": trace.final_objective,
        "best_objective": trace.best_objective,
        "best_k": trace.best_k,
        "t0": trace.t0,
        "alpha": trace.alpha,
        "iterations": len(trace.records),
        **evaluator_counts(evaluator),
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(f"final objective {trace.final_objective:.6g} "
          f"(best {trace.best_objective:.6g} at k={trace.best_k})")
    return ["sequence.json", "best_sequence.json", "trace.csv", "summary.json"]


def cmd_ambiguity(config: ExperimentConfig, out_dir: Path, seed: int,
                  sequence_file: str | None = None) -> list[str]:
    array = config.array
    doppler, angles, axis = config.sweep
    if sequence_file is not None:
        path = Path(sequence_file)
        try:  # the hash is of the bytes parsed
            data = path.read_bytes()
            seq = SwitchingSequence.from_dict(
                json.loads(data, object_pairs_hook=unique_keys))
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
                                    np.random.default_rng(seed))
        seq_hash = None

    surface = ambiguity_surface(array, seq, config.reference, doppler, angles, axis)
    save_surface_csv(surface, out_dir / "surface.csv",
                     metadata={"seed": seed, "sequence_sha256": seq_hash})
    print(f"surface {surface.magnitude.shape[0]}x{surface.magnitude.shape[1]} "
          f"written to {out_dir / 'surface.csv'}")
    return ["surface.csv", "surface.csv.meta.json"]


def cmd_crlb(config: ExperimentConfig, out_dir: Path, seed: int) -> list[str]:
    if config.array_spec["kind"] != "ula":
        raise ConfigError("config.array.kind: crlb closed forms are derived for "
                          "the omni ULA; use an array of kind 'ula'")
    array = config.array
    if array.num_elements < 2:
        raise ConfigError("config.array.elements: crlb needs at least 2 elements; "
                          "the azimuth is unobservable with fewer")
    seq = config.build_sequence(config.sequence_spec["scheme"],
                                np.random.default_rng(seed))
    spec = config.crlb_spec
    params, sigma = config.crlb
    wavelength = array.wavelength
    spacing = config.array_spec["spacing_wavelengths"] * wavelength

    # a bound that overflows or underflows to zero at extreme geometry or
    # noise raises an ArithmeticError (exit 3) instead of warning
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        closed_phi = crlb_aoa(array.num_elements, spacing, wavelength,
                              params.rx_azimuth, params.rx_elevation,
                              params.amplitude, sigma, seq.snapshots)
        closed_nu = crlb_doppler(seq.eta(), params.amplitude, sigma)
        numeric = fim_numeric(array, seq, params, sigma)

        # the closed forms are reciprocal-diagonal bounds, so the oracle check
        # compares against 1/F_ii; the full-inverse variances are reported
        # too, with off_diag_ratio saying how far apart the two routes can be
        recip = numeric.reciprocal_diagonal
        err_phi = abs(recip[0] - closed_phi) / closed_phi
        err_nu = abs(recip[1] - closed_nu) / closed_nu
    report = {
        "params": {
            "azimuth_deg": spec["azimuth_deg"],
            "elevation_deg": spec["elevation_deg"],
            "doppler_hz": spec["doppler_hz"],
            "amplitude": spec["amplitude"],
            "phase": spec["phase"],
            "noise_sigma": sigma,
            "elements": array.num_elements,
            "delta_t_s": seq.delta_t,
        },
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
    (out_dir / "crlb_report.json").write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report["agreement"], indent=2))
    return ["crlb_report.json"]


def cmd_compare(config: ExperimentConfig, out_dir: Path, seed: int) -> list[str]:
    doc, surfaces, sequences, traces = config.compare(seed)
    outputs = []
    for name, surface in surfaces.items():
        fname = f"surface_{name}.csv"
        save_surface_csv(surface, out_dir / fname, metadata={"seed": seed})
        outputs.extend([fname, fname + ".meta.json"])
    for scheme, trace in traces.items():  # random, then hybrid
        sequences[scheme].save(out_dir / f"sequence_{scheme}.json")
        save_trace_csv(trace, out_dir / f"trace_{scheme}.csv")
    outputs += [f"sequence_{scheme}.json" for scheme in traces]
    outputs += [f"trace_{scheme}.csv" for scheme in traces]

    (out_dir / "comparison.json").write_text(json.dumps(doc, indent=2) + "\n")
    outputs.append("comparison.json")
    print(f"broadening ratio {doc['broadening_ratio']:.3f} "
          f"(1/effective factor {doc['inverse_effective_factor']:.3f})")
    return outputs


def cmd_effective_factor(config: ExperimentConfig, out_dir: Path,
                         seed: int) -> list[str]:
    array = config.array
    idx = effective_elements(array, config.reference, config.effective_threshold_db)
    report = {
        "azimuth_deg": config.reference_spec["azimuth_deg"],
        "elevation_deg": config.reference_spec["elevation_deg"],
        "threshold_db": config.effective_threshold_db,
        "effective_elements": int(idx.size),
        "total_elements": array.num_elements,
        "effective_factor": idx.size / array.num_elements,
        "indices": idx.tolist(),
    }
    (out_dir / "effective_factor.json").write_text(json.dumps(report, indent=2) + "\n")
    print(f"effective factor {report['effective_factor']:.4f} "
          f"({idx.size}/{array.num_elements})")
    return ["effective_factor.json"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--out", default=None,
                       help="output directory (default: config output_dir or cwd)")
        if name == "ambiguity":
            p.add_argument("--sequence", default=None,
                           help="sequence JSON file (default: built from config)")
    return parser


def _remove_empty(dirs: list[Path]) -> None:
    """Remove the directories, deepest first, up to the first that is not
    empty, so that a command that fails leaves no empty directory it made."""
    for d in dirs:
        try:
            d.rmdir()
        except OSError:
            return


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = ExperimentConfig.from_file(args.config)
        seed = config.seed if args.seed is None else check_seed(args.seed, "--seed")
        out_dir = Path(args.out or config.output_dir or ".")
        command = {"optimize": cmd_optimize, "ambiguity": cmd_ambiguity,
                   "crlb": cmd_crlb, "compare": cmd_compare,
                   "effective-factor": cmd_effective_factor}[args.command]
        extra = [args.sequence] if args.command == "ambiguity" else []
        made = []  # the directories mkdir makes, deepest first
        try:  # the output directory, a command's files or the manifest
            made = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
            out_dir.mkdir(parents=True, exist_ok=True)
            start = time.perf_counter()
            outputs = command(config, out_dir, seed, *extra)
            _write_manifest(out_dir, args.command, config, seed,
                            time.perf_counter() - start, outputs)
        except OSError as exc:
            source = "--out" if args.out else "config.output_dir"
            raise ConfigError(f"{source}: {exc}") from exc
        finally:  # a run has written its manifest, so no directory it made is empty
            _remove_empty(made)
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
