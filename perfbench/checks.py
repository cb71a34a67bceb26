"""Output checks for the switchseq benchmark.

Each check reads the artifacts one workload invocation wrote and returns a
list of problems (empty when the output is correct). References come from
the package's own kept slow paths: a freshly built ObjectiveEvaluator,
ambiguity_surface and half_power_width. Only public names are used, so a
refactor of the package's internals does not break the checks.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

from switchseq.ambiguity import (AmbiguitySurface, ObjectiveEvaluator,
                                 ambiguity_surface)
from switchseq.analysis import half_power_width
from switchseq.config import ExperimentConfig
from switchseq.switching import SwitchingSequence

OBJECTIVE_RTOL = 1e-9
WIDTH_RTOL = 1e-12
SCHEMES = ("sequential", "random", "hybrid")

ANNEAL_FILES = ("sequence.json", "best_sequence.json", "trace.csv",
                "summary.json", "manifest.json")
SURFACE_FILES = ("surface.csv", "surface.csv.meta.json", "manifest.json")
COMPARE_FILES = tuple(
    [f"surface_{s}.csv" for s in SCHEMES]
    + [f"surface_{s}.csv.meta.json" for s in SCHEMES]
    + ["sequence_random.json", "sequence_hybrid.json", "trace_random.csv",
       "trace_hybrid.csv", "comparison.json", "manifest.json"])

# what a malformed artifact raises while it is parsed
PARSE_ERRORS = (KeyError, IndexError, TypeError, ValueError, OSError)


def artifact_digest(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every file under out_dir, by relative path.

    The manifest's wall_time_s is the one field allowed to differ between
    two runs with the same seed, so it is dropped before hashing.
    """
    digest = {}
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            doc = json.loads(data)
            doc.pop("wall_time_s", None)
            data = json.dumps(doc, sort_keys=True).encode()
        digest[str(path.relative_to(out_dir))] = hashlib.sha256(data).hexdigest()
    return digest


def read_surface_csv(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columns (delta_doppler_hz, angle_deg, magnitude_db), parsed exactly."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["delta_doppler_hz", "angle_deg", "magnitude_db"]:
            raise ValueError(f"{path.name}: unexpected header {header}")
        rows = [(float(d), float(a), float(m)) for d, a, m in reader]
    cols = np.array(rows, dtype=float).reshape(-1, 3)
    return cols[:, 0], cols[:, 1], cols[:, 2]


def _missing(out_dir: Path, names) -> list[str]:
    return [f"missing {n}" for n in names
            if not (out_dir / n).is_file()]


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


class Checker:
    """Reference data for one benchmark run, built once and reused by every
    invocation of the run."""

    def __init__(self, config_path: Path):
        self.config = ExperimentConfig.from_file(config_path)
        self.array = self.config.build_array()
        self.doppler, self.angles, self.axis = self.config.sweep_grids()
        self.mu = self.config.reference_params()
        self._evaluator = None
        self._reference_db: dict[str, np.ndarray] = {}

    @property
    def evaluator(self) -> ObjectiveEvaluator:
        if self._evaluator is None:
            spec = self.config.sequence_spec
            self._evaluator = ObjectiveEvaluator(
                self.array, self.config.build_region(),
                self.config.build_objective(), spec["delta_t_s"],
                spec["snapshots"])
        return self._evaluator

    # ---- shared pieces ------------------------------------------------

    def permutation_problems(self, doc: dict, name: str,
                             partitioned: bool) -> list[str]:
        """The sequence file holds a permutation of the array's elements and,
        when partitioned, keeps every panel inside its own slot range."""
        order = doc["order"]
        m = self.array.num_elements
        if sorted(order) != list(range(m)):
            return [f"{name}: order is not a permutation of 0..{m - 1}"]
        if not partitioned:
            return []
        expected = [list(s) for s in self.array.partition]
        if doc.get("partition") != expected:
            return [f"{name}: partition differs from the array's panels"]
        start = 0
        for subset in expected:
            if sorted(order[start:start + len(subset)]) != subset:
                return [f"{name}: panel {subset[0]}.. leaves its slot range"]
            start += len(subset)
        return []

    def surface_problems(self, path: Path, reference_db: np.ndarray | None
                         ) -> tuple[list[str], np.ndarray | None]:
        """Row count and grid columns of one surface CSV; the parsed dB
        values must equal reference_db bit for bit when one is given."""
        dop, ang, db = read_surface_csv(path)
        n_a, n_d = self.angles.size, self.doppler.size
        if db.size != n_a * n_d:
            return [f"{path.name}: {db.size} rows, expected {n_a * n_d}"], None
        if not (np.array_equal(dop, np.tile(self.doppler, n_a))
                and np.array_equal(ang, np.repeat(self.angles, n_d))):
            return [f"{path.name}: grid columns differ from the config"], None
        db = db.reshape(n_a, n_d)
        if reference_db is not None and not np.array_equal(db, reference_db):
            bad = int(np.count_nonzero(db != reference_db))
            return [f"{path.name}: {bad} cells differ from ambiguity_surface"], db
        return [], db

    def reference_db(self, sequence_path: Path) -> np.ndarray:
        key = str(sequence_path)
        if key not in self._reference_db:
            seq = SwitchingSequence.load(sequence_path)
            surface = ambiguity_surface(self.array, seq, self.mu, self.doppler,
                                        self.angles, self.axis)
            self._reference_db[key] = surface.magnitude_db
        return self._reference_db[key]

    # ---- per-workload checks -----------------------------------------

    def check_anneal(self, out_dir: Path) -> list[str]:
        """best_sequence.json is a panel-respecting permutation whose re-scored
        objective matches summary.json; trace.csv follows the schedule."""
        problems = _missing(out_dir, ANNEAL_FILES)
        if problems:
            return problems
        try:
            best_doc = json.loads((out_dir / "best_sequence.json").read_text())
            problems += self.permutation_problems(best_doc, "best_sequence.json",
                                                  partitioned=True)
            summary = json.loads((out_dir / "summary.json").read_text())
            if not problems:
                best = SwitchingSequence.from_dict(best_doc)
                f_best = self.evaluator.evaluate(best)
                err = _rel_err(f_best, summary["best_objective"])
                if not err <= OBJECTIVE_RTOL:
                    problems.append(f"best_objective re-scores with relative "
                                    f"error {err:.3g}")
            t0, alpha = summary["t0"], summary["alpha"]
            with open(out_dir / "trace.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            k_max = self.config.anneal_spec["k_max"]
            if len(rows) != k_max:
                problems.append(f"trace.csv: {len(rows)} rows, expected {k_max}")
            for k, row in enumerate(rows):
                if int(row["k"]) != k or float(row["temperature"]) != t0 * alpha ** k:
                    problems.append(f"trace.csv: row {k} breaks t0*alpha**k")
                    break
        except PARSE_ERRORS as exc:
            problems.append(f"unreadable artifact ({exc!r})")
        return problems

    def check_surface(self, out_dir: Path, sequence_path: Path) -> list[str]:
        """surface.csv parses back bit-exact to an in-process surface."""
        problems = _missing(out_dir, SURFACE_FILES)
        if problems:
            return problems
        try:
            found, _ = self.surface_problems(out_dir / "surface.csv",
                                             self.reference_db(sequence_path))
            problems += found
        except PARSE_ERRORS as exc:
            problems.append(f"unreadable artifact ({exc!r})")
        return problems

    def check_compare(self, out_dir: Path) -> list[str]:
        """comparison.json widths and broadening ratio agree with
        half_power_width on the written surface CSVs."""
        problems = _missing(out_dir, COMPARE_FILES)
        if problems:
            return problems
        try:
            doc = json.loads((out_dir / "comparison.json").read_text())
            for name in ("random", "hybrid"):
                seq_doc = json.loads((out_dir / f"sequence_{name}.json").read_text())
                problems += self.permutation_problems(
                    seq_doc, f"sequence_{name}.json", partitioned=name == "hybrid")
            doppler_width = {}
            for name in SCHEMES:
                fname = f"surface_{name}.csv"
                found, db = self.surface_problems(out_dir / fname, None)
                problems += found
                if db is None:
                    continue
                meta = json.loads((out_dir / (fname + ".meta.json")).read_text())
                axis = meta["angle_axis"]
                surface = AmbiguitySurface(self.doppler, self.angles, axis,
                                           10.0 ** (db / 20.0), self.mu)
                reported = doc["schemes"][name]
                d_w = half_power_width(surface, "doppler")
                a_w = half_power_width(surface, axis)
                doppler_width[name] = d_w.width
                pairs = ((d_w.width, reported["doppler_width_hz"]),
                         (a_w.width, reported["angle_width_deg"]),
                         (d_w.lower, reported["doppler_half_power_hz"][0]),
                         (d_w.upper, reported["doppler_half_power_hz"][1]),
                         (a_w.lower, reported["angle_half_power_deg"][0]),
                         (a_w.upper, reported["angle_half_power_deg"][1]))
                if any(not _rel_err(a, b) <= WIDTH_RTOL for a, b in pairs):
                    problems.append(f"{fname}: widths disagree with comparison.json")
            if len(doppler_width) == len(SCHEMES):
                ratio = doppler_width["hybrid"] / doppler_width["random"]
                if not _rel_err(ratio, doc["broadening_ratio"]) <= WIDTH_RTOL:
                    problems.append("broadening_ratio disagrees with the CSVs")
        except PARSE_ERRORS as exc:
            problems.append(f"unreadable artifact ({exc!r})")
        return problems
