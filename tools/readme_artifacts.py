"""Run the README quick-start commands and print a digest of their outputs.

    PYTHONPATH=<tree>/src python tools/readme_artifacts.py OUT

Runs the quick-start `optimize`, `ambiguity --sequence` on its output,
`ambiguity` on the sequence the config builds (`ambiguity_built`), `compare`
and `effective-factor`, `optimize` again with the random scheme
(`optimize_random`) and with `--seed 7` (`optimize_seed7`), `compare` again
sweeping the azimuth (`compare_aoa`, `sweep.angle_axis` aoa) and on a ring
whose panels leave gaps (`compare_gapped`, `array.radius_wavelengths` 3.0,
past the 2.414 at which they touch), the quick-start `compare` again on two
arrays whose V-pol patterns load from files it writes (cos^2 patches on a
10-degree grid, then the same with a per-element amplitude and phase
ripple, so that R* is null), and the ULA `crlb` as written, then with the
reference path, which crlb bounds, at elevation_deg 60 and at azimuth_deg
45 and -270, each into a folder of OUT. Runs from OUT, where a relative
`array.pattern_file` is read, so that no path in a config depends on it.
Then prints `sha256  path` for every file there, with `wall_time_s` dropped
from each manifest.json, so the runs of two trees compare with `diff`.
"""

import hashlib
import json
import math
import os
import sys
from contextlib import redirect_stdout
from pathlib import Path

from switchseq.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
CRLB_RUNS = {"crlb": {}, "crlb_el60": {"elevation_deg": 60.0},
             "crlb_az45": {"azimuth_deg": 45.0}, "crlb_az-270": {"azimuth_deg": -270.0}}
# each pattern-file compare run: its file, and whether the gains ripple
PATTERNS = {"compare_patterns": ("patterns.csv", False),
            "compare_ripple": ("patterns_ripple.csv", True)}


def write_patterns(path: Path, array: dict, ripple: bool) -> None:
    """V-pol gain max(0, cos psi)^2 of each octagon element, psi the angle
    to its panel's outward normal, on a 10-degree azimuth x elevation grid.
    With ripple, element e's gain is scaled by 1 + 0.2 sin(1.7 e + 0.3) and
    turned by 0.5 cos(2.3 e) radians."""
    size = array["rows"] * array["cols"]
    lines = ["element,pol,azimuth_deg,elevation_deg,re,im"]
    for e in range(array["panels"] * size):
        normal = 360.0 * (e // size) / array["panels"]
        scale = 1.0 + 0.2 * math.sin(1.7 * e + 0.3)
        turn = 0.5 * math.cos(2.3 * e)
        for az in range(0, 360, 10):
            for el in range(0, 181, 10):
                cos_psi = (math.sin(math.radians(el))
                           * math.cos(math.radians(az - normal)))
                gain = max(cos_psi, 0.0) ** 2
                if ripple:
                    gain *= scale
                    lines.append(f"{e},V,{az},{el},{gain * math.cos(turn):.6f},"
                                 f"{gain * math.sin(turn):.6f}")
                else:
                    lines.append(f"{e},V,{az},{el},{gain:.6f},0")
    path.write_text("\n".join(lines) + "\n")


def run(out: Path) -> None:
    # the first two json blocks under the README's quick-start heading
    text = README.read_text().split("\n## CLI quick start\n", 1)[1]
    quick, ula = (json.loads(b.split("```", 1)[0]) for b in text.split("```json\n")[1:3])
    runs = [("optimize", "optimize", quick, []),
            ("ambiguity", "ambiguity", quick, ["--sequence", "optimize/sequence.json"]),
            ("ambiguity_built", "ambiguity", quick, []),
            ("compare", "compare", quick, []),
            ("effective-factor", "effective-factor", quick, []),
            ("optimize_random", "optimize",
             {**quick, "anneal": {**quick["anneal"], "scheme": "random"}}, []),
            ("optimize_seed7", "optimize", quick, ["--seed", "7"]),
            ("compare_aoa", "compare",
             {**quick, "sweep": {**quick["sweep"], "angle_axis": "aoa"}}, []),
            ("compare_gapped", "compare",
             {**quick, "array": {**quick["array"], "radius_wavelengths": 3.0}}, [])]
    runs += [(name, "compare", {**quick, "array": {**quick["array"], "pattern_file": file}},
              []) for name, (file, _) in PATTERNS.items()]
    runs += [(name, "crlb", {**ula, "reference": {**ula["reference"], **extra}}, [])
             for name, extra in CRLB_RUNS.items()]
    out.mkdir(parents=True, exist_ok=True)
    for file, ripple in PATTERNS.values():
        write_patterns(out / file, quick["array"], ripple)
    os.chdir(out)
    for name, command, cfg, flags in runs:
        Path(f"{name}.json").write_text(json.dumps(cfg))
        with redirect_stdout(sys.stderr):
            rc = main([command, "--config", f"{name}.json", "--out", name, *flags])
        if rc != 0:
            raise SystemExit(f"{name} exited {rc}")


def digest(out: Path) -> None:
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            del manifest["wall_time_s"]
            data = json.dumps(manifest, sort_keys=True).encode()
        print(f"{hashlib.sha256(data).hexdigest()}  {path.relative_to(out)}")


if __name__ == "__main__":
    OUT = Path(sys.argv[1]).resolve()
    run(OUT)
    digest(OUT)
