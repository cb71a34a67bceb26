"""Run the README quick-start commands and print a digest of their outputs.

    PYTHONPATH=<tree>/src python tools/readme_artifacts.py OUT

Runs the quick-start `optimize`, `ambiguity --sequence` on its output,
`compare` and `effective-factor`, and the ULA `crlb` as written, at
elevation_deg 60 and at azimuth_deg 45 and -270, each into a folder of OUT.
Then prints `sha256  path` for every file there, with `wall_time_s` dropped
from each manifest.json, so the runs of two trees compare with `diff`.
"""

import hashlib
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

from switchseq.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
CRLB_RUNS = {"crlb": {}, "crlb_el60": {"elevation_deg": 60.0},
             "crlb_az45": {"azimuth_deg": 45.0}, "crlb_az-270": {"azimuth_deg": -270.0}}


def run(out: Path) -> None:
    # the first two json blocks under the README's quick-start heading
    text = README.read_text().split("\n## CLI quick start\n", 1)[1]
    quick, ula = (json.loads(b.split("```", 1)[0]) for b in text.split("```json\n")[1:3])
    runs = [("optimize", quick, []),
            ("ambiguity", quick, ["--sequence", str(out / "optimize/sequence.json")]),
            ("compare", quick, []), ("effective-factor", quick, [])]
    runs += [(name, {**ula, "crlb": {**ula["crlb"], **extra}}, [])
             for name, extra in CRLB_RUNS.items()]
    out.mkdir(parents=True, exist_ok=True)
    for name, cfg, flags in runs:
        path = out / f"{name}.json"
        path.write_text(json.dumps(cfg))
        command = "crlb" if name in CRLB_RUNS else name
        with redirect_stdout(sys.stderr):
            rc = main([command, "--config", str(path), "--out", str(out / name), *flags])
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
    run(Path(sys.argv[1]))
    digest(Path(sys.argv[1]))
