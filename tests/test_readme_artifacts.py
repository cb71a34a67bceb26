"""The README artifacts as a checked contract: tools/readme_artifacts.py
runs the README's quick-start commands and digests every file they write,
and the digests must be those committed in readme_artifacts.json. Another
OpenBLAS core or numpy CPU dispatch moves the last bits of objectives and
surfaces but not the annealed sequences, so on CPU paths other than the
file's only the sequence files are compared, and the check warns that it
is partial."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import switchseq
from switchseq.cli import _cpu_paths

TOOL = Path(__file__).resolve().parents[1] / "tools" / "readme_artifacts.py"
EXPECTED = json.loads((Path(__file__).parent / "readme_artifacts.json").read_text())
# OpenBLAS's thread count is left to the CLI's default, as in the digests
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def is_sequence(path: str) -> bool:
    name = Path(path).name
    return name.startswith("sequence") or name == "best_sequence.json"


def test_readme_artifacts_keep_their_digests(tmp_path):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = str(Path(switchseq.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, str(TOOL), str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    got = {path: digest for digest, path in
           (line.split("  ", 1) for line in proc.stdout.splitlines())}
    expected = EXPECTED["digests"]
    paths = {key: EXPECTED[key] for key in ("openblas_core", "numpy_cpu_dispatch")}
    if _cpu_paths() != paths:
        warnings.warn(f"CPU paths {_cpu_paths()} are not the digests' {paths}: "
                      "only the sequence files are compared")
        got = {path: d for path, d in got.items() if is_sequence(path)}
        expected = {path: d for path, d in expected.items() if is_sequence(path)}
    assert sorted(got) == sorted(expected)
    moved = sorted(path for path in expected if got[path] != expected[path])
    assert not moved, f"{len(moved)} of {len(expected)} artifacts moved: {moved}"
