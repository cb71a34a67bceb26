"""Traced child process of the switchseq benchmark.

    python perfbench/tracer.py SPANS_JSON RUNS_JSON {traced,untraced}

RUNS_JSON holds a list of argument lists for ``switchseq.cli.main``. The
child times ``import switchseq.cli``, then calls ``main`` once per argument
list inside a ``cli.main`` span. In ``traced`` mode it first installs timing
wrappers on the package's public entry points, so the layers get spans too.
Spans stay in memory and are written to SPANS_JSON at exit. The benchmark
runs both modes in fresh processes; their difference is the tracing
overhead.

Wrappers are resolved by name. A target that a later version of the package
removes is listed as absent; one it stops calling simply records no spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
import tracemalloc
from pathlib import Path


def _anneal_counts(args, kwargs, result):
    records = result[1].records
    return {"proposals": len(records),
            "accepts": sum(1 for r in records if r.accepted)}


def _surface_cells(args, kwargs, result):
    return {"cells": int(result.magnitude.size)}


def _csv_bytes(args, kwargs, result):
    path = kwargs["path"] if "path" in kwargs else args[1]
    return {"bytes": os.path.getsize(path)}


# (span name, module, attribute path, extractor of counts from the call)
TARGETS = (
    ("config.load", "switchseq.config", "ExperimentConfig.from_file", None),
    ("arrays.build", "switchseq.arrays", "make_octagonal", None),
    ("arrays.build", "switchseq.arrays", "make_ula", None),
    ("ambiguity.evaluator_build", "switchseq.ambiguity",
     "ObjectiveEvaluator.__init__", None),
    ("ambiguity.evaluate", "switchseq.ambiguity",
     "ObjectiveEvaluator.evaluate", None),
    ("switching.init", "switchseq.switching", "sequential", None),
    ("switching.init", "switchseq.switching", "random_init", None),
    ("switching.init", "switchseq.switching", "hybrid_init", None),
    ("switching.move", "switchseq.switching", "swap_random", None),
    ("switching.move", "switchseq.switching", "swap_hybrid", None),
    ("switching.save", "switchseq.switching", "SwitchingSequence.save", None),
    ("anneal.loop", "switchseq.anneal", "anneal", _anneal_counts),
    ("anneal.save_trace_csv", "switchseq.anneal", "save_trace_csv", None),
    ("ambiguity.surface", "switchseq.ambiguity", "ambiguity_surface",
     _surface_cells),
    ("analysis.compare_schemes", "switchseq.analysis", "compare_schemes", None),
    ("analysis.half_power_width", "switchseq.analysis", "half_power_width", None),
    ("analysis.peak_sidelobe", "switchseq.analysis", "peak_sidelobe", None),
    ("ambiguity.save_surface_csv", "switchseq.ambiguity", "save_surface_csv",
     _csv_bytes),
)

# spans whose tracemalloc peak is recorded; tracing allocations slows the
# call, so only the one-off evaluator build pays for it
ALLOC_SPANS = {"ambiguity.evaluator_build"}


class Tracer:
    """In-memory span recorder: name, start, end, parent index and run id."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.run_id = 0

    def wrap(self, name, fn, counts=None):
        alloc = name in ALLOC_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"name": name, "run": self.run_id,
                    "parent": self.stack[-1] if self.stack else None}
            self.stack.append(len(self.spans))
            self.spans.append(span)
            if alloc:
                tracemalloc.start()
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                if alloc:
                    span["alloc_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self.stack.pop()
            if counts is not None:
                try:
                    span.update(counts(args, kwargs, result))
                except (AttributeError, IndexError, KeyError, TypeError, OSError):
                    pass  # the entry point changed shape; report no counts
            return result

        return wrapper


def install(tracer: Tracer) -> list[str]:
    """Wrap every target that exists; return the names of absent ones."""
    absent = []
    for name, module_name, attr_path, counts in TARGETS:
        target = f"{module_name}.{attr_path}"
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            absent.append(target)
            continue
        *parents, attr = attr_path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        if owner is None or not hasattr(owner, attr):
            absent.append(target)
            continue
        if inspect.isclass(owner):
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(owner, attr,
                        type(raw)(tracer.wrap(name, raw.__func__, counts)))
            else:
                setattr(owner, attr, tracer.wrap(name, raw, counts))
            continue
        # a function is looked up in the globals of whichever module calls
        # it, so replace every module-level reference to it
        original = getattr(owner, attr)
        wrapped = tracer.wrap(name, original, counts)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "switchseq" and not mod_name.startswith("switchseq."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
    return absent


def main(argv: list[str]) -> int:
    spans_path, runs_path, mode = Path(argv[1]), Path(argv[2]), argv[3]
    runs = json.loads(runs_path.read_text())

    start = time.perf_counter()
    import switchseq.cli as cli
    import_s = time.perf_counter() - start

    tracer = Tracer()
    absent = install(tracer) if mode == "traced" else []
    traced_main = tracer.wrap("cli.main", cli.main)
    codes = []
    for run_id, args in enumerate(runs):
        tracer.run_id = run_id
        codes.append(traced_main(args))

    spans_path.write_text(json.dumps({
        "import_s": import_s,
        "codes": codes,
        "absent": absent,
        "module": cli.__file__,
        "spans": tracer.spans,
    }))
    return 0 if all(code == 0 for code in codes) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
