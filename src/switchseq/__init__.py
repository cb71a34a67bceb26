"""switchseq: switching-sequence design and evaluation for switched-array
channel sounders.

Builds antenna array models, represents switching sequences (sequential,
random, hybrid), evaluates the spatio-temporal ambiguity function and its
integral objective, computes closed-form and numeric Cramer-Rao bounds, and
optimizes sequences by simulated annealing.
"""

__version__ = "0.1.0"

import os
import re
import sys


def _blas_threads_requested() -> int | None:
    """The thread count the environment asks OpenBLAS for: the first
    positive integer among the variables OpenBLAS reads, in its order."""
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        match = re.match(r"\s*(\d+)", os.environ.get(name, ""))
        if match and int(match.group(1)) > 0:
            return int(match.group(1))
    return None


# Measured on the README quick-start octagon (largest products the surface
# sweep's 121x128 @ 128x256 blocks): OpenBLAS hands each product to a second
# thread that then spin-waits, a third of a run's CPU time, and a wait for
# a descheduled worker when the host takes the other core. One thread gives
# the same bits. The sweep's products have M rows at any snapshot count; on
# the largest sweep measured (601 x 3201 cells) a free second core saves
# 20-40 ms of 100 ms, where writing that surface takes 0.4 s; see README
# "Threads".
# Set before any submodule imports numpy, and only when no variable asks
# for a count; a numpy imported earlier already runs its pool, so then
# nothing is set and the count is unknown (None).
if "numpy" in sys.modules:
    BLAS_THREADS = None
else:
    BLAS_THREADS = _blas_threads_requested()
    if BLAS_THREADS is None:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
        BLAS_THREADS = 1

from .ambiguity import (AmbiguitySurface, DegenerateDirectionError,
                        ObjectiveConfig, ObjectiveEvaluator, ambiguity_surface)
from .analysis import (GridTooNarrowError, WidthReport, block_aperture_ratio,
                       compare_schemes, half_power_width, peak_sidelobe)
from .anneal import (AnnealConfig, AnnealError, AnnealRecord, AnnealTrace,
                     anneal, temperature_schedule)
from .arrays import (ArrayModel, OmniPattern, PatchPattern, StructuralParams,
                     TabulatedPattern, basis, basis_from_eta, effective_elements,
                     make_octagonal, make_ula, steering_matrix)
from .config import ConfigError, ExperimentConfig
from .crlb import (CRLBResult, EndfireSingularityError, SingularFIMError,
                   UnobservableDopplerError, crlb_aoa, crlb_doppler, fim_matrix,
                   fim_numeric)
from .switching import (SwitchingSequence, draw_swap, random_init, sequential,
                        swap_sets)
