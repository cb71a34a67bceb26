"""Post-processing: half-power widths, sidelobe scans, effective factors, and
side-by-side comparison of switching schemes."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ambiguity import AmbiguitySurface, ambiguity_surface
from .arrays import ArrayModel, Direction, effective_elements
from .crlb import crlb_doppler
from .signal import StructuralParams
from .switching import SwitchingSequence, eta_subset

HALF_POWER_DB = -3.0


class GridTooNarrowError(ValueError):
    """The sweep grid misses the main-lobe peak or clips the main lobe."""


@dataclass(frozen=True)
class WidthReport:
    """Half-power interval along one surface axis (Hz or degrees)."""

    axis: str
    lower: float
    upper: float
    method: str = "linear interpolation in dB"

    @property
    def width(self) -> float:
        return self.upper - self.lower


def _crossing(coords: np.ndarray, db: np.ndarray, i_in: int, i_out: int) -> float:
    """Axis value where db crosses HALF_POWER_DB between two adjacent samples."""
    x0, x1 = coords[i_in], coords[i_out]
    y0, y1 = db[i_in], db[i_out]
    return x0 + (HALF_POWER_DB - y0) * (x1 - x0) / (y1 - y0)


def _main_peak(surface: AmbiguitySurface) -> tuple[int, int]:
    """Grid indices of the self-point (zero offset, zero Doppler difference).

    The main lobe is anchored there rather than at the global argmax:
    aliases can tie the main peak at exactly |X| = 1, but only the
    self-point is the main lobe by definition.
    """
    peak_a = int(np.argmin(np.abs(surface.angle_offset_deg)))
    peak_d = int(np.argmin(np.abs(surface.doppler_hz)))
    if abs(surface.magnitude[peak_a, peak_d] - 1.0) > 1e-6:
        raise GridTooNarrowError("surface does not contain the 0 dB main-lobe peak")
    return peak_a, peak_d


def half_power_width(surface: AmbiguitySurface, axis: str) -> WidthReport:
    """Half-power interval of the main lobe along 'doppler' or the angle axis."""
    peak_a, peak_d = _main_peak(surface)

    if axis == "doppler":
        coords = surface.doppler_hz
        db = surface.magnitude_db[peak_a, :]
        peak = peak_d
    elif axis == surface.angle_axis:
        coords = surface.angle_offset_deg
        db = surface.magnitude_db[:, peak_d]
        peak = peak_a
    else:
        raise ValueError(
            f"axis must be 'doppler' or '{surface.angle_axis}' for this surface"
        )

    hi = peak
    while hi + 1 < db.size and db[hi + 1] >= HALF_POWER_DB:
        hi += 1
    lo = peak
    while lo - 1 >= 0 and db[lo - 1] >= HALF_POWER_DB:
        lo -= 1
    if hi + 1 >= db.size or lo - 1 < 0:
        raise GridTooNarrowError(
            f"main lobe reaches the {axis} grid edge; widen the sweep"
        )
    return WidthReport(axis=axis,
                       lower=_crossing(coords, db, lo, lo - 1),
                       upper=_crossing(coords, db, hi, hi + 1))


def effective_factor(array: ArrayModel, direction: Direction,
                     threshold_db: float) -> float:
    """Fraction of elements receiving significant power from the direction."""
    return effective_elements(array, direction, threshold_db).size / array.num_elements


def block_aperture_ratio(array: ArrayModel, direction: Direction) -> float | None:
    """R* = sigma_rand / sigma_hyb, the predicted hybrid/random Doppler
    broadening ratio.

    sigma is the |g|^2-weighted RMS activation time at `direction`, in units
    of one slot. Random switching spreads every element uniformly over all M
    slots (sigma_rand^2 = M^2/12). Hybrid switching gives each partition
    subset its own contiguous block of slots, in partition order; with the
    weight constant within a subset the order inside a block cannot matter.
    With equal power on the effective elements, R* = 1/xi. None when the
    array has no partition, |g|^2 varies within a subset, or no element
    receives power.
    """
    if array.partition is None:
        return None
    w = np.abs(array.gain_matrix(direction.azimuth, direction.elevation)) ** 2
    mass, centre, spread = [], [], []
    start = 0
    for subset in array.partition:
        w_sub = w[list(subset)]
        if np.any(w_sub != w_sub[0]):
            return None
        n = len(subset)
        mass.append(w_sub[0] * n)
        centre.append(start + n / 2.0)
        spread.append(n * n / 12.0)
        start += n
    if not sum(mass) > 0:
        return None
    centre = np.array(centre)
    mean = np.average(centre, weights=mass)
    var_hyb = np.average(np.array(spread) + (centre - mean) ** 2, weights=mass)
    m = array.num_elements
    return math.sqrt(m * m / 12.0 / var_hyb)


@dataclass(frozen=True)
class AliasPeak:
    doppler_hz: float
    angle_offset_deg: float
    magnitude: float


def _first_null(values: np.ndarray, start: int, step: int) -> int:
    """Index of the first local minimum walking from start in direction step."""
    i = start
    while 0 <= i + step < values.size and values[i + step] <= values[i]:
        i += step
    return i


def _max3x3(a: np.ndarray) -> np.ndarray:
    """Maximum over each 3x3 neighbourhood, with the edges replicated (the
    "nearest" boundary mode of a size-3 maximum filter)."""
    p = np.pad(a, 1, mode="edge")
    rows = np.maximum(np.maximum(p[:-2], p[1:-1]), p[2:])
    return np.maximum(np.maximum(rows[:, :-2], rows[:, 1:-1]), rows[:, 2:])


def alias_scan(surface: AmbiguitySurface) -> list[AliasPeak]:
    """Local maxima outside the main lobe, strongest first.

    The main lobe is taken as the inter-null rectangle around the global
    peak (out to the first local minimum along each axis). A connected-
    component mask would be wrong here: under sequential switching the
    angle-Doppler alias ridge sits at |X| = 1 and touches the main lobe, so
    it must still count as a sidelobe. The first entry (if any) is the PSL.
    """
    mag = surface.magnitude
    peak_a, peak_d = _main_peak(surface)
    row = mag[peak_a, :]
    col = mag[:, peak_d]
    a_lo = _first_null(col, peak_a, -1)
    a_hi = _first_null(col, peak_a, +1)
    d_lo = _first_null(row, peak_d, -1)
    d_hi = _first_null(row, peak_d, +1)
    main_lobe = np.zeros(mag.shape, dtype=bool)
    main_lobe[a_lo:a_hi + 1, d_lo:d_hi + 1] = True

    local_max = (mag == _max3x3(mag))
    candidates = np.argwhere(local_max & ~main_lobe)
    peaks = [
        AliasPeak(
            doppler_hz=float(surface.doppler_hz[d]),
            angle_offset_deg=float(surface.angle_offset_deg[a]),
            magnitude=float(mag[a, d]),
        )
        for a, d in candidates
    ]
    peaks.sort(key=lambda p: p.magnitude, reverse=True)
    return peaks


def peak_sidelobe(surface: AmbiguitySurface) -> float:
    peaks = alias_scan(surface)
    return peaks[0].magnitude if peaks else 0.0


@dataclass(frozen=True)
class SchemeReport:
    doppler_width: WidthReport
    angle_width: WidthReport
    psl: float
    crlb_nu_full: float
    crlb_nu_effective: float

    def to_dict(self) -> dict:
        return {
            "doppler_half_power_hz": [self.doppler_width.lower, self.doppler_width.upper],
            "doppler_width_hz": self.doppler_width.width,
            "angle_half_power_deg": [self.angle_width.lower, self.angle_width.upper],
            "angle_width_deg": self.angle_width.width,
            "psl": self.psl,
            "psl_db": 20.0 * math.log10(max(self.psl, 1e-300)),
            "crlb_nu_full_hz2": self.crlb_nu_full,
            "crlb_nu_effective_hz2": self.crlb_nu_effective,
        }


@dataclass(frozen=True)
class ComparisonReport:
    schemes: dict[str, SchemeReport]
    surfaces: dict[str, AmbiguitySurface]
    broadening_ratio: float         # hybrid/random Doppler width
    angle_width_ratio: float        # hybrid/random angle width
    effective_factor: float
    block_aperture_ratio: float | None  # R*, the predicted broadening ratio
    threshold_db: float
    angle_cell_deg: float

    @property
    def inverse_effective_factor(self) -> float:
        return 1.0 / self.effective_factor

    def to_dict(self) -> dict:
        return {
            "schemes": {name: rep.to_dict() for name, rep in self.schemes.items()},
            "broadening_ratio": self.broadening_ratio,
            "angle_width_ratio": self.angle_width_ratio,
            "effective_factor": self.effective_factor,
            "inverse_effective_factor": self.inverse_effective_factor,
            "block_aperture_ratio": self.block_aperture_ratio,
            "broadening_vs_inverse_factor": self.broadening_ratio * self.effective_factor,
            "effective_threshold_db": self.threshold_db,
            "angle_cell_deg": self.angle_cell_deg,
        }


def compare_schemes(array: ArrayModel, sequences: dict[str, SwitchingSequence],
                    mu: StructuralParams, doppler_hz, angle_offset_deg,
                    angle_axis: str = "eoa", threshold_db: float = -10.0,
                    amplitude: float = 1.0, noise_sigma: float = 1.0
                    ) -> ComparisonReport:
    """Surfaces, widths, PSLs, and Doppler bounds for a set of schemes.

    sequences must contain 'random' and 'hybrid' entries (any extras, e.g.
    'sequential', are reported too). All sequences must share the element
    count and slot duration. The effective Doppler bound uses each scheme's
    activation instants restricted to the elements that pass threshold_db at
    the reference direction, centered within that subset. R* is taken at
    the reference direction too.
    """
    if "random" not in sequences or "hybrid" not in sequences:
        raise ValueError("need 'random' and 'hybrid' sequences to compare")
    timings = {(s.num_elements, s.delta_t, s.snapshots) for s in sequences.values()}
    if len(timings) != 1:
        raise ValueError("all sequences must share M, delta_t, and snapshots")

    idx = effective_elements(array, mu.rx_direction, threshold_db)
    surfaces = {}
    reports = {}
    for name, seq in sequences.items():
        surface = ambiguity_surface(array, seq, mu, doppler_hz,
                                    angle_offset_deg, angle_axis)
        surfaces[name] = surface
        reports[name] = SchemeReport(
            doppler_width=half_power_width(surface, "doppler"),
            angle_width=half_power_width(surface, angle_axis),
            psl=peak_sidelobe(surface),
            crlb_nu_full=crlb_doppler(seq.eta(), amplitude, noise_sigma),
            crlb_nu_effective=crlb_doppler(eta_subset(seq, idx), amplitude,
                                           noise_sigma),
        )

    angle_grid = np.asarray(angle_offset_deg, dtype=float)
    return ComparisonReport(
        schemes=reports,
        surfaces=surfaces,
        broadening_ratio=(reports["hybrid"].doppler_width.width
                          / reports["random"].doppler_width.width),
        angle_width_ratio=(reports["hybrid"].angle_width.width
                           / reports["random"].angle_width.width),
        effective_factor=idx.size / array.num_elements,
        block_aperture_ratio=block_aperture_ratio(array, mu.rx_direction),
        threshold_db=threshold_db,
        angle_cell_deg=float(np.min(np.diff(angle_grid))),
    )
