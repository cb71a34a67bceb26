"""Post-processing: half-power widths, sidelobe scans, effective factors, and
side-by-side comparison of switching schemes."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ambiguity import AmbiguitySurface, ambiguity_surface, to_db
from .arrays import ArrayModel, StructuralParams, effective_elements
from .crlb import crlb_doppler
from .switching import SwitchingSequence

HALF_POWER_DB = -3.0


class GridTooNarrowError(ValueError, ArithmeticError):
    """The sweep grid misses the main-lobe peak or clips the main lobe."""


@dataclass(frozen=True)
class WidthReport:
    """Half-power interval along one surface axis (Hz or degrees)."""

    axis: str
    lower: float
    upper: float

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
    """Half-power interval of the main lobe along 'doppler' or the angle axis,
    from the dB values of the one row or column through the peak."""
    peak_a, peak_d = _main_peak(surface)

    if axis == "doppler":
        coords = surface.doppler_hz
        db = to_db(surface.magnitude[peak_a, :])
        peak = peak_d
    elif axis == surface.angle_axis:
        coords = surface.angle_offset_deg
        db = to_db(surface.magnitude[:, peak_d])
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


def block_aperture_ratio(array: ArrayModel, mu: StructuralParams,
                         snapshots: int) -> float | None:
    """R* = sigma_rand / sigma_hyb, the predicted hybrid/random Doppler
    broadening ratio.

    sigma is the |g|^2-weighted RMS activation time at mu's direction, in units
    of one slot. Random switching spreads every element uniformly over all M
    slots (sigma_rand^2 = M^2/12). Hybrid switching gives each partition
    subset its own contiguous block of slots, in partition order; with the
    weight constant within a subset the order inside a block cannot matter.
    Snapshot s repeats the order s*M slots later, which adds the spread of
    those offsets, M^2 (S^2 - 1)/12, to both (0 at one snapshot). With equal
    power on the effective elements and one snapshot, R* = 1/xi. None when
    the array has no partition, |g|^2 varies within a subset, or no element
    receives power.
    """
    if array.partition is None:
        return None
    w = np.abs(array.gain_matrix(mu.rx_azimuth, mu.rx_elevation)) ** 2
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
    repeats = m * m * (snapshots * snapshots - 1) / 12.0
    return math.sqrt((m * m / 12.0 + repeats) / (var_hyb + repeats))


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


def _main_lobe(surface: AmbiguitySurface) -> tuple[slice, slice]:
    """Row and column slices of the main lobe: the inter-null rectangle
    around the self-point, out to the first local minimum along each axis.
    Not a connected region: under sequential switching the angle-Doppler
    alias ridge sits at |X| = 1 and touches the main lobe, yet is a
    sidelobe."""
    mag = surface.magnitude
    peak_a, peak_d = _main_peak(surface)
    row = mag[peak_a, :]
    col = mag[:, peak_d]
    return (slice(_first_null(col, peak_a, -1), _first_null(col, peak_a, +1) + 1),
            slice(_first_null(row, peak_d, -1), _first_null(row, peak_d, +1) + 1))


_SIDELOBE_CELLS = 2 ** 15  # cells per block of rows of peak_sidelobe


def peak_sidelobe(surface: AmbiguitySurface) -> float:
    """The largest |X| at a maximum of its 3x3 neighbourhood outside the
    main lobe, or 0.0 if none, found a block of rows at a time."""
    mag = surface.magnitude
    lobe_rows, lobe_cols = _main_lobe(surface)
    n = mag.shape[0]
    step = max(1, _SIDELOBE_CELLS // mag.shape[1])
    tops = []
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        # the block with the rows beside it, so _max3x3's edge padding is
        # exact on the block's own rows
        h = max(lo - 1, 0)
        cells = mag[lo:hi]
        peaks = cells == _max3x3(mag[h:hi + 1])[lo - h:][:hi - lo]
        peaks[max(lobe_rows.start - lo, 0):max(lobe_rows.stop - lo, 0), lobe_cols] = False
        if peaks.any():
            tops.append(cells[peaks].max())
    return float(max(tops, default=0.0))


def compare_schemes(array: ArrayModel, sequences: dict[str, SwitchingSequence],
                    mu: StructuralParams, doppler_hz, angle_offset_deg,
                    angle_axis: str = "eoa", *, threshold_db: float,
                    noise_sigma: float) -> tuple[dict, dict[str, AmbiguitySurface]]:
    """Widths, PSLs and Doppler bounds for a set of schemes, as the
    comparison.json document keys them, and each scheme's surface.

    sequences must contain 'random' and 'hybrid' entries (any extras, e.g.
    'sequential', are reported too). All sequences must share the element
    count, slot duration and snapshot count. The effective Doppler bound uses
    each scheme's activation instants restricted to the elements that pass
    threshold_db at the reference direction, over every snapshot and centered
    within that subset. R* (block_aperture_ratio, the predicted hybrid/random
    broadening ratio) is taken at the reference direction and the sequences'
    snapshot count too.
    """
    if "random" not in sequences or "hybrid" not in sequences:
        raise ValueError("need 'random' and 'hybrid' sequences to compare")
    timings = {(s.num_elements, s.delta_t, s.snapshots) for s in sequences.values()}
    if len(timings) != 1:
        raise ValueError("all sequences must share M, delta_t, and snapshots")
    (_, _, snapshots), = timings

    idx = effective_elements(array, mu, threshold_db)
    surfaces = {}
    schemes = {}
    for name, seq in sequences.items():
        surface = ambiguity_surface(array, seq, mu, doppler_hz,
                                    angle_offset_deg, angle_axis)
        surfaces[name] = surface
        doppler = half_power_width(surface, "doppler")
        angle = half_power_width(surface, angle_axis)
        psl = peak_sidelobe(surface)
        schemes[name] = {
            "doppler_half_power_hz": [doppler.lower, doppler.upper],
            "doppler_width_hz": doppler.width,
            "angle_half_power_deg": [angle.lower, angle.upper],
            "angle_width_deg": angle.width,
            "psl": psl,
            "psl_db": 20.0 * math.log10(max(psl, 1e-300)),
            "crlb_nu_full_hz2": crlb_doppler(seq.eta(), noise_sigma),
            "crlb_nu_effective_hz2": crlb_doppler(seq.eta(idx), noise_sigma),
        }

    hybrid, random = schemes["hybrid"], schemes["random"]
    broadening = hybrid["doppler_width_hz"] / random["doppler_width_hz"]
    xi = idx.size / array.num_elements
    return {
        "schemes": schemes,
        "broadening_ratio": broadening,
        "angle_width_ratio": hybrid["angle_width_deg"] / random["angle_width_deg"],
        "effective_factor": xi,
        "inverse_effective_factor": 1.0 / xi,
        "block_aperture_ratio": block_aperture_ratio(array, mu, snapshots),
        "broadening_vs_inverse_factor": broadening * xi,
        "effective_threshold_db": threshold_db,
        "angle_cell_deg": float(np.min(np.diff(np.asarray(angle_offset_deg,
                                                          dtype=float)))),
    }, surfaces
