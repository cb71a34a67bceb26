"""Antenna array geometries, element radiation patterns, and steering vectors."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SPEED_OF_LIGHT = 299792458.0

# Dot products at or below this are treated as grazing/back-hemisphere for
# patch elements, so that directions exactly perpendicular to a panel normal
# get zero gain even when trig round-off leaves a ~1e-17 residual.
_GRAZING_EPS = 1e-12


@dataclass(frozen=True)
class Direction:
    """Arrival direction: azimuth in [0, 2*pi), elevation in [0, pi] from zenith."""

    azimuth: float
    elevation: float

    def __post_init__(self):
        if not (0.0 <= self.azimuth < 2.0 * math.pi + 1e-12):
            raise ValueError(f"azimuth {self.azimuth} outside [0, 2*pi)")
        if not (0.0 <= self.elevation <= math.pi + 1e-12):
            raise ValueError(f"elevation {self.elevation} outside [0, pi]")


def unit_vectors(azimuth, elevation) -> np.ndarray:
    """Stack unit propagation vectors for (broadcastable) angle arrays, shape (..., 3)."""
    az = np.asarray(azimuth, dtype=float)
    el = np.asarray(elevation, dtype=float)
    se = np.sin(el)
    return np.stack(
        np.broadcast_arrays(se * np.cos(az), se * np.sin(az), np.cos(el)), axis=-1
    )


@dataclass(frozen=True)
class OmniPattern:
    """Isotropic element: unit gain in every direction."""

    def gain(self, azimuth, elevation) -> np.ndarray:
        az, el = np.broadcast_arrays(np.asarray(azimuth, float), np.asarray(elevation, float))
        return np.ones(az.shape, dtype=complex)


@dataclass(frozen=True)
class PatchPattern:
    """Synthetic patch element: amplitude gain max(0, cos psi)**exponent.

    psi is the angle between the arrival direction and the boresight.
    Directions at or behind the element plane (cos psi <= 0) get zero gain.
    exponent = 0 degenerates to an omni-within-hemisphere sector element.
    """

    exponent: float
    boresight: tuple[float, float, float]

    def __post_init__(self):
        if self.exponent < 0:
            raise ValueError("patch exponent must be >= 0")
        n = np.asarray(self.boresight, dtype=float)
        norm = np.linalg.norm(n)
        if not norm > 0:
            raise ValueError("boresight must be a nonzero vector")
        object.__setattr__(self, "boresight", tuple(n / norm))

    def gain(self, azimuth, elevation) -> np.ndarray:
        u = unit_vectors(azimuth, elevation)
        cos_psi = u @ np.asarray(self.boresight)
        front = cos_psi > _GRAZING_EPS
        g = np.zeros(cos_psi.shape, dtype=float)
        g[front] = np.power(cos_psi[front], self.exponent)
        return g.astype(complex)


@dataclass(frozen=True)
class TabulatedPattern:
    """Complex gain tabulated on a rectangular (azimuth, elevation) grid.

    The azimuth grid must be strictly increasing inside [0, 2*pi) and is
    treated as periodic; the elevation grid must be strictly increasing
    inside [0, pi]. Queries are interpolated bilinearly; elevation queries
    outside the tabulated range are rejected.
    """

    azimuth_grid: np.ndarray
    elevation_grid: np.ndarray
    gains: np.ndarray  # complex, shape (n_az, n_el)

    def __post_init__(self):
        az = np.asarray(self.azimuth_grid, dtype=float)
        el = np.asarray(self.elevation_grid, dtype=float)
        g = np.asarray(self.gains, dtype=complex)
        if az.ndim != 1 or el.ndim != 1:
            raise ValueError("grids must be 1-D")
        if np.any(np.diff(az) <= 0) or np.any(np.diff(el) <= 0):
            raise ValueError("grid axes must be strictly increasing")
        if az[0] < 0 or az[-1] >= 2 * math.pi:
            raise ValueError("azimuth grid must lie inside [0, 2*pi)")
        if el[0] < 0 or el[-1] > math.pi:
            raise ValueError("elevation grid must lie inside [0, pi]")
        if g.shape != (az.size, el.size):
            raise ValueError(f"gain table shape {g.shape} != ({az.size}, {el.size})")
        for name, arr in (("azimuth_grid", az), ("elevation_grid", el), ("gains", g)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def gain(self, azimuth, elevation) -> np.ndarray:
        az = np.mod(np.asarray(azimuth, dtype=float), 2 * math.pi)
        el = np.asarray(elevation, dtype=float)
        if np.any(el < self.elevation_grid[0] - 1e-12) or np.any(
            el > self.elevation_grid[-1] + 1e-12
        ):
            raise ValueError("elevation query outside tabulated grid")
        el = np.clip(el, self.elevation_grid[0], self.elevation_grid[-1])

        # periodic closure in azimuth: wrap the first column to 2*pi
        az_ext = np.append(self.azimuth_grid, self.azimuth_grid[0] + 2 * math.pi)
        g_ext = np.vstack([self.gains, self.gains[0:1]])
        ia = np.clip(np.searchsorted(az_ext, az, side="right") - 1, 0, az_ext.size - 2)
        ie = np.clip(
            np.searchsorted(self.elevation_grid, el, side="right") - 1,
            0,
            self.elevation_grid.size - 2,
        )
        ta = (az - az_ext[ia]) / (az_ext[ia + 1] - az_ext[ia])
        denom = self.elevation_grid[ie + 1] - self.elevation_grid[ie]
        te = (el - self.elevation_grid[ie]) / denom
        g00 = g_ext[ia, ie]
        g10 = g_ext[ia + 1, ie]
        g01 = g_ext[ia, ie + 1]
        g11 = g_ext[ia + 1, ie + 1]
        return (
            g00 * (1 - ta) * (1 - te)
            + g10 * ta * (1 - te)
            + g01 * (1 - ta) * te
            + g11 * ta * te
        )


ElementPattern = OmniPattern | PatchPattern | TabulatedPattern


@dataclass(frozen=True)
class ArrayModel:
    """Immutable antenna array: element positions, per-element patterns, wavelength.

    positions is (M, 3) in meters. partition, when present, is the natural
    grouping of element indices into contiguous panels (panel-major order).
    """

    positions: np.ndarray
    patterns: tuple[ElementPattern, ...]
    wavelength: float
    partition: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 3 or pos.shape[0] < 1:
            raise ValueError("positions must be a non-empty (M, 3) array")
        if len(self.patterns) != pos.shape[0]:
            raise ValueError("one pattern per element required")
        if not self.wavelength > 0:
            raise ValueError("wavelength must be positive")
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "patterns", tuple(self.patterns))

    @property
    def num_elements(self) -> int:
        return self.positions.shape[0]

    @property
    def wavenumber(self) -> float:
        return 2.0 * math.pi / self.wavelength

    def gain_matrix(self, azimuth, elevation) -> np.ndarray:
        """Per-element complex gains at (broadcastable) angles, shape (..., M).

        Elements sharing a pattern object are evaluated once.
        """
        az = np.asarray(azimuth, dtype=float)
        el = np.asarray(elevation, dtype=float)
        az, el = np.broadcast_arrays(az, el)
        out = np.empty(az.shape + (self.num_elements,), dtype=complex)
        cache: dict[int, np.ndarray] = {}
        for m, pat in enumerate(self.patterns):
            key = id(pat)
            if key not in cache:
                cache[key] = pat.gain(az, el)
            out[..., m] = cache[key]
        return out


def make_ula(num_elements: int, spacing: float, wavelength: float) -> ArrayModel:
    """Uniform linear array of omni elements on the x axis, centered at the origin.

    Element m sits at x = (m - (M-1)/2) * spacing, so the broadside phase
    profile is symmetric about zero.
    """
    if num_elements < 1:
        raise ValueError("need at least one element")
    if spacing <= 0 or wavelength <= 0:
        raise ValueError("spacing and wavelength must be positive")
    offsets = np.arange(num_elements) - (num_elements - 1) / 2.0
    positions = np.zeros((num_elements, 3))
    positions[:, 0] = offsets * spacing
    pattern = OmniPattern()
    return ArrayModel(positions, (pattern,) * num_elements, wavelength)


def default_octagon_radius(cols: int, spacing: float, panels: int = 8) -> float:
    """Radius at which adjacent panel edges touch (contiguous aperture)."""
    return (cols * spacing) / (2.0 * math.tan(math.pi / panels))


def make_octagonal(
    panels: int = 8,
    rows: int = 4,
    cols: int = 4,
    element_spacing: float | None = None,
    radius: float | None = None,
    wavelength: float = SPEED_OF_LIGHT / 28e9,
    patch_exponent: float = 2.0,
) -> ArrayModel:
    """Ring of vertical rectangular panels tangent to a cylinder.

    Panel p faces outward at azimuth 2*pi*p/panels; its rows*cols patch
    elements share a boresight along that outward normal. Elements are
    ordered panel-major, which defines the natural subset partition.
    spacing defaults to wavelength/2 and radius to the edge-touching value.
    """
    if panels < 3:
        raise ValueError("need at least 3 panels")
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be >= 1")
    if element_spacing is None:
        element_spacing = wavelength / 2.0
    if element_spacing <= 0:
        raise ValueError("element spacing must be positive")
    if radius is None:
        radius = default_octagon_radius(cols, element_spacing, panels)
    if radius <= 0:
        raise ValueError("radius must be positive")

    positions = []
    patterns: list[ElementPattern] = []
    partition = []
    col_offsets = (np.arange(cols) - (cols - 1) / 2.0) * element_spacing
    row_offsets = (np.arange(rows) - (rows - 1) / 2.0) * element_spacing
    for p in range(panels):
        theta = 2.0 * math.pi * p / panels
        normal = np.array([math.cos(theta), math.sin(theta), 0.0])
        tangent = np.array([-math.sin(theta), math.cos(theta), 0.0])
        center = radius * normal
        pattern = PatchPattern(exponent=patch_exponent, boresight=tuple(normal))
        start = len(positions)
        for r in row_offsets:
            for c in col_offsets:
                positions.append(center + c * tangent + np.array([0.0, 0.0, r]))
                patterns.append(pattern)
        partition.append(tuple(range(start, len(positions))))
    return ArrayModel(
        np.array(positions), tuple(patterns), wavelength, tuple(partition)
    )


def steering_matrix(array: ArrayModel, azimuth, elevation) -> np.ndarray:
    """Steering vectors for (broadcastable) angle arrays, shape (..., M):
    entry m is g_m(dir) * exp(j k <u, p_m>)."""
    u = unit_vectors(azimuth, elevation)
    phase = array.wavenumber * (u @ array.positions.T)
    return array.gain_matrix(azimuth, elevation) * np.exp(1j * phase)


def effective_elements(
    array: ArrayModel, direction: Direction, power_threshold_db: float
) -> np.ndarray:
    """Indices whose power |g_m|^2 is within power_threshold_db of the maximum."""
    if power_threshold_db > 0:
        raise ValueError("threshold must be <= 0 dB")
    power = np.abs(array.gain_matrix(direction.azimuth, direction.elevation)) ** 2
    peak = power.max()
    if peak <= 0:
        return np.array([], dtype=int)
    return np.flatnonzero(power >= peak * 10.0 ** (power_threshold_db / 10.0))


def load_pattern_file(path: str | Path) -> dict[tuple[int, str], TabulatedPattern]:
    """Read tabulated patterns from CSV.

    Expected header: element,pol,azimuth_deg,elevation_deg,re,im. Each
    (element, pol) pair must supply a complete rectangular grid.
    """
    cells: dict[tuple[int, str], dict[tuple[float, float], complex]] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"element", "pol", "azimuth_deg", "elevation_deg", "re", "im"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ValueError(f"pattern file must have columns {sorted(required)}")
        for row in reader:
            key = (int(row["element"]), row["pol"].strip().upper())
            if key[1] not in ("V", "H"):
                raise ValueError(f"pattern pol {row['pol']!r} must be V or H")
            az = math.radians(float(row["azimuth_deg"]))
            el = math.radians(float(row["elevation_deg"]))
            cells.setdefault(key, {})[(az, el)] = complex(
                float(row["re"]), float(row["im"])
            )

    patterns = {}
    for key, grid in cells.items():
        az_vals = np.array(sorted({a for a, _ in grid}))
        el_vals = np.array(sorted({e for _, e in grid}))
        if len(grid) != az_vals.size * el_vals.size:
            raise ValueError(
                f"pattern grid for element {key[0]} pol {key[1]} is not rectangular"
            )
        table = np.empty((az_vals.size, el_vals.size), dtype=complex)
        for i, a in enumerate(az_vals):
            for j, e in enumerate(el_vals):
                if (a, e) not in grid:
                    raise ValueError(
                        f"pattern grid for element {key[0]} pol {key[1]} "
                        f"is missing ({math.degrees(a)}, {math.degrees(e)}) deg"
                    )
                table[i, j] = grid[(a, e)]
        patterns[key] = TabulatedPattern(az_vals, el_vals, table)
    return patterns


def attach_patterns(array: ArrayModel,
                    patterns: dict[tuple[int, str], TabulatedPattern]) -> ArrayModel:
    """Replace the array's element patterns with the vertical-polarization
    ("V") ones tabulated in a file."""
    new = []
    for m in range(array.num_elements):
        if (m, "V") not in patterns:
            raise ValueError(f"no tabulated pattern for element {m} pol V")
        new.append(patterns[(m, "V")])
    return ArrayModel(array.positions, tuple(new), array.wavelength, array.partition)
