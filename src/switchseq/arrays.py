"""Antenna array geometries, element radiation patterns, steering vectors,
and the narrowband single-path signal model: the combined basis vector of a
path, its steering vector times its Doppler phase progression.

The array builders take their lengths in wavelengths and place elements in
metres at the model's one carrier (WAVELENGTH), so no result depends on it.

Only the vertical-polarization SIMO path is executable. The full
dual-polarized MIMO basis (Tx/Rx responses per polarization, Kronecker
structure, frequency basis) is out of scope here.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .switching import SwitchingSequence, check_partition

SPEED_OF_LIGHT = 299792458.0
# the model's wavelength, at a 28 GHz carrier
WAVELENGTH = SPEED_OF_LIGHT / 28e9

# Dot products at or below this are treated as grazing/back-hemisphere for
# patch elements, so that directions exactly perpendicular to a panel normal
# get zero gain even when trig round-off leaves a ~1e-17 residual.
_GRAZING_EPS = 1e-12


def unit_vectors(azimuth, elevation) -> np.ndarray:
    """Stack unit propagation vectors for (broadcastable) angle arrays, shape (..., 3)."""
    az = np.asarray(azimuth, dtype=float)
    el = np.asarray(elevation, dtype=float)
    se = np.sin(el)
    return np.stack(
        np.broadcast_arrays(se * np.cos(az), se * np.sin(az), np.cos(el)), axis=-1
    )


class _Pattern:
    """An element pattern's complex gain at (broadcastable) angles is
    gain_at(locate(azimuth, elevation)): locate does the work that reads
    the angles and the pattern's grid alone, gain_at the rest. Patterns
    with equal locate_key locate alike, so one located result serves
    them all."""

    def gain(self, azimuth, elevation) -> np.ndarray:
        return self.gain_at(self.locate(azimuth, elevation))


@dataclass(frozen=True)
class OmniPattern(_Pattern):
    """Isotropic element: unit gain in every direction. It locates the
    angles' broadcast shape."""

    locate_key = "shape"

    def locate(self, azimuth, elevation) -> tuple[int, ...]:
        az, el = np.broadcast_arrays(np.asarray(azimuth, float), np.asarray(elevation, float))
        return az.shape

    def gain_at(self, shape: tuple[int, ...]) -> np.ndarray:
        return np.ones(shape, dtype=complex)


@dataclass(frozen=True)
class PatchPattern(_Pattern):
    """Synthetic patch element: amplitude gain max(0, cos psi)**exponent.

    psi is the angle between the arrival direction and the boresight.
    Directions at or behind the element plane (cos psi <= 0) get zero gain.
    exponent = 0 degenerates to an omni-within-hemisphere sector element.
    It locates the directions' unit_vectors.
    """

    exponent: float
    boresight: tuple[float, float, float]
    locate_key = "unit_vectors"

    def __post_init__(self):
        if not self.exponent >= 0:
            raise ValueError("patch exponent must be >= 0")
        n = np.asarray(self.boresight, dtype=float)
        norm = np.linalg.norm(n)
        if not norm > 0:
            raise ValueError("boresight must be a nonzero vector")
        object.__setattr__(self, "boresight", tuple(n / norm))

    def locate(self, azimuth, elevation) -> np.ndarray:
        return unit_vectors(azimuth, elevation)

    def gain_at(self, u: np.ndarray) -> np.ndarray:
        cos_psi = u @ np.asarray(self.boresight)
        front = cos_psi > _GRAZING_EPS
        g = np.zeros(cos_psi.shape, dtype=float)
        g[front] = np.power(cos_psi[front], self.exponent)
        return g.astype(complex)


@dataclass(frozen=True)
class TabulatedPattern(_Pattern):
    """Complex gain tabulated on a rectangular (azimuth, elevation) grid.

    The azimuth grid must be strictly increasing inside [0, 2*pi) and is
    treated as periodic from its first azimuth: the first column repeats one
    turn later, so a query below the first azimuth interpolates between the
    last column and the first. The elevation grid must be strictly
    increasing inside [0, pi]. Queries are interpolated bilinearly (in
    azimuth on one elevation); elevation queries outside the tabulated
    range are rejected.

    locate refuses those, and finds each query's cell in the raveled table
    and its weights; tables on equal grids locate alike.
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
        if not (np.isfinite(az).all() and np.isfinite(el).all()
                and np.isfinite(g).all()):
            raise ValueError("grids and gains must be finite")
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
        # the periodic closure in azimuth: the first column again, one turn
        # on; a lone elevation repeats one radian on, to interpolate between
        g = np.vstack([g, g[0:1]])
        if el.size == 1:
            el, g = np.append(el, el[0] + 1.0), np.hstack([g, g])
        object.__setattr__(self, "_az_ext", np.append(az, az[0] + 2 * math.pi))
        object.__setattr__(self, "_el_ext", el)
        object.__setattr__(self, "_g_ext", g)
        object.__setattr__(self, "locate_key", (self.azimuth_grid.tobytes(),
                                                self.elevation_grid.tobytes()))

    def locate(self, azimuth, elevation) -> tuple[np.ndarray, ...]:
        """The index of each query's cell corner in the raveled table and
        its azimuth and elevation weights."""
        az_ext, el_ext = self._az_ext, self._el_ext
        az = az_ext[0] + np.mod(np.asarray(azimuth, dtype=float) - az_ext[0],
                                2 * math.pi)
        el = np.asarray(elevation, dtype=float)
        if np.any(el < self.elevation_grid[0] - 1e-12) or np.any(
            el > self.elevation_grid[-1] + 1e-12
        ):
            raise ValueError("elevation query outside tabulated grid")
        el = np.clip(el, self.elevation_grid[0], self.elevation_grid[-1])

        ia = np.clip(np.searchsorted(az_ext, az, side="right") - 1, 0, az_ext.size - 2)
        ie = np.clip(np.searchsorted(el_ext, el, side="right") - 1, 0, el_ext.size - 2)
        ta = (az - az_ext[ia]) / (az_ext[ia + 1] - az_ext[ia])
        te = (el - el_ext[ie]) / (el_ext[ie + 1] - el_ext[ie])
        return ia * el_ext.size + ie, ta, te  # of g00 in the raveled table

    def gain_at(self, located: tuple[np.ndarray, ...]) -> np.ndarray:
        flat, ta, te = located
        g_ext = self._g_ext
        cols = g_ext.shape[1]
        ua, ue = 1 - ta, 1 - te

        def corner(offset, wa, we):
            term = g_ext.take(flat + offset)
            term *= wa
            term *= we
            return term

        # g00 ua ue + g10 ta ue + g01 ua te + g11 ta te, each product and
        # add in that order, in place: one term is held beside the sum
        out = corner(0, ua, ue)
        out += corner(cols, ta, ue)
        out += corner(1, ua, te)
        out += corner(cols + 1, ta, te)
        return out


ElementPattern = OmniPattern | PatchPattern | TabulatedPattern


@dataclass(frozen=True)
class ArrayModel:
    """Immutable antenna array: element positions and per-element patterns.

    positions is (M, 3) in metres at the model's carrier (WAVELENGTH).
    partition, when present, is the natural grouping of element indices
    into contiguous panels (panel-major order).
    """

    positions: np.ndarray
    patterns: tuple[ElementPattern, ...]
    partition: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 3 or pos.shape[0] < 1:
            raise ValueError("positions must be a non-empty (M, 3) array")
        if len(self.patterns) != pos.shape[0]:
            raise ValueError("one pattern per element required")
        if self.partition is not None:
            object.__setattr__(self, "partition", check_partition(self.partition, len(pos)))
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "patterns", tuple(self.patterns))

    @property
    def num_elements(self) -> int:
        return self.positions.shape[0]

    @property
    def wavenumber(self) -> float:
        return 2.0 * math.pi / WAVELENGTH

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


def make_ula(num_elements: int, spacing_wavelengths: float) -> ArrayModel:
    """Uniform linear array of omni elements on the x axis, centered at the origin.

    Element m sits at x = (m - (M-1)/2) * spacing, spacing being
    spacing_wavelengths wavelengths, so the broadside phase profile is
    symmetric about zero.
    """
    if num_elements < 1:
        raise ValueError("need at least one element")
    spacing = spacing_wavelengths * WAVELENGTH
    if not spacing > 0:
        raise ValueError("spacing must be positive")
    offsets = np.arange(num_elements) - (num_elements - 1) / 2.0
    positions = np.zeros((num_elements, 3))
    positions[:, 0] = offsets * spacing
    pattern = OmniPattern()
    return ArrayModel(positions, (pattern,) * num_elements)


def default_octagon_radius(cols: int, spacing: float, panels: int = 8) -> float:
    """Radius at which adjacent panel edges touch (contiguous aperture)."""
    return (cols * spacing) / (2.0 * math.tan(math.pi / panels))


def make_octagonal(
    panels: int = 8,
    rows: int = 4,
    cols: int = 4,
    spacing_wavelengths: float = 0.5,
    radius_wavelengths: float | None = None,
    patch_exponent: float = 2.0,
) -> ArrayModel:
    """Ring of vertical rectangular panels tangent to a cylinder.

    Panel p faces outward at azimuth 2*pi*p/panels; its rows*cols patch
    elements share a boresight along that outward normal. Elements are
    ordered panel-major, which defines the natural subset partition. The
    element spacing and the radius are in wavelengths; the radius defaults
    to the edge-touching value.
    """
    if panels < 3:
        raise ValueError("need at least 3 panels")
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be >= 1")
    element_spacing = spacing_wavelengths * WAVELENGTH
    if not element_spacing > 0:
        raise ValueError("element spacing must be positive")
    radius = (default_octagon_radius(cols, element_spacing, panels)
              if radius_wavelengths is None else radius_wavelengths * WAVELENGTH)
    if not radius > 0:
        raise ValueError("radius must be positive")

    size = rows * cols
    angles = [2.0 * math.pi * p / panels for p in range(panels)]
    normal = np.array([[math.cos(t), math.sin(t), 0.0] for t in angles])
    tangent = np.array([[-math.sin(t), math.cos(t), 0.0] for t in angles])
    col_offsets = (np.arange(cols) - (cols - 1) / 2.0) * element_spacing
    heights = np.zeros((rows, 3))
    heights[:, 2] = (np.arange(rows) - (rows - 1) / 2.0) * element_spacing
    # element (p, r, c) at center_p + c tangent_p + (0, 0, r), panel-major
    positions = (radius * normal[:, None, None] + col_offsets[:, None] * tangent[:, None, None]
                 + heights[:, None]).reshape(-1, 3)
    patterns = [PatchPattern(exponent=patch_exponent, boresight=tuple(n))
                for n in normal.tolist()]
    return ArrayModel(
        positions, tuple(p for p in patterns for _ in range(size)),
        tuple(tuple(range(s, s + size)) for s in range(0, panels * size, size))
    )


def steering_matrix(array: ArrayModel, azimuth, elevation) -> np.ndarray:
    """Steering vectors for (broadcastable) angle arrays, shape (..., M):
    entry m is g_m(dir) * exp(j k <u, p_m>), formed in one complex buffer."""
    phase = unit_vectors(azimuth, elevation) @ array.positions.T
    phase *= array.wavenumber
    rows = 1j * phase
    del phase
    np.exp(rows, out=rows)
    return np.multiply(array.gain_matrix(azimuth, elevation), rows, out=rows)


@dataclass(frozen=True)
class StructuralParams:
    """One path: arrival azimuth (any finite value, stored wrapped into
    [0, 2*pi)), elevation in [0, pi] from zenith, and Doppler."""

    rx_azimuth: float
    rx_elevation: float
    doppler_hz: float

    def __post_init__(self):
        if not math.isfinite(self.rx_azimuth):
            raise ValueError(f"azimuth {self.rx_azimuth} outside [0, 2*pi)")
        # keep the azimuth in [0, 2*pi) (the second % takes the 2*pi that a
        # tiny negative azimuth rounds to onto 0)
        turn = 2 * math.pi
        object.__setattr__(self, "rx_azimuth", self.rx_azimuth % turn % turn)
        if not 0.0 <= self.rx_elevation <= math.pi + 1e-12:
            raise ValueError(f"elevation {self.rx_elevation} outside [0, pi]")
        if not np.isfinite(self.doppler_hz):
            raise ValueError("doppler must be finite")


def basis_from_eta(array: ArrayModel, eta: np.ndarray,
                   mu: StructuralParams) -> np.ndarray:
    """Basis vector for explicit activation instants (length M*snapshots)."""
    eta = np.asarray(eta, dtype=float)
    m = array.num_elements
    if eta.size % m != 0:
        raise ValueError("eta length must be a multiple of the element count")
    steer = steering_matrix(array, mu.rx_azimuth, mu.rx_elevation)
    doppler = np.exp(2j * math.pi * mu.doppler_hz * eta)
    return np.tile(steer, eta.size // m) * doppler


def basis(array: ArrayModel, seq: SwitchingSequence,
          mu: StructuralParams) -> np.ndarray:
    """Combined basis b(mu, eta): steering vector (tiled over snapshots)
    times the Doppler phase vector."""
    if seq.num_elements != array.num_elements:
        raise ValueError("sequence and array element counts differ")
    return basis_from_eta(array, seq.eta(), mu)


def effective_elements(array: ArrayModel, mu: StructuralParams,
                       power_threshold_db: float) -> np.ndarray:
    """Indices whose nonzero power |g_m|^2 at the path mu's direction is
    within power_threshold_db of the maximum."""
    if not power_threshold_db <= 0:
        raise ValueError("threshold must be <= 0 dB")
    power = np.abs(array.gain_matrix(mu.rx_azimuth, mu.rx_elevation)) ** 2
    floor = power.max() * 10.0 ** (power_threshold_db / 10.0)
    # power > 0 too: below about -3240 dB the floor underflows to 0.0
    return np.flatnonzero((power > 0) & (power >= floor))


def _cell(row: dict, column: str, line: str, kind: type = float):
    """A pattern file cell as a float or an int, refused with its line and column."""
    try:
        if "_" in row[column]:  # int() and float() would read '1_0' as 10
            raise ValueError
        return kind(row[column])
    except ValueError:
        raise ValueError(f"{line} has {column} {row[column]!r}, not "
                         f"{'an integer' if kind is int else 'a number'}") from None


def parse_pattern_file(data: bytes) -> dict[tuple[int, str], TabulatedPattern]:
    """Tabulated patterns from the bytes of a CSV file.

    Expected header: element,pol,azimuth_deg,elevation_deg,re,im, each
    column once; the file is UTF-8, with or without a BOM. Each
    (element, pol) pair must supply a complete rectangular grid.
    """
    cells: dict[tuple[int, str], dict[tuple[float, float], complex]] = {}
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"element", "pol", "azimuth_deg", "elevation_deg", "re", "im"}
        header = reader.fieldnames
        if header is None or not required.issubset(header):
            raise ValueError(f"pattern file must have columns {sorted(required)}")
        if len(set(header)) < len(header):
            raise ValueError(f"pattern file header repeats a column: {header}")
        for row in reader:
            line = f"pattern file line {reader.line_num}"
            if None in row:  # DictReader's key for the fields past the header
                raise ValueError(f"{line} has more fields than its header")
            short = [k for k, v in row.items() if v is None]
            if short:
                raise ValueError(f"{line} has no {short[0]}")
            key = (_cell(row, "element", line, int), row["pol"].strip().upper())
            if key[0] < 0:
                raise ValueError(f"{line} has negative element {key[0]}")
            if key[1] not in ("V", "H"):
                raise ValueError(f"{line} has pol {row['pol']!r}, which must be V or H")
            az = math.radians(_cell(row, "azimuth_deg", line))
            el = math.radians(_cell(row, "elevation_deg", line))
            where = (f"element {key[0]} pol {key[1]} at "
                     f"({row['azimuth_deg']}, {row['elevation_deg']}) deg")
            if not (math.isfinite(az) and math.isfinite(el)):
                raise ValueError(f"{line} angles must be finite: {where}")
            gain = complex(_cell(row, "re", line), _cell(row, "im", line))
            if not (math.isfinite(gain.real) and math.isfinite(gain.imag)):
                raise ValueError(f"{line} gain must be finite: {where}")
            grid = cells.setdefault(key, {})
            if (az, el) in grid:
                raise ValueError(f"{line} repeats {where}")
            grid[(az, el)] = gain

    patterns = {}
    for key, grid in cells.items():
        # distinct keys, as many as the axes' product, fill the whole grid
        az_vals = sorted({a for a, _ in grid})
        el_vals = sorted({e for _, e in grid})
        if len(grid) != len(az_vals) * len(el_vals):
            raise ValueError(
                f"pattern grid for element {key[0]} pol {key[1]} is not rectangular"
            )
        table = [[grid[(a, e)] for e in el_vals] for a in az_vals]
        patterns[key] = TabulatedPattern(np.array(az_vals), np.array(el_vals),
                                         np.array(table))
    return patterns


def attach_patterns(array: ArrayModel,
                    patterns: dict[tuple[int, str], TabulatedPattern]) -> ArrayModel:
    """Replace the array's element patterns with the vertical-polarization
    ("V") ones tabulated in a file, which must name no element the array
    does not have."""
    top = max((element for element, _ in patterns), default=-1)
    if top >= array.num_elements:
        raise ValueError(f"tabulated pattern for element {top}, but the array "
                         f"has {array.num_elements} elements")
    new = []
    for m in range(array.num_elements):
        if (m, "V") not in patterns:
            raise ValueError(f"no tabulated pattern for element {m} pol V")
        new.append(patterns[(m, "V")])
    return ArrayModel(array.positions, tuple(new), array.partition)
