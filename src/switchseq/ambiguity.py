"""Spatio-temporal ambiguity function and the integral objective over the
angle-Doppler region, estimated with deterministic scrambled-Sobol sampling.

The objective is evaluated with a fixed low-discrepancy point set per
(seed, sample count), so comparing two sequences uses common random numbers
and repeated runs are bit-stable. An ObjectiveEvaluator precomputes, element
by element, the per-sample steering cross-products (independent of the
sequence) and two Doppler phase factor tables of about sqrt(M) rows each,
from which it forms the phase of a sample in a slot on demand (a sequence
only permutes the slots).

A sequence is scored from its per-sample sums S_n = sum_m cross[m, n] *
P[slot_m, n], held as exact int64 fixed-point numbers: each term is rounded
to a multiple of 2**-FIXED_BITS from real multiplies and adds only, which
round the same whatever the array shape, and integer addition is exact. A
swap of two slots moves two terms per sample, so swap_sums gives in
O(samples) exactly the integers of a fresh sample_sums: every annealing
proposal is scored equal to evaluate() bit for bit (the tests assert ==).

The points come from sobol_points, a numpy scrambled Sobol generator whose
output is byte-identical to scipy.stats.qmc.Sobol(d=5, scramble=True,
seed=seed).random(n); scipy serves only as the tests' reference, so no
command imports it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .arrays import ArrayModel, steering_matrix, unit_vectors
from .signal import StructuralParams, basis
from .switching import SwitchingSequence


class DegenerateDirectionError(ValueError):
    """All element gains vanish for a direction, so the basis has zero norm."""


@dataclass(frozen=True)
class Region:
    """Integration region: angle boxes plus a bound on the Doppler difference."""

    azimuth: tuple[float, float] = (0.0, 2.0 * math.pi)
    elevation: tuple[float, float] = (0.0, math.pi)
    doppler_bound: float = 1.0

    def __post_init__(self):
        if not self.doppler_bound > 0:
            raise ValueError("doppler bound must be positive")
        if not (self.azimuth[0] < self.azimuth[1] and self.elevation[0] < self.elevation[1]):
            raise ValueError("angle ranges must be non-degenerate")

    @classmethod
    def default_for(cls, delta_t: float, doppler_fraction: float = 0.25) -> "Region":
        """Full-sphere box with the Doppler bound a fraction of 1/(2*delta_t)."""
        return cls(doppler_bound=doppler_fraction / (2.0 * delta_t))


@dataclass(frozen=True)
class ObjectiveConfig:
    """Settings for the integral objective f_P.

    samples is the Sobol point count; a count that is not a power of two
    loses the balance properties of the Sobol sequence, so its estimate is
    noisier than the count suggests.
    """

    power: int = 6
    samples: int = 4096
    seed: int = 0
    sin_elevation: bool = False

    def __post_init__(self):
        if self.power < 2 or self.power % 2 != 0:
            raise ValueError("power must be an even integer >= 2")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.samples > 2 ** SOBOL_BITS:
            raise ValueError(f"samples must be <= 2**{SOBOL_BITS}, the Sobol period")


def normalized_correlation(b1: np.ndarray, b2: np.ndarray) -> complex:
    """b1^H b2 / (||b1|| ||b2||); raises on a zero-norm input."""
    n1 = np.linalg.norm(b1)
    n2 = np.linalg.norm(b2)
    if n1 == 0.0 or n2 == 0.0:
        raise DegenerateDirectionError("basis vector has zero norm")
    return complex(np.vdot(b1, b2) / (n1 * n2))


def ambiguity_value(array: ArrayModel, seq: SwitchingSequence,
                    mu: StructuralParams, mu_prime: StructuralParams) -> complex:
    """Normalized inner product of the two basis vectors; |result| <= 1."""
    return normalized_correlation(basis(array, seq, mu), basis(array, seq, mu_prime))


SOBOL_BITS = 30
# Joe & Kuo (2008) primitive polynomials and initial direction numbers of
# Sobol dimensions 2-5; dimension 1 is van der Corput (all ones)
_SOBOL_POLY = (3, 7, 11, 13)
_SOBOL_VINIT = ((1,), (1, 3), (1, 3, 1), (1, 1, 1))


def sobol_points(n: int, seed: int) -> np.ndarray:
    """First n points of a 5-D Sobol sequence with Matousek's linear matrix
    scramble and a digital shift, as an (n, 5) array in [0, 1).

    The scramble is drawn from np.random.default_rng(seed) in scipy's order
    and dtype, so the points are byte-identical to
    scipy.stats.qmc.Sobol(d=5, scramble=True, seed=seed).random(n).
    """
    bits = SOBOL_BITS
    v = np.ones((5, bits), dtype=np.uint32)
    for d, (poly, vinit) in enumerate(zip(_SOBOL_POLY, _SOBOL_VINIT), start=1):
        s = len(vinit)
        v[d, :s] = vinit
        for j in range(s, bits):  # Bratley-Fox recurrence
            new = int(v[d, j - s])
            for k in range(s):
                if (poly >> (s - 1 - k)) & 1:
                    new ^= int(v[d, j - k - 1]) << (k + 1)
            v[d, j] = new
    position = np.arange(bits - 1, -1, -1, dtype=np.uint32)  # of digit j
    msb_first = np.uint32(1) << position
    v *= msb_first  # direction j as a bits-wide binary fraction

    rng = np.random.default_rng(seed)
    shift = rng.integers(0, 2, size=(5, bits), dtype=np.uint32) @ msb_first[::-1]
    ltm = np.tril(rng.integers(0, 2, size=(5, bits, bits), dtype=np.uint32))
    ltm[:, np.arange(bits), np.arange(bits)] = 1
    # scrambled direction bits, most significant first: L @ bits mod 2
    v_bits = (v[:, :, None] >> position) & 1
    sv = ((v_bits @ ltm.transpose(0, 2, 1)) & 1) @ msb_first

    # Gray-code order: point i flips direction ctz(i) of point i - 1
    i = np.arange(1, n)
    ctz = np.frexp(i & -i)[1] - 1
    points = np.bitwise_xor.accumulate(np.vstack([shift, sv[:, ctz].T]), axis=0)
    return points * 2.0 ** -bits


# Sample sums are int64 multiples of 2**-FIXED_BITS. |term| <= |cross[m, n]|
# as |P| = 1, and by Cauchy-Schwarz sum_m |cross[m, n]| = sum_m |g_m||g'_m| /
# (S ||g|| ||g'||) <= 1/S <= 1 (up to rounding), so a sum stays within about
# 2**61 + M and a partial sum of swap_sums (two terms in and two out) within
# 3 * 2**61 < 2**63.
FIXED_BITS = 61
_BLOCK_ENTRIES = 2 ** 15  # samples x elements per block of build and sums


class ObjectiveEvaluator:
    """Precomputed QMC machinery for evaluating f_P over many sequences.

    All sequences passed to evaluate() must share the element count, slot
    duration, and snapshot count given at construction; those fix the sample
    points and steering products (common random numbers).
    """

    def __init__(self, array: ArrayModel, region: Region, config: ObjectiveConfig,
                 delta_t: float, snapshots: int = 1):
        self.array = array
        self.region = region
        self.config = config
        self.delta_t = float(delta_t)
        self.snapshots = int(snapshots)

        m = array.num_elements
        n = config.samples
        u = sobol_points(n, config.seed)

        az0, az1 = region.azimuth
        el0, el1 = region.elevation
        phi = az0 + u[:, 0] * (az1 - az0)
        phi_p = az0 + u[:, 2] * (az1 - az0)
        if config.sin_elevation:
            c0, c1 = math.cos(el0), math.cos(el1)
            theta = np.arccos(c0 + u[:, 1] * (c1 - c0))
            theta_p = np.arccos(c0 + u[:, 3] * (c1 - c0))
            el_measure = abs(c0 - c1)
        else:
            theta = el0 + u[:, 1] * (el1 - el0)
            theta_p = el0 + u[:, 3] * (el1 - el0)
            el_measure = el1 - el0
        dnu = region.doppler_bound * (2.0 * u[:, 4] - 1.0)

        self.volume = (az1 - az0) ** 2 * el_measure ** 2 * (2.0 * region.doppler_bound)
        self.delta_doppler = dnu
        self.azimuth = phi
        self.elevation = theta
        self.azimuth_prime = phi_p
        self.elevation_prime = theta_p

        # steering cross-products conj(g_m) g'_m / (||g|| ||g'||), a block of
        # elements at a time, as conj(G) G' exp(i k (u' - u).p) with the
        # exponential taken only where the gain product is nonzero; a pattern
        # object is evaluated in both directions once for its run of elements
        du = unit_vectors(phi_p, theta_p) - unit_vectors(phi, theta)
        self._block = max(1, _BLOCK_ENTRIES // n)
        self._cross = np.zeros((m, 2, n))  # real and imaginary rows
        power = np.zeros((2, n))  # sum_m |G_m|^2 of both directions
        pattern = pair = None  # the last pattern object and its gains
        for lo in range(0, m, self._block):
            rows = slice(lo, lo + self._block)
            block = array.patterns[rows]
            # element axis innermost in memory, as in a gain matrix: it sets
            # the order in which numpy adds the elements' |G|^2 into power
            gains = np.empty((2, n, len(block)), dtype=complex).transpose(0, 2, 1)
            for j, p in enumerate(block):
                if p is not pattern:
                    pattern, pair = p, np.array([p.gain(phi, theta),
                                                 p.gain(phi_p, theta_p)])
                gains[:, j] = pair
            power += (gains.real ** 2 + gains.imag ** 2).sum(axis=1)
            both = np.conj(gains[0]) * gains[1]
            live = both != 0.0
            arg = array.wavenumber * (array.positions[rows] @ du.T)
            term = both[live] * np.exp(1j * arg[live])
            cross = self._cross[rows]
            cross[:, 0][live], cross[:, 1][live] = term.real, term.imag
        ok = (power > 0.0).all(axis=0)
        self.degenerate_count = int(n - ok.sum())
        # normalised and scaled to units of 2**-FIXED_BITS; zero where a
        # direction is degenerate (its gains, and so its products, are zero)
        self._cross *= np.where(ok, 2.0 ** FIXED_BITS, 0.0) / np.where(
            ok, self.snapshots * np.sqrt(power[0] * power[1]), 1.0)

        # Doppler phase of sample n in slot s, exp(2*pi*i*dnu*s*dt), is
        # coarse[s // L] * fine[s % L] with coarse rows exp(2*pi*i*dnu*lo*dt)
        # for lo = 0, L, 2L, ... and fine rows exp(2*pi*i*dnu*r*dt) for
        # r < L = ceil(sqrt(M)): terms() forms the rows it needs from these
        # two tables of about sqrt(M) rows each, one complex multiply per
        # row, so a row has the same bits whichever rows it is formed with
        self._step = math.isqrt(m - 1) + 1
        self._fine = np.exp(2j * math.pi * np.outer(np.arange(self._step) * self.delta_t,
                                                    dnu))
        self._coarse = np.array([np.exp(2j * math.pi * (lo * self.delta_t) * dnu)
                                 for lo in range(0, m, self._step)])
        # squared inter-snapshot Doppler factor: geometric sum over snapshot
        # offsets (the 1/snapshots normalization already sits in the basis
        # norms); exactly 1.0 at one snapshot
        offsets = np.arange(self.snapshots) * m * self.delta_t
        self._snapshot_power = np.abs(
            np.exp(2j * math.pi * np.outer(dnu, offsets)).sum(axis=1)
        ) ** 2

    def evaluate(self, seq: SwitchingSequence) -> float:
        """QMC estimate of f_P for one sequence."""
        return self.score(self.sample_sums(seq))

    def sample_sums(self, seq: SwitchingSequence) -> np.ndarray:
        """Per-sample sums S_n = sum_m cross[m, n] * P[slot_m, n] as exact
        fixed-point integers, shape (2, samples): real and imaginary parts
        in units of 2**-FIXED_BITS."""
        if seq.num_elements != self.array.num_elements:
            raise ValueError("sequence does not match the evaluator's array")
        if seq.delta_t != self.delta_t or seq.snapshots != self.snapshots:
            raise ValueError("sequence timing does not match the evaluator")
        slots = seq.slot_of()
        sums = np.zeros((2, self.config.samples), dtype=np.int64)
        for lo in range(0, slots.size, self._block):
            block = slice(lo, lo + self._block)
            sums += self.terms(block, slots[block]).sum(axis=0)
        return sums

    def terms(self, elements, slots) -> np.ndarray:
        """Fixed-point terms rint(2**FIXED_BITS * cross[e] * P[s]) of the
        elements e (indices, index arrays or a slice) in the slots s
        (indices or index arrays), broadcast against each other, shape
        (..., 2, samples) with the real part before the imaginary. Only
        real multiplies and adds are used, which round the same whatever the
        array shape, so a term's bits do not depend on how it was batched."""
        cross, phase = self._cross[elements], self.phase_rows(slots)
        c_re, c_im = cross[..., 0, :], cross[..., 1, :]
        p_re, p_im = phase.real, phase.imag
        shape = np.broadcast_shapes(c_re.shape, p_re.shape)
        out = np.empty(shape[:-1] + (2, shape[-1]))
        np.multiply(c_re, p_re, out=out[..., 0, :])
        out[..., 0, :] -= c_im * p_im
        np.multiply(c_re, p_im, out=out[..., 1, :])
        out[..., 1, :] += c_im * p_re
        return np.rint(out, out=out).astype(np.int64)

    def phase_rows(self, slots) -> np.ndarray:
        """Doppler phases exp(2*pi*i*dnu*s*dt) of the slots s (indices or
        index arrays), shape (..., samples), formed from the factor tables
        as coarse[s // L] * fine[s % L]."""
        q, r = np.divmod(slots, self._step)
        return self._coarse[q] * self._fine[r]

    def swap_sums(self, sums: np.ndarray, order, a: int, b: int) -> np.ndarray:
        """Sample sums after exchanging the antennas of slots a and b of an
        activation order, given that order's sums: the two elements' terms
        move to their new slots, so this costs O(samples) and equals a fresh
        sample_sums exactly."""
        t = self.terms([[order[a]], [order[b]]], [a, b])  # [element, slot]
        return sums + t[0, 1] + t[1, 0] - t[0, 0] - t[1, 1]

    def score(self, sums: np.ndarray) -> float:
        """f_P from the per-sample sums; the power is even, so |S|**power
        is (re**2 + im**2)**(power/2)."""
        re, im = sums * 2.0 ** -FIXED_BITS
        mag2 = (re * re + im * im) * self._snapshot_power
        total = np.sum(mag2 ** (self.config.power // 2))
        return float(self.volume * total / self.config.samples)


DB_FLOOR = -100.0


@dataclass(frozen=True)
class AmbiguitySurface:
    """|X| on a (angle offset, Doppler difference) grid around a fixed reference."""

    doppler_hz: np.ndarray        # (Nd,) Doppler-difference axis
    angle_offset_deg: np.ndarray  # (Na,) angle offsets from the reference
    angle_axis: str               # "eoa" or "aoa"
    magnitude: np.ndarray         # (Na, Nd) linear |X|
    reference: StructuralParams

    def __post_init__(self):
        for name in ("doppler_hz", "angle_offset_deg", "magnitude"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.magnitude.shape != (self.angle_offset_deg.size, self.doppler_hz.size):
            raise ValueError("magnitude shape must be (n_angles, n_dopplers)")

    @property
    def magnitude_db(self) -> np.ndarray:
        return 20.0 * np.log10(np.maximum(self.magnitude, 10 ** (DB_FLOOR / 20.0)))


def sweep_directions(mu: StructuralParams, angle_offset_deg,
                     angle_axis: str = "eoa") -> tuple[np.ndarray, np.ndarray]:
    """Azimuths and elevations of a sweep's angle offsets around mu."""
    offsets = np.radians(np.asarray(angle_offset_deg, dtype=float))
    if angle_axis == "eoa":
        el = mu.rx_elevation + offsets
        if np.any(el < 0) or np.any(el > math.pi):
            raise ValueError("elevation sweep leaves [0, pi]; narrow the grid")
        return np.full_like(el, mu.rx_azimuth), el
    if angle_axis == "aoa":
        az = np.mod(mu.rx_azimuth + offsets, 2 * math.pi)
        return az, np.full_like(az, mu.rx_elevation)
    raise ValueError("angle_axis must be 'eoa' or 'aoa'")


def ambiguity_surface(array: ArrayModel, seq: SwitchingSequence,
                      mu: StructuralParams, doppler_hz, angle_offset_deg,
                      angle_axis: str = "eoa") -> AmbiguitySurface:
    """Sweep mu' over Doppler differences and angle offsets with mu fixed.

    The angle axis offsets either the elevation ("eoa") or the azimuth
    ("aoa") of arrival relative to the reference.
    """
    doppler_hz = np.asarray(doppler_hz, dtype=float)
    angle_offset_deg = np.asarray(angle_offset_deg, dtype=float)
    if doppler_hz.size == 0 or angle_offset_deg.size == 0:
        raise ValueError("sweep grids must be non-empty")
    if np.any(np.diff(doppler_hz) <= 0) or np.any(np.diff(angle_offset_deg) <= 0):
        raise ValueError("sweep grids must be strictly increasing")

    az, el = sweep_directions(mu, angle_offset_deg, angle_axis)
    b_ref = basis(array, seq, mu)
    norm_ref = np.linalg.norm(b_ref)
    if norm_ref == 0.0:
        raise DegenerateDirectionError("reference direction has zero array response")

    g = steering_matrix(array, az, el)                      # (Na, M)
    g_tiled = np.tile(g, (1, seq.snapshots))                # (Na, M*S)
    norms = np.linalg.norm(g_tiled, axis=1)
    if np.any(norms == 0.0):
        raise DegenerateDirectionError("sweep contains a zero-response direction")

    eta = seq.eta()
    nu_prime = mu.doppler_hz + doppler_hz
    phases = np.exp(2j * math.pi * np.outer(eta, nu_prime))  # (M*S, Nd)
    numer = (np.conj(b_ref)[None, :] * g_tiled) @ phases     # (Na, Nd)
    mag = np.abs(numer) / (norm_ref * norms[:, None])
    return AmbiguitySurface(doppler_hz, angle_offset_deg, angle_axis, mag, mu)


def save_surface_csv(surface: AmbiguitySurface, path: str | Path,
                     metadata: dict | None = None) -> None:
    """Write the surface in dB as long-format CSV plus a JSON sidecar."""
    path = Path(path)
    # the bytes csv.writer gives for repr'd floats (never quoted), written
    # one angle row per call so the file is never held in memory whole
    dopplers = [repr(d) for d in surface.doppler_hz.tolist()]
    with open(path, "w", newline="") as fh:
        fh.write("delta_doppler_hz,angle_deg,magnitude_db\r\n")
        for angle, row in zip(surface.angle_offset_deg.tolist(), surface.magnitude_db):
            mid = f",{angle!r},"
            fh.write("".join(f"{d}{mid}{v!r}\r\n"
                             for d, v in zip(dopplers, row.tolist())))
    sidecar = {
        "angle_axis": surface.angle_axis,
        "angle_offset_deg": [float(x) for x in surface.angle_offset_deg],
        "delta_doppler_hz": [float(x) for x in surface.doppler_hz],
        "reference": {
            "rx_azimuth_rad": surface.reference.rx_azimuth,
            "rx_elevation_rad": surface.reference.rx_elevation,
            "doppler_hz": surface.reference.doppler_hz,
        },
    }
    if metadata:
        sidecar.update(metadata)
    path.with_suffix(path.suffix + ".meta.json").write_text(
        json.dumps(sidecar, indent=2) + "\n"
    )
