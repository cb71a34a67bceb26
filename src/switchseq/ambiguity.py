"""Spatio-temporal ambiguity function and the integral objective over two
arrival directions on the whole sphere and their Doppler difference within
a bound, estimated with deterministic scrambled-Sobol sampling.

The objective is evaluated with a fixed low-discrepancy point set per
(seed, sample count), so comparing two sequences uses common random numbers
and repeated runs are bit-stable. An ObjectiveEvaluator precomputes the
per-sample steering cross-products (independent of the sequence), keeping
each element's only on its live samples, those where its gain product is
nonzero in both directions: elements that share a pattern object share one
sorted index of them, and a pattern live on every sample takes slice(None).
On an octagon of patches each element sees a half-space, so a quarter of
the products are kept. It also keeps two Doppler phase factor tables of
about sqrt(M) rows each, from which it forms the phase of a slot on an
element's live samples on demand (a sequence only permutes the slots).

A sequence is scored from its per-sample sums S_n = sum_m cross[m, n] *
P[slot_m, n], held as exact int64 fixed-point numbers: each term is rounded
to a multiple of 2**-FIXED_BITS from real multiplies and adds only, which
round the same whatever the array shape, and integer addition is exact, so
an element's terms add into the sums at its live samples in any order.
f_P is the total() of the samples' contributions(). A swap of two slots
moves two elements' terms, so propose() gives exactly the integers of a
fresh sample_sums, and recomputes the contributions only on the two
elements' live samples: every annealing proposal is scored equal to
evaluate() bit for bit (the tests assert ==).

ambiguity_surface sweeps the first snapshot only, writing |X| a block of
Doppler columns at a time, and scales each column by the snapshot gain,
since every snapshot repeats the first M*delta_t later: its arrays and
time do not grow with snapshots, nor its temporaries with the Dopplers.

The points come from sobol_points, a numpy scrambled Sobol generator whose
output is byte-identical to scipy.stats.qmc.Sobol(d=5, scramble=True,
seed=seed).random(n); scipy serves only as the tests' reference, so no
command imports it.

save_surface_csv writes the bytes csv.writer gives for rows of repr'd
floats, but formats the dB values a block of cells at a time with
_repr_words, an exact array formatter: it gives repr's shortest digits by
integer and floating-point arithmetic (Dekker's two-product, Clinger's fast
path) and leaves to repr the few values it does not cover. The tests hold
it to repr on millions of doubles. surface_sidecar gives the CSV's JSON
sidecar: the axes, the reference, then the metadata given.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .arrays import (ArrayModel, StructuralParams, basis, steering_matrix,
                     unit_vectors)
from .switching import SwitchingSequence


class DegenerateDirectionError(ValueError, ArithmeticError):
    """All element gains vanish for a direction, so the basis has zero norm."""


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


def snapshot_gain(dnu: np.ndarray, m: int, delta_t: float,
                  snapshots: int) -> np.ndarray:
    """|sum_s exp(2*pi*i*dnu*s*m*delta_t)| over snapshots s, each Doppler
    difference dnu: the gain of repeating an M-slot switching cycle;
    exactly 1.0 at one snapshot."""
    offsets = np.arange(snapshots) * m * delta_t
    return np.abs(np.exp(2j * math.pi * np.outer(dnu, offsets)).sum(axis=1))


# Sample sums are int64 multiples of 2**-FIXED_BITS. |term| <= |cross[m, n]|
# as |P| = 1, and by Cauchy-Schwarz sum_m |cross[m, n]| = sum_m |g_m||g'_m| /
# (S ||g|| ||g'||) <= 1/S <= 1 (up to rounding), so a sum stays within about
# 2**61 + M, and a sum plus one moved element's term difference in propose
# within 3 * 2**61 < 2**63.
FIXED_BITS = 61
_BLOCK_ENTRIES = 2 ** 15  # samples x elements per block of the build


class ObjectiveEvaluator:
    """Precomputed QMC machinery for evaluating f_P, its Doppler difference
    within +-doppler_bound (Hz), over many sequences.

    All sequences passed to evaluate() must share the element count, slot
    duration, and snapshot count given at construction; those fix the sample
    points and steering products (common random numbers).
    """

    def __init__(self, array: ArrayModel, doppler_bound: float,
                 config: ObjectiveConfig, delta_t: float, snapshots: int = 1):
        if not doppler_bound > 0:
            raise ValueError("doppler bound must be positive")
        self.array = array
        self.config = config
        self.delta_t = float(delta_t)
        self.snapshots = int(snapshots)

        m = array.num_elements
        n = config.samples
        u = sobol_points(n, config.seed)

        # uniform angles, or with sin_elevation cos(theta) uniform on [-1, 1]
        phi = u[:, 0] * (2.0 * math.pi)
        phi_p = u[:, 2] * (2.0 * math.pi)
        if config.sin_elevation:
            theta = np.arccos(1.0 - u[:, 1] * 2.0)
            theta_p = np.arccos(1.0 - u[:, 3] * 2.0)
            el_measure = 2.0
        else:
            theta = u[:, 1] * math.pi
            theta_p = u[:, 3] * math.pi
            el_measure = math.pi
        dnu = doppler_bound * (2.0 * u[:, 4] - 1.0)
        self.volume = (2.0 * math.pi) ** 2 * el_measure ** 2 * (2.0 * doppler_bound)

        # Doppler phase of sample n in slot s, exp(2*pi*i*dnu*s*dt), is
        # coarse[s // L] * fine[s % L] with coarse rows exp(2*pi*i*dnu*lo*dt)
        # for lo = 0, L, 2L, ... and fine rows exp(2*pi*i*dnu*r*dt) for
        # r < L = ceil(sqrt(M)): term() forms the row of a slot from these
        # two tables of about sqrt(M) rows each, on an element's live
        # samples, one complex multiply per sample. They are formed before
        # the products, so that their temporaries are gone while those grow
        self._step = math.isqrt(m - 1) + 1
        self._fine = 2j * math.pi * np.outer(np.arange(self._step) * self.delta_t, dnu)
        np.exp(self._fine, out=self._fine)
        self._coarse = np.empty(((m - 1) // self._step + 1, n), dtype=complex)
        for row, lo in zip(self._coarse, range(0, m, self._step)):
            np.exp(2j * math.pi * (lo * self.delta_t) * dnu, out=row)
        # squared snapshot gain (the 1/snapshots normalization already sits
        # in the basis norms)
        self._snapshot_power = snapshot_gain(dnu, m, self.delta_t,
                                             self.snapshots) ** 2
        del dnu

        # steering cross-products conj(g_m) g'_m / (||g|| ||g'||), taken as
        # conj(G) G' exp(i k (u' - u).p) only on the samples where the gain
        # product is nonzero: a pattern object is evaluated in both
        # directions once, and its elements share the sorted index of its
        # live samples (slice(None) when it is live on every sample); the
        # products of a run of elements that share a pattern object within
        # a block are formed as one (run x live) block. A block's |G|^2 is
        # summed into power, and its scratch freed, before its products are
        # formed, so that the scratch is not held beside them
        du = unit_vectors(phi_p, theta_p) - unit_vectors(phi, theta)
        del u
        block = max(1, _BLOCK_ENTRIES // n)
        self.live = []  # per element: the samples its products are kept on
        self._cross = []  # per element: (2, live) real and imaginary rows
        power = np.zeros((2, n))  # sum_m |G_m|^2 of both directions
        pattern = None  # the last pattern object
        pattern_mag2 = np.empty((2, n))  # its |G|^2 in both directions
        for lo in range(0, m, block):
            rows = slice(lo, lo + block)
            patterns = array.patterns[rows]
            # element axis innermost in memory, as in a gain matrix: it sets
            # the order in which numpy adds the elements' |G|^2 into power
            mag2 = np.empty((2, n, len(patterns))).transpose(0, 2, 1)
            starts = [j for j, p in enumerate(patterns)
                      if j == 0 or p is not patterns[j - 1]]
            runs = []  # (first, stop, live, gain product) per run
            for j, k in zip(starts, starts[1:] + [len(patterns)]):
                if patterns[j] is not pattern:
                    pattern = patterns[j]
                    both = pattern.gain(phi, theta)
                    np.add(both.real ** 2, both.imag ** 2, out=pattern_mag2[0])
                    gain = pattern.gain(phi_p, theta_p)
                    np.add(gain.real ** 2, gain.imag ** 2, out=pattern_mag2[1])
                    np.multiply(np.conj(both, out=both), gain, out=both)
                    del gain
                    live = np.flatnonzero(both != 0.0)
                    live = slice(None) if live.size == n else live
                    both = both[live]
                mag2[:, j:k] = pattern_mag2[:, None]
                runs.append((j, k, live, both))
            power += mag2.sum(axis=1)
            del mag2
            arg = array.positions[rows] @ du.T
            arg *= array.wavenumber
            for j, k, kept, product in runs:
                terms = 1j * arg[j:k][:, kept]
                np.multiply(product, np.exp(terms, out=terms), out=terms)
                self.live += [kept] * (k - j)
                self._cross += list(np.stack([terms.real, terms.imag], axis=1))
                del terms
            del arg, runs
        del du
        ok = (power > 0.0).all(axis=0)
        self.degenerate_count = int(n - ok.sum())
        # normalised and scaled to units of 2**-FIXED_BITS; zero where a
        # direction is degenerate (its gains, and so its products, are zero)
        scale = np.where(ok, 2.0 ** FIXED_BITS, 0.0) / np.where(
            ok, self.snapshots * np.sqrt(power[0] * power[1]), 1.0)
        for live, cross in zip(self.live, self._cross):
            cross *= scale[live]

    def evaluate(self, seq: SwitchingSequence) -> float:
        """QMC estimate of f_P for one sequence."""
        return self.total(self.contributions(self.sample_sums(seq)))

    @property
    def live_fraction(self) -> float:
        """Share of the element x sample steering products kept: those
        whose gain product is nonzero."""
        n = self.config.samples
        kept = sum(n if isinstance(live, slice) else live.size for live in self.live)
        return kept / (len(self.live) * n)

    def sample_sums(self, seq: SwitchingSequence) -> np.ndarray:
        """Per-sample sums S_n = sum_m cross[m, n] * P[slot_m, n] as exact
        fixed-point integers, shape (2, samples): real and imaginary parts
        in units of 2**-FIXED_BITS."""
        if seq.num_elements != self.array.num_elements:
            raise ValueError("sequence does not match the evaluator's array")
        if seq.delta_t != self.delta_t or seq.snapshots != self.snapshots:
            raise ValueError("sequence timing does not match the evaluator")
        sums = np.zeros((2, self.config.samples), dtype=np.int64)
        for element, slot in enumerate(seq.slot_of().tolist()):
            live, term = self.live[element], self.term(element, slot)
            sums[0][live] += term[0]
            sums[1][live] += term[1]
        return sums

    def term(self, element: int, slot: int) -> np.ndarray:
        """Fixed-point term rint(2**FIXED_BITS * cross[e] * P[s]) of element
        e in slot s on the element's live samples, shape (2, live) with the
        real part before the imaginary. Only real multiplies and adds are
        used, so a term's bits do not depend on the array shape."""
        cross, phase = self._cross[element], self._phase(slot, self.live[element])
        (c_re, c_im), p_re, p_im = cross, phase.real, phase.imag
        out = np.empty(cross.shape)
        np.multiply(c_re, p_re, out=out[0])
        out[0] -= c_im * p_im
        np.multiply(c_re, p_im, out=out[1])
        out[1] += c_im * p_re
        return np.rint(out, out=out).astype(np.int64)

    def _phase(self, slot: int, live) -> np.ndarray:
        """Doppler phases exp(2*pi*i*dnu*s*dt) of slot s on the samples
        live, coarse[s // L] * fine[s % L] gathered from the two rows."""
        q, r = divmod(slot, self._step)
        return self._coarse[q][live] * self._fine[r][live]

    def propose(self, sums: np.ndarray, contributions: np.ndarray, order,
                a: int, b: int) -> tuple[np.ndarray, np.ndarray, float]:
        """Sample sums, contributions and f_P after exchanging the antennas
        of slots a and b of an activation order, given that order's sums
        and contributions: each of the two elements moves its term to its
        new slot on its own live samples, and only there do the
        contributions change, so this costs O(live samples) and equals a
        fresh evaluate() exactly."""
        sums, contributions = sums.copy(), contributions.copy()
        for element, old, new in ((order[a], a, b), (order[b], b, a)):
            live = self.live[element]
            delta = self.term(element, new) - self.term(element, old)
            sums[0][live] += delta[0]
            sums[1][live] += delta[1]
        live_a, live_b = self.live[order[a]], self.live[order[b]]
        for live in (live_a,) if live_a is live_b else (live_a, live_b):
            contributions[live] = self.contributions(sums, live)
        return sums, contributions, self.total(contributions)

    def contributions(self, sums: np.ndarray, live=slice(None)) -> np.ndarray:
        """Each sample's term of f_P on the samples live, from the sums:
        |S_n|**power times the snapshot gain's; the power is even, so
        |S|**power is (re**2 + im**2)**(power/2)."""
        re, im = sums[0][live] * 2.0 ** -FIXED_BITS, sums[1][live] * 2.0 ** -FIXED_BITS
        mag2 = (re * re + im * im) * self._snapshot_power[live]
        return mag2 ** (self.config.power // 2)

    def total(self, contributions: np.ndarray) -> float:
        """f_P from the contributions of every sample."""
        return float(self.volume * np.sum(contributions) / self.config.samples)


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
            # the caller's axes are copied before they are frozen, not magnitude
            make = np.asarray if name == "magnitude" else np.array
            arr = make(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.magnitude.shape != (self.angle_offset_deg.size, self.doppler_hz.size):
            raise ValueError("magnitude shape must be (n_angles, n_dopplers)")

    @property
    def magnitude_db(self) -> np.ndarray:
        return to_db(self.magnitude)


def to_db(magnitude: np.ndarray) -> np.ndarray:
    """20 log10 of a linear magnitude, floored at DB_FLOOR. The CSV writer
    converts a block of a surface at a time and half_power_width one row or
    column; the tests check both against the whole surface, bit for bit."""
    return 20.0 * np.log10(np.maximum(magnitude, 10 ** (DB_FLOOR / 20.0)))


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


SWEEP_COLUMNS = 256  # Doppler columns per block of the sweep


def _column_blocks(n: int):
    """Column ranges, the last of 2 to SWEEP_COLUMNS + 1: a one-column
    product goes to gemv, which rounds unlike gemm."""
    lo = 0
    while lo < n:
        hi = n if n - lo <= SWEEP_COLUMNS + 1 else lo + SWEEP_COLUMNS
        yield lo, hi
        lo = hi


def _phases(eta: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """exp(2*pi*i*eta_m*nu') of each instant and Doppler, in one buffer."""
    phases = np.zeros((eta.size, nu.size), dtype=complex)
    np.outer(eta, nu, out=phases.real)
    np.multiply(2j * math.pi, phases, out=phases)
    return np.exp(phases, out=phases)


def ambiguity_surface(array: ArrayModel, seq: SwitchingSequence,
                      mu: StructuralParams, doppler_hz, angle_offset_deg,
                      angle_axis: str = "eoa") -> AmbiguitySurface:
    """Sweep mu' over Doppler differences and angle offsets with mu fixed.

    The angle axis offsets either the elevation ("eoa") or the azimuth
    ("aoa") of arrival relative to the reference.

    Snapshot s switches every element s*M*delta_t after snapshot 0, so a
    cell is the first snapshot's normalized inner product, an
    (Na x M) @ (M x w) product per block of w Doppler columns, times
    snapshot_gain / S at its Doppler difference: the arrays do not grow with
    snapshots. At one snapshot the factor is exactly 1.
    """
    doppler_hz = np.asarray(doppler_hz, dtype=float)
    angle_offset_deg = np.asarray(angle_offset_deg, dtype=float)
    if doppler_hz.size == 0 or angle_offset_deg.size == 0:
        raise ValueError("sweep grids must be non-empty")
    if np.any(np.diff(doppler_hz) <= 0) or np.any(np.diff(angle_offset_deg) <= 0):
        raise ValueError("sweep grids must be strictly increasing")

    az, el = sweep_directions(mu, angle_offset_deg, angle_axis)
    m = array.num_elements
    b_ref = basis(array, seq, mu)[:m]  # the first snapshot
    norm_ref = np.linalg.norm(b_ref)
    if norm_ref == 0.0:
        raise DegenerateDirectionError("reference direction has zero array response")

    g = steering_matrix(array, az, el)                      # (Na, M)
    norms = np.linalg.norm(g, axis=1)
    if np.any(norms == 0.0):
        raise DegenerateDirectionError("sweep contains a zero-response direction")

    # |X| a block of Doppler columns at a time
    eta, nu = seq.eta()[:m], mu.doppler_hz + doppler_hz
    np.multiply(np.conj(b_ref)[None, :], g, out=g)
    mag = np.empty((angle_offset_deg.size, doppler_hz.size))
    for lo, hi in _column_blocks(nu.size):
        np.abs(g @ _phases(eta, nu[lo:hi]), out=mag[:, lo:hi])
    del g
    mag /= norm_ref * norms[:, None]
    mag *= snapshot_gain(doppler_hz, m, seq.delta_t, seq.snapshots) / seq.snapshots
    return AmbiguitySurface(doppler_hz, angle_offset_deg, angle_axis, mag, mu)


_POW10 = 10.0 ** np.arange(23)  # exact doubles


@functools.cache
def _repr_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The uint32 words '0000'..'9999'; the leading words, NUL NUL sign digit,
    at 10 * negative + digit; the trailing zeros of 0..9999; and the (11,
    340) keep masks of a value's words, column 17 * (k + 4) + digits - 1."""
    n = np.arange(10000, dtype=np.uint16)
    quads = np.stack([n // 10 ** j % 10 + 48 for j in (3, 2, 1, 0)], axis=1)
    lead = np.zeros((20, 4), dtype=np.uint8)
    lead[10:, 2] = ord("-")
    lead[:, 3] = 48 + np.arange(20) % 10
    zeros = sum(n % 10 ** j == 0 for j in range(1, 5)).astype(np.uint8)
    k, sig = (x.reshape(-1, 1) for x in np.meshgrid(
        np.arange(-4, 16), np.arange(1, 18), indexing="ij"))
    i = np.arange(-3, 17)  # the digit in each byte of five words
    whole = (i <= k) | (i == -1)  # the sign and the digits before the point
    point = np.hstack([k < 0, k > -5, k < -4, k < -4])  # '0' for k < 0, '.'
    frac = (i > k) & (i < np.maximum(sig, k + 2))  # pad zeros and digits after
    masks = 255 * np.hstack([whole, point, frac]).astype(np.uint8)
    tables = (quads.astype(np.uint8).view(np.uint32).ravel(),
              lead.view(np.uint32).ravel(), zeros, masks.view(np.uint32).T.copy())
    for table in tables:  # shared by every call
        table.setflags(write=False)
    return tables


_POINT, _CRLF = np.frombuffer(b"0.\0\0\r\n\0\0", dtype=np.uint32)


def _exact17(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """D17 = rint(a * 10**(16 - k)) and the residual r of a * 10**(16 - k) =
    D17 + r, both exact: Dekker's two-product of a and the exact 10**p."""
    c = _POW10[16 - k]
    p = a * c
    t, u = a * 134217729.0, c * 134217729.0  # Veltkamp splits, 26 bits each
    a1, c1 = t - (t - a), u - (u - c)
    a2, c2 = a - a1, c - c1
    lo = ((a1 * c1 - p) + a1 * c2 + a2 * c1) + a2 * c2
    n = np.rint(lo)
    return p.astype(np.int64) + n.astype(np.int64), lo - n


def _rounded(d17: np.ndarray, r: np.ndarray, unit: int) -> np.ndarray:
    """(d17 + r) / unit rounded half-even, r breaking the ties of d17."""
    q = d17 // unit
    m = d17 - q * unit
    half = unit // 2
    return q + ((m > half) | (m == half) & ((r > 0) | (r == 0) & (q & 1 == 1)))


def _repr_words(v: np.ndarray, out: np.ndarray) -> int:
    """Write repr(float(x)) of each x of the 1-D float array v, NUL-padded,
    into column j < v.size of the (11, >= v.size) uint32 array out; return
    how many values repr itself formatted.

    For 1e-4 <= |x| < 1e16, repr's positional range, the shortest digits
    that read back to x are the first of D15 and D16, |x| rounded to 15 and
    16 digits, that does, else D17: reading back is one correctly rounded
    multiply or divide of the exact double D by an exact 10**q (Clinger's
    fast path), and a string shorter than 15 digits is D15 without its
    trailing zeros. repr formats the rest, one value at a time: zero, a
    non-finite value, a power of two (its rounding interval is asymmetric),
    anything outside the range, and an odd D16 above 2**53 (not a double)
    that has to be checked."""
    a = np.abs(v)
    # a power of two has no mantissa bits
    direct = (a >= 1e-4) & (a < 1e16) & (v.view(np.int64) << 12 != 0)
    a = np.where(direct, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.int64)
    d17, r = _exact17(a, k)
    off = np.flatnonzero((d17 >= 10 ** 17) | (d17 < 10 ** 16))
    if off.size:  # log10 is one off next to a power of ten
        k[off] += np.where(d17[off] < 10 ** 16, -1, 1)
        d17[off], r[off] = _exact17(a[off], k[off])
    d16, d15 = _rounded(d17, r, 10), _rounded(d17, r, 100)
    ok15 = d15 * _POW10[np.maximum(k - 14, 0)] / _POW10[np.maximum(14 - k, 0)] == a
    exact16 = (d16 <= 2 ** 53) | (d16 & 1 == 0)
    ok16 = exact16 & (d16 / _POW10[15 - k] == a)
    direct &= ok15 | exact16
    d = np.where(ok15, d15 * 100, np.where(ok16, d16 * 10, d17))
    carry = d == 10 ** 17
    k += carry
    d[carry] = 10 ** 16

    # 11 words: the sign and first digit, the other 16 digits, '0.', three
    # pad zeros and all 17 digits again; the masks keep what repr writes
    quads, lead, zeros, masks = _repr_tables()
    chunks = np.empty((5, v.size), dtype=np.int64)  # four digits each
    for i in range(4, 0, -1):
        q = d // 10000
        chunks[i] = d - q * 10000
        d = q
    chunks[0] = d
    zeros = zeros.take(chunks[1:])
    z = zeros == 4
    sig = 17 - (zeros[3] + z[3] * (zeros[2] + z[2] * (zeros[1] + z[1] * zeros[0])))
    digits = quads.take(chunks)
    out = out[:, :v.size]
    out[0] = lead.take(chunks[0] + 10 * (v < 0))
    out[1:5] = digits[1:]
    out[5] = _POINT
    out[6:] = digits
    out &= masks.take((k + 4) * 17 + sig - 1, axis=1)
    slow = np.flatnonzero(~direct)
    if slow.size:
        out[:, slow] = np.array([repr(x).encode() for x in v[slow].tolist()],
                                dtype="S44").view(np.uint32).reshape(-1, 11).T
    return slow.size


_CSV_CELLS = 4096  # cells formatted per block of the writer


def _csv_words(values: np.ndarray) -> np.ndarray:
    """repr(x) + ',' of each value as a column of NUL-padded uint32 words."""
    text = np.array([f"{x!r},".encode() for x in values.tolist()], dtype=bytes)
    width = -(-text.itemsize // 4)
    return text.astype(f"S{4 * width}").view(np.uint32).reshape(-1, width).T.copy()


def save_surface_csv(surface: AmbiguitySurface, path: str | Path) -> None:
    """Write the surface in dB as long-format CSV."""
    # the bytes csv.writer gives for repr'd floats (never quoted), built a
    # block of cells at a time as a NUL-padded word grid, one line a column:
    # the Doppler, the angle, the value and CRLF; the NULs are then deleted
    # by bytes.translate, which takes 2/3 of the time of a boolean mask
    dopplers, angles = _csv_words(surface.doppler_hz), _csv_words(surface.angle_offset_deg)
    n_angles, n_dopplers = surface.magnitude.shape
    cols = max(1, min(n_dopplers, _CSV_CELLS))
    rows = max(1, _CSV_CELLS // cols)
    wd, wa = len(dopplers), len(angles)
    grid = np.empty((wd + wa + 12, rows * cols), dtype=np.uint32)
    grid[-1] = _CRLF
    with open(path, "wb") as fh:
        fh.write(b"delta_doppler_hz,angle_deg,magnitude_db\r\n")
        for r in range(0, n_angles, rows):
            for c in range(0, n_dopplers, cols):
                mag = surface.magnitude[r:r + rows, c:c + cols]
                block = grid[:, :mag.size]
                block[:wd].reshape(wd, *mag.shape)[...] = dopplers[:, None, c:c + cols]
                block[wd:wd + wa].reshape(wa, *mag.shape)[...] = angles[:, r:r + rows, None]
                _repr_words(to_db(mag).ravel(), block[wd + wa:-1])
                fh.write(block.T.tobytes().translate(None, b"\0"))


def surface_sidecar(surface: AmbiguitySurface, **metadata) -> dict:
    """The JSON sidecar of a surface's CSV: its axes and reference, then
    the metadata."""
    return {
        "angle_axis": surface.angle_axis,
        "angle_offset_deg": [float(x) for x in surface.angle_offset_deg],
        "delta_doppler_hz": [float(x) for x in surface.doppler_hz],
        "reference": {
            "rx_azimuth_rad": surface.reference.rx_azimuth,
            "rx_elevation_rad": surface.reference.rx_elevation,
            "doppler_hz": surface.reference.doppler_hz,
        },
        **metadata,
    }
