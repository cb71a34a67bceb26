"""Narrowband single-path signal model: Doppler phase vectors, combined basis
vectors, and noisy snapshot synthesis for oracle tests.

Only the vertical-polarization SIMO path is executable. The full
dual-polarized MIMO basis (Tx/Rx responses per polarization, Kronecker
structure, frequency basis) is out of scope here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arrays import ArrayModel, Direction, steering_matrix
from .switching import SwitchingSequence


@dataclass(frozen=True)
class StructuralParams:
    """Structural parameters of one path: arrival angles and Doppler."""

    rx_azimuth: float
    rx_elevation: float
    doppler_hz: float

    def __post_init__(self):
        # range check via Direction
        Direction(self.rx_azimuth % (2 * math.pi), self.rx_elevation)
        if not np.isfinite(self.doppler_hz):
            raise ValueError("doppler must be finite")

    @classmethod
    def simo(cls, rx_azimuth: float, rx_elevation: float,
             doppler_hz: float = 0.0) -> "StructuralParams":
        """Receive-side triple of a single-input path."""
        return cls(rx_azimuth, rx_elevation, doppler_hz)

    @property
    def rx_direction(self) -> Direction:
        return Direction(self.rx_azimuth % (2 * math.pi), self.rx_elevation)


@dataclass(frozen=True)
class PathGain:
    """Complex path amplitude r*exp(j*psi)."""

    amplitude: float
    phase: float = 0.0

    def __post_init__(self):
        if self.amplitude < 0:
            raise ValueError("amplitude must be >= 0")

    @property
    def value(self) -> complex:
        return self.amplitude * np.exp(1j * self.phase)


def doppler_phase(eta: np.ndarray, doppler_hz: float) -> np.ndarray:
    """exp(j*2*pi*nu*eta) for an explicit activation-instant vector."""
    return np.exp(2j * math.pi * doppler_hz * np.asarray(eta, dtype=float))


def doppler_vector(seq: SwitchingSequence, doppler_hz: float) -> np.ndarray:
    """Unimodular Doppler progression over the centered activation instants."""
    return doppler_phase(seq.eta(centered=True), doppler_hz)


def basis_from_eta(array: ArrayModel, eta: np.ndarray,
                   mu: StructuralParams) -> np.ndarray:
    """Basis vector for explicit activation instants (length M*snapshots)."""
    eta = np.asarray(eta, dtype=float)
    m = array.num_elements
    if eta.size % m != 0:
        raise ValueError("eta length must be a multiple of the element count")
    steer = steering_matrix(array, mu.rx_azimuth % (2 * math.pi), mu.rx_elevation)
    return np.tile(steer, eta.size // m) * doppler_phase(eta, mu.doppler_hz)


def basis(array: ArrayModel, seq: SwitchingSequence,
          mu: StructuralParams) -> np.ndarray:
    """Combined basis b(mu, eta): steering vector (tiled over snapshots)
    times the Doppler phase vector."""
    if seq.num_elements != array.num_elements:
        raise ValueError("sequence and array element counts differ")
    return basis_from_eta(array, seq.eta(centered=True), mu)


def synthesize(array: ArrayModel, seq: SwitchingSequence, mu: StructuralParams,
               gain: PathGain, noise_sigma: float,
               rng: np.random.Generator) -> np.ndarray:
    """Noisy received vector: gain*basis + circular complex Gaussian noise.

    noise_sigma**2 is the total per-complex-sample variance (each quadrature
    gets half).
    """
    if noise_sigma < 0:
        raise ValueError("noise sigma must be >= 0")
    b = gain.value * basis(array, seq, mu)
    if noise_sigma > 0:
        scale = noise_sigma / math.sqrt(2.0)
        b = b + scale * (rng.standard_normal(b.size) + 1j * rng.standard_normal(b.size))
    return b
