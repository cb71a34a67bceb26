"""Narrowband single-path signal model: the combined basis vector of a
path, its steering vector times its Doppler phase progression.

Only the vertical-polarization SIMO path is executable. The full
dual-polarized MIMO basis (Tx/Rx responses per polarization, Kronecker
structure, frequency basis) is out of scope here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arrays import ArrayModel, steering_matrix
from .switching import SwitchingSequence


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

