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

from .arrays import ArrayModel, Direction, steering_matrix
from .switching import SwitchingSequence


@dataclass(frozen=True)
class StructuralParams:
    """Structural parameters of one path: arrival angles and Doppler."""

    rx_azimuth: float
    rx_elevation: float
    doppler_hz: float

    def __post_init__(self):
        # keep the azimuth in [0, 2*pi) (the second % takes the 2*pi that a
        # tiny negative azimuth rounds to onto 0), then range check via Direction
        turn = 2 * math.pi
        object.__setattr__(self, "rx_azimuth", self.rx_azimuth % turn % turn)
        self.rx_direction
        if not np.isfinite(self.doppler_hz):
            raise ValueError("doppler must be finite")

    @property
    def rx_direction(self) -> Direction:
        return Direction(self.rx_azimuth, self.rx_elevation)


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

