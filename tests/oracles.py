"""Slow reference definitions that the tests hold the package's fast forms to.

- ambiguity_value is the definition of X, the normalized inner product of
  two basis vectors, which ambiguity_surface and the objective evaluate in
  bulk;
- objective_points maps the Sobol points to the directions and Doppler
  differences over which f_P integrates, which the evaluator maps in place
  and does not keep;
- alias_scan lists every sidelobe, whose first magnitude peak_sidelobe
  finds a block of rows at a time without the list;
- gain_phase_jacobian is the analytic amplitude and phase Jacobian that the
  finite-difference FIM is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import switchseq.ambiguity
from switchseq.ambiguity import (AmbiguitySurface, DegenerateDirectionError,
                                 ObjectiveConfig)
from switchseq.analysis import _main_lobe, _max3x3
from switchseq.arrays import ArrayModel
from switchseq.crlb import ParamVector, signal_mean
from switchseq.arrays import StructuralParams, basis
from switchseq.switching import SwitchingSequence


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


def objective_points(doppler_bound: float, objective: ObjectiveConfig):
    """Sample points and volume of f_P, the integral of |X(mu, mu')|**P over
    both arrival directions on the whole sphere and the Doppler difference
    within +-doppler_bound. Sobol coordinates 0 and 2 are the azimuths on
    [0, 2 pi), 1 and 3 the elevations, uniform on [0, pi] or, with
    sin_elevation, uniform in cos on [-1, 1] (the measure of [0, pi] under
    sin is 2), and 4 the Doppler difference. Returns (azimuth, elevation,
    azimuth', elevation', Doppler difference, volume): the volume is the
    product of the five coordinates' measures."""
    u = switchseq.ambiguity.sobol_points(objective.samples, objective.seed)
    if objective.sin_elevation:
        theta, theta_p = np.arccos(1.0 - u[:, 1] * 2.0), np.arccos(1.0 - u[:, 3] * 2.0)
        el_measure = 2.0
    else:
        theta, theta_p, el_measure = u[:, 1] * math.pi, u[:, 3] * math.pi, math.pi
    volume = (2.0 * math.pi) ** 2 * el_measure ** 2 * (2.0 * doppler_bound)
    return (u[:, 0] * (2.0 * math.pi), theta, u[:, 2] * (2.0 * math.pi), theta_p,
            doppler_bound * (2.0 * u[:, 4] - 1.0), volume)


@dataclass(frozen=True)
class AliasPeak:
    doppler_hz: float
    angle_offset_deg: float
    magnitude: float


def alias_scan(surface: AmbiguitySurface) -> list[AliasPeak]:
    """Local maxima outside the main lobe (see _main_lobe), strongest
    first. The first entry (if any) is the PSL."""
    mag = surface.magnitude
    main_lobe = np.zeros(mag.shape, dtype=bool)
    main_lobe[_main_lobe(surface)] = True

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


def gain_phase_jacobian(array: ArrayModel, seq: SwitchingSequence,
                        params: ParamVector) -> tuple[np.ndarray, np.ndarray]:
    """Analytic d s/d r and d s/d psi, used to cross-check the FD machinery."""
    s = signal_mean(array, seq, params)
    return s / params.amplitude, 1j * s
