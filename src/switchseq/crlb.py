"""Estimation bounds: closed-form CRLBs for arrival azimuth and Doppler, and
an independent numeric Fisher-information pipeline built on central finite
differences of the noise-free signal mean. The closed forms hold at any
elevation of the path and depend on it only through its SNR, so they take
the noise sigma relative to the path's amplitude, 1/sqrt(SNR).

The numeric pipeline deliberately shares nothing with the closed forms so it
can act as their oracle: variances come from the full FIM inverse, with the
reciprocal-diagonal shortcut exposed separately so the gap between the two
is measurable. It differentiates the path's azimuth and Doppler and its
complex amplitude r exp(j psi), taken at r = 1 and psi = 0: the noise sigma
is relative to the amplitude, and no bound depends on the phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .arrays import WAVELENGTH, ArrayModel, StructuralParams, basis
from .switching import SwitchingSequence

# the FIM's parameters: azimuth, Doppler, amplitude and phase
PARAM_NAMES = ("phi", "nu", "r", "psi")


class EndfireSingularityError(ValueError, ArithmeticError):
    """The azimuth bound diverges at endfire (sin phi sin theta = 0)."""


class UnobservableDopplerError(ValueError, ArithmeticError):
    """All activation instants coincide, so Doppler is unobservable."""


class SingularFIMError(ValueError, ArithmeticError):
    """The Fisher information matrix is numerically singular or not finite;
    null_combination is None in the second case."""

    def __init__(self, message: str, null_combination: np.ndarray | None):
        super().__init__(message)
        self.null_combination = null_combination


@dataclass(frozen=True)
class CRLBResult:
    """Numeric FIM and the bounds extracted from its full inverse.

    off_diag_ratio is the largest off-diagonal magnitude normalized by the
    geometric mean of the corresponding diagonal entries; it quantifies how
    well the diagonal (reciprocal) approximation holds.
    """

    variances: dict[str, float]  # keyed by PARAM_NAMES
    fim: np.ndarray
    off_diag_ratio: float

    @property
    def reciprocal_diagonal(self) -> np.ndarray:
        """Shortcut bounds 1/F_ii (valid only when off-diagonals are negligible)."""
        return 1.0 / np.diag(self.fim)


def crlb_aoa(num_elements: int, spacing_wavelengths: float, azimuth: float,
             elevation: float, noise_sigma: float, snapshots: int) -> float:
    """Closed-form azimuth variance bound for an omni ULA along x, in rad^2,
    at any elevation, with the spacing in wavelengths as make_ula takes it.
    Its geometry term is lambda / (2 pi d sin phi sin theta), d in metres.
    Each of the snapshots observes the whole array once, so the bound falls
    as 1/snapshots.

    Depends on the element count, the snapshot count and geometry only, never
    on the switching order.
    """
    if num_elements < 2:
        raise ValueError("azimuth is unobservable with fewer than 2 elements")
    spacing = spacing_wavelengths * WAVELENGTH
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    s = math.sin(azimuth) * math.sin(elevation)
    if abs(s) < 1e-12:
        raise EndfireSingularityError("azimuth bound diverges at endfire "
                                      f"(phi={azimuth}, theta={elevation})")
    geom = WAVELENGTH / (2.0 * math.pi * spacing * s)
    return (
        noise_sigma ** 2 * 6.0
        / (float(num_elements) * (num_elements ** 2 - 1) * snapshots)
        * geom ** 2
    )


def crlb_doppler(eta: np.ndarray, noise_sigma: float) -> float:
    """Closed-form Doppler variance bound from a centered activation vector, Hz^2."""
    eta = np.asarray(eta, dtype=float)
    # an overflowing norm gives the bound's limit, 0, without a warning
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(eta)
    if norm == 0.0:
        raise UnobservableDopplerError("centered activation vector has zero norm")
    return 0.125 * (noise_sigma / (math.pi * norm)) ** 2


# activation instants so large that the eta norm, the Jacobian or the FIM
# overflow give non-finite values, reported as one error instead of warnings
@np.errstate(over="ignore", invalid="ignore")
def fim_matrix(array: ArrayModel, seq: SwitchingSequence, params: StructuralParams,
               noise_sigma: float) -> np.ndarray:
    """Fisher information matrix via central finite differences, symmetrized,
    of the PARAM_NAMES at the path's azimuth and Doppler, amplitude 1.0 and
    phase 0.0; the elevation is held fixed.

    The Doppler step is scaled by 1/||eta|| so the induced phase perturbation
    stays O(1e-3) rad for any sequence length. A FIM that is not finite
    raises SingularFIMError.
    """
    if noise_sigma <= 0:
        raise ValueError("noise sigma must be positive")
    eta_norm = np.linalg.norm(seq.eta())
    steps = np.array([  # in PARAM_NAMES order
        1e-6,                                    # azimuth, rad
        1e-3 / eta_norm if eta_norm > 0 else 1.0,  # Doppler, Hz
        1e-6,                                    # amplitude
        1e-6,                                    # phase, rad
    ])
    theta0 = np.array([params.rx_azimuth, params.doppler_hz, 1.0, 0.0])

    def mean_at(theta: np.ndarray) -> np.ndarray:
        """Noise-free received mean of the single-path model at theta."""
        azimuth, doppler, amplitude, phase = theta
        mu = replace(params, rx_azimuth=azimuth, doppler_hz=doppler)
        return amplitude * np.exp(1j * phase) * basis(array, seq, mu)

    n = array.num_elements * seq.snapshots
    jac = np.empty((n, len(PARAM_NAMES)), dtype=complex)
    for i in range(len(PARAM_NAMES)):
        up = theta0.copy()
        dn = theta0.copy()
        up[i] += steps[i]
        dn[i] -= steps[i]
        jac[:, i] = (mean_at(up) - mean_at(dn)) / (2.0 * steps[i])

    fim = (2.0 / noise_sigma ** 2) * np.real(jac.conj().T @ jac)
    if not np.all(np.isfinite(fim)):
        raise SingularFIMError("FIM not finite: the finite-difference Jacobian "
                               "overflows at these activation instants", None)
    return 0.5 * (fim + fim.T)


def fim_numeric(array: ArrayModel, seq: SwitchingSequence, params: StructuralParams,
                noise_sigma: float) -> CRLBResult:
    """Numeric bounds: FD Fisher information, variances from the full inverse."""
    fim = fim_matrix(array, seq, params, noise_sigma)

    # the parameters carry different units, so singularity is judged on the
    # correlation matrix D^-1/2 F D^-1/2; a zero diagonal keeps scale 1 and
    # stays a zero row
    diag = np.diag(fim)
    scale = 1.0 / np.sqrt(np.where(diag > 0, diag, 1.0))
    eigvals, eigvecs = np.linalg.eigh(fim * np.outer(scale, scale))
    tol = 1e-12 * max(abs(eigvals[-1]), 1.0)
    if eigvals[0] <= tol:
        combo = eigvecs[:, 0] * scale
        combo /= np.linalg.norm(combo)
        terms = " + ".join(
            f"{c:+.3f}*{name}" for c, name in zip(combo, PARAM_NAMES) if abs(c) > 1e-3
        )
        raise SingularFIMError(
            f"FIM singular: unidentifiable combination {terms}", combo
        )

    cov = np.linalg.inv(fim)
    off = fim - np.diag(diag)
    ratio = float(np.max(np.abs(off) / np.sqrt(np.outer(diag, diag))))
    return CRLBResult(
        variances={n: float(v) for n, v in zip(PARAM_NAMES, np.diag(cov))},
        fim=fim,
        off_diag_ratio=ratio,
    )
