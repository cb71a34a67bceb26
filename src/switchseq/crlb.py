"""Estimation bounds: closed-form CRLBs for arrival azimuth and Doppler, and
an independent numeric Fisher-information pipeline built on central finite
differences of the noise-free signal mean.

The numeric pipeline deliberately shares nothing with the closed forms so it
can act as their oracle: variances come from the full FIM inverse, with the
reciprocal-diagonal shortcut exposed separately so the gap between the two
is measurable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arrays import ArrayModel
from .signal import StructuralParams, basis
from .switching import SwitchingSequence

PARAM_NAMES = ("phi", "nu", "r", "psi")


class EndfireSingularityError(ValueError):
    """The azimuth bound diverges at endfire (sin phi = 0)."""


class UnobservableDopplerError(ValueError):
    """All activation instants coincide, so Doppler is unobservable."""


class SingularFIMError(ValueError):
    """The Fisher information matrix is numerically singular or not finite;
    null_combination is None in the second case."""

    def __init__(self, message: str, null_combination: np.ndarray | None):
        super().__init__(message)
        self.null_combination = null_combination


@dataclass(frozen=True)
class ParamVector:
    """Single-path parameter point: azimuth, Doppler, amplitude, phase."""

    azimuth: float
    doppler_hz: float
    amplitude: float
    phase: float

    def __post_init__(self):
        if not self.amplitude > 0:
            raise ValueError("amplitude must be positive")


@dataclass(frozen=True)
class CRLBResult:
    """Numeric FIM and the bounds extracted from its full inverse.

    off_diag_ratio is the largest off-diagonal magnitude normalized by the
    geometric mean of the corresponding diagonal entries; it quantifies how
    well the diagonal (reciprocal) approximation holds.
    """

    var_phi: float
    var_nu: float
    var_r: float
    var_psi: float
    fim: np.ndarray
    off_diag_ratio: float

    @property
    def reciprocal_diagonal(self) -> np.ndarray:
        """Shortcut bounds 1/F_ii (valid only when off-diagonals are negligible)."""
        return 1.0 / np.diag(self.fim)


def crlb_aoa(num_elements: int, spacing: float, wavelength: float,
             azimuth: float, amplitude: float, noise_sigma: float) -> float:
    """Closed-form azimuth variance bound for an omni ULA, in rad^2.

    Depends on the element count and geometry only, never on the switching
    sequence.
    """
    if num_elements < 2:
        raise ValueError("azimuth is unobservable with fewer than 2 elements")
    if spacing <= 0 or wavelength <= 0:
        raise ValueError("spacing and wavelength must be positive")
    s = math.sin(azimuth)
    if abs(s) < 1e-12:
        raise EndfireSingularityError(f"azimuth bound diverges at endfire (phi={azimuth})")
    geom = wavelength / (2.0 * math.pi * spacing * s)
    return (
        noise_sigma ** 2 * 6.0
        / (amplitude ** 2 * num_elements * (num_elements ** 2 - 1))
        * geom ** 2
    )


def crlb_doppler(eta: np.ndarray, amplitude: float, noise_sigma: float) -> float:
    """Closed-form Doppler variance bound from a centered activation vector, Hz^2."""
    eta = np.asarray(eta, dtype=float)
    # an overflowing norm gives the bound's limit, 0, without a warning
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(eta)
    if norm == 0.0:
        raise UnobservableDopplerError("centered activation vector has zero norm")
    return 0.125 * (noise_sigma / (amplitude * math.pi * norm)) ** 2


def signal_mean(array: ArrayModel, seq: SwitchingSequence, params: ParamVector,
                elevation: float = math.pi / 2) -> np.ndarray:
    """Noise-free received mean for the four-parameter single-path model."""
    mu = StructuralParams(params.azimuth % (2 * math.pi), elevation,
                          params.doppler_hz)
    return params.amplitude * np.exp(1j * params.phase) * basis(array, seq, mu)


def gain_phase_jacobian(array: ArrayModel, seq: SwitchingSequence,
                        params: ParamVector,
                        elevation: float = math.pi / 2) -> tuple[np.ndarray, np.ndarray]:
    """Analytic d s/d r and d s/d psi, used to cross-check the FD machinery."""
    s = signal_mean(array, seq, params, elevation)
    return s / params.amplitude, 1j * s


# activation instants so large that the eta norm, the Jacobian or the FIM
# overflow give non-finite values, reported as one error instead of warnings
@np.errstate(over="ignore", invalid="ignore")
def fim_matrix(array: ArrayModel, seq: SwitchingSequence, params: ParamVector,
               noise_sigma: float, elevation: float = math.pi / 2) -> np.ndarray:
    """Fisher information matrix via central finite differences, symmetrized.

    The Doppler step is scaled by 1/||eta|| so the induced phase perturbation
    stays O(1e-3) rad for any sequence length. A FIM that is not finite
    raises SingularFIMError.
    """
    if noise_sigma <= 0:
        raise ValueError("noise sigma must be positive")
    eta_norm = np.linalg.norm(seq.eta())
    steps = np.array([
        1e-6,                                    # azimuth, rad
        1e-3 / eta_norm if eta_norm > 0 else 1.0,  # Doppler, Hz
        1e-6 * params.amplitude,                 # amplitude
        1e-6,                                    # phase, rad
    ])

    theta0 = np.array([params.azimuth, params.doppler_hz,
                       params.amplitude, params.phase])

    def mean_at(theta: np.ndarray) -> np.ndarray:
        p = ParamVector(theta[0], theta[1], theta[2], theta[3])
        return signal_mean(array, seq, p, elevation)

    n = array.num_elements * seq.snapshots
    jac = np.empty((n, 4), dtype=complex)
    for i in range(4):
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


def fim_numeric(array: ArrayModel, seq: SwitchingSequence, params: ParamVector,
                noise_sigma: float, elevation: float = math.pi / 2) -> CRLBResult:
    """Numeric bounds: FD Fisher information, variances from the full inverse."""
    fim = fim_matrix(array, seq, params, noise_sigma, elevation)

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
        var_phi=float(cov[0, 0]),
        var_nu=float(cov[1, 1]),
        var_r=float(cov[2, 2]),
        var_psi=float(cov[3, 3]),
        fim=fim,
        off_diag_ratio=ratio,
    )
