import math

import numpy as np
import pytest

from switchseq import (StructuralParams, basis, basis_from_eta, make_octagonal,
                       make_ula, sequential, steering_matrix)

BROADSIDE = StructuralParams(math.pi / 2, math.pi / 2, 0.0)


def doppler_vector(seq, doppler_hz):
    """The Doppler phase progression of a sequence: the basis of a broadside
    omni ULA, whose steering vector is all ones."""
    arr = make_ula(seq.num_elements, 0.5, 1.0)
    return basis(arr, seq, StructuralParams(math.pi / 2, math.pi / 2, doppler_hz))


def test_doppler_vector_zero_doppler_is_ones():
    seq = sequential(8, 1e-3)
    assert np.allclose(doppler_vector(seq, 0.0), np.ones(8))


def test_doppler_vector_unimodular(rng):
    seq = sequential(16, 1e-3)
    for nu in rng.uniform(-5e3, 5e3, 10):
        assert np.allclose(np.abs(doppler_vector(seq, nu)), 1.0)


def test_doppler_vector_quarter_turn():
    # centered instants of a 2-slot sequence at 1 ms are -+0.5 ms;
    # 250 Hz then advances the phase by -+pi/4
    seq = sequential(2, 1e-3)
    v = doppler_vector(seq, 250.0)
    assert np.allclose(v, [np.exp(-1j * math.pi / 4), np.exp(1j * math.pi / 4)])


def test_doppler_vector_exponential_additivity(rng):
    seq = sequential(8, 1e-3)
    for _ in range(10):
        n1, n2 = rng.uniform(-2e3, 2e3, 2)
        assert np.allclose(doppler_vector(seq, n1) * doppler_vector(seq, n2),
                           doppler_vector(seq, n1 + n2), atol=1e-12)


def test_basis_zero_doppler_equals_tiled_steering():
    arr = make_ula(4, 0.5, 1.0)
    seq = sequential(4, 1e-3, snapshots=3)
    mu = StructuralParams(1.1, 1.3, 0.0)
    b = basis(arr, seq, mu)
    steer = steering_matrix(arr, 1.1, 1.3)
    assert np.allclose(b, np.tile(steer, 3), atol=1e-12)


def test_basis_broadside_all_ones():
    arr = make_ula(8, 0.5, 1.0)
    b = basis(arr, sequential(8, 1e-3), BROADSIDE)
    assert np.allclose(b, np.ones(8), atol=1e-12)


def test_basis_norm_is_gain_power_times_snapshots():
    arr = make_octagonal(8, 2, 2, patch_exponent=2.0)
    seq = sequential(arr.num_elements, 1e-4, snapshots=2)
    mu = StructuralParams(0.3, 1.2, 321.0)
    b = basis(arr, seq, mu)
    g = arr.gain_matrix(0.3, 1.2)
    assert np.linalg.norm(b) ** 2 == pytest.approx(2 * np.sum(np.abs(g) ** 2))


def test_basis_conjugate_under_doppler_sign_flip():
    # broadside omni ULA has a real steering part
    arr = make_ula(8, 0.5, 1.0)
    seq = sequential(8, 1e-3)
    plus = basis(arr, seq, StructuralParams(math.pi / 2, math.pi / 2, 700.0))
    minus = basis(arr, seq, StructuralParams(math.pi / 2, math.pi / 2, -700.0))
    assert np.allclose(minus, np.conj(plus), atol=1e-12)


def test_basis_from_eta_length_check():
    arr = make_ula(4, 0.5, 1.0)
    with pytest.raises(ValueError):
        basis_from_eta(arr, np.zeros(6), BROADSIDE)


def test_basis_rejects_mismatched_sequence():
    arr = make_ula(4, 0.5, 1.0)
    with pytest.raises(ValueError):
        basis(arr, sequential(5, 1e-3), BROADSIDE)


def test_snr_definition_plumbing(rng):
    # SNR = r^2 * sum|g|^2 / (M * sigma^2) for the omni array equals r^2/sigma^2
    arr = make_ula(8, 0.5, 1.0)
    amplitude = 3.0
    sigma = 0.5
    g = arr.gain_matrix(1.0, 1.0)
    snr = amplitude ** 2 * np.sum(np.abs(g) ** 2) / (8 * sigma ** 2)
    assert snr == pytest.approx(amplitude ** 2 / sigma ** 2)


def test_structural_params_validation():
    with pytest.raises(ValueError):
        StructuralParams(0.0, 1.0, math.nan)
    # StructuralParams is the one owner of the direction checks
    for azimuth in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="azimuth .* outside"):
            StructuralParams(azimuth, 1.0, 0.0)
    for elevation in (-1e-9, math.pi + 1e-9, 4.0, math.nan):
        with pytest.raises(ValueError, match=r"elevation .* outside \[0, pi\]"):
            StructuralParams(0.0, elevation, 0.0)
    assert StructuralParams(0.0, 0.0, 0.0).rx_elevation == 0.0
    assert StructuralParams(0.0, math.pi, 0.0).rx_elevation == math.pi
    p = StructuralParams(1.0, 2.0, 3.0)
    assert (p.rx_azimuth, p.rx_elevation, p.doppler_hz) == (1.0, 2.0, 3.0)
    # any finite azimuth is kept wrapped into [0, 2*pi)
    assert StructuralParams(-0.5, 1.0, 0.0).rx_azimuth == pytest.approx(2 * math.pi - 0.5)
    assert StructuralParams(7.0, 1.0, 0.0).rx_azimuth == pytest.approx(7.0 - 2 * math.pi)
    assert StructuralParams(-1e-20, 1.0, 0.0).rx_azimuth == 0.0
    assert StructuralParams(2 * math.pi, 1.0, 0.0).rx_azimuth == 0.0
