import math
from dataclasses import replace

import numpy as np
import pytest

from switchseq import (EndfireSingularityError, SingularFIMError, StructuralParams,
                       UnobservableDopplerError, crlb_aoa, crlb_doppler,
                       fim_matrix, fim_numeric, make_ula, random_init,
                       sequential)
from switchseq.config import ExperimentConfig

from conftest import balance_score, balanced_sequence, readme_config
from oracles import gain_phase_jacobian

SIGMA = 0.1
PARAMS = StructuralParams(rx_azimuth=math.pi / 2, rx_elevation=math.pi / 2,
                          doppler_hz=0.0)


def test_crlb_aoa_noise_scaling():
    base = crlb_aoa(8, 0.5, 1.0, math.pi / 3, math.pi / 2, SIGMA, 1)
    assert crlb_aoa(8, 0.5, 1.0, math.pi / 3, math.pi / 2,
                    2 * SIGMA, 1) == pytest.approx(4 * base)


def test_crlb_aoa_endfire_singularity():
    # sin phi sin theta = 0: along the array's axis, or at the zenith
    for phi, theta in ((0.0, math.pi / 2), (math.pi, math.pi / 2),
                       (math.pi / 2, 0.0), (math.pi / 2, math.pi)):
        with pytest.raises(EndfireSingularityError):
            crlb_aoa(8, 0.5, 1.0, phi, theta, SIGMA, 1)


def test_crlb_aoa_needs_two_elements():
    with pytest.raises(ValueError):
        crlb_aoa(1, 0.5, 1.0, math.pi / 2, math.pi / 2, SIGMA, 1)


def test_crlb_aoa_needs_a_positive_spacing_and_wavelength():
    for spacing, wavelength in ((0.0, 1.0), (-0.5, 1.0), (0.5, 0.0)):
        with pytest.raises(ValueError, match="spacing and wavelength"):
            crlb_aoa(8, spacing, wavelength, math.pi / 2, math.pi / 2, SIGMA, 1)


def test_fim_matrix_refuses_a_non_positive_sigma_and_an_overflowing_fim():
    arr = make_ula(8, 0.5, 1.0)
    for sigma in (0.0, -SIGMA):
        with pytest.raises(ValueError, match="noise sigma"):
            fim_matrix(arr, sequential(8, 1e-3), PARAMS, sigma)
    # at activation instants of 1e300 s the Doppler column overflows
    with pytest.raises(SingularFIMError, match="not finite"):
        fim_matrix(arr, sequential(8, 1e300), PARAMS, SIGMA)


def test_crlb_aoa_sequence_independent():
    # the bound uses only element count and geometry, never the order
    v = crlb_aoa(16, 0.5, 1.0, math.pi / 4, math.pi / 2, SIGMA, 1)
    assert v == crlb_aoa(16, 0.5, 1.0, math.pi / 4, math.pi / 2, SIGMA, 1)


def test_crlb_doppler_time_scaling():
    eta = sequential(16, 1e-3).eta()
    base = crlb_doppler(eta, SIGMA)
    assert crlb_doppler(3.0 * eta, SIGMA) == pytest.approx(base / 9.0)


def test_crlb_doppler_zero_norm():
    with pytest.raises(UnobservableDopplerError):
        crlb_doppler(np.zeros(4), SIGMA)


def test_crlb_doppler_monotone_in_measurement_time():
    # more slots -> larger ||eta|| -> smaller bound
    bounds = [crlb_doppler(sequential(m, 1e-3).eta(), SIGMA)
              for m in (16, 32, 64, 128)]
    assert all(a > b for a, b in zip(bounds, bounds[1:]))


def test_closed_forms_match_numeric_for_balanced_sequence():
    # balanced permutation kills the angle-Doppler coupling, so the full
    # inverse agrees with the reciprocal diagonal and with the closed forms
    seq = balanced_sequence(8, 1e-4)
    arr = make_ula(8, 0.5, 1.0)
    res = fim_numeric(arr, seq, PARAMS, SIGMA)
    assert res.off_diag_ratio < 1e-4
    cf_phi = crlb_aoa(8, 0.5, 1.0, PARAMS.rx_azimuth, PARAMS.rx_elevation,
                      SIGMA, 1)
    cf_nu = crlb_doppler(seq.eta(), SIGMA)
    assert res.variances["phi"] == pytest.approx(cf_phi, rel=5e-3)
    assert res.variances["nu"] == pytest.approx(cf_nu, rel=5e-3)


def test_sequential_fim_entries_match_closed_forms():
    # sequential switching couples azimuth and Doppler (that is the aliasing),
    # so compare raw FIM entries, which the closed forms invert directly
    m, dt = 128, 1e-4
    seq = sequential(m, dt)
    arr = make_ula(m, 0.5, 1.0)
    fim = fim_matrix(arr, seq, PARAMS, SIGMA)
    cf_phi = crlb_aoa(m, 0.5, 1.0, PARAMS.rx_azimuth, PARAMS.rx_elevation,
                      SIGMA, 1)
    cf_nu = crlb_doppler(seq.eta(), SIGMA)
    assert 1.0 / fim[0, 0] == pytest.approx(cf_phi, rel=5e-3)
    assert 1.0 / fim[1, 1] == pytest.approx(cf_nu, rel=5e-3)


def test_fim_amplitude_row_analytic():
    arr = make_ula(8, 0.5, 1.0)
    seq = sequential(8, 1e-3)
    fim = fim_matrix(arr, seq, PARAMS, SIGMA)
    g = arr.gain_matrix(PARAMS.rx_azimuth, math.pi / 2)
    expected_rr = 2.0 * np.sum(np.abs(g) ** 2) / SIGMA ** 2
    assert fim[2, 2] == pytest.approx(expected_rr, rel=1e-6)
    # phase row: |ds/dpsi|^2 = r^2 |b|^2, at r = 1
    assert fim[3, 3] == pytest.approx(expected_rr, rel=1e-6)


def test_fd_matches_analytic_gain_phase_columns():
    arr = make_ula(8, 0.5, 1.0)
    seq = sequential(8, 1e-3)
    ds_dr, ds_dpsi = gain_phase_jacobian(arr, seq, PARAMS)
    fim = fim_matrix(arr, seq, PARAMS, SIGMA)
    assert fim[2, 2] == pytest.approx(
        2.0 / SIGMA ** 2 * np.sum(np.abs(ds_dr) ** 2), rel=1e-6)
    assert fim[3, 3] == pytest.approx(
        2.0 / SIGMA ** 2 * np.sum(np.abs(ds_dpsi) ** 2), rel=1e-6)
    assert fim[2, 3] == pytest.approx(
        2.0 / SIGMA ** 2 * np.real(np.vdot(ds_dr, ds_dpsi)), abs=1e-3)


def test_fim_positive_semidefinite(rng):
    arr = make_ula(16, 0.5, 1.0)
    for _ in range(5):
        seq = random_init(16, 1e-4, 1, rng)
        p = StructuralParams(rng.uniform(0.4, math.pi - 0.4), math.pi / 2,
                             rng.uniform(-500, 500))
        fim = fim_matrix(arr, seq, p, SIGMA)
        eig = np.linalg.eigvalsh(fim)
        assert eig.min() > -1e-6 * np.trace(fim)


def test_full_inverse_matches_diagonal_when_decoupled(rng):
    # the 1% agreement contract whenever off_diag_ratio < 0.05
    arr = make_ula(8, 0.5, 1.0)
    checked = 0
    for seed in range(12):
        seq = random_init(8, 1e-4, 1, np.random.default_rng(seed))
        res = fim_numeric(arr, seq, PARAMS, SIGMA)
        if res.off_diag_ratio < 0.05:
            recip = res.reciprocal_diagonal
            assert res.variances["phi"] == pytest.approx(recip[0], rel=0.01)
            assert res.variances["nu"] == pytest.approx(recip[1], rel=0.01)
            checked += 1
    seq = balanced_sequence(8, 1e-4)
    res = fim_numeric(arr, seq, PARAMS, SIGMA)
    assert res.off_diag_ratio < 0.05
    assert res.variances["phi"] == pytest.approx(res.reciprocal_diagonal[0], rel=0.01)
    assert checked >= 0  # balanced case above guarantees a non-vacuous check


def test_singular_fim_names_combination():
    # one antenna: azimuth and Doppler are both unobservable
    arr = make_ula(1, 0.5, 1.0)
    seq = sequential(1, 1e-3)
    with pytest.raises(SingularFIMError) as err:
        fim_numeric(arr, seq, PARAMS, SIGMA)
    assert err.value.null_combination.shape == (4,)
    message = str(err.value)
    assert "phi" in message or "nu" in message


def test_balance_score_helper():
    assert balance_score((0, 1, 2, 3)) > 0
    assert balance_score(balanced_sequence(16, 1e-3).order) == 0.0


def test_fim_tells_amplitude_from_phase():
    # on a centered omni ULA the amplitude and phase rows decouple from the
    # rest, and the phase row is the amplitude row scaled by A^2: at the
    # FIM's A = 1 the two rows and their bounds are equal
    arr = make_ula(8, 0.5, 1.0)
    seq = random_init(8, 1e-4, 1, np.random.default_rng(2))
    fim = fim_matrix(arr, seq, PARAMS, SIGMA)
    assert fim[3, 3] == pytest.approx(fim[2, 2], rel=1e-6)
    var = fim_numeric(arr, seq, PARAMS, SIGMA).variances
    assert var["psi"] == pytest.approx(var["r"], rel=1e-6)


def test_elevation_reaches_the_fim():
    # on a ULA along x the azimuth phase slope scales with sin(elevation),
    # so var_phi * sin^2(theta) holds and the Doppler bound does not move
    arr = make_ula(16, 0.5, 1.0)
    seq = random_init(16, 1e-4, 1, np.random.default_rng(4))
    broadside = fim_numeric(arr, seq, PARAMS, SIGMA)
    for deg in (60.0, 30.0):
        theta = math.radians(deg)
        res = fim_numeric(arr, seq, replace(PARAMS, rx_elevation=theta), SIGMA)
        assert res.variances["phi"] * math.sin(theta) ** 2 == pytest.approx(
            broadside.variances["phi"], rel=1e-8)
        assert res.variances["nu"] == pytest.approx(broadside.variances["nu"], rel=1e-8)


def test_config_crlb_carries_the_elevation():
    cfg = readme_config()
    cfg["reference"]["elevation_deg"] = 60.0
    config = ExperimentConfig.from_dict(cfg)
    assert config.reference.rx_elevation == math.radians(60.0)
    assert config.noise_sigma == 0.1
