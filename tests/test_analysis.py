import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import ndimage
from scipy.optimize import brentq

from switchseq import (AmbiguitySurface, Direction, GridTooNarrowError,
                       StructuralParams, alias_scan, ambiguity_surface,
                       block_aperture_ratio, compare_schemes, effective_factor,
                       half_power_width, make_octagonal, make_ula,
                       peak_sidelobe, random_init, sequential)
from switchseq.analysis import _max3x3

BROADSIDE = StructuralParams(math.pi / 2, math.pi / 2, 0.0)


def dirichlet_half_power_width_hz(m: int, dt: float) -> float:
    """Independent brute-force oracle: bisect |sin(M pi u)/(M sin pi u)| = 2^-1/2."""

    def mag(u):
        s = math.sin(math.pi * u)
        if abs(s) < 1e-15:
            return 1.0
        return abs(math.sin(m * math.pi * u) / (m * s))

    u_half = brentq(lambda u: mag(u) - 2 ** -0.5, 1e-9, 1.0 / m)
    return 2.0 * u_half / dt


def ula_surface(m=32, dt=1e-3, seq=None, dop_step=0.5):
    arr = make_ula(m, 0.5, 1.0)
    seq = seq if seq is not None else sequential(m, dt)
    dop = np.arange(-80.0, 80.0 + dop_step / 2, dop_step)
    ang = np.arange(-25.0, 25.0 + 0.25, 0.5)
    return arr, seq, ambiguity_surface(arr, seq, BROADSIDE, dop, ang, "aoa")


def test_half_power_width_matches_dirichlet_oracle():
    m, dt = 32, 1e-3
    _, _, surf = ula_surface(m, dt)
    report = half_power_width(surf, "doppler")
    oracle = dirichlet_half_power_width_hz(m, dt)
    assert report.width == pytest.approx(oracle, rel=5e-3)
    # and the textbook approximation as a sanity anchor
    assert report.width == pytest.approx(0.886 / (m * dt), rel=0.02)


def test_half_power_width_symmetric_interval():
    _, _, surf = ula_surface()
    report = half_power_width(surf, "doppler")
    assert report.lower == pytest.approx(-report.upper, abs=1e-9)
    assert report.lower < 0 < report.upper


def test_half_power_width_monotone_under_upsampling():
    m, dt = 16, 1e-3
    coarse_step = 4.0
    _, _, coarse = ula_surface(m, dt, dop_step=coarse_step)
    _, _, fine = ula_surface(m, dt, dop_step=coarse_step / 4)
    w_coarse = half_power_width(coarse, "doppler").width
    w_fine = half_power_width(fine, "doppler").width
    assert abs(w_coarse - w_fine) < coarse_step


def test_half_power_width_angle_axis():
    _, _, surf = ula_surface()
    report = half_power_width(surf, "aoa")
    assert report.axis == "aoa"
    assert surf.angle_offset_deg[0] < report.lower < report.upper < surf.angle_offset_deg[-1]
    with pytest.raises(ValueError):
        half_power_width(surf, "eoa")


def test_half_power_width_grid_too_narrow():
    arr = make_ula(4, 0.5, 1.0)  # wide main lobe
    seq = sequential(4, 1e-3)
    dop = np.arange(-30.0, 30.5, 1.0)  # lobe is ~220 Hz wide
    ang = np.arange(-10.0, 10.5, 0.5)
    surf = ambiguity_surface(arr, seq, BROADSIDE, dop, ang, "aoa")
    with pytest.raises(GridTooNarrowError):
        half_power_width(surf, "doppler")


def test_half_power_requires_main_peak():
    surf = AmbiguitySurface(
        doppler_hz=np.array([-1.0, 0.0, 1.0]),
        angle_offset_deg=np.array([-1.0, 0.0, 1.0]),
        angle_axis="eoa",
        magnitude=np.full((3, 3), 0.5),
        reference=BROADSIDE,
    )
    with pytest.raises(GridTooNarrowError, match="main-lobe"):
        half_power_width(surf, "doppler")


def test_effective_factor_omni_is_one():
    arr = make_ula(8, 0.5, 1.0)
    assert effective_factor(arr, Direction(1.0, 1.0), -10.0) == 1.0


def test_effective_factor_square_quarter():
    arr = make_octagonal(4, 1, 8, patch_exponent=0.0)
    xi = effective_factor(arr, Direction(math.pi / 2, math.pi / 2), -10.0)
    assert xi == 0.25


def test_effective_factor_octagon_three_eighths():
    arr = make_octagonal(patch_exponent=2.0)
    xi = effective_factor(arr, Direction(math.pi / 4, math.pi / 2), -10.0)
    assert xi == pytest.approx(3 / 8)


def test_effective_factor_non_increasing_in_threshold():
    arr = make_octagonal(patch_exponent=2.0)
    d = Direction(0.1, math.pi / 2)
    factors = [effective_factor(arr, d, t) for t in (-3.0, -6.0, -10.0, -20.0)]
    assert all(a <= b for a, b in zip(factors, factors[1:]))


def test_block_aperture_ratio_sector_octagon_is_inverse_xi():
    # equal power on the three facing panels: R* reduces to 1/xi = 8/3
    d = Direction(math.pi / 4, math.pi / 2)
    sector = make_octagonal(patch_exponent=0.0)
    r_star = block_aperture_ratio(sector, d)
    assert abs(r_star - 1.0 / effective_factor(sector, d, -10.0)) <= 1e-12
    # q = 2 patches give the side panels a quarter of the power
    patch = block_aperture_ratio(make_octagonal(patch_exponent=2.0), d)
    assert patch == pytest.approx(8.0 / math.sqrt(5.0), rel=1e-12)


def test_block_aperture_ratio_none_without_blocks():
    d = Direction(math.pi / 2, math.pi / 2)
    assert block_aperture_ratio(make_ula(8, 0.5, 1.0), d) is None
    # a partition that cuts across panels mixes gains within a subset
    arr = make_octagonal(4, 2, 2, patch_exponent=2.0)
    mixed = replace(arr, partition=((2, 3, 4, 5), (0, 1), tuple(range(6, 16))))
    assert block_aperture_ratio(mixed, d) is None
    # at zenith no panel receives power
    assert block_aperture_ratio(arr, Direction(0.0, 0.0)) is None


def _reference_max3x3(a):
    return ndimage.maximum_filter(a, size=3, mode="nearest")


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (2, 2), (9, 13),
                                   (121, 81)])
def test_max3x3_matches_maximum_filter_on_random_arrays(rng, shape):
    a = rng.standard_normal(shape)
    assert np.array_equal(_max3x3(a), _reference_max3x3(a))


@pytest.mark.parametrize("shape", [(1, 1), (1, 6), (6, 1), (8, 11)])
def test_max3x3_matches_maximum_filter_on_plateaus(rng, shape):
    # few distinct values, so most neighbourhoods hold ties
    a = rng.integers(0, 3, size=shape).astype(float)
    assert np.array_equal(_max3x3(a), _reference_max3x3(a))
    flat = np.full(shape, 0.5)
    assert np.array_equal(_max3x3(flat), _reference_max3x3(flat))


def test_alias_scan_finds_sequential_ridge():
    m, dt = 32, 1e-3
    arr = make_ula(m, 0.5, 1.0)
    seq = sequential(m, dt)
    dop = np.arange(-300.0, 300.0 + 1.0, 2.5)
    ang = np.arange(-40.0, 40.0 + 0.25, 0.5)
    surf = ambiguity_surface(arr, seq, BROADSIDE, dop, ang, "aoa")
    peaks = alias_scan(surf)
    top = peaks[0]
    assert top.magnitude == pytest.approx(1.0, abs=1e-9)
    # predicted alias line: dnu = (d/lambda)(cos phi0 - cos phi')/dt
    predicted = 0.5 * (0.0 - math.cos(math.radians(90 + top.angle_offset_deg))) / dt
    assert top.doppler_hz == pytest.approx(predicted, abs=2.5)


def test_alias_scan_single_lobe_empty():
    dop = np.arange(-10.0, 10.5, 0.5)
    ang = np.arange(-5.0, 5.25, 0.25)
    gauss = (np.exp(-0.5 * (ang[:, None] / 2.0) ** 2)
             * np.exp(-0.5 * (dop[None, :] / 4.0) ** 2))
    surf = AmbiguitySurface(dop, ang, "eoa", gauss, BROADSIDE)
    assert alias_scan(surf) == []
    assert peak_sidelobe(surf) == 0.0


def test_alias_scan_psl_shift_invariance(rng):
    # surfaces already use centered eta, so PSL from any global time shift
    # of the same order is identical; exercise via snapshots=1 vs identity
    m, dt = 16, 1e-3
    arr = make_ula(m, 0.5, 1.0)
    seq = random_init(m, dt, 1, rng)
    dop = np.arange(-150.0, 150.0 + 1.0, 5.0)
    ang = np.arange(-20.0, 20.25, 0.5)
    s1 = ambiguity_surface(arr, seq, BROADSIDE, dop, ang, "aoa")
    s2 = ambiguity_surface(arr, seq, BROADSIDE, dop, ang, "aoa")
    assert peak_sidelobe(s1) == peak_sidelobe(s2)


def test_compare_schemes_identical_sequences_ratio_one(rng):
    arr = make_octagonal(4, 2, 2, patch_exponent=2.0)
    seq = sequential(16, 1e-4, partition=arr.partition)
    mu = StructuralParams(math.pi / 2, math.pi / 2, 0.0)
    dop = np.arange(-4000.0, 4000.0 + 10.0, 25.0)
    ang = np.arange(-80.0, 80.0 + 1.0, 2.0)
    report = compare_schemes(arr, {"random": seq, "hybrid": seq}, mu, dop, ang,
                             angle_axis="eoa", threshold_db=-10.0)
    assert report.broadening_ratio == 1.0
    assert report.angle_width_ratio == 1.0
    doc = report.to_dict()
    assert doc["broadening_vs_inverse_factor"] == pytest.approx(
        report.broadening_ratio * report.effective_factor)
    assert set(doc["schemes"]) == {"random", "hybrid"}
    assert doc["block_aperture_ratio"] == block_aperture_ratio(
        arr, mu.rx_direction)


def test_compare_schemes_requires_consistent_sequences(rng):
    arr = make_octagonal(4, 2, 2, patch_exponent=2.0)
    a = sequential(16, 1e-4)
    b = sequential(16, 2e-4)
    mu = StructuralParams(math.pi / 4, math.pi / 2, 0.0)
    with pytest.raises(ValueError):
        compare_schemes(arr, {"random": a, "hybrid": b}, mu,
                        np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        compare_schemes(arr, {"random": a}, mu,
                        np.array([0.0, 1.0]), np.array([0.0, 1.0]))


def test_width_report_fields():
    _, _, surf = ula_surface()
    rep = half_power_width(surf, "doppler")
    assert rep.method == "linear interpolation in dB"
    assert rep.width == rep.upper - rep.lower
