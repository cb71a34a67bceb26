import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import ndimage
from scipy.optimize import brentq

from switchseq import (AmbiguitySurface, GridTooNarrowError, StructuralParams,
                       ambiguity_surface, block_aperture_ratio, compare_schemes,
                       crlb_doppler, effective_elements, half_power_width,
                       make_octagonal, make_ula, peak_sidelobe, random_init,
                       sequential)
import switchseq.analysis as analysis_module
from switchseq.ambiguity import to_db
from switchseq.analysis import _crossing, _max3x3
from switchseq.config import ExperimentConfig

from conftest import readme_config
from oracles import alias_scan

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
    arr = make_ula(m, 0.5)
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
    arr = make_ula(4, 0.5)  # wide main lobe
    seq = sequential(4, 1e-3)
    dop = np.arange(-30.0, 30.5, 1.0)  # lobe is ~220 Hz wide
    ang = np.arange(-10.0, 10.5, 0.5)
    surf = ambiguity_surface(arr, seq, BROADSIDE, dop, ang, "aoa")
    with pytest.raises(GridTooNarrowError):
        half_power_width(surf, "doppler")


@pytest.fixture(scope="module")
def readme_compare_surfaces():
    """The three surfaces README compare writes, at its config and seed."""
    config = ExperimentConfig.from_dict(readme_config())
    _, surfaces, _, _ = config.compare()
    return surfaces


def whole_surface_width(surface, axis):
    """half_power_width's interval with the whole surface taken to dB."""
    db = surface.magnitude_db
    peak_a = int(np.argmin(np.abs(surface.angle_offset_deg)))
    peak_d = int(np.argmin(np.abs(surface.doppler_hz)))
    coords, db, peak = ((surface.doppler_hz, db[peak_a], peak_d) if axis == "doppler"
                        else (surface.angle_offset_deg, db[:, peak_d], peak_a))
    lo = peak
    while db[lo - 1] >= -3.0:
        lo -= 1
    hi = peak
    while db[hi + 1] >= -3.0:
        hi += 1
    return _crossing(coords, db, lo, lo - 1), _crossing(coords, db, hi, hi + 1)


def test_half_power_width_converts_rows_and_columns_to_the_whole_surface_bits(
        readme_compare_surfaces):
    # half_power_width takes one row or column to dB, not the surface: on
    # every row and column of the README surfaces that gives the bits of
    # the whole conversion, so the widths stay the same to the last bit
    for surface in readme_compare_surfaces.values():
        whole = surface.magnitude_db
        assert whole.shape == (121, 801)
        for a in range(whole.shape[0]):
            assert to_db(surface.magnitude[a]).tobytes() == whole[a].tobytes()
        for d in range(whole.shape[1]):
            assert to_db(surface.magnitude[:, d]).tobytes() == whole[:, d].tobytes()
        for axis in ("doppler", surface.angle_axis):
            width = half_power_width(surface, axis)
            assert (width.lower, width.upper) == whole_surface_width(surface, axis)


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
    arr = make_ula(8, 0.5)
    idx = effective_elements(arr, StructuralParams(1.0, 1.0, 0.0), -10.0)
    assert idx.size / arr.num_elements == 1.0


def test_effective_factor_square_quarter():
    arr = make_octagonal(4, 1, 8, patch_exponent=0.0)
    assert effective_elements(arr, BROADSIDE, -10.0).size / arr.num_elements == 0.25


def test_effective_factor_octagon_three_eighths():
    arr = make_octagonal(patch_exponent=2.0)
    xi = effective_elements(arr, StructuralParams(math.pi / 4, math.pi / 2, 0.0),
                            -10.0).size / arr.num_elements
    assert xi == pytest.approx(3 / 8)


def test_effective_factor_non_increasing_in_threshold():
    arr = make_octagonal(patch_exponent=2.0)
    d = StructuralParams(0.1, math.pi / 2, 0.0)
    factors = [effective_elements(arr, d, t).size / arr.num_elements
               for t in (-3.0, -6.0, -10.0, -20.0)]
    assert all(a <= b for a, b in zip(factors, factors[1:]))


def test_block_aperture_ratio_sector_octagon_is_inverse_xi():
    # equal power on the three facing panels: R* reduces to 1/xi = 8/3
    d = StructuralParams(math.pi / 4, math.pi / 2, 0.0)
    sector = make_octagonal(patch_exponent=0.0)
    r_star = block_aperture_ratio(sector, d, 1)
    xi = effective_elements(sector, d, -10.0).size / sector.num_elements
    assert abs(r_star - 1.0 / xi) <= 1e-12
    # q = 2 patches give the side panels a quarter of the power
    patch = block_aperture_ratio(make_octagonal(patch_exponent=2.0), d, 1)
    assert patch == pytest.approx(8.0 / math.sqrt(5.0), rel=1e-12)


@pytest.mark.parametrize("snapshots", [2, 4])
def test_block_aperture_ratio_tracks_the_width_ratio_over_snapshots(snapshots):
    # every element's instants also spread over the S cycles, which narrows
    # the hybrid/random width ratio towards 1 (1.09 at S = 2, 1.02 at S = 4)
    cfg = readme_config()
    cfg["sequence"]["snapshots"] = snapshots
    doc = ExperimentConfig.from_dict(cfg).compare()[0]
    assert doc["block_aperture_ratio"] == pytest.approx(doc["broadening_ratio"], rel=0.1)


def test_block_aperture_ratio_none_without_blocks():
    d = BROADSIDE
    assert block_aperture_ratio(make_ula(8, 0.5), d, 1) is None
    # a partition that cuts across panels mixes gains within a subset
    arr = make_octagonal(4, 2, 2, patch_exponent=2.0)
    mixed = replace(arr, partition=((2, 3, 4, 5), (0, 1), tuple(range(6, 16))))
    assert block_aperture_ratio(mixed, d, 1) is None
    # at zenith no panel receives power
    assert block_aperture_ratio(arr, StructuralParams(0.0, 0.0, 0.0), 1) is None


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
    arr = make_ula(m, 0.5)
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
    arr = make_ula(m, 0.5)
    seq = random_init(m, dt, 1, rng)
    dop = np.arange(-150.0, 150.0 + 1.0, 5.0)
    ang = np.arange(-20.0, 20.25, 0.5)
    s1 = ambiguity_surface(arr, seq, BROADSIDE, dop, ang, "aoa")
    s2 = ambiguity_surface(arr, seq, BROADSIDE, dop, ang, "aoa")
    assert peak_sidelobe(s1) == peak_sidelobe(s2)


def reference_psl(surface) -> float:
    """The PSL from the full scan: its strongest peak, or 0.0 without one."""
    peaks = alias_scan(surface)
    return peaks[0].magnitude if peaks else 0.0


def assert_psl_is_the_scan_at_any_block_height(surface, heights=(1, 2, 3, 10 ** 6)):
    """peak_sidelobe equals the reference bit for bit with blocks of 1, 2
    and 3 rows (a non-divisor of most heights) and with one block."""
    want = reference_psl(surface)
    n_dopplers = surface.magnitude.shape[1]
    for rows in heights:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis_module, "_SIDELOBE_CELLS", rows * n_dopplers)
            got = peak_sidelobe(surface)
        assert type(got) is float
        assert got.hex() == want.hex(), (rows, got, want)


@st.composite
def plateau_surfaces(draw):
    """Small surfaces of a few quantized levels, so that neighbours tie and
    plateaus form, with the 1.0 self-point anywhere, the edges included;
    1-row and 1-column surfaces among them."""
    n_angles = draw(st.integers(1, 7))
    n_dopplers = draw(st.integers(1, 7))
    levels = draw(st.integers(1, 3))
    values = draw(st.lists(st.integers(0, levels), min_size=n_angles * n_dopplers,
                           max_size=n_angles * n_dopplers))
    mag = np.array(values, dtype=float).reshape(n_angles, n_dopplers) / levels
    peak_a = draw(st.integers(0, n_angles - 1))
    peak_d = draw(st.integers(0, n_dopplers - 1))
    mag[peak_a, peak_d] = 1.0
    return AmbiguitySurface(np.arange(n_dopplers) - float(peak_d),
                            np.arange(n_angles) - float(peak_a), "eoa", mag,
                            BROADSIDE)


@settings(max_examples=300, deadline=None)
@given(plateau_surfaces())
def test_peak_sidelobe_equals_the_scan_on_plateaus_and_edges(surface):
    assert_psl_is_the_scan_at_any_block_height(surface)


def test_peak_sidelobe_equals_the_scan_on_many_small_surfaces(rng):
    # a cell that beats its row and one of the rows beside it, but not the
    # main lobe on the other side, is rare: thousands of surfaces of three
    # levels meet it dozens of times
    for _ in range(3000):
        n_angles, n_dopplers = rng.integers(1, 7, 2)
        mag = rng.integers(0, 3, (n_angles, n_dopplers)) / 2.0
        peak_a, peak_d = rng.integers(0, n_angles), rng.integers(0, n_dopplers)
        mag[peak_a, peak_d] = 1.0
        assert_psl_is_the_scan_at_any_block_height(AmbiguitySurface(
            np.arange(n_dopplers) - float(peak_d), np.arange(n_angles) - float(peak_a),
            "eoa", mag, BROADSIDE), (1, 2, 3))


def test_peak_sidelobe_equals_the_scan_on_the_readme_surfaces(readme_compare_surfaces):
    for surface in readme_compare_surfaces.values():
        assert_psl_is_the_scan_at_any_block_height(surface, (1, 2, 7, 40, 10 ** 6))


def test_peak_sidelobe_sees_the_rows_beside_a_block():
    # at heights 1, 2 and 3, cells on a block's first or last row lose to or
    # tie with a neighbour in the next block
    mag = np.full((9, 9), 0.1)
    mag[3, 2:7] = [0.0, 0.6, 1.0, 0.6, 0.0]  # main lobe: rows 2-5, cols 2-6
    mag[2:6, 4] = [0.0, 1.0, 0.6, 0.0]
    mag[2, 6] = mag[5, 2] = 0.9  # two main-lobe corners
    mag[1, 7] = mag[6, 1] = 0.7  # beaten by a corner across rows 1|2 and 5|6
    mag[5, 8] = mag[6, 8] = 0.4  # peaks that tie across rows 5|6
    mag[8, 8] = 0.3
    surface = AmbiguitySurface(np.arange(9) - 4.0, np.arange(9) - 3.0, "eoa", mag,
                               BROADSIDE)
    assert reference_psl(surface) == 0.4
    assert_psl_is_the_scan_at_any_block_height(surface)


def test_peak_sidelobe_memory_does_not_grow_with_the_surface(rng):
    # one block of rows at a time, so what it allocates at its peak is the
    # same for a README-sized and a 20x larger surface
    peaks = []
    for n_angles, n_dopplers in ((121, 801), (601, 3201)):
        mag = rng.uniform(0.0, 0.9, (n_angles, n_dopplers))
        mag[n_angles // 2, n_dopplers // 2] = 1.0
        surf = AmbiguitySurface(np.arange(n_dopplers) - n_dopplers // 2 * 1.0,
                                np.arange(n_angles) - n_angles // 2 * 1.0, "eoa",
                                mag, BROADSIDE)
        tracemalloc.start()
        peak_sidelobe(surf)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    block_bytes = analysis_module._SIDELOBE_CELLS * 8  # a block of floats
    assert abs(peaks[1] - peaks[0]) < block_bytes, peaks
    assert peaks[1] < mag.nbytes / 10, peaks


def test_compare_schemes_identical_sequences_ratio_one(rng):
    arr = make_octagonal(4, 2, 2, patch_exponent=2.0)
    seq = sequential(16, 1e-4, partition=arr.partition)
    mu = StructuralParams(math.pi / 2, math.pi / 2, 0.0)
    dop = np.arange(-4000.0, 4000.0 + 10.0, 25.0)
    ang = np.arange(-80.0, 80.0 + 1.0, 2.0)
    doc, surfaces = compare_schemes(arr, {"random": seq, "hybrid": seq}, mu,
                                    dop, ang, angle_axis="eoa", threshold_db=-10.0,
                                    noise_sigma=1.0)
    assert doc["broadening_ratio"] == 1.0
    assert doc["angle_width_ratio"] == 1.0
    assert doc["broadening_vs_inverse_factor"] == doc["effective_factor"]
    assert doc["inverse_effective_factor"] == 1.0 / doc["effective_factor"]
    assert set(doc["schemes"]) == set(surfaces) == {"random", "hybrid"}
    assert doc["block_aperture_ratio"] == block_aperture_ratio(arr, mu, 1)


def test_effective_doppler_bound_spans_every_snapshot():
    # the subset's instants come from every snapshot, as the full bound's do
    arr = make_octagonal(4, 2, 2, patch_exponent=2.0)
    gen = np.random.default_rng(1)
    seqs = {"random": random_init(16, 1e-4, 4, gen),
            "hybrid": random_init(16, 1e-4, 4, gen, arr.partition)}
    dop = np.arange(-4000.0, 4000.0 + 10.0, 25.0)
    ang = np.arange(-80.0, 80.0 + 1.0, 2.0)
    doc, _ = compare_schemes(arr, seqs, BROADSIDE, dop, ang, threshold_db=-10.0,
                             noise_sigma=1.0)
    idx = effective_elements(arr, BROADSIDE, -10.0)
    assert 0 < idx.size < arr.num_elements
    for name, seq in seqs.items():
        sub = seq.eta().reshape(seq.snapshots, -1)[:, idx].ravel()
        expected = crlb_doppler(sub - sub.mean(), 1.0)
        got = doc["schemes"][name]["crlb_nu_effective_hz2"]
        assert got == pytest.approx(expected, rel=1e-12)


def test_compare_schemes_requires_consistent_sequences(rng):
    arr = make_octagonal(4, 2, 2, patch_exponent=2.0)
    a = sequential(16, 1e-4)
    b = sequential(16, 2e-4)
    mu = StructuralParams(math.pi / 4, math.pi / 2, 0.0)
    settings = {"threshold_db": -10.0, "noise_sigma": 1.0}
    with pytest.raises(ValueError):
        compare_schemes(arr, {"random": a, "hybrid": b}, mu,
                        np.array([0.0, 1.0]), np.array([0.0, 1.0]), **settings)
    with pytest.raises(ValueError):
        compare_schemes(arr, {"random": a}, mu,
                        np.array([0.0, 1.0]), np.array([0.0, 1.0]), **settings)


def test_width_report_fields():
    _, _, surf = ula_surface()
    rep = half_power_width(surf, "doppler")
    assert rep.axis == "doppler"
    assert rep.width == rep.upper - rep.lower
