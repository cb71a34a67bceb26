import math

import numpy as np
import pytest

from switchseq import (ArrayModel, Direction, OmniPattern, PatchPattern,
                       TabulatedPattern, effective_elements, make_octagonal,
                       make_ula, steering_matrix)
from switchseq.arrays import attach_patterns, load_pattern_file, unit_vectors

BROADSIDE = Direction(math.pi / 2, math.pi / 2)


def test_ula_positions_centered():
    lam = 0.0107
    arr = make_ula(2, lam / 2, lam)
    assert np.allclose(arr.positions[:, 0], [-lam / 4, lam / 4])
    assert np.allclose(arr.positions[:, 1:], 0.0)


def test_ula_single_element_at_origin():
    arr = make_ula(1, 0.5, 1.0)
    assert np.allclose(arr.positions, 0.0)


def test_ula_rejects_bad_args():
    with pytest.raises(ValueError):
        make_ula(0, 0.5, 1.0)
    with pytest.raises(ValueError):
        make_ula(4, -0.5, 1.0)
    with pytest.raises(ValueError):
        make_ula(4, 0.5, 0.0)


def test_steering_broadside_all_ones():
    arr = make_ula(8, 0.5, 1.0)
    v = steering_matrix(arr, math.pi / 2, math.pi / 2)
    assert np.allclose(v, np.ones(8), atol=1e-12)


def test_steering_two_element_endfire_phases():
    # mu_phi = pi at phi=0 for half-wavelength spacing; centered exponents
    arr = make_ula(2, 0.5, 1.0)
    v = steering_matrix(arr, 0.0, math.pi / 2)
    assert np.allclose(v, [np.exp(-1j * math.pi / 2), np.exp(1j * math.pi / 2)],
                       atol=1e-12)


def test_steering_magnitude_equals_gain():
    arr = make_octagonal(8, 2, 2, patch_exponent=2.0)
    rng = np.random.default_rng(3)
    for _ in range(20):
        d = Direction(rng.uniform(0, 2 * math.pi), rng.uniform(0.1, math.pi - 0.1))
        v = steering_matrix(arr, d.azimuth, d.elevation)
        g = arr.gain_matrix(d.azimuth, d.elevation)
        assert np.allclose(np.abs(v), np.abs(g), atol=1e-12)


def test_steering_azimuth_periodicity():
    arr = make_ula(4, 0.5, 1.0)
    az = 1.234
    v1 = steering_matrix(arr, az, 1.0)
    v2 = steering_matrix(arr, az + 2 * math.pi, 1.0)
    assert np.allclose(v1, v2, atol=1e-12)


def test_centered_ula_conjugate_symmetry():
    arr = make_ula(6, 0.5, 1.0)
    v = steering_matrix(arr, 0.7, math.pi / 2)
    assert np.allclose(v, np.conj(v[::-1]), atol=1e-12)


def test_octagonal_element_count_and_partition():
    arr = make_octagonal()
    assert arr.num_elements == 128
    assert len(arr.partition) == 8
    assert all(len(p) == 16 for p in arr.partition)
    # panel-major: indices are consecutive within each panel
    flat = [i for p in arr.partition for i in p]
    assert flat == list(range(128))


def test_octagonal_counts_generalize():
    arr = make_octagonal(panels=5, rows=2, cols=3)
    assert arr.num_elements == 5 * 2 * 3
    assert [len(p) for p in arr.partition] == [6] * 5


def test_octagonal_back_panels_have_zero_gain():
    arr = make_octagonal(patch_exponent=2.0)
    v = steering_matrix(arr, 0.0, math.pi / 2)
    # panel 4 faces away from azimuth 0
    back = arr.partition[4]
    assert np.allclose(np.abs(v[list(back)]), 0.0)


def test_octagonal_rejects_bad_geometry():
    with pytest.raises(ValueError):
        make_octagonal(2, 4, 4)
    with pytest.raises(ValueError):
        make_octagonal(8, 4, 4, element_spacing=-1.0)
    with pytest.raises(ValueError):
        make_octagonal(8, 4, 4, radius=0.0)


def test_effective_elements_omni_all():
    arr = make_ula(8, 0.5, 1.0)
    idx = effective_elements(arr, Direction(1.0, 1.0), -3.0)
    assert idx.tolist() == list(range(8))


def test_effective_elements_octagon_three_panels():
    # q=2 patches: adjacent panels sit at -6 dB, next ring at -inf
    arr = make_octagonal(patch_exponent=2.0)
    idx = effective_elements(arr, Direction(0.0, math.pi / 2), -10.0)
    assert idx.size == 48
    expected = set(arr.partition[7]) | set(arr.partition[0]) | set(arr.partition[1])
    assert set(idx.tolist()) == expected


def test_effective_elements_square_sector_model():
    # 4 one-row panels with exponent 0: omni within the front hemisphere
    arr = make_octagonal(4, 1, 8, patch_exponent=0.0)
    idx = effective_elements(arr, Direction(math.pi / 2, math.pi / 2), -10.0)
    assert set(idx.tolist()) == set(arr.partition[1])


def test_effective_elements_rejects_positive_threshold():
    arr = make_ula(4, 0.5, 1.0)
    with pytest.raises(ValueError):
        effective_elements(arr, BROADSIDE, 1.0)


def test_direction_validation():
    with pytest.raises(ValueError):
        Direction(-0.1, 1.0)
    with pytest.raises(ValueError):
        Direction(0.0, 3.5)
    u = unit_vectors(0.0, math.pi / 2)
    assert np.allclose(u, [1.0, 0.0, 0.0], atol=1e-12)


def test_patch_pattern_validation():
    with pytest.raises(ValueError):
        PatchPattern(exponent=-1.0, boresight=(1, 0, 0))
    with pytest.raises(ValueError):
        PatchPattern(exponent=2.0, boresight=(0, 0, 0))


def test_patch_gain_boresight_and_rolloff():
    pat = PatchPattern(exponent=2.0, boresight=(1.0, 0.0, 0.0))
    assert pat.gain(0.0, math.pi / 2) == pytest.approx(1.0)
    assert pat.gain(math.pi / 4, math.pi / 2).real == pytest.approx(0.5, abs=1e-12)
    assert pat.gain(math.pi, math.pi / 2) == 0.0


def test_tabulated_pattern_bilinear_interpolation():
    az = np.linspace(0, 2 * math.pi, 36, endpoint=False)
    el = np.linspace(0.2, math.pi - 0.2, 19)

    def fn(a, e):
        return np.cos(a) * np.sin(e) + 1j * np.sin(2 * a)

    table = fn(az[:, None], el[None, :])
    pat = TabulatedPattern(az, el, table)
    # exact at grid nodes
    assert pat.gain(az[5], el[7]) == pytest.approx(table[5, 7])
    # close at midpoints (second-order error on a 10 degree grid)
    mid_a, mid_e = (az[5] + az[6]) / 2, (el[7] + el[8]) / 2
    assert abs(pat.gain(mid_a, mid_e) - fn(mid_a, mid_e)) < 2e-2
    # azimuth wraps periodically
    assert pat.gain(az[0] + 2 * math.pi, el[3]) == pytest.approx(table[0, 3])


def test_tabulated_pattern_rejects_out_of_grid_elevation():
    az = np.linspace(0, 2 * math.pi, 8, endpoint=False)
    el = np.linspace(0.5, 2.5, 5)
    pat = TabulatedPattern(az, el, np.ones((8, 5), dtype=complex))
    with pytest.raises(ValueError):
        pat.gain(0.1, 0.1)


def test_tabulated_pattern_rejects_bad_grids():
    with pytest.raises(ValueError):
        TabulatedPattern(np.array([0.0, 0.0, 1.0]), np.array([0.0, 1.0]),
                         np.ones((3, 2), dtype=complex))
    with pytest.raises(ValueError):
        TabulatedPattern(np.array([0.0, 1.0]), np.array([0.0, 1.0]),
                         np.ones((3, 2), dtype=complex))


def test_pattern_file_roundtrip(tmp_path):
    arr = make_ula(2, 0.5, 1.0)
    lines = ["element,pol,azimuth_deg,elevation_deg,re,im"]
    az_deg = [0.0, 90.0, 180.0, 270.0]
    el_deg = [60.0, 90.0, 120.0]
    for m in range(2):
        for a in az_deg:
            for e in el_deg:
                lines.append(f"{m},V,{a},{e},{1.0 + m},{0.5 * m}")
    f = tmp_path / "patterns.csv"
    f.write_text("\n".join(lines) + "\n")

    pats = load_pattern_file(f)
    assert set(pats) == {(0, "V"), (1, "V")}
    fitted = attach_patterns(arr, pats)
    g = fitted.gain_matrix(0.0, math.pi / 2)
    assert g[0] == pytest.approx(1.0)
    assert g[1] == pytest.approx(2.0 + 0.5j)


def test_pattern_file_rejects_incomplete_grid(tmp_path):
    lines = ["element,pol,azimuth_deg,elevation_deg,re,im",
             "0,V,0.0,45.0,1.0,0.0",
             "0,V,90.0,45.0,1.0,0.0",
             "0,V,0.0,90.0,1.0,0.0"]
    f = tmp_path / "bad.csv"
    f.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="rectangular"):
        load_pattern_file(f)


def test_pattern_file_pol_must_be_v_or_h(tmp_path):
    def pattern_file(pol):
        lines = ["element,pol,azimuth_deg,elevation_deg,re,im"]
        lines += [f"0,{p},{a},{e},1.0,0.0" for p in ("V", pol)
                  for a in (0.0, 90.0) for e in (45.0, 90.0)]
        f = tmp_path / f"pol_{pol}.csv"
        f.write_text("\n".join(lines) + "\n")
        return f

    assert set(load_pattern_file(pattern_file(" h"))) == {(0, "V"), (0, "H")}
    for pol in ("X", "", "VH"):
        with pytest.raises(ValueError, match="V or H"):
            load_pattern_file(pattern_file(pol))


def test_array_model_validation():
    with pytest.raises(ValueError):
        ArrayModel(np.zeros((0, 3)), (), 1.0)
    with pytest.raises(ValueError):
        ArrayModel(np.zeros((2, 3)), (OmniPattern(),), 1.0)
    with pytest.raises(ValueError):
        ArrayModel(np.zeros((1, 3)), (OmniPattern(),), 0.0)


def test_array_positions_immutable():
    arr = make_ula(4, 0.5, 1.0)
    with pytest.raises(ValueError):
        arr.positions[0, 0] = 1.0
