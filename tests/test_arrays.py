import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from switchseq import (ArrayModel, OmniPattern, PatchPattern, StructuralParams,
                       TabulatedPattern, effective_elements, make_octagonal,
                       make_ula, steering_matrix)
from switchseq.ambiguity import sweep_directions
from switchseq.arrays import (WAVELENGTH, attach_patterns, default_octagon_radius,
                             parse_pattern_file, unit_vectors)
from switchseq.config import ExperimentConfig

from conftest import readme_config

BROADSIDE = StructuralParams(math.pi / 2, math.pi / 2, 0.0)


def test_ula_positions_centered():
    arr = make_ula(2, 0.5)
    assert np.allclose(arr.positions[:, 0], [-WAVELENGTH / 4, WAVELENGTH / 4])
    assert np.allclose(arr.positions[:, 1:], 0.0)


@pytest.mark.parametrize("m, spacing", [(2, 0.5), (7, 0.4), (16, 0.6), (5, 1e-3)])
def test_ula_spacing_is_given_in_wavelengths(m, spacing):
    # the spacing in metres is formed once, at the model's carrier
    offsets = np.arange(m) - (m - 1) / 2.0
    assert (make_ula(m, spacing).positions[:, 0].tobytes()
            == (offsets * (spacing * WAVELENGTH)).tobytes())


def test_ula_single_element_at_origin():
    arr = make_ula(1, 0.5)
    assert np.allclose(arr.positions, 0.0)


def test_ula_rejects_bad_args():
    with pytest.raises(ValueError):
        make_ula(0, 0.5)
    with pytest.raises(ValueError):
        make_ula(4, -0.5)


def test_steering_broadside_all_ones():
    arr = make_ula(8, 0.5)
    v = steering_matrix(arr, math.pi / 2, math.pi / 2)
    assert np.allclose(v, np.ones(8), atol=1e-12)


def test_steering_two_element_endfire_phases():
    # mu_phi = pi at phi=0 for half-wavelength spacing; centered exponents
    arr = make_ula(2, 0.5)
    v = steering_matrix(arr, 0.0, math.pi / 2)
    assert np.allclose(v, [np.exp(-1j * math.pi / 2), np.exp(1j * math.pi / 2)],
                       atol=1e-12)


def test_steering_magnitude_equals_gain():
    arr = make_octagonal(8, 2, 2, patch_exponent=2.0)
    rng = np.random.default_rng(3)
    for _ in range(20):
        az, el = rng.uniform(0, 2 * math.pi), rng.uniform(0.1, math.pi - 0.1)
        v = steering_matrix(arr, az, el)
        g = arr.gain_matrix(az, el)
        assert np.allclose(np.abs(v), np.abs(g), atol=1e-12)


def test_steering_azimuth_periodicity():
    arr = make_ula(4, 0.5)
    az = 1.234
    v1 = steering_matrix(arr, az, 1.0)
    v2 = steering_matrix(arr, az + 2 * math.pi, 1.0)
    assert np.allclose(v1, v2, atol=1e-12)


def test_steering_rows_are_formed_in_one_buffer():
    # the phase is scaled in place and its exponential and the gain product
    # are taken in the one complex buffer: on the README sweep (121 angles x
    # 128 elements) the call peaks at 2.1 times its result, 3.5 times when
    # each step made a new array
    config = ExperimentConfig.from_dict(readme_config())
    _, offsets, axis = config.sweep
    azimuth, elevation = sweep_directions(config.reference, offsets, axis)
    steering_matrix(config.array, azimuth, elevation)  # numpy's first-use modules
    tracemalloc.start()
    try:
        rows = steering_matrix(config.array, azimuth, elevation)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.shape == (121, 128)
    assert peak < 2.5 * rows.nbytes, peak / rows.nbytes


def test_centered_ula_conjugate_symmetry():
    arr = make_ula(6, 0.5)
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


def test_array_model_refuses_a_bad_partition():
    arr = make_ula(4, 0.5)
    for partition in (((0, 1), (1, 2)), ((0, 1),), ((0, 2), (1, 3))):
        with pytest.raises(ValueError, match="partition"):
            ArrayModel(arr.positions, arr.patterns, partition)
    # subsets in any order are a partition
    assert ArrayModel(arr.positions, arr.patterns,
                      ((2, 3), (0, 1))).partition == ((2, 3), (0, 1))


def test_array_model_keeps_the_partition_it_checked():
    # lists go in, tuples are kept: editing the lists afterwards does not
    # change an array that was already validated
    arr = make_ula(4, 0.5)
    subsets = [[0, 1], [2, 3]]
    model = ArrayModel(arr.positions, arr.patterns, subsets)
    assert model.partition == ((0, 1), (2, 3))
    assert all(type(subset) is tuple for subset in model.partition)
    subsets[0][0], subsets[1][:] = 3, []
    assert model.partition == ((0, 1), (2, 3))


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


def octagon_by_element(panels, rows, cols, spacing, radius, exponent):
    """make_octagonal built element by element: the loop it replaced."""
    positions, boresights, partition = [], [], []
    for p in range(panels):
        theta = 2.0 * math.pi * p / panels
        normal = np.array([math.cos(theta), math.sin(theta), 0.0])
        tangent = np.array([-math.sin(theta), math.cos(theta), 0.0])
        start = len(positions)
        for r in (np.arange(rows) - (rows - 1) / 2.0) * spacing:
            for c in (np.arange(cols) - (cols - 1) / 2.0) * spacing:
                positions.append(radius * normal + c * tangent + np.array([0.0, 0.0, r]))
                boresights.append(PatchPattern(exponent, tuple(normal)).boresight)
        partition.append(tuple(range(start, len(positions))))
    return np.array(positions), boresights, tuple(partition)


@pytest.mark.parametrize("panels, rows, cols, radius", [
    (8, 4, 4, None), (4, 2, 2, None), (12, 3, 5, 0.3), (3, 1, 1, 2.0)])
def test_octagonal_equals_element_by_element_build(panels, rows, cols, radius):
    # lengths are given in wavelengths; the oracle builds at the metre values
    arr = make_octagonal(panels, rows, cols, spacing_wavelengths=0.6,
                         radius_wavelengths=radius, patch_exponent=1.5)
    spacing = 0.6 * WAVELENGTH
    radius = (default_octagon_radius(cols, spacing, panels) if radius is None
              else radius * WAVELENGTH)
    positions, boresights, partition = octagon_by_element(
        panels, rows, cols, spacing, radius, 1.5)
    assert arr.positions.tobytes() == positions.tobytes()
    assert [p.boresight for p in arr.patterns] == boresights
    assert {p.exponent for p in arr.patterns} == {1.5}
    assert arr.partition == partition
    # one pattern object a panel, shared by its elements
    assert len({id(p) for p in arr.patterns}) == panels


def test_octagonal_rejects_bad_geometry():
    with pytest.raises(ValueError):
        make_octagonal(2, 4, 4)
    with pytest.raises(ValueError):
        make_octagonal(8, 4, 4, spacing_wavelengths=-1.0)
    with pytest.raises(ValueError):
        make_octagonal(8, 4, 4, radius_wavelengths=0.0)


def test_effective_elements_omni_all():
    arr = make_ula(8, 0.5)
    idx = effective_elements(arr, StructuralParams(1.0, 1.0, 0.0), -3.0)
    assert idx.tolist() == list(range(8))


def test_effective_elements_octagon_three_panels():
    # q=2 patches: adjacent panels sit at -6 dB, next ring at -inf
    arr = make_octagonal(patch_exponent=2.0)
    idx = effective_elements(arr, StructuralParams(0.0, math.pi / 2, 0.0), -10.0)
    assert idx.size == 48
    expected = set(arr.partition[7]) | set(arr.partition[0]) | set(arr.partition[1])
    assert set(idx.tolist()) == expected


def test_effective_elements_square_sector_model():
    # 4 one-row panels with exponent 0: omni within the front hemisphere
    arr = make_octagonal(4, 1, 8, patch_exponent=0.0)
    idx = effective_elements(arr, BROADSIDE, -10.0)
    assert set(idx.tolist()) == set(arr.partition[1])


def test_effective_elements_rejects_positive_threshold():
    arr = make_ula(4, 0.5)
    with pytest.raises(ValueError):
        effective_elements(arr, BROADSIDE, 1.0)


def test_direction_validation():
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


def expression_gain(pat, azimuth, elevation):
    """TabulatedPattern.gain as one expression of the four corner terms:
    the reference for the in-place sum."""
    az_ext, g_ext, el_grid = pat._az_ext, pat._g_ext, pat.elevation_grid
    az = az_ext[0] + np.mod(np.asarray(azimuth, dtype=float) - az_ext[0],
                            2 * math.pi)
    el = np.clip(np.asarray(elevation, dtype=float), el_grid[0], el_grid[-1])
    ia = np.clip(np.searchsorted(az_ext, az, side="right") - 1, 0, az_ext.size - 2)
    ie = np.clip(np.searchsorted(el_grid, el, side="right") - 1, 0, el_grid.size - 2)
    ta = (az - az_ext[ia]) / (az_ext[ia + 1] - az_ext[ia])
    te = (el - el_grid[ie]) / (el_grid[ie + 1] - el_grid[ie])
    return (g_ext[ia, ie] * (1 - ta) * (1 - te) + g_ext[ia + 1, ie] * ta * (1 - te)
            + g_ext[ia, ie + 1] * (1 - ta) * te + g_ext[ia + 1, ie + 1] * ta * te)


def random_table(rng, n_az, n_el):
    """Grids strictly inside their ranges and gains with some zeros of
    either sign, in either part."""
    az = np.sort(rng.choice(np.linspace(0.0, 2 * math.pi, 720, endpoint=False),
                            n_az, replace=False))
    el = np.sort(rng.choice(np.linspace(0.0, math.pi, 361), n_el, replace=False))
    gains = rng.normal(size=(n_az, n_el)) + 1j * rng.normal(size=(n_az, n_el))
    zero = rng.random(gains.shape) < 0.3
    gains.real[zero] = rng.choice([0.0, -0.0], zero.sum())
    zero = rng.random(gains.shape) < 0.3
    gains.imag[zero] = rng.choice([0.0, -0.0], zero.sum())
    return TabulatedPattern(az, el, gains)


@settings(max_examples=60, deadline=None)
@given(n_az=st.integers(1, 12), n_el=st.integers(2, 8),
       seed=st.integers(0, 2 ** 32 - 1))
def test_tabulated_gain_has_the_bits_of_the_expression(n_az, n_el, seed):
    # random queries, every grid node, and the nodes one turn either way
    rng = np.random.default_rng(seed)
    pat = random_table(rng, n_az, n_el)
    nodes_az, nodes_el = (g.ravel() for g in np.meshgrid(pat.azimuth_grid,
                                                         pat.elevation_grid))
    azimuth = np.concatenate([rng.uniform(-20.0, 20.0, 500), nodes_az,
                              nodes_az - 2 * math.pi, nodes_az + 2 * math.pi])
    elevation = np.concatenate([
        rng.uniform(pat.elevation_grid[0], pat.elevation_grid[-1], 500),
        nodes_el, nodes_el, nodes_el])
    got = pat.gain(azimuth, elevation)
    assert np.array_equal(got.view(np.uint64),
                          expression_gain(pat, azimuth, elevation).view(np.uint64))


def test_tabulated_gain_holds_few_sample_sized_arrays():
    # the sum is formed in place: one term beside it, not the ten arrays
    # of the expression (10.5 times the result on this call)
    rng = np.random.default_rng(1)
    pat = random_table(rng, 36, 19)
    azimuth = rng.uniform(-10.0, 10.0, 2 ** 14)
    elevation = rng.uniform(pat.elevation_grid[0], pat.elevation_grid[-1], 2 ** 14)
    tracemalloc.start()
    try:
        result = pat.gain(azimuth, elevation)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7 * result.nbytes, peak / result.nbytes


def test_tabulated_pattern_is_periodic_from_its_first_azimuth():
    # a grid from 5 to 355 degrees: below 5 degrees a query lies between the
    # last column (gain 36) and the first (gain 1), one turn on
    az = np.radians(np.arange(5.0, 360.0, 10.0))
    pat = TabulatedPattern(az, np.array([0.0, math.pi]),
                           np.repeat(np.arange(1.0, 37.0)[:, None], 2, axis=1))
    for query, expected in ((1.0, 15.0), (4.9, 1.35), (359.0, 22.0), (-359.0, 15.0)):
        assert pat.gain(math.radians(query), 1.0) == pytest.approx(expected, rel=1e-12)


def test_tabulated_pattern_of_one_elevation_interpolates_in_azimuth():
    # an azimuth cut: at its elevation gain gives the tabulated values and
    # their azimuth interpolation, with no 0/0 (a RuntimeWarning fails here)
    pat = TabulatedPattern(np.array([0.0, math.pi]), np.array([1.2]),
                           np.array([[1 + 2j], [3 - 1j]]))
    got = pat.gain(np.array([0.0, math.pi, math.pi / 2, -math.pi / 2]), 1.2)
    assert np.array_equal(got, [1 + 2j, 3 - 1j, 2 + 0.5j, 2 + 0.5j])


def test_tabulated_pattern_rejects_out_of_grid_elevation():
    az = np.linspace(0, 2 * math.pi, 8, endpoint=False)
    el = np.linspace(0.5, 2.5, 5)
    pat = TabulatedPattern(az, el, np.ones((8, 5), dtype=complex))
    with pytest.raises(ValueError):
        pat.gain(0.1, 0.1)


def test_tabulated_pattern_rejects_bad_grids():
    with pytest.raises(ValueError, match="1-D"):
        TabulatedPattern(np.array([[0.0, 1.0]]), np.array([0.0, 1.0]),
                         np.ones((2, 2), dtype=complex))
    with pytest.raises(ValueError):
        TabulatedPattern(np.array([0.0, 0.0, 1.0]), np.array([0.0, 1.0]),
                         np.ones((3, 2), dtype=complex))
    with pytest.raises(ValueError):
        TabulatedPattern(np.array([0.0, 1.0]), np.array([0.0, 1.0]),
                         np.ones((3, 2), dtype=complex))


def test_tabulated_pattern_rejects_non_finite_values():
    az, el = np.array([0.0, 1.0]), np.array([0.5, 1.5])
    for bad in (np.nan, np.inf, -np.inf):
        for grids in (([bad, 1.0], el), (az, [0.5, bad])):
            with pytest.raises(ValueError, match="finite"):
                TabulatedPattern(*map(np.array, grids), np.ones((2, 2), dtype=complex))
        for gain in (bad, complex(0.0, bad)):
            table = np.ones((2, 2), dtype=complex)
            table[1, 0] = gain
            with pytest.raises(ValueError, match="finite"):
                TabulatedPattern(az, el, table)


def test_pattern_file_roundtrip(tmp_path):
    arr = make_ula(2, 0.5)
    lines = ["element,pol,azimuth_deg,elevation_deg,re,im"]
    az_deg = [0.0, 90.0, 180.0, 270.0]
    el_deg = [60.0, 90.0, 120.0]
    for m in range(2):
        for a in az_deg:
            for e in el_deg:
                lines.append(f"{m},V,{a},{e},{1.0 + m},{0.5 * m}")
    f = tmp_path / "patterns.csv"
    f.write_text("\n".join(lines) + "\n")

    pats = parse_pattern_file(f.read_bytes())
    assert set(pats) == {(0, "V"), (1, "V")}
    fitted = attach_patterns(arr, pats)
    g = fitted.gain_matrix(0.0, math.pi / 2)
    assert g[0] == pytest.approx(1.0)
    assert g[1] == pytest.approx(2.0 + 0.5j)


def test_pattern_file_with_a_bom_loads(tmp_path):
    # spreadsheet programs save "CSV UTF-8" with a byte order mark, which
    # must not become part of the first column's name
    lines = ["element,pol,azimuth_deg,elevation_deg,re,im"]
    lines += [f"{m},V,{a},{e},{1.0 + m},{0.5 * m}" for m in range(2)
              for a in (0.0, 90.0) for e in (45.0, 90.0)]
    text = "\n".join(lines) + "\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_bytes(text.encode())
    marked.write_bytes(text.encode("utf-8-sig"))
    expected, got = (parse_pattern_file(f.read_bytes()) for f in (plain, marked))
    assert set(got) == set(expected) == {(0, "V"), (1, "V")}
    for key, pattern in expected.items():
        for name in ("azimuth_grid", "elevation_grid", "gains"):
            np.testing.assert_array_equal(getattr(got[key], name),
                                          getattr(pattern, name))


def test_pattern_file_rejects_incomplete_grid(tmp_path):
    lines = ["element,pol,azimuth_deg,elevation_deg,re,im",
             "0,V,0.0,45.0,1.0,0.0",
             "0,V,90.0,45.0,1.0,0.0",
             "0,V,0.0,90.0,1.0,0.0"]
    f = tmp_path / "bad.csv"
    f.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="rectangular"):
        parse_pattern_file(f.read_bytes())


def test_pattern_file_refuses_a_repeated_row(tmp_path):
    # a second (90, 20) row for element 0 pol V is refused, not taken in
    # place of the first; the same angles for another element are not a repeat
    lines = ["element,pol,azimuth_deg,elevation_deg,re,im"]
    lines += [f"0,V,{a},{e},1.0,0.0" for a in (0.0, 90.0) for e in (20.0, 90.0)]
    f = tmp_path / "repeat.csv"
    f.write_text("\n".join(lines + ["1,V,90.0,20.0,1.0,0.0"]) + "\n")
    assert set(parse_pattern_file(f.read_bytes())) == {(0, "V"), (1, "V")}
    f.write_text("\n".join(lines + ["0,V,90,20,5.0,0.0"]) + "\n")
    with pytest.raises(ValueError, match=r"repeats element 0 pol V at \(90, 20\)"):
        parse_pattern_file(f.read_bytes())


@pytest.mark.parametrize("column", ["azimuth_deg", "elevation_deg", "re", "im"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_pattern_file_refuses_non_finite_values(tmp_path, column, value):
    rows = [dict(element=0, pol="V", azimuth_deg=a, elevation_deg=e, re=1.0, im=0.0)
            for a in (0.0, 90.0) for e in (45.0, 90.0)]
    if column in ("re", "im"):
        rows[3][column] = value
    else:  # a whole grid line
        for r in rows:
            if r[column] == 90.0:
                r[column] = value
    f = tmp_path / "non_finite.csv"
    f.write_text("element,pol,azimuth_deg,elevation_deg,re,im\n" + "".join(
        "{element},{pol},{azimuth_deg},{elevation_deg},{re},{im}\n".format(**r)
        for r in rows))
    with pytest.raises(ValueError, match="finite"):
        parse_pattern_file(f.read_bytes())


@pytest.mark.parametrize("column, value, refusal", [
    ("element", "1.0", "has element '1.0', not an integer"),
    ("element", "", "has element '', not an integer"),
    ("azimuth_deg", "abc", "has azimuth_deg 'abc', not a number"),
    ("re", "x", "has re 'x', not a number"),
    # int() and float() read digit-group underscores: 1_0 would load as 10
    ("element", "1_0", "has element '1_0', not an integer"),
    ("azimuth_deg", "9_0", "has azimuth_deg '9_0', not a number"),
    ("re", "1_0", "has re '1_0', not a number"),
    ("im", "inf", r"gain must be finite: element 0 pol V at \(90.0, 90.0\) deg")],
    ids=["element-1.0", "element-empty", "azimuth-abc", "re-x", "element-1_0",
         "azimuth-9_0", "re-1_0", "im-inf"])
def test_pattern_file_value_refusals_name_their_line(column, value, refusal):
    # a table has tens of thousands of rows, so a refused value names its
    # line (the header is line 1) and its column or element
    rows = [dict(element=0, pol="V", azimuth_deg=a, elevation_deg=e, re=1.0, im=0.0)
            for a in (0.0, 90.0) for e in (45.0, 90.0)]
    rows[3][column] = value
    data = ("element,pol,azimuth_deg,elevation_deg,re,im\n" + "".join(
        "{element},{pol},{azimuth_deg},{elevation_deg},{re},{im}\n".format(**r)
        for r in rows)).encode()
    with pytest.raises(ValueError, match=f"^pattern file line 5 {refusal}$"):
        parse_pattern_file(data)


def test_pattern_file_nan_angle_on_a_one_line_grid(tmp_path):
    # one elevation, so a NaN azimuth still gives as many rows as grid cells
    f = tmp_path / "nan_azimuth.csv"
    f.write_text("element,pol,azimuth_deg,elevation_deg,re,im\n"
                 "0,V,0,90,1,0\n0,V,nan,90,1,0\n")
    with pytest.raises(ValueError, match="finite"):
        parse_pattern_file(f.read_bytes())


def test_pattern_file_pol_must_be_v_or_h():
    def pattern_file(pol):
        lines = ["element,pol,azimuth_deg,elevation_deg,re,im"]
        lines += [f"0,{p},{a},{e},1.0,0.0" for p in ("V", pol)
                  for a in (0.0, 90.0) for e in (45.0, 90.0)]
        return ("\n".join(lines) + "\n").encode()

    assert set(parse_pattern_file(pattern_file(" h"))) == {(0, "V"), (0, "H")}
    for pol in ("X", "", "VH"):
        with pytest.raises(ValueError, match="V or H"):
            parse_pattern_file(pattern_file(pol))


def test_array_model_validation():
    with pytest.raises(ValueError):
        ArrayModel(np.zeros((0, 3)), ())
    with pytest.raises(ValueError):
        ArrayModel(np.zeros((2, 3)), (OmniPattern(),))


def test_array_model_has_the_one_carrier():
    # positions are metres at arrays.WAVELENGTH; a model carries no wavelength
    arr = ArrayModel(np.zeros((1, 3)), (OmniPattern(),))
    assert not hasattr(arr, "wavelength")
    assert arr.wavenumber == 2 * math.pi / WAVELENGTH


def test_array_positions_immutable():
    arr = make_ula(4, 0.5)
    with pytest.raises(ValueError):
        arr.positions[0, 0] = 1.0
