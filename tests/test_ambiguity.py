import csv
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from switchseq import (AmbiguitySurface, AnnealConfig, ArrayModel,
                       DegenerateDirectionError,
                       ObjectiveConfig, ObjectiveEvaluator, PatchPattern,
                       Region, StructuralParams, ambiguity_surface,
                       ambiguity_value, anneal, basis_from_eta, make_octagonal,
                       make_ula, random_init, sequential)
from switchseq.ambiguity import normalized_correlation, save_surface_csv, sobol_points
from switchseq.arrays import steering_matrix
from switchseq.switching import draw_swap, hybrid_init, swap_sets

from conftest import swapped

BROADSIDE = StructuralParams(math.pi / 2, math.pi / 2, 0.0)


def single_panel_array(m=4):
    """All patches face +x, so directions behind the panel are degenerate."""
    positions = np.zeros((m, 3))
    positions[:, 1] = np.arange(m) * 0.5
    pat = PatchPattern(exponent=2.0, boresight=(1.0, 0.0, 0.0))
    return ArrayModel(positions, (pat,) * m, 1.0)


def test_self_ambiguity_is_one():
    arr = make_ula(8, 0.5, 1.0)
    seq = sequential(8, 1e-3)
    mu = StructuralParams(1.0, 1.2, 321.0)
    assert abs(ambiguity_value(arr, seq, mu, mu) - 1.0) < 1e-12


def test_dirichlet_null():
    m, dt = 8, 1e-3
    arr = make_ula(m, 0.5, 1.0)
    seq = sequential(m, dt)
    mu_p = StructuralParams(math.pi / 2, math.pi / 2, 1.0 / (m * dt))
    assert abs(ambiguity_value(arr, seq, BROADSIDE, mu_p)) < 1e-12


def test_sequential_alias_is_unity():
    # linear phase identity: doppler shift exactly cancels the azimuth change
    m, dt = 8, 1e-3
    arr = make_ula(m, 0.5, 1.0)
    seq = sequential(m, dt)
    phi_p = math.pi / 3
    dnu = 0.5 * (math.cos(BROADSIDE.rx_azimuth) - math.cos(phi_p)) / dt
    mu_p = StructuralParams(phi_p, math.pi / 2, dnu)
    assert abs(ambiguity_value(arr, seq, BROADSIDE, mu_p)) == pytest.approx(1.0, abs=1e-12)


def test_magnitude_bounded_and_symmetric(rng):
    arr = make_octagonal(8, 2, 2, patch_exponent=2.0)
    seq = random_init(arr.num_elements, 1e-4, 1, rng)
    for _ in range(50):
        mu = StructuralParams(rng.uniform(0, 2 * math.pi),
                              rng.uniform(0.3, math.pi - 0.3),
                              rng.uniform(-2e3, 2e3))
        mu_p = StructuralParams(rng.uniform(0, 2 * math.pi),
                                rng.uniform(0.3, math.pi - 0.3),
                                rng.uniform(-2e3, 2e3))
        x = ambiguity_value(arr, seq, mu, mu_p)
        assert abs(x) <= 1.0 + 1e-12
        assert abs(abs(x) - abs(ambiguity_value(arr, seq, mu_p, mu))) < 1e-12


def test_degenerate_direction_raises():
    arr = single_panel_array()
    seq = sequential(4, 1e-3)
    behind = StructuralParams(math.pi, math.pi / 2, 0.0)
    with pytest.raises(DegenerateDirectionError):
        ambiguity_value(arr, seq, BROADSIDE, behind)


def test_time_shift_invariance(rng):
    arr = make_ula(8, 0.5, 1.0)
    seq = sequential(8, 1e-3)
    eta = seq.eta()
    mu = StructuralParams(1.0, 1.3, 0.0)
    mu_p = StructuralParams(1.4, 1.1, 432.1)
    x0 = normalized_correlation(basis_from_eta(arr, eta, mu),
                                basis_from_eta(arr, eta, mu_p))
    for shift in rng.uniform(-1.0, 1.0, 5):
        x1 = normalized_correlation(basis_from_eta(arr, eta + shift, mu),
                                    basis_from_eta(arr, eta + shift, mu_p))
        assert abs(abs(x0) - abs(x1)) < 1e-10


def test_objective_matches_bruteforce_per_sample_values():
    arr = make_octagonal(8, 2, 2, patch_exponent=2.0)
    seq = random_init(arr.num_elements, 1e-4, 1, np.random.default_rng(4))
    region = Region.default_for(1e-4)
    cfg = ObjectiveConfig(power=6, samples=64, seed=9)
    ev = ObjectiveEvaluator(arr, region, cfg, seq.delta_t, seq.snapshots)
    assert ev.degenerate_count == 0
    total = 0.0
    for i in range(cfg.samples):
        mu = StructuralParams(ev.azimuth[i], ev.elevation[i], 0.0)
        mu_p = StructuralParams(ev.azimuth_prime[i], ev.elevation_prime[i],
                                ev.delta_doppler[i])
        total += abs(ambiguity_value(arr, seq, mu, mu_p)) ** cfg.power
    brute = ev.volume * total / cfg.samples
    assert ev.evaluate(seq) == pytest.approx(brute, rel=1e-10)


def test_objective_matches_bruteforce_with_snapshots():
    arr = make_octagonal(8, 2, 2, patch_exponent=2.0)
    seq = random_init(arr.num_elements, 1e-4, 2, np.random.default_rng(12))
    region = Region.default_for(1e-4)
    cfg = ObjectiveConfig(power=6, samples=32, seed=2)
    ev = ObjectiveEvaluator(arr, region, cfg, seq.delta_t, seq.snapshots)
    total = 0.0
    for i in range(cfg.samples):
        mu = StructuralParams(ev.azimuth[i], ev.elevation[i], 0.0)
        mu_p = StructuralParams(ev.azimuth_prime[i], ev.elevation_prime[i],
                                ev.delta_doppler[i])
        total += abs(ambiguity_value(arr, seq, mu, mu_p)) ** cfg.power
    brute = ev.volume * total / cfg.samples
    assert ev.evaluate(seq) == pytest.approx(brute, rel=1e-10)


def test_objective_bit_stable_across_runs():
    arr = make_ula(16, 0.5, 1.0)
    seq = sequential(16, 1e-3)
    region = Region(doppler_bound=200.0)
    cfg = ObjectiveConfig(power=6, samples=512, seed=3)
    # two independently built evaluators give the same bits
    f1 = ObjectiveEvaluator(arr, region, cfg, seq.delta_t, 1).evaluate(seq)
    f2 = ObjectiveEvaluator(arr, region, cfg, seq.delta_t, 1).evaluate(seq)
    assert f1 == f2


@pytest.mark.parametrize("seed", [0, 1, 7, 999, 1234])
def test_sobol_points_match_scipy_bytes(seed):
    # scipy's scrambled Sobol generator is the slow reference; its balance
    # warning for counts that are not powers of two is irrelevant here
    from scipy.stats import qmc
    for n in (1, 2, 3, 5, 100, 4096, 16384):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            ref = qmc.Sobol(d=5, scramble=True, seed=seed).random(n)
        points = sobol_points(n, seed)
        assert points.shape == ref.shape and points.dtype == ref.dtype
        assert points.tobytes() == ref.tobytes(), (seed, n)


def reference_objective(ev, seq):
    """f_P rebuilt from the evaluator's sample points, with the Doppler
    phases taken by a complex exponential per call instead of the table."""
    g = steering_matrix(ev.array, ev.azimuth, ev.elevation)
    g_p = steering_matrix(ev.array, ev.azimuth_prime, ev.elevation_prime)
    norm = np.sqrt(ev.snapshots * np.sum(np.abs(g) ** 2, axis=1))
    norm_p = np.sqrt(ev.snapshots * np.sum(np.abs(g_p) ** 2, axis=1))
    ok = (norm > 0.0) & (norm_p > 0.0)
    denom = np.where(ok, norm * norm_p, 1.0)
    cross = np.where(ok[:, None], np.conj(g) * g_p / denom[:, None], 0.0)
    eta = seq.slot_of() * seq.delta_t
    phases = np.exp(2j * math.pi * np.outer(ev.delta_doppler, eta))
    mags = np.abs((cross * phases).sum(axis=1))
    if seq.snapshots > 1:
        offsets = np.arange(seq.snapshots) * seq.num_elements * seq.delta_t
        mags *= np.abs(np.exp(2j * math.pi * np.outer(ev.delta_doppler, offsets)).sum(axis=1))
    return ev.volume * np.sum(mags ** ev.config.power) / ev.config.samples


def chain_init(arr, update, snapshots, rng):
    if update == "hybrid":
        return hybrid_init(arr.num_elements, 1e-4, snapshots, arr.partition, rng)
    return random_init(arr.num_elements, 1e-4, snapshots, rng)


def swap_chain(arr, snapshots, length, rng):
    """Initial sequence plus length-1 successive swaps (hybrid when the
    array is partitioned)."""
    update = "random" if arr.partition is None else "hybrid"
    sets = swap_sets(update, arr.num_elements, arr.partition)
    seqs = [chain_init(arr, update, snapshots, rng)]
    while len(seqs) < length:
        seqs.append(swapped(seqs[-1], *draw_swap(sets, len(seqs), rng)))
    return seqs


DIFFERENTIAL_ARRAYS = {
    "ula": lambda: make_ula(16, 0.5, 1.0),
    "octagon": lambda: make_octagonal(8, 2, 2, patch_exponent=2.0),
    "single_panel": single_panel_array,  # about half the samples degenerate
}


@pytest.mark.parametrize("sin_elevation", [False, True])
@pytest.mark.parametrize("snapshots", [1, 3])
@pytest.mark.parametrize("array_name", sorted(DIFFERENTIAL_ARRAYS))
def test_evaluate_matches_per_call_exp_reference(array_name, snapshots, sin_elevation):
    arr = DIFFERENTIAL_ARRAYS[array_name]()
    cfg = ObjectiveConfig(power=6, samples=256, seed=11, sin_elevation=sin_elevation)
    ev = ObjectiveEvaluator(arr, Region.default_for(1e-4), cfg, 1e-4, snapshots)
    if array_name == "single_panel":
        assert ev.degenerate_count > 0
    for seq in swap_chain(arr, snapshots, 21, np.random.default_rng(snapshots)):
        ref = reference_objective(ev, seq)
        assert abs(ev.evaluate(seq) - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("sin_elevation", [False, True])
@pytest.mark.parametrize("snapshots", [1, 3])
@pytest.mark.parametrize("array_name, update", [
    ("ula", "random"), ("octagon", "random"), ("octagon", "hybrid"),
    ("single_panel", "random")])
def test_swap_sums_carried_along_a_chain_match_evaluate(array_name, update,
                                                         snapshots, sin_elevation):
    # every step is taken, as if accepted, so the sums carry 200 deltas; they
    # stay equal, integer for integer, to a fresh sample_sums, and so score
    # equal to evaluate
    arr = DIFFERENTIAL_ARRAYS[array_name]()
    cfg = ObjectiveConfig(power=6, samples=256, seed=5, sin_elevation=sin_elevation)
    ev = ObjectiveEvaluator(arr, Region.default_for(1e-4), cfg, 1e-4, snapshots)
    rng = np.random.default_rng(snapshots)
    seq = chain_init(arr, update, snapshots, rng)
    sets = swap_sets(update, arr.num_elements, arr.partition)
    sums = ev.sample_sums(seq)
    assert sums.dtype == np.int64 and sums.shape == (2, cfg.samples)
    assert ev.score(sums) == ev.evaluate(seq)
    for k in range(200):
        a, b = draw_swap(sets, k, rng)
        sums = ev.swap_sums(sums, seq.order, a, b)
        seq = swapped(seq, a, b)
        assert np.array_equal(sums, ev.sample_sums(seq)), k
        assert ev.score(sums) == ev.evaluate(seq), k


@pytest.mark.parametrize("array_name", sorted(DIFFERENTIAL_ARRAYS))
def test_block_terms_equal_per_row_terms(array_name):
    # a term has the same bits whether it is computed alone, in a block of
    # rows, or gathered by an index list as swap_sums does
    arr = DIFFERENTIAL_ARRAYS[array_name]()
    m = arr.num_elements
    ev = ObjectiveEvaluator(arr, Region.default_for(1e-4),
                            ObjectiveConfig(samples=256, seed=2), 1e-4, 1)
    slots = np.random.default_rng(m).permutation(m)
    rows = np.stack([ev.terms(e, slots[e]) for e in range(m)])
    assert rows.dtype == np.int64 and rows.shape == (m, 2, 256)
    assert np.array_equal(ev.terms(slice(0, m), slots), rows)
    assert np.array_equal(ev.terms(slice(1, m - 1), slots[1:m - 1]), rows[1:m - 1])
    picked = [m - 1, 0, m - 1, 1]
    assert np.array_equal(ev.terms(picked, slots[picked]), rows[picked])


def reference_phase_table(ev):
    """Doppler phase of every sample in every slot as the (M, 2, samples)
    real and imaginary rows the evaluator once held whole: slots lo..lo+L-1,
    L = ceil(sqrt(M)), as one coarse row exp(2 pi i dnu lo dt) times the
    fine rows exp(2 pi i dnu r dt)."""
    m, dt, dnu = ev.array.num_elements, ev.delta_t, ev.delta_doppler
    step = math.isqrt(m - 1) + 1
    fine = np.exp(2j * math.pi * np.outer(np.arange(step) * dt, dnu))
    phase = np.empty((m, 2, dnu.size))
    for lo in range(0, m, step):
        table = np.exp(2j * math.pi * (lo * dt) * dnu) * fine[:m - lo]
        rows = phase[lo:lo + step]
        rows[:, 0], rows[:, 1] = table.real, table.imag
    return phase


def reference_terms(ev, phase, elements, slots):
    """Fixed-point terms gathered from the full phase table, with the real
    multiplies and adds of terms()."""
    cross, p = np.broadcast_arrays(ev._cross[elements], phase[slots])
    c_re, c_im, p_re, p_im = (x[..., j, :] for x in (cross, p) for j in (0, 1))
    out = np.empty(cross.shape)
    np.multiply(c_re, p_re, out=out[..., 0, :])
    out[..., 0, :] -= c_im * p_im
    np.multiply(c_re, p_im, out=out[..., 1, :])
    out[..., 1, :] += c_im * p_re
    return np.rint(out, out=out).astype(np.int64)


def bits(x):
    return np.ascontiguousarray(x).view(np.int64)


@pytest.mark.parametrize("sin_elevation", [False, True])
@pytest.mark.parametrize("snapshots", [1, 3])
@pytest.mark.parametrize("m", [1, 2, 5, 16, 37, 128])
def test_phase_rows_equal_the_full_slot_table(m, snapshots, sin_elevation):
    # the evaluator keeps two phase factor tables and forms rows on demand;
    # every row, and every term formed from the rows of a slice, a list or
    # a 2 x 2 broadcast as swap_sums asks for, has the bits of the table
    cfg = ObjectiveConfig(samples=256, seed=6, sin_elevation=sin_elevation)
    ev = ObjectiveEvaluator(make_ula(m, 0.5, 1.0), Region.default_for(1e-4), cfg,
                            1e-4, snapshots)
    table = reference_phase_table(ev)
    rows = ev.phase_rows(np.arange(m))
    assert rows.shape == (m, 256)
    assert np.array_equal(bits(rows.real), bits(table[:, 0]))
    assert np.array_equal(bits(rows.imag), bits(table[:, 1]))
    slots = np.random.default_rng(m).permutation(m)
    for elements, picked in [(slice(0, m), slots),
                             (list(range(m))[::-1], slots.tolist()),
                             ([[m - 1], [0]], [int(slots[0]), int(slots[-1])])]:
        terms = ev.terms(elements, picked)
        assert np.array_equal(terms, reference_terms(ev, table, elements, picked))
    assert terms.shape == (2, 2, 2, 256)


def test_evaluator_retains_products_and_phase_factors_only():
    # after the build the evaluator holds its steering products (one
    # samples x M complex matrix) and two phase factor tables of 23 rows at
    # M = 128, about 1.2 matrices; a full M-row slot phase table on top
    # reads 2.0
    arr = make_octagonal(8, 4, 4, patch_exponent=2.0)
    samples = 1024

    def build(n):
        return ObjectiveEvaluator(arr, Region.default_for(1e-4),
                                  ObjectiveConfig(samples=n, seed=3), 1e-4, 1)

    build(1)  # modules numpy loads on first use are not the evaluator's
    tracemalloc.start()
    try:
        ev = build(samples)  # held while the memory is read
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert ev.config.samples == samples
    one_matrix = samples * arr.num_elements * np.dtype(complex).itemsize
    assert retained <= 1.5 * one_matrix


# the two directions of every sample nearly coincide and the Doppler
# difference nearly vanishes, so |S_n| reaches 1, the bound's worst case
TIGHT_REGION = Region(azimuth=(0.3, 0.3 + 1e-9), elevation=(1.2, 1.2 + 1e-9),
                      doppler_bound=1e-9)


@pytest.mark.parametrize("snapshots", [1, 3])
@pytest.mark.parametrize("region", [Region.default_for(1e-4), TIGHT_REGION],
                         ids=["default", "tight"])
@pytest.mark.parametrize("array_name", sorted(DIFFERENTIAL_ARRAYS))
def test_fixed_point_sums_within_overflow_bound(array_name, region, snapshots):
    # sum_m |term| bounds every partial sum of sample_sums and swap_sums; it
    # is 2**61 sum_m |cross[m, n]| <= 2**61 by Cauchy-Schwarz, plus 1/2 per
    # rounded term and a few ulps of 2**61 from the floating-point build
    arr = DIFFERENTIAL_ARRAYS[array_name]()
    m = arr.num_elements
    ev = ObjectiveEvaluator(arr, region, ObjectiveConfig(samples=256, seed=4),
                            1e-4, snapshots)
    if array_name == "single_panel" and region is not TIGHT_REGION:
        assert ev.degenerate_count > 0
    bound = 2 ** 61 * (1 + 1e-12) + m
    for seq in swap_chain(arr, snapshots, 5, np.random.default_rng(m)):
        terms = ev.terms(slice(0, m), seq.slot_of())
        assert np.abs(terms).sum(axis=0).max() <= bound
        assert np.array_equal(terms.sum(axis=0), ev.sample_sums(seq))
    if region is TIGHT_REGION and snapshots == 1:
        # the bound is reached: sums of 2**61 in magnitude, not far below
        assert np.abs(ev.sample_sums(seq)).max() > 2 ** 61 * (1 - 1e-6)


def test_objective_power_monotonicity():
    arr = make_ula(16, 0.5, 1.0)
    seq = sequential(16, 1e-3)
    region = Region(doppler_bound=200.0)
    f2 = ObjectiveEvaluator(arr, region, ObjectiveConfig(power=2, samples=512, seed=1),
                            seq.delta_t).evaluate(seq)
    f6 = ObjectiveEvaluator(arr, region, ObjectiveConfig(power=6, samples=512, seed=1),
                            seq.delta_t).evaluate(seq)
    assert f6 <= f2


def test_optimized_random_beats_sequential():
    m, dt = 16, 1e-3
    arr = make_ula(m, 0.5, 1.0)
    region = Region(doppler_bound=300.0)
    cfg = ObjectiveConfig(power=6, samples=1024, seed=2)
    ev = ObjectiveEvaluator(arr, region, cfg, dt, 1)
    f_seq = ev.evaluate(sequential(m, dt))
    rng = np.random.default_rng(2)
    opt, _ = anneal(random_init(m, dt, 1, rng),
                    AnnealConfig(update="random", k_max=80), ev, rng)
    assert ev.evaluate(opt) < f_seq


def test_objective_invariant_to_permutation_relabel_volume():
    # same sequence evaluated through a fresh evaluator built from it
    arr = make_ula(8, 0.5, 1.0)
    seq = sequential(8, 1e-3)
    region = Region(doppler_bound=100.0)
    cfg = ObjectiveConfig(samples=256, seed=8)
    ev = ObjectiveEvaluator(arr, region, cfg, 1e-3, 1)
    fresh = ObjectiveEvaluator(arr, region, cfg, seq.delta_t, seq.snapshots)
    assert ev.evaluate(seq) == fresh.evaluate(seq)


def test_evaluator_counts_degenerate_directions():
    arr = single_panel_array()
    region = Region()  # full sphere, ~half the draws face the back
    cfg = ObjectiveConfig(samples=256, seed=0)
    ev = ObjectiveEvaluator(arr, region, cfg, 1e-3, 1)
    assert ev.degenerate_count > 0
    val = ev.evaluate(sequential(4, 1e-3))
    assert np.isfinite(val) and val >= 0.0


def test_evaluator_rejects_mismatched_sequences():
    arr = make_ula(8, 0.5, 1.0)
    ev = ObjectiveEvaluator(arr, Region(doppler_bound=100.0),
                            ObjectiveConfig(samples=64, seed=0), 1e-3, 1)
    with pytest.raises(ValueError):
        ev.evaluate(sequential(8, 2e-3))
    with pytest.raises(ValueError):
        ev.evaluate(sequential(4, 1e-3))
    with pytest.raises(ValueError):
        ev.evaluate(sequential(8, 1e-3, snapshots=2))


def test_sin_elevation_option_changes_measure():
    arr = make_ula(8, 0.5, 1.0)
    seq = sequential(8, 1e-3)
    region = Region(doppler_bound=100.0)
    flat = ObjectiveEvaluator(arr, region, ObjectiveConfig(samples=512, seed=1),
                              seq.delta_t).evaluate(seq)
    weighted = ObjectiveEvaluator(
        arr, region, ObjectiveConfig(samples=512, seed=1, sin_elevation=True),
        seq.delta_t).evaluate(seq)
    assert flat != weighted
    assert np.isfinite(weighted)


def test_config_validation():
    with pytest.raises(ValueError):
        ObjectiveConfig(power=3)
    with pytest.raises(ValueError):
        ObjectiveConfig(power=0)
    with pytest.raises(ValueError):
        ObjectiveConfig(samples=0)
    with pytest.raises(ValueError, match="Sobol period"):
        ObjectiveConfig(samples=2 ** 30 + 1)
    assert ObjectiveConfig(samples=2 ** 30).samples == 2 ** 30
    with pytest.raises(ValueError):
        Region(doppler_bound=0.0)


def test_surface_peak_and_bounds():
    arr = make_ula(8, 0.5, 1.0)
    seq = sequential(8, 1e-3)
    dop = np.arange(-200.0, 200.5, 5.0)
    ang = np.arange(-20.0, 20.25, 0.5)
    surf = ambiguity_surface(arr, seq, BROADSIDE, dop, ang, "aoa")
    a0 = np.argmin(np.abs(ang))
    d0 = np.argmin(np.abs(dop))
    assert surf.magnitude[a0, d0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(surf.magnitude <= 1.0 + 1e-12)
    assert np.all(surf.magnitude_db >= -100.0 - 1e-9)
    assert surf.magnitude_db[a0, d0] == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("snapshots", [1, 2, 3])
@pytest.mark.parametrize("axis", ["eoa", "aoa"])
@pytest.mark.parametrize("array_name", ["ula", "octagon"])
def test_surface_matches_ambiguity_value_oracle(array_name, axis, snapshots):
    # every cell against the two-basis inner product, at a reference with a
    # non-zero Doppler and random sequences of several snapshots
    arr = (make_ula(8, 0.5, 1.0) if array_name == "ula"
           else make_octagonal(8, 2, 2, patch_exponent=2.0))
    seq = random_init(arr.num_elements, 1e-4, snapshots,
                      np.random.default_rng(snapshots))
    mu = StructuralParams(0.3, 1.4, 37.0)
    dop = np.linspace(-3000.0, 3000.0, 13)
    ang = np.arange(-20.0, 20.5, 5.0)
    surf = ambiguity_surface(arr, seq, mu, dop, ang, axis)
    offsets = np.radians(ang)
    directions = ([(mu.rx_azimuth, mu.rx_elevation + o) for o in offsets]
                  if axis == "eoa" else
                  [((mu.rx_azimuth + o) % (2 * math.pi), mu.rx_elevation)
                   for o in offsets])
    oracle = [[abs(ambiguity_value(arr, seq, mu,
                                   StructuralParams(az, el, mu.doppler_hz + d)))
               for d in dop] for az, el in directions]
    np.testing.assert_allclose(surf.magnitude, oracle, rtol=0, atol=1e-12)


def test_surface_rejects_bad_grids():
    arr = make_ula(4, 0.5, 1.0)
    seq = sequential(4, 1e-3)
    with pytest.raises(ValueError):
        ambiguity_surface(arr, seq, BROADSIDE, np.array([1.0, 0.0]),
                          np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        ambiguity_surface(arr, seq, BROADSIDE, np.array([]), np.array([0.0]))
    # eoa sweep walking out of [0, pi]
    with pytest.raises(ValueError):
        ambiguity_surface(arr, seq, BROADSIDE, np.array([0.0]),
                          np.arange(-120.0, 120.0, 1.0), "eoa")
    with pytest.raises(ValueError):
        ambiguity_surface(arr, seq, BROADSIDE, np.array([0.0]),
                          np.array([0.0]), "bogus")


def test_surface_csv_export(tmp_path):
    arr = make_ula(4, 0.5, 1.0)
    seq = sequential(4, 1e-3)
    dop = np.arange(-100.0, 100.5, 25.0)
    ang = np.arange(-10.0, 10.5, 5.0)
    surf = ambiguity_surface(arr, seq, BROADSIDE, dop, ang, "aoa")
    out = tmp_path / "surface.csv"
    save_surface_csv(surf, out, metadata={"note": "test"})
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["delta_doppler_hz", "angle_deg", "magnitude_db"]
    assert len(rows) - 1 == dop.size * ang.size
    meta = json.loads((tmp_path / "surface.csv.meta.json").read_text())
    assert meta["note"] == "test"
    assert meta["angle_axis"] == "aoa"
    assert len(meta["delta_doppler_hz"]) == dop.size


def _reference_surface_csv(surface, path):
    """The original writer: one csv.writer row of repr'd floats per cell."""
    db = surface.magnitude_db
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["delta_doppler_hz", "angle_deg", "magnitude_db"])
        for a, angle in enumerate(surface.angle_offset_deg):
            for d, dop in enumerate(surface.doppler_hz):
                writer.writerow([repr(float(dop)), repr(float(angle)),
                                 repr(float(db[a, d]))])


@pytest.mark.parametrize("case", ["sweep", "extremes"])
def test_surface_csv_bytes_match_csv_writer(tmp_path, rng, case):
    if case == "sweep":
        arr = make_ula(8, 0.5, 1.0)
        seq = random_init(8, 1e-3, 1, rng)
        surf = ambiguity_surface(arr, seq, BROADSIDE, np.arange(-200.0, 201.0, 2.5),
                                 np.arange(-20.0, 20.25, 0.25), "aoa")
    else:
        # -0.0 offsets, magnitudes at and below the -100 dB floor, and
        # magnitudes whose dB values span many orders
        dop = np.array([-1e300, -0.0, 1e-300, 0.1, 7.0e12])
        ang = np.array([-1e-12, -0.0, 1.0 / 3.0])
        mag = np.array([[0.0, 1e-5, 1e-300, 5e-324, 1.0],
                        [1e308, 1e-5 * (1 + 1e-15), 0.1, 2.0 / 3.0, 1e-4],
                        [np.pi, 1e-5 * (1 - 1e-15), 123456789.0, 1e-10, 0.5]])
        surf = AmbiguitySurface(dop, ang, "eoa", mag, BROADSIDE)
    save_surface_csv(surf, tmp_path / "fast.csv")
    _reference_surface_csv(surf, tmp_path / "reference.csv")
    assert ((tmp_path / "fast.csv").read_bytes()
            == (tmp_path / "reference.csv").read_bytes())
