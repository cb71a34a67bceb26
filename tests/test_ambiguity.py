import csv
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

import switchseq.ambiguity
from switchseq import (AmbiguitySurface, AnnealConfig, ArrayModel,
                       DegenerateDirectionError,
                       ObjectiveConfig, ObjectiveEvaluator, PatchPattern,
                       StructuralParams, TabulatedPattern,
                       ambiguity_surface, anneal, basis_from_eta,
                       make_octagonal, make_ula, random_init, sequential)
from switchseq.ambiguity import (_BLOCK_ENTRIES, _CSV_CELLS, FIXED_BITS,
                                 SWEEP_COLUMNS, save_surface_csv, snapshot_gain,
                                 sobol_points, surface_sidecar, sweep_directions)
from switchseq.arrays import WAVELENGTH, steering_matrix, unit_vectors
from switchseq.arrays import basis
from switchseq.config import ExperimentConfig
from switchseq.switching import draw_swap, swap_sets

from conftest import readme_config, swapped
from oracles import ambiguity_value, normalized_correlation, objective_points

BROADSIDE = StructuralParams(math.pi / 2, math.pi / 2, 0.0)


def single_panel_array(m=4):
    """All patches face +x, so directions behind the panel are degenerate."""
    positions = np.zeros((m, 3))
    positions[:, 1] = np.arange(m) * 0.5 * WAVELENGTH
    pat = PatchPattern(exponent=2.0, boresight=(1.0, 0.0, 0.0))
    return ArrayModel(positions, (pat,) * m)


def test_self_ambiguity_is_one():
    arr = make_ula(8, 0.5)
    seq = sequential(8, 1e-3)
    mu = StructuralParams(1.0, 1.2, 321.0)
    assert abs(ambiguity_value(arr, seq, mu, mu) - 1.0) < 1e-12


def test_dirichlet_null():
    m, dt = 8, 1e-3
    arr = make_ula(m, 0.5)
    seq = sequential(m, dt)
    mu_p = StructuralParams(math.pi / 2, math.pi / 2, 1.0 / (m * dt))
    assert abs(ambiguity_value(arr, seq, BROADSIDE, mu_p)) < 1e-12


def test_sequential_alias_is_unity():
    # linear phase identity: doppler shift exactly cancels the azimuth change
    m, dt = 8, 1e-3
    arr = make_ula(m, 0.5)
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
    arr = make_ula(8, 0.5)
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
    bound = 0.25 / (2.0 * 1e-4)
    cfg = ObjectiveConfig(power=6, samples=64, seed=9)
    ev = ObjectiveEvaluator(arr, bound, cfg, seq.delta_t, seq.snapshots)
    assert ev.degenerate_count == 0
    *points, volume = objective_points(bound, cfg)
    total = 0.0
    for phi, theta, phi_p, theta_p, dnu in zip(*points):
        mu, mu_p = StructuralParams(phi, theta, 0.0), StructuralParams(phi_p, theta_p, dnu)
        total += abs(ambiguity_value(arr, seq, mu, mu_p)) ** cfg.power
    brute = volume * total / cfg.samples
    assert ev.evaluate(seq) == pytest.approx(brute, rel=1e-10)


def test_objective_matches_bruteforce_with_snapshots():
    arr = make_octagonal(8, 2, 2, patch_exponent=2.0)
    seq = random_init(arr.num_elements, 1e-4, 2, np.random.default_rng(12))
    bound = 0.25 / (2.0 * 1e-4)
    cfg = ObjectiveConfig(power=6, samples=32, seed=2)
    ev = ObjectiveEvaluator(arr, bound, cfg, seq.delta_t, seq.snapshots)
    *points, volume = objective_points(bound, cfg)
    total = 0.0
    for phi, theta, phi_p, theta_p, dnu in zip(*points):
        mu, mu_p = StructuralParams(phi, theta, 0.0), StructuralParams(phi_p, theta_p, dnu)
        total += abs(ambiguity_value(arr, seq, mu, mu_p)) ** cfg.power
    brute = volume * total / cfg.samples
    assert ev.evaluate(seq) == pytest.approx(brute, rel=1e-10)


def test_objective_bit_stable_across_runs():
    arr = make_ula(16, 0.5)
    seq = sequential(16, 1e-3)
    bound = 200.0
    cfg = ObjectiveConfig(power=6, samples=512, seed=3)
    # two independently built evaluators give the same bits
    f1 = ObjectiveEvaluator(arr, bound, cfg, seq.delta_t, 1).evaluate(seq)
    f2 = ObjectiveEvaluator(arr, bound, cfg, seq.delta_t, 1).evaluate(seq)
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


def reference_objective(ev, bound, seq):
    """f_P rebuilt from the oracle's sample points of the evaluator's Doppler
    bound and objective, with the Doppler phases taken by a complex
    exponential per call instead of the table."""
    phi, theta, phi_p, theta_p, dnu, volume = objective_points(bound, ev.config)
    assert volume == ev.volume
    g = steering_matrix(ev.array, phi, theta)
    g_p = steering_matrix(ev.array, phi_p, theta_p)
    norm = np.sqrt(ev.snapshots * np.sum(np.abs(g) ** 2, axis=1))
    norm_p = np.sqrt(ev.snapshots * np.sum(np.abs(g_p) ** 2, axis=1))
    ok = (norm > 0.0) & (norm_p > 0.0)
    denom = np.where(ok, norm * norm_p, 1.0)
    cross = np.where(ok[:, None], np.conj(g) * g_p / denom[:, None], 0.0)
    eta = seq.slot_of() * seq.delta_t
    phases = np.exp(2j * math.pi * np.outer(dnu, eta))
    mags = np.abs((cross * phases).sum(axis=1))
    if seq.snapshots > 1:
        offsets = np.arange(seq.snapshots) * seq.num_elements * seq.delta_t
        mags *= np.abs(np.exp(2j * math.pi * np.outer(dnu, offsets)).sum(axis=1))
    return volume * np.sum(mags ** ev.config.power) / ev.config.samples


def chain_init(arr, scheme, snapshots, rng):
    return random_init(arr.num_elements, 1e-4, snapshots, rng,
                       arr.partition if scheme == "hybrid" else None)


def swap_chain(arr, snapshots, length, rng):
    """Initial sequence plus length-1 successive swaps (hybrid when the
    array is partitioned)."""
    seqs = [chain_init(arr, "hybrid", snapshots, rng)]
    sets = swap_sets(arr.num_elements, seqs[0].partition)
    while len(seqs) < length:
        seqs.append(swapped(seqs[-1], *draw_swap(sets, len(seqs), rng)))
    return seqs


def tabulated_array(m=8):
    """Two panels of elements with a tabulated pattern each: random complex
    gains, zero on a block of grid cells for every other element (live on
    part of the samples) and nonzero everywhere for the rest (live on every
    sample)."""
    rng = np.random.default_rng(m)
    az = np.linspace(0.0, 2 * math.pi, 12, endpoint=False)
    el = np.linspace(0.0, math.pi, 7)
    patterns = []
    for e in range(m):
        gains = rng.uniform(0.5, 1.5, (12, 7)) * np.exp(2j * math.pi * rng.random((12, 7)))
        if e % 2:
            gains[e:e + 4, 2:5] = 0.0  # 3 x 2 cells between zero grid points
        patterns.append(TabulatedPattern(az, el, gains))
    positions = np.zeros((m, 3))
    positions[:, 1] = np.arange(m) * 0.5
    positions[m // 2:, 0] = 0.5
    half = tuple(range(m // 2))
    return ArrayModel(positions * WAVELENGTH, tuple(patterns),
                      (half, tuple(range(m // 2, m))))


DIFFERENTIAL_ARRAYS = {
    "ula": lambda: make_ula(16, 0.5),
    "octagon": lambda: make_octagonal(8, 2, 2, patch_exponent=2.0),
    "single_panel": single_panel_array,  # about half the samples degenerate
    "tabulated": tabulated_array,  # one pattern per element, some live everywhere
}


@pytest.mark.parametrize("snapshots", [1, 3])
@pytest.mark.parametrize("array_name", sorted(DIFFERENTIAL_ARRAYS))
def test_evaluate_matches_per_call_exp_reference(array_name, snapshots):
    arr = DIFFERENTIAL_ARRAYS[array_name]()
    cfg = ObjectiveConfig(power=6, samples=256, seed=11)
    bound = 0.25 / (2.0 * 1e-4)
    ev = ObjectiveEvaluator(arr, bound, cfg, 1e-4, snapshots)
    if array_name == "single_panel":
        assert ev.degenerate_count > 0
    for seq in swap_chain(arr, snapshots, 21, np.random.default_rng(snapshots)):
        ref = reference_objective(ev, bound, seq)
        assert abs(ev.evaluate(seq) - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("snapshots", [1, 3])
@pytest.mark.parametrize("array_name, scheme", [
    ("ula", "random"), ("octagon", "random"), ("octagon", "hybrid"),
    ("single_panel", "random"), ("tabulated", "hybrid")])
def test_swap_sums_carried_along_a_chain_match_evaluate(array_name, scheme, snapshots):
    # every step is taken, as if accepted, so the sums carry 200 deltas and
    # the contributions 200 partial rescorings; they stay equal, integer for
    # integer and bit for bit, to a fresh sample_sums and its contributions,
    # and so the proposal's f_P equal to evaluate
    arr = DIFFERENTIAL_ARRAYS[array_name]()
    cfg = ObjectiveConfig(power=6, samples=256, seed=5)
    ev = ObjectiveEvaluator(arr, 0.25 / (2.0 * 1e-4), cfg, 1e-4, snapshots)
    rng = np.random.default_rng(snapshots)
    seq = chain_init(arr, scheme, snapshots, rng)
    sets = swap_sets(seq.num_elements, seq.partition)
    sums = ev.sample_sums(seq)
    assert sums.dtype == np.int64 and sums.shape == (2, cfg.samples)
    contributions = ev.contributions(sums)
    assert ev.total(contributions) == ev.evaluate(seq)
    for k in range(200):
        a, b = draw_swap(sets, k, rng)
        sums, contributions, f = ev.propose(sums, contributions, seq.order, a, b)
        seq = swapped(seq, a, b)
        assert np.array_equal(sums, ev.sample_sums(seq)), k
        assert np.array_equal(bits(contributions),
                              bits(ev.contributions(ev.sample_sums(seq)))), k
        assert f == ev.evaluate(seq), k


def reference_cross(ev, bound):
    """The evaluator's steering products as the dense (M, 2, samples) table
    it once held, built a block of elements at a time as it built them:
    conj(G) G' exp(i k (u' - u).p) where the gain product is nonzero and
    0.0 elsewhere, then scaled to units of 2**-FIXED_BITS."""
    array, n = ev.array, ev.config.samples
    m = array.num_elements
    phi, theta, phi_p, theta_p, _, _ = objective_points(bound, ev.config)
    du = unit_vectors(phi_p, theta_p) - unit_vectors(phi, theta)
    block = max(1, _BLOCK_ENTRIES // n)
    dense = np.zeros((m, 2, n))
    power = np.zeros((2, n))
    pattern = pair = None
    for lo in range(0, m, block):
        rows = slice(lo, lo + block)
        patterns = array.patterns[rows]
        gains = np.empty((2, n, len(patterns)), dtype=complex).transpose(0, 2, 1)
        for j, p in enumerate(patterns):
            if p is not pattern:
                pattern, pair = p, np.array([p.gain(phi, theta),
                                             p.gain(phi_p, theta_p)])
            gains[:, j] = pair
        power += (gains.real ** 2 + gains.imag ** 2).sum(axis=1)
        both = np.conj(gains[0]) * gains[1]
        live = both != 0.0
        arg = array.wavenumber * (array.positions[rows] @ du.T)
        term = both[live] * np.exp(1j * arg[live])
        cross = dense[rows]
        cross[:, 0][live], cross[:, 1][live] = term.real, term.imag
    ok = (power > 0.0).all(axis=0)
    dense *= np.where(ok, 2.0 ** FIXED_BITS, 0.0) / np.where(
        ok, ev.snapshots * np.sqrt(power[0] * power[1]), 1.0)
    return dense


def reference_phase_table(ev, bound):
    """Doppler phase of every sample in every slot as the (M, 2, samples)
    real and imaginary rows the evaluator once held whole: slots lo..lo+L-1,
    L = ceil(sqrt(M)), as one coarse row exp(2 pi i dnu lo dt) times the
    fine rows exp(2 pi i dnu r dt)."""
    m, dt, dnu = ev.array.num_elements, ev.delta_t, objective_points(bound, ev.config)[4]
    step = math.isqrt(m - 1) + 1
    fine = np.exp(2j * math.pi * np.outer(np.arange(step) * dt, dnu))
    phase = np.empty((m, 2, dnu.size))
    for lo in range(0, m, step):
        table = np.exp(2j * math.pi * (lo * dt) * dnu) * fine[:m - lo]
        rows = phase[lo:lo + step]
        rows[:, 0], rows[:, 1] = table.real, table.imag
    return phase


def reference_terms(cross, phase, elements, slots):
    """Fixed-point terms of the dense products in the full phase table's
    slots, with the real multiplies and adds of term(), shape
    (elements, 2, samples)."""
    c, p = cross[elements], phase[slots]
    c_re, c_im, p_re, p_im = c[:, 0], c[:, 1], p[:, 0], p[:, 1]
    out = np.empty(c.shape)
    np.multiply(c_re, p_re, out=out[:, 0])
    out[:, 0] -= c_im * p_im
    np.multiply(c_re, p_im, out=out[:, 1])
    out[:, 1] += c_im * p_re
    return np.rint(out, out=out).astype(np.int64)


def bits(x):
    return np.ascontiguousarray(x).view(np.int64)


def dead_samples(ev, element):
    """Mask of the samples on which an element keeps no product."""
    dead = np.ones(ev.config.samples, dtype=bool)
    dead[ev.live[element]] = False
    return dead


@pytest.mark.parametrize("samples, snapshots", [(256, 1), (256, 3), (4096, 1)])
@pytest.mark.parametrize("array_name", sorted(DIFFERENTIAL_ARRAYS))
def test_live_products_equal_the_dense_reference(array_name, samples, snapshots):
    # every kept product has the bits of the dense table's entry, and the
    # dense table is exactly 0.0 on the samples an element does not keep;
    # at 4096 samples the build takes 8 elements a block, so several blocks
    # add into the power sums
    arr = DIFFERENTIAL_ARRAYS[array_name]()
    bound = 0.25 / (2.0 * 1e-4)
    ev = ObjectiveEvaluator(arr, bound, ObjectiveConfig(samples=samples, seed=2),
                            1e-4, snapshots)
    dense = reference_cross(ev, bound)
    patterns = {}
    for e, (live, cross) in enumerate(zip(ev.live, ev._cross)):
        if isinstance(live, slice):
            assert live == slice(None)
        else:
            assert live.dtype == np.intp and np.all(np.diff(live) > 0)
        assert patterns.setdefault(id(arr.patterns[e]), live) is live
        assert np.array_equal(bits(cross), bits(dense[e][:, live]))
        assert np.all(dense[e][:, dead_samples(ev, e)] == 0.0)
    kept = sum(np.count_nonzero(~dead_samples(ev, e)) for e in range(arr.num_elements))
    assert ev.live_fraction == kept / (arr.num_elements * samples)
    if array_name == "tabulated":  # both kinds of index occur
        assert {isinstance(live, slice) for live in ev.live} == {True, False}


@pytest.mark.parametrize("array_name", sorted(DIFFERENTIAL_ARRAYS))
def test_block_terms_equal_per_row_terms(array_name):
    # an element's term on its live samples has the bits of the dense
    # reference's term there, and the dense term is 0 elsewhere
    arr = DIFFERENTIAL_ARRAYS[array_name]()
    m = arr.num_elements
    bound = 0.25 / (2.0 * 1e-4)
    ev = ObjectiveEvaluator(arr, bound, ObjectiveConfig(samples=256, seed=2), 1e-4, 1)
    dense, table = reference_cross(ev, bound), reference_phase_table(ev, bound)
    slots = np.random.default_rng(m).permutation(m)
    rows = reference_terms(dense, table, np.arange(m), slots)
    assert rows.dtype == np.int64 and rows.shape == (m, 2, 256)
    for e in range(m):
        t = ev.term(e, int(slots[e]))
        assert t.dtype == np.int64
        assert np.array_equal(t, rows[e][:, ev.live[e]])
        assert not rows[e][:, dead_samples(ev, e)].any()


@pytest.mark.parametrize("snapshots", [1, 3])
@pytest.mark.parametrize("m", [1, 2, 5, 16, 37, 128])
def test_phase_rows_equal_the_full_slot_table(m, snapshots):
    # the evaluator keeps two phase factor tables and forms the row of a
    # slot on an element's live samples; every row, on every sample and on
    # a subset, and every term formed from it, has the bits of the table
    cfg = ObjectiveConfig(samples=256, seed=6)
    bound = 0.25 / (2.0 * 1e-4)
    ev = ObjectiveEvaluator(make_ula(m, 0.5), bound, cfg, 1e-4, snapshots)
    table = reference_phase_table(ev, bound)
    subset = np.flatnonzero(np.random.default_rng(m).random(256) < 0.3)
    for s in range(m):
        for live in (slice(None), subset):
            row = ev._phase(s, live)
            assert np.array_equal(bits(row.real), bits(table[s, 0][live]))
            assert np.array_equal(bits(row.imag), bits(table[s, 1][live]))
    assert all(live == slice(None) for live in ev.live)  # omni: live everywhere
    dense = reference_cross(ev, bound)
    slots = np.random.default_rng(m).permutation(m)
    terms = reference_terms(dense, table, np.arange(m), slots)
    for e in range(m):
        assert np.array_equal(ev.term(e, int(slots[e])), terms[e])


def test_evaluator_retains_products_and_phase_factors_only():
    # after the build the evaluator holds, on the octagon, the steering
    # products of the quarter of samples each element sees power on, the
    # sorted index of each panel's live samples and two phase factor tables
    # of 23 rows at M = 128: about 0.47 of one samples x M complex matrix;
    # the dense products alone read 1.0
    arr = make_octagonal(8, 4, 4, patch_exponent=2.0)
    assert retained_matrices(arr) <= 0.6


def test_evaluator_on_an_omni_array_retains_dense_products():
    # an omni ULA is live on every sample, so it keeps every product and no
    # index: one matrix plus the phase factor tables, about 1.21
    assert retained_matrices(make_ula(128, 0.5)) <= 1.25


def retained_matrices(arr, samples=1024):
    """Memory an evaluator keeps after its build, in units of one samples x
    M complex matrix (tracemalloc)."""
    def build(n):
        return ObjectiveEvaluator(arr, 0.25 / (2.0 * 1e-4),
                                  ObjectiveConfig(samples=n, seed=3), 1e-4, 1)

    build(1)  # modules numpy loads on first use are not the evaluator's
    tracemalloc.start()
    try:
        ev = build(samples)  # held while the memory is read
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert ev.config.samples == samples
    return retained / (samples * arr.num_elements * np.dtype(complex).itemsize)


def test_evaluator_build_frees_its_scratch_before_the_products_grow():
    # a block's |G|^2 scratch (0.5 MiB here) is summed into the powers and
    # freed before the block's products are formed: on the README octagon
    # at 4096 samples the build then peaks 0.89 MiB above what it keeps,
    # and 1.30 MiB when the scratch is held beside the products
    config = ExperimentConfig.from_dict(readme_config())

    def build(samples):
        return replace(config, objective=replace(config.objective,
                                                 samples=samples)).evaluator()

    build(1)  # modules numpy loads on first use are not the evaluator's
    tracemalloc.start()
    try:
        ev = build(4096)  # held while the memory is read
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ev.config.samples == 4096
    assert peak - retained < 0.95 * 2 ** 20, (peak - retained) / 2 ** 20


def squeezed_sobol_points(monkeypatch, doppler_bound):
    """Make the evaluator's Sobol points map into boxes 1e-9 wide at
    azimuth 0.3 and elevation 1.2 (uniform elevations), in both directions,
    and to Doppler differences within 1e-9 of 0 under doppler_bound."""
    sobol_points = switchseq.ambiguity.sobol_points

    def squeezed(n, seed):
        u = sobol_points(n, seed)
        u[:, [0, 2]] = (0.3 + u[:, [0, 2]] * 1e-9) / (2.0 * math.pi)
        u[:, [1, 3]] = (1.2 + u[:, [1, 3]] * 1e-9) / math.pi
        u[:, 4] = 0.5 + (u[:, 4] - 0.5) * (1e-9 / doppler_bound)
        return u

    monkeypatch.setattr(switchseq.ambiguity, "sobol_points", squeezed)


@pytest.mark.parametrize("snapshots", [1, 3])
@pytest.mark.parametrize("points", ["default", "tight"])
@pytest.mark.parametrize("array_name", sorted(DIFFERENTIAL_ARRAYS))
def test_fixed_point_sums_within_overflow_bound(array_name, points, snapshots,
                                                monkeypatch):
    # sum_m |term| bounds every partial sum of sample_sums and propose; it
    # is 2**61 sum_m |cross[m, n]| <= 2**61 by Cauchy-Schwarz, plus 1/2 per
    # rounded term and a few ulps of 2**61 from the floating-point build.
    # With the tight points the two directions of every sample nearly
    # coincide and the Doppler difference nearly vanishes, so |S_n| reaches
    # 1, the bound's worst case
    arr = DIFFERENTIAL_ARRAYS[array_name]()
    m = arr.num_elements
    doppler = 0.25 / (2.0 * 1e-4)
    if points == "tight":
        squeezed_sobol_points(monkeypatch, doppler)
    ev = ObjectiveEvaluator(arr, doppler, ObjectiveConfig(samples=256, seed=4),
                            1e-4, snapshots)
    if array_name == "single_panel" and points == "default":
        assert ev.degenerate_count > 0
    bound = 2 ** 61 * (1 + 1e-12) + m
    dense, table = reference_cross(ev, doppler), reference_phase_table(ev, doppler)
    for seq in swap_chain(arr, snapshots, 5, np.random.default_rng(m)):
        slots = seq.slot_of()
        terms = reference_terms(dense, table, np.arange(m), slots)
        for e in range(m):
            assert np.array_equal(ev.term(e, int(slots[e])), terms[e][:, ev.live[e]])
        assert np.abs(terms).sum(axis=0).max() <= bound
        assert np.array_equal(terms.sum(axis=0), ev.sample_sums(seq))
    if points == "tight" and snapshots == 1:
        # the bound is reached: sums of 2**61 in magnitude, not far below
        assert np.abs(ev.sample_sums(seq)).max() > 2 ** 61 * (1 - 1e-6)


def test_objective_power_monotonicity():
    arr = make_ula(16, 0.5)
    seq = sequential(16, 1e-3)
    bound = 200.0
    f2 = ObjectiveEvaluator(arr, bound, ObjectiveConfig(power=2, samples=512, seed=1),
                            seq.delta_t).evaluate(seq)
    f6 = ObjectiveEvaluator(arr, bound, ObjectiveConfig(power=6, samples=512, seed=1),
                            seq.delta_t).evaluate(seq)
    assert f6 <= f2


def test_optimized_random_beats_sequential():
    m, dt = 16, 1e-3
    arr = make_ula(m, 0.5)
    bound = 300.0
    cfg = ObjectiveConfig(power=6, samples=1024, seed=2)
    ev = ObjectiveEvaluator(arr, bound, cfg, dt, 1)
    f_seq = ev.evaluate(sequential(m, dt))
    rng = np.random.default_rng(2)
    opt, _ = anneal(random_init(m, dt, 1, rng),
                    AnnealConfig(k_max=80), ev, rng)
    assert ev.evaluate(opt) < f_seq


def test_objective_invariant_to_permutation_relabel_volume():
    # same sequence evaluated through a fresh evaluator built from it
    arr = make_ula(8, 0.5)
    seq = sequential(8, 1e-3)
    bound = 100.0
    cfg = ObjectiveConfig(samples=256, seed=8)
    ev = ObjectiveEvaluator(arr, bound, cfg, 1e-3, 1)
    fresh = ObjectiveEvaluator(arr, bound, cfg, seq.delta_t, seq.snapshots)
    assert ev.evaluate(seq) == fresh.evaluate(seq)


def test_evaluator_counts_degenerate_directions():
    arr = single_panel_array()
    bound = 1.0  # full sphere, ~half the draws face the back
    cfg = ObjectiveConfig(samples=256, seed=0)
    ev = ObjectiveEvaluator(arr, bound, cfg, 1e-3, 1)
    assert ev.degenerate_count > 0
    val = ev.evaluate(sequential(4, 1e-3))
    assert np.isfinite(val) and val >= 0.0


def test_evaluator_rejects_mismatched_sequences():
    arr = make_ula(8, 0.5)
    ev = ObjectiveEvaluator(arr, 100.0,
                            ObjectiveConfig(samples=64, seed=0), 1e-3, 1)
    with pytest.raises(ValueError):
        ev.evaluate(sequential(8, 2e-3))
    with pytest.raises(ValueError):
        ev.evaluate(sequential(4, 1e-3))
    with pytest.raises(ValueError):
        ev.evaluate(sequential(8, 1e-3, snapshots=2))


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
    with pytest.raises(ValueError, match="doppler bound"):
        ObjectiveEvaluator(make_ula(4, 0.5), 0.0, ObjectiveConfig(samples=1), 1e-3)


def test_surface_peak_and_bounds():
    arr = make_ula(8, 0.5)
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


@pytest.mark.parametrize("snapshots", [1, 2, 3, 8])
@pytest.mark.parametrize("axis", ["eoa", "aoa"])
@pytest.mark.parametrize("array_name", ["ula", "octagon"])
def test_surface_matches_ambiguity_value_oracle(array_name, axis, snapshots):
    # every cell against the two-basis inner product, at a reference with a
    # non-zero Doppler and random sequences of several snapshots
    arr = (make_ula(8, 0.5) if array_name == "ula"
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


def tiled_surface(array, seq, mu, doppler_hz, angle_offset_deg, angle_axis):
    """|X| as one (Na x M*S) @ (M*S x Nd) product over the instants of every
    snapshot, with the steering tiled S times: the reference the factored
    sweep is held to."""
    az, el = sweep_directions(mu, angle_offset_deg, angle_axis)
    b_ref = basis(array, seq, mu)
    g_tiled = np.tile(steering_matrix(array, az, el), (1, seq.snapshots))
    phases = np.exp(2j * math.pi * np.outer(seq.eta(), mu.doppler_hz + doppler_hz))
    numer = (np.conj(b_ref)[None, :] * g_tiled) @ phases
    norms = np.linalg.norm(g_tiled, axis=1)
    return np.abs(numer) / (np.linalg.norm(b_ref) * norms[:, None])


def single_product_surface(array, seq, mu, doppler_hz, angle_offset_deg,
                           angle_axis):
    """|X| from one (Na x M) @ (M x Nd) product over every Doppler at once,
    then scaled by the snapshot gain: the reference the blocked sweep is
    held to, bit for bit."""
    az, el = sweep_directions(mu, angle_offset_deg, angle_axis)
    m = array.num_elements
    b_ref = steering_matrix(array, mu.rx_azimuth, mu.rx_elevation)
    g = steering_matrix(array, az, el)
    norms = np.linalg.norm(g, axis=1)
    phases = np.zeros((m, doppler_hz.size), dtype=complex)
    np.outer(seq.eta()[:m], doppler_hz, out=phases.real)
    np.multiply(2j * math.pi, phases, out=phases)
    np.exp(phases, out=phases)
    mag = np.abs(np.multiply(np.conj(b_ref)[None, :], g, out=g) @ phases)
    mag /= np.linalg.norm(b_ref) * norms[:, None]
    return mag * (snapshot_gain(doppler_hz, m, seq.delta_t, seq.snapshots)
                  / seq.snapshots)


README_OCTAGON = dict(panels=8, rows=4, cols=4, patch_exponent=2.0)


@pytest.mark.parametrize("snapshots, n_angles, n_dopplers", [
    (1, 121, 801), (8, 121, 801),  # the README grid
    (1, 601, 3201), (3, 61, 3 * SWEEP_COLUMNS + 1), (2, 5, 2), (1, 3, 1),
    (1, 9, SWEEP_COLUMNS), (1, 9, SWEEP_COLUMNS + 1), (1, 9, SWEEP_COLUMNS + 2)])
def test_blocked_sweep_equals_the_single_product(snapshots, n_angles, n_dopplers):
    # blocks of SWEEP_COLUMNS Dopplers, the last of 2 to SWEEP_COLUMNS + 1
    # (one more than a multiple is the case a one-column block would break)
    arr = make_octagonal(**README_OCTAGON)
    seq = random_init(arr.num_elements, 1e-4, snapshots,
                      np.random.default_rng(n_dopplers))
    mu = StructuralParams(math.pi / 4, math.pi / 2, 0.0)
    dop = np.linspace(-400.0, 400.0, n_dopplers)
    ang = np.linspace(-30.0, 30.0, n_angles)
    surf = ambiguity_surface(arr, seq, mu, dop, ang, "eoa")
    assert np.array_equal(surf.magnitude,
                          single_product_surface(arr, seq, mu, dop, ang, "eoa"))


def test_surface_temporaries_do_not_grow_with_the_dopplers():
    # beyond its 8 B/cell result the sweep holds its steering rows and one
    # block of phases and products, at 801 Dopplers as at 6401
    arr = make_octagonal(**README_OCTAGON)
    seq = random_init(arr.num_elements, 1e-4, 1, np.random.default_rng(0))
    mu = StructuralParams(math.pi / 4, math.pi / 2, 0.0)
    ang = np.linspace(-30.0, 30.0, 121)
    over = []
    for n_dopplers in (801, 6401):
        dop = np.linspace(-400.0, 400.0, n_dopplers)
        tracemalloc.start()
        surf = ambiguity_surface(arr, seq, mu, dop, ang, "eoa")
        over.append(tracemalloc.get_traced_memory()[1] - surf.magnitude.nbytes)
        tracemalloc.stop()
    block_bytes = (arr.num_elements + ang.size) * (SWEEP_COLUMNS + 1) * 16
    assert abs(over[1] - over[0]) < block_bytes, over
    assert over[1] < surf.magnitude.nbytes / 4, over


@pytest.mark.parametrize("snapshots", [1, 2, 8, 64])
@pytest.mark.parametrize("axis", ["eoa", "aoa"])
@pytest.mark.parametrize("array_name", ["ula", "octagon"])
def test_surface_matches_the_tiled_product(array_name, axis, snapshots):
    # the factored sweep reads only mu's direction: at one snapshot it does
    # the tiled product's operations at Doppler 0.0, and it differs from the
    # product at mu's own Doppler, which cancels from X, in the last bits
    arr = (make_ula(8, 0.5) if array_name == "ula"
           else make_octagonal(8, 2, 2, patch_exponent=2.0))
    seq = random_init(arr.num_elements, 1e-4, snapshots,
                      np.random.default_rng(snapshots))
    mu = StructuralParams(0.3, 1.4, 37.0)
    dop = np.linspace(-3000.0, 3000.0, 241)
    ang = np.arange(-20.0, 20.5, 0.5)
    surf = ambiguity_surface(arr, seq, mu, dop, ang, axis)
    if snapshots == 1:
        assert np.array_equal(surf.magnitude, tiled_surface(
            arr, seq, replace(mu, doppler_hz=0.0), dop, ang, axis))
    np.testing.assert_allclose(surf.magnitude, tiled_surface(arr, seq, mu, dop, ang, axis),
                               rtol=0, atol=1e-12)


def test_surface_memory_does_not_grow_with_snapshots():
    # the README octagon on a 61 x 401 grid: what the sweep allocates at its
    # peak is the same at 16 snapshots as at one
    arr = make_octagonal(8, 4, 4, patch_exponent=2.0)
    mu = StructuralParams(math.pi / 4, math.pi / 2, 0.0)
    peaks = []
    for snapshots in (1, 16):
        seq = random_init(arr.num_elements, 1e-4, snapshots,
                          np.random.default_rng(0))
        tracemalloc.start()
        ambiguity_surface(arr, seq, mu, np.arange(-200.0, 201.0),
                          np.arange(-30.0, 31.0), "eoa")
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks


def test_surface_leaves_its_callers_grids_writable():
    # the surface freezes copies of its axes, not the config's own grids
    config = ExperimentConfig.from_dict(readme_config())
    spec = config.sequence_spec
    seq = sequential(config.array.num_elements, spec["delta_t_s"], spec["snapshots"])
    surface = ambiguity_surface(config.array, seq, config.reference, *config.sweep)
    for grid, axis in zip(config.sweep[:2], (surface.doppler_hz, surface.angle_offset_deg)):
        assert grid.flags.writeable and not axis.flags.writeable
        assert axis is not grid and np.array_equal(axis, grid)
    # magnitude is made for the surface, so it is frozen without a copy
    magnitude = surface.magnitude.copy()
    again = replace(surface, magnitude=magnitude)
    assert again.magnitude is magnitude and not magnitude.flags.writeable


def test_surface_rejects_bad_grids():
    arr = make_ula(4, 0.5)
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
    # a surface built directly: magnitude is (angles, dopplers)
    with pytest.raises(ValueError, match="magnitude shape"):
        AmbiguitySurface(np.zeros(3), np.zeros(2), "eoa", np.ones((3, 2)), BROADSIDE)


def test_surface_csv_export(tmp_path):
    arr = make_ula(4, 0.5)
    seq = sequential(4, 1e-3)
    dop = np.arange(-100.0, 100.5, 25.0)
    ang = np.arange(-10.0, 10.5, 5.0)
    surf = ambiguity_surface(arr, seq, BROADSIDE, dop, ang, "aoa")
    out = tmp_path / "surface.csv"
    save_surface_csv(surf, out)
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["delta_doppler_hz", "angle_deg", "magnitude_db"]
    assert len(rows) - 1 == dop.size * ang.size
    meta = surface_sidecar(surf, note="test")
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
        arr = make_ula(8, 0.5)
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


@pytest.mark.parametrize("n_angles, n_dopplers", [
    (0, 3), (3, 0), (1, 1), (7, _CSV_CELLS), (2, _CSV_CELLS + 1), (3, 2 * _CSV_CELLS + 5)])
def test_surface_csv_bytes_match_csv_writer_across_block_shapes(tmp_path, rng,
                                                                 n_angles, n_dopplers):
    # empty axes, one cell, and rows that fill a block exactly or are split
    # into column chunks; a Fortran-ordered magnitude array too
    mag = np.asfortranarray(rng.uniform(0.0, 1.0, (n_angles, n_dopplers)))
    surf = AmbiguitySurface(np.arange(n_dopplers) * 0.25 - 3.0,
                            np.arange(n_angles) * 0.5, "aoa", mag, BROADSIDE)
    save_surface_csv(surf, tmp_path / "fast.csv")
    _reference_surface_csv(surf, tmp_path / "reference.csv")
    assert ((tmp_path / "fast.csv").read_bytes()
            == (tmp_path / "reference.csv").read_bytes())


def test_surface_csv_writer_memory_is_bounded_by_its_block(tmp_path, rng):
    # the writer formats one block of cells at a time, so what it allocates
    # at its peak is the same for a README-sized and a 20x larger surface
    peaks = []
    for n_angles, n_dopplers in ((121, 801), (601, 3201)):
        mag = 10.0 ** rng.uniform(-6.0, 0.0, (n_angles, n_dopplers))
        surf = AmbiguitySurface(np.arange(n_dopplers) - n_dopplers // 2 * 0.5,
                                np.linspace(-30.0, 30.0, n_angles), "eoa", mag,
                                BROADSIDE)
        tracemalloc.start()
        save_surface_csv(surf, tmp_path / "surface.csv")
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    block_bytes = _CSV_CELLS * 64  # a grid line of 16 words per cell
    assert abs(peaks[1] - peaks[0]) < block_bytes, peaks
    assert peaks[1] < mag.nbytes / 10, peaks
