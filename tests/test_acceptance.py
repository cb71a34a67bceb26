"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. Criteria 1, 2 and 7 read
README `compare`: ExperimentConfig.compare on the README quick-start config
at its seed, which anneals random and hybrid sequences for 200 iterations
and sweeps three surfaces. That fixture runs it twice in about half a
second; the module takes 7-11 s on a 2-CPU machine, most of it criterion 6.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from switchseq import (AnnealConfig, ExperimentConfig, ObjectiveConfig,
                       ObjectiveEvaluator, StructuralParams,
                       ambiguity_surface, anneal, basis_from_eta, crlb_aoa,
                       crlb_doppler, effective_elements, fim_numeric,
                       make_octagonal, make_ula, peak_sidelobe, random_init,
                       sequential, temperature_schedule)
from switchseq.switching import SwitchingSequence

from conftest import balanced_sequence, readme_config
from oracles import alias_scan, ambiguity_value, normalized_correlation

SEED = 1234  # the README quick-start config seed
DT = 1e-4
K_MAX = 200
SAMPLES = 4096


def criterion(cid: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE] criterion {cid}: {status} ({detail})")
    assert ok, f"criterion {cid}: {detail}"


@pytest.fixture(scope="module")
def octagon_runs():
    """README compare at its seed, as the CLI runs it, shared by criteria 1,
    2 and 7; run twice for criterion 7a's reproducibility check."""
    config = replace(ExperimentConfig.from_dict(readme_config()), seed=SEED)
    report, _, sequences, traces = config.compare()
    _, _, sequences2, traces2 = config.compare()
    return {"report": report, "sequences": sequences, "traces": traces,
            "reruns": (sequences2, traces2)}


def test_criterion_1_broadening_ratio(octagon_runs):
    report = octagon_runs["report"]
    ratio = report["broadening_ratio"]
    r_star = report["block_aperture_ratio"]  # R* at the fixture's mu
    inv_xi = report["inverse_effective_factor"]
    # [2.3, 3.1] brackets 8/3 = 1/xi, which holds for equal-power elements
    # (where R* = 1/xi); the band scales it to the gain-weighted prediction.
    lo, hi = (bound * r_star / (8.0 / 3.0) for bound in (2.3, 3.1))

    criterion("1 broadening-ratio", lo <= ratio <= hi,
              f"hybrid/random half-power Doppler width ratio = {ratio:.3f}, "
              f"R* = {r_star:.3f}, 1/xi = {inv_xi:.3f}, "
              f"required [{lo:.3f}, {hi:.3f}] = [2.3, 3.1] * R*/(8/3)")


def test_criterion_2_angular_preservation(octagon_runs):
    report = octagon_runs["report"]
    w_hyb = report["schemes"]["hybrid"]["angle_width_deg"]
    w_rand = report["schemes"]["random"]["angle_width_deg"]
    cell = report["angle_cell_deg"]
    ok = abs(w_hyb - w_rand) <= cell + 1e-9
    criterion("2 angular-preservation", ok,
              f"EOA widths hybrid {w_hyb:.2f} deg vs random {w_rand:.2f} deg, "
              f"grid cell {cell} deg")


def test_criterion_3_crlb_oracle_equivalence():
    sigma = 0.1
    worst_err = 0.0
    worst_ratio = 0.0
    for m in (4, 8, 16):
        array = make_ula(m, 0.5)
        seq = balanced_sequence(m, DT)
        eta = seq.eta()
        for phi_deg in (45.0, 90.0, 135.0):
            params = StructuralParams(math.radians(phi_deg), math.pi / 2, 0.0)
            res = fim_numeric(array, seq, params, sigma)
            worst_ratio = max(worst_ratio, res.off_diag_ratio)
            if res.off_diag_ratio < 0.05:
                cf_phi = crlb_aoa(m, 0.5, params.rx_azimuth,
                                  params.rx_elevation, sigma, 1)
                cf_nu = crlb_doppler(eta, sigma)
                worst_err = max(worst_err,
                                abs(res.variances["phi"] - cf_phi) / cf_phi,
                                abs(res.variances["nu"] - cf_nu) / cf_nu)
    ok = worst_ratio < 0.05 and worst_err < 0.01
    criterion("3 crlb-oracle", ok,
              f"max off-diag ratio {worst_ratio:.2e} (all < 0.05 so no case "
              f"skipped), max closed-vs-numeric error {worst_err:.2e}")


def test_criterion_4_crlb_ordering():
    array = make_octagonal()
    idx = effective_elements(array, StructuralParams(math.pi / 4, math.pi / 2, 0.0),
                             -10.0)
    holds = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        hyb = random_init(128, DT, 1, rng, array.partition)
        rand = random_init(128, DT, 1, rng)
        c_hyb = crlb_doppler(hyb.eta(idx), 0.1)
        c_rand = crlb_doppler(rand.eta(), 0.1)
        holds += c_hyb >= c_rand
    criterion("4 crlb-ordering", holds == 20,
              f"effective-hybrid bound >= full-random bound for {holds}/20 seeds")


def test_criterion_5_aliasing_reproduction():
    m, dt, seed = 32, 1e-3, 3
    array = make_ula(m, 0.5)
    seq = sequential(m, dt)
    mu = StructuralParams(math.pi / 2, math.pi / 2, 0.0)

    # analytically predicted alias: Doppler cancels the azimuth phase ramp
    phi_alias = math.pi / 3
    dnu_alias = 0.5 * (math.cos(mu.rx_azimuth) - math.cos(phi_alias)) / dt
    x_alias = abs(ambiguity_value(
        array, seq, mu, StructuralParams(phi_alias, math.pi / 2, dnu_alias)))

    doppler = np.arange(-300.0, 300.0 + 1.0, 2.5)     # contains -250 Hz
    angles = np.arange(-40.0, 40.0 + 0.25, 0.5)       # contains -30 deg
    surf_seq = ambiguity_surface(array, seq, mu, doppler, angles, "aoa")
    psl_seq = peak_sidelobe(surf_seq)

    bound = 300.0
    rng = np.random.default_rng(seed)
    evaluator = ObjectiveEvaluator(
        array, bound, ObjectiveConfig(power=6, samples=SAMPLES, seed=seed), dt, 1)
    cfg = AnnealConfig(k_max=K_MAX)
    opt, _ = anneal(random_init(m, dt, 1, rng), cfg, evaluator, rng)
    surf_rand = ambiguity_surface(array, opt, mu, doppler, angles, "aoa")
    psl_rand = peak_sidelobe(surf_rand)
    # the streamed PSL is the full scan's strongest peak, bit for bit
    for surf, psl in ((surf_seq, psl_seq), (surf_rand, psl_rand)):
        assert psl.hex() == alias_scan(surf)[0].magnitude.hex()
    reduction_db = 20.0 * math.log10(psl_seq / psl_rand)
    ok = x_alias >= 0.99 and reduction_db >= 6.0
    criterion("5 aliasing", ok,
              f"|X| at predicted alias = {x_alias:.6f} (>= 0.99), PSL "
              f"{20 * math.log10(psl_seq):.2f} -> {20 * math.log10(psl_rand):.2f} dB, "
              f"reduction {reduction_db:.2f} dB (>= 6)")


def test_criterion_6_ambiguity_property_suite():
    rng = np.random.default_rng(606)
    arrays = [make_ula(4, 0.5), make_ula(8, 0.5),
              make_ula(16, 0.5),
              make_octagonal(4, 1, 4, patch_exponent=1.0),
              make_octagonal(8, 2, 2, patch_exponent=2.0)]
    n_draws = 10_000
    worst_bound = 0.0
    worst_self = 0.0
    worst_sym = 0.0
    worst_shift = 0.0
    for i in range(n_draws):
        array = arrays[i % len(arrays)]
        m = array.num_elements
        seq = SwitchingSequence(tuple(rng.permutation(m)),
                                float(rng.uniform(1e-5, 1e-3)),
                                snapshots=int(rng.integers(1, 3)))
        mus = [StructuralParams(rng.uniform(0, 2 * math.pi),
                                rng.uniform(math.radians(5),
                                            math.radians(175)),
                                rng.uniform(-2e3, 2e3))
               for _ in range(2)]
        eta = seq.eta()
        b1 = basis_from_eta(array, eta, mus[0])
        b2 = basis_from_eta(array, eta, mus[1])
        x12 = normalized_correlation(b1, b2)
        x21 = normalized_correlation(b2, b1)
        x11 = normalized_correlation(b1, b1)
        worst_bound = max(worst_bound, abs(x12) - 1.0)
        worst_self = max(worst_self, abs(x11 - 1.0))
        worst_sym = max(worst_sym, abs(abs(x12) - abs(x21)))
        shift = float(rng.uniform(-1.0, 1.0))
        xs = normalized_correlation(basis_from_eta(array, eta + shift, mus[0]),
                                    basis_from_eta(array, eta + shift, mus[1]))
        worst_shift = max(worst_shift, abs(abs(x12) - abs(xs)))
    ok = (worst_bound <= 1e-12 and worst_self <= 1e-12
          and worst_sym <= 1e-12 and worst_shift <= 1e-10)
    criterion("6 property-suite", ok,
              f"{n_draws} draws: max(|X|-1)={worst_bound:.1e}, "
              f"|X(mu,mu)-1|={worst_self:.1e}, symmetry={worst_sym:.1e}, "
              f"shift={worst_shift:.1e}")


def test_criterion_7a_bit_reproducible(octagon_runs):
    sequences2, traces2 = octagon_runs["reruns"]
    same = all(octagon_runs["sequences"][update].order == sequences2[update].order
               and octagon_runs["traces"][update].records == traces2[update].records
               for update in ("random", "hybrid"))
    criterion("7a reproducibility", same,
              "two fixed-seed runs produced bit-identical traces and sequences")


def test_criterion_7b_temperature_exact(octagon_runs):
    exact = all(
        rec.temperature == temperature_schedule(tr.t0, tr.alpha, rec.k)
        for tr in octagon_runs["traces"].values() for rec in tr.records
    )
    criterion("7b temperature-schedule", exact,
              "every trace temperature equals t0*alpha**k exactly")


def test_criterion_7c_improvements_accepted(octagon_runs):
    ok = True
    for trace in octagon_runs["traces"].values():
        current = trace.initial_objective
        for rec in trace.records:
            if rec.proposal_objective < current and not rec.accepted:
                ok = False
            current = rec.objective
    criterion("7c improvements-accepted", ok,
              "every improving proposal in both traces was accepted")


def test_criterion_7d_scheme_ordering(octagon_runs):
    f_rand = octagon_runs["traces"]["random"].final_objective
    f_hyb = octagon_runs["traces"]["hybrid"].final_objective
    criterion("7d scheme-ordering", f_rand < f_hyb,
              f"final objective random {f_rand:.3f} < hybrid {f_hyb:.3f}")


def test_criterion_7e_stabilization(octagon_runs):
    rates = {}
    for name, trace in octagon_runs["traces"].items():
        f = np.array([r.objective for r in trace.records])
        rates[name] = float(((f[100:-10] - f[110:]) / f[100:-10]).max())
    ok = all(r < 0.01 for r in rates.values())
    criterion("7e stabilization", ok,
              f"max decrease per 10 iterations after k=100: "
              f"random {rates['random']:.4f}, hybrid {rates['hybrid']:.4f} "
              f"(required < 0.01)")


def test_criterion_8_effective_factor():
    octagon = make_octagonal(patch_exponent=2.0)
    xi_oct = effective_elements(octagon, StructuralParams(math.pi / 4, math.pi / 2, 0.0),
                                -10.0).size / octagon.num_elements
    square = make_octagonal(4, 1, 8, patch_exponent=0.0)
    xi_sq = effective_elements(square, StructuralParams(math.pi / 2, math.pi / 2, 0.0),
                               -10.0).size / square.num_elements
    ok = (2.5 / 8 <= xi_oct <= 3.5 / 8) and xi_sq == 0.25
    criterion("8 effective-factor", ok,
              f"octagon xi = {xi_oct:.4f} in [0.3125, 0.4375], "
              f"square xi = {xi_sq} == 0.25")


def test_criterion_9_dirichlet_oracle():
    m, dt = 16, 1e-3
    array = make_ula(m, 0.5)
    seq = sequential(m, dt)
    mu = StructuralParams(math.pi / 2, math.pi / 2, 0.0)
    grid = np.linspace(-2.0 / (m * dt), 2.0 / (m * dt), 1001)
    worst = 0.0
    for dnu in grid:
        x = abs(ambiguity_value(array, seq, mu,
                                StructuralParams(math.pi / 2, math.pi / 2,
                                                 dnu)))
        u = dnu * dt
        s = math.sin(math.pi * u)
        oracle = 1.0 if abs(s) < 1e-15 else abs(math.sin(m * math.pi * u) / (m * s))
        worst = max(worst, abs(x - oracle))
    criterion("9 dirichlet-oracle", worst < 1e-9,
              f"max pointwise |X| error vs periodic sinc on 1001 points: "
              f"{worst:.2e}")
