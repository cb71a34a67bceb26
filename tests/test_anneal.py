import math
import tracemalloc

import numpy as np
import pytest

from switchseq import (AnnealConfig, AnnealError, ObjectiveConfig,
                       ObjectiveEvaluator, anneal, make_octagonal,
                       make_ula, random_init, sequential, temperature_schedule)
from switchseq.anneal import save_trace_csv
from switchseq.switching import draw_swap, swap_sets

from conftest import readme_block, swapped

DT = 1e-3


def small_setup():
    arr = make_ula(8, 0.5)
    bound = 200.0
    cfg = ObjectiveConfig(power=6, samples=256, seed=7)
    return arr, bound, cfg


def test_temperature_schedule_values():
    assert temperature_schedule(2.0, 0.9, 0) == 2.0
    assert temperature_schedule(1.0, 0.5, 3) == pytest.approx(0.125)
    temps = [temperature_schedule(1.0, 0.87, k) for k in range(20)]
    assert all(a > b for a, b in zip(temps, temps[1:]))


def test_fixed_seed_bit_reproducible():
    arr, bound, cfg = small_setup()

    def run():
        rng = np.random.default_rng(13)
        init = random_init(8, DT, 1, rng)
        return anneal(init, AnnealConfig(k_max=25),
                      ObjectiveEvaluator(arr, bound, cfg, DT, 1), rng)

    (final_a, trace_a), (final_b, trace_b) = run(), run()
    assert final_a.order == final_b.order
    assert len(trace_a.records) == len(trace_b.records) == 25
    for ra, rb in zip(trace_a.records, trace_b.records):
        assert ra == rb  # floats identical, not merely close


def test_temperature_trace_is_exact_schedule():
    arr, bound, cfg = small_setup()
    rng = np.random.default_rng(3)
    init = random_init(8, DT, 1, rng)
    _, trace = anneal(init, AnnealConfig(k_max=30),
                      ObjectiveEvaluator(arr, bound, cfg, DT, 1), rng)
    for rec in trace.records:
        assert rec.temperature == temperature_schedule(trace.t0, trace.alpha, rec.k)


def test_default_schedule_resolution():
    arr, bound, cfg = small_setup()
    rng = np.random.default_rng(3)
    init = random_init(8, DT, 1, rng)
    _, trace = anneal(init, AnnealConfig(k_max=40),
                      ObjectiveEvaluator(arr, bound, cfg, DT, 1), rng)
    assert trace.t0 == pytest.approx(0.1 * trace.initial_objective)
    assert trace.alpha == pytest.approx(1e-4 ** (1.0 / 40))


def test_improving_proposals_always_accepted():
    arr, bound, cfg = small_setup()
    rng = np.random.default_rng(5)
    init = random_init(8, DT, 1, rng)
    _, trace = anneal(init, AnnealConfig(k_max=60),
                      ObjectiveEvaluator(arr, bound, cfg, DT, 1), rng)
    current = trace.initial_objective
    for rec in trace.records:
        if rec.proposal_objective < current:
            assert rec.accepted
        current = rec.objective


def test_huge_temperature_accepts_worse_moves():
    arr, bound, cfg = small_setup()
    rng = np.random.default_rng(1)
    init = sequential(8, DT)
    ev = ObjectiveEvaluator(arr, bound, cfg, DT, 1)
    accepted = []
    for _ in range(10):
        _, trace = anneal(init, AnnealConfig(k_max=1, t0=1e18, alpha=0.5), ev, rng)
        accepted.append(trace.records[0].accepted)
    assert all(accepted)


def test_tiny_temperature_rejects_worse_moves():
    arr, bound, cfg = small_setup()
    # sequential eta is the alias-heavy worst case, most proposals improve it;
    # find a seed whose proposal is worse, then check it is rejected cold
    ev = ObjectiveEvaluator(arr, bound, cfg, DT, 1)
    init = random_init(8, DT, 1, np.random.default_rng(10))
    f0 = ev.evaluate(init)
    for seed in range(40):
        rng = np.random.default_rng(seed)
        _, trace = anneal(init, AnnealConfig(k_max=1, t0=1e-300, alpha=0.5), ev, rng)
        rec = trace.records[0]
        if rec.proposal_objective > f0:
            assert not rec.accepted
            break
    else:
        pytest.skip("no worsening proposal among tried seeds")


def test_final_objective_matches_reevaluation():
    arr, bound, cfg = small_setup()
    rng = np.random.default_rng(21)
    init = random_init(8, DT, 1, rng)
    final, trace = anneal(init, AnnealConfig(k_max=20),
                          ObjectiveEvaluator(arr, bound, cfg, DT, 1), rng)
    ev = ObjectiveEvaluator(arr, bound, cfg, final.delta_t, final.snapshots)
    assert trace.records[-1].objective == ev.evaluate(final)


def test_best_so_far_tracked():
    arr, bound, cfg = small_setup()
    rng = np.random.default_rng(2)
    init = random_init(8, DT, 1, rng)
    final, trace = anneal(init, AnnealConfig(k_max=50),
                          ObjectiveEvaluator(arr, bound, cfg, DT, 1), rng)
    objectives = [trace.initial_objective] + [r.objective for r in trace.records]
    assert trace.best_objective == min(objectives)
    ev = ObjectiveEvaluator(arr, bound, cfg, final.delta_t, final.snapshots)
    assert ev.evaluate(trace.best_sequence) == trace.best_objective


def test_hybrid_runs_preserve_subset_ranges():
    arr = make_octagonal(4, 1, 4, patch_exponent=2.0)
    bound = 0.25 / (2.0 * DT)
    cfg = ObjectiveConfig(power=6, samples=256, seed=6)
    rng = np.random.default_rng(6)
    init = random_init(16, DT, 1, rng, arr.partition)
    final, trace = anneal(init, AnnealConfig(k_max=30),
                          ObjectiveEvaluator(arr, bound, cfg, DT, 1), rng)
    assert len(trace.records) == 30
    sets = swap_sets(16, final.partition)
    for subset, slots in zip(final.partition, sets):
        assert set(final.order[slots.start:slots.stop]) == set(subset)


def test_anneal_keeps_the_partition_of_its_start():
    # the start's partition alone sets the moves: under a default config a
    # sequential or a hybrid start keeps each subset in its own slot block
    arr = make_octagonal(4, 2, 2, patch_exponent=2.0)
    partition = arr.partition
    ev = ObjectiveEvaluator(arr, 0.25 / (2.0 * DT),
                            ObjectiveConfig(power=6, samples=256, seed=4), DT, 1)
    rng = np.random.default_rng(4)
    for init in (sequential(16, DT, 1, partition),
                 random_init(16, DT, 1, rng, partition)):
        final, trace = anneal(init, AnnealConfig(), ev, rng)
        assert final.partition == trace.best_sequence.partition == partition
        for seq in (final, trace.best_sequence):
            for subset, slots in zip(partition, swap_sets(16, partition)):
                assert set(seq.order[slots.start:slots.stop]) == set(subset)


class Exploding:
    """Evaluator double whose named method fails after fail_after calls."""

    def __init__(self, inner, method, fail_after):
        self.inner = inner
        self.method = method
        self.fail_after = fail_after
        self.calls = 0

    def __getattr__(self, name):
        attr = getattr(self.inner, name)
        if name != self.method:
            return attr

        def counted(*args):
            self.calls += 1
            if self.calls > self.fail_after:
                raise RuntimeError("boom")
            return attr(*args)
        return counted


def test_objective_failure_propagates_unchanged():
    # anneal reports no failure of its own past the t0 check: what the
    # objective raises reaches the caller as it was raised
    arr, bound, cfg = small_setup()
    ev = Exploding(ObjectiveEvaluator(arr, bound, cfg, DT, 1), "propose",
                   fail_after=4)
    rng = np.random.default_rng(9)
    with pytest.raises(RuntimeError, match="boom") as err:
        anneal(random_init(8, DT, 1, rng), AnnealConfig(k_max=50), ev, rng)
    assert type(err.value) is RuntimeError
    assert ev.calls == 5


def test_anneal_peak_memory_is_one_product_matrix():
    # the chain holds its fixed-point sums and one block of terms at a time,
    # about 0.8 of a samples x M complex matrix here; such a matrix held on
    # top, or a per-proposal table, would read >= 1.75
    arr = make_octagonal(8, 4, 4, patch_exponent=2.0)
    samples = 1024
    tracemalloc.start()
    try:
        ev = ObjectiveEvaluator(arr, 0.25 / (2.0 * 1e-4),
                                ObjectiveConfig(samples=samples, seed=3), 1e-4, 1)
        rng = np.random.default_rng(3)
        init = random_init(arr.num_elements, 1e-4, 1, rng, arr.partition)
        baseline = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        anneal(init, AnnealConfig(k_max=200), ev, rng)
        peak = tracemalloc.get_traced_memory()[1] - baseline
    finally:
        tracemalloc.stop()
    one_matrix = samples * arr.num_elements * np.dtype(complex).itemsize
    assert peak <= 1.5 * one_matrix


def test_zero_initial_objective_is_an_anneal_error():
    # a zero objective leaves no automatic t0: a numeric failure (CLI exit
    # 3), not a bad argument
    class Zero(ObjectiveEvaluator):
        def total(self, contributions):
            return 0.0

    arr, bound, cfg = small_setup()
    with pytest.raises(AnnealError, match="t0"):
        anneal(sequential(8, DT), AnnealConfig(k_max=5),
               Zero(arr, bound, cfg, DT, 1), np.random.default_rng(0))


def reference_anneal(init, config, evaluator, rng):
    """The annealing loop that scores every proposal with the full
    evaluate(); returns the final sequence, (objective, proposal objective,
    accepted) per iteration and best_k."""
    current = init
    sets = swap_sets(init.num_elements, init.partition)
    f_current = evaluator.evaluate(current)
    t0 = config.t0 if config.t0 is not None else 0.1 * abs(f_current)
    alpha = (config.alpha if config.alpha is not None
             else 1e-4 ** (1.0 / config.k_max))
    best, best_k, rows = f_current, -1, []
    for k in range(config.k_max):
        proposal = swapped(current, *draw_swap(sets, k, rng))
        u = rng.random()
        f_proposal = evaluator.evaluate(proposal)
        delta = f_current - f_proposal
        accepted = (delta >= 0.0
                    or math.exp(delta / temperature_schedule(t0, alpha, k)) > u)
        if accepted:
            current, f_current = proposal, f_proposal
        if f_current < best:
            best, best_k = f_current, k
        rows.append((f_current, f_proposal, accepted))
    return current, rows, best_k


REFERENCE_CASES = {
    "ula8-random": (lambda: make_ula(8, 0.5), "random", 1),
    "octagon16-hybrid": (lambda: make_octagonal(4, 1, 4, patch_exponent=2.0),
                         "hybrid", 1),
    "octagon32-random": (lambda: make_octagonal(8, 2, 2, patch_exponent=2.0),
                         "random", 1),
    "octagon32-hybrid": (lambda: make_octagonal(8, 2, 2, patch_exponent=2.0),
                         "hybrid", 1),
    "octagon32-hybrid-snapshots": (
        lambda: make_octagonal(8, 2, 2, patch_exponent=2.0), "hybrid", 3),
}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_delta_scored_anneal_matches_full_evaluate_loop(case, seed):
    build, scheme, snapshots = REFERENCE_CASES[case]
    arr = build()
    ev = ObjectiveEvaluator(arr, 0.25 / (2.0 * DT),
                            ObjectiveConfig(power=6, samples=256, seed=seed),
                            DT, snapshots)
    config = AnnealConfig(k_max=120)

    def init(rng):
        return random_init(arr.num_elements, DT, snapshots, rng,
                           arr.partition if scheme == "hybrid" else None)

    rng = np.random.default_rng(seed)
    ref_final, ref_rows, ref_best_k = reference_anneal(init(rng), config, ev, rng)
    rng = np.random.default_rng(seed)
    final, trace = anneal(init(rng), config, ev, rng)
    # every row, rejected ones included, equals the full evaluate() exactly
    rows = [(r.objective, r.proposal_objective, r.accepted) for r in trace.records]
    assert rows == ref_rows
    assert trace.best_k == ref_best_k
    assert final.order == ref_final.order


# final order, best_k and accepted flags of 60-step chains on a 4-panel
# octagon (256 samples, seed 31); recorded once, so a change in the order
# or kind of the annealer's RNG draws shows here even where the reference
# loop above draws its moves the same way
GOLDEN_CHAINS = {
    "hybrid": ((3, 0, 1, 2, 6, 4, 7, 5, 9, 11, 10, 8, 13, 15, 12, 14), 26,
               "101110100011110101111001001100000000000100000000000000000000"),
    "random": ((13, 2, 4, 10, 1, 7, 11, 6, 15, 9, 14, 3, 5, 8, 12, 0), 56,
               "111111000111010100000000000000010000011000000000000000001000"),
}


@pytest.mark.parametrize("scheme", sorted(GOLDEN_CHAINS))
def test_anneal_rng_stream_golden(scheme):
    arr = make_octagonal(4, 1, 4, patch_exponent=2.0)
    ev = ObjectiveEvaluator(arr, 0.25 / (2.0 * DT),
                            ObjectiveConfig(power=6, samples=256, seed=31), DT, 1)
    rng = np.random.default_rng(31)
    init = random_init(16, DT, 1, rng, arr.partition if scheme == "hybrid" else None)
    final, trace = anneal(init, AnnealConfig(k_max=60), ev, rng)
    order, best_k, accepted = GOLDEN_CHAINS[scheme]
    assert final.order == order
    assert trace.best_k == best_k
    assert "".join(str(int(r.accepted)) for r in trace.records) == accepted


def test_config_validation():
    with pytest.raises(ValueError):
        AnnealConfig(k_max=0)
    with pytest.raises(ValueError):
        AnnealConfig(alpha=1.5)
    with pytest.raises(ValueError):
        AnnealConfig(t0=-1.0)


def test_trace_csv_format(tmp_path):
    arr, bound, cfg = small_setup()
    rng = np.random.default_rng(4)
    init = random_init(8, DT, 1, rng)
    _, trace = anneal(init, AnnealConfig(k_max=12),
                      ObjectiveEvaluator(arr, bound, cfg, DT, 1), rng)
    path = tmp_path / "trace.csv"
    save_trace_csv(trace, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "k,objective,proposal_objective,temperature,accepted"
    assert len(lines) == 13
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[4] in ("0", "1")


def test_readme_library_block_runs(capsys):
    # the documented API is run as written, so it cannot drift from anneal's
    exec(compile(readme_block("Library use", "python"), "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("WidthReport(axis='doppler'")
