import json

import numpy as np
import pytest

from switchseq import (SwitchingSequence, draw_swap, random_init, sequential,
                       swap_sets)

from conftest import swapped

PARTITION_4x2 = ((0, 1), (2, 3))
PARTITION_8x4 = tuple(tuple(range(4 * p, 4 * p + 4)) for p in range(8))
PARTITION_8x16 = tuple(tuple(range(16 * p, 16 * p + 16)) for p in range(8))

# frozen draw of numpy's PCG64 Generator, seed 0
GOLDEN_PERM_SEED0_M8 = (2, 4, 3, 6, 5, 0, 1, 7)


def assert_valid_permutation(seq):
    assert sorted(seq.order) == list(range(seq.num_elements))


def test_sequential_is_identity():
    assert sequential(4, 1e-3).order == (0, 1, 2, 3)
    assert sequential(1, 1e-3).order == (0,)


def test_sequential_eta_centered_small():
    eta = sequential(3, 1e-3).eta()
    assert np.allclose(eta, [-1e-3, 0.0, 1e-3])


def test_sequential_eta_span_m128():
    eta = sequential(128, 1e-3).eta()
    assert eta.min() == pytest.approx(-63.5e-3)
    assert eta.max() == pytest.approx(63.5e-3)


def test_eta_centered_sums_to_zero(rng):
    for _ in range(10):
        seq = random_init(17, 2e-4, 1, rng)
        assert abs(seq.eta().sum()) < 1e-15


def test_eta_uncentered_are_slot_times():
    seq = SwitchingSequence((2, 0, 1), 1e-3)
    # antenna 2 fires in slot 0, antenna 0 in slot 1, antenna 1 in slot 2;
    # shifted to start at 0 the instants are the slot times
    eta = seq.eta()
    assert np.allclose(eta - eta.min(), [1e-3, 2e-3, 0.0])


def test_eta_snapshots_append_period_offsets():
    seq = SwitchingSequence((1, 0), 1e-3, snapshots=2)
    eta = seq.eta()
    assert np.allclose(eta - eta.min(), [1e-3, 0.0, 3e-3, 2e-3])
    assert abs(eta.sum()) < 1e-15


@pytest.mark.parametrize("m, snapshots", [(128, 1), (16, 7), (2, 2 ** 12),
                                           (128, 64), (5, 1000)])
def test_eta_equals_per_snapshot_concatenation(rng, m, snapshots):
    seq = random_init(m, 3.7e-4, snapshots, rng)
    within = seq.slot_of() * seq.delta_t
    ref = np.concatenate([within + s * m * seq.delta_t for s in range(snapshots)])
    assert seq.eta().tobytes() == (ref - ref.mean()).tobytes()


def test_random_init_golden_value():
    seq = random_init(8, 1e-3, 1, np.random.default_rng(0))
    assert seq.order == GOLDEN_PERM_SEED0_M8
    assert seq.partition is None


def test_random_init_is_bijection(rng):
    for m in (1, 2, 7, 64):
        assert_valid_permutation(random_init(m, 1e-3, 1, rng))


def test_random_init_different_seeds_differ():
    a = random_init(128, 1e-3, 1, np.random.default_rng(1))
    b = random_init(128, 1e-3, 1, np.random.default_rng(2))
    assert a.order != b.order


def test_hybrid_init_subset_slot_ranges(rng):
    seq = random_init(4, 1e-3, 1, rng, PARTITION_4x2)
    assert seq.partition == PARTITION_4x2
    assert set(seq.order[:2]) == {0, 1}
    assert set(seq.order[2:]) == {2, 3}


def test_hybrid_init_panel_slot_ranges(rng):
    seq = random_init(128, 1e-3, 1, rng, PARTITION_8x16)
    for p, slots in zip(seq.partition, swap_sets(128, seq.partition)):
        assert set(seq.order[slots.start:slots.stop]) == set(p)


def test_hybrid_init_single_subset_equals_random():
    a = random_init(8, 1e-3, 1, np.random.default_rng(5), (tuple(range(8)),))
    b = random_init(8, 1e-3, 1, np.random.default_rng(5))
    assert a.order == b.order


def test_hybrid_init_rejects_bad_partition(rng):
    with pytest.raises(ValueError):
        random_init(4, 1e-3, 1, rng, ((0, 1), (1, 2, 3)))
    with pytest.raises(ValueError):
        random_init(4, 1e-3, 1, rng, ((0, 1), (1, 2)))
    # a partition of fewer antennas than m, though valid for its own M
    for partition in (((0, 1),), ((0, 1), (2, 3))):
        with pytest.raises(ValueError, match="cover the 5 antennas"):
            random_init(5, 1e-3, 1, rng, partition)


def test_swap_sets_random_is_all_slots():
    assert swap_sets(7, None) == [range(7)]


def test_swap_sets_hybrid_are_panel_slot_blocks():
    assert swap_sets(4, PARTITION_4x2) == [range(0, 2), range(2, 4)]
    assert swap_sets(128, PARTITION_8x16) == [
        range(16 * p, 16 * p + 16) for p in range(8)]
    # blocks follow the subset sizes in partition order
    assert swap_sets(7, ((0, 1, 2), (3, 4), (5, 6))) == [
        range(0, 3), range(3, 5), range(5, 7)]


def test_swap_random_m2_is_transposition(rng):
    assert sorted(draw_swap(swap_sets(2, None), 0, rng)) == [0, 1]


def test_swap_random_preserves_bijection(rng):
    sets = swap_sets(31, None)
    seq = random_init(31, 1e-3, 1, rng)
    for k in range(50):
        seq = swapped(seq, *draw_swap(sets, k, rng))
        assert_valid_permutation(seq)


def test_swap_random_rejects_single_antenna():
    with pytest.raises(ValueError, match="swap"):
        swap_sets(1, None)


def test_swap_hybrid_cycles_subsets():
    # k and k + len(sets) draw from the same set, with the same draws
    sets = swap_sets(128, PARTITION_8x16)
    for k in range(8):
        pair = draw_swap(sets, k, np.random.default_rng(1))
        assert draw_swap(sets, k + len(sets), np.random.default_rng(1)) == pair
        assert all(s in sets[k] for s in pair)


def test_swap_hybrid_keeps_subsets_in_their_ranges(rng):
    seq = random_init(32, 1e-3, 1, rng, PARTITION_8x4)
    sets = swap_sets(32, seq.partition)
    for k in range(40):
        seq = swapped(seq, *draw_swap(sets, k, rng))
        for subset, slots in zip(seq.partition, sets):
            assert set(seq.order[slots.start:slots.stop]) == set(subset)


def test_swap_hybrid_changes_at_most_two_entries(rng):
    # a move is two distinct slots of its set: a swap changes exactly two
    # entries, never one
    for partition in (PARTITION_8x16, None):
        sets = swap_sets(128, partition)
        for k in range(64):
            a, b = draw_swap(sets, k, rng)
            assert a != b
            assert a in sets[k % len(sets)] and b in sets[k % len(sets)]


def test_swap_hybrid_rejects_singleton_subsets():
    with pytest.raises(ValueError, match="swap"):
        swap_sets(3, ((0,), (1, 2)))


def test_effective_subset_norm_inequality():
    # hybrid activation instants restricted to one subset, centered there,
    # never exceed the norm of a full random sequence's centered instants
    for seed in range(50):
        r = np.random.default_rng(seed)
        hyb = random_init(128, 1e-4, 1, r, PARTITION_8x16)
        rand = random_init(128, 1e-4, 1, r)
        sub = np.linalg.norm(hyb.eta(PARTITION_8x16[0]))
        full = np.linalg.norm(rand.eta())
        assert sub <= full


def test_eta_subset_centering():
    seq = sequential(8, 1e-3)
    sub = seq.eta((2, 3, 4))
    assert abs(sub.sum()) < 1e-15
    assert np.allclose(sub, [-1e-3, 0.0, 1e-3])


def test_json_roundtrip_bit_exact(tmp_path, rng):
    seq = random_init(32, 1.2345678901234e-4, 3, rng,
                      tuple(tuple(range(8 * p, 8 * p + 8)) for p in range(4)))
    path = tmp_path / "seq.json"
    seq.save(path)
    back = SwitchingSequence.load(path)
    assert back == seq
    assert back.delta_t == seq.delta_t  # exact float round-trip
    # file keys follow the documented schema
    doc = json.loads(path.read_text())
    assert set(doc) == {"M", "delta_t_s", "snapshots", "order", "partition"}


def test_load_refuses_a_repeated_key(tmp_path):
    # json alone would keep the last value without a word
    path = tmp_path / "seq.json"
    path.write_text('{"delta_t_s": 1e-3, "order": [0, 1], "order": [1, 0]}')
    with pytest.raises(ValueError, match="repeated key 'order'"):
        SwitchingSequence.load(path)


def test_load_reads_a_utf8_file_with_a_bom(tmp_path):
    # as ambiguity --sequence does: json detects the encoding from the bytes
    seq = sequential(4, 1e-3)
    path = tmp_path / "seq.json"
    path.write_bytes(b"\xef\xbb\xbf" + json.dumps(seq.to_dict()).encode())
    assert SwitchingSequence.load(path) == seq


def test_sequence_validation():
    with pytest.raises(ValueError):
        SwitchingSequence((0, 0, 1), 1e-3)
    with pytest.raises(ValueError):
        SwitchingSequence((0, 1), 0.0)
    with pytest.raises(ValueError):
        SwitchingSequence((0, 1), 1e-3, snapshots=0)
    with pytest.raises(ValueError):
        SwitchingSequence((0, 1, 2, 3), 1e-3, partition=((0, 2), (1, 3)))
    with pytest.raises(ValueError):
        SwitchingSequence((0, 1, 2, 3), 1e-3, partition=((0, 1), (2,)))


def test_an_empty_sequence_is_refused(rng):
    # M = 0 would leave slot_of() and eta() nothing to index
    for build in (lambda: SwitchingSequence((), 1e-4),
                  lambda: SwitchingSequence.from_dict({"delta_t_s": 1e-4,
                                                       "order": []}),
                  lambda: sequential(0, 1e-4),
                  lambda: sequential(-1, 1e-4),
                  lambda: random_init(0, 1e-4, 1, rng)):
        with pytest.raises(ValueError, match="M >= 1"):
            build()


def test_from_dict_checks_m_field():
    with pytest.raises(ValueError):
        SwitchingSequence.from_dict({"M": 3, "delta_t_s": 1e-3,
                                     "snapshots": 1, "order": [0, 1]})


@pytest.mark.parametrize("partition, error", [
    ([], ValueError), ("", ValueError), (0, TypeError), (False, TypeError)],
    ids=["empty-list", "empty-string", "zero", "false"])
def test_from_dict_refuses_a_falsy_partition(partition, error):
    # only a missing or null partition makes a random-scheme sequence
    doc = {"M": 3, "delta_t_s": 1e-3, "order": [2, 0, 1]}
    assert SwitchingSequence.from_dict(dict(doc, partition=None)).partition is None
    with pytest.raises(error):
        SwitchingSequence.from_dict(dict(doc, partition=partition))


def test_sequence_refuses_fractions_and_booleans():
    # an index is taken as it is, never truncated; numpy integers pass
    doc = {"M": 3, "delta_t_s": 1e-3, "snapshots": 2, "order": [2, 0, 1],
           "partition": [[0, 1], [2]]}
    seq = SwitchingSequence.from_dict(doc)
    assert seq.order == (2, 0, 1) and seq.snapshots == 2
    assert SwitchingSequence(tuple(np.arange(3)), 1e-3).order == (0, 1, 2)
    for key, value in (("order", [0.9, 1, 2]), ("order", [True, 0, 2]),
                       ("snapshots", 2.7), ("snapshots", True),
                       ("partition", [[0, 1.0], [2]]), ("delta_t_s", True),
                       ("M", 3.5)):
        with pytest.raises((TypeError, ValueError)):
            SwitchingSequence.from_dict(dict(doc, **{key: value}))
