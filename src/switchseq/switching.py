"""Switching sequences: per-antenna activation instants and the slot pairs
an annealing move may swap.

The canonical representation is the slot permutation; times in seconds only
appear when a sequence is evaluated with its slot duration.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

import numpy as np


def _index(value) -> int:
    """An integer as such: a fraction or a boolean is refused, not truncated."""
    if isinstance(value, bool):
        raise TypeError("an index must be an integer, not true/false")
    return operator.index(value)


def check_partition(partition, m: int) -> tuple[tuple[int, ...], ...]:
    """The partition as tuples of indices, which must form disjoint
    contiguous index ranges that cover 0..m-1 (in any order)."""
    part = tuple(tuple(map(_index, s)) for s in partition)
    covered = [i for subset in part for i in subset]
    if sorted(covered) != list(range(m)):
        raise ValueError("partition subsets must be disjoint and cover 0..M-1")
    for subset in part:
        if list(subset) != list(range(subset[0], subset[-1] + 1)):
            raise ValueError("partition subsets must be contiguous index ranges")
    return part


@dataclass(frozen=True)
class SwitchingSequence:
    """Activation order of M antennas, one per slot of length delta_t.

    order[k] is the antenna activated in slot k. partition, when present,
    lists disjoint contiguous antenna-index subsets (panel-major), and
    states the sequence's scheme: each subset holds its own block of slots,
    which annealing keeps (the hybrid scheme); without one, any antenna may
    take any slot (the random scheme). The same order repeats in every
    snapshot; snapshots are num_elements*delta_t apart.
    """

    order: tuple[int, ...]
    delta_t: float
    snapshots: int = 1
    partition: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        order = tuple(map(_index, self.order))
        if not order or sorted(order) != list(range(len(order))):
            raise ValueError("order must be a permutation of 0..M-1, M >= 1")
        if isinstance(self.delta_t, bool) or not 0 < self.delta_t < math.inf:
            raise ValueError("delta_t must be positive and finite")
        if _index(self.snapshots) < 1:
            raise ValueError("snapshots must be >= 1")
        object.__setattr__(self, "order", order)
        if self.partition is not None:
            object.__setattr__(self, "partition",
                               check_partition(self.partition, len(order)))

    @property
    def num_elements(self) -> int:
        return len(self.order)

    def slot_of(self) -> np.ndarray:
        """Inverse permutation: slot_of()[m] is the slot in which antenna m fires."""
        inv = np.empty(self.num_elements, dtype=int)
        inv[np.asarray(self.order)] = np.arange(self.num_elements)
        return inv

    def eta(self, elements=None) -> np.ndarray:
        """Centered activation instants of the given antennas (all by
        default) over every snapshot, antenna-major per snapshot.

        Entry k + s*len(elements) is the instant of antenna elements[k] in
        snapshot s, i.e. its slot_of()*delta_t plus s snapshot periods of
        M*delta_t, less the mean of all entries, so the vector sums to zero.
        """
        m = self.num_elements
        within = self.slot_of() * self.delta_t
        if elements is not None:
            within = within[np.asarray(elements, dtype=int)]
        out = (within + np.arange(self.snapshots)[:, None] * m * self.delta_t).ravel()
        return out - out.mean()

    def to_dict(self) -> dict:
        d = {
            "M": self.num_elements,
            "delta_t_s": self.delta_t,
            "snapshots": self.snapshots,
            "order": list(self.order),
        }
        if self.partition is not None:
            d["partition"] = [list(s) for s in self.partition]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "SwitchingSequence":
        order = d["order"]
        if d.get("M") is not None and d["M"] != len(order):
            raise ValueError("M field disagrees with order length")
        partition = d.get("partition")
        return cls(
            order=tuple(order),
            delta_t=d["delta_t_s"],
            snapshots=d.get("snapshots", 1),
            partition=tuple(tuple(s) for s in partition) if partition else None,
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "SwitchingSequence":
        return cls.from_dict(json.loads(Path(path).read_text()))


def sequential(m: int, delta_t: float, snapshots: int = 1,
               partition=None) -> SwitchingSequence:
    """Identity order: antenna k fires in slot k."""
    return SwitchingSequence(tuple(range(m)), delta_t, snapshots, partition)


def random_init(m: int, delta_t: float, snapshots: int,
                rng: np.random.Generator, partition=None) -> SwitchingSequence:
    """Random order within each subset of the partition, subset i in the
    slots right after subset i-1's (the hybrid scheme), or over all m slots
    without one (the random scheme); the sequence keeps the partition."""
    subsets = partition or [range(m)]
    if sum(map(len, subsets)) != m:
        raise ValueError(f"partition must cover the {m} antennas")
    order = [i for subset in subsets for i in rng.permutation(np.asarray(subset))]
    return SwitchingSequence(tuple(order), delta_t, snapshots, partition)


def swap_sets(m: int, partition) -> list[range]:
    """Slot ranges a swap move draws its two slots from: each partition
    subset's contiguous slot block, in partition order, so the inter-subset
    order never changes (all m slots when the partition is None)."""
    ends = list(accumulate(map(len, partition or [range(m)]), initial=0))
    sets = [range(a, b) for a, b in zip(ends, ends[1:])]
    if min(map(len, sets), default=0) < 2:
        raise ValueError("swaps need at least 2 elements in every swap set")
    return sets


def draw_swap(sets: list[range], k: int,
              rng: np.random.Generator) -> tuple[int, int]:
    """Two distinct slots of set k mod len(sets), so successive moves sweep
    the sets cyclically."""
    slots = sets[k % len(sets)]
    i, j = rng.choice(len(slots), size=2, replace=False)
    return slots[int(i)], slots[int(j)]
