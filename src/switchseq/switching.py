"""Switching sequences: per-antenna activation instants and the slot pairs
an annealing move may swap.

The canonical representation is the slot permutation; times in seconds only
appear when a sequence is evaluated with its slot duration.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class SwitchingSequence:
    """Activation order of M antennas, one per slot of length delta_t.

    order[k] is the antenna activated in slot k. partition, when present,
    lists disjoint contiguous antenna-index subsets (panel-major) whose slot
    ranges the hybrid scheme keeps fixed. The same order repeats in every
    snapshot; snapshots are num_elements*delta_t apart.
    """

    order: tuple[int, ...]
    delta_t: float
    snapshots: int = 1
    partition: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        order = tuple(int(x) for x in self.order)
        if sorted(order) != list(range(len(order))):
            raise ValueError("order must be a permutation of 0..M-1")
        if not 0 < self.delta_t < math.inf:
            raise ValueError("delta_t must be positive and finite")
        if self.snapshots < 1:
            raise ValueError("snapshots must be >= 1")
        object.__setattr__(self, "order", order)
        if self.partition is not None:
            part = tuple(tuple(int(i) for i in s) for s in self.partition)
            covered = [i for subset in part for i in subset]
            if sorted(covered) != list(range(len(order))):
                raise ValueError("partition subsets must be disjoint and cover 0..M-1")
            for subset in part:
                if list(subset) != list(range(subset[0], subset[-1] + 1)):
                    raise ValueError("partition subsets must be contiguous index ranges")
            object.__setattr__(self, "partition", part)

    @property
    def num_elements(self) -> int:
        return len(self.order)

    def slot_of(self) -> np.ndarray:
        """Inverse permutation: slot_of()[m] is the slot in which antenna m fires."""
        inv = np.empty(self.num_elements, dtype=int)
        inv[np.asarray(self.order)] = np.arange(self.num_elements)
        return inv

    def eta(self) -> np.ndarray:
        """Centered activation instants, antenna-major per snapshot, length
        M*snapshots.

        Entry m + s*M is the instant of antenna m in snapshot s, i.e.
        slot_of(m)*delta_t plus s snapshot periods of M*delta_t, less the
        mean of all entries, so the vector sums to zero.
        """
        m = self.num_elements
        within = self.slot_of() * self.delta_t
        out = np.concatenate(
            [within + s * m * self.delta_t for s in range(self.snapshots)]
        )
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
        if d.get("M") is not None and int(d["M"]) != len(order):
            raise ValueError("M field disagrees with order length")
        partition = d.get("partition")
        return cls(
            order=tuple(order),
            delta_t=float(d["delta_t_s"]),
            snapshots=int(d.get("snapshots", 1)),
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
    if m < 1:
        raise ValueError("need at least one antenna")
    return SwitchingSequence(tuple(range(m)), delta_t, snapshots, partition)


def random_init(m: int, delta_t: float, snapshots: int,
                rng: np.random.Generator) -> SwitchingSequence:
    """Uniformly random activation order from the caller's RNG."""
    if m < 1:
        raise ValueError("need at least one antenna")
    return SwitchingSequence(tuple(rng.permutation(m)), delta_t, snapshots)


def hybrid_init(m: int, delta_t: float, snapshots: int,
                partition, rng: np.random.Generator) -> SwitchingSequence:
    """Random order within each subset, subsets in partition order.

    Subset i occupies the slots directly after subset i-1, so the
    inter-subset schedule is sequential while each subset's antennas are
    shuffled within its own slot range.
    """
    part = tuple(tuple(int(i) for i in s) for s in partition)
    if sorted(i for s in part for i in s) != list(range(m)):
        raise ValueError("partition must cover 0..M-1 exactly once")
    order: list[int] = []
    for subset in part:
        order.extend(rng.permutation(np.asarray(subset)))
    return SwitchingSequence(tuple(order), delta_t, snapshots, part)


def swap_sets(update: str, m: int, partition) -> list[range]:
    """Slot ranges a swap move draws its two slots from: all m slots for a
    random update; for a hybrid one, each partition subset's contiguous slot
    block, in partition order, so the inter-subset order never changes."""
    if update == "hybrid":
        if partition is None:
            raise ValueError("hybrid swaps require a partitioned (octagonal) array")
        ends = list(accumulate(map(len, partition), initial=0))
        sets = [range(a, b) for a, b in zip(ends, ends[1:])]
    else:
        sets = [range(m)]
    if min(map(len, sets), default=0) < 2:
        raise ValueError(f"{update} swaps need at least 2 elements in every swap set")
    return sets


def draw_swap(sets: list[range], k: int,
              rng: np.random.Generator) -> tuple[int, int]:
    """Two distinct slots of set k mod len(sets), so successive moves sweep
    the sets cyclically."""
    slots = sets[k % len(sets)]
    i, j = rng.choice(len(slots), size=2, replace=False)
    return slots[int(i)], slots[int(j)]


def eta_subset(seq: SwitchingSequence, indices) -> np.ndarray:
    """Activation instants of the given antennas only (single snapshot),
    centered over that subset, which is the convention for the effective
    measurement-time norm of a hybrid sequence.
    """
    idx = np.asarray(list(indices), dtype=int)
    eta = seq.slot_of()[idx] * seq.delta_t
    return eta - eta.mean()
