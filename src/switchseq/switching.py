"""Switching sequences: per-antenna activation instants and their permutation moves.

The canonical representation is the slot permutation; times in seconds only
appear when a sequence is evaluated with its slot duration.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
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

    def subset_slot_ranges(self) -> list[range]:
        """Slot range occupied by each partition subset, in partition order."""
        if self.partition is None:
            raise ValueError("sequence has no partition")
        ranges = []
        start = 0
        for subset in self.partition:
            ranges.append(range(start, start + len(subset)))
            start += len(subset)
        return ranges

    def eta(self, centered: bool = True) -> np.ndarray:
        """Activation instants, antenna-major per snapshot, length M*snapshots.

        Entry m + s*M is the absolute instant of antenna m in snapshot s,
        i.e. slot_of(m)*delta_t plus s snapshot periods of M*delta_t.
        centered subtracts the mean so the vector sums to zero.
        """
        m = self.num_elements
        within = self.slot_of() * self.delta_t
        out = np.concatenate(
            [within + s * m * self.delta_t for s in range(self.snapshots)]
        )
        if centered:
            out = out - out.mean()
        return out

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


def swap_random(seq: SwitchingSequence, rng: np.random.Generator) -> SwitchingSequence:
    """Exchange the antennas of two uniformly chosen distinct slots."""
    m = seq.num_elements
    if m < 2:
        raise ValueError("need at least two antennas to swap")
    i, j = rng.choice(m, size=2, replace=False)
    order = list(seq.order)
    order[i], order[j] = order[j], order[i]
    return SwitchingSequence(tuple(order), seq.delta_t, seq.snapshots, seq.partition)


def swap_hybrid(seq: SwitchingSequence, iteration: int,
                rng: np.random.Generator) -> SwitchingSequence:
    """Exchange two slots inside one subset; the subset cycles with iteration.

    Subset (iteration mod n_subsets) is affected, so repeated calls sweep the
    subsets cyclically and the inter-subset order never changes.
    """
    if seq.partition is None:
        raise ValueError("hybrid swap requires a partitioned sequence")
    ranges = seq.subset_slot_ranges()
    for r in ranges:
        if len(r) < 2:
            raise ValueError("every subset must have at least 2 antennas to swap")
    slots = ranges[iteration % len(ranges)]
    i, j = rng.choice(len(slots), size=2, replace=False)
    i, j = slots[int(i)], slots[int(j)]
    order = list(seq.order)
    order[i], order[j] = order[j], order[i]
    return SwitchingSequence(tuple(order), seq.delta_t, seq.snapshots, seq.partition)


def eta_subset(seq: SwitchingSequence, indices, centered: bool = True) -> np.ndarray:
    """Activation instants of the given antennas only (single snapshot).

    centered removes the mean over that subset, which is the convention for
    the effective measurement-time norm of a hybrid sequence.
    """
    idx = np.asarray(list(indices), dtype=int)
    eta = seq.slot_of()[idx] * seq.delta_t
    if centered:
        eta = eta - eta.mean()
    return eta
