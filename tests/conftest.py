import itertools
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from switchseq import SwitchingSequence


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(section: str, language: str, index: int = 0) -> str:
    """Fenced code block number index (from 0) of the language under a
    README heading."""
    text = README.read_text().split(f"\n## {section}\n", 1)[1]
    return text.split(f"```{language}\n")[index + 1].split("```", 1)[0]


def readme_config() -> dict:
    """The README quick-start config, parsed afresh on each call."""
    return json.loads(readme_block("CLI quick start", "json"))


def balance_score(order: tuple[int, ...]) -> float:
    """sum_k (k - c)(order[k] - c): zero kills the angle-Doppler Fisher coupling
    of a centered omni ULA."""
    m = len(order)
    c = (m - 1) / 2.0
    slots = np.arange(m) - c
    return float(np.dot(slots, np.asarray(order) - c))


def balanced_order(m: int) -> tuple[int, ...]:
    """Deterministic permutation with balance score exactly zero.

    Brute force for tiny m; otherwise seeded best-improvement pair swaps
    with restarts (the score moves on an integer lattice, so zero is
    reachable and the descent terminates).
    """
    if m <= 6:
        for perm in itertools.permutations(range(m)):
            if balance_score(perm) == 0.0:
                return perm
        raise AssertionError(f"no balanced permutation for m={m}")
    gen = np.random.default_rng(m)
    for _ in range(100):
        order = list(gen.permutation(m))
        score = balance_score(tuple(order))
        while score != 0.0:
            best = (0, 0, 0)
            for i in range(m):
                for j in range(i + 1, m):
                    delta = (i - j) * (order[j] - order[i])
                    if abs(score + delta) < abs(score + best[2]):
                        best = (i, j, delta)
            if best[2] == 0:
                break  # stalled, restart from a fresh shuffle
            i, j, delta = best
            order[i], order[j] = order[j], order[i]
            score += delta
        if score == 0.0:
            return tuple(int(x) for x in order)
    raise AssertionError(f"no balanced permutation found for m={m}")


def balanced_sequence(m: int, delta_t: float) -> SwitchingSequence:
    return SwitchingSequence(balanced_order(m), delta_t)


def swapped(seq: SwitchingSequence, a: int, b: int) -> SwitchingSequence:
    """seq with the antennas of slots a and b exchanged."""
    order = list(seq.order)
    order[a], order[b] = order[b], order[a]
    return replace(seq, order=tuple(order))


@pytest.fixture
def rng():
    return np.random.default_rng(20230615)
