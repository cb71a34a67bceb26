"""Simulated annealing over switching sequences.

The acceptance rule is implemented exactly as the exponential-threshold
comparison (improvements therefore always pass), with one proposal draw and
one acceptance draw per iteration from a single caller-visible RNG stream.
Together with the objective's fixed QMC point set this makes whole runs
bit-reproducible from the seed.

A move is a slot pair that draw_swap takes from the swap_sets of the
starting sequence's partition, so an anneal keeps each subset in its slot
block (without a partition, any two slots swap). A proposal is scored from
the chain's order, per-sample sums and per-sample contributions to the
objective plus the swap's delta (ObjectiveEvaluator.propose): the two moved
elements' terms, formed on their live samples only, and the contributions
recomputed there only, so it costs O(live samples) instead of
O(samples * elements); the order changes only on accept. The sums are
exact fixed-point integers, so that score equals a fresh evaluate() of the
proposal bit for bit, and an accepted proposal's sums and contributions
carry forward as they are: every objective in the trace is exact (the tests
assert it with ==).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .ambiguity import ObjectiveEvaluator
from .switching import SwitchingSequence, draw_swap, swap_sets

DEFAULT_T0_FRACTION = 0.1
DEFAULT_FINAL_TEMPERATURE_RATIO = 1e-4


class AnnealError(RuntimeError, ArithmeticError):
    """The automatic t0 has no scale: the initial objective is zero or NaN."""


@dataclass(frozen=True)
class AnnealConfig:
    """Annealing schedule; anneal takes the evaluator and RNG its caller
    built, and its moves from the starting sequence's partition. t0/alpha
    of None are resolved at run start: t0 = 0.1*|f(init)| and alpha such
    that the final temperature is 1e-4*t0."""

    k_max: int = 200
    t0: float | None = None
    alpha: float | None = None

    def __post_init__(self):
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")
        if self.t0 is not None and not self.t0 > 0:
            raise ValueError("t0 must be positive")
        if self.alpha is not None and not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must lie in (0, 1)")


def temperature_schedule(t0: float, alpha: float, k: int) -> float:
    """Temperature after k cooling steps: t0 * alpha**k."""
    return t0 * alpha ** k


@dataclass(frozen=True)
class AnnealRecord:
    k: int                    # 0-based iteration index
    objective: float          # objective of the current sequence after accept/reject
    proposal_objective: float  # objective of the proposed sequence
    temperature: float        # temperature used for this iteration's test
    accepted: bool


@dataclass
class AnnealTrace:
    t0: float
    alpha: float
    initial_objective: float
    records: list[AnnealRecord] = field(default_factory=list)
    best_objective: float = math.inf
    best_k: int = -1
    best_sequence: SwitchingSequence | None = None

    @property
    def final_objective(self) -> float:
        return self.records[-1].objective


def anneal(init: SwitchingSequence, config: AnnealConfig,
           evaluator: ObjectiveEvaluator, rng: np.random.Generator
           ) -> tuple[SwitchingSequence, AnnealTrace]:
    """Run the annealing loop and return (final sequence, trace).

    The returned sequence is the one held after the last iteration; the
    lowest-objective sequence seen along the way is kept in the trace.
    """
    sets = swap_sets(init.num_elements, init.partition)
    order = list(init.order)
    sums = evaluator.sample_sums(init)
    contributions = evaluator.contributions(sums)
    f_current = evaluator.total(contributions)
    t0 = config.t0 if config.t0 is not None else DEFAULT_T0_FRACTION * abs(f_current)
    alpha = (config.alpha if config.alpha is not None
             else DEFAULT_FINAL_TEMPERATURE_RATIO ** (1.0 / config.k_max))

    if not t0 > 0:
        raise AnnealError(f"auto t0 failed: initial objective is {f_current!r}; "
                          "set t0 explicitly")
    trace = AnnealTrace(t0=t0, alpha=alpha, initial_objective=f_current,
                        best_objective=f_current, best_k=-1, best_sequence=init)
    best_order = init.order  # the best sequence is built from it once, at the end
    for k in range(config.k_max):
        a, b = draw_swap(sets, k, rng)
        u = rng.random()
        proposal = evaluator.propose(sums, contributions, order, a, b)
        f_proposal = proposal[2]
        temperature = temperature_schedule(t0, alpha, k)
        delta = f_current - f_proposal
        # literal rule exp(delta/T) > u, written to avoid overflow for delta >= 0;
        # a schedule cooled to T = 0.0 takes improvements only, its limit
        accepted = delta >= 0.0 or (temperature > 0.0
                                    and math.exp(delta / temperature) > u)
        if accepted:
            order[a], order[b] = order[b], order[a]
            sums, contributions, f_current = proposal
        if f_current < trace.best_objective:
            trace.best_objective = f_current
            trace.best_k = k
            best_order = tuple(order)
        trace.records.append(AnnealRecord(k, f_current, f_proposal,
                                          temperature, accepted))
    trace.best_sequence = replace(init, order=best_order)
    return replace(init, order=tuple(order)), trace


def save_trace_csv(trace: AnnealTrace, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "objective", "proposal_objective",
                         "temperature", "accepted"])
        for rec in trace.records:
            writer.writerow([rec.k, repr(rec.objective), repr(rec.proposal_objective),
                             repr(rec.temperature), int(rec.accepted)])
