"""Availability evaluation: Definition 1 tied to the adversary engines.

Single-cell evaluation and whole grids both route through the batched
attack engine (:mod:`repro.core.batch`), so the incidence structure is
built once per placement (and kept warm across calls via the process
engine cache), searches share incumbents across cells, and repeated
identical evaluations are served from the attack-result memo.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.adversary import AttackResult
from repro.core.batch import AttackCell, batch_attack
from repro.core.placement import Placement


@dataclass(frozen=True)
class AvailabilityReport:
    """``Avail(pi)`` for one placement under worst-case ``k`` failures."""

    b: int
    k: int
    s: int
    available: int  # surviving objects (b - damage)
    attack: AttackResult

    @property
    def failed(self) -> int:
        return self.b - self.available

    @property
    def fraction_available(self) -> float:
        return self.available / self.b

    @property
    def exact(self) -> bool:
        """True iff `available` is exactly Avail(pi), not just an upper bound."""
        return self.attack.exact


def evaluate_availability(
    placement: Placement,
    k: int,
    s: int,
    effort: str = "auto",
    rng: Optional[random.Random] = None,
    cache: Optional[bool] = None,
) -> AvailabilityReport:
    """Compute (or upper-bound) ``Avail(pi)`` = b - worst-case damage.

    With a heuristic adversary (``exact=False`` on the attack) the reported
    availability is an *upper* bound on the true worst case: the adversary
    may have missed a better attack, never overstated one. ``cache``
    overrides the attack-memo default (memoization only applies when
    ``rng`` is None — see :mod:`repro.core.batch`).
    """
    [attack] = batch_attack(
        placement, [AttackCell(k, s, effort)], rng=rng, cache=cache
    )
    return AvailabilityReport(
        b=placement.b,
        k=k,
        s=s,
        available=placement.b - attack.damage,
        attack=attack,
    )


def evaluate_availability_grid(
    placement: Placement,
    cells: Sequence[AttackCell],
    workers: Optional[int] = None,
    seed: int = 0,
    cache: Optional[bool] = None,
) -> List[AvailabilityReport]:
    """Batched ``Avail(pi)`` over a grid of (k, s, effort) cells.

    One warm engine per placement structure, shared kernels per threshold,
    chained incumbents, memoized repeats (and optional multiprocessing) —
    see :func:`repro.core.batch.batch_attack`. Reports align with ``cells``.
    """
    attacks = batch_attack(
        placement, cells, workers=workers, seed=seed, cache=cache
    )
    return [
        AvailabilityReport(
            b=placement.b,
            k=cell.k,
            s=cell.s,
            available=placement.b - attack.damage,
            attack=attack,
        )
        for cell, attack in zip(cells, attacks)
    ]


def survivors_under(
    placement: Placement, failed_nodes: Tuple[int, ...], s: int
) -> int:
    """Objects surviving one concrete failure set (no search)."""
    return len(placement.surviving_objects(failed_nodes, s))
