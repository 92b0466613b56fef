"""repro: worst-case availability replica placement (ICDCS 2015 reproduction).

A from-scratch implementation of Li, Gao & Reiter, *Replica Placement for
Availability in the Worst Case* (ICDCS 2015): t-packing-based Simple and
Combo placement strategies, the load-balanced Random baseline, exact and
heuristic worst-case failure adversaries, the analytical availability
bounds (Lemmas 1-4, Theorems 1-2), the combinatorial design substrate the
placements are built from, and a cluster simulator for end-to-end
scenarios.

Quickstart::

    from repro import ComboStrategy, RandomStrategy, evaluate_availability

    combo = ComboStrategy(n=71, r=3, s=2)
    plan = combo.plan(b=1200, k=3)          # DP of Sec. III-B1
    placement = combo.place(b=1200, k=3)    # concrete replica sets
    report = evaluate_availability(placement, k=3, s=2)
    assert report.available >= plan.lower_bound

See README.md for the architecture tour and DESIGN.md for the
paper-to-module map.
"""

from repro.core import (
    AdaptiveComboPlacement,
    AttackCell,
    AttackEngine,
    AttackResult,
    AvailabilityReport,
    BranchAndBoundAdversary,
    ComboPlan,
    ComboStrategy,
    DamageKernel,
    ExhaustiveAdversary,
    GreedyAdversary,
    Incidence,
    LocalSearchAdversary,
    Placement,
    PlacementError,
    RandomStrategy,
    SimpleStrategy,
    Subsystem,
    SystemParams,
    UnconstrainedRandomStrategy,
    attack_grid,
    audit_placement,
    batch_attack,
    best_attack,
    capacity_gap,
    certified_availability,
    evaluate_availability,
    evaluate_availability_grid,
    make_kernel,
    lb_avail_combo,
    lb_avail_simple,
    lemma4_upper_bound,
    majority_threshold,
    minimal_lambda,
    packing_profile,
    pr_avail_rnd,
    select_combo_subsystems,
    select_subsystem,
    simple_capacity,
    theorem1_constants,
)
from repro.sim import LifetimeSimulator, SimConfig, SimReport, simulate

__version__ = "1.0.0"

__all__ = [
    "AdaptiveComboPlacement",
    "AttackCell",
    "AttackEngine",
    "AttackResult",
    "AvailabilityReport",
    "BranchAndBoundAdversary",
    "ComboPlan",
    "ComboStrategy",
    "DamageKernel",
    "ExhaustiveAdversary",
    "GreedyAdversary",
    "Incidence",
    "LifetimeSimulator",
    "LocalSearchAdversary",
    "Placement",
    "PlacementError",
    "RandomStrategy",
    "SimConfig",
    "SimReport",
    "SimpleStrategy",
    "Subsystem",
    "SystemParams",
    "UnconstrainedRandomStrategy",
    "__version__",
    "attack_grid",
    "audit_placement",
    "batch_attack",
    "best_attack",
    "capacity_gap",
    "certified_availability",
    "evaluate_availability",
    "evaluate_availability_grid",
    "make_kernel",
    "lb_avail_combo",
    "lb_avail_simple",
    "lemma4_upper_bound",
    "majority_threshold",
    "minimal_lambda",
    "packing_profile",
    "pr_avail_rnd",
    "select_combo_subsystems",
    "select_subsystem",
    "simple_capacity",
    "simulate",
    "theorem1_constants",
]
