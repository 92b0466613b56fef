"""Fig. 9: the paper's headline tables — Combo vs Random.

Every cell compares the Combo DP's availability lower bound against
Random's probable availability, normalized by the most Random could be
improved upon:

    cell = 100 * (lbAvail_co - prAvail_rnd) / (b - prAvail_rnd)

White cells (positive) mean Combo *guarantees* more availability than
Random probably achieves; dark cells (negative) mean Random probably wins.
Fig. 9a is n = 71 (k in [s, 7]); Fig. 9b is n = 257 (k in [s, 8]).

The analytic tables run as the ``fig9`` experiment kernel (one shard per
(r, s) table, sharing its ComboStrategy); ``fig9a``/``fig9b`` in the
figure catalog are just two default specs over it. The empirical
validation sweep (:func:`generate_empirical`) stays a direct batch-engine
consumer — it is a contract check, not a paper figure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.common import (
    PAPER_B_LADDER,
    adversary_effort,
    attack_workers,
    percent,
)
from repro.core.batch import AttackCell, batch_attack
from repro.core.combo import ComboStrategy
from repro.core.rand_analysis import pr_avail_rnd
from repro.designs.catalog import Existence
from repro.exp.registry import ExperimentKernel
from repro.exp.runner import run_figure
from repro.exp.spec import ExperimentSpec
from repro.util.rng import spawn_seeds
from repro.util.tables import TextTable, format_grid


@dataclass(frozen=True)
class Fig9Cell:
    b: int
    k: int
    lb_combo: int
    pr_avail: int

    @property
    def improvement_percent(self) -> float:
        """(lb - pr) / (b - pr) as a percentage; nan when Random is perfect."""
        return percent(self.lb_combo - self.pr_avail, self.b - self.pr_avail)

    @property
    def winner(self) -> str:
        if self.lb_combo > self.pr_avail:
            return "combo"
        if self.lb_combo < self.pr_avail:
            return "random"
        return "tie"


@dataclass(frozen=True)
class Fig9Table:
    n: int
    r: int
    s: int
    b_values: Tuple[int, ...]
    k_values: Tuple[int, ...]
    cells: Dict[Tuple[int, int], Fig9Cell]  # (b, k) -> cell

    def grid_percent(self) -> List[List[float]]:
        return [
            [self.cells[(b, k)].improvement_percent for k in self.k_values]
            for b in self.b_values
        ]

    def render(self) -> str:
        values = [
            [f"{cell:.0f}" if cell == cell else "-" for cell in row]
            for row in self.grid_percent()
        ]
        return format_grid(
            list(self.b_values),
            list(self.k_values),
            values,
            corner="b\\k",
            title=f"Fig 9 (n={self.n}): r={self.r}, s={self.s} — improvement %",
        )


@dataclass(frozen=True)
class Fig9Result:
    n: int
    tables: Tuple[Fig9Table, ...]

    def table_for(self, r: int, s: int) -> Optional[Fig9Table]:
        for table in self.tables:
            if table.r == r and table.s == s:
                return table
        return None

    def render(self) -> str:
        return "\n\n".join(table.render() for table in self.tables)


@dataclass(frozen=True)
class Fig9EmpiricalCell:
    b: int
    k_plan: int
    k_attack: int
    lower_bound: int
    measured: int  # upper bound on Avail under heuristic effort
    pr_avail: int
    exact: bool


@dataclass(frozen=True)
class Fig9Empirical:
    """Measured availability of materialized Combo placements.

    Validates the analytic table: on the diagonal (attacked at the k it
    was planned for) a placement's measured availability must sit at or
    above ``lbAvail_co`` — with a heuristic adversary the measurement is
    an upper bound on the true worst case, so the comparison is sound at
    any effort level. Off-diagonal cells show robustness to mis-planned k.
    """

    n: int
    r: int
    s: int
    cells: Tuple[Fig9EmpiricalCell, ...]

    def diagonal(self) -> Tuple[Fig9EmpiricalCell, ...]:
        return tuple(c for c in self.cells if c.k_plan == c.k_attack)

    def violations(self) -> Tuple[Fig9EmpiricalCell, ...]:
        """Diagonal cells where measurement undercuts the guarantee (= bugs)."""
        return tuple(c for c in self.diagonal() if c.measured < c.lower_bound)

    def render(self) -> str:
        table = TextTable(
            ["b", "k_plan", "k_attack", "lbAvail_co", "measured", "prAvail",
             "certified"],
            title=(
                f"Fig 9 empirical check (n={self.n}, r={self.r}, s={self.s}):"
                " Combo guarantee vs batched worst-case attack"
            ),
        )
        for cell in self.cells:
            table.add_row(
                [
                    cell.b,
                    cell.k_plan,
                    cell.k_attack,
                    cell.lower_bound,
                    cell.measured,
                    cell.pr_avail,
                    "yes" if cell.exact else "upper-bd",
                ]
            )
        return table.render()


def generate_empirical(
    n: int,
    r: int,
    s: int,
    k_values: Tuple[int, ...],
    b_values: Tuple[int, ...] = (600,),
    tier: Existence = Existence.KNOWN,
    effort: str = "",
    seed: int = 2015,
) -> Fig9Empirical:
    """Materialize Combo placements and attack them through the batch engine.

    For each planned ``k`` the placement is attacked at *every* k in
    ``k_values`` in one batched pass (one warm engine per placement,
    chained incumbents, memoized repeats); the diagonal validates Fig. 9's
    lower bounds, the rest measures sensitivity to planning for the wrong
    failure count. Combo plans for different ``k_plan`` frequently yield
    structurally identical placements, in which case the engine cache
    collapses their attack work entirely.
    """
    effort = effort or adversary_effort()
    strategy = ComboStrategy(n, r, s, tier=tier)
    cells: List[Fig9EmpiricalCell] = []
    for b in b_values:
        for k_plan in k_values:
            plan = strategy.plan(b, k_plan)
            placement = strategy.place(b, k_plan, plan=plan)
            grid = [AttackCell(k, s, effort) for k in k_values]
            [cell_seed] = spawn_seeds(seed, 1, "fig9-empirical", b, k_plan)
            attacks = batch_attack(
                placement,
                grid,
                workers=attack_workers(),
                seed=cell_seed,
            )
            for cell, attack in zip(grid, attacks):
                cells.append(
                    Fig9EmpiricalCell(
                        b=b,
                        k_plan=k_plan,
                        k_attack=cell.k,
                        lower_bound=plan.lower_bound,
                        measured=b - attack.damage,
                        pr_avail=pr_avail_rnd(n, cell.k, r, s, b),
                        exact=attack.exact,
                    )
                )
    return Fig9Empirical(n=n, r=r, s=s, cells=tuple(cells))


def default_spec(
    n: int,
    k_max: int,
    r_values: Tuple[int, ...] = (2, 3, 4, 5),
    b_values: Tuple[int, ...] = tuple(PAPER_B_LADDER),
    tier: Existence = Existence.KNOWN,
) -> ExperimentSpec:
    return ExperimentSpec.build(
        "fig9",
        axes={"b": b_values},
        constants={
            "n": n,
            "k_max": k_max,
            "r_values": list(r_values),
            "tier": tier.name,
        },
    )


def default_spec_a() -> ExperimentSpec:
    """Fig. 9a: n = 71, k up to 7."""
    return default_spec(71, 7)


def default_spec_b() -> ExperimentSpec:
    """Fig. 9b: n = 257, k up to 8."""
    return default_spec(257, 8)


def _expand(spec: ExperimentSpec) -> List[dict]:
    k_max = spec.constant("k_max")
    return [
        {"r": r, "s": s, "b": b, "k": k}
        for r in spec.constant("r_values")
        for s in range(2, r + 1)
        for b in spec.axis("b")
        for k in range(s, k_max + 1)
    ]


def _run_group(spec: ExperimentSpec, cells) -> List[dict]:
    n = spec.constant("n")
    r, s = cells[0]["r"], cells[0]["s"]
    strategy = ComboStrategy(n, r, s, tier=Existence[spec.constant("tier")])
    return [
        {
            "lb": strategy.plan(cell["b"], cell["k"]).lower_bound,
            "pr": pr_avail_rnd(n, cell["k"], r, s, cell["b"]),
        }
        for cell in cells
    ]


def _assemble(spec: ExperimentSpec, cells, metrics) -> Fig9Result:
    n = spec.constant("n")
    k_max = spec.constant("k_max")
    b_values = tuple(spec.axis("b"))
    grid: Dict[Tuple[int, int], Dict[Tuple[int, int], Fig9Cell]] = {}
    for cell, entry in zip(cells, metrics):
        grid.setdefault((cell["r"], cell["s"]), {})[(cell["b"], cell["k"])] = (
            Fig9Cell(
                b=cell["b"], k=cell["k"],
                lb_combo=entry["lb"], pr_avail=entry["pr"],
            )
        )
    tables: List[Fig9Table] = []
    for r in spec.constant("r_values"):
        for s in range(2, r + 1):
            tables.append(
                Fig9Table(
                    n=n,
                    r=r,
                    s=s,
                    b_values=b_values,
                    k_values=tuple(range(s, k_max + 1)),
                    cells=grid.get((r, s), {}),
                )
            )
    return Fig9Result(n=n, tables=tuple(tables))


KERNELS = {
    "fig9": ExperimentKernel(
        name="fig9",
        expand=_expand,
        group_key=lambda spec, cell: (cell["r"], cell["s"]),
        run_group=_run_group,
        assemble=_assemble,
        render=lambda result: result.render(),
    )
}


def generate(
    n: int,
    k_max: int,
    r_values: Tuple[int, ...] = (2, 3, 4, 5),
    b_values: Tuple[int, ...] = tuple(PAPER_B_LADDER),
    tier: Existence = Existence.KNOWN,
) -> Fig9Result:
    """Fig. 9a: generate(71, 7). Fig. 9b: generate(257, 8)."""
    return run_figure(
        default_spec(n, k_max, r_values=r_values, b_values=b_values, tier=tier)
    )
