"""Fig. 2: tightness of the Simple(x, lambda) lower bound.

The paper places objects with a Simple(1, lambda) placement built from
STS(69) inside n = 71 nodes (r = 3), simulates the worst k node failures,
and plots ``Avail(pi) - lbAvail_si(x, lambda)`` for s in {2, 3}, k in
[s, 5] and b in {600 ... 9600}.

With a heuristic adversary the measured availability is an upper bound, so
the reported gap is an upper bound on the true gap; ``REPRO_EFFORT=exact``
switches to branch-and-bound for certified values.

The sweep itself is an :class:`~repro.exp.spec.ExperimentSpec` (axes b and
s, k derived from s) run through :mod:`repro.exp.runner`: one shard per
``(b, s)`` — a placement structure plus one warm-start k-chain — so the
experiment parallelizes across shards without perturbing any result.
:func:`generate` remains the compatibility entry point with bit-identical
output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.analysis.common import (
    adversary_effort,
    object_scale_cap,
)
from repro.core.availability import evaluate_availability_grid
from repro.core.batch import AttackCell
from repro.core.simple import SimpleStrategy
from repro.exp.registry import ExperimentKernel
from repro.exp.runner import run_figure
from repro.exp.spec import ExperimentSpec
from repro.util.tables import TextTable


@dataclass(frozen=True)
class Fig2Cell:
    b: int
    s: int
    k: int
    avail: int
    lower_bound: int
    exact: bool

    @property
    def gap(self) -> int:
        return self.avail - self.lower_bound


@dataclass(frozen=True)
class Fig2Result:
    n: int
    r: int
    x: int
    cells: Tuple[Fig2Cell, ...]

    def series(self) -> Dict[Tuple[int, int], List[Tuple[int, int]]]:
        """{(s, k): [(b, gap), ...]} — the curves of the paper's plot."""
        curves: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        for cell in self.cells:
            curves.setdefault((cell.s, cell.k), []).append((cell.b, cell.gap))
        return curves

    def render(self) -> str:
        table = TextTable(
            ["b", "s", "k", "Avail", "lbAvail_si", "gap", "exact"],
            title=(
                f"Fig 2: Avail - lbAvail_si for Simple(x={self.x}) "
                f"(n={self.n}, r={self.r})"
            ),
        )
        for cell in self.cells:
            table.add_row(
                [
                    cell.b,
                    cell.s,
                    cell.k,
                    cell.avail,
                    cell.lower_bound,
                    cell.gap,
                    "yes" if cell.exact else "upper-bd",
                ]
            )
        return table.render()


def default_spec(
    n: int = 71,
    r: int = 3,
    x: int = 1,
    b_values: Tuple[int, ...] = (600, 1200, 2400, 4800, 9600),
    s_values: Tuple[int, ...] = (2, 3),
    k_max: int = 5,
    effort: str = "",
) -> ExperimentSpec:
    """The Fig. 2 sweep as data. Env knobs resolve here, into the spec."""
    return ExperimentSpec.build(
        "fig2",
        axes={"b": b_values, "s": s_values},
        constants={
            "n": n,
            "r": r,
            "x": x,
            "k_max": k_max,
            "effort": effort or adversary_effort(),
            "b_cap": object_scale_cap(),
        },
    )


def _expand(spec: ExperimentSpec) -> List[dict]:
    x = spec.constant("x")
    cap = spec.constant("b_cap")
    k_max = spec.constant("k_max")
    return [
        {"b": b, "s": s, "k": k}
        for b in spec.axis("b")
        if b <= cap
        for s in spec.axis("s")
        if x < s
        for k in range(s, k_max + 1)
    ]


def _group_key(spec: ExperimentSpec, cell: dict):
    return (cell["b"], cell["s"])


def _run_group(spec: ExperimentSpec, cells) -> List[dict]:
    b, s = cells[0]["b"], cells[0]["s"]
    effort = spec.constant("effort")
    strategy = SimpleStrategy(spec.constant("n"), spec.constant("r"), spec.constant("x"))
    placement = strategy.place(b)
    # The shard's k-ladder goes through the batch engine in one pass: one
    # warm engine per placement structure (shared across the sibling
    # (b, s') shard when it lands in the same process), a k-attack seeds
    # the (k+1)-search, and same-process replays come out of the memo.
    grid = [AttackCell(cell["k"], s, effort) for cell in cells]
    reports = evaluate_availability_grid(placement, grid, workers=1, seed=b)
    return [
        {
            "avail": report.available,
            "lower_bound": strategy.lower_bound(b, cell["k"], s),
            "exact": report.exact,
        }
        for cell, report in zip(cells, reports)
    ]


def _assemble(spec: ExperimentSpec, cells, metrics) -> Fig2Result:
    return Fig2Result(
        n=spec.constant("n"),
        r=spec.constant("r"),
        x=spec.constant("x"),
        cells=tuple(
            Fig2Cell(
                b=cell["b"],
                s=cell["s"],
                k=cell["k"],
                avail=entry["avail"],
                lower_bound=entry["lower_bound"],
                exact=entry["exact"],
            )
            for cell, entry in zip(cells, metrics)
        ),
    )


KERNELS = {
    "fig2": ExperimentKernel(
        name="fig2",
        expand=_expand,
        group_key=_group_key,
        run_group=_run_group,
        assemble=_assemble,
        render=lambda result: result.render(),
        group_cost=lambda spec, key, cells: key[0] * len(cells),
        # The placement depends only on b — (b, s) and (b, s') shards
        # attack the same structure, so route them to one pool worker.
        affinity=lambda spec, key, cells: key[0],
    )
}


def generate(
    n: int = 71,
    r: int = 3,
    x: int = 1,
    b_values: Tuple[int, ...] = (600, 1200, 2400, 4800, 9600),
    s_values: Tuple[int, ...] = (2, 3),
    k_max: int = 5,
    effort: str = "",
) -> Fig2Result:
    """Compatibility wrapper: run the Fig. 2 spec through the exp engine."""
    return run_figure(
        default_spec(
            n=n, r=r, x=x, b_values=b_values, s_values=s_values,
            k_max=k_max, effort=effort,
        )
    )
