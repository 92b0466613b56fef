"""Shared experiment configuration and environment knobs.

Every figure generator reads its effort/repetition knobs from here so that
``pytest benchmarks/`` runs in minutes by default while
``REPRO_EFFORT=exact REPRO_REPS=20`` reproduces the paper's full procedure.

Attack-engine knobs: ``REPRO_WORKERS`` sets the process fan-out of
batched attack grids and ``REPRO_ATTACK_CACHE`` toggles the warm
attack-result memo; both resolve here so figures stay declarative.
(``REPRO_GAIN_BACKING``, the gain kernel's backing, resolves in
:mod:`repro.core.kernels`; every backing gives identical results.)
"""

from __future__ import annotations

import os
from typing import List

from repro.core.batch import attack_cache_default as _attack_cache_default
from repro.core.batch import worker_count as _worker_count

#: The paper's object-count ladder (Figs. 9-10 start at 600; Fig. 7 at 150).
PAPER_B_LADDER: List[int] = [600, 1200, 2400, 4800, 9600, 19200, 38400]
FIG7_B_LADDER: List[int] = [150, 300, 600, 1200, 2400, 4800, 9600]

#: The paper's cluster sizes (chosen so n_x ~ n exists with mu = 1).
PAPER_N_VALUES: List[int] = [31, 71, 257]


def _int_knob(name: str, default: int) -> int:
    """Parse an integer env knob, naming the variable on bad input.

    A bare ``int()`` would raise an anonymous ``ValueError`` (e.g.
    ``REPRO_REPS=many``) before any guarded range check runs; wrapping it
    keeps the error actionable without knowing the call site.
    """
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(
            f"{name} must be an integer, got {raw!r}"
        ) from None


def adversary_effort() -> str:
    """Adversary effort for simulation figures: fast (default), auto, exact."""
    effort = os.environ.get("REPRO_EFFORT", "fast")
    if effort not in ("fast", "auto", "exact"):
        raise ValueError(f"REPRO_EFFORT must be fast, auto or exact, got {effort!r}")
    return effort


def monte_carlo_reps(default: int = 5) -> int:
    """Monte-Carlo repetitions for Random-placement figures (paper used 20)."""
    value = _int_knob("REPRO_REPS", default)
    if value < 1:
        raise ValueError(f"REPRO_REPS must be >= 1, got {value}")
    return value


def object_scale_cap(default: int = 9600) -> int:
    """Cap on b for simulation-heavy figures (analysis figures ignore this)."""
    value = _int_knob("REPRO_B_MAX", default)
    if value < 1:
        raise ValueError(f"REPRO_B_MAX must be >= 1, got {value}")
    return value


def attack_cache_enabled() -> bool:
    """Whether batched attacks memoize results (``REPRO_ATTACK_CACHE``)."""
    return _attack_cache_default()


def attack_workers(default: int = 1) -> int:
    """Worker processes for batched attack grids (``REPRO_WORKERS``)."""
    return _worker_count(default)


def percent(numerator: float, denominator: float) -> float:
    """A guarded percentage (0 denominator yields nan, matching blank cells)."""
    if denominator == 0:
        return float("nan")
    return 100.0 * numerator / denominator
