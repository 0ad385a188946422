"""Solvers for the placement problem: LP/ILP from scratch, greedy, exhaustive."""

from repro.placement.solvers.lp import (
    solve_lp,
    solve_bounded_lp,
    LPResult,
    LPStatus,
)
from repro.placement.solvers.branch_and_bound import solve_ilp, ILPResult
from repro.placement.solvers.greedy import greedy_placement
from repro.placement.solvers.exhaustive import (
    enumerate_placements,
    exhaustive_best_placement,
)

__all__ = [
    "solve_lp",
    "solve_bounded_lp",
    "LPResult",
    "LPStatus",
    "solve_ilp",
    "ILPResult",
    "greedy_placement",
    "enumerate_placements",
    "exhaustive_best_placement",
]
