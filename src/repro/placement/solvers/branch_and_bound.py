"""0/1 branch-and-bound ILP solver built on the simplex LP relaxation.

Branching is restricted to the ``r`` (block-in-RAM) variables: as argued in
:mod:`repro.placement.ilp`, once every ``r`` is integral the auxiliary ``i``
and ``z`` variables are forced to integral values by their constraints and
objective signs.  Best-first search with LP lower bounds keeps the tree small
(the relaxation of this knapsack-like problem is mostly integral already).

Node relaxations are solved by the bounded revised simplex of
:mod:`repro.placement.solvers.lp`.  Branching *tightens a bound* (``r_b`` is
fixed by setting ``l = u``), which leaves the constraint matrix and
objective untouched.  Reduced costs depend only on those, so the parent's
optimal basis stays **dual-feasible** in both children and the dual simplex
re-optimises each child in a handful of pivots (see DESIGN.md,
"Warm-started placement ILP").  The root, and the children of a parent
whose basis is singular, are solved cold from the all-slack basis.  The
tests check the search against HiGHS (``scipy.optimize.milp``).

Children inherit ``max(child LP, parent bound)``: fixing one more variable
can only shrink the feasible region, so a child's true bound is at least the
parent's.  This keeps bounds monotone along every branch (LP round-off
cannot lower them), which both tightens pruning and makes the final
optimality check sound.  A child whose LP gives up (iteration limit or
numerical trouble) is kept as an *unresolved* open node at its parent's
bound: its subtree may hold the true optimum, so unless the incumbent prunes
that bound the solver reports ``"feasible"`` rather than claiming a proof.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.placement.ilp import ILPProblem
from repro.placement.solvers.lp import (
    LPResult,
    LPStatus,
    ScaledSystem,
    solve_bounded_lp,
)

_INTEGRALITY_TOL = 1e-6


@dataclass
class ILPResult:
    """Result of a branch-and-bound run."""

    status: str
    objective: float = float("inf")
    values: Optional[np.ndarray] = None
    nodes_explored: int = 0
    optimal: bool = False
    #: Total simplex pivots across every LP relaxation solved.
    lp_pivots: int = 0
    #: LP relaxations re-solved with the dual simplex from a parent basis.
    warm_solves: int = 0
    #: LP relaxations solved from scratch (the root and the children of a
    #: singular parent basis).
    cold_solves: int = 0
    #: Basis inversions: one per branched node (shared by its children)
    #: plus the LP engine's periodic refactorisations.
    factorizations: int = 0
    #: Children whose LP gave up; each forfeits the optimality proof unless
    #: the incumbent prunes its (parent) bound.
    unresolved_nodes: int = 0


def _fractional_branch_var(problem: ILPProblem, values: np.ndarray) -> Optional[int]:
    """Most fractional branch variable, or None if all are integral."""
    best_var = None
    best_distance = _INTEGRALITY_TOL
    for var in problem.branch_vars:
        fraction = abs(values[var] - round(values[var]))
        if fraction > best_distance:
            best_distance = fraction
            best_var = var
    return best_var


class _NodeSolver:
    """Solves node relaxations, warm-starting each child from its parent.

    The scaled constraint system is built once per ILP, and a branched
    node's basis is inverted once (:meth:`factorize`) for both children.
    """

    def __init__(self, problem: ILPProblem):
        self.problem = problem
        self.system = ScaledSystem(problem.objective, problem.a_ub,
                                   problem.b_ub)
        self.lp_pivots = 0
        self.warm_solves = 0
        self.cold_solves = 0
        self.factorizations = 0

    def factorize(self, parent: LPResult) -> Optional[np.ndarray]:
        """The inverse of *parent*'s basis, shared by all its children.

        ``None`` means the children solve cold: the parent has no basis, or
        its basis is singular.
        """
        if parent.basis is None:
            return None
        self.factorizations += 1
        try:
            return self.system.invert(parent.basis)
        except np.linalg.LinAlgError:
            return None

    def solve(self, fixed: Dict[int, float],
              parent: Optional[LPResult] = None,
              binv: Optional[np.ndarray] = None) -> LPResult:
        """Solve the node that fixes *fixed*; warm from *parent* when *binv*
        (from :meth:`factorize`) is given, cold otherwise."""
        lower = self.problem.lower.copy()
        upper = self.problem.upper.copy()
        for var, value in fixed.items():
            lower[var] = value
            upper[var] = value
        if binv is not None:
            self.warm_solves += 1
            result = solve_bounded_lp(self.problem.objective, self.problem.a_ub,
                                      self.problem.b_ub, lower=lower,
                                      upper=upper, basis=parent.basis,
                                      at_upper=parent.at_upper,
                                      system=self.system, binv=binv.copy())
        else:
            self.cold_solves += 1
            result = solve_bounded_lp(self.problem.objective, self.problem.a_ub,
                                      self.problem.b_ub, lower=lower,
                                      upper=upper, system=self.system)
        self.lp_pivots += result.iterations
        self.factorizations += result.factorizations
        return result

    def stats_into(self, result: ILPResult) -> None:
        """Copy the solve counters onto *result*."""
        result.lp_pivots = self.lp_pivots
        result.warm_solves = self.warm_solves
        result.cold_solves = self.cold_solves
        result.factorizations = self.factorizations


def solve_ilp(problem: ILPProblem, max_nodes: int = 400,
              gap_tolerance: float = 1e-9) -> ILPResult:
    """Solve the placement ILP with best-first branch and bound."""
    counter = itertools.count()
    solver = _NodeSolver(problem)
    root = solver.solve({})
    result = ILPResult(status="infeasible")
    if root.status is not LPStatus.OPTIMAL:
        result.status = root.status.value
        solver.stats_into(result)
        return result

    best_objective = float("inf")
    best_values: Optional[np.ndarray] = None
    heap = [(root.objective, next(counter), {}, root)]
    unresolved_bounds: List[float] = []
    nodes = 0

    while heap and nodes < max_nodes:
        bound, _, fixed, relaxation = heapq.heappop(heap)
        if bound >= best_objective - gap_tolerance:
            continue
        nodes += 1
        branch_var = _fractional_branch_var(problem, relaxation.values)
        if branch_var is None:
            # Snap the integral relaxation onto the exact 0/1 lattice before
            # keeping it: raw LP values carry ±epsilon noise that would
            # otherwise leak through ``solution_to_ram_set`` and into
            # downstream integrality checks.
            rounded = np.clip(np.round(relaxation.values), 0.0, 1.0)
            if relaxation.objective < best_objective:
                best_objective = relaxation.objective
                best_values = rounded
            continue
        binv = solver.factorize(relaxation)
        for value in (1.0, 0.0):
            child_fixed: Dict[int, float] = dict(fixed)
            child_fixed[branch_var] = value
            child = solver.solve(child_fixed, relaxation, binv)
            if child.status is LPStatus.INFEASIBLE:
                continue
            if child.status is not LPStatus.OPTIMAL:
                # The LP gave up (iteration limit / numerical trouble).  The
                # subtree may still hold the true optimum, so it must not be
                # discarded like an infeasible child: remember it as an open
                # node at the parent's bound and let the final check decide
                # whether the incumbent's optimality proof survives.
                unresolved_bounds.append(bound)
                continue
            # Warm-start the child's bound from the parent: the child's
            # feasible region is a subset of the parent's, so its true bound
            # can never be below the parent's even when the LP says so.
            child_bound = max(child.objective, bound)
            if child_bound >= best_objective - gap_tolerance:
                continue
            heapq.heappush(heap, (child_bound, next(counter), child_fixed, child))

    solver.stats_into(result)
    result.unresolved_nodes = len(unresolved_bounds)

    if best_values is None:
        # Fall back to a rounded root solution if the node budget ran out
        # before any integral point was found.
        if root.values is not None:
            rounded = {var: float(round(root.values[var]))
                       for var in problem.branch_vars}
            repaired = solver.solve(rounded, root, solver.factorize(root))
            solver.stats_into(result)
            if repaired.status is LPStatus.OPTIMAL:
                result.status = "feasible"
                result.objective = repaired.objective
                result.values = repaired.values
                result.nodes_explored = nodes
                return result
        # With unresolved subtrees the problem may still be feasible — only
        # claim infeasibility when every branch was genuinely closed.
        result.status = "unresolved" if unresolved_bounds else "infeasible"
        result.nodes_explored = nodes
        return result

    # The incumbent is proven optimal when no open node could still beat it:
    # the heap is bound-ordered, so checking its minimum covers every node,
    # and every unresolved child must be prunable by its parent's bound.
    # (Running out of the node budget alone does not forfeit the proof.)
    proven = not heap or heap[0][0] >= best_objective - gap_tolerance
    proven = proven and all(open_bound >= best_objective - gap_tolerance
                            for open_bound in unresolved_bounds)
    result.status = "optimal" if proven else "feasible"
    result.optimal = result.status == "optimal"
    result.objective = best_objective
    result.values = best_values
    result.nodes_explored = nodes
    return result
