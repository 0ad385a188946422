"""LP engine for the placement relaxations.

:func:`solve_bounded_lp` is a bounded-variable **revised simplex** (primal
and dual) that handles ``l <= x <= u`` natively, exposes its final basis,
and can be warm-started from a caller-supplied basis.  This is the
branch-and-bound hot path: fixing a binary variable is a *bound change*,
which leaves the parent's optimal basis dual-feasible, so the dual simplex
re-optimises a child node in a handful of pivots instead of a full cold
solve.

:func:`solve_lp` is the public convenience entry point: it accepts optional
bounds and a ``fixed`` map (branching by variable fixing) and calls the
bounded engine.  GLPK (used by the paper) is replaced by this
self-contained implementation; the tests check it against HiGHS
(``scipy.optimize.linprog`` and ``milp``) as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Optional

import numpy as np

_EPS = 1e-9
_PIVOT_TOL = 1e-7         # minimum acceptable pivot magnitude
_FEAS_TOL = 1e-7          # relative primal-feasibility tolerance
_MAX_ITERATIONS = 20_000
_BLAND_STREAK = 40        # degenerate pivots before switching to Bland's rule
_REFACTOR_EVERY = 100     # pivots between basis-inverse refactorisations


class LPStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"


@dataclass
class LPResult:
    status: LPStatus
    objective: float = float("inf")
    values: Optional[np.ndarray] = None
    #: Basic column per row over the full (structural + slack) column space.
    #: This is the warm-start token for :func:`solve_bounded_lp`; results
    #: that are not optimal leave it ``None``.
    basis: Optional[np.ndarray] = None
    #: Nonbasic-at-upper-bound flags over the full column space (the other
    #: half of the warm-start token).
    at_upper: Optional[np.ndarray] = None
    #: Simplex pivots spent producing this result.
    iterations: int = 0
    #: Basis inversions spent producing this result (a warm start's own
    #: inversion and the periodic refactorisations).
    factorizations: int = 0


# =========================================================================== #
# Bounded-variable revised simplex
# =========================================================================== #
class ScaledSystem:
    """The node-invariant part of one bounded LP, built once and shared.

    Holds the row-equilibrated matrix ``W = [A/‖A‖ | I]`` (every row of
    ``A`` and its RHS divided by the row's inf-norm, so byte-sized McCormick
    rows next to cycle-count execution-time rows pivot stably), the scaled
    right-hand side, and the unit-scale objective padded with zero slack
    costs.  Branch and bound only edits variable bounds, so every node of
    one ILP shares one system.  Structural variable values are unaffected by
    the scaling; only slack values are rescaled, and those are never
    reported.
    """

    def __init__(self, c: np.ndarray, a_ub: np.ndarray, b_ub: np.ndarray):
        c = np.asarray(c, dtype=float)
        n = c.shape[0]
        a_ub = np.asarray(a_ub, dtype=float)
        if a_ub.size == 0:
            a_ub = np.zeros((0, n))
        b_ub = np.asarray(b_ub, dtype=float).reshape(-1)
        m = a_ub.shape[0]
        self.m, self.n = m, n
        self.total = n + m
        if m:
            norms = np.maximum(np.abs(a_ub).max(axis=1), _EPS)
            self.W = np.hstack([a_ub / norms[:, None], np.eye(m)])
            self.b = b_ub / norms
        else:
            self.W = np.zeros((0, n))
            self.b = b_ub.astype(float)
        # Normalise the objective so reduced-cost tolerances are scale-free
        # (the placement objective lives at the ~1e-9 J scale).
        cost_scale = float(np.max(np.abs(c))) if c.size else 0.0
        scaled_c = c / cost_scale if cost_scale > 0 else c
        self.c = np.concatenate([scaled_c, np.zeros(m)])

    def invert(self, basis: np.ndarray) -> np.ndarray:
        """``inv(W[:, basis])``; raises ``LinAlgError`` if it is singular."""
        return np.linalg.inv(self.W[:, basis])


class _BoundedSimplex:
    """Revised simplex over ``min c.x  s.t.  A x + s = b, l <= x <= u, s >= 0``.

    Columns ``0..n-1`` are the structural variables, ``n..n+m-1`` the row
    slacks.  Nonbasic variables sit at one of their (finite) bounds; the
    ``at_upper`` flag records which.  The basis inverse is maintained by
    product-form updates and refactorised every :data:`_REFACTOR_EVERY`
    pivots.
    """

    def __init__(self, system: ScaledSystem, lower: np.ndarray,
                 upper: np.ndarray):
        m, n = system.m, system.n
        self.system = system
        self.m, self.n = m, n
        self.total = system.total
        self.W = system.W
        self.b = system.b
        self.c = system.c
        self.lower = np.concatenate([lower, np.zeros(m)])
        self.upper = np.concatenate([upper, np.full(m, np.inf)])
        self.basis = np.arange(n, self.total, dtype=int)
        self.in_basis = np.zeros(self.total, dtype=bool)
        self.in_basis[self.basis] = True
        self.at_upper = np.zeros(self.total, dtype=bool)
        self.Binv = np.eye(m)
        self.iterations = 0
        #: Basis inversions performed by this engine (warm loads and
        #: periodic refactorisations).
        self.factorizations = 0

    # ------------------------------------------------------------------ #
    # Basis management
    # ------------------------------------------------------------------ #
    def slack_basis(self) -> None:
        """All-slack basis; nonbasic columns at the bound their cost prefers.

        Putting every negative-cost column at its (finite) upper bound makes
        the starting point dual-feasible whenever such bounds exist, so the
        dual simplex alone completes the cold solve.
        """
        self.basis = np.arange(self.n, self.total, dtype=int)
        self.in_basis[:] = False
        self.in_basis[self.basis] = True
        self.at_upper = (self.c < 0.0) & np.isfinite(self.upper)
        self.at_upper[self.in_basis] = False
        self.Binv = np.eye(self.m)

    def load_basis(self, basis: np.ndarray, at_upper: np.ndarray,
                   binv: Optional[np.ndarray] = None) -> None:
        """Adopt a caller-supplied basis (raises ``LinAlgError`` if singular).

        ``binv``, when given, is ``inv(W[:, basis])`` computed by the caller
        (see :meth:`ScaledSystem.invert`); the engine takes ownership of it
        and updates it in place.
        """
        basis = np.asarray(basis, dtype=int)
        if basis.shape != (self.m,):
            raise ValueError("warm-start basis has the wrong number of rows")
        if binv is None:
            self.factorizations += 1
            binv = self.system.invert(basis)
        self.Binv = binv
        self.basis = basis.copy()
        self.in_basis = np.zeros(self.total, dtype=bool)
        self.in_basis[self.basis] = True
        self.at_upper = np.asarray(at_upper, dtype=bool).copy()
        # A flag can become stale when bounds were edited since it was saved
        # (e.g. an upper bound relaxed to infinity): snap it back to "lower".
        self.at_upper &= np.isfinite(self.upper)
        self.at_upper[self.in_basis] = False

    def _refactor(self) -> None:
        self.factorizations += 1
        self.Binv = self.system.invert(self.basis)

    def _update_basis(self, row: int, col: int, alpha: np.ndarray) -> int:
        """Pivot ``col`` into the basis at ``row``; returns the leaving column."""
        leaving = int(self.basis[row])
        self.in_basis[leaving] = False
        self.basis[row] = col
        self.in_basis[col] = True
        self.at_upper[col] = False
        # Rank-1 update in place: every row loses alpha_i times the new pivot
        # row, then the pivot row itself is restored.
        pivot_row = self.Binv[row] / alpha[row]
        self.Binv -= np.outer(alpha, pivot_row)
        self.Binv[row] = pivot_row
        self.iterations += 1
        if self.iterations % _REFACTOR_EVERY == 0:
            self._refactor()
        return leaving

    # ------------------------------------------------------------------ #
    # State
    # ------------------------------------------------------------------ #
    def _nonbasic_values(self) -> np.ndarray:
        values = np.where(self.at_upper, self.upper, self.lower)
        values[self.basis] = 0.0
        return values

    def _basic_values(self, nonbasic: np.ndarray) -> np.ndarray:
        if self.m == 0:
            return np.zeros(0)
        return self.Binv @ (self.b - self.W @ nonbasic)

    def solution(self) -> np.ndarray:
        x = self._nonbasic_values()
        x[self.basis] = self._basic_values(x)
        return x

    def _reduced_costs(self, costs: np.ndarray) -> np.ndarray:
        if self.m == 0:
            return costs.copy()
        y = costs[self.basis] @ self.Binv
        d = costs - y @ self.W
        d[self.basis] = 0.0
        return d

    def _movable(self) -> np.ndarray:
        """Nonbasic columns that are not fixed (``l < u``)."""
        return ~self.in_basis & (self.upper - self.lower > _EPS)

    # ------------------------------------------------------------------ #
    # Primal simplex (needs a primal-feasible basis)
    # ------------------------------------------------------------------ #
    def primal(self, costs: np.ndarray, max_iterations: int) -> LPStatus:
        streak, bland = 0, False
        for _ in range(max_iterations):
            d = self._reduced_costs(costs)
            movable = self._movable()
            improvement = np.zeros(self.total)
            at_low = movable & ~self.at_upper
            at_up = movable & self.at_upper
            improvement[at_low] = -d[at_low]
            improvement[at_up] = d[at_up]
            candidates = np.where(improvement > _EPS)[0]
            if candidates.size == 0:
                return LPStatus.OPTIMAL
            if bland:
                entering = int(candidates[0])
            else:
                entering = int(candidates[np.argmax(improvement[candidates])])

            alpha = self.Binv @ self.W[:, entering] if self.m else np.zeros(0)
            direction = -1.0 if self.at_upper[entering] else 1.0
            delta = -direction * alpha          # change of x_B per unit step
            nonbasic = self._nonbasic_values()
            basic = self._basic_values(nonbasic)
            lower_b = self.lower[self.basis]
            upper_b = self.upper[self.basis]
            steps = np.full(self.m, np.inf)
            shrink = delta < -_PIVOT_TOL
            steps[shrink] = (basic[shrink] - lower_b[shrink]) / (-delta[shrink])
            grow = delta > _PIVOT_TOL
            steps[grow] = (upper_b[grow] - basic[grow]) / delta[grow]
            steps = np.maximum(steps, 0.0)
            basic_step = float(steps.min()) if self.m else float("inf")
            flip_step = self.upper[entering] - self.lower[entering]

            if flip_step <= basic_step:
                if not np.isfinite(flip_step):
                    return LPStatus.UNBOUNDED
                # Bound flip: the entering column runs to its other bound
                # before any basic variable blocks it.
                self.at_upper[entering] = ~self.at_upper[entering]
                self.iterations += 1
                streak, bland = 0, False
                continue

            near = np.where(steps <= basic_step + _EPS * (1.0 + basic_step))[0]
            if bland:
                row = int(min(near, key=lambda i: self.basis[i]))
            else:
                row = int(near[np.argmax(np.abs(delta[near]))])
            hit_upper = delta[row] > 0
            leaving = self._update_basis(row, entering, alpha)
            self.at_upper[leaving] = bool(hit_upper)
            if basic_step <= _EPS:
                streak += 1
                if streak >= _BLAND_STREAK:
                    bland = True
            else:
                streak, bland = 0, False
        return LPStatus.ITERATION_LIMIT

    # ------------------------------------------------------------------ #
    # Dual simplex (needs a dual-feasible basis)
    # ------------------------------------------------------------------ #
    def dual(self, costs: np.ndarray, max_iterations: int) -> LPStatus:
        streak, bland = 0, False
        for _ in range(max_iterations):
            if self.m == 0:
                return LPStatus.OPTIMAL
            nonbasic = self._nonbasic_values()
            basic = self._basic_values(nonbasic)
            lower_b = self.lower[self.basis]
            upper_b = self.upper[self.basis]
            tolerance = _FEAS_TOL * np.maximum(1.0, np.abs(basic))
            below = lower_b - basic
            above = basic - upper_b
            infeasibility = np.maximum(below, above)
            violated = np.where(infeasibility > tolerance)[0]
            if violated.size == 0:
                return LPStatus.OPTIMAL
            if bland:
                row = int(min(violated, key=lambda i: self.basis[i]))
            else:
                row = int(violated[np.argmax(infeasibility[violated])])

            arow = self.Binv[row] @ self.W
            if below[row] > above[row]:
                effective = -arow               # basic value must increase
                leaving_at_upper = False
            else:
                effective = arow                # basic value must decrease
                leaving_at_upper = True
            d = self._reduced_costs(costs)
            movable = self._movable()
            eligible = movable & (
                (~self.at_upper & (effective > _PIVOT_TOL))
                | (self.at_upper & (effective < -_PIVOT_TOL)))
            candidates = np.where(eligible)[0]
            if candidates.size == 0:
                # The violated row cannot be repaired: dual unbounded, i.e.
                # the primal problem is infeasible.
                return LPStatus.INFEASIBLE
            ratios = np.maximum(d[candidates] / effective[candidates], 0.0)
            best = float(ratios.min())
            near = candidates[ratios <= best + _EPS * (1.0 + best)]
            if bland:
                entering = int(near.min())
            else:
                entering = int(near[np.argmax(np.abs(effective[near]))])

            alpha = self.Binv @ self.W[:, entering]
            leaving = self._update_basis(row, entering, alpha)
            self.at_upper[leaving] = leaving_at_upper
            if best <= _EPS:
                streak += 1
                if streak >= _BLAND_STREAK:
                    bland = True
            else:
                streak, bland = 0, False
        return LPStatus.ITERATION_LIMIT


def solve_bounded_lp(c: np.ndarray, a_ub: np.ndarray, b_ub: np.ndarray,
                     lower: Optional[np.ndarray] = None,
                     upper: Optional[np.ndarray] = None,
                     basis: Optional[np.ndarray] = None,
                     at_upper: Optional[np.ndarray] = None,
                     max_iterations: int = _MAX_ITERATIONS, *,
                     system: Optional[ScaledSystem] = None,
                     binv: Optional[np.ndarray] = None) -> LPResult:
    """Solve ``min c.x`` s.t. ``a_ub x <= b_ub`` and ``lower <= x <= upper``.

    With ``basis``/``at_upper`` from a previous :class:`LPResult` the solve is
    warm-started with the dual simplex — sound whenever only *bounds* changed
    since that basis was optimal, because reduced costs (and hence dual
    feasibility) depend only on ``c`` and ``A``.  A singular ``basis`` falls
    back to a cold start.  Cold solves start from the all-slack basis: dual
    simplex directly when every negative-cost column has a finite upper
    bound, otherwise a feasibility-only dual phase followed by the primal
    simplex.

    Callers that solve many LPs over one ``(c, a_ub, b_ub)`` — branch and
    bound — pass the prebuilt ``system`` (a :class:`ScaledSystem` of exactly
    those arrays) and, for a warm start, ``binv = system.invert(basis)``,
    which this solve then owns and updates in place.  Both only skip work:
    the result is bitwise the same as without them.
    """
    if system is None:
        system = ScaledSystem(c, a_ub, b_ub)
    c = np.asarray(c, dtype=float)
    n = system.n
    lower = np.zeros(n) if lower is None else np.asarray(lower, dtype=float).copy()
    upper = (np.full(n, np.inf) if upper is None
             else np.asarray(upper, dtype=float).copy())
    if not np.all(np.isfinite(lower)):
        raise ValueError("lower bounds must be finite")
    if np.any(lower > upper + _EPS):
        return LPResult(LPStatus.INFEASIBLE)
    upper = np.maximum(upper, lower)

    engine = _BoundedSimplex(system, lower, upper)
    costs = engine.c

    if basis is not None:
        try:
            engine.load_basis(basis, at_upper if at_upper is not None
                              else np.zeros(engine.total, dtype=bool), binv)
        except np.linalg.LinAlgError:
            basis = None
    if basis is not None:
        status = engine.dual(costs, max_iterations)
    else:
        engine.slack_basis()
        if np.any((costs < -_EPS) & ~np.isfinite(engine.upper)):
            # No dual-feasible starting point exists with these bounds: run a
            # feasibility-only dual pass (zero costs keep every basis
            # dual-feasible), then optimise with the primal simplex.
            status = engine.dual(np.zeros_like(costs), max_iterations)
            if status is LPStatus.OPTIMAL:
                remaining = max(max_iterations - engine.iterations, 1)
                status = engine.primal(costs, remaining)
        else:
            status = engine.dual(costs, max_iterations)

    if status is not LPStatus.OPTIMAL:
        return LPResult(status, iterations=engine.iterations,
                        factorizations=engine.factorizations)
    x = engine.solution()
    values = np.clip(x[:n], lower, upper)
    return LPResult(LPStatus.OPTIMAL, objective=float(c @ values), values=values,
                    basis=engine.basis.copy(), at_upper=engine.at_upper.copy(),
                    iterations=engine.iterations,
                    factorizations=engine.factorizations)


def solve_lp(c: np.ndarray, a_ub: np.ndarray, b_ub: np.ndarray,
             fixed: Optional[Dict[int, float]] = None,
             lower: Optional[np.ndarray] = None,
             upper: Optional[np.ndarray] = None) -> LPResult:
    """Solve ``min c.x`` s.t. ``a_ub x <= b_ub``, ``x >= 0`` (default bounds).

    ``fixed`` maps variable indices to forced values (used by branch and
    bound); fixing is implemented as the bound pair ``l_j = u_j = value``,
    so fixed columns stay in the matrix and basis indices remain stable.
    """
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    lower = np.zeros(n) if lower is None else np.asarray(lower, dtype=float).copy()
    upper = (np.full(n, np.inf) if upper is None
             else np.asarray(upper, dtype=float).copy())
    for index, value in (fixed or {}).items():
        lower[index] = value
        upper[index] = value
    return solve_bounded_lp(c, a_ub, b_ub, lower=lower, upper=upper)
