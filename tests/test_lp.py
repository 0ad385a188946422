"""Tests for the LP engine and branch and bound, with HiGHS as the oracle.

The bounded-variable engine (`solve_bounded_lp`) is fuzzed against HiGHS
(`scipy.optimize.linprog`) on randomly generated problems, its dual-simplex
warm start is checked to agree with cold solves after bound tightenings,
and branch and bound (`solve_ilp`) is checked against HiGHS
(`scipy.optimize.milp`) on generated 0/1 ILPs and on the placement
regression corpus, where it must also pick the same RAM sets with every
child solved cold.
"""

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from repro.codegen import CompileOptions, compile_source
from repro.placement import (
    FlashRAMOptimizer,
    PlacementConfig,
    PlacementCostModel,
    build_placement_ilp,
    extract_parameters,
)
from repro.placement.ilp import ILPProblem, solution_to_ram_set
from repro.placement.parameters import BlockParameters
from repro.placement.solvers.branch_and_bound import ILPResult, solve_ilp
from repro.placement.solvers.lp import (
    LPResult,
    LPStatus,
    solve_bounded_lp,
    solve_lp,
)
from repro.sim import EnergyModel

LOOP_SOURCE = """
int data[32];
int main(void) {
    for (int i = 0; i < 32; ++i) { data[i] = i; }
    int total = 0;
    for (int round = 0; round < 20; ++round) {
        for (int i = 0; i < 32; ++i) {
            total += data[i] * round;
        }
        if (total > 100000) { total -= 100000; }
    }
    return total;
}
"""


def make_model():
    program = compile_source(LOOP_SOURCE, CompileOptions.for_level("O2"))
    params = extract_parameters(program)
    energy = EnergyModel()
    return PlacementCostModel(params, energy.e_flash, energy.e_ram)


#: ``scipy.optimize`` HiGHS status codes for the outcomes both solvers report.
HIGHS_LP_STATUS = {0: LPStatus.OPTIMAL, 2: LPStatus.INFEASIBLE,
                   3: LPStatus.UNBOUNDED}
HIGHS_ILP_STATUS = {0: "optimal", 2: "infeasible"}


def unit_scale(c):
    """*c* divided by ``max|c|``.

    HiGHS's default tolerances treat the ~1e-9 J placement objective as
    zero, so it is only a sound oracle on the scaled objective.
    """
    scale = float(np.max(np.abs(c))) if c.size else 0.0
    return c / scale if scale > 0 else c


def highs_milp(problem: ILPProblem):
    """HiGHS on *problem*: its branch variables integral, the rest continuous."""
    integrality = np.zeros(problem.num_vars)
    integrality[problem.branch_vars] = 1
    return milp(unit_scale(problem.objective),
                constraints=LinearConstraint(problem.a_ub, -np.inf,
                                             problem.b_ub),
                integrality=integrality,
                bounds=Bounds(problem.lower, problem.upper))


def solve_ilp_cold(problem: ILPProblem, monkeypatch) -> ILPResult:
    """:func:`solve_ilp` with every node solved cold, as after a singular
    parent basis."""
    import repro.placement.solvers.branch_and_bound as bb
    with monkeypatch.context() as patch:
        patch.setattr(bb._NodeSolver, "factorize", lambda self, parent: None)
        return solve_ilp(problem)


def random_binary_ilps(count: int = 200):
    """The bounded-engine fuzz generator lifted to 0/1 ILPs: every variable
    is binary and branchable."""
    rng = np.random.default_rng(2024)
    for _ in range(count):
        n = int(rng.integers(2, 8))
        m = int(rng.integers(1, 10))
        c = rng.normal(size=n) * 10.0 ** float(rng.integers(-3, 3))
        a = rng.normal(size=(m, n))
        b = rng.normal(size=m) + 0.5
        yield ILPProblem(objective=c, constant=0.0, a_ub=a, b_ub=b,
                         var_names=[f"x{j}" for j in range(n)],
                         branch_vars=list(range(n)),
                         lower=np.zeros(n), upper=np.ones(n))


# --------------------------------------------------------------------------- #
# Bounded engine vs HiGHS (fuzz)
# --------------------------------------------------------------------------- #
def test_bounded_engine_matches_highs_on_random_problems():
    rng = np.random.default_rng(2024)
    agreements = 0
    for trial in range(200):
        n = int(rng.integers(2, 8))
        m = int(rng.integers(1, 10))
        c = rng.normal(size=n) * 10.0 ** float(rng.integers(-3, 3))
        a = rng.normal(size=(m, n))
        b = rng.normal(size=m) + 0.5
        upper = np.where(rng.random(n) < 0.6,
                         rng.uniform(0.3, 4.0, size=n), np.inf)
        lower = np.where(rng.random(n) < 0.3,
                         rng.uniform(0.0, 0.25, size=n), 0.0)
        lower = np.minimum(lower, upper)
        if rng.random() < 0.3:  # occasionally fix a variable (branching shape)
            j = int(rng.integers(n))
            lower[j] = upper[j] = float(np.clip(rng.uniform(0, 1),
                                                lower[j], upper[j]))
        mine = solve_bounded_lp(c, a, b, lower=lower, upper=upper)
        oracle = linprog(unit_scale(c), A_ub=a, b_ub=b,
                         bounds=np.column_stack([lower, upper]),
                         method="highs")
        assert oracle.status in HIGHS_LP_STATUS, (trial, oracle.message)
        assert mine.status is HIGHS_LP_STATUS[oracle.status], trial
        if mine.status is LPStatus.OPTIMAL:
            agreements += 1
            reference = float(c @ oracle.x)
            assert mine.objective == pytest.approx(
                reference, abs=1e-6 * (1.0 + abs(reference))), trial
    assert agreements >= 80  # plenty of the random draws are feasible


def test_warm_start_agrees_with_cold_solve_after_bound_tightening():
    rng = np.random.default_rng(99)
    checked = warm_pivots = cold_pivots = 0
    for trial in range(120):
        n = int(rng.integers(3, 9))
        m = int(rng.integers(2, 10))
        c = rng.normal(size=n)
        a = rng.normal(size=(m, n))
        b = rng.normal(size=m) + 1.0
        upper = rng.uniform(0.5, 3.0, size=n)
        parent = solve_bounded_lp(c, a, b, upper=upper)
        if parent.status is not LPStatus.OPTIMAL:
            continue
        assert parent.basis is not None and parent.at_upper is not None
        j = int(rng.integers(n))
        lower = np.zeros(n)
        tight_upper = upper.copy()
        lower[j] = tight_upper[j] = 0.0 if rng.random() < 0.5 else upper[j]
        warm = solve_bounded_lp(c, a, b, lower=lower, upper=tight_upper,
                                basis=parent.basis, at_upper=parent.at_upper)
        cold = solve_bounded_lp(c, a, b, lower=lower, upper=tight_upper)
        assert warm.status is cold.status, trial
        if warm.status is LPStatus.OPTIMAL:
            checked += 1
            warm_pivots += warm.iterations
            cold_pivots += cold.iterations
            assert warm.objective == pytest.approx(
                cold.objective, abs=1e-6 * (1.0 + abs(cold.objective))), trial
    assert checked >= 60
    # The whole point of the warm start: far fewer pivots than a cold solve.
    assert warm_pivots < cold_pivots


def test_bounded_engine_solves_textbook_problem_with_native_bounds():
    # min -3x - 5y  s.t.  3x + 2y <= 18,  0 <= x <= 4,  0 <= y <= 6.
    c = np.array([-3.0, -5.0])
    a = np.array([[3.0, 2.0]])
    b = np.array([18.0])
    result = solve_bounded_lp(c, a, b, upper=np.array([4.0, 6.0]))
    assert result.status is LPStatus.OPTIMAL
    assert result.objective == pytest.approx(-36.0)
    assert result.values[0] == pytest.approx(2.0)
    assert result.values[1] == pytest.approx(6.0)
    assert result.basis is not None and result.basis.shape == (1,)


def test_solve_lp_fixed_via_bounds_matches_historical_behaviour():
    c = np.array([1.0, 1.0])
    a = np.array([[1.0, 1.0]])
    b = np.array([1.0])
    assert solve_lp(c, a, b, fixed={0: 1.0, 1: 1.0}).status is LPStatus.INFEASIBLE
    partial = solve_lp(c, a, b, fixed={0: 0.25})
    assert partial.status is LPStatus.OPTIMAL
    assert partial.values[0] == pytest.approx(0.25)


def test_bounded_engine_reports_iteration_limit():
    rng = np.random.default_rng(1)
    c = rng.normal(size=12)
    a = rng.normal(size=(18, 12))
    b = rng.normal(size=18) + 1.0
    limited = solve_bounded_lp(c, a, b, upper=np.full(12, 2.0),
                               max_iterations=1)
    assert limited.status is LPStatus.ITERATION_LIMIT


def test_degenerate_cycling_problem_terminates_optimal():
    # Beale's classic cycling example: Dantzig pricing with naive tie-breaks
    # cycles forever in exact arithmetic; the degenerate-streak Bland
    # fallback must terminate at the optimum -1/20.
    c = np.array([-0.75, 150.0, -0.02, 6.0])
    a = np.array([
        [0.25, -60.0, -0.04, 9.0],
        [0.5, -90.0, -0.02, 3.0],
        [0.0, 0.0, 1.0, 0.0],
    ])
    b = np.array([0.0, 0.0, 1.0])
    bounded = solve_bounded_lp(c, a, b)
    assert bounded.status is LPStatus.OPTIMAL
    assert bounded.objective == pytest.approx(-0.05)


def test_bounded_engine_exact_on_duplicated_constraints():
    # Duplicated >= rows make the constraint system redundant (a singular
    # row space).  min x0 + 2 x1 s.t. x0 + x1 >= 2 (three copies),
    # x0 <= 1.5: the optimum sits at x = (1.5, 0.5), objective 2.5.
    c = np.array([1.0, 2.0])
    a = np.array([
        [-1.0, -1.0],
        [-1.0, -1.0],
        [-1.0, -1.0],
        [1.0, 0.0],
    ])
    b = np.array([-2.0, -2.0, -2.0, 1.5])
    bounded = solve_bounded_lp(c, a, b)
    assert bounded.status is LPStatus.OPTIMAL
    assert bounded.objective == pytest.approx(2.5)
    assert bounded.values == pytest.approx(np.array([1.5, 0.5]))


# --------------------------------------------------------------------------- #
# Branch and bound vs HiGHS, warm and cold
# --------------------------------------------------------------------------- #
def test_warm_and_cold_ilp_pick_identical_ram_sets_on_regression_corpus(
        monkeypatch):
    model = make_model()
    for r_spare, x_limit in [(64, 1.1), (256, 1.3), (4096, 2.0)]:
        problem = build_placement_ilp(model, r_spare, x_limit)
        warm = solve_ilp(problem)
        cold = solve_ilp_cold(problem, monkeypatch)
        oracle = highs_milp(problem)
        assert warm.status == cold.status == HIGHS_ILP_STATUS[oracle.status], (
            r_spare, x_limit)
        assert cold.values is not None and warm.values is not None
        warm_ram = set(solution_to_ram_set(problem, warm.values))
        assert warm_ram == set(solution_to_ram_set(problem, oracle.x)), (
            r_spare, x_limit)
        assert warm_ram == set(solution_to_ram_set(problem, cold.values)), (
            r_spare, x_limit)
        assert warm.warm_solves + warm.cold_solves > 0
        assert cold.warm_solves == 0  # the cold arm never warm-starts
        # Both arms report real pivot work through the stats plumbing.
        assert cold.lp_pivots > 0 and warm.lp_pivots > 0


@pytest.mark.parametrize("kernel", ["crc32", "fdct"])
def test_warm_and_cold_ilp_agree_on_beebs_kernels(monkeypatch, kernel):
    from repro.engine import default_cache
    program = default_cache().get_benchmark_mutable(kernel, "O2")
    optimizer = FlashRAMOptimizer(program, config=PlacementConfig())
    model = optimizer.build_cost_model()
    r_spare = optimizer.derive_r_spare()
    for x_limit in (1.1, 1.5):
        problem = build_placement_ilp(model, r_spare, x_limit)
        warm = solve_ilp(problem)
        cold = solve_ilp_cold(problem, monkeypatch)
        oracle = highs_milp(problem)
        assert oracle.status == 0, (kernel, x_limit, oracle.message)
        assert warm.status == cold.status == "optimal", (kernel, x_limit)
        warm_ram = set(solution_to_ram_set(problem, warm.values))
        assert warm_ram == set(solution_to_ram_set(problem, oracle.x)), (
            kernel, x_limit)
        assert warm_ram == set(solution_to_ram_set(problem, cold.values)), (
            kernel, x_limit)


def test_ilp_matches_highs_on_random_binary_ilps():
    optimal = 0
    for trial, problem in enumerate(random_binary_ilps()):
        mine = solve_ilp(problem)
        oracle = highs_milp(problem)
        assert oracle.status in HIGHS_ILP_STATUS, (trial, oracle.message)
        assert mine.status == HIGHS_ILP_STATUS[oracle.status], trial
        if mine.status == "optimal":
            optimal += 1
            reference = np.round(oracle.x)
            assert np.array_equal(mine.values, reference), trial
            assert mine.objective == pytest.approx(
                float(problem.objective @ reference), rel=1e-9), trial
    assert optimal >= 80


def test_placement_ilp_carries_native_bounds_not_rows():
    model = make_model()
    problem = build_placement_ilp(model, r_spare=256, x_limit=1.3)
    assert problem.lower is not None and problem.upper is not None
    assert np.all(problem.upper == 1.0) and np.all(problem.lower == 0.0)
    # No constraint row is a plain single-variable upper bound any more.
    for row, rhs in zip(problem.a_ub, problem.b_ub):
        nonzero = np.nonzero(row)[0]
        assert not (nonzero.size == 1 and row[nonzero[0]] == 1.0
                    and rhs == 1.0), "bound row leaked into the matrix"


def test_library_successor_rows_are_deduplicated():
    # A block with several library successors historically emitted one
    # identical ``i_b >= r_b`` row per successor; they must collapse to one.
    params = {
        "f:a": BlockParameters("f:a", "f", "a", 10, 5, 1.0, 4, 4, 0,
                               ["lib:x", "lib:y", "lib:x"]),
        "lib:x": BlockParameters("lib:x", "lib", "x", 10, 5, 1.0, 4, 4, 0,
                                 [], library=True),
        "lib:y": BlockParameters("lib:y", "lib", "y", 10, 5, 1.0, 4, 4, 0,
                                 [], library=True),
    }
    model = PlacementCostModel(params, 2.0, 1.0)
    problem = build_placement_ilp(model, r_spare=64, x_limit=2.0)
    rows = {tuple(row) + (rhs,) for row, rhs in zip(problem.a_ub, problem.b_ub)}
    assert len(rows) == problem.a_ub.shape[0], "duplicate constraint rows"


def test_iteration_limited_child_forfeits_optimality_proof(monkeypatch):
    # min -2x0 - x1  s.t.  2x0 + 2x1 <= 3,  x binary: the optimum (1, 0)
    # lives in a "fix to 0" subtree.  If those children's LPs give up, the
    # solver must keep them as open nodes and report a modest "feasible" —
    # the historical behaviour skipped them like infeasible children and
    # claimed "optimal" for the wrong incumbent.
    problem = ILPProblem(
        objective=np.array([-2.0, -1.0]),
        constant=0.0,
        a_ub=np.array([[2.0, 2.0]]),
        b_ub=np.array([3.0]),
        var_names=["x0", "x1"],
        branch_vars=[0, 1],
        r_index={"x0": 0, "x1": 1},
        lower=np.zeros(2),
        upper=np.ones(2),
    )
    import repro.placement.solvers.branch_and_bound as bb
    real_solve = bb.solve_bounded_lp

    def flaky_solve(c, a_ub, b_ub, lower=None, upper=None, **kwargs):
        if upper[1] == 0.0:
            return LPResult(LPStatus.ITERATION_LIMIT)
        return real_solve(c, a_ub, b_ub, lower=lower, upper=upper, **kwargs)

    monkeypatch.setattr(bb, "solve_bounded_lp", flaky_solve)
    result = solve_ilp(problem)
    assert result.unresolved_nodes >= 1
    assert result.status == "feasible"
    assert not result.optimal
    # The reachable incumbent (0, 1) is *worse* than the optimum hidden in
    # the unresolved subtree — exactly why claiming "optimal" would be wrong.
    assert result.objective == pytest.approx(-1.0)
    # Without interference the same problem is solved to proven optimality.
    monkeypatch.setattr(bb, "solve_bounded_lp", real_solve)
    clean = solve_ilp(problem)
    assert clean.status == "optimal" and clean.objective == pytest.approx(-2.0)
    assert clean.unresolved_nodes == 0


def test_optimizer_reports_fallback_empty_when_solver_gives_up(monkeypatch):
    import repro.placement.optimizer as optimizer_module
    program = compile_source(LOOP_SOURCE, CompileOptions.for_level("O2"))
    optimizer = FlashRAMOptimizer(program)

    def give_up(problem, max_nodes=400, **kwargs):
        return ILPResult(status="iteration_limit")

    monkeypatch.setattr(optimizer_module, "solve_ilp", give_up)
    solution = optimizer.select_blocks()
    assert solution.solver_status == "fallback-empty:iteration_limit"
    assert solution.ram_blocks == set()
    # The empty placement is genuinely feasible: the estimate is the baseline.
    assert solution.estimate.energy_j == pytest.approx(solution.baseline_energy_j)


def test_optimizer_surfaces_solver_stats():
    program = compile_source(LOOP_SOURCE, CompileOptions.for_level("O2"))
    solution = FlashRAMOptimizer(program).select_blocks()
    stats = solution.solver_stats
    assert stats["nodes_explored"] >= 1
    assert stats["lp_pivots"] > 0
    assert stats["cold_solves"] >= 1
    # One inversion per branched node, shared by its (up to) two children.
    assert stats["factorizations"] >= stats["warm_solves"] // 2
    assert stats["unresolved_nodes"] == 0


# --------------------------------------------------------------------------- #
# Shared per-node factorisation: children == standalone warm solves, bitwise
# --------------------------------------------------------------------------- #
def assert_same_lp(shared: LPResult, alone: LPResult) -> None:
    assert shared.status is alone.status
    assert shared.iterations == alone.iterations
    assert float(shared.objective).hex() == float(alone.objective).hex()
    for field in ("values", "basis", "at_upper"):
        mine, theirs = getattr(shared, field), getattr(alone, field)
        assert (mine is None) == (theirs is None), field
        if mine is not None:
            assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes(), field


def check_children_against_standalone(monkeypatch, problem: ILPProblem):
    """Solve *problem*, re-solving every warm child standalone from its
    parent's basis; returns ``(result, children checked)``."""
    import repro.placement.solvers.branch_and_bound as bb
    real_solve = bb.solve_bounded_lp
    real_factorize = bb._NodeSolver.factorize
    shared, alone, factorized = [], [], []

    def checking_solve(c, a_ub, b_ub, lower=None, upper=None, basis=None,
                       at_upper=None, **kwargs):
        result = real_solve(c, a_ub, b_ub, lower=lower, upper=upper,
                            basis=basis, at_upper=at_upper, **kwargs)
        shared.append(result.factorizations)
        if kwargs.get("binv") is not None:
            standalone = real_solve(c, a_ub, b_ub, lower=lower, upper=upper,
                                    basis=basis, at_upper=at_upper)
            assert_same_lp(result, standalone)
            alone.append(standalone.factorizations - result.factorizations)
        return result

    def counting_factorize(self, parent):
        binv = real_factorize(self, parent)
        factorized.append(binv is not None)
        return binv

    monkeypatch.setattr(bb, "solve_bounded_lp", checking_solve)
    monkeypatch.setattr(bb._NodeSolver, "factorize", counting_factorize)
    result = solve_ilp(problem)
    monkeypatch.undo()
    assert result.warm_solves == len(alone)
    # Standalone, each child inverts its parent's basis once more than the
    # shared solve does; shared, a branched node inverts it once for both
    # of its children.
    assert alone == [1] * len(alone)
    assert result.factorizations == sum(shared) + len(factorized)
    # (The rounded-root repair after a fruitless search is a lone child.)
    assert all(factorized) and result.warm_solves <= 2 * len(factorized)
    return result, len(alone)


@pytest.mark.parametrize("kernel", ["crc32", "fdct", "int_matmult", "2dfir"])
def test_shared_factorisation_matches_standalone_children_on_beebs(
        monkeypatch, kernel):
    from repro.engine import default_cache
    program = default_cache().get_benchmark_mutable(kernel, "O2")
    optimizer = FlashRAMOptimizer(program, config=PlacementConfig())
    model = optimizer.build_cost_model()
    r_spare = optimizer.derive_r_spare()
    children = 0
    for x_limit in (1.02, 1.05, 1.1):
        problem = build_placement_ilp(model, r_spare, x_limit)
        result, checked = check_children_against_standalone(monkeypatch,
                                                            problem)
        assert result.status == "optimal", (kernel, x_limit)
        children += checked
    assert children >= 2  # at least one branched node per kernel


def test_shared_factorisation_matches_standalone_children_on_random_ilps(
        monkeypatch):
    children = 0
    for problem in random_binary_ilps():
        _, checked = check_children_against_standalone(monkeypatch, problem)
        children += checked
    assert children >= 100


def test_singular_parent_basis_counts_both_children_as_cold():
    from repro.placement.solvers.branch_and_bound import _NodeSolver
    model = make_model()
    problem = build_placement_ilp(model, r_spare=256, x_limit=1.3)
    solver = _NodeSolver(problem)
    root = solver.solve({})
    assert root.status is LPStatus.OPTIMAL
    # Two copies of one column make the parent basis singular.
    singular = root.basis.copy()
    singular[1] = singular[0]
    parent = LPResult(LPStatus.OPTIMAL, objective=root.objective,
                      values=root.values, basis=singular,
                      at_upper=root.at_upper)
    binv = solver.factorize(parent)
    assert binv is None
    var = problem.branch_vars[0]
    for value in (1.0, 0.0):
        child = solver.solve({var: value}, parent, binv)
        cold = solve_bounded_lp(problem.objective, problem.a_ub, problem.b_ub,
                                lower=np.where(np.arange(problem.num_vars) == var,
                                               value, problem.lower),
                                upper=np.where(np.arange(problem.num_vars) == var,
                                               value, problem.upper))
        assert_same_lp(child, cold)
    assert solver.warm_solves == 0
    assert solver.cold_solves == 3  # the root and both children
    assert solver.factorizations == 1  # the failed attempt is still counted
    # Handed the singular basis directly, the LP engine falls back to a cold
    # start too, and reports the attempted inversion.
    fallback = solve_bounded_lp(problem.objective, problem.a_ub, problem.b_ub,
                                lower=problem.lower, upper=problem.upper,
                                basis=singular, at_upper=root.at_upper)
    assert fallback.factorizations == 1
    assert_same_lp(fallback, solve_bounded_lp(
        problem.objective, problem.a_ub, problem.b_ub,
        lower=problem.lower, upper=problem.upper))
