"""Tests for the placement cost model, ILP solver stack and code transformation."""

import numpy as np
import pytest

from repro.codegen import CompileOptions, compile_source
from repro.machine.blocks import TerminatorKind
from repro.placement import (
    FlashRAMOptimizer,
    PlacementConfig,
    PlacementCostModel,
    build_placement_ilp,
    extract_parameters,
    optimize_program,
)
from repro.placement.ilp import solution_to_ram_set
from repro.placement.parameters import BlockParameters
from repro.placement.solvers import (
    enumerate_placements,
    exhaustive_best_placement,
    greedy_placement,
    solve_ilp,
    solve_lp,
)
from repro.placement.solvers.lp import LPStatus
from repro.sim import EnergyModel, Simulator
from repro.transform import apply_placement, figure4_cost_table, instrumentation_overhead

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


def compile_program(source=LOOP_SOURCE, level="O2"):
    return compile_source(source, CompileOptions.for_level(level))


def make_model(program=None, **kwargs):
    program = program or compile_program()
    params = extract_parameters(program, **kwargs)
    energy = EnergyModel()
    return PlacementCostModel(params, energy.e_flash, energy.e_ram)


# --------------------------------------------------------------------------- #
# Parameters (Section 4.1)
# --------------------------------------------------------------------------- #
def test_parameters_cover_every_block_and_are_positive():
    program = compile_program()
    params = extract_parameters(program)
    block_keys = {program.block_key(b) for b in program.iter_blocks()}
    assert set(params) == block_keys
    for p in params.values():
        assert p.size >= 0 and p.cycles >= 1 and p.frequency >= 0


def test_static_frequency_reflects_loop_nesting():
    program = compile_program()
    params = extract_parameters(program, loop_weight=10)
    freqs = [p.frequency for p in params.values()]
    assert max(freqs) >= 100  # the doubly nested loop body
    assert min(freqs) >= 0


def test_profile_frequency_matches_simulator_counts():
    program = compile_program()
    result = Simulator(program).run()
    params = extract_parameters(program, frequency_mode="profile",
                                profile=result.profile)
    hot_key, hot_count = result.profile.hottest(1)[0]
    assert params[hot_key].frequency == hot_count


def test_profile_mode_requires_profile():
    with pytest.raises(ValueError):
        extract_parameters(compile_program(), frequency_mode="profile")


def test_library_blocks_are_ineligible():
    source = """
        float f(float x) { return x * 2.0; }
        int main(void) { float y = f(3.0); return y; }
    """
    program = compile_program(source)
    params = extract_parameters(program)
    library = [p for p in params.values() if p.library]
    assert library, "soft-float library blocks should be present"
    assert all(not p.eligible for p in library)


# --------------------------------------------------------------------------- #
# Cost model (Equations 1-9)
# --------------------------------------------------------------------------- #
def test_empty_placement_matches_baseline():
    model = make_model()
    estimate = model.evaluate(set())
    assert estimate.energy_j == pytest.approx(model.baseline_energy())
    assert estimate.time_ratio == pytest.approx(1.0)
    assert estimate.ram_bytes == 0
    assert not estimate.instrumented


def test_moving_everything_eligible_reduces_energy_and_increases_time():
    model = make_model()
    everything = set(model.eligible_keys())
    estimate = model.evaluate(everything)
    assert estimate.energy_j < model.baseline_energy()
    assert estimate.time_ratio >= 1.0
    assert estimate.ram_bytes > 0


def test_instrumented_set_follows_equation5():
    params = {
        "f:a": BlockParameters("f:a", "f", "a", 10, 5, 1.0, 4, 4, 0, ["f:b"]),
        "f:b": BlockParameters("f:b", "f", "b", 10, 5, 1.0, 4, 4, 0, ["f:c"]),
        "f:c": BlockParameters("f:c", "f", "c", 10, 5, 1.0, 4, 4, 0, []),
    }
    model = PlacementCostModel(params, 2.0, 1.0)
    # b in RAM: a crosses into it, b crosses out of it, c has no successors.
    assert model.instrumented_set({"f:b"}) == {"f:a", "f:b"}
    # a and b both in RAM: only b (exits to flash c) is instrumented.
    assert model.instrumented_set({"f:a", "f:b"}) == {"f:b"}
    # everything in RAM: nothing crosses.
    assert model.instrumented_set({"f:a", "f:b", "f:c"}) == set()


def test_clustering_avoids_instrumenting_hot_loop():
    # A hot loop followed by a tiny join block: moving both is better than
    # moving only the loop because it removes the loop's instrumentation
    # (the paper's motivating observation).
    params = {
        "f:loop": BlockParameters("f:loop", "f", "loop", 40, 20, 1000.0, 6, 5, 0,
                                  ["f:loop", "f:join"]),
        "f:join": BlockParameters("f:join", "f", "join", 8, 3, 10.0, 2, 1, 0,
                                  ["f:exit"]),
        "f:exit": BlockParameters("f:exit", "f", "exit", 8, 3, 1.0, 0, 0, 0, []),
    }
    model = PlacementCostModel(params, 2.0, 1.0)
    only_loop = model.evaluate({"f:loop"})
    loop_and_join = model.evaluate({"f:loop", "f:join"})
    assert loop_and_join.energy_j < only_loop.energy_j


def test_ram_usage_includes_instrumentation_bytes():
    model = make_model()
    key = model.eligible_keys()[0]
    estimate = model.evaluate({key})
    expected = model.parameters[key].size
    if key in estimate.instrumented:
        expected += model.parameters[key].instrument_bytes
    assert estimate.ram_bytes == expected


# --------------------------------------------------------------------------- #
# LP / ILP solvers
# --------------------------------------------------------------------------- #
def test_lp_solves_textbook_problem():
    # min -3x - 5y  s.t. x <= 4, 2y <= 12, 3x + 2y <= 18
    c = np.array([-3.0, -5.0])
    a = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 2.0]])
    b = np.array([4.0, 12.0, 18.0])
    result = solve_lp(c, a, b)
    assert result.status is LPStatus.OPTIMAL
    assert result.objective == pytest.approx(-36.0)
    assert result.values[0] == pytest.approx(2.0)
    assert result.values[1] == pytest.approx(6.0)


def test_lp_detects_infeasibility_with_fixed_variables():
    c = np.array([1.0, 1.0])
    a = np.array([[1.0, 1.0]])
    b = np.array([1.0])
    result = solve_lp(c, a, b, fixed={0: 1.0, 1: 1.0})
    assert result.status is LPStatus.INFEASIBLE


def test_lp_matches_scipy_on_random_problems():
    from scipy.optimize import linprog
    rng = np.random.default_rng(42)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 8))
        c = rng.normal(size=n)
        a = rng.normal(size=(m, n))
        b = rng.normal(size=m) + 1.0
        a_full = np.vstack([a, np.eye(n)])
        b_full = np.concatenate([b, np.full(n, 5.0)])
        mine = solve_lp(c, a_full, b_full)
        reference = linprog(c, A_ub=a_full, b_ub=b_full, bounds=(0, None),
                            method="highs")
        if reference.status == 2:
            assert mine.status is LPStatus.INFEASIBLE
        else:
            assert mine.status is LPStatus.OPTIMAL
            assert mine.objective == pytest.approx(reference.fun, abs=1e-6)


def test_ilp_solution_is_integral_and_feasible():
    model = make_model()
    problem = build_placement_ilp(model, r_spare=256, x_limit=1.3)
    result = solve_ilp(problem)
    assert result.values is not None
    ram = set(solution_to_ram_set(problem, result.values))
    for index in problem.branch_vars:
        assert abs(result.values[index] - round(result.values[index])) < 1e-6
    assert model.is_feasible(ram, 256, 1.3)


def test_ilp_matches_exhaustive_optimum_on_small_instance():
    model = make_model()
    # Restrict to the six most significant blocks so brute force is exact.
    from repro.placement.solvers.exhaustive import significant_blocks
    keys = significant_blocks(model, 6)
    small_params = {k: model.parameters[k] for k in model.parameters}
    small_model = PlacementCostModel(small_params, model.e_flash, model.e_ram)
    best = exhaustive_best_placement(small_model, r_spare=200, x_limit=1.5,
                                     blocks=keys)
    problem = build_placement_ilp(small_model, r_spare=200, x_limit=1.5)
    result = solve_ilp(problem)
    ram = set(solution_to_ram_set(problem, result.values))
    ilp_energy = small_model.evaluate(ram).energy_j
    brute_energy = small_model.evaluate(best).energy_j
    # The ILP considers more blocks than the brute force, so it can only be
    # at least as good.
    assert ilp_energy <= brute_energy + 1e-12


def test_ilp_respects_ram_constraint():
    model = make_model()
    problem = build_placement_ilp(model, r_spare=16, x_limit=2.0)
    result = solve_ilp(problem)
    ram = set(solution_to_ram_set(problem, result.values))
    assert model.evaluate(ram).ram_bytes <= 16


def test_ilp_respects_time_constraint():
    model = make_model()
    problem = build_placement_ilp(model, r_spare=4096, x_limit=1.0)
    result = solve_ilp(problem)
    ram = set(solution_to_ram_set(problem, result.values))
    assert model.evaluate(ram).time_ratio <= 1.0 + 1e-9


def test_greedy_is_feasible_but_not_better_than_ilp():
    model = make_model()
    greedy = greedy_placement(model, r_spare=256, x_limit=1.3)
    assert model.is_feasible(greedy, 256, 1.3)
    problem = build_placement_ilp(model, r_spare=256, x_limit=1.3)
    ilp = set(solution_to_ram_set(problem, solve_ilp(problem).values))
    assert model.evaluate(ilp).energy_j <= model.evaluate(greedy).energy_j + 1e-12


def test_greedy_energy_never_below_ilp_across_knobs():
    # The ILP is optimal on the same model, so the heuristic's modelled
    # energy can never be lower, for any (R_spare, X_limit) combination.
    model = make_model()
    for r_spare, x_limit in [(64, 1.1), (128, 1.5), (256, 2.0), (4096, 1.05)]:
        greedy = greedy_placement(model, r_spare=r_spare, x_limit=x_limit)
        problem = build_placement_ilp(model, r_spare=r_spare, x_limit=x_limit)
        result = solve_ilp(problem)
        ilp = set(solution_to_ram_set(problem, result.values))
        assert (model.evaluate(ilp).energy_j
                <= model.evaluate(greedy).energy_j + 1e-12), (r_spare, x_limit)


def test_greedy_incremental_matches_full_evaluation():
    model = make_model()
    for r_spare, x_limit in [(64, 1.1), (256, 1.3), (4096, 2.0)]:
        fast = greedy_placement(model, r_spare, x_limit, incremental=True)
        full = greedy_placement(model, r_spare, x_limit, incremental=False)
        assert fast == full, (r_spare, x_limit)


def test_ilp_incumbent_values_are_exactly_integral():
    # Integral incumbents must be snapped onto the 0/1 lattice: raw LP noise
    # (tiny negative or 1+epsilon components) must not leak into the result.
    model = make_model()
    problem = build_placement_ilp(model, r_spare=256, x_limit=1.3)
    result = solve_ilp(problem)
    assert result.values is not None
    for index in problem.branch_vars:
        assert float(result.values[index]) in (0.0, 1.0)
    assert result.status == "optimal" and result.optimal


def test_ilp_reports_optimal_when_budget_exhausts_with_closed_heap():
    # Even when max_nodes stops the search, an incumbent is optimal as soon
    # as every remaining open node's bound is at least its objective.
    # min -2*x0 - x1  s.t.  2x0 + 2x1 <= 3,  x binary.  The search expands
    # the fractional root, one fractional child, and the integral optimum
    # (1, 0) at objective -2; at max_nodes=3 the heap still holds an open
    # node bounded at -1 >= -2, so the incumbent is provably optimal.
    from repro.placement.ilp import ILPProblem
    problem = ILPProblem(
        objective=np.array([-2.0, -1.0]),
        constant=0.0,
        a_ub=np.array([[2.0, 2.0], [1.0, 0.0], [0.0, 1.0]]),
        b_ub=np.array([3.0, 1.0, 1.0]),
        var_names=["x0", "x1"],
        branch_vars=[0, 1],
        lower=np.zeros(2),
        upper=np.full(2, np.inf),
        r_index={"x0": 0, "x1": 1},
    )
    capped = solve_ilp(problem, max_nodes=3)
    assert capped.nodes_explored == 3          # the budget was exhausted
    assert capped.status == "optimal" and capped.optimal
    assert capped.objective == pytest.approx(-2.0)
    assert list(capped.values) == [1.0, 0.0]   # exactly on the 0/1 lattice

    # With a budget too small to close the gap the claim must stay modest.
    assert not solve_ilp(problem, max_nodes=2).optimal


def test_enumeration_size_is_2_to_the_k():
    model = make_model()
    points = list(enumerate_placements(model, max_blocks=5))
    assert len(points) == 2 ** 5


def test_invalid_knobs_rejected():
    model = make_model()
    with pytest.raises(ValueError):
        build_placement_ilp(model, r_spare=-1, x_limit=1.5)
    with pytest.raises(ValueError):
        build_placement_ilp(model, r_spare=100, x_limit=0.9)


# --------------------------------------------------------------------------- #
# Instrumentation costs (Figure 4)
# --------------------------------------------------------------------------- #
def test_instrumentation_costs_have_paper_ordering():
    uncond = instrumentation_overhead(TerminatorKind.UNCONDITIONAL)
    cond = instrumentation_overhead(TerminatorKind.CONDITIONAL)
    short = instrumentation_overhead(TerminatorKind.SHORT_CONDITIONAL)
    fall = instrumentation_overhead(TerminatorKind.FALLTHROUGH)
    ret = instrumentation_overhead(TerminatorKind.RETURN)
    # Returns never need instrumentation.
    assert ret.extra_cycles == 0 and ret.extra_bytes == 0
    # Conditional rewrites are more expensive than unconditional ones, and the
    # fused compare-and-branch form is the most expensive (extra cmp).
    assert cond.extra_cycles > uncond.extra_cycles
    assert short.extra_cycles > cond.extra_cycles
    assert short.extra_bytes > cond.extra_bytes
    assert fall.extra_cycles > 0 and fall.extra_bytes > 0


def test_figure4_table_matches_paper_cycle_counts():
    table = figure4_cost_table()
    for kind, entry in table.items():
        paper, model = entry["paper"], entry["model"]
        # Instrumented cycle counts must match the paper exactly; byte counts
        # may differ slightly because we account literal-pool words.
        assert model.instrumented_cycles == paper.instrumented_cycles, kind
        assert abs(model.extra_bytes - paper.extra_bytes) <= 6, kind


# --------------------------------------------------------------------------- #
# Transformation correctness
# --------------------------------------------------------------------------- #
def test_apply_placement_preserves_results_for_random_subsets():
    import random
    rng = random.Random(1234)
    baseline_program = compile_program()
    expected = Simulator(baseline_program).run().return_value
    params = extract_parameters(baseline_program)
    eligible = [k for k, p in params.items() if p.eligible]
    for trial in range(6):
        program = compile_program()
        subset = [k for k in eligible if rng.random() < 0.4]
        apply_placement(program, subset)
        result = Simulator(program).run()
        assert result.return_value == expected, f"trial {trial}: {subset}"


def test_apply_placement_moves_blocks_to_ram_addresses():
    program = compile_program()
    params = extract_parameters(program)
    eligible = [k for k, p in params.items() if p.eligible][:3]
    apply_placement(program, eligible)
    for key in eligible:
        block = program.find_block(key)
        assert block.section == "ram"
        assert program.ram.contains(block.address)


def test_apply_placement_rejects_library_blocks():
    from repro.transform import TransformError
    source = "float f(float x) { return x + 1.0; } int main(void) { float y = f(1.0); return y; }"
    program = compile_program(source)
    library_keys = [program.block_key(b) for b in program.iter_blocks()
                    if program.functions[b.function_name].is_library]
    with pytest.raises(TransformError):
        apply_placement(program, library_keys[:1])


# --------------------------------------------------------------------------- #
# Optimizer end to end
# --------------------------------------------------------------------------- #
def test_optimizer_end_to_end_reduces_energy_and_power():
    program = compile_program()
    baseline = Simulator(program).run()
    optimized_program = compile_program()
    solution = optimize_program(optimized_program, x_limit=1.5)
    optimized = Simulator(optimized_program).run()
    assert optimized.return_value == baseline.return_value
    assert solution.ram_blocks, "the optimizer should move something"
    assert optimized.energy_j < baseline.energy_j
    assert optimized.average_power_w < baseline.average_power_w
    assert optimized.cycles >= baseline.cycles


def test_optimizer_respects_time_limit_knob():
    program = compile_program()
    baseline = Simulator(program).run()
    optimized_program = compile_program()
    optimize_program(optimized_program, x_limit=1.05)
    optimized = Simulator(optimized_program).run()
    assert optimized.cycles <= baseline.cycles * 1.15  # model estimate + margin


def test_optimizer_with_zero_ram_budget_moves_nothing():
    program = compile_program()
    solution = optimize_program(program, r_spare=0)
    assert solution.ram_blocks == set()


def test_optimizer_profile_mode_runs():
    program = compile_program()
    profile = Simulator(program).run().profile
    optimizer = FlashRAMOptimizer(
        compile_program(), config=PlacementConfig(frequency_mode="profile"))
    solution = optimizer.optimize(profile=profile)
    assert solution.estimate is not None


def test_derive_r_spare_uses_byte_units_end_to_end():
    # Regression for a historical bug that divided the byte-denominated
    # stack_reserve by 4 (a spurious byte->word conversion).  All terms are
    # bytes: 8 KB RAM - 128 B globals (int data[32]) - (8 B worst-case
    # stack + 1024 B stack reserve) - 64 B safety margin = 6968 B.
    program = compile_program()
    optimizer = FlashRAMOptimizer(program)
    assert optimizer.derive_r_spare() == 6968

    # The reserve must flow through unscaled: growing it by N bytes shrinks
    # R_spare by exactly N.
    bigger = FlashRAMOptimizer(compile_program(),
                               config=PlacementConfig(stack_reserve=1024 + 512))
    assert bigger.derive_r_spare() == 6968 - 512


def test_solution_reports_predictions():
    program = compile_program()
    solution = optimize_program(program, x_limit=1.5)
    assert 0.0 <= solution.predicted_energy_reduction < 1.0
    assert solution.predicted_time_increase >= 0.0
    assert solution.r_spare > 0
