"""Perf smoke bench: warm-started dual-simplex branch and bound for the ILP.

Runs the Section 4.3 placement ILP over the full BEEBS grid (every kernel x
two X_limits) three ways:

* **cold** — :func:`solve_ilp` with every node re-solved from scratch on
  the bounded-variable engine (``_NodeSolver.factorize`` patched to return
  ``None``, the path the children of a singular parent basis take);
* **warm** — :func:`solve_ilp` as shipped: children re-solved by the dual
  simplex from their parent's optimal basis;
* **HiGHS** — ``scipy.optimize.milp`` on the same problem with the
  objective divided by ``max|c|`` (HiGHS's default tolerances treat the
  ~1e-9 J objective as zero), the independent oracle.

Asserts all three select **bitwise-identical RAM sets** on every grid cell
and that the warm path's LP-node throughput (branch-and-bound nodes per
second) is at least :data:`SPEEDUP_FLOOR` times the cold path's.  Also
records ``pivots_per_node_speedup`` — cold pivots per node over warm
pivots per node — which, unlike the wall-time ratio, does not depend on
the machine.  Records everything, with the process environment (cores,
BLAS and its thread variables), to ``BENCH_ilp.json`` for the CI
regression gate (``benchmarks/check_bench.py``).

Run with::

    PYTHONPATH=src python benchmarks/bench_ilp.py [--output BENCH_ilp.json]
"""

from __future__ import annotations

import argparse
import time
from unittest import mock

import numpy as np
from conftest import print_table
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.beebs import BENCHMARK_NAMES
from repro.engine import atomic_write_json, default_cache
from repro.placement import FlashRAMOptimizer, PlacementConfig
from repro.placement.ilp import (
    ILPProblem,
    build_placement_ilp,
    solution_to_ram_set,
)
from repro.placement.solvers.branch_and_bound import (
    ILPResult,
    _NodeSolver,
    solve_ilp,
)
from repro.telemetry.hub import environment

X_LIMITS = (1.1, 1.5)
SPEEDUP_FLOOR = 2.0


def solve_cold(problem: ILPProblem) -> ILPResult:
    """:func:`solve_ilp` with no warm starts: every node solves cold."""
    with mock.patch.object(_NodeSolver, "factorize",
                           lambda self, parent: None):
        return solve_ilp(problem)


def solve_highs(problem: ILPProblem):
    """HiGHS on *problem* with its objective scaled to unit magnitude."""
    integrality = np.zeros(problem.num_vars)
    integrality[problem.branch_vars] = 1
    return milp(problem.objective / np.max(np.abs(problem.objective)),
                constraints=LinearConstraint(problem.a_ub, -np.inf,
                                             problem.b_ub),
                integrality=integrality,
                bounds=Bounds(problem.lower, problem.upper))


def bench_grid(opt_level: str = "O2") -> dict:
    cells = []
    total = {"cold_s": 0.0, "warm_s": 0.0, "highs_s": 0.0, "cold_nodes": 0,
             "warm_nodes": 0, "warm_solves": 0, "cold_pivots": 0,
             "warm_pivots": 0}
    identical = True
    for name in BENCHMARK_NAMES:
        program = default_cache().get_benchmark_mutable(name, opt_level)
        optimizer = FlashRAMOptimizer(program, config=PlacementConfig())
        model = optimizer.build_cost_model()
        r_spare = optimizer.derive_r_spare()
        for x_limit in X_LIMITS:
            problem = build_placement_ilp(model, r_spare, x_limit)

            start = time.perf_counter()
            cold = solve_cold(problem)
            cold_s = time.perf_counter() - start
            start = time.perf_counter()
            warm = solve_ilp(problem)
            warm_s = time.perf_counter() - start
            start = time.perf_counter()
            highs = solve_highs(problem)
            highs_s = time.perf_counter() - start

            assert cold.values is not None and warm.values is not None, (
                f"{name} x={x_limit}: solver returned no values")
            assert highs.status == 0, f"{name} x={x_limit}: {highs.message}"
            cold_ram = frozenset(solution_to_ram_set(problem, cold.values))
            warm_ram = frozenset(solution_to_ram_set(problem, warm.values))
            highs_ram = frozenset(solution_to_ram_set(problem, highs.x))
            same = (cold_ram == warm_ram == highs_ram
                    and cold.status == warm.status == "optimal")
            identical = identical and same
            assert same, (f"{name} x={x_limit}: warm RAM set diverged from "
                          f"cold ({sorted(cold_ram ^ warm_ram)}) or HiGHS "
                          f"({sorted(highs_ram ^ warm_ram)})")

            total["cold_s"] += cold_s
            total["warm_s"] += warm_s
            total["highs_s"] += highs_s
            total["cold_nodes"] += cold.nodes_explored
            total["warm_nodes"] += warm.nodes_explored
            total["warm_solves"] += warm.warm_solves
            total["cold_pivots"] += cold.lp_pivots
            total["warm_pivots"] += warm.lp_pivots
            cells.append({
                "benchmark": name,
                "x_limit": x_limit,
                "vars": problem.num_vars,
                "rows": int(problem.a_ub.shape[0]),
                "cold_ms": cold_s * 1e3,
                "warm_ms": warm_s * 1e3,
                "highs_ms": highs_s * 1e3,
                "nodes": warm.nodes_explored,
                "warm_solves": warm.warm_solves,
                "ram_blocks": len(warm_ram),
            })

    cold_throughput = total["cold_nodes"] / total["cold_s"]
    warm_throughput = total["warm_nodes"] / total["warm_s"]
    speedup = warm_throughput / cold_throughput
    pivots_speedup = ((total["cold_pivots"] / total["cold_nodes"])
                      / (total["warm_pivots"] / total["warm_nodes"]))
    record = {
        "cells": len(cells),
        **total,
        "cold_nodes_per_s": cold_throughput,
        "warm_nodes_per_s": warm_throughput,
        "node_throughput_speedup": speedup,
        "pivots_per_node_speedup": pivots_speedup,
        "bitwise_identical_ram_sets": identical,
        "env": environment(),
        "grid": cells,
    }
    print_table("placement ILP: cold vs warm-started dual simplex vs HiGHS",
                cells, ["benchmark", "x_limit", "vars", "rows", "cold_ms",
                        "warm_ms", "highs_ms", "nodes", "warm_solves",
                        "ram_blocks"])
    print(f"\ncold: {total['cold_nodes']} nodes, {total['cold_pivots']} "
          f"pivots in {total['cold_s']:.2f}s ({cold_throughput:.1f} nodes/s)")
    print(f"warm: {total['warm_nodes']} nodes, {total['warm_pivots']} "
          f"pivots in {total['warm_s']:.2f}s ({warm_throughput:.1f} nodes/s)")
    print(f"HiGHS: {total['highs_s']:.2f}s")
    print(f"BLAS threads: {record['env']['thread_variables']}")
    print(f"pivots-per-node speedup: {pivots_speedup:.2f}x")
    print(f"LP-node throughput speedup: {speedup:.2f}x "
          f"(floor {SPEEDUP_FLOOR:.1f}x)")
    assert speedup >= SPEEDUP_FLOOR, (
        f"warm-start node throughput speedup {speedup:.2f}x is below the "
        f"{SPEEDUP_FLOOR}x floor")
    return record


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--output", default=None, metavar="FILE")
    args = parser.parse_args()

    record = bench_grid()

    if args.output:
        atomic_write_json(args.output, {"ilp": record})
        print(f"\nwrote {args.output}")


if __name__ == "__main__":
    main()
