"""Experiment engine tests: cache, grids, result store, decode-once parity."""

import pytest

import repro.engine.cache as cache_module
from repro.beebs import BENCHMARK_NAMES
from repro.codegen import CompileOptions, compile_source
from repro.engine import (
    ExperimentEngine,
    ExperimentSpec,
    ProgramCache,
    ResultStore,
    records_equal,
    run_record,
)
from repro.evaluation.figure5 import evaluate_suite
from repro.isa.registers import PC, SP
from repro.placement import FlashRAMOptimizer, PlacementConfig
from repro.sim import Simulator

#: Small sample of the BEEBS grid used by the regression sweeps.
SAMPLE_GRID = [("crc32", "O2"), ("crc32", "Os"), ("fdct", "O2"), ("2dfir", "O2")]


def fresh_engine() -> ExperimentEngine:
    return ExperimentEngine(cache=ProgramCache())


def result_tuple(result):
    """Every observable field of a SimulationResult, for exact comparison."""
    return (result.return_value, result.cycles, result.instructions,
            result.energy_j, result.time_s, dict(result.cycles_by_section),
            dict(result.profile.counts), dict(result.profile.cycles))


# --------------------------------------------------------------------------- #
# Program cache
# --------------------------------------------------------------------------- #
def test_optimized_run_compiles_exactly_once(monkeypatch):
    compiles = []
    real_compile = cache_module.compile_source

    def counting_compile(source, options):
        compiles.append((options.program_name, str(options.opt_level)))
        return real_compile(source, options)

    monkeypatch.setattr(cache_module, "compile_source", counting_compile)
    engine = fresh_engine()
    engine.run_optimized("crc32", "O2")
    assert compiles == [("crc32", "O2")]

    # Re-running (any frequency mode) must not recompile.
    engine.run_optimized("crc32", "O2", frequency_mode="profile")
    engine.run_baseline("crc32", "O2")
    assert compiles == [("crc32", "O2")]

    # A different level is a different key.
    engine.run_optimized("crc32", "Os")
    assert compiles == [("crc32", "O2"), ("crc32", "Os")]


def test_cache_stats_and_shared_instance():
    cache = ProgramCache()
    first = cache.get_benchmark("crc32", "O2")
    second = cache.get_benchmark("crc32", "O2")
    assert first is second
    assert cache.stats.compiles == 1 and cache.stats.hits == 1

    mutable = cache.get_benchmark_mutable("crc32", "O2")
    assert mutable is not first
    assert cache.stats.compiles == 1  # deepcopy, not a recompile


def test_mutable_copy_preserves_register_identity_and_isolation():
    cache = ProgramCache()
    pristine = cache.get_benchmark("crc32", "O2")
    clone = cache.get_benchmark_mutable("crc32", "O2")

    # Register operands must stay the canonical singletons (`reg is PC`/`is SP`
    # checks inside the simulator and def/use analysis rely on identity).
    for function in clone.iter_functions():
        for block in function.iter_blocks():
            for instr in block.instructions:
                for operand in instr.operands:
                    regs = getattr(operand, "regs", None)
                    if regs is not None:
                        for reg in regs:
                            if reg.index == PC.index:
                                assert reg is PC
                            if reg.index == SP.index:
                                assert reg is SP

    # Transforming the copy must not leak into the pristine shared program.
    FlashRAMOptimizer(clone, config=PlacementConfig(x_limit=1.5)).optimize()
    assert clone.ram_code_size() > 0
    assert pristine.ram_code_size() == 0


# --------------------------------------------------------------------------- #
# BEEBS grid regression: correctness and decode-once parity
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name,level", SAMPLE_GRID)
def test_grid_sample_optimized_matches_baseline_and_seed_simulator(name, level):
    engine = fresh_engine()
    run = engine.run_optimized(name, level)

    # The optimization must not change program results.
    assert run.optimized.return_value == run.baseline.return_value
    assert run.solution is not None and run.solution.ram_blocks

    # The decode-once fast path must reproduce the seed (interpreted)
    # simulator's numbers exactly, on both the pristine and the transformed
    # program.
    pristine = engine.compile_benchmark(name, level)
    assert result_tuple(Simulator(pristine).run()) == \
        result_tuple(Simulator(pristine, decode_once=False).run())
    assert result_tuple(run.baseline) == \
        result_tuple(Simulator(pristine, decode_once=False).run())

    transformed = engine.compile_benchmark_mutable(name, level)
    FlashRAMOptimizer(transformed, config=PlacementConfig(x_limit=1.5)).optimize()
    assert result_tuple(Simulator(transformed).run()) == \
        result_tuple(Simulator(transformed, decode_once=False).run())


def test_decode_cache_invalidated_by_placement():
    engine = fresh_engine()
    program = engine.compile_benchmark_mutable("crc32", "O2")
    before = Simulator(program).run()
    generation = program.layout_generation

    FlashRAMOptimizer(program, config=PlacementConfig(x_limit=1.5)).optimize()
    assert program.layout_generation > generation

    after = Simulator(program).run()          # must re-decode, not reuse
    assert after.return_value == before.return_value
    assert after.cycles_by_section["ram"] > 0


# --------------------------------------------------------------------------- #
# Grids: determinism and parallel/sequential equivalence
# --------------------------------------------------------------------------- #
def test_sequential_grid_matches_individual_runs_bitwise():
    specs = [ExperimentSpec(benchmark=n, opt_level=l) for n, l in SAMPLE_GRID]
    grid_runs = fresh_engine().run_grid(specs, max_workers=1)
    assert [run.name for run in grid_runs] == [n for n, _ in SAMPLE_GRID]

    single_engine = fresh_engine()
    for spec, run in zip(specs, grid_runs):
        single = single_engine.run_spec(spec)
        assert run_record(single) == run_record(run)


def test_parallel_grid_matches_sequential_bitwise():
    specs = [ExperimentSpec(benchmark="crc32", opt_level="O2"),
             ExperimentSpec(benchmark="fdct", opt_level="O2")]
    sequential = fresh_engine().run_grid(specs, max_workers=1)
    parallel = fresh_engine().run_grid(specs, max_workers=2)
    assert [run_record(run) for run in parallel] == \
        [run_record(run) for run in sequential]


def test_evaluate_suite_through_engine_matches_direct_runs():
    rows = evaluate_suite(benchmarks=["crc32"], levels=["O2"],
                          frequency_modes=("static", "profile"),
                          engine=fresh_engine(), max_workers=1)
    assert [(row.benchmark, row.opt_level, row.frequency_mode) for row in rows] \
        == [("crc32", "O2", "static"), ("crc32", "O2", "profile")]
    for row in rows:
        assert row.energy_change < 0
        assert row.blocks_moved > 0


# --------------------------------------------------------------------------- #
# The run memo: one simulation per distinct program, re-priced per model
# --------------------------------------------------------------------------- #
def exact(result):
    """:func:`result_tuple` with the floats as hex, so -0.0 != 0.0."""
    fields = list(result_tuple(result))
    fields[3], fields[4] = result.energy_j.hex(), result.time_s.hex()
    return tuple(fields) + (dict(result.energy_counts),)


def two_energy_models():
    from dataclasses import replace

    from repro.explore import scaled_energy_model
    slow = scaled_energy_model(2.5)
    return (scaled_energy_model(1.25),
            replace(slow, cycle_time_s=slow.cycle_time_s * 1.5))


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_repricing_a_run_equals_a_fresh_simulation(name):
    program = ProgramCache().get_benchmark(name, "O2")
    first, second = two_energy_models()
    run = Simulator(program, energy_model=first).run()
    fresh = Simulator(program, energy_model=second).run()
    assert exact(run.priced(second)) == exact(fresh)
    assert exact(fresh.priced(first)) == exact(run)
    assert run.energy_j != fresh.energy_j  # the models really differ


def test_memoised_sweep_matches_a_fresh_simulation_per_cell(monkeypatch):
    from repro.explore import SweepSpec, run_sweep
    sweep = SweepSpec(benchmarks=("crc32", "fdct"), x_limits=(1.1, 1.5),
                      flash_ram_ratios=(1.25, 2.5),
                      timing_models=("flat", "pipelined+icache"))
    real_run = Simulator.run
    calls = []

    def counting_run(simulator, *args, **kwargs):
        calls.append(simulator.timing)
        return real_run(simulator, *args, **kwargs)

    monkeypatch.setattr(Simulator, "run", counting_run)
    engine = fresh_engine()
    result = run_sweep(sweep, engine=engine, max_workers=1)
    monkeypatch.setattr(Simulator, "run", real_run)
    simulated = len(calls)

    cache = ProgramCache()
    distinct = set()
    for cell, run in zip(result.cells, result.runs):
        spec = cell.spec
        model = cell.energy_model(engine.energy_model)
        baseline = Simulator(cache.get_benchmark(spec.benchmark, spec.opt_level),
                             energy_model=model,
                             timing_model=spec.timing_model).run()
        program = cache.get_benchmark_mutable(spec.benchmark, spec.opt_level)
        config = PlacementConfig(x_limit=spec.x_limit,
                                 timing_model=spec.timing_model)
        solution = FlashRAMOptimizer(program, energy_model=model,
                                     config=config).optimize()
        optimized = Simulator(program, energy_model=model,
                              timing_model=spec.timing_model).run()
        assert solution.ram_blocks == run.solution.ram_blocks, cell.key
        assert exact(run.baseline) == exact(baseline), cell.key
        assert exact(run.optimized) == exact(optimized), cell.key
        distinct.add((spec.benchmark, spec.timing_model, None))
        distinct.add((spec.benchmark, spec.timing_model,
                      frozenset(solution.ram_blocks)))
    # Ratios never cost a simulation: one run per distinct program.
    assert simulated == len(distinct) < 2 * sweep.size


# --------------------------------------------------------------------------- #
# Result store
# --------------------------------------------------------------------------- #
def test_result_store_roundtrip_is_bitwise(tmp_path):
    engine = fresh_engine()
    runs = [engine.run_optimized("crc32", "O2"),
            engine.run_baseline("crc32", "Os")]
    store = ResultStore(tmp_path)
    store.save_runs("sample", runs, meta={"levels": ["O2", "Os"]})

    loaded = store.load("sample")
    assert records_equal(loaded, [run_record(run) for run in runs])
    assert loaded[0]["optimized"]["energy_j"] == runs[0].optimized.energy_j
    assert loaded[1]["optimized"] is None
    assert store.load_meta("sample") == {"levels": ["O2", "Os"]}


# --------------------------------------------------------------------------- #
# Return-site interning (memory boundedness of long simulations)
# --------------------------------------------------------------------------- #
def test_return_sites_are_interned_not_per_dynamic_call():
    source = """
        int f(int x) { return x + 1; }
        int main(void) {
            int s = 0;
            for (int i = 0; i < 200; ++i) { s = f(s); }
            return s;
        }
    """
    program = compile_source(source, CompileOptions.for_level("O2"))
    for decode_once in (True, False):
        simulator = Simulator(program, decode_once=decode_once)
        result = simulator.run()
        assert result.return_value == 200
        # One token per static call site, not one per dynamic call.
        assert len(simulator._return_sites) < 5
        assert len(simulator._return_sites) == len(simulator._return_site_tokens)
