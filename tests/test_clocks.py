"""One execution, several clocks.

Timing models change how cycles are counted, never what a program computes,
so ``Simulator(program, timing_model=[...])`` executes the program once and
clocks it under every model.  Each clock must be bitwise the standalone run
under its model, and a sweep whose cells mix timing models must store
exactly what one engine per model stores.
"""

import pytest

from repro.beebs import BENCHMARK_NAMES
from repro.engine import ExperimentEngine, ProgramCache, default_cache
from repro.explore import SweepSpec, run_sweep
from repro.placement import FlashRAMOptimizer, PlacementConfig
from repro.sim import TIMING_MODELS, SimulationError, Simulator, TimingSpec

LEVELS = ("O2", "Os")
CLOCK_SETS = (("flat", "pipelined", "pipelined+icache"),
              ("pipelined", "pipelined+icache:32x8"))


def observables(result):
    """Everything a run reports, floats as hex so -0.0 != 0.0."""
    return (result.return_value, result.cycles, result.instructions,
            dict(result.cycles_by_section), dict(result.energy_counts),
            dict(result.profile.counts), dict(result.profile.cycles),
            result.energy_j.hex(), result.time_s.hex())


def assert_clocks_match_standalone_runs(program, clock_sets=CLOCK_SETS):
    standalone = {}
    for models in clock_sets:
        simulator = Simulator(program, timing_model=models)
        first = simulator.run()
        names = [TimingSpec.parse(model).name for model in models]
        assert list(simulator.results) == names
        assert first is simulator.results[names[0]]
        for model, name in zip(models, names):
            if model not in standalone:
                standalone[model] = observables(
                    Simulator(program, timing_model=model).run())
            assert observables(simulator.results[name]) == \
                standalone[model], model
        profiles = [result.profile for result in simulator.results.values()]
        assert len({id(profile.counts) for profile in profiles}) == \
            len(profiles)


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_each_clock_is_bitwise_its_standalone_run(name):
    cache = default_cache()
    for level in LEVELS:
        assert_clocks_match_standalone_runs(cache.get_benchmark(name, level))
        placed = cache.get_benchmark_mutable(name, level)
        solution = FlashRAMOptimizer(
            placed, config=PlacementConfig(x_limit=1.5)).optimize()
        assert solution.ram_blocks
        assert_clocks_match_standalone_runs(placed)


def test_clock_sets_are_deduplicated_and_validated():
    program = default_cache().get_benchmark("crc32", "O2")
    simulator = Simulator(program, timing_model=[
        "pipelined+icache", "pipelined+icache:16x16", "flat"])
    assert [timing.name for timing in simulator.timings] == [
        "pipelined+icache:16x16", "flat"]
    assert simulator.timing.name == "pipelined+icache:16x16"
    with pytest.raises(ValueError, match="no timing model"):
        Simulator(program, timing_model=[])
    with pytest.raises(ValueError, match="decode_once=False"):
        Simulator(program, decode_once=False,
                  timing_model=["flat", "pipelined"])
    oracle = Simulator(program, decode_once=False, timing_model=["flat"])
    assert oracle.run() == Simulator(program).run()
    assert list(oracle.results) == ["flat"]


def test_multi_clock_run_keeps_the_instruction_limit():
    program = default_cache().get_benchmark("crc32", "O2")
    with pytest.raises(SimulationError, match="instruction limit"):
        Simulator(program, max_instructions=1000,
                  timing_model=TIMING_MODELS).run()


# --------------------------------------------------------------------------- #
# Mixed-timing sweeps
# --------------------------------------------------------------------------- #
MIXED_SWEEP = SweepSpec(benchmarks=("crc32", "fdct"), opt_levels=LEVELS,
                        x_limits=(1.5,), frequency_modes=("static", "profile"),
                        timing_models=TIMING_MODELS)


def fresh_engine() -> ExperimentEngine:
    return ExperimentEngine(cache=ProgramCache())


@pytest.fixture(scope="module")
def per_model_reference():
    """Records and runs of one fresh engine per timing model, by cell key."""
    records, runs = {}, {}
    for model in TIMING_MODELS:
        sweep = SweepSpec(benchmarks=MIXED_SWEEP.benchmarks,
                          opt_levels=LEVELS, x_limits=MIXED_SWEEP.x_limits,
                          frequency_modes=MIXED_SWEEP.frequency_modes,
                          timing_models=(model,))
        result = run_sweep(sweep, engine=fresh_engine(), max_workers=1)
        for cell, record, run in zip(result.cells, result.records,
                                     result.runs):
            records[cell.key] = record
            runs[cell.key] = run
    return records, runs


@pytest.mark.parametrize("workers", [1, 2])
def test_mixed_timing_sweep_equals_one_engine_per_model(per_model_reference,
                                                       workers):
    records, runs = per_model_reference
    mixed = run_sweep(MIXED_SWEEP, engine=fresh_engine(), max_workers=workers)
    assert len(mixed.records) == len(records) == MIXED_SWEEP.size
    for cell, record, run in zip(mixed.cells, mixed.records, mixed.runs):
        assert record == records[cell.key], cell.key
        assert observables(run.baseline) == \
            observables(runs[cell.key].baseline), cell.key
        assert observables(run.optimized) == \
            observables(runs[cell.key].optimized), cell.key
