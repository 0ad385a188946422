"""The experiment engine: cached, parallel compile→optimize→simulate runs.

Every figure, benchmark and example funnels through
:class:`ExperimentEngine`.  For one experiment cell the engine

1. compiles the benchmark **once** through the shared
   :class:`~repro.engine.cache.ProgramCache` (the seed pipeline compiled the
   same source twice per optimized run),
2. simulates the pristine shared program for the baseline,
3. deep-copies the pristine program for the placement optimizer, which
   rewrites blocks in place, and simulates the optimized copy.

Simulations go through one **run memo**: a program is executed once per
distinct ``(benchmark, opt level, placement)``, where the placement is
``None`` for the baseline and ``(frozenset(ram_blocks), stack_reserve)`` for
a placed program — the two inputs that determine what the relocation
transform builds.  Timing models change only how cycles are counted, so
that one execution is clocked under every timing model of the
:meth:`ExperimentEngine.run_cells` batch (pool tasks carry the set) and the
memo keeps one result per model.  A run keeps its integer energy-event
counts, so a memo hit is re-priced under the asking engine's energy model
(:meth:`~repro.sim.SimulationResult.priced`), bitwise what a fresh
simulation would give.

Grids (benchmark × opt level × frequency mode) fan out over a
``concurrent.futures.ProcessPoolExecutor`` with deterministic result
ordering: results come back in spec order regardless of which worker finished
first, and every worker computes the exact same floats the sequential path
does, so parallel and sequential grids are bitwise identical.

Design-space sweeps (``repro.explore``) additionally vary the *energy model*
per cell — the paper's flash/RAM energy-ratio axis.  :meth:`ExperimentEngine.run_cells`
accepts ``(spec, energy_model)`` pairs and routes each cell to a sub-engine
for its model; sub-engines share this engine's :class:`ProgramCache` and
run memo, since neither compilation nor execution depends on the energy
model.  Sweep axes that change only the price of a run (the energy ratio)
or only the ILP (X_limit, when the chosen placement repeats) therefore
cost no extra simulation.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.beebs import get_benchmark
from repro.codegen import CompileOptions
from repro.engine.cache import ProgramCache, default_cache
from repro.engine.results import BenchmarkRun
from repro.machine.program import MachineProgram
from repro.placement import FlashRAMOptimizer, PlacementConfig
from repro.sim import EnergyModel, SimulationResult, Simulator, TimingSpec
from repro.telemetry import get_telemetry


def frequency_fidelity(parameters, profile) -> Dict[str, float]:
    """How well the extracted ``F_b`` estimates match profiled block counts.

    The paper evaluates its static loop-depth estimate against exact
    profiled frequencies (Figure 5); this quantifies the gap per run, from
    data both placements already have in hand (the cost-model parameters
    and the baseline profile — no extra simulation).  Returns flat
    JSON-safe fields: the mean absolute natural-log ratio over blocks both
    sides consider live, plus the counts of blocks only one side does.
    Iteration is in sorted block-key order so the float accumulation — and
    therefore the stored record — is bitwise deterministic.
    """
    ratios_total = 0.0
    compared = 0
    predicted_dead = 0  # estimated hot but never executed
    missed_hot = 0      # executed but estimated dead
    for key in sorted(parameters):
        estimated = parameters[key].frequency
        profiled = float(profile.count(key))
        if estimated > 0.0 and profiled > 0.0:
            ratios_total += abs(math.log(estimated / profiled))
            compared += 1
        elif estimated > 0.0:
            predicted_dead += 1
        elif profiled > 0.0:
            missed_hot += 1
    mean = ratios_total / compared if compared else 0.0
    return {
        "fb_blocks_compared": compared,
        "fb_mean_abs_log_ratio": mean,
        "fb_predicted_dead": predicted_dead,
        "fb_missed_hot": missed_hot,
    }


@dataclass(frozen=True)
class ExperimentSpec:
    """One cell of an evaluation grid.

    ``timing_model`` selects the cycle-accounting scheme for both the
    placement cost model and the validating simulations (``"flat"`` default,
    or the pipelined variants of :mod:`repro.sim.pipeline`).
    """

    benchmark: str
    opt_level: str = "O2"
    optimize: bool = True
    x_limit: float = 1.5
    r_spare: Optional[int] = None
    frequency_mode: str = "static"
    solver: str = "ilp"
    timing_model: str = "flat"


class ExperimentEngine:
    """Runs compile/optimize/simulate experiments with caching and fan-out."""

    def __init__(self, energy_model: Optional[EnergyModel] = None,
                 cache: Optional[ProgramCache] = None,
                 max_workers: Optional[int] = None,
                 cache_dir: Optional[str] = None):
        self.energy_model = energy_model or EnergyModel()
        if cache is not None:
            self.cache = cache
        elif cache_dir is not None:
            self.cache = ProgramCache(cache_dir=cache_dir)
        else:
            self.cache = default_cache()
        #: Propagated to pool workers so their per-process caches share the
        #: same on-disk tier (an explicit ``cache`` object wins over
        #: ``cache_dir`` locally, but its directory still propagates).
        self.cache_dir = self.cache.cache_dir if cache is not None else cache_dir
        self.max_workers = max_workers
        #: The run memo: ``(benchmark, opt level, placement)`` → timing
        #: model → ``[energy model it was priced under, result, served]``,
        #: where *served* records whether a request has taken the result.
        self._runs: Dict[Tuple, Dict[str, List]] = {}
        #: Timing models every simulation clocks (set per ``run_cells``
        #: batch): one execution of a program serves all of them.
        self._clock_models: Tuple[str, ...] = ()
        #: Latest cache-stats snapshot per pool worker, keyed by
        #: ``(pool_epoch, pid)`` — pids can be reused across pools, and each
        #: worker's snapshot is cumulative within its pool, so "latest per
        #: epoch+pid" sums correctly in :meth:`merged_cache_stats`.
        self.pool_cache_stats: Dict[Tuple[int, int], Dict[str, int]] = {}
        self._pool_epoch = 0
        #: Sub-engines for cells that use a non-default energy model; they
        #: share this engine's program cache and run memo.
        self._model_engines: List[Tuple[EnergyModel, "ExperimentEngine"]] = []

    # ------------------------------------------------------------------ #
    # Compilation
    # ------------------------------------------------------------------ #
    def compile_benchmark(self, name: str, opt_level: str = "O2") -> MachineProgram:
        """The shared pristine program of one benchmark (compiled once)."""
        return self.cache.get_benchmark(name, opt_level)

    def compile_benchmark_mutable(self, name: str,
                                  opt_level: str = "O2") -> MachineProgram:
        """A private, transformable copy of the benchmark's program."""
        return self.cache.get_benchmark_mutable(name, opt_level)

    # ------------------------------------------------------------------ #
    # Single experiments
    # ------------------------------------------------------------------ #
    def _simulate(self, name: str, opt_level: str, timing_model: str,
                  placement: Optional[Tuple[frozenset, int]],
                  program: Callable[[], MachineProgram],
                  stage: str) -> SimulationResult:
        """One memoised run, priced under this engine's energy model.

        *program* supplies the program to simulate on a memo miss.  The
        miss clocks the one execution under *timing_model* and every other
        timing model of the current batch the memo lacks, so later cells
        of the batch find their runs there.  A request that takes a result
        another request already took counts as a memo hit.
        """
        hub = get_telemetry()
        runs = self._runs.setdefault((name, opt_level, placement), {})
        memo = runs.get(timing_model)
        if memo is None:
            models = [timing_model] + [model for model in self._clock_models
                                       if model not in runs]
            target = program()
            with hub.span("simulate", stage=stage, clocks=len(models)):
                simulator = Simulator(target, energy_model=self.energy_model,
                                      timing_model=models)
                simulator.run()
            for model in models:
                runs[model] = [self.energy_model, simulator.results[
                    TimingSpec.parse(model).name], False]
            memo = runs[timing_model]
        elif memo[2] and hub.enabled:
            hub.add("sim.memo_hits")
        memo[2] = True
        model, result, _ = memo
        return (result if model == self.energy_model
                else result.priced(self.energy_model))

    def _baseline(self, name: str, opt_level: str,
                  timing_model: str = "flat") -> SimulationResult:
        """Simulate the unmodified program (through the run memo)."""
        def pristine() -> MachineProgram:
            with get_telemetry().span("compile", benchmark=name,
                                      opt_level=opt_level):
                return self.compile_benchmark(name, opt_level)

        return self._simulate(name, opt_level, timing_model, None, pristine,
                              "baseline")

    def run_baseline(self, name: str, opt_level: str = "O2",
                     timing_model: str = "flat") -> BenchmarkRun:
        """Compile and simulate one benchmark without the optimization."""
        get_benchmark(name)  # fail fast on unknown names
        return BenchmarkRun(name=name, opt_level=opt_level,
                            baseline=self._baseline(name, opt_level,
                                                    timing_model))

    def run_optimized(self, name: str, opt_level: str = "O2",
                      x_limit: float = 1.5,
                      r_spare: Optional[int] = None,
                      frequency_mode: str = "static",
                      solver: str = "ilp",
                      timing_model: str = "flat") -> BenchmarkRun:
        """Full experiment for one benchmark: baseline, optimize, re-run.

        ``frequency_mode="profile"`` feeds the baseline simulation's block
        counts to the optimizer (the dotted points of Figure 5).
        ``timing_model`` applies to the cost model and both simulations.
        """
        hub = get_telemetry()
        baseline = self._baseline(name, opt_level, timing_model)

        with hub.span("compile", benchmark=name, opt_level=opt_level,
                      stage="mutable"):
            optimized_program = self.compile_benchmark_mutable(name, opt_level)
        config = PlacementConfig(x_limit=x_limit, r_spare=r_spare,
                                 frequency_mode=frequency_mode, solver=solver,
                                 timing_model=timing_model)
        optimizer = FlashRAMOptimizer(optimized_program,
                                      energy_model=self.energy_model,
                                      config=config)
        profile = baseline.profile if frequency_mode == "profile" else None
        with hub.span("placement.solve", solver=solver):
            solution = optimizer.optimize(profile=profile)
        fb_report = frequency_fidelity(optimizer.parameters, baseline.profile)
        placement = (frozenset(solution.ram_blocks), config.stack_reserve)
        optimized = self._simulate(name, opt_level, timing_model, placement,
                                   lambda: optimized_program, "optimized")

        if optimized.return_value != baseline.return_value:
            raise AssertionError(
                f"{name}/{opt_level}: optimization changed the result "
                f"({baseline.return_value} -> {optimized.return_value})")

        return BenchmarkRun(name=name, opt_level=opt_level, baseline=baseline,
                            optimized=optimized, solution=solution,
                            frequency_mode=frequency_mode,
                            fb_report=fb_report)

    def run_spec(self, spec: ExperimentSpec) -> BenchmarkRun:
        """Run one grid cell.

        Its ``cell`` span carries the cell's knobs, the requested
        ``r_spare`` and the ``flash_ram_ratio`` of this engine's energy
        model (``e_flash / e_ram`` to six decimals: a sweep's ratio, or
        1.685185 for the calibrated model).
        """
        timing_model = getattr(spec, "timing_model", "flat")
        model = self.energy_model
        with get_telemetry().span("cell", benchmark=spec.benchmark,
                                  opt_level=spec.opt_level,
                                  x_limit=spec.x_limit, r_spare=spec.r_spare,
                                  flash_ram_ratio=round(
                                      model.e_flash / model.e_ram, 6),
                                  solver=spec.solver,
                                  frequency_mode=spec.frequency_mode,
                                  timing_model=timing_model):
            if not spec.optimize:
                return self.run_baseline(spec.benchmark, spec.opt_level,
                                         timing_model=timing_model)
            return self.run_optimized(spec.benchmark, spec.opt_level,
                                      x_limit=spec.x_limit,
                                      r_spare=spec.r_spare,
                                      frequency_mode=spec.frequency_mode,
                                      solver=spec.solver,
                                      timing_model=timing_model)

    # ------------------------------------------------------------------ #
    # Grids
    # ------------------------------------------------------------------ #
    def _engine_for_model(self, energy_model: EnergyModel) -> "ExperimentEngine":
        """This engine, or a cache-sharing sub-engine for another model."""
        if energy_model == self.energy_model:
            return self
        for model, engine in self._model_engines:
            if model == energy_model:
                return engine
        engine = ExperimentEngine(energy_model=energy_model, cache=self.cache,
                                  max_workers=1)
        engine._runs = self._runs
        self._model_engines.append((energy_model, engine))
        return engine

    def run_cell(self, spec: ExperimentSpec,
                 energy_model: Optional[EnergyModel] = None) -> BenchmarkRun:
        """Run one cell, optionally under a cell-specific energy model."""
        if energy_model is None:
            return self.run_spec(spec)
        engine = self._engine_for_model(energy_model)
        engine._clock_models = self._clock_models
        return engine.run_spec(spec)

    def run_cells(self,
                  cells: Sequence[Tuple[ExperimentSpec, Optional[EnergyModel]]],
                  max_workers: Optional[int] = None,
                  progress: Optional[Callable[[int, int], None]] = None
                  ) -> List[BenchmarkRun]:
        """Run ``(spec, energy_model)`` cells; results are in cell order.

        ``energy_model=None`` means the engine default.  This is the fan-out
        primitive behind both plain grids (:meth:`run_grid`) and the
        ``repro.explore`` design-space sweeps, whose cells vary the flash/RAM
        energy ratio.  Worker processes compute the exact same floats the
        sequential path does, so parallel and sequential runs are bitwise
        identical.

        Every simulation the batch misses is clocked under all the timing
        models its cells use, so a program runs once for the whole batch
        whatever the timing axis.

        ``progress`` (when given) is called as ``progress(done, total)``
        after each completed cell — on the pool path, after each in-order
        result is collected — purely for live reporting; it never affects
        the results.
        """
        resolved = [(spec, model if model is not None else self.energy_model)
                    for spec, model in cells]
        workers = max_workers if max_workers is not None else self.max_workers
        if workers is None:
            workers = os.cpu_count() or 1
        workers = min(workers, len(resolved)) if resolved else 1
        clock_models = tuple(dict.fromkeys(spec.timing_model
                                           for spec, _ in resolved))

        if workers <= 1 or len(resolved) <= 1:
            sequential: List[BenchmarkRun] = []
            outer, self._clock_models = self._clock_models, clock_models
            try:
                for spec, model in resolved:
                    sequential.append(self.run_cell(spec, model))
                    if progress is not None:
                        progress(len(sequential), len(resolved))
            finally:
                self._clock_models = outer
            return sequential

        # Keep same-(benchmark, level) cells on one worker so its per-process
        # engine reuses the compile and the memoised runs.  Plain grids
        # are already contiguous, but sharded/resumed sweeps hand us subsets
        # scattered across benchmarks, so tasks are regrouped for the pool
        # and the results put back in cell order afterwards.  Per-cell floats
        # do not depend on which worker computes them, so the regrouping is
        # invisible in the output.
        order = sorted(range(len(resolved)),
                       key=lambda i: (resolved[i][0].benchmark,
                                      resolved[i][0].opt_level, i))
        tasks = [(resolved[i][0], resolved[i][1], self.cache_dir,
                  clock_models) for i in order]
        chunksize = -(-len(tasks) // workers)
        self._pool_epoch += 1
        epoch = self._pool_epoch
        outputs: List[BenchmarkRun] = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for output, pid, stats in pool.map(_grid_worker, tasks,
                                               chunksize=chunksize):
                # Snapshots are cumulative per worker process; the latest
                # one per (epoch, pid) supersedes the earlier ones.
                self.pool_cache_stats[(epoch, pid)] = stats
                outputs.append(output)
                if progress is not None:
                    progress(len(outputs), len(resolved))
        results: List[Optional[BenchmarkRun]] = [None] * len(resolved)
        for position, index in enumerate(order):
            results[index] = outputs[position]
        return results

    def merged_cache_stats(self) -> Dict[str, int]:
        """Cache statistics including the pool workers' contributions.

        The engine's own :class:`~repro.engine.cache.CacheStats` only sees
        in-process traffic; compiles and disk hits performed by spawned
        ``run_cells`` workers are returned through the pool (one cumulative
        snapshot per worker, latest wins) and summed here.  All fields are
        additive counts, so the derived ``compiles`` column sums correctly
        too.
        """
        merged = self.cache.stats.as_dict()
        for snapshot in self.pool_cache_stats.values():
            for key, value in snapshot.items():
                merged[key] = merged.get(key, 0) + value
        return merged

    def run_grid(self, specs: Sequence[ExperimentSpec],
                 max_workers: Optional[int] = None) -> List[BenchmarkRun]:
        """Run a grid of experiments; results are in spec order.

        ``max_workers`` (falling back to the engine default, then to the CPU
        count) caps the process fan-out; ``<= 1`` runs sequentially in
        process, which shares this engine's caches and is what tests use for
        determinism checks.
        """
        return self.run_cells([(spec, None) for spec in specs],
                              max_workers=max_workers)


# --------------------------------------------------------------------------- #
# Worker-process plumbing
# --------------------------------------------------------------------------- #
#: Per-process root engines reused across tasks, one per cache dir; each
#: routes a cell's energy model to its sub-engines, which share its memo.
_WORKER_ENGINES: Dict[Optional[str], ExperimentEngine] = {}


def _worker_cache_stats() -> Dict[str, int]:
    """This worker process's cumulative cache stats, over all its engines."""
    totals: Dict[str, int] = {}
    for engine in _WORKER_ENGINES.values():
        for key, value in engine.cache.stats.as_dict().items():
            totals[key] = totals.get(key, 0) + value
    return totals


def _grid_worker(payload: Tuple[ExperimentSpec, EnergyModel, Optional[str],
                                Tuple[str, ...]]
                 ) -> Tuple[BenchmarkRun, int, Dict[str, int]]:
    """Run one cell in a pool worker; returns (run, pid, cache stats).

    The payload carries the batch's timing models, which the worker's
    simulations clock.  The stats snapshot is cumulative for this worker
    process so the parent can fold pool-side compiles/disk hits into its
    own summary (keeping only the latest snapshot per worker)."""
    spec, energy_model, cache_dir, clock_models = payload
    engine = _WORKER_ENGINES.get(cache_dir)
    if engine is None:
        engine = _WORKER_ENGINES[cache_dir] = ExperimentEngine(
            max_workers=1, cache_dir=cache_dir)
    engine._clock_models = clock_models
    run = engine.run_cell(spec, energy_model)
    return run, os.getpid(), _worker_cache_stats()


# --------------------------------------------------------------------------- #
# Default engine
# --------------------------------------------------------------------------- #
_DEFAULT_ENGINE: Optional[ExperimentEngine] = None


def default_engine() -> ExperimentEngine:
    """The process-wide engine used by the evaluation convenience wrappers."""
    global _DEFAULT_ENGINE
    if _DEFAULT_ENGINE is None:
        _DEFAULT_ENGINE = ExperimentEngine()
    return _DEFAULT_ENGINE
