"""One measured process of the benchmark: set-up probe or one sweep.

``run.py`` starts this script in a fresh process for every probe and every
sweep, so each sweep starts cold, as a ``repro-eval explore`` invocation
does, and the peak memory is the sweep's own::

    python3 perfbench/driver.py --role setup --workload ilp-tight --seed 1
    python3 perfbench/driver.py --role sweep --workload ilp-tight --seed 1 \\
        --out DIR [--trace]

``setup``      prints the seconds taken by ``import repro``, spec enumeration
               and engine construction.
``sweep``      runs the workload's sweep once through ``execute_sweep`` the
               way the workload runs it.  With ``--trace`` the layer wrappers
               of ``layertrace`` are installed first and spans go to
               ``DIR/trace``.
``reference``  runs the sweep once in this process (``max_workers=1``): the
               store fleet-mixed must match.

``sweep`` and ``reference`` write ``DIR/result.json``: the sweep's cell
count, wall seconds, start time and store digest; the baseline and placed
return value of every cell run in this process; and the peak resident
memory of this process and of its largest child.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from workloads import WORKLOADS, fresh_engine, sweep_spec  # noqa: E402

STORE_NAME = "sweep"


def probe_setup(workload: str, seed: int) -> float:
    start = time.perf_counter()
    import repro  # noqa: F401
    from repro.engine import ExperimentEngine

    sweep_spec(workload, seed).cells()
    ExperimentEngine()
    return time.perf_counter() - start


def capture_returns(returns: dict):
    """Record each cell's baseline and placed return values as the sweep
    collects its runs; return a function that removes the hook again."""
    import repro.explore.sweep as sweep_module

    original = sweep_module.run_sweep_cells

    def run_sweep_cells(cells, *args, **kwargs):
        runs = original(cells, *args, **kwargs)
        for cell, run in zip(cells, runs):
            returns[cell.key] = [
                cell.spec.benchmark, cell.spec.opt_level,
                run.baseline.return_value,
                run.optimized.return_value if run.optimized else None]
        return runs

    sweep_module.run_sweep_cells = run_sweep_cells
    return lambda: setattr(sweep_module, "run_sweep_cells", original)


def run_sweep(args, out: Path) -> dict:
    from repro.engine.results import ResultStore
    from repro.explore import execute_sweep

    spec = sweep_spec(args.workload, args.seed)
    if args.role == "reference":
        kwargs = {"engine": fresh_engine(), "max_workers": 1}
    else:
        kwargs = WORKLOADS[args.workload].execute_kwargs()
    returns: dict = {}
    restore = capture_returns(returns)
    untrace = install_tracer(spec, out / "trace") if args.trace else None
    try:
        start = time.perf_counter()
        summary = execute_sweep(spec, store=ResultStore(out / "store"),
                                name=STORE_NAME, **kwargs)
        seconds = time.perf_counter() - start
    finally:
        if untrace is not None:
            untrace()
        restore()
    path = Path(summary["path"])
    return {"cells": summary["cells"], "seconds": seconds, "start": start,
            "store": str(path),
            "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
            "bytes": path.stat().st_size,
            "returns": returns,
            "peak_rss_kb": max(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)}


def install_tracer(spec, trace_dir: Path):
    """Wrap every layer in this process and in the workers it starts;
    return a function that removes the wrappers again."""
    import functools

    import repro.distrib.local as local
    from layertrace import Tracer, traced_worker_entry
    from repro.sim.energy import EnergyModel

    tracer = Tracer(trace_dir, spec.cells(), EnergyModel()).install()
    # Spawned fleet workers import a clean interpreter, so they enter
    # through the benchmark's own entry, which installs a tracer there.
    original = local.worker_process_entry
    local.worker_process_entry = functools.partial(
        traced_worker_entry, trace_dir=str(trace_dir),
        sweep_meta=spec.meta())

    def uninstall() -> None:
        local.worker_process_entry = original
        tracer.uninstall()

    return uninstall


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--role", required=True,
                        choices=("setup", "sweep", "reference"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.role == "setup":
        print(json.dumps({"setup_s": probe_setup(args.workload, args.seed)}))
        return 0
    if args.out is None:
        parser.error("--out is required for the sweep and reference roles")
    args.out.mkdir(parents=True, exist_ok=True)
    result = run_sweep(args, args.out)
    (args.out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
