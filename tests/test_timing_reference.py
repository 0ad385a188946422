"""Pinned pipelined and icache simulations of every BEEBS kernel.

``tests/data/reference_timing_runs.json`` records, for all 10 BEEBS
benchmarks at O2 and Os under ``pipelined``, ``pipelined+icache`` and
``pipelined+icache:32x8``, one simulation of the pristine program and one of
its ILP placement (X_limit 1.5, static F_b, solved under the same timing
model).  Each run keeps its return value, cycle and instruction totals,
per-section cycles, and SHA-256 digests of its sorted energy-event counts and
block profile.  The placed RAM block sets are stored too, so the test
re-applies them instead of re-solving: it pins the simulator, not the solver.

The placed programs execute blocks from RAM, which exercises RAM fetches,
the RAM-bus contention stall and (with an icache) the cache-bypassing RAM
fetch path next to the flash fetches of the unplaced blocks.

Regenerate (only from a simulator whose pipelined results are trusted)::

    PYTHONPATH=src python tests/test_timing_reference.py --write
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os

import pytest

from repro.beebs import BENCHMARK_NAMES
from repro.engine import default_cache
from repro.placement import FlashRAMOptimizer, PlacementConfig
from repro.sim import Simulator
from repro.transform.relocation import apply_placement

REFERENCE = os.path.join(os.path.dirname(__file__), "data",
                         "reference_timing_runs.json")
LEVELS = ("O2", "Os")
TIMING_MODELS = ("pipelined", "pipelined+icache", "pipelined+icache:32x8")
X_LIMIT = 1.5
STACK_RESERVE = 1024


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def run_record(result) -> dict:
    """The pinned observables of one simulation."""
    counts = sorted(([list(key), count]
                     for key, count in result.energy_counts.items()),
                    key=lambda item: repr(item[0]))
    return {
        "return_value": result.return_value,
        "cycles": result.cycles,
        "instructions": result.instructions,
        "cycles_by_section": dict(result.cycles_by_section),
        "energy_counts_sha256": _digest(counts),
        "profile_sha256": _digest({"counts": result.profile.counts,
                                   "cycles": result.profile.cycles}),
    }


def _run(program, timing_model: str) -> dict:
    return run_record(Simulator(program, timing_model=timing_model).run())


def generate() -> dict:
    """Solve every placement and record every run with the current code."""
    cache = default_cache()
    runs = {}
    for name in BENCHMARK_NAMES:
        for level in LEVELS:
            for model in TIMING_MODELS:
                program = cache.get_benchmark_mutable(name, level)
                pristine = _run(program, model)
                config = PlacementConfig(x_limit=X_LIMIT,
                                         frequency_mode="static",
                                         stack_reserve=STACK_RESERVE,
                                         timing_model=model)
                solution = FlashRAMOptimizer(program, config=config).optimize()
                runs[f"{name}/{level}/{model}"] = {
                    "pristine": pristine,
                    "ram_blocks": sorted(solution.ram_blocks),
                    "placed": _run(program, model),
                }
    return {"x_limit": X_LIMIT, "frequency_mode": "static",
            "stack_reserve": STACK_RESERVE, "runs": runs}


def _load() -> dict:
    with open(REFERENCE) as handle:
        return json.load(handle)["runs"]


def test_reference_covers_the_grid_and_places_blocks_in_ram():
    runs = _load()
    assert sorted(runs) == sorted(f"{name}/{level}/{model}"
                                  for name in BENCHMARK_NAMES
                                  for level in LEVELS
                                  for model in TIMING_MODELS)
    placed = [entry for entry in runs.values() if entry["ram_blocks"]]
    assert len(placed) >= len(runs) // 2
    assert any(entry["placed"]["cycles_by_section"]["ram"] for entry in placed)


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_pipelined_runs_match_the_reference(name):
    runs = _load()
    cache = default_cache()
    for level in LEVELS:
        for model in TIMING_MODELS:
            key = f"{name}/{level}/{model}"
            expected = runs[key]
            program = cache.get_benchmark_mutable(name, level)
            assert _run(program, model) == expected["pristine"], key
            apply_placement(program, expected["ram_blocks"],
                            stack_reserve=STACK_RESERVE)
            assert _run(program, model) == expected["placed"], key


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help=f"write {os.path.relpath(REFERENCE)}")
    args = parser.parse_args()
    data = generate()
    if args.write:
        with open(REFERENCE, "w") as handle:
            json.dump(data, handle, indent=1, sort_keys=True)
            handle.write("\n")
    else:
        print(json.dumps(data, indent=1, sort_keys=True))
