"""Shared test helpers."""

from __future__ import annotations

import pytest

from repro.codegen import CompileOptions, compile_source
from repro.sim import Simulator


def compile_program(source: str, opt_level: str = "O2"):
    """Compile mini-C source into a linked machine program."""
    return compile_source(source, CompileOptions.for_level(opt_level))


def compile_and_run(source: str, opt_level: str = "O2", entry: str = "main",
                    args=None):
    """Compile mini-C source and simulate it, returning the SimulationResult."""
    return Simulator(compile_program(source, opt_level)).run(entry=entry,
                                                              args=args)


def run_all_levels(source: str, levels=("O0", "O1", "O2", "O3", "Os")):
    """Run the same source at several optimization levels; return results dict."""
    return {level: compile_and_run(source, level) for level in levels}


@pytest.fixture
def helpers():
    class Helpers:
        compile_and_run = staticmethod(compile_and_run)
        run_all_levels = staticmethod(run_all_levels)
    return Helpers
