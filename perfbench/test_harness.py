"""Self-tests of the benchmark harness (wrappers, reducer, checks).

Run with ``PYTHONPATH=src python -m pytest perfbench/test_harness.py``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layertrace  # noqa: E402
from layertrace import (  # noqa: E402
    WRAPPED,
    Tracer,
    load_spans,
    reduce_spans,
    self_times,
    tail_percentile,
)
from run import store_mismatches  # noqa: E402
from workloads import WORKLOADS, draw_ratios, sweep_spec  # noqa: E402


def _targets():
    for module_name, owner, attribute, _span in WRAPPED:
        target = layertrace._resolve(module_name, owner)
        yield target, attribute, target.__dict__[attribute]


def test_wrappers_restore_the_original_functions(tmp_path):
    originals = list(_targets())
    tracer = Tracer(tmp_path, [], None).install()
    try:
        for target, attribute, original in originals:
            wrapped = target.__dict__[attribute]
            assert wrapped is not original
            assert wrapped.__wrapped__ is original
    finally:
        tracer.uninstall()
    for target, attribute, original in originals:
        assert target.__dict__[attribute] is original


def _span(pid, span_id, parent, name, start, end, cell="k"):
    return {"pid": pid, "id": span_id, "parent": parent, "name": name,
            "start": start, "end": end, "cell": cell}


def test_child_self_times_sum_to_the_cell_span():
    spans = [
        _span(1, 1, 0, "engine.cell", 0.0, 10.0),
        _span(1, 2, 1, "engine.compile", 0.5, 1.5),
        _span(1, 3, 1, "placement.ilp", 2.0, 6.0),
        _span(1, 4, 3, "sim.flat", 3.0, 4.0),  # nested two levels down
        _span(1, 5, 1, "sim.flat", 7.0, 9.0),
        _span(2, 1, 0, "engine.cell", 0.0, 3.0),  # same id, other process
    ]
    own = self_times(spans)
    assert own[(1, 1)] == pytest.approx(10.0 - 1.0 - 4.0 - 2.0)
    assert own[(1, 3)] == pytest.approx(3.0)
    assert sum(value for (pid, _), value in own.items() if pid == 1) \
        == pytest.approx(10.0)
    metrics = reduce_spans(spans, sweeps=1)
    shares = sum(metrics[f"{layer}.share"]
                 for layer in layertrace.CELL_LAYERS)
    assert shares == pytest.approx(1.0)


def test_traced_cell_self_times_sum_to_the_cell_span(tmp_path):
    from repro.engine import ExperimentEngine
    from repro.engine.cache import ProgramCache
    from repro.explore import SweepSpec

    cell = SweepSpec(benchmarks=("crc32",), x_limits=(1.1,)).cells()[0]
    engine = ExperimentEngine(cache=ProgramCache())
    tracer = Tracer(tmp_path, [cell], engine.energy_model).install()
    try:
        engine.run_spec(cell.spec)
    finally:
        tracer.uninstall()
    spans = load_spans(tmp_path)
    cells = [span for span in spans if span["name"] == "engine.cell"]
    assert len(cells) == 1 and cells[0]["cell"] == cell.key
    assert {span["cell"] for span in spans} == {cell.key}
    names = {span["name"] for span in spans}
    assert {"engine.compile", "placement.params", "placement.ilp_build",
            "placement.ilp", "transform.apply", "sim.flat"} <= names
    own = self_times(spans)
    assert sum(own.values()) == pytest.approx(
        cells[0]["end"] - cells[0]["start"], rel=1e-9)


def test_percentiles_keep_at_least_ten_samples_beyond():
    for count, expected in ((1000, 99.0), (200, 95.0), (100, 90.0),
                            (99, 75.0), (20, 50.0)):
        q, _value = tail_percentile([float(i) for i in range(count)])
        assert q == expected
        assert count * (100.0 - q) / 100.0 >= 10
    assert tail_percentile([1.0] * 19) is None


def _store(path: Path, records, meta=None) -> Path:
    from repro.engine.results import ResultStore

    return ResultStore(path).save_keyed("sweep", records, meta=meta or {})


def test_a_one_byte_store_change_is_caught(tmp_path):
    records = [{"cell_key": f"{i:016x}", "energy_j": 1.0 + i}
               for i in range(3)]
    first = _store(tmp_path / "a", records)
    assert store_mismatches(first, _store(tmp_path / "b", records)) == 0
    changed = tmp_path / "changed.json"
    data = bytearray(first.read_bytes())
    position = data.index(b"2.0")
    data[position] = ord("3")
    changed.write_bytes(bytes(data))
    assert store_mismatches(first, changed) == 1
    meta_only = _store(tmp_path / "c", records, meta={"note": 1})
    assert store_mismatches(first, meta_only) == len(records)
    torn = tmp_path / "torn.json"
    torn.write_bytes(first.read_bytes()[:-1])
    assert store_mismatches(first, torn) >= 1


def test_the_seed_sets_ratios_and_order_only():
    ratios = draw_ratios(7, 4)
    assert len(ratios) == 4 and ratios == tuple(sorted(ratios))
    assert ratios == draw_ratios(7, 4) != draw_ratios(8, 4)
    for name, workload in WORKLOADS.items():
        one, other = sweep_spec(name, 1), sweep_spec(name, 2)
        assert sorted(one.benchmarks) == sorted(other.benchmarks)
        assert one.size == other.size == 120
        assert json.dumps(one.meta()) != json.dumps(other.meta())
