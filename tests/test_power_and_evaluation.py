"""Sleep-model (case study) tests and evaluation-harness smoke tests."""

import pytest

from repro.evaluation.case_study import paper_worked_example
from repro.evaluation.figure1 import instruction_power_rows
from repro.evaluation.figure2 import motivating_example_report
from repro.evaluation.figure5 import evaluate_suite, summarize
from repro.power import PeriodicSensingModel, SleepParameters
from repro.power.sleep_model import (
    PAPER_FDCT_E0_J,
    PAPER_FDCT_KE,
    PAPER_FDCT_KT,
    PAPER_FDCT_TA_S,
    energy_saved,
)


# --------------------------------------------------------------------------- #
# Equations 10-12 and the paper's worked example
# --------------------------------------------------------------------------- #
def make_model(ke=PAPER_FDCT_KE, kt=PAPER_FDCT_KT):
    return PeriodicSensingModel(SleepParameters(
        active_energy_j=PAPER_FDCT_E0_J, active_time_s=PAPER_FDCT_TA_S,
        energy_factor=ke, time_factor=kt))


def test_paper_energy_saved_value():
    # The paper derives Es = 4.32 mJ from Eq. 12 with its fdct numbers.
    saved = energy_saved(PAPER_FDCT_E0_J, PAPER_FDCT_TA_S,
                         PAPER_FDCT_KE, PAPER_FDCT_KT)
    assert saved == pytest.approx(4.32e-3, rel=0.02)
    report = paper_worked_example()
    assert report["energy_saved_j"] == pytest.approx(report["paper_energy_saved_j"],
                                                     rel=0.02)


def test_energy_saved_is_period_independent():
    model = make_model()
    for period in (2.0, 5.0, 20.0):
        saved = model.baseline_energy(period) - model.optimized_energy(period)
        assert saved == pytest.approx(model.energy_saved(), rel=1e-9)


def test_energy_can_drop_even_without_active_region_saving():
    # ke = 1 (no active-region energy saving) but kt > 1 still reduces total
    # energy: the paper's Figure 8 observation.
    model = make_model(ke=1.0, kt=1.3)
    assert model.energy_saved() > 0
    assert model.energy_ratio(5.0) < 1.0


def test_small_periods_benefit_more():
    model = make_model()
    ratios = [model.energy_ratio(m * PAPER_FDCT_TA_S) for m in (1.5, 3, 6, 12)]
    assert ratios == sorted(ratios)          # saving shrinks as T grows
    assert ratios[0] < 0.85                  # ~>15 % saving at small periods
    assert ratios[-1] > ratios[0]


def test_battery_life_extension_around_paper_value():
    model = make_model()
    best = model.battery_life_extension(PAPER_FDCT_KT * PAPER_FDCT_TA_S)
    # The paper quotes "up to 32 %" battery-life extension.
    assert 0.20 < best < 0.45


def test_invalid_period_rejected():
    model = make_model()
    with pytest.raises(ValueError):
        model.baseline_energy(0.5)          # shorter than the active region
    with pytest.raises(ValueError):
        PeriodicSensingModel(SleepParameters(1.0, 0.0, 1.0, 1.0))


def test_sweep_periods_skips_infeasible_multiples():
    rows = make_model().sweep_periods([0.5, 2, 4])
    assert [row["period_multiple"] for row in rows] == [2, 4]
    assert all(0 < row["energy_ratio"] <= 1.0 for row in rows)


def test_sweep_periods_rows_satisfy_both_active_regions():
    # Every emitted row must satisfy TA <= T and kt*TA <= T (Eqs. 10-11);
    # a multiple exactly at kt is the boundary and must be kept.
    model = make_model(kt=1.33)
    rows = model.sweep_periods([1.0, 1.2, 1.33, 1.5, 3.0])
    assert [row["period_multiple"] for row in rows] == [1.33, 1.5, 3.0]
    p = model.params
    for row in rows:
        assert row["period_s"] >= p.active_time_s - 1e-12
        assert row["period_s"] >= p.time_factor * p.active_time_s - 1e-12


# --------------------------------------------------------------------------- #
# Figure 1 microbenchmarks
# --------------------------------------------------------------------------- #
def test_figure1_ram_saves_power_except_for_flash_loads():
    rows = {row["instruction"]: row for row in instruction_power_rows()}
    for kind in ("store", "ram load", "add", "nop", "branch"):
        assert rows[kind]["ram_power_mw"] < rows[kind]["flash_power_mw"], kind
        assert rows[kind]["ram_saving_percent"] > 15.0
    # Loading flash-resident data while executing from RAM saves little.
    assert rows["flash load"]["ram_saving_percent"] < 15.0


# --------------------------------------------------------------------------- #
# Figure 2 motivating example
# --------------------------------------------------------------------------- #
def test_figure2_moves_the_loop_and_preserves_the_result():
    report = motivating_example_report()
    assert report["result_preserved"]
    assert report["loop_blocks_in_ram"], "the hot loop should be moved to RAM"
    assert report["energy_change"] < 0
    assert report["power_change"] < 0


# --------------------------------------------------------------------------- #
# Figure 5 (small subset as a smoke test; the full sweep is a benchmark)
# --------------------------------------------------------------------------- #
def test_figure5_subset_shows_paper_trends():
    rows = evaluate_suite(benchmarks=["int_matmult", "crc32"], levels=["O2"])
    summary = summarize(rows)
    assert summary["rows"] == 2
    # Energy goes down, power goes down, time goes up (paper's direction).
    assert summary["average_energy_change"] < 0
    assert summary["average_power_change"] < -0.05
    assert summary["average_time_change"] >= 0
    for row in rows:
        assert row.blocks_moved > 0
