"""Periodic-sensing energy model (Section 7, Equations 10-12).

The device wakes every ``T`` seconds, runs the active region (energy ``E0``,
duration ``TA``), then sleeps at quiescent power ``PS``.  Applying the
optimization scales the active energy by ``ke`` and the active time by ``kt``;
the paper's key observation is that total energy can drop even when ``ke`` is
close to 1, because a longer active region shortens the (non-free) sleep
interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

#: Sleep (quiescent) power of the paper's STM32F103RB prototype, in watts.
PAPER_SLEEP_POWER_W = 3.5e-3

#: The paper's measured case-study values for fdct (Section 7, Eq. 13).
PAPER_FDCT_E0_J = 16.9e-3
PAPER_FDCT_TA_S = 1.18
PAPER_FDCT_KE = 0.825
PAPER_FDCT_KT = 1.33


@dataclass
class SleepParameters:
    """Inputs of the case-study model."""

    active_energy_j: float          # E0
    active_time_s: float            # TA
    energy_factor: float            # ke
    time_factor: float              # kt
    sleep_power_w: float = PAPER_SLEEP_POWER_W


class PeriodicSensingModel:
    """Evaluates Equations 10-12 for a periodic-sensing application."""

    def __init__(self, params: SleepParameters):
        if params.active_time_s <= 0:
            raise ValueError("active time must be positive")
        if params.time_factor * params.active_time_s < 0:
            raise ValueError("optimized active time must be non-negative")
        self.params = params

    # ------------------------------------------------------------------ #
    def baseline_energy(self, period_s: float) -> float:
        """Equation 10: energy of one period without the optimization."""
        p = self.params
        self._check_period(period_s, p.active_time_s)
        return p.active_energy_j + p.sleep_power_w * (period_s - p.active_time_s)

    def optimized_energy(self, period_s: float) -> float:
        """Equation 11: energy of one period with the optimization applied."""
        p = self.params
        self._check_period(period_s, p.time_factor * p.active_time_s)
        return (p.energy_factor * p.active_energy_j
                + p.sleep_power_w * (period_s - p.time_factor * p.active_time_s))

    def energy_saved(self) -> float:
        """Equation 12: ``Es = E0(1-ke) + PS*TA*(kt-1)`` (period-independent)."""
        p = self.params
        return (p.active_energy_j * (1.0 - p.energy_factor)
                + p.sleep_power_w * p.active_time_s * (p.time_factor - 1.0))

    def energy_ratio(self, period_s: float) -> float:
        """Optimized / baseline energy for one period (Figure 9's y axis)."""
        return self.optimized_energy(period_s) / self.baseline_energy(period_s)

    def battery_life_extension(self, period_s: float) -> float:
        """Fractional battery-life extension at a given period.

        A battery of fixed capacity powers ``capacity / E`` periods, so the
        extension is ``E/E' - 1``.
        """
        return 1.0 / self.energy_ratio(period_s) - 1.0

    def sweep_periods(self, multiples: List[float]) -> List[dict]:
        """Evaluate the model at ``T = m * TA`` for each multiple (Figure 9).

        A row is only valid when both active regions fit in the period:
        ``TA <= T`` and ``kt * TA <= T`` (Equations 10 and 11); infeasible
        multiples are skipped rather than producing negative sleep intervals.
        """
        rows = []
        for multiple in multiples:
            period = multiple * self.params.active_time_s
            if (period < self.params.active_time_s - 1e-12
                    or period < self.params.time_factor
                    * self.params.active_time_s - 1e-12):
                continue
            rows.append({
                "period_s": period,
                "period_multiple": multiple,
                "energy_ratio": self.energy_ratio(period),
                "energy_percent": 100.0 * self.energy_ratio(period),
                "battery_extension": self.battery_life_extension(period),
            })
        return rows

    @staticmethod
    def _check_period(period_s: float, active_s: float) -> None:
        if period_s < active_s - 1e-12:
            raise ValueError(
                f"period {period_s} s is shorter than the active region {active_s} s")


def energy_saved(active_energy_j: float, active_time_s: float, energy_factor: float,
                 time_factor: float, sleep_power_w: float = PAPER_SLEEP_POWER_W) -> float:
    """Convenience wrapper around Equation 12."""
    model = PeriodicSensingModel(SleepParameters(
        active_energy_j, active_time_s, energy_factor, time_factor, sleep_power_w))
    return model.energy_saved()


def battery_life_extension(params: SleepParameters, period_s: float) -> float:
    """Convenience wrapper: battery-life extension at one period."""
    return PeriodicSensingModel(params).battery_life_extension(period_s)
