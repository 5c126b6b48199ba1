"""Closed-loop run records shared by the controller, audits and reporting."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import ModelParams, Trajectory, matvec_rows


@dataclass(frozen=True)
class DayRecord:
    """Diagnostics for one simulated day.

    ``v_n0`` is the optimal value of the finite-horizon problem solved that
    day (None when no solve ran: before the start day, after the eradication
    latch, or for non-predictive policies).  ``iterations`` is the solver's
    descent iteration count summed over its starts, also None without a
    solve.
    """

    day: int
    v_n0: float | None = None
    feasible: bool | None = None
    terminal_slack: float | None = None
    iterations: int | None = None

    def to_dict(self, applied_u: np.ndarray | None = None) -> dict:
        rec = {
            "day": self.day,
            "V_N0": self.v_n0,
            "feasible": self.feasible,
            "terminal_slack": self.terminal_slack,
            "iterations": self.iterations,
        }
        if applied_u is not None:
            rec["applied_u"] = [float(x) for x in applied_u]
        return rec


@dataclass(frozen=True)
class ScenarioResult:
    """Everything produced by one closed-loop run.

    ``controls`` are the commanded daily vaccinations; the clamped values
    actually applied are on ``trajectory.applied_u``.  ``day_records`` has one
    entry per simulated day, in order.  ``latch_day`` is the day the
    eradication latch closed, which is the run's eradication day (None if it
    never closed).
    """

    policy: str
    trajectory: Trajectory
    controls: np.ndarray
    params: ModelParams
    v_bar: float
    vaccination_start_day: int
    day_records: list[DayRecord] = field(default_factory=list)
    latch_day: int | None = None

    @property
    def n_days(self) -> int:
        return self.trajectory.n_steps

    @property
    def applied(self) -> np.ndarray:
        return self.trajectory.applied_u

    def daily_deaths(self) -> np.ndarray:
        """Stage cost per state index: gamma_d' I(t) for t = 0..T."""
        return matvec_rows(self.params.gamma_d, self.trajectory.i)
