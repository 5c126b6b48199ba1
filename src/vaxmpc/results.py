"""Closed-loop run records shared by the controller, audits and reporting."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .model import EpidemicState, ModelParams, Trajectory, matvec_rows

if TYPE_CHECKING:
    from .mpc import MpcConfig


def scenario_fingerprint(
    params: ModelParams, state0: EpidemicState, cfg: MpcConfig
) -> str:
    """Digest of everything two comparable runs must share.

    It covers the built model (rates, populations and the loaded, normalised
    contact matrix), the first state and its time step, and the settings
    that fix the comparison's budget and reading: ``v_bar``,
    ``vaccination_start_day``, ``strategy_horizon`` and
    ``eradication_threshold``.  Everything is hashed as float64 bits, so a
    capacity of 40000 and one of 40000.0 are the same scenario.
    """
    settings = [state0.time_step, cfg.v_bar, cfg.vaccination_start_day]
    settings += [cfg.strategy_horizon, cfg.eradication_threshold]
    values = np.concatenate(
        [params.lam, params.gamma_r, params.gamma_d, params.population]
        + [params.contact.ravel(), state0.s, state0.i, state0.r, state0.d, settings]
    )
    return hashlib.sha256(values.astype("<f8").tobytes()).hexdigest()[:16]


@dataclass(frozen=True)
class DayRecord:
    """Diagnostics for one simulated day.

    ``v_n0`` is the optimal value of the finite-horizon problem solved that
    day.  ``iterations`` is the solver's descent iteration count summed over
    its starts.  A run records only the days that solve; on every other day
    ``diagnostics.jsonl`` writes ``DayRecord(day)``, whose other fields are
    None.
    """

    day: int
    v_n0: float | None = None
    feasible: bool | None = None
    terminal_slack: float | None = None
    iterations: int | None = None

    def to_dict(self, applied_u: np.ndarray) -> dict:
        return {
            "day": self.day,
            "V_N0": self.v_n0,
            "feasible": self.feasible,
            "terminal_slack": self.terminal_slack,
            "iterations": self.iterations,
            "applied_u": [float(x) for x in applied_u],
        }


@dataclass(frozen=True, eq=False)
class ScenarioResult:
    """Everything produced by one closed-loop run.

    ``cfg`` is the controller configuration the run was simulated under.
    ``controls`` are the commanded daily vaccinations; the clamped values
    actually applied are on ``trajectory.applied_u``.  ``day_records`` has one
    entry per solved day, in order: none before the start day, after the
    eradication latch, or for non-predictive policies.  ``latch_day`` is the
    day the eradication latch closed, which is the run's eradication day
    (None if it never closed).  ``fingerprint`` is the
    :func:`scenario_fingerprint` of the run's inputs; runs are comparable
    exactly when theirs are equal.
    """

    policy: str
    trajectory: Trajectory
    controls: np.ndarray
    params: ModelParams
    cfg: MpcConfig
    day_records: list[DayRecord] = field(default_factory=list)
    latch_day: int | None = None

    @property
    def n_days(self) -> int:
        return self.trajectory.n_steps

    @property
    def fingerprint(self) -> str:
        return scenario_fingerprint(self.params, self.trajectory.state(0), self.cfg)

    def daily_deaths(self) -> np.ndarray:
        """Stage cost per state index: gamma_d' I(t) for t = 0..T."""
        return matvec_rows(self.params.gamma_d, self.trajectory.i)
