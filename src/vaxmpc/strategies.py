"""The policy names and the decreasing-age baseline.

The closed loop (:func:`vaxmpc.mpc.run_policy_loop`) dispatches on the names
in :data:`POLICIES` and applies the start-day gate and eradication latch to
every policy alike.  Each ungated day takes one of three branches: ``none``
applies the gate's zero control, ``national`` calls
:func:`national_allocate`, and ``mpc`` solves the day's finite-horizon
problem.  Age groups are ordered youngest to oldest, as in the scenario
presets; the national policy walks that order backwards.
"""

from __future__ import annotations

import numpy as np

from .model import EpidemicState

#: Every policy name a scenario or the closed loop accepts.
POLICIES = ("none", "national", "mpc")


def national_allocate(state: EpidemicState, v_bar: float) -> np.ndarray:
    """Decreasing-age allocation: fill the oldest group first.

    Each group receives at most its current susceptible count; leftover
    capacity spills over to the next younger group within the same day, so
    the full capacity is spent whenever enough susceptibles remain.
    """
    u = np.zeros(state.n_a)
    remaining = float(v_bar)
    for k in range(state.n_a - 1, -1, -1):
        if remaining <= 0.0:
            break
        dose = min(remaining, float(state.s[k]))
        if dose > 0.0:
            u[k] = dose
            remaining -= dose
    return u

