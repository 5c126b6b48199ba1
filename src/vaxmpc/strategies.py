"""The policy names and the decreasing-age baseline.

The closed loop (:func:`vaxmpc.mpc.run_policy_loop`) dispatches on the names
in :data:`POLICIES` and applies the start-day gate and eradication latch to
every policy alike.  Each ungated day takes one of three branches: ``none``
applies the gate's zero control, ``national`` calls
:func:`national_allocate` once for all the runs of a lockstep batch that
take it that day, and ``mpc`` solves each run's own finite-horizon problem.
Age groups are ordered youngest to oldest, as in the scenario presets; the
national policy walks that order backwards.
"""

from __future__ import annotations

import numpy as np

#: Every policy name a scenario or the closed loop accepts.
POLICIES = ("none", "national", "mpc")


def national_allocate(s: np.ndarray, v_bar) -> np.ndarray:
    """Decreasing-age allocation of each row of susceptibles ``s``
    (..., n_a): fill the oldest group first.

    Each group receives at most its current susceptible count; leftover
    capacity spills over to the next younger group within the same day, so
    the full capacity is spent whenever enough susceptibles remain.
    ``v_bar`` is one capacity or one per row.  A row's doses are bitwise
    those of walking its groups one at a time, alone or in a batch.
    """
    s = np.asarray(s, dtype=float)
    oldest_first = s[..., ::-1]
    # the capacity left before each group: the walk's running subtraction,
    # in its order, so exact while each group is filled; once a group takes
    # the rest, every later entry is <= 0 and its group gets nothing
    left = np.empty(s.shape)
    left[..., 0], left[..., 1:] = v_bar, oldest_first[..., :-1]
    dose = np.minimum(np.subtract.accumulate(left, axis=-1, out=left), oldest_first)
    u = np.zeros(s.shape)
    np.copyto(u[..., ::-1], dose, where=dose > 0.0)
    return u
