"""Finite-horizon vaccination planning and the receding-horizon closed loop.

Each day the controller minimizes the predicted death toll

    sum_{n=0}^{N-1} gamma_d' I(n)  +  (1/epsilon) gamma_d' I(N)

over daily vaccination plans u(0..N-1), each constrained to u >= 0 and
sum_k u_k <= v_bar, subject to the reduced (S, I) dynamics.  The horizon-end
state is steered into the terminal region of :mod:`vaxmpc.certificates`,
either as a hard requirement or (default) as a hinge penalty, and only the
first planned day is applied before re-solving.

The solver is projected gradient descent with analytically propagated
sensitivities through the bilinear dynamics (single shooting) and a seeded
multi-start to cope with local minima; identical inputs and seed give
bitwise-identical solutions.  The starts descend together: each round
projects, rolls out and scores up to three line-search trials of every
start still descending, at step lengths s, s/2 and s/4, as one
(N, K, n_a) batch, and takes one batched gradient for the starts that
moved.  Each start reads its trials in order and drops those after the one
that decides its step.  Every batched function gives each plan the bits it
gives that plan alone, halving is exact, and step lengths, counters and
stop rules are kept per start, so each start follows the path it would
follow on its own, one trial at a time.  Batches are day-first, plans
(N, ..., n_a) and paths (N+1, ..., n_a), so the rollout and the adjoint
each step over one contiguous block of every plan a day.

The closed loop applies the same idea one layer up: :func:`run_policy_loop`
steps a batch of runs (one run is a batch of one) in lockstep, one day at a
time for all of them, into one day-first (T+1, 4, K, n_a) block, and each
run gets the bits it gets alone.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
from dataclasses import dataclass, fields
from types import SimpleNamespace

import numpy as np

from . import strategies
from .certificates import CertificateParams, constraint_excess, disease_free, validate_epsilon
from .errors import ContractViolation, SolverFailure, ValidationError
# step is not called here, but perfbench/tracing.py patches vaxmpc.mpc.step
# by name, and every traced run would raise AttributeError without it
from .model import (EpidemicState, ModelParams, Trajectory, advance, compartment_fault,
                    matvec_rows, si_step, step, validate_control)  # noqa: F401
from .results import DayRecord, ScenarioResult

#: Weight of the terminal hinge penalty in penalty mode.
PENALTY_WEIGHT = 1e6

#: Penalty weight used to emulate the hard terminal constraint.
HARD_MODE_WEIGHT = 1e9

_ARMIJO_C = 1e-4
_MAX_BACKTRACKS = 40
#: Line-search trials a start puts into each lockstep round: s, s/2, s/4.
_SPECULATION = 3
_MAX_ITERATIONS = 150
_STEP_TOLERANCE = 1e-8
_COST_TOLERANCE = 1e-10

#: Most days a ``horizon`` or ``strategy_horizon`` may span (each is an array row).
MAX_DAYS = 100_000

#: Most seeded random starts (``n_restarts``); all starts are held at once.
MAX_RESTARTS = 1_000


def is_finite_number(value) -> bool:
    """True iff value is a real number, not a bool, that is finite as a float
    (an integer too large for a float is not): the one rule for numeric
    config entries."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


_FIELD_TYPES = {
    "int": ("an integer", lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool)),
    "float": ("a finite number", is_finite_number),
    "str": ("a string", lambda v: isinstance(v, str)),
}


def check_field_types(record) -> None:
    """Check each field of a dataclass against its annotation, the one rule
    for typed records: an ``int`` is an integer and a ``float`` a finite
    number, neither a bool; a ``str`` is a string; ``X | None`` also takes
    None.  Other annotations are not checked, and each is read as the
    string ``from __future__ import annotations`` leaves.  The first misfit
    raises a ValidationError that starts with the field's name."""
    for fld in fields(record):
        kind, _, rest = fld.type.partition(" | ")
        value = getattr(record, fld.name)
        if kind in _FIELD_TYPES and not (rest == "None" and value is None):
            what, fits = _FIELD_TYPES[kind]
            if not fits(value):
                raise ValidationError(f"{fld.name} must be {what}" + (" or null" if rest else ""))


@dataclass(frozen=True)
class MpcConfig:
    """The controller's settings: the day's problem, the loop and the starts.

    ``horizon``, ``epsilon``, ``v_bar`` and ``terminal_mode`` fix each day's
    planning problem; ``eradication_threshold`` is one positive number, the
    infected count every group must be at or below for the eradication
    latch of :func:`run_policy_loop`.  Days are one-based: the outbreak
    starts on day 1 and vaccination is allowed from
    ``vaccination_start_day`` on.  ``rng_seed`` and ``n_restarts`` set the
    solver's seeded random starts; its tolerances and iteration cap are
    module constants.  Each setting is checked when the config is built.
    """

    horizon: int = 40
    epsilon: float = 0.1
    v_bar: float = 55191.0
    eradication_threshold: float = 1.0
    strategy_horizon: int = 140
    vaccination_start_day: int = 61
    terminal_mode: str = "penalty"
    rng_seed: int = 0
    n_restarts: int = 3

    def __post_init__(self):
        check_field_types(self)
        for name in ("horizon", "strategy_horizon"):
            if not 1 <= getattr(self, name) <= MAX_DAYS:
                raise ValidationError(f"{name} must be a number of days from 1 to {MAX_DAYS}")
        if self.v_bar <= 0:
            raise ValidationError("v_bar must be positive")
        if self.eradication_threshold <= 0:
            raise ValidationError("eradication_threshold must be a positive number")
        if self.vaccination_start_day < 0:
            raise ValidationError("vaccination_start_day must be nonnegative")
        if self.terminal_mode not in ("hard", "penalty"):
            raise ValidationError("terminal_mode must be 'hard' or 'penalty'")
        if not 0 <= self.n_restarts <= MAX_RESTARTS:
            raise ValidationError(f"n_restarts must be a count from 0 to {MAX_RESTARTS}")
        if self.rng_seed < 0:
            raise ValidationError("rng_seed must be nonnegative")


@dataclass(frozen=True, eq=False)
class SiTrajectory:
    """Predicted susceptible/infected paths, shape (N+1, ..., n_a) each, and
    the doses the clamp let through on each day, shape (N, ..., n_a), as
    C-contiguous arrays; the axes between the day and the group axis, if
    any, are those of the plans rolled out (none for a single plan).

    Each plan's scores come with its path, with the plan axes leading:
    ``cost`` is the predicted deaths plus the terminal cost, ``overshoot``
    max(0, Ct_Lam . S_N - Gamma) per terminal constraint (zero where I_N is
    disease-free), and ``value`` the cost plus the weighted total
    overshoot, the objective the descent minimizes.  For a single plan
    ``cost`` and ``value`` are numpy scalars.
    """

    s: np.ndarray
    i: np.ndarray
    u: np.ndarray
    cost: np.ndarray
    overshoot: np.ndarray
    value: np.ndarray

    def take(self, plans: np.ndarray) -> "SiTrajectory":
        """The paths and scores of the given plans (an index into the plan
        axis: axis 1 of a path, axis 0 of a score)."""
        paths = (np.take(x, plans, axis=1) for x in (self.s, self.i, self.u))
        scores = (np.take(x, plans, axis=0) for x in (self.cost, self.overshoot, self.value))
        return SiTrajectory(*paths, *scores)


@dataclass(frozen=True, eq=False)
class OcpProblem:
    """One day's finite-horizon problem: the start state, the model, the
    controller's settings and the terminal set they fix."""

    s0: np.ndarray
    i0: np.ndarray
    params: ModelParams
    cfg: MpcConfig
    cert: CertificateParams

    @property
    def n_a(self) -> int:
        return self.s0.shape[0]

    @property
    def n_decision_vars(self) -> int:
        return self.cfg.horizon * self.n_a

    @property
    def effective_weight(self) -> float:
        return HARD_MODE_WEIGHT if self.cfg.terminal_mode == "hard" else PENALTY_WEIGHT


@dataclass(frozen=True, eq=False)
class OcpSolution:
    """The day problem's solution: the winning start's plan and its path.

    The winner is the start with the lowest penalized value (ties go to
    the earlier start).  ``optimal_value`` is that plan's cost, predicted
    deaths plus terminal cost without the penalty; it is the best value
    the starts found, not one the solver certifies as optimal.
    ``terminal_slack`` is the plan's total terminal overshoot, zero
    exactly when it is ``feasible``, and ``iterations`` the descent
    iterations summed over the starts.
    """

    controls: np.ndarray
    predicted: SiTrajectory
    optimal_value: float
    feasible: bool
    terminal_slack: float
    iterations: int


def build_ocp(
    state: EpidemicState, cfg: MpcConfig, params: ModelParams
) -> OcpProblem:
    """Assemble the day's planning problem from the current state.

    Epsilon is checked against the rates once, by the terminal-set
    construction.
    """
    if state.n_a != params.n_a:
        raise ContractViolation("state and params disagree on group count")
    return OcpProblem(
        s0=state.s.copy(),
        i0=state.i.copy(),
        params=params,
        cfg=cfg,
        cert=CertificateParams.from_model(params, cfg.epsilon),
    )


def predict(problem: OcpProblem, controls: np.ndarray) -> SiTrajectory:
    """The horizon's S and I paths, the applied doses and the scores of
    each plan.

    ``controls`` is one (N, n_a) plan or a day-first batch (N, ..., n_a)
    of them.  This is the planner's only pass over the dynamics and the
    only place a plan is scored; it steps with the plant's :func:`si_step`,
    so prediction equals plant stepping bitwise, and a plan's path and
    scores are the same alone or in a batch.
    """
    big_n, n = problem.cfg.horizon, problem.n_a
    if controls.ndim < 2 or (controls.shape[0], controls.shape[-1]) != (big_n, n):
        raise ContractViolation(f"plans: expected ({big_n}, ..., {n}), got {controls.shape}")
    s = np.empty((big_n + 1,) + controls.shape[1:])
    i = np.empty_like(s)
    u = np.empty(controls.shape)
    s[0], i[0] = problem.s0, problem.i0
    params, shape = problem.params, controls.shape[1:]
    # the rates si_step reads, lam and removal copied into every row: numpy
    # runs a product of same-shape arrays faster, with the same bits
    rates = SimpleNamespace(lam=np.full(shape, params.lam), contact=params.contact,
                            removal=np.full(shape, params.removal))
    for s_t, i_t, plan_t, *rows in zip(s, i, controls, s[1:], i[1:], u):
        si_step(s_t, i_t, plan_t, rates, out=rows)
    # one gemv per plan and a pairwise sum along its row of day costs keep the
    # bits of V_N0 (per-day gemvs, and a sum over the day axis, round otherwise)
    cost = (np.moveaxis(i[:big_n], 0, -2) @ params.gamma_d).sum(axis=-1)
    cost += matvec_rows(params.gamma_d, i[big_n]) / problem.cfg.epsilon
    excess = constraint_excess(s[big_n], problem.cert)
    overshoot = np.where(disease_free(i[big_n])[..., None], 0.0, np.maximum(0.0, excess))
    value = cost + problem.effective_weight * overshoot.sum(axis=-1)
    return SiTrajectory(s, i, u, cost, overshoot, value)


def project_capacity(controls: np.ndarray, v_bar: float) -> np.ndarray:
    """Euclidean projection of each row onto {u >= 0, sum(u) <= v_bar}.

    Rows are the last axis of a (..., n_a) array (a 1-D input is one row
    and comes back as shape (1, n_a)); each row is projected on its own.
    """
    controls = np.atleast_2d(np.asarray(controls, dtype=float))
    shape = controls.shape
    controls = controls.reshape(-1, shape[-1])
    clipped = np.maximum(controls, 0.0)
    over = clipped.sum(axis=1) > v_bar
    if not np.any(over):
        return clipped.reshape(shape)
    rows = controls[over]
    n = rows.shape[1]
    # column j of the rows sorted in descending order is ordered[j]; the
    # running sums are cumsum's adds in cumsum's order, one per column
    ordered = np.sort(rows, axis=1)[:, ::-1].T
    excess = np.empty(ordered.shape)
    excess[0] = ordered[0]
    for j in range(1, n):
        np.add(excess[j - 1], ordered[j], out=excess[j])
    excess -= v_bar
    # a - b > 0 exactly when a > b; rho counts the columns that pass, and a
    # row none passes (v_bar below half an ulp of its largest entry, or 0)
    # takes the first: its threshold leaves no dose rather than excess / 0
    rho = np.maximum((ordered > excess / np.arange(1, n + 1)[:, None]).sum(axis=0), 1)
    theta = excess[rho - 1, np.arange(rows.shape[0])] / rho
    out = clipped
    out[over] = np.maximum(rows - theta[:, None], 0.0)
    return out.reshape(shape)


def _gradient(
    problem: OcpProblem, controls: np.ndarray, predicted: SiTrajectory
) -> np.ndarray:
    """Adjoint-propagated gradient of each plan's penalized value, the
    ``value`` :func:`predict` scores.

    The backward pass runs on ``predicted``, the rollout of ``controls``
    (one plan or a batch): in the descent that is the path the line search
    already computed for the accepted trials, or the rollout of the start
    points.  The clamp u_eff = min(u, max(0, S - new_infections)) is
    handled by active-set bookkeeping read off that path: room is left
    exactly where S' > 0, or S' == 0 with doses applied.  Where the clamp
    binds, the control has no local effect and its gradient entry is zero.

    Everything that does not depend on the adjoints is formed before the
    backward loop, with the same per-row arithmetic, so the result is
    bitwise the same as stepping it inside the loop.  Every product with a
    matrix goes through :func:`matvec_rows`, so a plan's gradient is the
    same alone or in a batch.  Like the plans, the gradient is day-first.
    """
    params, cert = problem.params, problem.cert
    big_n = problem.cfg.horizon
    lam, gd = params.lam, params.gamma_d
    s, i, u_eff = predicted.s, predicted.i, predicted.u

    room = (s[1:] > 0) | ((s[1:] == 0) & (u_eff > 0))
    free_u = room & (u_eff == controls)  # u_eff == u and room left
    keep = ~(room & (u_eff != controls))  # False where the clamp emptied the group
    rate = lam * matvec_rows(params.contact, i[:big_n])  # as in si_step
    hold = 1.0 - rate
    lam_s = lam * s[:big_n]
    # copied into every row, as predict's rates are
    gd_rows, decay = (np.full(controls.shape[1:], x) for x in (gd, 1.0 - params.removal))
    contact_t = params.contact.T
    violated = predicted.overshoot > 0
    p_i = gd / problem.cfg.epsilon

    # p_s_path[t] is p_s on day t + 1, and day t's adjoints read p_s where
    # the clamp left room, q: where it emptied a group, q is +0.0, not the
    # -0.0 of 0.0 * p_s for p_s < 0.  Day 0 is not stepped: p_s on day 0
    # enters no gradient entry.
    p_s_path = np.empty(u_eff.shape)
    p_s = p_s_path[-1]
    p_s[...] = problem.effective_weight * matvec_rows(cert.ct_lam.T, violated.astype(float))
    days = (x[:0:-1] for x in (keep, hold, rate, lam_s))  # days N-1 down to 1
    for keep_t, hold_t, rate_t, lam_s_t, p_s_before in zip(*days, p_s_path[-2::-1]):
        q = np.where(keep_t, p_s, 0.0)
        p_s = np.add(hold_t * q, rate_t * p_i, out=p_s_before)
        p_i = gd_rows + decay * p_i + matvec_rows(contact_t, lam_s_t * (p_i - q))
    return np.where(free_u, -p_s_path, 0.0)


def _norms(plans: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each plan in an (N, K, n_a) batch.

    Each is one dot product of the plan, copied to one contiguous row, with
    itself, as ``np.linalg.norm`` takes it, so a plan gets the bits it gets
    alone (a strided row can sum in another order).
    """
    big_n, count, n = plans.shape
    flat = np.ascontiguousarray(plans.transpose(1, 0, 2)).reshape(count, big_n * n)
    return np.sqrt((flat[:, None, :] @ flat[:, :, None])[:, 0, 0])


def _descend(
    problem: OcpProblem, starts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Projected-gradient descent from every start at once.

    ``starts`` is (N, K, n_a); returns the (N, K, n_a) final plans and
    each start's value and iteration count.  Each round puts the next
    line-search trials of every start still descending, at step lengths
    s, s/2, ... (up to ``_SPECULATION`` of them, and no more than the
    start's remaining backtracks), into one batch that is projected,
    rolled out and scored at once.  Each start then takes its trials in
    order, as a sequential search would: it stops at the first trial that
    does not move, moves to the first that passes the Armijo test, or
    halves its step once per trial if all fail; later trials are dropped.
    The starts that moved take one batched gradient on the path the line
    search made.  Halving is exact in binary floating point, and step
    lengths, counters and stop rules are kept per start, so each start
    follows bitwise the path it would follow alone.
    """
    v_bar = problem.cfg.v_bar
    controls = project_capacity(starts, v_bar)
    path = predict(problem, controls)
    value = path.value
    bad = ~np.isfinite(value)
    if bad.any():
        raise SolverFailure(f"non-finite objective {value[bad][0]} at the start point")
    grad = _gradient(problem, controls, path)
    # per-start state is Python numbers, which a round reads and writes one
    # start at a time faster than numpy scalars
    step_len = [v_bar / x if x > 0 else 1.0 for x in np.max(np.abs(grad), axis=(0, 2)).tolist()]
    # backtracks counts the failed trials of the start's current iteration
    iterations, stalls, backtracks = ([0] * len(step_len) for _ in range(3))
    live = list(range(len(step_len)))
    while live:
        # each start's next trials, s, s/2, ..., no more than its backtracks left
        owner, trial_len, reads = [], [], []
        for k in live:
            iterations[k] += backtracks[k] == 0  # a new iteration, not a backtrack
            depth = min(_SPECULATION, _MAX_BACKTRACKS - backtracks[k])
            reads.append((k, range(len(owner), len(owner) + depth)))
            owner += [k] * depth
            # halved one at a time, as the search does
            trial_len += itertools.accumulate([step_len[k]] + [0.5] * (depth - 1), operator.mul)
        base = np.take(controls, owner, axis=1)
        steps = np.array(trial_len)[:, None] * np.take(grad, owner, axis=1)
        trial = project_capacity(base - steps, v_bar)
        displacement = _norms(trial - base)
        moved = displacement != 0.0
        trial_value = value[owner]  # a trial that does not move is not rolled out
        if moved.any():
            trial_path = predict(problem, np.compress(moved, trial, axis=1))
            trial_value[moved] = trial_path.value
        moves, values = displacement.tolist(), trial_value.tolist()
        # a start reads its trials in order, up to the first that decides
        ended, took, pick = set(), [], []
        for k, trials in reads:
            for j in trials:
                if moves[j] == 0.0:  # a trial that does not move ends the start
                    ended.add(k)
                    break
                if not math.isfinite(values[j]):
                    raise SolverFailure("non-finite objective during line search")
                # float ** 2 is libm's pow, which can differ from numpy's x * x
                if values[j] <= value[k] - _ARMIJO_C / trial_len[j] * moves[j] ** 2:
                    took.append(k)
                    pick.append(j)
                    break
            else:  # every trial failed: the step halves once per trial
                step_len[k], backtracks[k] = trial_len[j] * 0.5, backtracks[k] + len(trials)
                if backtracks[k] == _MAX_BACKTRACKS:
                    ended.add(k)
        taken = np.take(trial, pick, axis=1)
        controls[:, took] = taken
        going = []  # positions in took of the starts that go on
        for n, (k, j, norm) in enumerate(zip(took, pick, _norms(taken).tolist())):
            drop = value[k] - values[j]
            value[k], step_len[k], backtracks[k] = values[j], trial_len[j], 0
            stalls[k] = stalls[k] + 1 if drop <= _COST_TOLERANCE * (1.0 + abs(values[j])) else 0
            settled = moves[j] <= _STEP_TOLERANCE * (1.0 + norm)
            if settled or stalls[k] >= 3 or iterations[k] == _MAX_ITERATIONS:
                ended.add(k)
            else:
                step_len[k] = min(step_len[k] * 2.0, 1e6 * v_bar)
                going.append(n)
        if going:
            # the trials rolled out are the ones that moved, in batch order
            moving_path = trial_path.take((np.cumsum(moved) - 1)[np.take(pick, going)])
            taken = np.take(taken, going, axis=1)
            grad[:, np.take(took, going)] = _gradient(problem, taken, moving_path)
        live = [k for k in live if k not in ended]
        # let the round's trial batch go before the next one is built
        base = steps = trial = taken = trial_path = moving_path = None
    return controls, value, np.array(iterations)


#: Enumerate every bang-bang day pattern as extra starts while
#: (n_a + 1) ** horizon stays at or below this; switching optima on tiny
#: instances are otherwise easy to miss.
_PATTERN_START_LIMIT = 64


def _start_points(
    problem: OcpProblem, warm_start: np.ndarray | None
) -> np.ndarray:
    """The (N, K, n_a) start plans, in the order that breaks ties."""
    n, big_n, v_bar = problem.n_a, problem.cfg.horizon, problem.cfg.v_bar
    starts: list[np.ndarray] = []
    if warm_start is not None:
        warm = np.asarray(warm_start, dtype=float)
        if warm.shape != (big_n, n):
            raise ContractViolation(
                f"warm start: expected shape ({big_n}, {n}), got {warm.shape}"
            )
        starts.append(warm)
    starts.append(np.zeros((big_n, n)))
    starts.append(np.full((big_n, n), v_bar / n))
    for k in range(n):
        block = np.zeros((big_n, n))
        block[:, k] = v_bar
        starts.append(block)
    if (n + 1) ** big_n <= _PATTERN_START_LIMIT:
        day_choices = [np.zeros(n)] + [v_bar * row for row in np.eye(n)]
        for combo in itertools.product(range(n + 1), repeat=big_n):
            if all(c == combo[0] for c in combo):
                continue  # constant patterns are already in the start list
            starts.append(np.array([day_choices[c] for c in combo]))
    rng = np.random.default_rng(problem.cfg.rng_seed)
    for _ in range(problem.cfg.n_restarts):
        starts.append(rng.uniform(0.0, v_bar, size=(big_n, n)))
    return np.stack(starts, axis=1)


def solve_ocp(
    problem: OcpProblem, warm_start: np.ndarray | None = None
) -> OcpSolution:
    """Best control plan over the multi-start set (deterministic tie-break).

    The starts come in a fixed order (warm start first, then structured
    and seeded random points) and are descended together; the lowest
    penalized objective wins and ties go to the earlier start.
    """
    controls, values, iterations = _descend(problem, _start_points(problem, warm_start))
    best = int(np.argmin(values))  # the first lowest: ties go to the earlier start
    predicted = predict(problem, controls[:, best])
    slack = float(predicted.overshoot.sum())
    return OcpSolution(
        controls=controls[:, best].copy(),
        predicted=predicted,
        optimal_value=float(predicted.cost),
        feasible=slack == 0.0,
        terminal_slack=slack,
        iterations=int(iterations.sum()),
    )


def check_loop_inputs(
    state0: EpidemicState, cfg: MpcConfig, params: ModelParams, policy: str
) -> None:
    """The closed loop's up-front rules, checked before any day is simulated:
    a known policy, ``epsilon`` inside the model's range, a start state that
    conserves each group's population, and a vaccination start day inside
    the simulated window."""
    if policy not in strategies.POLICIES:
        raise ValidationError(f"unknown policy {policy!r}")
    validate_epsilon(cfg.epsilon, params.removal)
    state0.validate(params)
    if cfg.vaccination_start_day > state0.time_step + cfg.strategy_horizon:
        raise ValidationError("vaccination_start_day lies beyond the simulated horizon")


def _check_controls(u: np.ndarray, days: np.ndarray) -> None:
    """Check a day's (K, n_a) controls by :func:`validate_control`'s rule;
    an error names the day of the first bad row."""
    if not (u.min(initial=0.0) >= 0.0 and u.max(initial=0.0) < np.inf):
        for row, day in zip(u, days):
            try:
                validate_control(row, u.shape[-1])
            except ValidationError as exc:
                raise ValidationError(f"day {day}: {exc}") from exc


def run_policy_loop(state0, cfg, params, policy="mpc"):
    """Simulate the closed loop for any policy with shared gate semantics.

    Every policy sees the same start-day gate and the same eradication
    latch.  Each day takes the first branch that applies:

    - gated: before ``vaccination_start_day``, or after the latch, the
      control is zero (every ungated day of ``none`` is zero too);
    - the latch: the first vaccination day on which every group's infected
      count is at or below the threshold (the run's ``latch_day``, also its
      eradication day) applies zero and gates every later day;
    - ``national``: :func:`strategies.national_allocate` at capacity ``v_bar``;
    - ``mpc``: the day's problem is solved, warm-started with the previous
      plan shifted by one day and padded with zeros, and the plan's first
      day is applied and the solve recorded.

    Given lists of first states, configs, models and policies, one entry
    per run, it simulates the runs in lockstep and returns their results
    in order; a single run is a batch of one.  The runs, which must share
    one group count, fill one day-first (T+1, 4, K, n_a) block a day at a
    time for all of them (it is stored run-first, so each result keeps its
    rows without a copy): the gate and latch are row masks, the
    ``national`` rows are allocated in one call, each ``mpc`` row solves
    its own problem with its own warm start, and one :func:`advance` steps
    every row with its own rates.  Each run gets the bits it gets alone.
    Each day's controls are checked before they are applied, and the block
    once, at the end; an error names the day.
    """
    single = not isinstance(state0, list)
    if single:
        state0, cfg, params, policy = [state0], [cfg], [params], [policy]
    for run in zip(state0, cfg, params, policy, strict=True):
        check_loop_inputs(*run)
    count, n = len(state0), params[0].n_a
    if any(p.n_a != n for p in params):
        raise ContractViolation("the runs of one batch must share one group count")
    horizon, start, v_bar = (np.array([getattr(c, name) for c in cfg]) for name in (
        "strategy_horizon", "vaccination_start_day", "v_bar"))
    threshold = np.array([[c.eradication_threshold] for c in cfg])
    first_day = np.array([x.day for x in state0])
    national = np.array(policy) == "national"
    predictive = np.array(policy) == "mpc"
    # one rate row per run; contact is (K, n_a, n_a), one gemv per run
    rates = SimpleNamespace(**{name: np.array([getattr(p, name) for p in params])
                               for name in ("lam", "contact", "removal", "gamma_r", "gamma_d")})
    n_days = int(horizon.max())
    # stored run-first, so a run's compartments, doses and controls are
    # C-contiguous blocks its result keeps; stepped day-first through views
    block = np.empty((count, 4, n_days + 1, n)).transpose(2, 1, 0, 3)
    block[0] = np.array([[x.s, x.i, x.r, x.d] for x in state0]).swapaxes(0, 1)
    controls, applied = (np.zeros((count, n_days, n)).swapaxes(0, 1) for _ in range(2))
    latch_day, warm, solved = [None] * count, [None] * count, [[] for _ in range(count)]
    days = first_day + np.arange(n_days)[:, None]  # (T, K): each run's day at each step
    window = (days >= start) & (days - first_day < horizon)  # the gate's open days
    unlatched = np.ones(count, dtype=bool)
    for t, day in enumerate(days):
        u = controls[t]
        ungated = unlatched & window[t]
        latch = ungated & (block[t, 1] <= threshold).all(axis=1)
        if latch.any():
            for k in np.flatnonzero(latch).tolist():
                latch_day[k] = int(day[k])
            unlatched &= ~latch
            ungated &= ~latch
        rows = ungated & national
        if rows.any():
            u[rows] = strategies.national_allocate(block[t, 0, rows], v_bar[rows])
        for k in np.flatnonzero(ungated & predictive).tolist():
            state = EpidemicState(*block[t, :, k], time_step=int(day[k]) - 1)
            try:
                solution = solve_ocp(build_ocp(state, cfg[k], params[k]), warm_start=warm[k])
            except SolverFailure as exc:
                raise SolverFailure(f"day {day[k]}: {exc}") from exc
            u[k] = solution.controls[0]
            warm[k] = np.vstack([solution.controls[1:], np.zeros((1, n))])
            solved[k].append(DayRecord(int(day[k]), solution.optimal_value, solution.feasible,
                                       solution.terminal_slack, solution.iterations))
        _check_controls(u, day)
        advance(block[t], u, rates, block[t + 1], applied[t])
    results = []
    for k, n_steps in enumerate(horizon.tolist()):
        fault = compartment_fault(block[: n_steps + 1, :, k])
        if fault is not None:
            raise ValidationError(f"day {first_day[k] + fault[0]}: {fault[1]}")
        trajectory = Trajectory.from_block(
            block[: n_steps + 1, :, k], applied[:n_steps, k], state0[k].time_step)
        results.append(ScenarioResult(policy[k], trajectory, controls[:n_steps, k],
                                      params[k], cfg[k], solved[k], latch_day[k]))
    return results[0] if single else results
