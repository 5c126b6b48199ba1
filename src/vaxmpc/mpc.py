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
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from . import strategies
from .certificates import CertificateParams, constraint_excess, disease_free, validate_epsilon
from .errors import ContractViolation, SolverFailure, ValidationError
from .model import EpidemicState, ModelParams, Trajectory, matvec_rows, si_step, step
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


@dataclass(frozen=True)
class SiTrajectory:
    """Predicted susceptible/infected paths, shape (N+1, ..., n_a) each, and
    the doses the clamp let through on each day, shape (N, ..., n_a), as
    C-contiguous arrays; the axes between the day and the group axis, if
    any, are those of the plans rolled out (none for a single plan)."""

    s: np.ndarray
    i: np.ndarray
    u: np.ndarray

    def take(self, plans: np.ndarray) -> "SiTrajectory":
        """The paths of the given plans (an index into the plan axis, axis 1)."""
        return SiTrajectory(*(np.take(x, plans, axis=1) for x in (self.s, self.i, self.u)))


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class OcpSolution:
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


def _per_plan(values: np.ndarray):
    """A float for one plan, the array over the leading axes for a batch."""
    return float(values) if np.ndim(values) == 0 else values


def predict(problem: OcpProblem, controls: np.ndarray) -> SiTrajectory:
    """The horizon's S and I paths and the applied doses of each plan.

    ``controls`` is one (N, n_a) plan or a day-first batch (N, ..., n_a)
    of them.  This is the planner's only pass over the dynamics; it steps
    with the plant's :func:`si_step`, so prediction equals plant stepping
    bitwise, and a plan's path is the same alone or in a batch.
    """
    big_n, n = problem.cfg.horizon, problem.n_a
    if controls.ndim < 2 or (controls.shape[0], controls.shape[-1]) != (big_n, n):
        raise ContractViolation(f"plans: expected ({big_n}, ..., {n}), got {controls.shape}")
    s = np.empty((big_n + 1,) + controls.shape[1:])
    i = np.empty_like(s)
    u = np.empty(controls.shape)
    s[0], i[0] = problem.s0, problem.i0
    for t in range(big_n):
        s[t + 1], i[t + 1], u[t] = si_step(s[t], i[t], controls[t], problem.params)
    return SiTrajectory(s, i, u)


def plan_cost(problem: OcpProblem, predicted: SiTrajectory):
    """Predicted deaths over the horizon plus the terminal cost, per plan."""
    gd, big_n = problem.params.gamma_d, problem.cfg.horizon
    # one gemv per plan and a pairwise sum along its row of day costs keep the
    # bits of V_N0 (per-day gemvs, and a sum over the day axis, round otherwise)
    running = (np.moveaxis(predicted.i[:big_n], 0, -2) @ gd).sum(axis=-1)
    terminal = matvec_rows(gd, predicted.i[big_n]) / problem.cfg.epsilon
    return _per_plan(running + terminal)


def _terminal_overshoot(problem: OcpProblem, predicted: SiTrajectory) -> np.ndarray:
    """max(0, Ct_Lam . S_N - Gamma) per constraint and plan; zero for a plan
    whose I_N is disease-free."""
    big_n = problem.cfg.horizon
    excess = constraint_excess(predicted.s[big_n], problem.cert)
    free = disease_free(predicted.i[big_n])[..., None]
    return np.where(free, 0.0, np.maximum(0.0, excess))


def terminal_slack(problem: OcpProblem, predicted: SiTrajectory):
    """Total violation of the terminal-set constraint at the horizon end, per plan."""
    return _per_plan(_terminal_overshoot(problem, predicted).sum(axis=-1))


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
    ordered = np.sort(rows, axis=1)[:, ::-1]
    excess = np.cumsum(ordered, axis=1) - v_bar
    idx = np.arange(1, n + 1)
    rho = np.count_nonzero(ordered - excess / idx > 0, axis=1)
    theta = excess[np.arange(rows.shape[0]), rho - 1] / rho
    out = clipped
    out[over] = np.maximum(rows - theta[:, None], 0.0)
    return out.reshape(shape)


def _penalized_value(problem: OcpProblem, predicted: SiTrajectory):
    """Plan cost plus the weighted terminal slack of each predicted path."""
    value = plan_cost(problem, predicted)
    value += problem.effective_weight * terminal_slack(problem, predicted)
    return value


def _gradient(
    problem: OcpProblem, controls: np.ndarray, predicted: SiTrajectory
) -> np.ndarray:
    """Adjoint-propagated gradient of :func:`_penalized_value`, per plan.

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
    decay = 1.0 - params.removal
    contact_t = params.contact.T
    violated = _terminal_overshoot(problem, predicted) > 0
    p_i = gd / problem.cfg.epsilon

    # p_s_path[t] is p_s on day t + 1.  Where the clamp emptied a group, the
    # day before keeps its zero: +0.0, not the -0.0 of 0.0 * p_s for p_s < 0.
    p_s_path = np.zeros(u_eff.shape)
    p_s_path[-1] = problem.effective_weight * matvec_rows(cert.ct_lam.T, violated.astype(float))
    for t in range(big_n - 1, -1, -1):
        p_s = p_s_path[t]
        if t:  # p_s on day 0 enters no gradient entry
            p_s_next = np.multiply(hold[t], p_s, out=p_s_path[t - 1], where=keep[t])
            p_s_next += rate[t] * p_i
        flow = lam_s[t] * (p_i - keep[t] * p_s)
        p_i = gd + decay * p_i + matvec_rows(contact_t, flow)
    return np.where(free_u, -p_s_path, 0.0)


def _norms(plans: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each plan in an (N, K, n_a) batch.

    Each is one dot product of the plan, copied to one contiguous row, with
    itself, as ``np.linalg.norm`` takes it, so a plan gets the bits it gets
    alone (a strided row can sum in another order).
    """
    big_n, count, n = plans.shape
    flat = np.ascontiguousarray(np.moveaxis(plans, 1, 0)).reshape(count, big_n * n)
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
    value = _penalized_value(problem, path)
    bad = ~np.isfinite(value)
    if bad.any():
        raise SolverFailure(f"non-finite objective {value[bad][0]} at the start point")
    grad = _gradient(problem, controls, path)
    count = starts.shape[1]
    scale = np.max(np.abs(grad), axis=(0, 2))
    step_len = np.ones(count)
    step_len[scale > 0] = v_bar / scale[scale > 0]
    iterations = np.zeros(count, dtype=int)
    stalls = np.zeros(count, dtype=int)
    backtracks = np.zeros(count, dtype=int)  # failed trials this iteration
    live = np.ones(count, dtype=bool)
    while live.any():
        rows = np.flatnonzero(live)
        iterations[rows[backtracks[rows] == 0]] += 1
        # each start's next trials, s, s/2, ..., no more than its backtracks left
        depth = np.minimum(_SPECULATION, _MAX_BACKTRACKS - backtracks[rows])
        tried = np.arange(_SPECULATION) < depth[:, None]
        halving = np.full(tried.shape, 0.5)
        halving[:, 0] = step_len[rows]
        lengths = np.cumprod(halving, axis=1)  # halved one at a time, as the search does
        owner, trial_len = rows[np.nonzero(tried)[0]], lengths[tried]
        base = np.take(controls, owner, axis=1)
        trial = project_capacity(base - trial_len[:, None] * np.take(grad, owner, axis=1), v_bar)
        displacement = _norms(trial - base)
        moved = displacement != 0.0
        trial_value = value[owner]  # a trial that does not move is not rolled out
        if moved.any():
            trial_path = predict(problem, np.compress(moved, trial, axis=1))
            trial_value[moved] = _penalized_value(problem, trial_path)
        # float ** 2 is libm's pow, which can differ from numpy's x * x
        squared = np.array([d**2 for d in displacement.tolist()])
        passed = trial_value <= value[owner] - _ARMIJO_C / trial_len * squared
        # a start reads its trials in order, up to the first that decides
        decides = np.zeros(tried.shape, dtype=bool)
        decides[tried] = ~moved | ~np.isfinite(trial_value) | passed
        decided = decides.any(axis=1)

        # a start whose trials all fail halves its step once per trial
        failed = rows[~decided]
        step_len[failed] = lengths[~decided, depth[~decided] - 1] * 0.5
        backtracks[failed] += depth[~decided]
        live[failed[backtracks[failed] == _MAX_BACKTRACKS]] = False

        # each decided start's deciding trial, as an index into the batch
        pick = (np.cumsum(depth) - depth + decides.argmax(axis=1))[decided]
        # a non-finite trial decides, so only one a start reads can fail it
        if not np.all(np.isfinite(trial_value[pick])):
            raise SolverFailure("non-finite objective during line search")
        live[owner[pick[~moved[pick]]]] = False
        pick = pick[moved[pick]]
        took = owner[pick]
        drop = value[took] - trial_value[pick]
        taken = np.take(trial, pick, axis=1)
        controls[:, took], value[took] = taken, trial_value[pick]
        step_len[took], backtracks[took] = trial_len[pick], 0
        settled = displacement[pick] <= _STEP_TOLERANCE * (1.0 + _norms(taken))
        stalled = drop <= _COST_TOLERANCE * (1.0 + np.abs(value[took]))
        stalls[took] = np.where(stalled, stalls[took] + 1, 0)
        ended = settled | (stalls[took] >= 3) | (iterations[took] == _MAX_ITERATIONS)
        live[took[ended]] = False
        going = ~ended
        took = took[going]
        if took.size:
            step_len[took] = np.minimum(step_len[took] * 2.0, 1e6 * v_bar)
            # the trials rolled out are the ones that moved, in batch order
            moving_path = trial_path.take(np.cumsum(moved)[pick[going]] - 1)
            grad[:, took] = _gradient(problem, np.compress(going, taken, axis=1), moving_path)
        # let the round's trial batch go before the next one is built
        base = trial = taken = trial_path = moving_path = None
    return controls, value, iterations


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
    slack = terminal_slack(problem, predicted)
    return OcpSolution(
        controls=controls[:, best].copy(),
        predicted=predicted,
        optimal_value=plan_cost(problem, predicted),
        feasible=slack == 0.0,
        terminal_slack=slack,
        iterations=int(iterations.sum()),
    )


def _policy_control(
    policy: str,
    state: EpidemicState,
    cfg: MpcConfig,
    params: ModelParams,
    warm: np.ndarray | None,
):
    """One day's control and diagnostics for the active (ungated) policy.

    ``policy`` is one of :data:`strategies.POLICIES`; anything but ``none``
    and ``national`` is the predictive controller.
    """
    n = params.n_a
    if policy == "none":
        return strategies.no_vaccination(state), None, warm
    if policy == "national":
        return strategies.national_allocate(state, cfg.v_bar), None, warm
    problem = build_ocp(state, cfg, params)
    solution = solve_ocp(problem, warm_start=warm)
    next_warm = np.vstack([solution.controls[1:], np.zeros((1, n))])
    record = DayRecord(
        day=state.day,
        v_n0=solution.optimal_value,
        feasible=solution.feasible,
        terminal_slack=solution.terminal_slack,
        iterations=solution.iterations,
    )
    return solution.controls[0], record, next_warm


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


def run_policy_loop(
    state0: EpidemicState,
    cfg: MpcConfig,
    params: ModelParams,
    policy: str = "mpc",
) -> ScenarioResult:
    """Simulate the closed loop for any policy with shared gate semantics.

    Every policy sees the same start-day gate and the same eradication
    latch: no vaccination before ``vaccination_start_day``, and from the
    first vaccination day on which every group's infected count is at or
    below the threshold (the run's ``latch_day``, also its eradication day),
    all controls are zero.  The predictive policy warm-starts each solve
    with the previous plan shifted by one day and padded with zeros.
    """
    check_loop_inputs(state0, cfg, params, policy)
    n = params.n_a
    n_days = cfg.strategy_horizon
    controls = np.zeros((n_days, n))
    records: list[DayRecord] = []
    states = [state0]
    warm = None
    latch_day = None
    for t in range(n_days):
        state = states[-1]
        day = state.day
        u = np.zeros(n)
        record = DayRecord(day=day)
        if day >= cfg.vaccination_start_day and latch_day is None:
            if bool(np.all(state.i <= cfg.eradication_threshold)):
                latch_day = day
            else:
                try:
                    u, solve_record, warm = _policy_control(
                        policy, state, cfg, params, warm
                    )
                except SolverFailure as exc:
                    raise SolverFailure(f"day {day}: {exc}") from exc
                if solve_record is not None:
                    record = solve_record
        states.append(step(state, u, params))
        controls[t] = u
        records.append(record)
    return ScenarioResult(
        policy=policy,
        trajectory=Trajectory.from_states(states),
        controls=controls,
        params=params,
        cfg=cfg,
        day_records=records,
        latch_day=latch_day,
    )

