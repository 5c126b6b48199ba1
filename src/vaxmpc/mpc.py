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
bitwise-identical solutions.
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
_MAX_ITERATIONS = 150
_STEP_TOLERANCE = 1e-8
_COST_TOLERANCE = 1e-10

#: Most days a ``horizon`` or ``strategy_horizon`` may span (each is an array row).
MAX_DAYS = 100_000


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
    module constants.
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

    def validate(self, params: ModelParams | None = None) -> None:
        for fld in fields(self):  # the annotations are the settings' types
            value = getattr(self, fld.name)
            integer = isinstance(value, numbers.Integral) and not isinstance(value, bool)
            if fld.type == "int" and not integer:
                raise ValidationError(f"{fld.name} must be an integer")
            if fld.type == "float" and not is_finite_number(value):
                raise ValidationError(f"{fld.name} must be a finite number")
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
        if self.n_restarts < 0:
            raise ValidationError("n_restarts must be nonnegative")
        if self.rng_seed < 0:
            raise ValidationError("rng_seed must be nonnegative")
        if params is not None:
            validate_epsilon(self.epsilon, params)


@dataclass(frozen=True)
class SiTrajectory:
    """Predicted susceptible/infected paths, shape (N+1, n_a) each, and the
    doses the clamp let through on each day, shape (N, n_a)."""

    s: np.ndarray
    i: np.ndarray
    u: np.ndarray


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
    cfg.validate()
    if state.n_a != params.n_a:
        raise ContractViolation("state and params disagree on group count")
    return OcpProblem(
        s0=state.s.copy(),
        i0=state.i.copy(),
        params=params,
        cfg=cfg,
        cert=CertificateParams.from_model(params, cfg.epsilon),
    )


def _rollout(problem: OcpProblem, controls: np.ndarray) -> SiTrajectory:
    """The horizon's S and I paths and the applied doses.

    This is the planner's only pass over the dynamics; it steps with the
    plant's :func:`si_step`, so prediction equals plant stepping bitwise.
    A descent's start point is rolled out here directly, so that
    :func:`predict` runs once per line-search trial and once per solution.
    """
    big_n, n = problem.cfg.horizon, problem.n_a
    s = np.empty((big_n + 1, n))
    i = np.empty((big_n + 1, n))
    u_eff = np.empty((big_n, n))
    s[0], i[0] = problem.s0, problem.i0
    for t in range(big_n):
        s[t + 1], i[t + 1], u_eff[t] = si_step(s[t], i[t], controls[t], problem.params)
    return SiTrajectory(s=s, i=i, u=u_eff)


def predict(problem: OcpProblem, controls: np.ndarray) -> SiTrajectory:
    """Roll the reduced dynamics over the horizon (same step as the plant)."""
    return _rollout(problem, controls)


def plan_cost(problem: OcpProblem, predicted: SiTrajectory) -> float:
    """Predicted deaths over the horizon plus the terminal cost."""
    gd, big_n = problem.params.gamma_d, problem.cfg.horizon
    # one gemv, not per-row dots, keeps the bits of V_N0 in the diagnostics
    running = float((predicted.i[:big_n] @ gd).sum())
    terminal = float(matvec_rows(gd, predicted.i[big_n])) / problem.cfg.epsilon
    return running + terminal


def _terminal_overshoot(problem: OcpProblem, predicted: SiTrajectory) -> np.ndarray:
    """max(0, Ct_Lam . S_N - Gamma) per constraint; zero if I_N is disease-free."""
    big_n = problem.cfg.horizon
    if disease_free(predicted.i[big_n]):
        return np.zeros(problem.n_a)
    return np.maximum(0.0, constraint_excess(predicted.s[big_n], problem.cert))


def terminal_slack(problem: OcpProblem, predicted: SiTrajectory) -> float:
    """Total violation of the terminal-set constraint at the horizon end."""
    return float(_terminal_overshoot(problem, predicted).sum())


def project_capacity(controls: np.ndarray, v_bar: float) -> np.ndarray:
    """Euclidean projection of each row onto {u >= 0, sum(u) <= v_bar}."""
    controls = np.atleast_2d(np.asarray(controls, dtype=float))
    clipped = np.maximum(controls, 0.0)
    over = clipped.sum(axis=1) > v_bar
    if not np.any(over):
        return clipped
    rows = controls[over]
    n = rows.shape[1]
    ordered = np.sort(rows, axis=1)[:, ::-1]
    excess = np.cumsum(ordered, axis=1) - v_bar
    idx = np.arange(1, n + 1)
    rho = np.count_nonzero(ordered - excess / idx > 0, axis=1)
    theta = excess[np.arange(rows.shape[0]), rho - 1] / rho
    out = clipped
    out[over] = np.maximum(rows - theta[:, None], 0.0)
    return out


def _penalized_value(problem: OcpProblem, predicted: SiTrajectory) -> float:
    """Plan cost plus the weighted terminal slack of a predicted path."""
    value = plan_cost(problem, predicted)
    value += problem.effective_weight * terminal_slack(problem, predicted)
    return value


def _gradient(
    problem: OcpProblem, controls: np.ndarray, predicted: SiTrajectory
) -> np.ndarray:
    """Adjoint-propagated gradient of :func:`_penalized_value`.

    The backward pass runs on ``predicted``, the rollout of ``controls``:
    in the descent that is the path the line search already computed for
    the accepted trial, or the rollout of a descent's start point.  The
    clamp u_eff = min(u, max(0, S - new_infections)) is handled by
    active-set bookkeeping read off that path: room is left exactly where
    S' > 0, or S' == 0 with doses applied.  Where the clamp binds,
    the control has no local effect and its gradient entry is zero.

    Everything that does not depend on the adjoints is formed before the
    backward loop, with the same per-row arithmetic, so the result is
    bitwise the same as stepping it inside the loop.
    """
    params, cert = problem.params, problem.cert
    n, big_n = problem.n_a, problem.cfg.horizon
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
    p_s = problem.effective_weight * (cert.ct_lam.T @ violated.astype(float))
    p_i = gd / problem.cfg.epsilon

    p_s_path = np.empty((big_n, n))
    for t in range(big_n - 1, -1, -1):
        p_s_path[t] = p_s
        p_s_next = np.where(keep[t], hold[t] * p_s, 0.0) + rate[t] * p_i
        flow = lam_s[t] * (p_i - keep[t] * p_s)
        p_i = gd + decay * p_i + contact_t @ flow
        p_s = p_s_next
    return np.where(free_u, -p_s_path, 0.0)


def _descend(
    problem: OcpProblem, start: np.ndarray
) -> tuple[np.ndarray, float, int]:
    """Projected-gradient descent from one start; returns (U, value, iters).

    The start point is rolled out once; every later value and gradient
    comes from the rollout the line search made of the accepted trial.
    """
    v_bar = problem.cfg.v_bar
    controls = project_capacity(start, v_bar)
    path = _rollout(problem, controls)
    value = _penalized_value(problem, path)
    if not np.isfinite(value):
        raise SolverFailure(f"non-finite objective {value} at the start point")
    grad = _gradient(problem, controls, path)
    scale = np.max(np.abs(grad))
    step_len = v_bar / scale if scale > 0 else 1.0
    iterations = 0
    stalls = 0
    for _ in range(_MAX_ITERATIONS):
        iterations += 1
        moved = False
        for _ in range(_MAX_BACKTRACKS):
            trial = project_capacity(controls - step_len * grad, v_bar)
            displacement = float(np.linalg.norm(trial - controls))
            if displacement == 0.0:
                break
            trial_path = predict(problem, trial)
            trial_value = _penalized_value(problem, trial_path)
            if not np.isfinite(trial_value):
                raise SolverFailure("non-finite objective during line search")
            if trial_value <= value - _ARMIJO_C / step_len * displacement**2:
                moved = True
                break
            step_len *= 0.5
        if not moved:
            break
        drop = value - trial_value
        controls, value = trial, trial_value
        grad = _gradient(problem, controls, trial_path)
        if displacement <= _STEP_TOLERANCE * (1.0 + float(np.linalg.norm(controls))):
            break
        if drop <= _COST_TOLERANCE * (1.0 + abs(value)):
            stalls += 1
            if stalls >= 3:
                break
        else:
            stalls = 0
        step_len = min(step_len * 2.0, 1e6 * v_bar)
    return controls, value, iterations


#: Enumerate every bang-bang day pattern as extra starts while
#: (n_a + 1) ** horizon stays at or below this; switching optima on tiny
#: instances are otherwise easy to miss.
_PATTERN_START_LIMIT = 64


def _start_points(
    problem: OcpProblem, warm_start: np.ndarray | None
) -> list[np.ndarray]:
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
    return starts


def solve_ocp(
    problem: OcpProblem, warm_start: np.ndarray | None = None
) -> OcpSolution:
    """Best control plan over the multi-start set (deterministic tie-break).

    Starts are descended in a fixed order (warm start first, then structured
    and seeded random points); the lowest penalized objective wins and ties
    go to the earlier start.
    """
    best_controls = None
    best_value = np.inf
    total_iterations = 0
    for start in _start_points(problem, warm_start):
        controls, value, iters = _descend(problem, start)
        total_iterations += iters
        if value < best_value:
            best_controls, best_value = controls, value
    predicted = predict(problem, best_controls)
    slack = terminal_slack(problem, predicted)
    return OcpSolution(
        controls=best_controls,
        predicted=predicted,
        optimal_value=plan_cost(problem, predicted),
        feasible=slack == 0.0,
        terminal_slack=slack,
        iterations=total_iterations,
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
    if policy not in strategies.POLICIES:
        raise ValidationError(f"unknown policy {policy!r}")
    cfg.validate(params)
    state0.validate(params)
    if cfg.vaccination_start_day > state0.time_step + cfg.strategy_horizon:
        raise ValidationError(
            "vaccination_start_day lies beyond the simulated horizon"
        )
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

