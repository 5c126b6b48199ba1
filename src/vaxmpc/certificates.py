"""Numeric checks for the stability machinery behind the vaccination MPC.

The controller's guarantees rest on a terminal region

    X_f = {x : Ct_Lam . S <= Gamma}  union  {x : I = 0}

with Ct_Lam = C' diag(gamma_d * lam) and
Gamma_k = gamma_d_k (gamma_r_k + gamma_d_k - epsilon), for any epsilon with
0 < epsilon < min_k (gamma_r_k + gamma_d_k).  Inside X_f the daily death toll
gamma_d' I contracts by at least a factor (1 - epsilon) regardless of the
input, X_f is invariant under every admissible input, and (1/epsilon)
gamma_d' I is a local Lyapunov function.  Globally, gamma_d' I grows by at
most a factor eta per day, eta being the tightest scalar with
gamma_d' (Id + P_d diag(lam) C - diag(gamma_r + gamma_d)) <= eta * gamma_d'
componentwise.

These facts hold symbolically; this module verifies them numerically on
seeded random samples, :func:`certify` composing the three checks into the
one suite that ``vaxmpc certify`` runs, and audits finished closed-loop runs
against the optimal-value death bound.  Checks return margins, which
:func:`certify` reports; violations are report content, never
exceptions.  The Lyapunov decrease V_f(x+) - V_f(x) <= -gamma_d' I of
V_f = (1/epsilon) gamma_d' I is the contraction divided by epsilon, so one
sampled inequality checks both.

The sampled states are (S, I) pairs, the compartments the dynamics of I
read, each with one admissible control.  The susceptible part of X_f's
first branch, {0 <= S <= P : Ct_Lam . S <= Gamma}, is convex and holds
S = 0, so they are drawn without rejection at any group count: each is a
random direction scaled by a random share of its reach to the boundary.
:func:`certify` draws them and the growth-bound rollouts from two
independent streams spawned from its one seed.

Closed forms that are documented here but deliberately not constructed in
code: the comparison functions bounding the stage cost and value function are
alpha_1(y) = min_k(gamma_d_k) * y, alpha_f(y) = max_k(gamma_d_k) * y / epsilon
and alpha(y) = (eta^N / epsilon + sum_i eta^i) * ||gamma_d||_1 * y, with the
distance to the disease-free set measured as ||I||_1 throughout.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ContractViolation, ValidationError
from .model import EpidemicState, ModelParams, matvec_rows, si_step
from .results import ScenarioResult

if TYPE_CHECKING:
    from .mpc import MpcConfig

#: Absolute tolerance below which an infected vector counts as disease-free.
XSTAR_ATOL = 1e-12

#: Relative slack absorbing float accumulation in the decrease inequality.
LYAPUNOV_RTOL = 1e-9

#: Relative slack for the per-step growth bound check.
ETA_RTOL = 1e-12

#: Relative tolerance of the death-toll bound audit.
BOUND_RTOL = 1e-6

#: Upper end, as a share of each group, of the growth-bound check's
#: uniformly drawn initial infections.
ETA_I0_FRACTION = 0.02

#: Most samples the certify command passes to :func:`certify`.  The
#: terminal-set sample and its controls are (samples, n_a) arrays each, and
#: the growth-bound check steps samples // 100 rollouts over every day of
#: the strategy horizon.
#: At this cap a preset certify call takes ~2-3 s and peaks at ~560 MiB on a
#: 2-core host, and both grow linearly past it.
MAX_SAMPLES = 1_000_000

#: Share of the terminal-set samples drawn on the boundary of X_f.
BOUNDARY_FRACTION = 0.1


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one sampled certificate check."""

    name: str
    n_samples: int
    n_violations: int
    worst_margin: float
    seed: int | None

    @property
    def passed(self) -> bool:
        return self.n_violations == 0

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


@dataclass(frozen=True)
class BoundAudit(CheckReport):
    """Outcome of auditing a closed-loop run against its optimal values.

    ``n_samples`` counts audited days and ``n_violations`` is the sum of the
    two counts below.  Margins are relative to the recorded optimal value;
    negative means violated.
    """

    n_bound_violations: int
    n_descent_violations: int


def validate_epsilon(epsilon: float, removal: np.ndarray) -> None:
    """Raise :class:`ValidationError` unless 0 < epsilon < min_k removal_k,
    strictly, for the removal rates gamma_r + gamma_d."""
    upper = float(np.min(removal))
    if not 0.0 < epsilon < upper:
        raise ValidationError(
            f"epsilon={epsilon} outside (0, {upper}), the valid range for "
            "these recovery/death rates"
        )


def compute_eta(params: ModelParams) -> float:
    """Tightest per-day growth factor of the weighted infection count.

    Returns the smallest eta with
    gamma_d' (Id + P_d diag(lam) C - diag(gamma_r + gamma_d)) <= eta gamma_d'
    componentwise, which guarantees gamma_d' I(n+1) <= eta * gamma_d' I(n)
    for every state with 0 <= S <= P.  Every gamma_d_k is positive, as
    :class:`ModelParams` requires.
    """
    n = params.n_a
    growth = (
        np.eye(n)
        + (params.population * params.lam)[:, None] * params.contact
        - np.diag(params.removal)
    )
    return float(np.max(params.gamma_d @ growth / params.gamma_d))


@dataclass(frozen=True, eq=False)
class CertificateParams:
    """The epsilon-dependent matrices of the terminal-set construction.

    ``gamma_vec`` holds the per-group thresholds and ``ct_lam`` the full
    constraint matrix C' diag(gamma_d * lam), whose row j gives constraint
    j's coefficients.
    """

    epsilon: float
    gamma_vec: np.ndarray
    ct_lam: np.ndarray

    @classmethod
    def from_model(cls, params: ModelParams, epsilon: float) -> "CertificateParams":
        validate_epsilon(epsilon, params.removal)
        gamma_vec = params.gamma_d * (params.removal - epsilon)
        ct_lam = params.contact.T * (params.gamma_d * params.lam)[None, :]
        return cls(epsilon=float(epsilon), gamma_vec=gamma_vec, ct_lam=ct_lam)


def _rows(op, x: np.ndarray) -> np.ndarray:
    """``op`` (``np.maximum``, ``np.minimum`` or ``np.logical_or``) folded
    over the last axis, column by column, into a new array.

    Each is an exact selection, so this equals numpy's max, min or any
    along the last axis, NaN propagating, and over short rows it is much
    faster.  (Which zero a row mixing +0.0 and -0.0 returns may differ from
    numpy's reduction, whose order depends on its SIMD width.)
    """
    out = x[..., 0].copy()
    for j in range(1, x.shape[-1]):
        op(out, x[..., j], out=out)
    return out


def disease_free(i: np.ndarray) -> np.ndarray:
    """Per row of I: True iff every |I_k| <= XSTAR_ATOL, so the state counts
    as X* = {I = 0}."""
    return _rows(np.maximum, np.abs(i)) <= XSTAR_ATOL


def in_terminal_set(state: EpidemicState, cert: CertificateParams) -> bool:
    """Membership test for the terminal region (exact comparisons).

    True iff Ct_Lam . S <= Gamma componentwise, or the state is disease-free
    (every |I_k| <= 1e-12).
    """
    if state.n_a != cert.gamma_vec.shape[0]:
        raise ContractViolation("state and terminal set disagree on group count")
    return bool(_terminal_margin(state.s, state.i, cert) >= 0)


def constraint_excess(s: np.ndarray, cert: CertificateParams) -> np.ndarray:
    """Ct_Lam . S - Gamma per row of S: every entry <= 0 iff the row meets
    the terminal constraint.  The one place the product is formed; the
    sampler, the X_f test and the planner's terminal slack all read it."""
    excess = matvec_rows(cert.ct_lam, s)
    excess -= cert.gamma_vec
    return excess


def _constraint_margin(s: np.ndarray, cert: CertificateParams) -> np.ndarray:
    """min_j (Gamma - Ct_Lam . S)_j per row: >= 0 iff Ct_Lam . S <= Gamma;
    NaN propagates."""
    return 0.0 - _rows(np.maximum, constraint_excess(s, cert))  # not -x: 0 stays +0.0


def _terminal_margin(s: np.ndarray, i: np.ndarray, cert: CertificateParams) -> np.ndarray:
    """Signed membership margin per row: >= 0 inside X_f, < 0 outside."""
    free = XSTAR_ATOL - _rows(np.maximum, np.abs(i))  # >= 0 iff disease_free(i)
    return np.maximum(_constraint_margin(s, cert), free)


def susceptible_box(cert: CertificateParams, params: ModelParams) -> np.ndarray:
    """Per-group upper corner of the box enclosing the X_f susceptible region.

    Along each axis alone, S_k up to min(P_k, min_j Gamma_j / A_jk) stays in
    the region, and no point of the region lies beyond it; the terminal-set
    sampler draws its directions uniform on this box.
    """
    a = cert.ct_lam
    with np.errstate(divide="ignore"):
        caps = np.where(a > 0, cert.gamma_vec[:, None] / np.where(a > 0, a, 1.0), np.inf)
    return np.minimum(params.population, caps.min(axis=0))


def sample_terminal_states(
    cert: CertificateParams,
    params: ModelParams,
    n: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw n random (S, I) states inside X_f; returns (S, I) rows.

    Each row of S is a direction d, uniform on :func:`susceptible_box`, times
    a share of its reach to the boundary of the susceptible region: the
    largest t with Ct_Lam . (t d) <= Gamma and t d <= P, which is
    min(min_j Gamma_j / (Ct_Lam . d)_j, min over d_k > 0 of P_k / d_k).  The
    share is U^(1/n_a) for a uniform U, and 1 on the first
    :data:`BOUNDARY_FRACTION` of the rows, which so land on the boundary.
    The region is convex and holds S = 0, so no draw is rejected at any
    group count; a zero direction stays at S = 0.  Rows that rounding puts
    above P are clipped to it, and those a hair outside the constraint are
    nudged back.  Infected are uniform on [0, P - S], so every sample has
    0 <= S, 0 <= I and S + I <= P.
    """
    n_a = params.n_a
    s = rng.random((n, n_a))
    s *= susceptible_box(cert, params)
    with np.errstate(divide="ignore"):
        reach = _rows(np.minimum, cert.gamma_vec / matvec_rows(cert.ct_lam, s))
    pop_reach = np.divide(params.population, s, out=np.full_like(s, np.inf), where=s > 0)
    np.minimum(reach, _rows(np.minimum, pop_reach), out=reach)
    reach[np.isinf(reach)] = 0.0  # d = 0 has no boundary to reach
    share = rng.random(n)
    share **= 1.0 / n_a
    share[: int(round(BOUNDARY_FRACTION * n))] = 1.0
    reach *= share
    s *= reach[:, None]
    # where the population cap binds, S_k = d_k * (P_k / d_k) can round above P_k
    np.minimum(s, params.population, out=s)
    # float rounding can push a scaled point a hair outside; nudge back,
    # checking again only the rows nudged, since a row's margin is its own
    bad = np.flatnonzero(_constraint_margin(s, cert) < 0)
    for _ in range(4):
        if not bad.size:
            break
        s[bad] *= 1.0 - 1e-14
        bad = bad[_constraint_margin(s[bad], cert) < 0]

    i = rng.uniform(0.0, 1.0, size=(n, n_a))
    i *= params.population - s
    return s, i


def _sample_controls(
    shape: int | tuple[int, ...], n_a: int, v_bar: float, rng: np.random.Generator
) -> np.ndarray:
    """Admissible controls, one per index of the leading ``shape``: a random
    simplex direction times a random budget."""
    w = rng.exponential(1.0, size=np.append(shape, n_a))
    w /= w.sum(axis=-1, keepdims=True)
    w *= rng.uniform(0.0, v_bar, size=np.append(shape, 1))
    return w


def _violations(margin: np.ndarray) -> int:
    """Margins that are not >= 0: negative ones, and NaN."""
    return int(np.count_nonzero(~(margin >= 0)))


def _report(name: str, margin: np.ndarray, seed: int) -> CheckReport:
    """The report of a sampled check with one margin per sample."""
    return CheckReport(
        name=name,
        n_samples=margin.size,
        n_violations=_violations(margin),
        worst_margin=float(margin.min(initial=np.inf)),
        seed=seed,
    )


def check_invariance(
    cert: CertificateParams, s_next: np.ndarray, i_next: np.ndarray
) -> np.ndarray:
    """Sampled check that X_f is invariant under every admissible input.

    Takes the successors (S+, I+) of states in X_f, each stepped once under
    its control, and returns their :func:`_terminal_margin`, one per state:
    negative outside X_f by the same exact comparisons as
    :func:`in_terminal_set`.
    """
    return _terminal_margin(s_next, i_next, cert)


def check_lyapunov_decrease(
    cert: CertificateParams, params: ModelParams, s: np.ndarray, i: np.ndarray, i_next: np.ndarray
) -> np.ndarray:
    """Sampled check of the one-step decrease inequality inside X_f.

    For states (S, I) in X_f and zero input, returns the relative margin of

        gamma_d' I(n+1) <= (1 - epsilon) gamma_d' I(n)

    with relative slack :data:`LYAPUNOV_RTOL`.  With the terminal cost
    V_f = gamma_d' I / epsilon and the stage cost gamma_d' I, the
    terminal-cost decrease V_f(x(n+1)) - V_f(x(n)) <= -gamma_d' I(n) is this
    inequality divided by epsilon, so the one test covers both.  A state
    with no infections (S = P leaves no room for any) meets it with
    equality and has margin 0.  ``i_next`` is each state's infected
    successor under its own control, the one the invariance check reads;
    the margin is -inf unless the zero-input successor is bitwise
    identical to it: the decrease condition must not depend on the input.
    """
    cost_now = matvec_rows(params.gamma_d, i)
    _, i1, _ = si_step(s, i, np.zeros(params.n_a), params)
    # relative margins are 0 / 1e-300 where there are no infections
    margin = (1.0 - cert.epsilon + LYAPUNOV_RTOL) * cost_now - matvec_rows(params.gamma_d, i1)
    margin /= np.maximum(cost_now, 1e-300)
    margin[_rows(np.logical_or, i1 != i_next)] = -np.inf
    return margin


def check_eta_bound(
    params: ModelParams, rollouts: int, days: int, rng: np.random.Generator, *, v_bar: float
) -> np.ndarray:
    """Check gamma_d' I(n+1) <= eta * gamma_d' I(n) along random rollouts.

    Each rollout starts from random infections (uniform up to
    :data:`ETA_I0_FRACTION` of each group) and applies random admissible controls
    every day.  The bound carries relative slack 1e-12 for float rounding.
    Every rollout's first infections are drawn from ``rng``, then every
    day's controls in one :func:`_sample_controls` call; then all rollouts
    step as one batch per day.  Returns the relative margins, shape
    (days, rollouts).
    """
    i = np.empty((days + 1, rollouts, params.n_a))
    i[0] = rng.uniform(0.0, ETA_I0_FRACTION, size=(rollouts, params.n_a)) * params.population
    u = _sample_controls((days, rollouts), params.n_a, v_bar, rng)
    s = params.population - i[0]
    s_next, dose = np.empty_like(s), np.empty_like(s)
    for day in range(days):
        si_step(s, i[day], u[day], params, out=(s_next, i[day + 1], dose))
        s, s_next = s_next, s
    cost = matvec_rows(params.gamma_d, i)
    bound = compute_eta(params) * cost[:-1]
    return (bound * (1.0 + ETA_RTOL) - cost[1:]) / np.maximum(bound, 1e-300)


def certify(params: ModelParams, cfg: MpcConfig, samples: int, seed: int) -> list[CheckReport]:
    """The sampled certificate suite for one instance: invariance, decrease
    and growth-bound reports, in that order.

    ``seed`` spawns two independent streams.  From the first, one
    ``samples``-state draw in X_f and its controls serve the invariance and
    decrease checks: each state is stepped once under its control, and
    both checks read that successor.  From the second, the growth-bound
    check steps ``max(1, samples // 100)`` rollouts over
    ``cfg.strategy_horizon`` days.  Every report names ``seed``.  The
    sampler, the kernel and the checks are looked up on this module at call
    time, so a caller can substitute any of them.
    """
    cert = CertificateParams.from_model(params, cfg.epsilon)
    # SeedSequence.spawn, not Generator.spawn, which needs numpy 1.25
    states, rollouts = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(2))
    s, i = sample_terminal_states(cert, params, samples, states)
    u = _sample_controls(samples, params.n_a, cfg.v_bar, states)
    s_next, i_next, _ = si_step(s, i, u, params)
    for a in (s, i, s_next, i_next):  # the two state checks share them
        a.setflags(write=False)
    margins = {
        "terminal_set_invariance": check_invariance(cert, s_next, i_next),
        "lyapunov_decrease": check_lyapunov_decrease(cert, params, s, i, i_next),
        "growth_factor_bound": check_eta_bound(
            params, max(1, samples // 100), cfg.strategy_horizon, rollouts, v_bar=cfg.v_bar
        ),
    }
    return [_report(name, margin, seed) for name, margin in margins.items()]


def audit_death_bound(run: ScenarioResult) -> BoundAudit:
    """Audit a predictive run: future deaths never exceed the optimal value.

    For every day with a recorded optimal value V, checks that the deaths
    realized from that day until eradication stay below V (relative
    tolerance :data:`BOUND_RTOL`), and that V is non-increasing across consecutive
    solved days whenever the earlier day was feasible with zero terminal
    slack.  The tail stops at the eradication latch because that is where
    the controller stops being applied (the guarantee covers the
    controlled closed loop, not the uncontrolled run-out).  A predictive run
    eradicated before its first solve has nothing to bound.
    """
    records = run.day_records  # the solved days
    if not records and run.policy != "mpc":
        raise ContractViolation(
            "run carries no recorded optimal values; the death-toll audit "
            "applies to predictive-controller runs only"
        )
    traj = run.trajectory
    days = np.array([rec.day for rec in records], dtype=int)
    v = np.array([rec.v_n0 for rec in records], dtype=float)
    feasible = np.array([rec.feasible for rec in records], dtype=bool)
    rows = traj.row(days)
    outside = (rows < 0) | (rows > traj.n_steps)
    if outside.any():
        raise ContractViolation(f"record day {days[outside][0]} outside the trajectory")
    end = traj.n_steps if run.latch_day is None else traj.row(run.latch_day)
    daily = run.daily_deaths()
    tail = np.zeros(traj.n_steps + 1)
    tail[:end] = np.cumsum(daily[:end][::-1])[::-1]
    bound = (v * (1.0 + BOUND_RTOL) - tail[rows]) / np.maximum(v, 1e-300)
    chained = feasible[:-1] & (days[1:] == days[:-1] + 1)
    earlier, later = v[:-1][chained], v[1:][chained]
    descent = (earlier * (1.0 + BOUND_RTOL) - later) / np.maximum(earlier, 1e-300)
    n_bound, n_descent = _violations(bound), _violations(descent)
    return BoundAudit(
        name="death_toll_bound",
        n_samples=v.size,
        n_violations=n_bound + n_descent,
        worst_margin=float(np.concatenate([bound, descent]).min(initial=np.inf)),
        seed=None,
        n_bound_violations=n_bound,
        n_descent_violations=n_descent,
    )
