"""Discrete-time age-structured SIRD dynamics with a vaccination input.

The population of each age group k is split into susceptible (S), infected
(I), recovered (R) and deceased (D) compartments.  One call to :func:`step`
advances the state by one day:

    S_k' = S_k - lam_k * S_k * sum_j C_kj I_j - u_k
    I_k' = I_k + lam_k * S_k * sum_j C_kj I_j - (gr_k + gd_k) I_k
    R_k' = R_k + gr_k I_k + u_k
    D_k' = D_k + gd_k I_k

with the single exception that the vaccination actually applied is clamped to
the susceptibles left after that day's infections, so S never goes negative:

    u_eff_k = min(u_k, max(0, S_k - new_infections_k))

The clamped value is recorded on the returned state (``applied_u``).

The update is the one-day forward-Euler step of the continuous-time balance
equations (dS = -infections - u, dI = infections - (gr + gd) I,
dR = gr I + u, dD = gd I); the continuous form is documented here for
reference but never integrated, and the step size is fixed at one day.
All functions are pure; states and parameters are immutable value objects.
The (S, I) dynamics take (..., n_a) batches; each row's bits match it alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation, ValidationError

#: Relative tolerance for the per-group population-conservation invariant.
CONSERVATION_RTOL = 1e-9


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def _check_vector(x: np.ndarray, n: int, name: str) -> None:
    if x.shape != (n,):
        raise ContractViolation(f"{name}: expected shape ({n},), got {x.shape}")
    if not np.isfinite(x).all():
        raise ValidationError(f"{name}: non-finite entries")


@dataclass(frozen=True, eq=False)
class ModelParams:
    """Per-group epidemic rates, populations and the normalized contact matrix.

    Attributes
    ----------
    lam : (n_a,) array
        Per-contact transmission probabilities, in [0, 1].
    gamma_r : (n_a,) array
        Daily recovery rates, in [0, 1].
    gamma_d : (n_a,) array
        Daily death rates, in (0, 1].  Positivity is required by the
        stage-cost lower bound used in the stability certificates.
    population : (n_a,) array
        Group populations (persons).
    contact : (n_a, n_a) array
        Normalized contact rates; entry (k, j) is the per-person per-day rate
        at which one member of group k meets members of group j.
    removal : (n_a,) array
        Daily removal rate gamma_r + gamma_d, computed once at construction.
    """

    lam: np.ndarray
    gamma_r: np.ndarray
    gamma_d: np.ndarray
    population: np.ndarray
    contact: np.ndarray
    removal: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("lam", "gamma_r", "gamma_d", "population"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))
        object.__setattr__(self, "contact", _freeze(self.contact))
        self._validate()
        object.__setattr__(self, "removal", _freeze(self.gamma_r + self.gamma_d))

    @property
    def n_a(self) -> int:
        return self.lam.shape[0]

    def _validate(self) -> None:
        n = self.n_a
        for name in ("lam", "gamma_r", "gamma_d", "population"):
            vec = getattr(self, name)
            _check_vector(vec, n, name)
            if np.any(vec < 0):
                raise ValidationError(f"{name}: negative entries")
        if self.contact.shape != (n, n):
            raise ContractViolation(
                f"contact: expected shape ({n}, {n}), got {self.contact.shape}"
            )
        if not np.all(np.isfinite(self.contact)) or np.any(self.contact < 0):
            raise ValidationError("contact: entries must be finite and nonnegative")
        if np.any(self.lam > 1):
            raise ValidationError("lam: transmission probabilities must be <= 1")
        if np.any(self.gamma_r + self.gamma_d > 1):
            raise ValidationError(
                "gamma_r + gamma_d must be <= 1 per group (one Euler step cannot "
                "remove more infected than exist)"
            )
        if np.any(self.gamma_d <= 0):
            raise ValidationError("gamma_d: death rates must be strictly positive")
        # Worst-case (I = P) infection pressure.  At most 1, a day's new
        # infections lam_k S_k sum_j C_kj I_j <= S_k, so S stays >= 0.
        pressure = self.lam * matvec_rows(self.contact, self.population)
        if np.any(pressure > 1):
            worst = int(np.argmax(pressure))
            raise ValidationError(
                f"infection pressure lam_k * sum_j C_kj P_j exceeds 1 for group "
                f"{worst} ({pressure[worst]:.4g}); susceptibles could go negative"
            )


@dataclass(frozen=True, eq=False)
class EpidemicState:
    """Compartment counts for every age group at one time step.

    ``time_step`` counts days since the outbreak began (the initial state is
    step 0, i.e. day 1 in the one-based day convention used for reporting).
    ``applied_u`` holds the vaccination actually applied by the step that
    produced this state, after clamping; it is None for initial states.
    Its compartments are read-only float64 rows of one block, copied from
    the inputs and checked finite and nonnegative once, when it is built.
    """

    s: np.ndarray
    i: np.ndarray
    r: np.ndarray
    d: np.ndarray
    time_step: int = 0
    applied_u: np.ndarray | None = None

    def __post_init__(self):
        try:  # one copy: the four vectors become the rows of one read-only block
            block = _freeze((self.s, self.i, self.r, self.d))
        except ValueError:  # ragged: the vectors have several shapes
            if len({np.shape(getattr(self, name)) for name in "sird"}) == 1:
                raise  # one shape, so a non-number: numpy's own conversion error
            block = None
        if self.applied_u is not None:
            object.__setattr__(self, "applied_u", _freeze(self.applied_u))
        if block is None or block.ndim != 2:
            raise ContractViolation("state vectors must be 1-D and share one length")
        for name, vec in zip("sird", block):
            object.__setattr__(self, name, vec)
        # min is NaN if any entry is; initial=0 lets a 0-group block reduce
        if not (block.min(initial=0.0) >= 0.0 and block.max(initial=0.0) < np.inf):
            for name, vec in zip("sird", block):  # name the first bad one
                if not np.isfinite(vec).all():
                    raise ValidationError(f"{name}: non-finite entries")
                if (vec < 0).any():
                    raise ValidationError(f"{name}: negative compartment")
        if self.time_step < 0:
            raise ValidationError("time_step must be nonnegative")

    @property
    def n_a(self) -> int:
        return self.s.shape[0]

    @property
    def day(self) -> int:
        """One-based day number (initial state is day 1)."""
        return self.time_step + 1

    def total_by_group(self) -> np.ndarray:
        return self.s + self.i + self.r + self.d

    def validate(self, params: ModelParams) -> None:
        """Check the group count and per-group population conservation."""
        n = params.n_a
        if self.s.shape != (n,):
            raise ContractViolation(f"s: expected shape ({n},), got {self.s.shape}")
        total = self.total_by_group()
        if not np.allclose(total, params.population, rtol=CONSERVATION_RTOL, atol=0.0):
            raise ValidationError(
                "compartments do not sum to the group populations"
            )


def validate_control(u: np.ndarray, n_a: int) -> np.ndarray:
    """Validate a daily vaccination vector's dimension and signs; returns it
    as a float array.  The capacity bound ``sum(u) <= v_bar`` lives in the
    scenario configuration and is not checked here."""
    u = np.asarray(u, dtype=float)
    _check_vector(u, n_a, "u")
    if (u < 0).any():
        raise ValidationError("u: vaccination counts must be nonnegative")
    return u


def matvec_rows(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``a`` (m, n) or (n,) times each row of ``x`` (..., n), over any batch axes.

    A row's result is bitwise the same alone or in a batch of any shape:
    each row goes to the same gemv (or dot), where a gemm such as
    ``x @ a.T`` may sum some rows in another order.
    """
    return (a @ x[..., None])[..., 0]


def new_infections(s: np.ndarray, i: np.ndarray, params: ModelParams) -> np.ndarray:
    """Daily new infections lam_k * S_k * sum_j C_kj I_j, per row of (S, I)."""
    return params.lam * s * matvec_rows(params.contact, i)


def si_step(
    s: np.ndarray, i: np.ndarray, u: np.ndarray, params: ModelParams, out=(None,) * 3
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Advance the (S, I) block one day; returns (s_next, i_next, u_applied).

    This is the single implementation of the reduced dynamics shared by the
    full model step, the controller's prediction rollout and the sampled
    certificates, so predicted and realized trajectories agree bitwise.  The
    removal rate gamma_r + gamma_d is read precomputed from
    ``params.removal``.  Inputs may carry leading batch axes.  ``out`` may
    name three float arrays of the result's shape, none of them an input,
    that receive the results in place of new arrays.
    """
    new_inf = new_infections(s, i, params)
    room = s - new_inf
    s_next, i_next, u_eff = out
    u_eff = np.minimum(u, np.maximum(0.0, room), out=u_eff)
    s_next = np.subtract(room, u_eff, out=s_next)
    # add, then subtract in place: no third temporary on wide batches
    i_next = np.add(i, new_inf, out=i_next)
    i_next -= params.removal * i
    return s_next, i_next, u_eff


def step(
    state: EpidemicState,
    u: np.ndarray,
    params: ModelParams,
) -> EpidemicState:
    """Advance the full state one day under vaccination ``u``.

    The infection, recovery and death flows follow the discrete dynamics
    literally; only the vaccination is clamped to the susceptibles remaining
    after infection, and the clamped value is exposed on the returned state's
    ``applied_u``.
    """
    if state.n_a != params.n_a:
        raise ContractViolation(
            f"state has {state.n_a} groups, params has {params.n_a}"
        )
    u = validate_control(u, params.n_a)
    s_next, i_next, u_eff = si_step(state.s, state.i, u, params)
    r_next = state.r + params.gamma_r * state.i + u_eff
    d_next = state.d + params.gamma_d * state.i
    return EpidemicState(
        s=s_next,
        i=i_next,
        r=r_next,
        d=d_next,
        time_step=state.time_step + 1,
        applied_u=u_eff,
    )


def initial_state(params: ModelParams, i0: np.ndarray) -> EpidemicState:
    """Outbreak-start state: S = P - i0, I = i0, R = D = 0."""
    i0 = np.asarray(i0, dtype=float)
    _check_vector(i0, params.n_a, "i0")
    if np.any(i0 < 0) or np.any(i0 > params.population):
        raise ValidationError("i0 must satisfy 0 <= i0_k <= P_k")
    zeros = np.zeros(params.n_a)
    return EpidemicState(s=params.population - i0, i=i0, r=zeros, d=zeros, time_step=0)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A rollout: compartment arrays of shape (T+1, n_a), controls (T, n_a).

    Row t holds the state at time step ``start_time_step + t``; ``applied_u``
    row t is the clamped vaccination applied while moving to row t+1.
    """

    s: np.ndarray
    i: np.ndarray
    r: np.ndarray
    d: np.ndarray
    applied_u: np.ndarray
    start_time_step: int = 0

    def __len__(self) -> int:
        return self.s.shape[0]

    @property
    def n_steps(self) -> int:
        return self.applied_u.shape[0]

    def state(self, t: int) -> EpidemicState:
        """Materialize the state at index t; a negative t counts from the end."""
        t = range(len(self))[t]  # an index out of range raises IndexError
        return EpidemicState(
            s=self.s[t],
            i=self.i[t],
            r=self.r[t],
            d=self.d[t],
            time_step=self.start_time_step + t,
            applied_u=self.applied_u[t - 1] if t > 0 else None,
        )

    def row(self, day):
        """Row index of one-based ``day`` (an int or an int array); row 0
        holds ``state(0).day``, the run's first day."""
        return day - 1 - self.start_time_step

    def total_deaths(self, t: int) -> float:
        return float(self.d[t].sum())

    @classmethod
    def from_states(cls, states: list[EpidemicState]) -> "Trajectory":
        """Stack consecutive states, the first being the start of the run."""
        n_steps, n = len(states) - 1, states[0].n_a
        applied = np.array([state.applied_u for state in states[1:]])
        return cls(
            s=np.array([state.s for state in states]),
            i=np.array([state.i for state in states]),
            r=np.array([state.r for state in states]),
            d=np.array([state.d for state in states]),
            applied_u=applied.reshape(n_steps, n),
            start_time_step=states[0].time_step,
        )


def rollout(
    state0: EpidemicState,
    controls: np.ndarray,
    params: ModelParams,
) -> Trajectory:
    """Iterate :func:`step` over a (T, n_a) array of daily controls."""
    controls = np.atleast_2d(np.asarray(controls, dtype=float))
    n = params.n_a
    if controls.shape[1] != n:
        raise ContractViolation(
            f"controls: expected shape (T, {n}), got {controls.shape}"
        )
    states = [state0]
    for t, u in enumerate(controls):
        try:
            states.append(step(states[-1], u, params))
        except (ValidationError, ContractViolation) as exc:
            raise type(exc)(f"rollout step {t}: {exc}") from exc
    return Trajectory.from_states(states)
