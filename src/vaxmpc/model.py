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
:func:`advance` is the one full-state update, on rows with any leading
batch axes; :func:`step`, :func:`rollout` and the closed loop call it.

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
        fault = compartment_fault(block[None])
        if fault is not None:
            raise ValidationError(fault[1])
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


def compartment_fault(block: np.ndarray) -> tuple[int, str] | None:
    """The first non-finite or negative compartment of a day-first
    (T+1, 4, ..., n_a) S, I, R, D block, as (day row, message), or None
    if every entry is finite and nonnegative."""
    # min is NaN if any entry is; initial=0 lets a 0-group block reduce
    if block.min(initial=0.0) >= 0.0 and block.max(initial=0.0) < np.inf:
        return None
    for t, rows in enumerate(block):
        for name, vec in zip("sird", rows):  # name the first bad one
            if not np.isfinite(vec).all():
                return t, f"{name}: non-finite entries"
            if (vec < 0).any():
                return t, f"{name}: negative compartment"


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


def new_infections(s: np.ndarray, i: np.ndarray, params: ModelParams, out=None) -> np.ndarray:
    """Daily new infections lam_k * S_k * sum_j C_kj I_j, per row of (S, I),
    written into ``out`` when one is given."""
    out = np.multiply(params.lam, s, out=out)
    out *= matvec_rows(params.contact, i)
    return out


def si_step(
    s: np.ndarray, i: np.ndarray, u: np.ndarray, params: ModelParams, out=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Advance the (S, I) block one day; returns (s_next, i_next, u_applied).

    This is the single implementation of the reduced dynamics shared by the
    full model step, the controller's prediction rollout and the sampled
    certificates, so predicted and realized trajectories agree bitwise.  The
    removal rate gamma_r + gamma_d is read precomputed from
    ``params.removal``.  Inputs may carry leading batch axes.  ``out`` may
    name three float arrays of the result's shape that receive the results
    in place of new arrays.  They must share no memory with ``s``, ``i`` or
    ``u``: the step writes ``i_next`` and ``u_applied`` before it last
    reads ``i`` and ``u``, so an aliased output changes the bits.
    """
    if out is None:
        shape = np.broadcast_shapes(np.shape(params.lam), s.shape, i.shape, u.shape)
        out = (np.empty(shape), np.empty(shape), np.empty(shape))
    s_next, i_next, u_eff = out
    new_inf = new_infections(s, i, params, out=i_next)
    room = np.subtract(s, new_inf, out=s_next)
    # u_eff holds removal * I until I' is formed: no temporary on wide batches
    np.add(i, new_inf, out=i_next)
    i_next -= np.multiply(params.removal, i, out=u_eff)
    np.maximum(0.0, room, out=u_eff)
    np.minimum(u, u_eff, out=u_eff)
    room -= u_eff
    return s_next, i_next, u_eff


def advance(now: np.ndarray, u: np.ndarray, params, out: np.ndarray, applied: np.ndarray) -> None:
    """The plant update: from the (4, ..., n_a) S, I, R, D rows ``now``,
    write the next day's rows into ``out`` and the doses the clamp let
    through into ``applied``, under vaccination ``u``.

    This is the one full-state update, shared by :func:`step`,
    :func:`rollout` and the closed loop; rows may carry leading batch axes
    and each gets the bits it gets alone.  ``params`` may hold one rate row
    per batch row (``contact`` as (..., n_a, n_a)).  It checks nothing.
    """
    (s, i, r, d), (s_next, i_next, r_next, d_next) = now, out
    si_step(s, i, u, params, out=(s_next, i_next, applied))
    np.add(r, params.gamma_r * i, out=r_next)
    r_next += applied
    np.add(d, params.gamma_d * i, out=d_next)


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
    out, applied = np.empty((4, params.n_a)), np.empty(params.n_a)
    advance(np.array([state.s, state.i, state.r, state.d]), u, params, out, applied)
    return EpidemicState(*out, time_step=state.time_step + 1, applied_u=applied)


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
    def from_block(cls, block: np.ndarray, applied_u: np.ndarray, start_time_step: int):
        """A run's day-first (T+1, 4, n_a) S, I, R, D block and its (T, n_a)
        applied doses, as C-contiguous (T+1, n_a) compartments.  A view of
        compartment-first storage, as the loops step, is kept without a copy."""
        s, i, r, d = np.ascontiguousarray(np.swapaxes(block, 0, 1))
        return cls(s, i, r, d, np.ascontiguousarray(applied_u), start_time_step)


def rollout(
    state0: EpidemicState,
    controls: np.ndarray,
    params: ModelParams,
) -> Trajectory:
    """Advance ``state0`` over a (T, n_a) array of daily controls, as
    chained :func:`step` calls do, with the same checks: an error names
    the step it arose in."""
    controls = np.atleast_2d(np.asarray(controls, dtype=float))
    n = params.n_a
    if controls.shape[1] != n:
        raise ContractViolation(
            f"controls: expected shape (T, {n}), got {controls.shape}"
        )
    if state0.n_a != n:
        raise ContractViolation(f"state has {state0.n_a} groups, params has {n}")
    block = np.empty((4, len(controls) + 1, n)).swapaxes(0, 1)  # stepped day-first
    block[0] = state0.s, state0.i, state0.r, state0.d
    applied = np.empty(controls.shape)
    for t, u in enumerate(controls):
        try:
            validate_control(u, n)
        except ValidationError as exc:
            raise ValidationError(f"rollout step {t}: {exc}") from exc
        advance(block[t], u, params, block[t + 1], applied[t])
    fault = compartment_fault(block)
    if fault is not None:
        raise ValidationError(f"rollout step {fault[0] - 1}: {fault[1]}")
    return Trajectory.from_block(block, applied, state0.time_step)
