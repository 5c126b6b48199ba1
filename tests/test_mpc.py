import collections
import dataclasses
import hashlib
import itertools

import numpy as np
import pytest

import vaxmpc
from vaxmpc import mpc
from vaxmpc.errors import ContractViolation, SolverFailure, ValidationError
from vaxmpc.mpc import (
    OcpSolution,
    SiTrajectory,
    _gradient,
    _penalized_value,
    _start_points,
    build_ocp,
    plan_cost,
    predict,
    project_capacity,
    solve_ocp,
    terminal_slack,
)
from vaxmpc.model import matvec_rows, si_step

from conftest import random_desk_instance


def grid_search(problem, levels=11):
    """Exhaustive evaluation of the planning objective on a control grid.

    Independent of the solver path: rolls the reduced dynamics with its own
    vectorized arithmetic and returns (best penalized value, best sequence).
    """
    n_a, horizon = problem.n_a, problem.cfg.horizon
    lam, contact = problem.params.lam, problem.params.contact
    removal = problem.params.gamma_r + problem.params.gamma_d
    gd = problem.params.gamma_d
    step_controls = np.array(
        [
            problem.cfg.v_bar * np.array(combo) / (levels - 1)
            for combo in itertools.product(range(levels), repeat=n_a)
            if sum(combo) <= levels - 1
        ]
    )
    n_step_options = step_controls.shape[0]
    sequences = np.array(
        list(itertools.product(range(n_step_options), repeat=horizon))
    )
    s = np.tile(problem.s0, (sequences.shape[0], 1))
    i = np.tile(problem.i0, (sequences.shape[0], 1))
    cost = np.zeros(sequences.shape[0])
    for t in range(horizon):
        u = step_controls[sequences[:, t]]
        cost += i @ gd
        new_inf = lam[None, :] * s * (i @ contact.T)
        u_eff = np.minimum(u, np.maximum(0.0, s - new_inf))
        s = s - new_inf - u_eff
        i = i + new_inf - removal[None, :] * i
    cost += (i @ gd) / problem.cfg.epsilon
    slack = np.maximum(
        0.0, s @ problem.cert.ct_lam.T - problem.cert.gamma_vec[None, :]
    ).sum(axis=1)
    slack[np.abs(i).sum(axis=1) <= 1e-12] = 0.0
    total = cost + problem.effective_weight * slack
    best = int(np.argmin(total))
    return float(total[best]), step_controls[sequences[best]]


def penalized_value(problem, solution: OcpSolution) -> float:
    return solution.optimal_value + problem.effective_weight * solution.terminal_slack


class TestProjectCapacity:
    def test_matches_brute_force_euclidean_projection(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            x = rng.uniform(-2, 2, n)
            v_bar = float(rng.uniform(0.5, 2.0))
            got = project_capacity(x[None, :], v_bar)[0]
            # dense sampling oracle: projection minimizes distance over the set
            assert np.all(got >= 0) and got.sum() <= v_bar * (1 + 1e-12)
            for _ in range(50):
                cand = rng.uniform(0, 1, n)
                cand = cand / max(cand.sum(), 1e-12) * rng.uniform(0, v_bar)
                assert np.sum((got - x) ** 2) <= np.sum((cand - x) ** 2) + 1e-9

    def test_interior_point_untouched(self):
        x = np.array([[0.2, 0.3]])
        assert np.array_equal(project_capacity(x, 1.0), x)

    def test_negative_clipped(self):
        got = project_capacity(np.array([[-1.0, 0.4]]), 1.0)
        assert np.array_equal(got, np.array([[0.0, 0.4]]))


class TestBuildOcp:
    def test_decision_variable_count(self, preset_params, preset_state0):
        cfg = vaxmpc.MpcConfig()
        problem = build_ocp(preset_state0, cfg, preset_params)
        assert problem.n_decision_vars == 6 * 40

    def test_disease_free_objective_constant_zero(self, desk_params):
        state = vaxmpc.initial_state(desk_params, np.zeros(2))
        cfg = vaxmpc.MpcConfig(
            horizon=1, v_bar=500.0, vaccination_start_day=1, strategy_horizon=1
        )
        problem = build_ocp(state, cfg, desk_params)
        for u_val in (0.0, 100.0, 500.0):
            controls = np.full((1, 2), u_val / 2)
            pred = predict(problem, controls)
            assert plan_cost(problem, pred) == 0.0
            assert terminal_slack(problem, pred) == 0.0

    def test_two_step_scalar_hand_expansion(self):
        lam, gr, gd, pop, c = 0.02, 0.4, 0.1, 800.0, 1e-3
        params = vaxmpc.ModelParams(
            lam=np.array([lam]),
            gamma_r=np.array([gr]),
            gamma_d=np.array([gd]),
            population=np.array([pop]),
            contact=np.array([[c]]),
        )
        state = vaxmpc.initial_state(params, np.array([30.0]))
        cfg = vaxmpc.MpcConfig(
            horizon=2, epsilon=0.1, v_bar=50.0,
            vaccination_start_day=1, strategy_horizon=2,
        )
        problem = build_ocp(state, cfg, params)
        u0, u1 = 20.0, 10.0
        s0, i0 = 770.0, 30.0
        # symbolic two-step expansion of the plan cost
        i1 = i0 + lam * s0 * c * i0 - (gr + gd) * i0
        s1 = s0 - lam * s0 * c * i0 - u0
        i2 = i1 + lam * s1 * c * i1 - (gr + gd) * i1
        expected = gd * i0 + gd * i1 + gd * i2 / 0.1
        pred = predict(problem, np.array([[u0], [u1]]))
        assert plan_cost(problem, pred) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("shape", [(41, 6), (39, 6), (40, 5), (39, 3, 6), (40,)])
    def test_misshaped_plans_rejected(self, shape, preset_params, preset_state0):
        """A plan longer than the horizon used to come back with an
        uninitialised last dose row, and a shorter one died in an IndexError."""
        problem = build_ocp(preset_state0, vaxmpc.MpcConfig(), preset_params)
        with pytest.raises(ContractViolation, match=r"expected \(40, \.\.\., 6\)"):
            predict(problem, np.zeros(shape))

    def test_prediction_matches_plant_stepping_bitwise(self, desk_params, desk_state0):
        cfg = vaxmpc.MpcConfig(
            horizon=5, v_bar=700.0, vaccination_start_day=1, strategy_horizon=5
        )
        problem = build_ocp(desk_state0, cfg, desk_params)
        rng = np.random.default_rng(3)
        controls = project_capacity(rng.uniform(0, 700, (5, 2)), 700.0)
        pred = predict(problem, controls)
        s, i = desk_state0.s, desk_state0.i
        for t in range(5):
            s, i, _ = si_step(s, i, controls[t], desk_params)
            assert np.array_equal(pred.s[t + 1], s)
            assert np.array_equal(pred.i[t + 1], i)


def gradient_problems(preset_config, preset_params, preset_state0):
    """Seeded desk instances and the preset's day 61, in both terminal modes."""
    day61 = vaxmpc.rollout(preset_state0, np.zeros((60, 6)), preset_params).state(60)
    instances = [random_desk_instance(seed) for seed in range(20)]
    instances.append((preset_params, day61, preset_config.mpc))
    for params, state, cfg in instances:
        for mode in ("penalty", "hard"):
            cfg_mode = dataclasses.replace(cfg, terminal_mode=mode)
            yield build_ocp(state, cfg_mode, params)


def random_plans(problem, rng, count):
    """Admissible plans from nearly idle up to capacity-saturating, then one
    plan per group that spends most of the capacity on it, so the clamp
    binds and the group empties."""
    shape, v_bar = (problem.cfg.horizon, problem.n_a), problem.cfg.v_bar
    for k in range(count):
        scale = (0.01, 0.05, 0.5, 2.0)[k % 4]
        yield project_capacity(rng.uniform(0.0, scale, shape) * v_bar, v_bar)
    for k in range(problem.n_a):
        plan = rng.uniform(0.0, 0.1, shape)
        plan[:, k] = 1.0
        yield project_capacity(plan * v_bar, v_bar)


def kink_distances(problem, controls):
    """How far the clamp and the terminal hinge are from switching."""
    pred = predict(problem, controls)
    params = problem.params
    s, i = pred.s[:-1], pred.i[:-1]
    room = s - params.lam * s * (i @ params.contact.T)
    live = s > 0  # an emptied group stays empty under small changes
    clamp = min(
        np.min(np.abs(room[live]), initial=np.inf),
        np.min(np.abs(controls - room)),
    )
    overshoot = problem.cert.ct_lam @ pred.s[-1] - problem.cert.gamma_vec
    return clamp, float(np.min(np.abs(overshoot)))


def binding_mask(problem, controls):
    """Where the plant applies fewer doses than planned."""
    s, i = problem.s0, problem.i0
    binding = np.zeros(controls.shape, dtype=bool)
    for t in range(problem.cfg.horizon):
        s, i, applied = si_step(s, i, controls[t], problem.params)
        binding[t] = applied < controls[t]
    return binding


def day_first(plans):
    """A plan-major (..., N, n_a) batch as the solver's C-contiguous
    day-first (N, ..., n_a) batch; a single plan stays as it is."""
    return np.ascontiguousarray(np.moveaxis(plans, -2, 0))


def plan_major(batch):
    """A day-first (N, ..., n_a) batch or path as the oracles' (..., N, n_a)."""
    return np.moveaxis(batch, 0, -2)


def gradient(problem, controls):
    return _gradient(problem, controls, predict(problem, controls))


def objective(problem, controls):
    return _penalized_value(problem, predict(problem, controls))


def reference_predict(problem, controls):
    """The plan-major ``predict`` the time-major one replaced, kept verbatim."""
    big_n, n = problem.cfg.horizon, problem.n_a
    s = np.empty(controls.shape[:-2] + (big_n + 1, n))
    i = np.empty_like(s)
    u_eff = np.empty(controls.shape)
    s[..., 0, :], i[..., 0, :] = problem.s0, problem.i0
    for t in range(big_n):
        s[..., t + 1, :], i[..., t + 1, :], u_eff[..., t, :] = si_step(
            s[..., t, :], i[..., t, :], controls[..., t, :], problem.params
        )
    return SiTrajectory(s=s, i=i, u=u_eff)


def reference_gradient(problem, controls, predicted):
    """The plan-major ``_gradient`` the time-major one replaced, kept verbatim."""
    params, cert = problem.params, problem.cert
    big_n = problem.cfg.horizon
    lam, gd = params.lam, params.gamma_d
    s, i, u_eff = predicted.s, predicted.i, predicted.u

    room = (s[..., 1:, :] > 0) | ((s[..., 1:, :] == 0) & (u_eff > 0))
    free_u = room & (u_eff == controls)  # u_eff == u and room left
    keep = ~(room & (u_eff != controls))  # False where the clamp emptied the group
    rate = lam * matvec_rows(params.contact, i[..., :big_n, :])  # as in si_step
    hold = 1.0 - rate
    lam_s = lam * s[..., :big_n, :]
    decay = 1.0 - params.removal
    contact_t = params.contact.T
    # the module's overshoot reads day-first paths; only the call moves its axes
    day_first_path = SiTrajectory(*(np.moveaxis(x, -2, 0) for x in (s, i, u_eff)))
    violated = mpc._terminal_overshoot(problem, day_first_path) > 0
    p_s = problem.effective_weight * matvec_rows(cert.ct_lam.T, violated.astype(float))
    p_i = gd / problem.cfg.epsilon

    p_s_path = np.empty(controls.shape)
    for t in range(big_n - 1, -1, -1):
        p_s_path[..., t, :] = p_s
        keep_t = keep[..., t, :]
        p_s_next = np.where(keep_t, hold[..., t, :] * p_s, 0.0) + rate[..., t, :] * p_i
        flow = lam_s[..., t, :] * (p_i - keep_t * p_s)
        p_i = gd + decay * p_i + matvec_rows(contact_t, flow)
        p_s = p_s_next
    return np.where(free_u, -p_s_path, 0.0)


def emptied_group_problem():
    """A hard-mode instance whose plan empties group 1 on day 1, when that
    group meets only the still uninfected group 3, so its infection rate
    is zero; the terminal penalty drives both its adjoints negative there."""
    pop = np.array([4724.0, 1162.0, 3928.0, 3457.0])
    raw = np.zeros((4, 4))
    raw[0, 0], raw[1, 3], raw[2, 0], raw[3, 1], raw[3, 2] = 5.37, 4.2, 2.04, 1.13, 1.97
    params = vaxmpc.ModelParams(
        lam=np.array([0.057, 0.23, 0.054, 0.239]),
        gamma_r=np.array([0.305, 0.472, 0.126, 0.437]),
        gamma_d=np.array([0.016, 0.041, 0.049, 0.097]),
        population=pop,
        contact=raw / pop[None, :],
    )
    state0 = vaxmpc.initial_state(params, np.array([1414.0, 0.0, 0.0, 0.0]))
    cfg = vaxmpc.MpcConfig(
        horizon=5, epsilon=0.08, v_bar=float(pop.sum()),
        vaccination_start_day=1, strategy_horizon=5, terminal_mode="hard",
    )
    plan = np.tile(0.01 * pop, (5, 1))
    plan[1, 1] = pop[1]
    return build_ocp(state0, cfg, params), plan


class TestObjectiveGradient:
    def test_matches_central_differences_away_from_kinks(
        self, preset_config, preset_params, preset_state0
    ):
        rng = np.random.default_rng(1)
        checked = []
        for problem in gradient_problems(preset_config, preset_params, preset_state0):
            h = 1e-4 * problem.cfg.v_bar
            count = 2 if problem.n_a == 6 else 6
            for controls in random_plans(problem, rng, count):
                clamp, hinge = kink_distances(problem, controls)
                if clamp < 100 * h or hinge < 1e-3 * np.min(problem.cert.gamma_vec):
                    continue
                grad = gradient(problem, controls)
                central = np.empty_like(grad)
                for idx in np.ndindex(*grad.shape):
                    bump = np.zeros_like(controls)
                    bump[idx] = h
                    central[idx] = (
                        objective(problem, controls + bump)
                        - objective(problem, controls - bump)
                    ) / (2 * h)
                scale = np.max(np.abs(grad))
                assert np.max(np.abs(central - grad)) <= 1e-6 * scale
                checked.append((problem.n_a, binding_mask(problem, controls).any()))
        assert len(checked) >= 100
        assert sum(n_a == 6 for n_a, _ in checked) >= 4  # the preset, both modes
        assert sum(binds for _, binds in checked) >= 10

    def test_zero_where_clamp_binds(self, preset_config, preset_params, preset_state0):
        rng = np.random.default_rng(2)
        binding_total = 0
        for problem in gradient_problems(preset_config, preset_params, preset_state0):
            for controls in random_plans(problem, rng, 4):
                binding = binding_mask(problem, controls)
                grad = gradient(problem, controls)
                assert np.all(grad[binding] == 0.0)
                binding_total += int(binding.sum())
        assert binding_total > 0

    def test_time_major_equals_plan_major_reference(
        self, preset_config, preset_params, preset_state0
    ):
        """The day-first rollout and adjoint give the bits of the plan-major
        loops they replaced, plan by plan and for each problem's plans as one
        batch.  Some adjoints p_s go negative (a positive gradient entry),
        and in the emptied-group instance one does where the clamp mask
        zeroes it: 0.0 * p_s would be -0.0 there, not np.where's +0.0."""
        rng = np.random.default_rng(4)
        negative_p_s = 0
        emptied, emptying_plan = emptied_group_problem()
        cases = [(emptied, emptying_plan[None])]
        for problem in gradient_problems(preset_config, preset_params, preset_state0):
            cases.append((problem, np.array(list(random_plans(problem, rng, 4)))))
        for problem, plans in cases:
            for batch in [*plans, plans]:
                path = predict(problem, day_first(batch))
                ref_path = reference_predict(problem, batch)
                for name in ("s", "i", "u"):
                    ref = getattr(ref_path, name)
                    assert plan_major(getattr(path, name)).tobytes() == ref.tobytes()
                grad = plan_major(_gradient(problem, day_first(batch), path))
                assert grad.tobytes() == reference_gradient(problem, batch, ref_path).tobytes()
                negative_p_s += int(np.sum(grad > 0))
        assert negative_p_s > 0

    @pytest.mark.parametrize("dtype", [np.int64, np.float32])
    def test_non_float64_plans_keep_float64_doses(self, dtype):
        """The clamp lets a fractional dose through on day 0; stored in a
        buffer of the plan's dtype it would be cut to 769 or rounded."""
        params = vaxmpc.ModelParams(
            lam=np.array([0.02]),
            gamma_r=np.array([0.4]),
            gamma_d=np.array([0.1]),
            population=np.array([800.0]),
            contact=np.array([[1e-3]]),
        )
        state = vaxmpc.initial_state(params, np.array([30.0]))
        cfg = vaxmpc.MpcConfig(
            horizon=2, epsilon=0.1, v_bar=1000.0,
            vaccination_start_day=1, strategy_horizon=2,
        )
        problem = build_ocp(state, cfg, params)
        plans = np.array([[[800], [0]], [[20], [10]]], dtype=dtype)
        assert predict(problem, plans[0]).u[0, 0] % 1.0 != 0.0
        for batch in [*plans, plans]:
            path = predict(problem, day_first(batch))
            ref_path = reference_predict(problem, batch)
            assert path.u.dtype == np.float64
            for name in ("s", "i", "u"):
                ref = getattr(ref_path, name)
                assert plan_major(getattr(path, name)).tobytes() == ref.tobytes()
            grad = plan_major(_gradient(problem, day_first(batch), path))
            assert grad.tobytes() == reference_gradient(problem, batch, ref_path).tobytes()

    def test_trial_path_gives_fresh_rollout_bits(
        self, preset_config, preset_params, preset_state0
    ):
        """The descent hands the line search's batched path to the backward
        pass; each trial's gradient must be the bits a fresh rollout of that
        trial alone gives."""
        rng = np.random.default_rng(3)
        negative_zeros = binding = 0
        for problem in gradient_problems(preset_config, preset_params, preset_state0):
            v_bar = problem.cfg.v_bar
            trials = []
            for controls in random_plans(problem, rng, 4):
                grad = gradient(problem, controls)
                step_len = v_bar / max(np.max(np.abs(grad)), 1e-300)
                trials.append(project_capacity(controls - 0.1 * step_len * grad, v_bar))
            trials = day_first(np.array(trials))
            batched = _gradient(problem, trials, predict(problem, trials))
            for trial, grad in zip(plan_major(trials), plan_major(batched)):
                fresh_grad = _gradient(problem, trial, predict(problem, trial.copy()))
                assert grad.tobytes() == fresh_grad.tobytes()
                negative_zeros += int(np.sum((grad == 0) & np.signbit(grad)))
                binding += int(binding_mask(problem, trial).sum())
        assert negative_zeros > 0
        assert binding > 0


def counting(monkeypatch, problem):
    """Count calls to the solver's batched functions and the plans each call
    carried (rows of its leading batch axes); an ``si_step`` plan is one
    row of n_a groups."""
    calls, plans = collections.Counter(), collections.Counter()
    plan = problem.n_decision_vars
    units = {"predict": (1, plan), "project_capacity": (0, plan), "_gradient": (1, plan),
             "si_step": (2, problem.n_a)}
    for name, (position, unit) in units.items():
        inner = getattr(mpc, name)

        def wrapper(*args, _name=name, _inner=inner, _pos=position, _unit=unit, **kwargs):
            calls[_name] += 1
            plans[_name] += np.size(args[_pos]) // _unit
            return _inner(*args, **kwargs)

        monkeypatch.setattr(mpc, name, wrapper)
    return calls, plans


def reference_descend(problem, start):
    """The per-start descent the lockstep one replaced, kept verbatim (its
    start-point rollout went through a private twin of ``predict``)."""
    v_bar = problem.cfg.v_bar
    controls = project_capacity(start, v_bar)
    path = predict(problem, controls)
    value = _penalized_value(problem, path)
    if not np.isfinite(value):
        raise SolverFailure(f"non-finite objective {value} at the start point")
    grad = _gradient(problem, controls, path)
    scale = np.max(np.abs(grad))
    step_len = v_bar / scale if scale > 0 else 1.0
    iterations = 0
    stalls = 0
    for _ in range(mpc._MAX_ITERATIONS):
        iterations += 1
        moved = False
        for _ in range(mpc._MAX_BACKTRACKS):
            trial = project_capacity(controls - step_len * grad, v_bar)
            displacement = float(np.linalg.norm(trial - controls))
            if displacement == 0.0:
                break
            trial_path = predict(problem, trial)
            trial_value = _penalized_value(problem, trial_path)
            if not np.isfinite(trial_value):
                raise SolverFailure("non-finite objective during line search")
            if trial_value <= value - mpc._ARMIJO_C / step_len * displacement**2:
                moved = True
                break
            step_len *= 0.5
        if not moved:
            break
        drop = value - trial_value
        controls, value = trial, trial_value
        grad = _gradient(problem, controls, trial_path)
        if displacement <= mpc._STEP_TOLERANCE * (1.0 + float(np.linalg.norm(controls))):
            break
        if drop <= mpc._COST_TOLERANCE * (1.0 + abs(value)):
            stalls += 1
            if stalls >= 3:
                break
        else:
            stalls = 0
        step_len = min(step_len * 2.0, 1e6 * v_bar)
    return controls, value, iterations


def reference_solve_ocp(problem, warm_start=None):
    """The per-start ``solve_ocp`` the lockstep one replaced, kept verbatim."""
    best_controls = None
    best_value = np.inf
    total_iterations = 0
    for start in plan_major(_start_points(problem, warm_start)):
        controls, value, iters = reference_descend(problem, start)
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


def solution_bits(solution):
    """Every field of an ``OcpSolution`` as (type, shape, bytes)."""
    bits = {}
    for fld in dataclasses.fields(solution):
        value = getattr(solution, fld.name)
        parts = [value]
        if isinstance(value, SiTrajectory):
            parts = [getattr(value, name) for name in ("s", "i", "u")]
        bits[fld.name] = [(type(x), np.shape(x), np.array(x).tobytes()) for x in parts]
    return bits


def bits_digest(solutions):
    """sha256 of the ``solution_bits`` of each solution, in order."""
    digest = hashlib.sha256()
    for solution in solutions:
        for name, parts in solution_bits(solution).items():
            digest.update(name.encode())
            for kind, shape, raw in parts:
                digest.update(f"{kind.__name__}{shape}".encode())
                digest.update(raw)
    return digest.hexdigest()


def random_instance(seed):
    """Seeded instance with 1-8 groups, horizon 3-15 and 0-5 random starts;
    both terminal modes, and a warm start on odd seeds."""
    rng = np.random.default_rng(seed)
    n_a, horizon = 1 + seed % 8, int(rng.integers(3, 16))
    pop = rng.uniform(1000, 10000, n_a)
    lam = rng.uniform(0.02, 0.3, n_a)
    gamma_r = rng.uniform(0.2, 0.7, n_a)
    gamma_d = rng.uniform(0.01, 0.2, n_a)
    scale = np.where(gamma_r + gamma_d > 0.98, 0.98 / (gamma_r + gamma_d), 1.0)
    raw = rng.uniform(0.1, 1.0, (n_a, n_a)) + np.diag(rng.uniform(2, 8, n_a))
    raw *= min(1.0, 0.9 / np.max(lam * raw.sum(axis=1)))
    params = vaxmpc.ModelParams(
        lam=lam,
        gamma_r=gamma_r * scale,
        gamma_d=gamma_d * scale,
        population=pop,
        contact=raw / pop[None, :],
    )
    state0 = vaxmpc.initial_state(params, rng.uniform(0.001, 0.05, n_a) * pop)
    cfg = vaxmpc.MpcConfig(
        horizon=horizon,
        epsilon=0.05,
        v_bar=float(rng.uniform(0.02, 0.15) * pop.sum()),
        rng_seed=seed,
        vaccination_start_day=1,
        strategy_horizon=horizon,
        n_restarts=int(rng.integers(0, 6)),
        terminal_mode=("penalty", "hard")[int(rng.integers(0, 2))],
    )
    warm = rng.uniform(0.0, 1.5 * cfg.v_bar, (horizon, n_a)) if seed % 2 else None
    return build_ocp(state0, cfg, params), warm


def desk_problems():
    """The 20 seeded desk instances in both terminal modes, cold and warm
    started: (label, problem, warm start or None)."""
    for seed in range(20):
        params, state0, cfg = random_desk_instance(seed)
        warm = np.random.default_rng(seed).uniform(0.0, 1.5 * cfg.v_bar, (cfg.horizon, params.n_a))
        for mode in ("penalty", "hard"):
            problem = build_ocp(state0, dataclasses.replace(cfg, terminal_mode=mode), params)
            for start in (None, warm):
                yield f"seed {seed}, {mode}, warm={start is not None}", problem, start


class TestLockstepDescent:
    """The lockstep descent returns bitwise what the per-start one returns."""

    def test_desk_instances_equal_per_start_solver(self):
        for label, problem, start in desk_problems():
            assert solution_bits(solve_ocp(problem, start)) == solution_bits(
                reference_solve_ocp(problem, start)
            ), label

    def test_exhausted_backtrack_budget_equal_per_start_solver(self, monkeypatch):
        """With a budget of 4 backtracks, a start that fails a round of three
        trials has one left: the budget caps its next round and stops it."""
        monkeypatch.setattr(mpc, "_MAX_BACKTRACKS", 4)
        for label, problem, start in desk_problems():
            assert solution_bits(solve_ocp(problem, start)) == solution_bits(
                reference_solve_ocp(problem, start)
            ), label

    def test_random_instances_equal_per_start_solver(self):
        shapes = set()
        for seed in range(16):
            problem, warm = random_instance(seed)
            assert solution_bits(solve_ocp(problem, warm)) == solution_bits(
                reference_solve_ocp(problem, warm)
            ), f"seed {seed}"
            shapes.add((problem.n_a, problem.cfg.n_restarts))
        assert {n_a for n_a, _ in shapes} == set(range(1, 9))
        assert len({restarts for _, restarts in shapes}) >= 4

    def test_preset_days_61_and_62_equal_per_start_solver(
        self, preset_config, preset_params, preset_state0
    ):
        cfg = preset_config.mpc
        day61 = vaxmpc.rollout(preset_state0, np.zeros((60, 6)), preset_params).state(60)
        problem = build_ocp(day61, cfg, preset_params)
        first = solve_ocp(problem)
        assert solution_bits(first) == solution_bits(reference_solve_ocp(problem))
        day62 = vaxmpc.step(day61, first.controls[0], preset_params)
        warm = np.vstack([first.controls[1:], np.zeros((1, 6))])
        problem = build_ocp(day62, cfg, preset_params)
        assert solution_bits(solve_ocp(problem, warm)) == solution_bits(
            reference_solve_ocp(problem, warm)
        )


class TestSolverBits:
    """Every bit of the solver's output, pinned independently of the module:
    the per-start reference solver calls the module's own rollout and
    gradient, so it would move with them."""

    def test_desk_instances_pinned(self):
        solutions = (solve_ocp(problem, start) for _, problem, start in desk_problems())
        assert bits_digest(solutions) == (
            "950c8a335ab223fd5b863157c0bc17db5797132e89ded978576c3e590f8b655f"
        )

    def test_preset_days_61_and_62_pinned(self, preset_config, preset_params, preset_state0):
        cfg = preset_config.mpc
        day61 = vaxmpc.rollout(preset_state0, np.zeros((60, 6)), preset_params).state(60)
        first = solve_ocp(build_ocp(day61, cfg, preset_params))
        assert bits_digest([first]) == (
            "d045efb9dfef9329fa2df70c907494cd0528b739ba3b1cbf6df031d200829ab1"
        )
        day62 = vaxmpc.step(day61, first.controls[0], preset_params)
        warm = np.vstack([first.controls[1:], np.zeros((1, 6))])
        second = solve_ocp(build_ocp(day62, cfg, preset_params), warm)
        assert bits_digest([second]) == (
            "bd4bc88deaffbb7c66bb12f020eb3f4d36996062c9b2dd819aa94c6660c387dc"
        )


class TestBatchInvariance:
    """A plan's projection, rollout, value and gradient are bitwise the same
    alone or in a batch of any size."""

    @pytest.mark.parametrize("count", [1, 2, 7, 11, 64])
    def test_batched_plan_equals_plan_alone(
        self, count, preset_config, preset_params, preset_state0
    ):
        rng = np.random.default_rng(count)
        day61 = vaxmpc.rollout(preset_state0, np.zeros((60, 6)), preset_params).state(60)
        problems = [random_instance(seed)[0] for seed in range(8)]
        for mode in ("penalty", "hard"):
            cfg = dataclasses.replace(preset_config.mpc, terminal_mode=mode)
            problems.append(build_ocp(day61, cfg, preset_params))
        violated = binding = 0
        for problem in problems:
            v_bar = problem.cfg.v_bar
            pool = list(random_plans(problem, rng, count))
            plans = np.array([pool[k] for k in rng.permutation(len(pool))[:count]])
            raw = plans + rng.normal(0.0, 0.3 * v_bar, plans.shape)
            plans, raw = day_first(plans), day_first(raw)
            projected = project_capacity(raw, v_bar)
            path = predict(problem, plans)
            values = _penalized_value(problem, path)
            costs = plan_cost(problem, path)
            grads = _gradient(problem, plans, path)
            assert values.shape == costs.shape == (count,)
            for k in range(count):
                alone = project_capacity(raw[:, k].copy(), v_bar)
                assert projected[:, k].tobytes() == alone.tobytes()
                plan = plans[:, k].copy()
                own = predict(problem, plan)
                for name in ("s", "i", "u"):
                    assert getattr(path, name)[:, k].tobytes() == getattr(own, name).tobytes()
                assert values[k] == _penalized_value(problem, own)
                assert costs[k] == plan_cost(problem, own)
                assert grads[:, k].tobytes() == _gradient(problem, plan, own).tobytes()
                violated += terminal_slack(problem, own) > 0
                binding += bool(binding_mask(problem, plan).any())
        assert violated > 0
        assert binding > 0

    def test_two_batch_axes_equal_plans_alone(
        self, preset_config, preset_params, preset_state0
    ):
        """An (N, 2, 3, n_a) batch gives plan [:, a, b] the bits it gets
        alone: moving the day axis next to the group axis must keep the
        batch axes in order (a swap of the day and last batch axes keeps one
        batch axis intact but not two)."""
        rng = np.random.default_rng(5)
        day61 = vaxmpc.rollout(preset_state0, np.zeros((60, 6)), preset_params).state(60)
        problems = [random_instance(seed)[0] for seed in range(8)]
        problems.append(build_ocp(day61, preset_config.mpc, preset_params))
        for problem in problems:
            pool = list(random_plans(problem, rng, 6))
            plans = np.array([pool[k] for k in rng.permutation(len(pool))[:6]])
            plans = day_first(plans.reshape((2, 3) + plans.shape[1:]))
            path = predict(problem, plans)
            values = _penalized_value(problem, path)
            costs = plan_cost(problem, path)
            grads = _gradient(problem, plans, path)
            assert values.shape == costs.shape == (2, 3)
            assert grads.shape == plans.shape
            for idx in np.ndindex(2, 3):
                day_idx = (slice(None), *idx)
                plan = plans[day_idx].copy()
                own = predict(problem, plan)
                for name in ("s", "i", "u"):
                    got = getattr(path, name)[day_idx]
                    assert got.tobytes() == getattr(own, name).tobytes()
                assert values[idx] == _penalized_value(problem, own)
                assert costs[idx] == plan_cost(problem, own)
                assert grads[day_idx].tobytes() == _gradient(problem, plan, own).tobytes()

    def test_batch_paths_are_contiguous_and_day_first(
        self, preset_config, preset_params, preset_state0
    ):
        """A batch's paths are real day-first arrays, not views of another
        layout, so day t of every plan is one contiguous block."""
        day61 = vaxmpc.rollout(preset_state0, np.zeros((60, 6)), preset_params).state(60)
        problem = build_ocp(day61, preset_config.mpc, preset_params)
        plans = np.stack(list(random_plans(problem, np.random.default_rng(6), 5)), axis=1)
        assert plans.shape == (40, 11, 6)
        path = predict(problem, plans)
        assert path.s.shape == path.i.shape == (41, 11, 6)
        assert path.u.shape == (40, 11, 6)
        for name in ("s", "i", "u"):
            assert getattr(path, name).flags.c_contiguous, name

    @pytest.mark.parametrize("count", [1, 2, 7, 11, 33, 64])
    def test_batched_norm_equals_linalg_norm(self, count):
        """The descent's batched plan norms are the bits ``np.linalg.norm``
        gives each plan alone, all-zero plans included."""
        rng = np.random.default_rng(count)
        for _ in range(50):
            shape = (count, int(rng.integers(1, 61)), int(rng.integers(1, 9)))
            plans = rng.normal(0.0, 10.0 ** rng.uniform(-8, 5), shape)
            plans[rng.random(shape) < 0.3] = 0.0
            plans[rng.random(count) < 0.2] = 0.0
            norms = mpc._norms(day_first(plans))
            assert norms.shape == (count,)
            for norm, plan in zip(norms, plans):
                assert norm.tobytes() == np.float64(np.linalg.norm(plan)).tobytes()


class TestPresetSolverPath:
    def test_day_61_cold_and_day_62_warm_pinned(
        self, preset_config, preset_params, preset_state0, monkeypatch
    ):
        """Iteration counts, optimal values, plan counts and call counts of
        the preset's first two solves at seed 0, as run by the closed loop."""
        cfg = preset_config.mpc
        assert cfg.rng_seed == 0
        day61 = vaxmpc.rollout(preset_state0, np.zeros((60, 6)), preset_params).state(60)
        problem = build_ocp(day61, cfg, preset_params)
        n_starts = _start_points(problem, None).shape[1]
        calls, plans = counting(monkeypatch, problem)
        first = solve_ocp(problem)
        assert first.iterations == 1158
        assert first.optimal_value == 1910.920153766089
        # one projection per start and per line-search trial, up to three
        # trials per start and round; one rollout per trial that moves, per
        # start and for the solution: the gradient never re-rolls a trial
        assert plans["project_capacity"] == 3995
        assert plans["predict"] == 3985 + n_starts
        assert plans["si_step"] == plans["predict"] * cfg.horizon
        # one gradient per start point and per accepted step that goes on:
        # a trial the search does not take is never differentiated
        assert plans["_gradient"] == 1158
        # the starts descend in lockstep: one batched call per round
        assert calls["project_capacity"] == 178
        assert calls["predict"] == 179
        assert calls["_gradient"] == 176
        assert calls["si_step"] == calls["predict"] * cfg.horizon == 7160

        day62 = vaxmpc.step(day61, first.controls[0], preset_params)
        warm = np.vstack([first.controls[1:], np.zeros((1, 6))])
        second = solve_ocp(build_ocp(day62, cfg, preset_params), warm_start=warm)
        assert second.iterations == 1582
        assert second.optimal_value == 1757.1939843251089


class TestSpeculation:
    """A round's extra trials change how many rounds a solve takes, never
    which trial a start takes."""

    def test_every_depth_gives_the_same_bits(
        self, preset_config, preset_params, preset_state0, monkeypatch
    ):
        day61 = vaxmpc.rollout(preset_state0, np.zeros((60, 6)), preset_params).state(60)
        preset = build_ocp(day61, preset_config.mpc, preset_params)
        problems = [(problem, start) for _, problem, start in desk_problems()]
        problems.append((preset, None))
        expected = [solution_bits(solve_ocp(problem, start)) for problem, start in problems]
        calls, _ = counting(monkeypatch, preset)
        for depth in (1, 2, 5, mpc._MAX_BACKTRACKS):
            monkeypatch.setattr(mpc, "_SPECULATION", depth)
            for (problem, start), bits in zip(problems, expected):
                calls.clear()
                assert solution_bits(solve_ocp(problem, start)) == bits, depth
            if depth == 1:  # one trial per round: the start points, then 306 rounds
                assert calls["project_capacity"] == 1 + 306

    @pytest.mark.parametrize("poison", [np.nan, -np.inf])
    def test_only_a_consumed_trial_can_fail(
        self, desk_params, desk_state0, desk_cfg, monkeypatch, poison
    ):
        """On the desk problem the first round's 21 trials all move and
        start 0 takes its first, so trial 1 (its s/2) is dropped unread
        and trial 0 is consumed."""
        problem = build_ocp(desk_state0, desk_cfg, desk_params)
        expected = solution_bits(solve_ocp(problem))
        for target, fails in ((1, False), (0, True)):
            calls = []

            def poisoned(problem, predicted, _target=target, _inner=_penalized_value):
                value = _inner(problem, predicted)
                calls.append(np.size(value))
                if len(calls) == 2:  # the first line-search round
                    assert np.size(value) == 21
                    value[_target] = poison
                return value

            monkeypatch.setattr(mpc, "_penalized_value", poisoned)
            if fails:
                with pytest.raises(SolverFailure, match="during line search"):
                    solve_ocp(problem)
            else:
                assert solution_bits(solve_ocp(problem)) == expected
            assert len(calls) >= 2


class TestTerminalSlack:
    def test_disease_free_rule_matches_certificates(self, preset_config, preset_params):
        """Every |I_k| <= 1e-12 is disease-free for the planner as for the
        certificates, though the six together sum past 1e-12."""
        pop = preset_params.population
        zeros = np.zeros(6)
        cert = vaxmpc.CertificateParams.from_model(preset_params, preset_config.mpc.epsilon)
        problem = build_ocp(
            vaxmpc.initial_state(preset_params, zeros), preset_config.mpc, preset_params
        )
        big_n = problem.cfg.horizon
        for i_end, inside in ((np.full(6, 5e-13), True), (np.full(6, 2e-12), False)):
            state = vaxmpc.EpidemicState(s=pop - 3e-12, i=i_end, r=zeros, d=zeros)
            assert not np.all(cert.ct_lam @ state.s <= cert.gamma_vec)
            path = SiTrajectory(
                s=np.tile(state.s, (big_n + 1, 1)),
                i=np.tile(state.i, (big_n + 1, 1)),
                u=np.zeros((big_n, 6)),
            )
            assert vaxmpc.in_terminal_set(state, cert) is inside
            assert (terminal_slack(problem, path) == 0.0) is inside

    def test_slack_per_plan(self, preset_config, preset_params):
        """A batch of paths gets each path's own slack: the disease-free
        rule is applied per plan."""
        pop = preset_params.population
        problem = build_ocp(
            vaxmpc.initial_state(preset_params, np.zeros(6)), preset_config.mpc, preset_params
        )
        big_n = problem.cfg.horizon
        paths = [
            SiTrajectory(
                s=np.tile(pop - 3e-12, (big_n + 1, 1)),
                i=np.tile(i_end, (big_n + 1, 1)),
                u=np.zeros((big_n, 6)),
            )
            for i_end in (np.full(6, 5e-13), np.full(6, 2e-12))
        ]
        batch = SiTrajectory(*(np.stack([getattr(p, f) for p in paths], axis=1) for f in "siu"))
        slack = terminal_slack(problem, batch)
        assert slack[0] == terminal_slack(problem, paths[0]) == 0.0
        assert slack[1] == terminal_slack(problem, paths[1]) > 0.0


class TestSolveOcp:
    def test_disease_free_start_returns_zero_plan(self, desk_params):
        state = vaxmpc.initial_state(desk_params, np.zeros(2))
        cfg = vaxmpc.MpcConfig(
            horizon=3, v_bar=500.0, vaccination_start_day=1, strategy_horizon=3
        )
        problem = build_ocp(state, cfg, desk_params)
        solution = solve_ocp(problem)
        assert solution.optimal_value == 0.0
        assert not solution.controls.any()
        assert solution.feasible

    def test_scalar_fine_grid_oracle(self):
        params, state0, _ = random_desk_instance(1)  # n_a == 1 instance
        assert params.n_a == 1
        cfg = vaxmpc.MpcConfig(
            horizon=2, epsilon=0.05, v_bar=400.0,
            vaccination_start_day=1, strategy_horizon=2, rng_seed=1,
        )
        problem = build_ocp(state0, cfg, params)
        solution = solve_ocp(problem)
        oracle, _ = grid_search(problem, levels=101)
        assert penalized_value(problem, solution) <= oracle * (1 + 1e-3)

    def test_twenty_seeded_instances_match_grid(self):
        for seed in range(20):
            params, state0, cfg = random_desk_instance(seed)
            problem = build_ocp(state0, cfg, params)
            solution = solve_ocp(problem)
            oracle, _ = grid_search(problem)
            assert penalized_value(problem, solution) <= oracle * (1 + 1e-3), (
                f"seed {seed}: solver {penalized_value(problem, solution)} "
                f"vs grid {oracle}"
            )

    def test_asymmetric_death_rates_shift_allocation(self):
        # identical groups except the death rate: both the solver and the
        # grid argmax put more vaccine on the deadlier group
        pop = np.array([5000.0, 5000.0])
        raw = np.array([[4.0, 1.0], [1.0, 4.0]])
        params = vaxmpc.ModelParams(
            lam=np.array([0.1, 0.1]),
            gamma_r=np.array([0.4, 0.3]),
            gamma_d=np.array([0.01, 0.11]),
            population=pop,
            contact=raw / pop[None, :],
        )
        state0 = vaxmpc.initial_state(params, np.array([50.0, 50.0]))
        cfg = vaxmpc.MpcConfig(
            horizon=3, epsilon=0.05, v_bar=800.0,
            vaccination_start_day=1, strategy_horizon=3, rng_seed=0,
        )
        problem = build_ocp(state0, cfg, params)
        solution = solve_ocp(problem)
        _, grid_controls = grid_search(problem)
        assert solution.controls[:, 1].sum() > solution.controls[:, 0].sum()
        assert grid_controls[:, 1].sum() > grid_controls[:, 0].sum()

    def test_deterministic_given_seed(self, desk_params, desk_state0, desk_cfg):
        problem = build_ocp(desk_state0, desk_cfg, desk_params)
        first = solve_ocp(problem)
        second = solve_ocp(problem)
        assert np.array_equal(first.controls, second.controls)
        assert first.optimal_value == second.optimal_value
        assert first.iterations == second.iterations

    def test_optimal_value_consistent_with_prediction(
        self, desk_params, desk_state0, desk_cfg
    ):
        problem = build_ocp(desk_state0, desk_cfg, desk_params)
        solution = solve_ocp(problem)
        recomputed = plan_cost(problem, predict(problem, solution.controls))
        assert solution.optimal_value == pytest.approx(recomputed, rel=1e-10)

    def test_controls_admissible(self, desk_params, desk_state0, desk_cfg):
        problem = build_ocp(desk_state0, desk_cfg, desk_params)
        solution = solve_ocp(problem)
        assert np.all(solution.controls >= 0)
        assert np.all(
            solution.controls.sum(axis=1) <= desk_cfg.v_bar * (1 + 1e-12)
        )

    def test_unreachable_hard_terminal_reports_infeasible(
        self, desk_params, desk_state0
    ):
        cfg = vaxmpc.MpcConfig(
            horizon=2, v_bar=10.0, vaccination_start_day=1, strategy_horizon=2,
            terminal_mode="hard", rng_seed=0, n_restarts=1,
        )
        problem = build_ocp(desk_state0, cfg, desk_params)
        solution = solve_ocp(problem)
        assert not solution.feasible
        assert solution.terminal_slack > 0
        assert np.all(solution.controls.sum(axis=1) <= 10.0 * (1 + 1e-12))


class TestClosedLoop:
    def test_below_threshold_start_equals_zero_rollout(self, desk_params):
        state0 = vaxmpc.initial_state(desk_params, np.zeros(2))
        cfg = vaxmpc.MpcConfig(
            horizon=4, v_bar=500.0, eradication_threshold=1.0,
            vaccination_start_day=1, strategy_horizon=10,
        )
        run = vaxmpc.run_policy_loop(state0, cfg, desk_params)
        reference = vaxmpc.rollout(state0, np.zeros((10, 2)), desk_params)
        assert np.array_equal(run.trajectory.s, reference.s)
        assert np.array_equal(run.trajectory.d, reference.d)
        assert not run.controls.any()
        assert run.latch_day == 1

    def test_eradication_latch_sticks(self, desk_params, desk_state0):
        cfg = vaxmpc.MpcConfig(
            horizon=6, v_bar=1200.0, eradication_threshold=1.0,
            vaccination_start_day=1, strategy_horizon=25,
            terminal_mode="hard", rng_seed=0,
        )
        run = vaxmpc.run_policy_loop(desk_state0, cfg, desk_params)
        assert run.latch_day is not None
        latch_t = run.latch_day - 1
        assert not run.controls[latch_t:].any()
        assert all(
            rec.v_n0 is None
            for rec in run.day_records
            if rec.day >= run.latch_day
        )

    def test_descent_along_feasible_steps(self, desk_params, desk_state0, desk_cfg):
        run = vaxmpc.run_policy_loop(desk_state0, desk_cfg, desk_params)
        recs = [rec for rec in run.day_records if rec.v_n0 is not None]
        for prev, nxt in zip(recs, recs[1:]):
            if prev.feasible and nxt.day == prev.day + 1:
                assert nxt.v_n0 <= prev.v_n0 * (1 + 1e-6)

    def test_shifted_plan_stays_feasible(self, desk_params, desk_state0, desk_cfg):
        problem = build_ocp(desk_state0, desk_cfg, desk_params)
        solution = solve_ocp(problem)
        assert solution.feasible
        nxt = vaxmpc.step(desk_state0, solution.controls[0], desk_params)
        shifted = np.vstack([solution.controls[1:], np.zeros((1, 2))])
        assert np.all(shifted.sum(axis=1) <= desk_cfg.v_bar * (1 + 1e-12))
        next_problem = build_ocp(nxt, desk_cfg, desk_params)
        assert terminal_slack(next_problem, predict(next_problem, shifted)) == 0.0

    def test_applied_controls_admissible(self, desk_params, desk_state0, desk_cfg):
        run = vaxmpc.run_policy_loop(desk_state0, desk_cfg, desk_params)
        applied = run.trajectory.applied_u
        assert np.all(applied >= 0)
        assert np.all(applied.sum(axis=1) <= desk_cfg.v_bar * (1 + 1e-12))

    def test_bitwise_reproducible(self, desk_params, desk_state0, desk_cfg):
        first = vaxmpc.run_policy_loop(desk_state0, desk_cfg, desk_params)
        second = vaxmpc.run_policy_loop(desk_state0, desk_cfg, desk_params)
        assert np.array_equal(first.trajectory.d, second.trajectory.d)
        assert np.array_equal(first.controls, second.controls)

    def test_start_day_beyond_horizon_rejected(self, desk_params, desk_state0):
        cfg = vaxmpc.MpcConfig(
            horizon=4, v_bar=500.0, vaccination_start_day=50, strategy_horizon=10
        )
        with pytest.raises(ValidationError):
            vaxmpc.run_policy_loop(desk_state0, cfg, desk_params)

    def test_unknown_policy_rejected(self, desk_params, desk_state0, desk_cfg):
        with pytest.raises(ValidationError):
            vaxmpc.run_policy_loop(desk_state0, desk_cfg, desk_params, "greedy")


class TestMpcConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"horizon": 0},
            {"v_bar": 0.0},
            {"eradication_threshold": 0.0},
            {"terminal_mode": "soft"},
            {"n_restarts": -1},
            {"n_restarts": mpc.MAX_RESTARTS + 1},
            {"horizon": 2.5},
            {"horizon": True},
            {"strategy_horizon": mpc.MAX_DAYS + 1},
            {"epsilon": float("nan")},
            {"v_bar": "1"},
            {"vaccination_start_day": -1},
            {"rng_seed": -1},
        ],
    )
    def test_bad_settings_rejected(self, kwargs):
        (name,) = kwargs
        with pytest.raises(ValidationError, match=f"^{name} must be"):
            vaxmpc.MpcConfig(**kwargs)
        with pytest.raises(ValidationError, match=f"^{name} must be"):
            dataclasses.replace(vaxmpc.MpcConfig(), **kwargs)

    def test_epsilon_checked_against_rates(self, preset_params, preset_state0):
        with pytest.raises(ValidationError, match="^epsilon=0.7 outside"):
            mpc.check_loop_inputs(preset_state0, vaxmpc.MpcConfig(epsilon=0.7), preset_params, "mpc")
