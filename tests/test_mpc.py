import collections
import dataclasses
import hashlib
import itertools
from types import SimpleNamespace

import numpy as np
import pytest

import vaxmpc
from vaxmpc import mpc
from vaxmpc.certificates import constraint_excess, disease_free
from vaxmpc.errors import ContractViolation, SolverFailure, ValidationError
from vaxmpc.mpc import (
    OcpSolution,
    SiTrajectory,
    _gradient,
    _start_points,
    build_ocp,
    predict,
    project_capacity,
    solve_ocp,
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
    slack[np.abs(i).max(axis=1) <= 1e-12] = 0.0
    total = cost + problem.effective_weight * slack
    best = int(np.argmin(total))
    return float(total[best]), step_controls[sequences[best]]


def penalized_value(problem, solution: OcpSolution) -> float:
    return solution.optimal_value + problem.effective_weight * solution.terminal_slack


def reference_project(controls, v_bar):
    """The sort/cumsum ``project_capacity`` the column-wise one replaced, kept verbatim."""
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


def passing_columns(rows, v_bar):
    """The reference's test ordered - excess / idx > 0, per sorted column of each row."""
    ordered = np.sort(rows, axis=1)[:, ::-1]
    excess = np.cumsum(ordered, axis=1) - v_bar
    return ordered - excess / np.arange(1, rows.shape[1] + 1) > 0


def adversarial_rows(rng, n, magnitude):
    """Rows of n entries near ``magnitude``: ties drawn from a few values
    that include 0.0 and -0.0, entries spread over fifteen decades, some
    negative, and rows of one value give or take an ulp or two."""
    picks = magnitude * np.array([1.0, 1.0, 0.5, 0.0, -0.0, -0.25])
    ties = rng.choice(picks, size=(64, n))
    spread = rng.uniform(-0.2, 1.0, (64, n)) * 10.0 ** rng.integers(-15, 1, (64, n))
    ulps = 1.0 + rng.integers(-2, 3, (64, n)) * np.finfo(float).eps
    return np.concatenate([ties, magnitude * spread, magnitude * rng.uniform(0, 1, (64, 1)) * ulps])


class TestProjectCapacity:
    @pytest.mark.parametrize("n", [1, 2, 6, 16])
    def test_adversarial_batches_equal_reference_bytes(self, n):
        """Ties, signed zeros, sums one ulp either side of v_bar and 1e-3 to
        1e7 magnitudes give the reference's bytes.  Some rows pass the test
        ordered - excess / idx > 0 on a column after failing it on an
        earlier one: a threshold read off the last passing column, not the
        count of them, would move their bits.  Some rows pass it on none
        (rho = 0), where the reference divides by zero; those come back
        finite, nonnegative and within capacity, with no division by zero."""
        rng = np.random.default_rng(n)
        nonprefix = unreached = 0
        for magnitude in 10.0 ** np.arange(-3, 8):
            rows = adversarial_rows(rng, n, magnitude)
            sums = np.maximum(rows, 0.0).sum(axis=1)
            bars = [magnitude * f for f in (1e-17, 1e-9, 0.3, n / 2, 1e3 * n)]
            for k in rng.choice(len(rows), 3):
                bars += [np.nextafter(sums[k], -np.inf), sums[k], np.nextafter(sums[k], np.inf)]
            for v_bar in bars:
                with np.errstate(divide="raise", invalid="raise"):
                    got = project_capacity(rows, v_bar)
                with np.errstate(divide="ignore", invalid="ignore"):
                    want = reference_project(rows, v_bar)
                passing = passing_columns(rows[sums > v_bar], v_bar)
                reached = np.ones(len(rows), dtype=bool)
                reached[sums > v_bar] = passing.any(axis=1)
                assert got[reached].tobytes() == want[reached].tobytes(), (magnitude, v_bar)
                cut = got[~reached]
                assert np.isfinite(cut).all() and (cut >= 0.0).all()
                # one ulp under a zero sum, v_bar is -5e-324 and no row fits
                assert (cut.sum(axis=1) <= max(v_bar, 0.0)).all()
                nonprefix += int((passing[:, 1:] & ~passing[:, :-1]).any(axis=1).sum())
                unreached += int((~reached).sum())
        assert unreached > 0
        assert nonprefix > 0 or n <= 2  # none came up with one or two columns

    def test_no_passing_column_projects_to_zero(self):
        """A row that no sorted column passes, at v_bar = 0 or below half an
        ulp of its largest entry, projects to zeros without dividing by zero."""
        with np.errstate(all="raise"):
            for rows, v_bar in (([[1.0, -1.0]], 0.0), ([[1e20, 3.0]], 1e-6)):
                assert project_capacity(rows, v_bar).tolist() == [[0.0, 0.0]]

    def test_all_over_and_none_over(self):
        rng = np.random.default_rng(9)
        plans = rng.uniform(0.0, 1.0, (40, 33, 6))
        for v_bar in (1e-3, 1e3):  # every row over capacity, then none
            got = project_capacity(plans, v_bar)
            assert got.tobytes() == reference_project(plans, v_bar).tobytes()
        assert np.array_equal(project_capacity(plans, 1e3), plans)

    def test_preset_solve_batches_equal_reference_bytes(
        self, preset_config, preset_params, preset_state0, monkeypatch
    ):
        """Every batch the day-61 solve projects, its first (40, 33, 6)
        trial batch among them, gives the reference's bytes."""
        day61 = vaxmpc.rollout(preset_state0, np.zeros((60, 6)), preset_params).state(60)
        batches = []

        def recording(controls, v_bar, _inner=project_capacity):
            batches.append((controls.copy(), v_bar))
            return _inner(controls, v_bar)

        monkeypatch.setattr(mpc, "project_capacity", recording)
        solve_ocp(build_ocp(day61, preset_config.mpc, preset_params))
        assert (40, 33, 6) in [controls.shape for controls, _ in batches]
        for controls, v_bar in batches:
            got = project_capacity(controls, v_bar)
            assert got.tobytes() == reference_project(controls, v_bar).tobytes()

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
            assert pred.cost == pred.value == 0.0
            assert not pred.overshoot.any()

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
        assert pred.cost == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("shape", [(41, 6), (39, 6), (40, 5), (39, 3, 6), (40,)])
    def test_misshaped_plans_rejected(self, shape, preset_params, preset_state0):
        """A plan longer than the horizon used to come back with an
        uninitialised last dose row, and a shorter one died in an IndexError."""
        problem = build_ocp(preset_state0, vaxmpc.MpcConfig(), preset_params)
        with pytest.raises(ContractViolation, match=r"expected \(40, \.\.\., 6\)"):
            predict(problem, np.zeros(shape))

    def test_params_of_another_group_count_rejected(self, desk_state0, preset_params):
        with pytest.raises(ContractViolation, match="^state and params disagree on group count$"):
            build_ocp(desk_state0, vaxmpc.MpcConfig(), preset_params)

    def test_prediction_matches_plant_stepping_bitwise(
        self, preset_config, preset_params, preset_state0
    ):
        """The rollout gives the plant's S, I and applied doses byte for byte
        (signed zeros included) on the preset's day 61, for a plan alone and
        inside a batch, with plans that empty a group so the clamp binds."""
        day61 = vaxmpc.rollout(preset_state0, np.zeros((60, 6)), preset_params).state(60)
        problem = build_ocp(day61, preset_config.mpc, preset_params)
        plans = np.array(list(random_plans(problem, np.random.default_rng(3), 4)))
        batch = predict(problem, day_first(plans))
        binding = 0
        for k, plan in enumerate(plans):
            plant = vaxmpc.rollout(day61, plan, preset_params)
            for path in (predict(problem, plan), batch.take(k)):
                assert path.s.tobytes() == plant.s.tobytes()
                assert path.i.tobytes() == plant.i.tobytes()
                assert path.u.tobytes() == plant.applied_u.tobytes()
            binding += bool((plant.applied_u < plan).any())
        assert binding >= problem.n_a  # each plan that spends on one group empties it


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
    return predict(problem, controls).value


def reference_overshoot(problem, s_end, i_end):
    """The terminal hinge per constraint of horizon-end S and I rows, as the
    helper that scored it before ``predict`` did, kept verbatim."""
    excess = constraint_excess(s_end, problem.cert)
    free = disease_free(i_end)[..., None]
    return np.where(free, 0.0, np.maximum(0.0, excess))


def reference_scores(problem, predicted):
    """(plan cost, terminal slack) of one plan's day-first path, as the
    helpers that scored it before ``predict`` did, kept verbatim."""
    gd, big_n = problem.params.gamma_d, problem.cfg.horizon
    running = (np.moveaxis(predicted.i[:big_n], 0, -2) @ gd).sum(axis=-1)
    terminal = matvec_rows(gd, predicted.i[big_n]) / problem.cfg.epsilon
    slack = reference_overshoot(problem, predicted.s[big_n], predicted.i[big_n]).sum(axis=-1)
    return float(running + terminal), float(slack)


def reference_value(problem, predicted):
    """The penalized value of one plan's path, from :func:`reference_scores`."""
    cost, slack = reference_scores(problem, predicted)
    return cost + problem.effective_weight * slack


def reference_predict(problem, controls):
    """The plan-major ``predict`` the time-major one replaced, kept verbatim
    but for its result: a namespace of the s, i and u paths."""
    big_n, n = problem.cfg.horizon, problem.n_a
    s = np.empty(controls.shape[:-2] + (big_n + 1, n))
    i = np.empty_like(s)
    u_eff = np.empty(controls.shape)
    s[..., 0, :], i[..., 0, :] = problem.s0, problem.i0
    for t in range(big_n):
        s[..., t + 1, :], i[..., t + 1, :], u_eff[..., t, :] = si_step(
            s[..., t, :], i[..., t, :], controls[..., t, :], problem.params
        )
    return SimpleNamespace(s=s, i=i, u=u_eff)


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
    violated = reference_overshoot(problem, s[..., big_n, :], i[..., big_n, :]) > 0
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
    row of n_a groups, and so is a ``constraint_excess`` plan, its S_N."""
    calls, plans = collections.Counter(), collections.Counter()
    plan = problem.n_decision_vars
    units = {"predict": (1, plan), "project_capacity": (0, plan), "_gradient": (1, plan),
             "si_step": (2, problem.n_a), "constraint_excess": (0, problem.n_a)}
    for name, (position, unit) in units.items():
        inner = getattr(mpc, name)

        def wrapper(*args, _name=name, _inner=inner, _pos=position, _unit=unit, **kwargs):
            calls[_name] += 1
            plans[_name] += np.size(args[_pos]) // _unit
            return _inner(*args, **kwargs)

        monkeypatch.setattr(mpc, name, wrapper)
    return calls, plans


def reference_descend(problem, start):
    """The per-start descent the lockstep one replaced, kept verbatim but
    for its scores, which :func:`reference_value` computes (its start-point
    rollout went through a private twin of ``predict``)."""
    v_bar = problem.cfg.v_bar
    controls = project_capacity(start, v_bar)
    path = predict(problem, controls)
    value = reference_value(problem, path)
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
            trial_value = reference_value(problem, trial_path)
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
    """The per-start ``solve_ocp`` the lockstep one replaced, kept verbatim
    but for its scores, which :func:`reference_scores` computes."""
    best_controls = None
    best_value = np.inf
    total_iterations = 0
    for start in plan_major(_start_points(problem, warm_start)):
        controls, value, iters = reference_descend(problem, start)
        total_iterations += iters
        if value < best_value:
            best_controls, best_value = controls, value
    predicted = predict(problem, best_controls)
    cost, slack = reference_scores(problem, predicted)
    return OcpSolution(
        controls=best_controls,
        predicted=predicted,
        optimal_value=cost,
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
    """A plan's projection, rollout, scores and gradient are bitwise the
    same alone or in a batch of any size."""

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
            grads = _gradient(problem, plans, path)
            assert path.value.shape == path.cost.shape == (count,)
            assert path.overshoot.shape == (count, problem.n_a)
            for k in range(count):
                alone = project_capacity(raw[:, k].copy(), v_bar)
                assert projected[:, k].tobytes() == alone.tobytes()
                plan = plans[:, k].copy()
                own = predict(problem, plan)
                for name in ("s", "i", "u"):
                    assert getattr(path, name)[:, k].tobytes() == getattr(own, name).tobytes()
                assert path.overshoot[k].tobytes() == own.overshoot.tobytes()
                assert path.value[k] == own.value
                assert path.cost[k] == own.cost
                assert grads[:, k].tobytes() == _gradient(problem, plan, own).tobytes()
                violated += bool(own.overshoot.any())
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
            grads = _gradient(problem, plans, path)
            assert path.value.shape == path.cost.shape == (2, 3)
            assert grads.shape == plans.shape
            for idx in np.ndindex(2, 3):
                day_idx = (slice(None), *idx)
                plan = plans[day_idx].copy()
                own = predict(problem, plan)
                for name in ("s", "i", "u"):
                    got = getattr(path, name)[day_idx]
                    assert got.tobytes() == getattr(own, name).tobytes()
                assert path.overshoot[idx].tobytes() == own.overshoot.tobytes()
                assert path.value[idx] == own.value
                assert path.cost[idx] == own.cost
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
        # each rollout is scored once, as it is rolled out: the gradient
        # reads the terminal overshoot off the path the line search scored
        assert calls["constraint_excess"] == calls["predict"]
        assert plans["constraint_excess"] == plans["predict"]

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

            def poisoned(problem, controls, _target=target, _inner=predict):
                path = _inner(problem, controls)
                calls.append(np.size(path.value))
                if len(calls) == 2:  # the first line-search round
                    assert np.size(path.value) == 21
                    path.value[_target] = poison
                return path

            monkeypatch.setattr(mpc, "predict", poisoned)
            if fails:
                with pytest.raises(SolverFailure, match="during line search"):
                    solve_ocp(problem)
            else:
                assert solution_bits(solve_ocp(problem)) == expected
            assert len(calls) >= 2


class TestTerminalSlack:
    def test_disease_free_rule_matches_certificates(self, preset_config, preset_params):
        """Every |I_k| <= 1e-12 at the horizon end is disease-free for the
        planner as for the certificates, though the six together sum past
        1e-12, and S_N lies outside the constraint."""
        pop = preset_params.population
        zeros = np.zeros(6)
        cfg = dataclasses.replace(preset_config.mpc, horizon=1)
        for i_start, inside in ((np.full(6, 5e-13), True), (np.full(6, 2e-12), False)):
            start = vaxmpc.EpidemicState(s=pop - 3e-12, i=i_start, r=zeros, d=zeros)
            problem = build_ocp(start, cfg, preset_params)
            path = predict(problem, np.zeros((1, 6)))
            end = vaxmpc.EpidemicState(s=path.s[1], i=path.i[1], r=zeros, d=zeros)
            assert (constraint_excess(end.s, problem.cert) > 0).any()
            assert end.i.sum() > 1e-12
            assert vaxmpc.in_terminal_set(end, problem.cert) is inside
            assert (not path.overshoot.any()) is inside

    def test_slack_per_plan(self):
        """A batch gets each plan's own overshoot: the disease-free rule is
        applied per plan.  Group 0 carries the infection; group 1, which no
        one infects, keeps S_N outside the constraint.  Emptying group 0 on
        day 0 leaves its I_N below 1e-12, the idle plan does not."""
        pop = np.array([1000.0, 1000.0])
        params = vaxmpc.ModelParams(
            lam=np.array([0.45, 0.45]),
            gamma_r=np.array([0.4, 0.4]),
            gamma_d=np.array([0.1, 0.1]),
            population=pop,
            contact=np.diag(2.0 / pop),
        )
        cfg = vaxmpc.MpcConfig(
            horizon=2, epsilon=0.1, v_bar=1000.0, vaccination_start_day=1, strategy_horizon=2
        )
        problem = build_ocp(vaxmpc.initial_state(params, np.array([1e-12, 0.0])), cfg, params)
        plans = np.zeros((2, 2, 2))  # day-first: plan 0 empties group 0 on day 0
        plans[0, 0, 0] = pop[0]
        batch = predict(problem, plans)
        for k, free in enumerate((True, False)):
            alone = predict(problem, plans[:, k].copy())
            assert (constraint_excess(alone.s[-1], problem.cert) > 0).any()
            assert disease_free(alone.i[-1]) == free
            assert batch.overshoot[k].tobytes() == alone.overshoot.tobytes()
            assert (not alone.overshoot.any()) is free


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

    def test_misshaped_warm_start_rejected(self, desk_params, desk_state0, desk_cfg):
        problem = build_ocp(desk_state0, desk_cfg, desk_params)
        with pytest.raises(
            ContractViolation, match=r"^warm start: expected shape \(6, 2\), got \(5, 2\)$"
        ):
            solve_ocp(problem, warm_start=np.zeros((5, 2)))

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
        cost, slack = reference_scores(problem, predict(problem, solution.controls))
        assert solution.optimal_value == cost
        assert solution.terminal_slack == slack

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

    def test_start_state_must_conserve_populations(self, desk_params, desk_cfg):
        state0 = vaxmpc.EpidemicState(
            s=np.array([7000.0, 2000.0]), i=np.array([20.0, 5.0]),
            r=np.zeros(2), d=np.zeros(2),
        )
        with pytest.raises(
            ValidationError, match="^compartments do not sum to the group populations$"
        ):
            vaxmpc.run_policy_loop(state0, desk_cfg, desk_params, "none")

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
        assert not predict(next_problem, shifted).overshoot.any()

    def test_applied_controls_admissible(self, desk_params, desk_state0, desk_cfg):
        run = vaxmpc.run_policy_loop(desk_state0, desk_cfg, desk_params)
        applied = run.trajectory.applied_u
        assert np.all(applied >= 0)
        assert np.all(applied.sum(axis=1) <= desk_cfg.v_bar * (1 + 1e-12))

    def test_bitwise_reproducible(self, desk_params, desk_state0, desk_cfg):
        """Two runs give the same bytes in every array and every day record
        (a float by its hex form, which tells -0.0 and NaN apart)."""
        runs = [vaxmpc.run_policy_loop(desk_state0, desk_cfg, desk_params) for _ in range(2)]
        first, second = (
            [getattr(run.trajectory, name).tobytes() for name in ("s", "i", "r", "d", "applied_u")]
            + [run.controls.tobytes()]
            + [[v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(record)]
               for record in run.day_records]
            for run in runs
        )
        assert first == second
        assert any(record.v_n0 is not None for record in runs[0].day_records)

    def test_solver_failure_names_its_day(
        self, monkeypatch, desk_params, desk_state0, desk_cfg
    ):
        calls = []
        solve = mpc.solve_ocp

        def failing_third(problem, warm_start=None):
            calls.append(problem)
            if len(calls) == 3:
                raise SolverFailure("boom")
            return solve(problem, warm_start=warm_start)

        monkeypatch.setattr(mpc, "solve_ocp", failing_third)
        with pytest.raises(SolverFailure, match=r"^day 3: boom$"):
            vaxmpc.run_policy_loop(desk_state0, desk_cfg, desk_params)

    def test_warm_start_is_previous_plan_shifted(
        self, monkeypatch, desk_params, desk_state0, desk_cfg
    ):
        seen = []
        solve = mpc.solve_ocp

        def recording(problem, warm_start=None):
            solution = solve(problem, warm_start=warm_start)
            seen.append((warm_start, solution))
            return solution

        monkeypatch.setattr(mpc, "solve_ocp", recording)
        vaxmpc.run_policy_loop(desk_state0, desk_cfg, desk_params)
        assert len(seen) > 1
        assert seen[0][0] is None
        zeros = np.zeros((1, desk_params.n_a))
        for (_, previous), (warm, _) in zip(seen, seen[1:]):
            shifted = np.vstack([previous.controls[1:], zeros])
            assert warm.shape == shifted.shape and warm.tobytes() == shifted.tobytes()

    def test_start_day_beyond_horizon_rejected(self, desk_params, desk_state0):
        cfg = vaxmpc.MpcConfig(
            horizon=4, v_bar=500.0, vaccination_start_day=50, strategy_horizon=10
        )
        with pytest.raises(ValidationError):
            vaxmpc.run_policy_loop(desk_state0, cfg, desk_params)

    def test_unknown_policy_rejected(self, desk_params, desk_state0, desk_cfg):
        with pytest.raises(ValidationError):
            vaxmpc.run_policy_loop(desk_state0, desk_cfg, desk_params, "greedy")


def assert_same_run(got, want):
    """Two closed-loop results hold the same bytes in every array, the same
    day records (floats by their hex form) and the same latch day."""
    for name in ("s", "i", "r", "d", "applied_u"):
        a, b = getattr(got.trajectory, name), getattr(want.trajectory, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert got.controls.tobytes() == want.controls.tobytes()
    assert got.trajectory.start_time_step == want.trajectory.start_time_step
    assert [[v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(rec)]
            for rec in got.day_records] == [
        [v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(rec)]
        for rec in want.day_records]
    assert (got.policy, got.latch_day) == (want.policy, want.latch_day)


def assert_chained_steps(run, params):
    """The run's states are chained public ``step`` calls under its controls."""
    state = run.trajectory.state(0)
    for t, u in enumerate(run.controls):
        state = vaxmpc.step(state, u, params)
        for name in ("s", "i", "r", "d", "applied_u"):
            want = getattr(state, name).tobytes()
            got = getattr(run.trajectory, name)[t if name == "applied_u" else t + 1]
            assert got.tobytes() == want, (t, name)


class TestLockstepLoop:
    """Runs simulated together in one lockstep batch."""

    def test_national_preset_loop_equals_chained_steps(self, preset_params, preset_state0,
                                                       preset_config):
        run = vaxmpc.run_policy_loop(preset_state0, preset_config.mpc, preset_params, "national")
        assert run.n_days == 140 and run.trajectory.applied_u.any()
        assert_chained_steps(run, preset_params)

    def test_mpc_desk_loop_equals_chained_steps(self, desk_params, desk_state0, desk_cfg):
        run = vaxmpc.run_policy_loop(desk_state0, desk_cfg, desk_params, "mpc")
        assert any(rec.v_n0 is not None for rec in run.day_records)
        assert_chained_steps(run, desk_params)

    def test_mixed_batch_equals_runs_alone(self, desk_params, desk_state0, desk_cfg):
        """Every row its own policy, model, first state (and first day),
        capacity, start day and horizon."""
        other = vaxmpc.ModelParams(
            lam=np.array([0.09, 0.03]), gamma_r=desk_params.gamma_r,
            gamma_d=desk_params.gamma_d, population=desk_params.population,
            contact=desk_params.contact,
        )
        # an outbreak that dies out: its infected fall below 1 after about ten days
        dying = dataclasses.replace(other, lam=np.array([0.01, 0.01]))
        late = vaxmpc.rollout(desk_state0, np.zeros((3, 2)), desk_params).state(3)
        replace = dataclasses.replace
        runs = [
            (desk_state0, desk_cfg, desk_params, "mpc"),
            (late, replace(desk_cfg, strategy_horizon=9, vaccination_start_day=6), desk_params,
             "national"),
            (vaxmpc.initial_state(other, np.array([3.0, 9.0])), replace(desk_cfg, v_bar=400.0),
             other, "mpc"),
            (desk_state0, replace(desk_cfg, strategy_horizon=4), other, "none"),
            (late, replace(desk_cfg, v_bar=700.0, strategy_horizon=30), desk_params,
             "national"),
            # latches on day 1; and would latch after its 4-day horizon
            (vaxmpc.initial_state(dying, np.array([0.5, 0.5])),
             replace(desk_cfg, eradication_threshold=1.0), dying, "national"),
            (vaxmpc.initial_state(dying, np.array([20.0, 5.0])),
             replace(desk_cfg, eradication_threshold=1.0, strategy_horizon=4), dying, "none"),
        ]
        batch = vaxmpc.run_policy_loop(*(list(column) for column in zip(*runs)))
        assert len(batch) == len(runs)
        assert [run.latch_day for run in batch[-2:]] == [1, None]
        longer = dataclasses.replace(runs[-1][1], strategy_horizon=30)
        assert vaxmpc.run_policy_loop(runs[-1][0], longer, dying, "none").latch_day > 4
        for got, run in zip(batch, runs):
            assert_same_run(got, vaxmpc.run_policy_loop(*run))

    def test_runs_of_two_group_counts_refused(self, desk_params, desk_state0, desk_cfg,
                                              preset_params, preset_state0):
        with pytest.raises(ContractViolation, match="one group count"):
            vaxmpc.run_policy_loop([desk_state0, preset_state0], [desk_cfg, desk_cfg],
                                   [desk_params, preset_params], ["none", "none"])

    @pytest.mark.parametrize("bad", [np.nan, -1.0])
    @pytest.mark.parametrize("batched", [False, True])
    def test_bad_control_names_its_day(
        self, monkeypatch, desk_params, desk_state0, desk_cfg, bad, batched
    ):
        allocate = vaxmpc.strategies.national_allocate
        calls = []

        def poisoned_third(s, v_bar):
            calls.append(s)
            u = allocate(s, v_bar)
            if len(calls) == 3:
                u[-1, 0] = bad  # the last national row, on day 3
            return u

        monkeypatch.setattr(vaxmpc.strategies, "national_allocate", poisoned_third)
        message = "u: non-finite entries" if np.isnan(bad) else "u: vaccination counts"
        count = 3 if batched else 1
        args = [desk_state0] * count, [desk_cfg] * count, [desk_params] * count
        with pytest.raises(ValidationError, match=f"^day 3: {message}"):
            if batched:
                vaxmpc.run_policy_loop(*args, ["none", "national", "national"])
            else:
                vaxmpc.run_policy_loop(desk_state0, desk_cfg, desk_params, "national")

    @pytest.mark.parametrize("bad, message", [(np.inf, "non-finite entries"),
                                              (-2.0, "negative compartment")])
    def test_block_check_names_compartment_and_day(
        self, monkeypatch, desk_params, desk_state0, desk_cfg, bad, message
    ):
        advance, calls = mpc.advance, []

        def corrupting_fifth(now, u, params, out, applied):
            advance(now, u, params, out, applied)
            calls.append(None)
            if len(calls) == 5:
                out[2, -1, 1] = bad  # R of the last run on day 6

        monkeypatch.setattr(mpc, "advance", corrupting_fifth)
        with pytest.raises(ValidationError, match=f"^day 6: r: {message}$"):
            vaxmpc.run_policy_loop([desk_state0] * 2, [desk_cfg] * 2, [desk_params] * 2,
                                   ["none", "national"])


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


def test_kernel_outputs_never_alias_its_inputs(preset_config, monkeypatch):
    """``si_step`` forms its results in place, so an ``out`` array that
    shares memory with S, I or u would change bits.  None does, in the
    planner's rollout, the closed loop's plant step or the certificates."""
    params, state0, cfg = preset_config.params, preset_config.state0, preset_config.mpc
    kernel, callers = si_step, collections.Counter()

    def checking(s, i, u, params, out=None):
        callers[out is None] += 1
        for target in out or ():
            assert not any(np.shares_memory(target, a) for a in (s, i, u))
        return kernel(s, i, u, params, out=out)

    for module in (vaxmpc.model, mpc, vaxmpc.certificates):
        monkeypatch.setattr(module, "si_step", checking)
    day61 = vaxmpc.rollout(state0, np.zeros((60, 6)), params).state(60)
    solve_ocp(build_ocp(day61, cfg, params))
    configs = [dataclasses.replace(cfg, v_bar=5000.0 * k) for k in range(1, 11)]
    vaxmpc.run_policy_loop([state0] * 10, configs, [params] * 10, ["national"] * 10)
    vaxmpc.certify(params, cfg, 2000, 0)
    assert callers[False] > 60 + 140 + 140 and callers[True] == 2
