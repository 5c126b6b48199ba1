import dataclasses

import numpy as np
import pytest

import vaxmpc
from vaxmpc.errors import ValidationError


def make_state(s, i=None, time_step=0):
    s = np.asarray(s, dtype=float)
    n = s.shape[0]
    i = np.zeros(n) if i is None else np.asarray(i, dtype=float)
    return vaxmpc.EpidemicState(
        s=s, i=i, r=np.zeros(n), d=np.zeros(n), time_step=time_step
    )


class TestNationalAllocate:
    def test_oldest_first_greedy_arithmetic(self):
        state = make_state([10.0, 20.0, 30.0])
        u = vaxmpc.national_allocate(state.s, 35.0)
        assert np.array_equal(u, np.array([0.0, 5.0, 30.0]))

    def test_capacity_exhausted_when_enough_susceptibles(self):
        state = make_state([100.0, 50.0, 25.0])
        u = vaxmpc.national_allocate(state.s, 60.0)
        assert u.sum() == 60.0

    def test_allocation_capped_by_susceptibles(self):
        state = make_state([5.0, 2.0])
        u = vaxmpc.national_allocate(state.s, 100.0)
        assert np.array_equal(u, np.array([5.0, 2.0]))

    def test_age_monotonicity_on_random_states(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            s = rng.uniform(0, 1000, n)
            v_bar = float(rng.uniform(100, 2000))
            u = vaxmpc.national_allocate(make_state(s).s, v_bar)
            assert np.all(u >= 0) and u.sum() <= v_bar * (1 + 1e-12)
            funded = np.flatnonzero(u > 0)
            if funded.size:
                # every group older than the youngest funded one is saturated
                youngest = funded.min()
                assert np.allclose(u[youngest + 1 :], s[youngest + 1 :])

    def test_preset_capacity_split_structure(self, preset_params, preset_state0):
        # day 1 at full susceptibles: all capacity goes to the oldest group
        u = vaxmpc.national_allocate(preset_state0.s, 55191.0)
        assert u[5] == 55191.0
        assert not u[:5].any()


def reference_allocate(s, v_bar):
    """The oldest-first walk one group at a time in Python floats, as the
    allocation was first written: the oracle of every row of a batch."""
    u = np.zeros(len(s))
    remaining = float(v_bar)
    for k in range(len(s) - 1, -1, -1):
        if remaining <= 0.0:
            break
        dose = min(remaining, float(s[k]))
        if dose > 0.0:
            u[k] = dose
            remaining -= dose
    return u


class TestNationalAllocateBatch:
    """Rows of susceptibles with a scalar or per-row capacity: each row's
    doses are the bytes of that row allocated alone and of the oracle."""

    def rows(self, rng, count, n):
        s = rng.uniform(0, 1000, (count, n)) * 10.0 ** rng.integers(-3, 4, (count, n))
        s[rng.random((count, n)) < 0.2] = 0.0  # some empty groups
        s[0] = 0.0  # a row with no susceptibles at all
        v_bar = rng.uniform(1, 3000, count)
        v_bar[1] = s[1].sum()  # exactly enough
        v_bar[2] = s[2, -1]  # spent on the oldest group
        return s, v_bar

    @pytest.mark.parametrize("n", [1, 2, 6, 9])
    def test_rows_equal_single_row_calls(self, n):
        rng = np.random.default_rng(n)
        s, v_bar = self.rows(rng, 40, n)
        batched = vaxmpc.national_allocate(s, v_bar)
        assert batched.shape == s.shape
        ran_out = 0
        for row, cap, got in zip(s, v_bar, batched):
            alone = vaxmpc.national_allocate(row, cap)
            assert got.tobytes() == alone.tobytes() == reference_allocate(row, cap).tobytes()
            ran_out += bool(got.any() and (got < row).any())
        assert ran_out > 0  # some rows ran out of capacity with groups left

    def test_scalar_capacity_broadcasts(self):
        rng = np.random.default_rng(3)
        s, _ = self.rows(rng, 12, 6)
        batched = vaxmpc.national_allocate(s.reshape(3, 4, 6), 700.0)
        for idx in np.ndindex(3, 4):
            want = reference_allocate(s.reshape(3, 4, 6)[idx], 700.0)
            assert batched[idx].tobytes() == want.tobytes()

    def test_empty_rows_get_nothing(self):
        u = vaxmpc.national_allocate(np.zeros((3, 4)), [10.0, 0.0, 5.0])
        assert u.tobytes() == np.zeros((3, 4)).tobytes()


class TestApplyPolicy:
    """Each policy as the closed loop applies it: one dispatch, one gate."""

    def test_gated_before_start_day(self, desk_params, desk_state0):
        cfg = vaxmpc.MpcConfig(
            horizon=4, v_bar=500.0, vaccination_start_day=10, strategy_horizon=12
        )
        for policy in ("none", "national", "mpc"):
            run = vaxmpc.run_policy_loop(desk_state0, cfg, desk_params, policy)
            assert not run.controls[:9].any()  # days 1-9
            assert all(rec.day >= 10 for rec in run.day_records)  # no record before day 10
            assert run.controls[9].any() == (policy != "none")  # day 10

    def test_zero_at_eradicated_state(self, desk_params):
        state = vaxmpc.initial_state(desk_params, np.array([0.5, 0.5]))
        cfg = vaxmpc.MpcConfig(
            horizon=4, v_bar=500.0, eradication_threshold=1.0,
            vaccination_start_day=1, strategy_horizon=20,
        )
        for policy in ("none", "national", "mpc"):
            run = vaxmpc.run_policy_loop(state, cfg, desk_params, policy)
            assert run.latch_day == 1
            assert not run.controls.any()

    def test_none_policy_is_zero(self, desk_params, desk_state0):
        cfg = vaxmpc.MpcConfig(
            horizon=4, v_bar=500.0, vaccination_start_day=1, strategy_horizon=20
        )
        run = vaxmpc.run_policy_loop(desk_state0, cfg, desk_params, "none")
        assert not run.controls.any()

    def test_none_loop_is_the_zero_rollout(self, desk_params, desk_state0, desk_cfg):
        run = vaxmpc.run_policy_loop(desk_state0, desk_cfg, desk_params, "none")
        zeros = np.zeros((desk_cfg.strategy_horizon, desk_params.n_a))
        reference = vaxmpc.rollout(desk_state0, zeros, desk_params)
        for name in ("s", "i", "r", "d", "applied_u"):
            got, want = getattr(run.trajectory, name), getattr(reference, name)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name

    def test_national_dispatch(self, desk_params, desk_state0):
        cfg = vaxmpc.MpcConfig(
            horizon=4, v_bar=500.0, vaccination_start_day=1, strategy_horizon=20
        )
        run = vaxmpc.run_policy_loop(desk_state0, cfg, desk_params, "national")
        assert np.array_equal(
            run.controls[0], vaxmpc.national_allocate(desk_state0.s, 500.0)
        )
        last = run.n_days if run.latch_day is None else run.latch_day - 1
        for t in range(last):
            state = run.trajectory.state(t)
            assert np.array_equal(
                run.controls[t], vaxmpc.national_allocate(state.s, 500.0)
            )

    def test_mpc_dispatch_returns_first_plan_day(self, desk_params, desk_state0, desk_cfg):
        cfg = dataclasses.replace(desk_cfg, strategy_horizon=1)
        run = vaxmpc.run_policy_loop(desk_state0, cfg, desk_params, "mpc")
        solution = vaxmpc.solve_ocp(vaxmpc.build_ocp(desk_state0, cfg, desk_params))
        assert np.array_equal(run.controls[0], solution.controls[0])
        assert run.day_records[0].v_n0 == solution.optimal_value

    def test_unknown_policy_rejected(self, desk_params, desk_state0, desk_cfg):
        with pytest.raises(ValidationError):
            vaxmpc.run_policy_loop(desk_state0, desk_cfg, desk_params, "oldest")


class TestPolicyOrdering:
    def test_vaccinating_beats_doing_nothing_desk_scale(
        self, desk_params, desk_state0
    ):
        cfg = vaxmpc.MpcConfig(
            horizon=6, v_bar=1200.0, eradication_threshold=1e-6,
            vaccination_start_day=1, strategy_horizon=25, rng_seed=0,
        )
        none_run = vaxmpc.run_policy_loop(desk_state0, cfg, desk_params, "none")
        national = vaxmpc.run_policy_loop(desk_state0, cfg, desk_params, "national")
        deaths_none = vaxmpc.compute_metrics(none_run).deaths_total
        deaths_national = vaxmpc.compute_metrics(national).deaths_total
        assert deaths_national < deaths_none
