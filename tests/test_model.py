from types import SimpleNamespace

import numpy as np
import pytest

import vaxmpc
from vaxmpc import model
from vaxmpc.errors import ContractViolation, ValidationError
from vaxmpc.model import matvec_rows, si_step


def eq2_oracle(s, i, r, d, u, lam, gamma_r, gamma_d, contact):
    """Independent spreadsheet-style evaluation of the one-day update.

    Pure-Python scalar arithmetic, no shared code with the implementation;
    applies the same vaccination clamp the step contract documents.
    """
    n = len(s)
    s2, i2, r2, d2, applied = [], [], [], [], []
    for k in range(n):
        force = 0.0
        for j in range(n):
            force += contact[k][j] * i[j]
        new_inf = lam[k] * s[k] * force
        u_eff = min(u[k], max(0.0, s[k] - new_inf))
        s2.append(s[k] - new_inf - u_eff)
        i2.append(i[k] + new_inf - (gamma_r[k] + gamma_d[k]) * i[k])
        r2.append(r[k] + gamma_r[k] * i[k] + u_eff)
        d2.append(d[k] + gamma_d[k] * i[k])
        applied.append(u_eff)
    return s2, i2, r2, d2, applied


class TestStep:
    def test_disease_free_state_is_fixed_point(self, desk_params):
        state = vaxmpc.initial_state(desk_params, np.zeros(2))
        nxt = vaxmpc.step(state, np.zeros(2), desk_params)
        assert np.array_equal(nxt.s, state.s)
        assert np.array_equal(nxt.i, state.i)
        assert np.array_equal(nxt.r, state.r)
        assert np.array_equal(nxt.d, state.d)
        assert nxt.time_step == 1

    def test_single_group_linear_decay(self):
        params = vaxmpc.ModelParams(
            lam=np.array([0.0]),
            gamma_r=np.array([0.5]),
            gamma_d=np.array([0.1]),
            population=np.array([110.0]),
            contact=np.array([[1.0]]),
        )
        state = vaxmpc.EpidemicState(
            s=np.array([100.0]), i=np.array([10.0]), r=np.zeros(1), d=np.zeros(1)
        )
        nxt = vaxmpc.step(state, np.zeros(1), params)
        assert nxt.s[0] == 100.0
        assert nxt.i[0] == pytest.approx(4.0, abs=0)
        assert nxt.r[0] == pytest.approx(5.0, abs=0)
        assert nxt.d[0] == pytest.approx(1.0, abs=0)

    def test_day_one_matches_independent_oracle(self, preset_params, preset_state0):
        got = vaxmpc.step(preset_state0, np.zeros(6), preset_params)
        s2, i2, r2, d2, _ = eq2_oracle(
            list(preset_state0.s),
            list(preset_state0.i),
            list(preset_state0.r),
            list(preset_state0.d),
            [0.0] * 6,
            list(preset_params.lam),
            list(preset_params.gamma_r),
            list(preset_params.gamma_d),
            [list(row) for row in preset_params.contact],
        )
        for k in range(6):
            assert got.s[k] == pytest.approx(s2[k], rel=1e-12)
            assert got.i[k] == pytest.approx(i2[k], rel=1e-12)
            assert got.r[k] == pytest.approx(r2[k], rel=1e-12)
            assert got.d[k] == pytest.approx(d2[k], rel=1e-12)

    def test_clamped_vaccination_is_audited(self, desk_params, desk_state0):
        u = np.array([0.0, 1e7])  # far beyond group 2's susceptibles
        nxt = vaxmpc.step(desk_state0, u, desk_params)
        assert nxt.applied_u[1] < u[1]
        assert nxt.s[1] >= 0.0
        # the clamp moves people S -> R, so conservation still holds
        assert np.allclose(
            nxt.total_by_group(), desk_params.population, rtol=1e-12, atol=0
        )

    def test_dimension_mismatch_is_contract_violation(self, desk_params, desk_state0):
        with pytest.raises(ContractViolation):
            vaxmpc.step(desk_state0, np.zeros(3), desk_params)

    def test_nan_input_rejected(self, desk_params, desk_state0):
        with pytest.raises(ValidationError):
            vaxmpc.step(desk_state0, np.array([np.nan, 0.0]), desk_params)

    def test_negative_control_rejected(self, desk_params, desk_state0):
        with pytest.raises(ValidationError):
            vaxmpc.step(desk_state0, np.array([-1.0, 0.0]), desk_params)

    def test_group_count_mismatch_is_contract_violation(
        self, desk_state0, preset_params
    ):
        with pytest.raises(ContractViolation, match="state has 2 groups"):
            vaxmpc.step(desk_state0, np.zeros(6), preset_params)
        with pytest.raises(ContractViolation, match="expected shape"):
            desk_state0.validate(preset_params)


class TestInitialState:
    def test_preset_seeding_total(self, preset_params, preset_state0):
        assert preset_state0.i.sum() == pytest.approx(17.1099850236, abs=1e-9)
        assert np.array_equal(
            preset_state0.s + preset_state0.i, preset_params.population
        )

    def test_zero_seeding(self, desk_params):
        state = vaxmpc.initial_state(desk_params, np.zeros(2))
        assert np.array_equal(state.s, desk_params.population)
        assert not state.i.any()

    def test_full_seeding_boundary(self, desk_params):
        state = vaxmpc.initial_state(desk_params, desk_params.population)
        assert not state.s.any()

    def test_out_of_range_rejected(self, desk_params):
        with pytest.raises(ValidationError):
            vaxmpc.initial_state(desk_params, desk_params.population + 1.0)
        with pytest.raises(ValidationError):
            vaxmpc.initial_state(desk_params, np.array([-1.0, 0.0]))


class TestStateValidation:
    """A state's compartments are checked once, when the state is built."""

    @staticmethod
    def compartments():
        return {
            "s": np.array([100.0, 50.0]),
            "i": np.array([1.0, 2.0]),
            "r": np.array([3.0, 0.0]),
            "d": np.array([0.0, 4.0]),
        }

    @pytest.mark.parametrize("name", ["s", "i", "r", "d"])
    @pytest.mark.parametrize(
        "bad, message",
        [
            (np.nan, "non-finite entries"),
            (np.inf, "non-finite entries"),
            (-np.inf, "non-finite entries"),
            (-1.0, "negative compartment"),
        ],
    )
    def test_bad_entry_rejected_when_built(self, name, bad, message):
        vectors = self.compartments()
        vectors[name][1] = bad
        with pytest.raises(ValidationError, match=f"^{name}: {message}$"):
            vaxmpc.EpidemicState(**vectors)

    def test_first_bad_compartment_is_named(self):
        vectors = self.compartments()
        vectors["i"][0] = -1.0
        vectors["d"][1] = np.nan
        with pytest.raises(ValidationError, match="^i: negative compartment$"):
            vaxmpc.EpidemicState(**vectors)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("r", np.zeros(3)),
            ("s", np.ones((2, 2))),
            ("s", np.array(5.0)),
        ],
    )
    def test_bad_shape_is_contract_violation(self, name, value):
        vectors = self.compartments()
        vectors[name] = value
        with pytest.raises(ContractViolation):
            vaxmpc.EpidemicState(**vectors)

    def test_negative_time_step_rejected(self):
        with pytest.raises(ValidationError, match="^time_step must be nonnegative$"):
            vaxmpc.EpidemicState(**self.compartments(), time_step=-1)


class TestStateIsAValue:
    """A built state holds read-only float64 copies of what it was given."""

    @pytest.mark.parametrize("name", ["s", "i", "r", "d", "applied_u"])
    def test_vectors_are_read_only(self, name, desk_params, desk_state0):
        state = vaxmpc.step(desk_state0, np.array([10.0, 1.0]), desk_params)
        with pytest.raises(ValueError, match="read-only"):
            getattr(state, name)[0] = 0.0

    def test_later_writes_to_the_inputs_leave_it_unchanged(self):
        vectors = {**TestStateValidation.compartments(), "applied_u": np.array([2.0, 1.0])}
        before = {name: vec.tolist() for name, vec in vectors.items()}
        state = vaxmpc.EpidemicState(**vectors)
        for vec in vectors.values():
            vec[:] = 7.0
        assert {name: getattr(state, name).tolist() for name in before} == before

    def test_integer_inputs_become_float64(self):
        state = vaxmpc.EpidemicState(
            s=[3, 4], i=np.array([1, 0]), r=np.zeros(2, dtype=int), d=[0, 2],
            applied_u=np.array([5, 6]),
        )
        for name in ("s", "i", "r", "d", "applied_u"):
            assert getattr(state, name).dtype == np.float64
        assert state.s.tolist() == [3.0, 4.0] and state.applied_u.tolist() == [5.0, 6.0]

    def test_zero_group_state_builds(self):
        empty = np.zeros(0)
        state = vaxmpc.EpidemicState(s=empty, i=empty, r=empty, d=empty, time_step=2)
        assert state.n_a == 0 and state.day == 3
        assert state.total_by_group().shape == (0,)


class TestRollout:
    def test_controls_of_another_width_rejected(self, desk_params, desk_state0):
        message = r"^controls: expected shape \(T, 2\), got \(3, 3\)$"
        with pytest.raises(ContractViolation, match=message):
            vaxmpc.rollout(desk_state0, np.zeros((3, 3)), desk_params)

    def test_constant_when_nothing_happens(self, desk_params):
        state = vaxmpc.initial_state(desk_params, np.zeros(2))
        traj = vaxmpc.rollout(state, np.zeros((10, 2)), desk_params)
        assert len(traj) == 11
        assert np.array_equal(traj.s[0], traj.s[-1])
        assert not traj.i.any()

    def test_matches_chained_oracle_for_140_days(self, preset_params, preset_state0):
        traj = vaxmpc.rollout(preset_state0, np.zeros((140, 6)), preset_params)
        s = list(preset_state0.s)
        i = list(preset_state0.i)
        r = list(preset_state0.r)
        d = list(preset_state0.d)
        lam = list(preset_params.lam)
        gr = list(preset_params.gamma_r)
        gd = list(preset_params.gamma_d)
        contact = [list(row) for row in preset_params.contact]
        for t in range(140):
            s, i, r, d, _ = eq2_oracle(s, i, r, d, [0.0] * 6, lam, gr, gd, contact)
            for k in range(6):
                assert traj.s[t + 1][k] == pytest.approx(s[k], rel=1e-9)
                assert traj.i[t + 1][k] == pytest.approx(i[k], rel=1e-9)
                assert traj.d[t + 1][k] == pytest.approx(d[k], rel=1e-9)

    def test_conservation_at_every_index(self, preset_params, preset_state0):
        rng = np.random.default_rng(5)
        controls = rng.uniform(0, 20000, size=(50, 6))
        traj = vaxmpc.rollout(preset_state0, controls, preset_params)
        totals = traj.s + traj.i + traj.r + traj.d
        assert np.allclose(totals, preset_params.population, rtol=1e-12, atol=0)

    def test_overshooting_control_is_clamped(self, desk_params, desk_state0):
        controls = np.array([[0.0, 5e6]])
        traj = vaxmpc.rollout(desk_state0, controls, desk_params)
        assert traj.applied_u[0][1] < 5e6
        assert np.all(traj.s >= 0)

    def test_row_of_a_day_inverts_the_state_day(self, desk_params, desk_state0):
        late = vaxmpc.rollout(desk_state0, np.zeros((5, 2)), desk_params).state(3)
        traj = vaxmpc.rollout(late, np.zeros((4, 2)), desk_params)
        days = np.array([traj.state(t).day for t in range(len(traj))])
        assert days[0] == 4
        assert traj.row(int(days[2])) == 2
        assert np.array_equal(traj.row(days), np.arange(len(traj)))

    @pytest.mark.parametrize("start_day", [1, 4])
    def test_state_counts_negative_indices_from_the_end(
        self, start_day, desk_params, desk_state0
    ):
        first = vaxmpc.rollout(desk_state0, np.zeros((5, 2)), desk_params).state(start_day - 1)
        traj = vaxmpc.rollout(first, np.full((4, 2), 3.0), desk_params)
        for t in range(-len(traj), 0):
            got, want = traj.state(t), traj.state(t + len(traj))
            assert (got.time_step, got.day) == (want.time_step, want.day)
            assert [got.s.tolist(), got.d.tolist()] == [want.s.tolist(), want.d.tolist()]
            if want.applied_u is None:
                assert got.applied_u is None
            else:
                assert got.applied_u.tolist() == want.applied_u.tolist()
        assert traj.state(-1).day == start_day + 4
        assert traj.state(-len(traj)).applied_u is None
        for t in (len(traj), -len(traj) - 1):
            with pytest.raises(IndexError):
                traj.state(t)

    def test_error_carries_step_index(self, desk_params, desk_state0):
        controls = np.zeros((3, 2))
        controls[2, 0] = -4.0
        with pytest.raises(ValidationError, match="step 2"):
            vaxmpc.rollout(desk_state0, controls, desk_params)

    def test_bad_compartment_names_its_step(self, monkeypatch, desk_params, desk_state0):
        """The block is checked once, after the last step; the error still
        names the step that wrote the first bad compartment."""
        advance, calls = model.advance, []

        def corrupting_third(now, u, params, out, applied):
            advance(now, u, params, out, applied)
            calls.append(None)
            if len(calls) == 3:
                out[1, 0] = -1.0

        monkeypatch.setattr(model, "advance", corrupting_third)
        with pytest.raises(ValidationError, match="^rollout step 2: i: negative compartment$"):
            vaxmpc.rollout(desk_state0, np.zeros((5, 2)), desk_params)


class TestNewInfections:
    def test_no_infected_no_infections(self, desk_params):
        state = vaxmpc.initial_state(desk_params, np.zeros(2))
        assert not vaxmpc.new_infections(state.s, state.i, desk_params).any()

    def test_zero_transmission(self, desk_params):
        params = vaxmpc.ModelParams(
            lam=np.zeros(2),
            gamma_r=desk_params.gamma_r,
            gamma_d=desk_params.gamma_d,
            population=desk_params.population,
            contact=desk_params.contact,
        )
        state = vaxmpc.initial_state(params, np.array([5.0, 5.0]))
        assert not vaxmpc.new_infections(state.s, state.i, params).any()

    def test_two_group_hand_computation(self):
        lam = [0.1, 0.2]
        contact = [[0.003, 0.001], [0.002, 0.004]]
        s = [50.0, 30.0]
        i = [4.0, 6.0]
        params = vaxmpc.ModelParams(
            lam=np.array(lam),
            gamma_r=np.array([0.3, 0.3]),
            gamma_d=np.array([0.1, 0.1]),
            population=np.array([100.0, 100.0]),
            contact=np.array(contact),
        )
        state = vaxmpc.EpidemicState(
            s=np.array(s),
            i=np.array(i),
            r=np.array([46.0, 64.0]),
            d=np.zeros(2),
        )
        got = vaxmpc.new_infections(state.s, state.i, params)
        expect_0 = 0.1 * 50.0 * (0.003 * 4.0 + 0.001 * 6.0)
        expect_1 = 0.2 * 30.0 * (0.002 * 4.0 + 0.004 * 6.0)
        assert got[0] == pytest.approx(expect_0, rel=1e-12)
        assert got[1] == pytest.approx(expect_1, rel=1e-12)


def _random_valid_params(rng, n_a):
    pop = rng.uniform(100, 1e6, n_a)
    gamma_r = rng.uniform(0.05, 0.9, n_a)
    gamma_d = rng.uniform(1e-4, 0.2, n_a)
    excess = gamma_r + gamma_d
    scale = np.where(excess > 1.0, 0.999 / excess, 1.0)
    gamma_r, gamma_d = gamma_r * scale, gamma_d * scale
    lam = rng.uniform(0.0, 0.4, n_a)
    raw = rng.uniform(0.0, 1.0, (n_a, n_a)) + np.diag(rng.uniform(1, 3, n_a))
    pressure = np.max(lam * raw.sum(axis=1))
    if pressure > 0.95:
        raw *= 0.95 / pressure
    return vaxmpc.ModelParams(
        lam=lam,
        gamma_r=gamma_r,
        gamma_d=gamma_d,
        population=pop,
        contact=raw / pop[None, :],
    )


class TestStepProperties:
    """Seeded random sweeps over the documented dynamic invariants."""

    def _random_state_and_control(self, rng, params):
        n = params.n_a
        s = rng.uniform(0, 1, n) * params.population
        i = rng.uniform(0, 1, n) * (params.population - s)
        r = rng.uniform(0, 1, n) * (params.population - s - i)
        d = params.population - s - i - r
        state = vaxmpc.EpidemicState(s=s, i=i, r=r, d=d)
        u = rng.uniform(0, 1, n) * params.population * 0.2
        return state, u

    def test_conservation_and_nonnegativity(self):
        rng = np.random.default_rng(123)
        for _ in range(500):
            params = _random_valid_params(rng, int(rng.integers(1, 7)))
            state, u = self._random_state_and_control(rng, params)
            nxt = vaxmpc.step(state, u, params)
            assert np.allclose(
                nxt.total_by_group(),
                state.total_by_group(),
                rtol=1e-12,
                atol=0,
            )
            assert np.all(nxt.s >= 0) and np.all(nxt.i >= 0)
            assert np.all(nxt.r >= 0) and np.all(nxt.d >= 0)

    def test_monotone_susceptibles_and_deaths(self):
        rng = np.random.default_rng(321)
        for _ in range(300):
            params = _random_valid_params(rng, int(rng.integers(1, 7)))
            state, u = self._random_state_and_control(rng, params)
            nxt = vaxmpc.step(state, u, params)
            assert np.all(nxt.s <= state.s)
            assert np.all(nxt.d >= state.d)

    def test_infected_successor_ignores_control(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            params = _random_valid_params(rng, int(rng.integers(1, 7)))
            state, u = self._random_state_and_control(rng, params)
            i_zero = vaxmpc.step(state, np.zeros(params.n_a), params).i
            i_ctrl = vaxmpc.step(state, u, params).i
            assert np.array_equal(i_zero, i_ctrl)

    def test_disease_free_stays_disease_free(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            params = _random_valid_params(rng, int(rng.integers(1, 7)))
            state = vaxmpc.initial_state(params, np.zeros(params.n_a))
            u = rng.uniform(0, 1, params.n_a) * params.population * 0.5
            assert not vaxmpc.step(state, u, params).i.any()


class TestBatchInvariance:
    """A row's dynamics are bitwise the same alone or in a batch."""

    def test_batched_step_equals_per_row_step(self):
        rng = np.random.default_rng(2024)
        for n_a in range(1, 17):
            params = _random_valid_params(rng, n_a)
            for shape in [(1, n_a), (2, n_a), (7, n_a), (64, n_a), (3, 40, n_a)]:
                s = rng.uniform(0, 1, shape) * params.population
                i = rng.uniform(0, 1, shape) * (params.population - s)
                u = rng.uniform(0, 1, shape) * params.population * 0.2
                batched = si_step(s, i, u, params)
                rows = [
                    si_step(s[idx], i[idx], u[idx], params)
                    for idx in np.ndindex(shape[:-1])
                ]
                for k, out in enumerate(batched):
                    alone = np.array([row[k] for row in rows]).reshape(shape)
                    assert out.tobytes() == alone.tobytes()

    def test_weighted_sum_equals_per_row_dot(self):
        rng = np.random.default_rng(77)
        for n_a in range(1, 17):
            gd = rng.uniform(1e-4, 0.2, n_a)
            x = rng.uniform(0, 1e5, (64, n_a))
            alone = np.array([gd @ row for row in x])
            assert matvec_rows(gd, x).tobytes() == alone.tobytes()


class TestModelParamsValidation:
    def test_rejects_excess_removal_rate(self):
        with pytest.raises(ValidationError):
            vaxmpc.ModelParams(
                lam=np.array([0.1]),
                gamma_r=np.array([0.9]),
                gamma_d=np.array([0.2]),
                population=np.array([100.0]),
                contact=np.array([[0.001]]),
            )

    def test_rejects_zero_death_rate(self):
        with pytest.raises(ValidationError):
            vaxmpc.ModelParams(
                lam=np.array([0.1]),
                gamma_r=np.array([0.5]),
                gamma_d=np.array([0.0]),
                population=np.array([100.0]),
                contact=np.array([[0.001]]),
            )

    def test_rejects_excess_infection_pressure(self):
        with pytest.raises(ValidationError, match="infection pressure"):
            vaxmpc.ModelParams(
                lam=np.array([0.9]),
                gamma_r=np.array([0.5]),
                gamma_d=np.array([0.1]),
                population=np.array([100.0]),
                contact=np.array([[0.05]]),
            )

    @pytest.mark.parametrize(
        "change, error, message",
        [
            ({"lam": np.array([1.5])}, ValidationError,
             "lam: transmission probabilities must be <= 1"),
            ({"contact": np.array([[0.001, 0.0]])}, ContractViolation,
             r"contact: expected shape \(1, 1\), got \(1, 2\)"),
            ({"contact": np.array([[-0.001]])}, ValidationError,
             "contact: entries must be finite and nonnegative"),
        ],
        ids=["lam-above-one", "contact-shape", "contact-negative"],
    )
    def test_rejects_bad_rate_or_contact(self, change, error, message):
        fields = {
            "lam": np.array([0.1]),
            "gamma_r": np.array([0.5]),
            "gamma_d": np.array([0.1]),
            "population": np.array([100.0]),
            "contact": np.array([[0.001]]),
        }
        with pytest.raises(error, match=f"^{message}$") as caught:
            vaxmpc.ModelParams(**{**fields, **change})
        assert type(caught.value) is error


class TestValidateControl:
    def test_capacity_ignored_when_absent(self):
        u = vaxmpc.validate_control(np.array([60.0, 50.0]), 2)
        assert u.sum() == 110.0


def legacy_si_step(s, i, u, params, out=(None,) * 3):
    """The kernel as it was before it formed its results in place, kept
    verbatim (with its ``new_infections``) as a bitwise oracle."""
    new_inf = params.lam * s * matvec_rows(params.contact, i)
    room = s - new_inf
    s_next, i_next, u_eff = out
    u_eff = np.minimum(u, np.maximum(0.0, room), out=u_eff)
    s_next = np.subtract(room, u_eff, out=s_next)
    # add, then subtract in place: no third temporary on wide batches
    i_next = np.add(i, new_inf, out=i_next)
    i_next -= params.removal * i
    return s_next, i_next, u_eff


class TestInPlaceKernel:
    """``si_step`` writing into ``out`` gives the bytes it gives without,
    and the bytes of the kernel before it formed its results in place."""

    @staticmethod
    def inputs(rng, params, rows):
        """(S, I, u) with -0.0 entries and controls that often exceed the
        room the clamp leaves them."""
        n_a = params.n_a
        s = rng.uniform(0, 1, (rows, n_a)) * params.population
        i = rng.uniform(0, 1, s.shape) * (params.population - s)
        u = rng.uniform(0, 2, s.shape) * s
        for a in (s, i, u):
            a[rng.random(a.shape) < 0.1] = -0.0
        s[rng.random(s.shape) < 0.1] = 0.0
        s[-1, -1] = i[-1, -1] = -0.0
        u[0] = s[0] + 1.0  # more than the room left
        return s, i, u

    @staticmethod
    def assert_same_bytes(s, i, u, params):
        want = legacy_si_step(s, i, u, params)
        alone = si_step(s, i, u, params)
        # strided rows, as the closed loop's run-first blocks give them
        out = tuple(np.full(s.shape[:-1] + (3, s.shape[-1]), np.nan)[..., 1, :] for _ in range(3))
        got = si_step(s, i, u, params, out=out)
        assert all(g is o for g, o in zip(got, out))
        for w, a, g in zip(want, alone, got):
            assert w.tobytes() == a.tobytes() == np.ascontiguousarray(g).tobytes()

    @pytest.mark.parametrize("n_a", [1, 6, 16])
    @pytest.mark.parametrize("rows", [1, 200, 20_000])
    def test_equals_the_legacy_kernel(self, n_a, rows):
        rng = np.random.default_rng(100 * n_a + rows)
        params = _random_valid_params(rng, n_a)
        s, i, u = self.inputs(rng, params, rows)
        assert np.any(legacy_si_step(s, i, u, params)[2] < u)  # the clamp binds
        assert np.any(np.signbit(s) & (s == 0))
        self.assert_same_bytes(s, i, u, params)
        self.assert_same_bytes(s[0], i[0], u[0], params)  # one unbatched row

    @pytest.mark.parametrize("n_a", [1, 6, 16])
    def test_equals_the_legacy_kernel_with_per_row_rates(self, n_a):
        """Rates as the closed loop passes them: (K, n_a) rows of ``lam``
        and ``removal`` and one (n_a, n_a) contact matrix per row."""
        rng = np.random.default_rng(n_a)
        models = [_random_valid_params(rng, n_a) for _ in range(200)]
        rates = SimpleNamespace(**{name: np.array([getattr(p, name) for p in models])
                                   for name in ("lam", "contact", "removal")})
        population = np.array([p.population for p in models])
        s = rng.uniform(0, 1, population.shape) * population
        i = rng.uniform(0, 1, s.shape) * (population - s)
        u = rng.uniform(0, 2, s.shape) * s
        s[::7] = -0.0
        self.assert_same_bytes(s, i, u, rates)
