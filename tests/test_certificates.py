import copy
import dataclasses
import json

import numpy as np
import pytest

import vaxmpc
from vaxmpc import certificates, cli
from vaxmpc.certificates import (
    BOUNDARY_FRACTION,
    BOUND_RTOL,
    ETA_I0_FRACTION,
    ETA_RTOL,
    LYAPUNOV_RTOL,
    XSTAR_ATOL,
    CertificateParams,
    BoundAudit,
    CheckReport,
    _constraint_margin,
    _report,
    _rows,
    _sample_controls,
    check_eta_bound,
    check_invariance,
    check_lyapunov_decrease,
    constraint_excess,
    sample_terminal_states,
    susceptible_box,
    validate_epsilon,
)
from vaxmpc.errors import ContractViolation, ValidationError
from vaxmpc.model import matvec_rows, new_infections, si_step

from conftest import random_desk_instance

#: min_k (gamma_r_k + gamma_d_k) for the preset rates, attained by group 3
#: (45-64): 0.5707245171 + 0.0232746601.
PRESET_MIN_REMOVAL = 0.5939991772


def scalar_params(lam=0.01, gamma_r=0.5, gamma_d=0.1, population=100.0, contact=1.0):
    """One-group params; S* = 50 depends only on lam * contact, and a
    population of at most 100 keeps the infection pressure at most 1."""
    return vaxmpc.ModelParams(
        lam=np.array([lam]),
        gamma_r=np.array([gamma_r]),
        gamma_d=np.array([gamma_d]),
        population=np.array([population]),
        contact=np.array([[contact]]),
    )


class TestEpsilonValid:
    def test_preset_bound_value(self, preset_params):
        upper = float(np.min(preset_params.gamma_r + preset_params.gamma_d))
        assert upper == pytest.approx(PRESET_MIN_REMOVAL, abs=1e-10)
        assert int(np.argmin(preset_params.gamma_r + preset_params.gamma_d)) == 2
        validate_epsilon(0.1, preset_params.removal)

    def test_strict_lower_bound(self, preset_params):
        with pytest.raises(ValidationError):
            validate_epsilon(0.0, preset_params.removal)

    def test_strict_upper_bound(self, preset_params):
        upper = float(np.min(preset_params.gamma_r + preset_params.gamma_d))
        with pytest.raises(ValidationError):
            validate_epsilon(upper, preset_params.removal)

    def test_invalid_epsilon_rejected_in_factory(self, preset_params):
        with pytest.raises(ValidationError):
            CertificateParams.from_model(preset_params, 0.6)


class TestTerminalSet:
    def test_disease_free_branch(self, preset_params):
        cert = CertificateParams.from_model(preset_params, 0.1)
        state = vaxmpc.initial_state(preset_params, np.zeros(6))
        assert vaxmpc.in_terminal_set(state, cert)

    def test_zero_susceptibles_always_member(self, preset_params):
        cert = CertificateParams.from_model(preset_params, 0.1)
        state = vaxmpc.EpidemicState(
            s=np.zeros(6),
            i=preset_params.population.copy(),
            r=np.zeros(6),
            d=np.zeros(6),
        )
        assert vaxmpc.in_terminal_set(state, cert)

    def test_scalar_closed_form_threshold(self):
        # S* = gamma_d (gamma_r + gamma_d - eps) / (gamma_d lam C) = 50
        params = scalar_params()
        cert = CertificateParams.from_model(params, 0.1)
        threshold = (0.5 + 0.1 - 0.1) / (0.01 * 1.0)
        assert threshold == pytest.approx(50.0)

        def member(s_value):
            state = vaxmpc.EpidemicState(
                s=np.array([s_value]),
                i=np.array([10.0]),
                r=np.zeros(1),
                d=np.zeros(1),
            )
            return vaxmpc.in_terminal_set(state, cert)

        assert member(49.0)
        assert not member(51.0)

    def test_gamma_vec_positive(self, preset_params):
        cert = CertificateParams.from_model(preset_params, 0.1)
        assert np.all(cert.gamma_vec > 0)

    def test_group_count_checked_against_the_set(self, preset_params):
        cert = CertificateParams.from_model(preset_params, 0.1)
        state = vaxmpc.initial_state(scalar_params(), np.array([1.0]))
        with pytest.raises(ContractViolation):
            vaxmpc.in_terminal_set(state, cert)


class TestComputeEta:
    def test_scalar_closed_form(self):
        lam, gr, gd, pop, c = 0.02, 0.4, 0.1, 5000.0, 3e-4
        params = scalar_params(lam, gr, gd, pop, c)
        expected = 1.0 + pop * lam * c - (gr + gd)
        assert vaxmpc.compute_eta(params) == pytest.approx(expected, rel=1e-12)

    def test_bound_holds_on_random_rollouts(self, preset_params):
        margin = check_eta_bound(
            preset_params, rollouts=20, days=60, rng=np.random.default_rng(3), v_bar=55191.0
        )
        assert np.all(margin >= 0)
        assert margin.shape == (60, 20)


class TestSampling:
    def test_samples_live_in_terminal_set(self, preset_params):
        cert = CertificateParams.from_model(preset_params, 0.1)
        rng = np.random.default_rng(0)
        s, i = sample_terminal_states(cert, preset_params, 500, rng)
        for row_s, row_i in zip(s, i):
            state = vaxmpc.EpidemicState(s=row_s, i=row_i, r=np.zeros(6), d=np.zeros(6))
            assert vaxmpc.in_terminal_set(state, cert)
        assert np.all(s >= 0) and np.all(i >= 0)

    def test_boundary_fraction_sits_on_boundary(self, preset_params):
        cert = CertificateParams.from_model(preset_params, 0.1)
        rng = np.random.default_rng(1)
        s, _ = sample_terminal_states(cert, preset_params, 1000, rng)
        n_boundary = round(BOUNDARY_FRACTION * 1000)
        margins = np.array(
            [np.min(cert.gamma_vec - cert.ct_lam @ row) for row in s[:n_boundary]]
        )
        assert np.all(margins >= 0)
        # most scaled points touch the constraint up to rounding; the rest
        # hit the population box first, which also bounds the scaling
        on_boundary = margins <= 1e-8 * np.max(cert.gamma_vec)
        assert on_boundary.mean() >= 0.5

    def test_box_axes_are_feasible(self, preset_params):
        cert = CertificateParams.from_model(preset_params, 0.1)
        box = susceptible_box(cert, preset_params)
        for k in range(6):
            corner = np.zeros(6)
            corner[k] = box[k]
            assert np.all(cert.ct_lam @ corner <= cert.gamma_vec * (1 + 1e-12))

    @pytest.mark.parametrize("seed", range(5))
    def test_samples_stay_in_the_state_space(self, preset_params, seed):
        # boundary rows where the population cap binds must not round above P
        cert = CertificateParams.from_model(preset_params, 0.1)
        rng = np.random.default_rng(seed)
        s, i = sample_terminal_states(cert, preset_params, 20_000, rng)
        assert np.all(s >= 0) and np.all(s <= preset_params.population)
        assert np.all(i >= 0) and np.all(s + i <= preset_params.population)


def reference_margin(s, cert):
    """The constraint margin as one reduction along the last axis."""
    return 0.0 - np.max(constraint_excess(s, cert), axis=-1)


class TestConstraintMargin:
    """The column-wise margin is bitwise the last-axis reduction."""

    @staticmethod
    def assert_same(s, cert):
        got, want = _constraint_margin(s, cert), reference_margin(s, cert)
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("instance", ["preset", "desk"])
    def test_equals_last_axis_max(self, instance, request):
        params = request.getfixturevalue(f"{instance}_params")
        cert = CertificateParams.from_model(params, 0.1)
        box = susceptible_box(cert, params)
        rng = np.random.default_rng(7)
        rows = rng.random((5000, params.n_a)) * box
        self.assert_same(rows, cert)
        load = matvec_rows(cert.ct_lam, rows)
        on_boundary = rows * (cert.gamma_vec / load).min(axis=1)[:, None]
        self.assert_same(on_boundary, cert)
        assert np.any(_constraint_margin(on_boundary, cert) == 0.0)
        self.assert_same(np.zeros((3, params.n_a)), cert)
        with_nan = rows[:4].copy()
        with_nan[1, 0] = np.nan
        self.assert_same(with_nan, cert)
        assert np.isnan(_constraint_margin(with_nan, cert)[1])
        self.assert_same(rows[0], cert)
        self.assert_same(np.zeros(params.n_a), cert)
        self.assert_same(rows[:6].reshape(2, 3, params.n_a), cert)

    def test_every_column_binds_and_one_nan_column_propagates(self):
        """With Ct_Lam = Id and Gamma = 0 the excess is S itself, so each
        column is the max of some rows; a NaN threshold makes one column
        NaN without touching the others."""
        n_a = 6
        cert = CertificateParams(
            epsilon=0.1, gamma_vec=np.zeros(n_a), ct_lam=np.eye(n_a)
        )
        rows = np.random.default_rng(3).normal(size=(4000, n_a))
        assert set(np.argmax(rows, axis=1)) == set(range(n_a))
        self.assert_same(rows, cert)
        self.assert_same(np.zeros((2, n_a)), cert)
        self.assert_same(-np.zeros((2, n_a)), cert)
        for j in range(n_a):
            gamma_nan = np.zeros(n_a)
            gamma_nan[j] = np.nan
            with_nan = dataclasses.replace(cert, gamma_vec=gamma_nan)
            self.assert_same(rows[:50], with_nan)
            assert np.all(np.isnan(_constraint_margin(rows[:50], with_nan)))


class TestRows:
    """The column fold is numpy's reduction along the last axis."""

    @pytest.mark.parametrize("n_a", [1, 2, 6, 9, 16])
    def test_equals_last_axis_reductions(self, n_a):
        rng = np.random.default_rng(n_a)
        values = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.5, -2.5])
        x = rng.choice(values, size=(4000, n_a))
        x[:500] = rng.normal(size=(500, n_a))
        zeros = x == 0
        # a row whose winner is a tie of +0.0 and -0.0 may give either zero
        mixed = (zeros & np.signbit(x)).any(axis=-1) & (zeros & ~np.signbit(x)).any(axis=-1)
        for op, reduce, data in [
            (np.maximum, np.max, x), (np.minimum, np.min, x), (np.logical_or, np.any, x > 0)
        ]:
            got, want = _rows(op, data), reduce(data, axis=-1)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)  # NaN where numpy has NaN
            assert got[~mixed].tobytes() == want[~mixed].tobytes()
            # n_a = 1 included: a new array, never a view a caller could write
            assert not np.shares_memory(got, data)
            for rows in (data[:12].reshape(3, 4, n_a), data[0]):
                got, want = _rows(op, rows), reduce(rows, axis=-1)
                assert np.shape(got) == np.shape(want)
                np.testing.assert_array_equal(got, want)


def certify_streams(seed):
    """The two generators ``certify`` spawns from ``seed``: terminal states
    and their controls, then growth-bound rollouts."""
    return map(np.random.default_rng, np.random.SeedSequence(seed).spawn(2))


def terminal_draw(cert, params, samples, rng, v_bar):
    """(S, I, u) as ``certify`` draws them from its first stream: states in
    X_f, then one admissible control each."""
    s, i = sample_terminal_states(cert, params, samples, rng)
    return s, i, _sample_controls(samples, params.n_a, v_bar, rng)


def state_margins(cert, params, s, i, u):
    """The invariance and decrease margins as ``certify`` composes them:
    each state stepped once under its control, both checks reading that
    successor."""
    s1, i1, _ = si_step(s, i, u, params)
    return check_invariance(cert, s1, i1), check_lyapunov_decrease(cert, params, s, i, i1)


def reference_invariance(cert, params, samples, rng_seed, v_bar):
    """Per-sample loop over the invariance check, one si_step per state."""
    rng = np.random.default_rng(rng_seed)
    s, i = sample_terminal_states(cert, params, samples, rng)
    u = _sample_controls(samples, params.n_a, v_bar, rng)
    violations, worst = 0, np.inf
    for k in range(samples):
        s1, i1, _ = si_step(s[k], i[k], u[k], params)
        linear = float(np.min(cert.gamma_vec - cert.ct_lam @ s1))
        margin = max(linear, XSTAR_ATOL - float(np.max(np.abs(i1))))
        worst = min(worst, margin)
        violations += margin < 0
    return violations, worst


def reference_lyapunov(cert, params, samples, rng_seed, v_bar):
    """Per-sample loop over the decrease check, one si_step pair per state."""
    rng = np.random.default_rng(rng_seed)
    s, i = sample_terminal_states(cert, params, samples, rng)
    u_rand = _sample_controls(samples, params.n_a, v_bar, rng)
    gd, eps = params.gamma_d, cert.epsilon
    violations, worst = 0, np.inf
    for k in range(samples):
        cost_now = float(gd @ i[k])
        _, i1, _ = si_step(s[k], i[k], np.zeros(params.n_a), params)
        cost_next = float(gd @ i1)
        margin = ((1.0 - eps + LYAPUNOV_RTOL) * cost_now - cost_next) / max(cost_now, 1e-300)
        _, i1_u, _ = si_step(s[k], i[k], u_rand[k], params)
        if not np.array_equal(i1, i1_u):
            margin = -np.inf
        worst = min(worst, margin)
        violations += margin < 0
    return violations, worst


def reference_eta_bound(params, rollouts, days, rng_seed, v_bar):
    """Per-rollout loop over the growth-bound check, one si_step per day, on
    inputs drawn as the check draws them."""
    rng = np.random.default_rng(rng_seed)
    eta = vaxmpc.compute_eta(params)
    gd, n_a = params.gamma_d, params.n_a
    i0 = rng.uniform(0.0, ETA_I0_FRACTION, size=(rollouts, n_a)) * params.population
    u = _sample_controls((days, rollouts), n_a, v_bar, rng)
    violations, worst, checked = 0, np.inf, 0
    for k in range(rollouts):
        i = i0[k]
        s = params.population - i
        for day in range(days):
            cost_now = float(matvec_rows(gd, i))
            s, i, _ = si_step(s, i, u[day, k], params)
            cost_next = float(matvec_rows(gd, i))
            bound = eta * cost_now
            margin = (bound * (1.0 + ETA_RTOL) - cost_next) / max(bound, 1e-300)
            worst = min(worst, margin)
            checked += 1
            violations += margin < 0
    return CheckReport("growth_factor_bound", checked, violations, float(worst), rng_seed)


def random_params(n_a, rng):
    """Seeded n_a-group instance within the model's premises."""
    pop = rng.uniform(1e3, 1e6, n_a)
    lam = rng.uniform(0.01, 0.3, n_a)
    raw = rng.uniform(0.1, 5.0, (n_a, n_a))
    raw *= min(1.0, 0.9 / np.max(lam * raw.sum(axis=1)))  # pressure below one
    return vaxmpc.ModelParams(
        lam=lam,
        gamma_r=rng.uniform(0.1, 0.8, n_a),
        gamma_d=rng.uniform(1e-4, 0.15, n_a),
        population=pop,
        contact=raw / pop[None, :],
    )


class TestBatchedChecks:
    """The batched checks report exactly what a per-sample loop reports."""

    @pytest.mark.parametrize("instance", ["preset", "desk"])
    def test_eta_bound_equals_per_rollout_loop(self, instance, request):
        params = request.getfixturevalue(f"{instance}_params")
        v_bar = 55191.0 if instance == "preset" else 1200.0
        for seed, rollouts, days in [(0, 30, 140), (5, 7, 25), (1, 0, 140), (2, 30, 0)]:
            margin = check_eta_bound(
                params, rollouts=rollouts, days=days, rng=np.random.default_rng(seed), v_bar=v_bar
            )
            got = _report("growth_factor_bound", margin, seed)
            want = reference_eta_bound(params, rollouts, days, seed, v_bar)
            assert got.to_json() == want.to_json()

    @pytest.mark.parametrize("n_a", range(1, 17))
    def test_eta_bound_equals_per_rollout_loop_random(self, n_a):
        rng = np.random.default_rng(1000 + n_a)
        params = random_params(n_a, rng)
        v_bar = float(rng.uniform(0.01, 0.1) * params.population.sum())
        rollouts, days = int(rng.integers(0, 12)), int(rng.integers(0, 40))
        for seed in (0, 7):
            margin = check_eta_bound(
                params, rollouts=rollouts, days=days, rng=np.random.default_rng(seed), v_bar=v_bar
            )
            got = _report("growth_factor_bound", margin, seed)
            want = reference_eta_bound(params, rollouts, days, seed, v_bar)
            assert got.to_json() == want.to_json()

    @pytest.mark.parametrize("instance", ["preset", "desk"])
    def test_reports_equal_per_sample_loops(self, instance, request):
        params = request.getfixturevalue(f"{instance}_params")
        v_bar = 55191.0 if instance == "preset" else 1200.0
        cert = CertificateParams.from_model(params, 0.1)
        for seed in (0, 5):
            draw = terminal_draw(cert, params, 3000, np.random.default_rng(seed), v_bar)
            invariance, decrease = state_margins(cert, params, *draw)
            inv = _report("terminal_set_invariance", invariance, seed)
            assert (inv.n_violations, inv.worst_margin) == reference_invariance(
                cert, params, 3000, seed, v_bar
            )
            lyap = _report("lyapunov_decrease", decrease, seed)
            assert (lyap.n_violations, lyap.worst_margin) == reference_lyapunov(
                cert, params, 3000, seed, v_bar
            )


class TestCertify:
    """``certify`` is the shared draw and the three checks, nothing more,
    with the draw and the growth-bound rollouts on separate streams."""

    @pytest.mark.parametrize(
        "instance, samples, rollouts", [("preset", 10_000, 100), ("groups-12", 50, 1)]
    )
    def test_equals_the_calls_it_composes(
        self, preset_config, monkeypatch, instance, samples, rollouts
    ):
        if instance == "preset":
            params, cfg = preset_config.params, preset_config.mpc
        else:
            params = random_params(12, np.random.default_rng(12))
            cfg = vaxmpc.MpcConfig(
                epsilon=0.5 * float(np.min(params.removal)),
                v_bar=0.05 * float(params.population.sum()),
            )
        cert = CertificateParams.from_model(params, cfg.epsilon)
        states, growth = certify_streams(0)
        invariance, decrease = state_margins(
            cert, params, *terminal_draw(cert, params, samples, states, cfg.v_bar)
        )
        want = [
            _report("terminal_set_invariance", invariance, 0),
            _report("lyapunov_decrease", decrease, 0),
            _report(
                "growth_factor_bound",
                check_eta_bound(params, rollouts, cfg.strategy_horizon, growth, v_bar=cfg.v_bar),
                0,
            ),
        ]
        names = (
            "sample_terminal_states",
            "check_invariance",
            "check_lyapunov_decrease",
            "check_eta_bound",
        )
        calls = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapper

        for name in names:
            monkeypatch.setattr(certificates, name, counting(name, getattr(certificates, name)))
        got = vaxmpc.certify(params, cfg, samples, 0)
        assert [r.to_json() for r in got] == [r.to_json() for r in want]
        assert sorted(calls) == sorted(names)  # one draw serves both state checks
        assert [r.seed for r in got] == [0, 0, 0]

    def test_growth_bound_draws_apart_from_the_terminal_states(
        self, preset_config, monkeypatch
    ):
        """The rollouts' first infections are not a rescaling of the terminal
        draw's first direction uniforms, as they were when both checks
        seeded one generator with the same integer."""
        params, cfg = preset_config.params, preset_config.mpc
        samples, rollouts = 1000, 10
        directions, first_i = [], []
        sampler, kernel = certificates.sample_terminal_states, certificates.si_step

        def sampling(cert, params, n, rng):
            directions.append(copy.deepcopy(rng).random((rollouts, params.n_a)))
            return sampler(cert, params, n, rng)

        def stepping(s, i, u, params, out=None):
            if i.shape[0] == rollouts and not first_i:
                first_i.append(i.copy())
            return kernel(s, i, u, params, out=out)

        monkeypatch.setattr(certificates, "sample_terminal_states", sampling)
        monkeypatch.setattr(certificates, "si_step", stepping)
        assert all(r.passed for r in vaxmpc.certify(params, cfg, samples, 0))
        rescaled = ETA_I0_FRACTION * directions[0] * params.population
        assert not np.allclose(first_i[0], rescaled)


def test_certify_steps_each_sample_once(preset_config, monkeypatch):
    """The shared draw is stepped twice in all, under its controls and under
    zero input, and the growth bound once a day."""
    params, cfg = preset_config.params, preset_config.mpc
    rows, kernel = [], certificates.si_step

    def counting(s, i, u, params, out=None):
        rows.append(len(s))
        return kernel(s, i, u, params, out=out)

    monkeypatch.setattr(certificates, "si_step", counting)
    vaxmpc.certify(params, cfg, 20_000, 0)
    assert rows.count(20_000) == 2
    assert rows.count(200) == cfg.strategy_horizon == 140
    assert len(rows) == 142


def mutated_si_step(mutation):
    """``si_step`` with one deliberate defect."""

    def step(s, i, u, params, out=None):
        new_inf = new_infections(s, i, params)
        if mutation == "infection sign":
            new_inf = -new_inf
        elif mutation == "zero infection":
            new_inf = np.zeros_like(new_inf)
        room = s - new_inf
        u_eff = u if mutation == "no clamp" else np.minimum(u, np.maximum(0.0, room))
        removal = 0.5 * params.removal if mutation == "halved removal" else params.removal
        i_next = i + new_inf - removal * i
        if mutation == "input leak":
            i_next = i_next + 1e-9 * u_eff
        results = room - u_eff, i_next, u_eff
        if out is None:
            return results
        for target, result in zip(out, results):
            target[...] = result
        return out

    return step


@pytest.mark.parametrize(
    "mutation, violations",
    [
        ("infection sign", [5886, 0, 13899]),
        ("no clamp", [0, 0, 5314]),
        ("input leak", [0, 20_000, 2]),
        ("halved removal", [0, 0, 0]),
        ("zero infection", [0, 0, 0]),
    ],
)
def test_suite_catches_kernel_mutations(preset_config, monkeypatch, mutation, violations):
    """Each defect in the kernel shows as violations of the checks that read
    it: invariance, decrease and growth bound, in that order, on the preset
    at 20 000 samples and seed 0.  Dropping the clamp is caught by the
    growth bound alone, and only the decrease check's guard, which compares
    the zero-input I' with the I' stepped under each control, catches a
    control leaking into I'.

    Blind spots at epsilon = 0.1: a halved removal rate, or a zero
    infection term, gives no violation in any of the three checks.
    Invariance reads S', which the removal rate does not touch and a zero
    infection term only keeps larger inside the down-closed X_f; the
    decrease has room for the halved removal, and a zero infection term
    only shrinks I'; and neither brings the growth near eta.
    :class:`TestKernelClosedForm` catches both.
    """
    monkeypatch.setattr(certificates, "si_step", mutated_si_step(mutation))
    with np.errstate(over="ignore", invalid="ignore"):
        reports = vaxmpc.certify(preset_config.params, preset_config.mpc, 20_000, 0)
    assert [r.n_violations for r in reports] == violations


MUTATIONS = ("infection sign", "no clamp", "input leak", "halved removal", "zero infection")


def reference_si_step(s, i, u, params):
    """The kernel's closed form, computed apart from ``si_step``: the removal
    rate as gamma_r + gamma_d and the contact sums as i @ C'."""
    new = params.lam * s * (i @ params.contact.T)
    room = s - new
    u_eff = np.minimum(u, np.maximum(0.0, room))
    return room - u_eff, i + new - (params.gamma_r + params.gamma_d) * i, u_eff


def matches_closed_form(step, s, i, u, params):
    """Whether ``step`` gives (S', I', u_eff) within relative 1e-12 of
    :func:`reference_si_step`.  S' = S - new - u_eff cancels where S' is
    much smaller than S, so its rounding is of the order of ulp(S), and it
    gets an absolute floor of 1e-12 S."""
    got, want = step(s, i, u, params), reference_si_step(s, i, u, params)
    floors = (1e-12 * s, 0.0, 0.0)
    return all(
        np.all(np.abs(g - w) <= 1e-12 * np.abs(w) + f) for g, w, f in zip(got, want, floors)
    )


class TestKernelClosedForm:
    """``si_step`` equals its closed form on certify's terminal sample and on
    random states where the clamp binds, and each kernel mutation, the two
    the sampled suite misses included, breaks the equality.

    Measured at 20 000 states per input set: the unmutated kernel stays
    below 0.003 of the tolerance, and the smallest mutation effect (the
    input leak, on I') is above 10^4 times it."""

    @pytest.mark.parametrize("n_a", [1, 2, 6, 12, 16])
    def test_matches_and_every_mutation_breaks_it(self, preset_config, n_a):
        if n_a == 6:
            params, cfg = preset_config.params, preset_config.mpc
        else:
            params = random_params(n_a, np.random.default_rng(3000 + n_a))
            cfg = vaxmpc.MpcConfig(
                epsilon=0.5 * float(np.min(params.removal)),
                v_bar=0.05 * float(params.population.sum()),
            )
        cert = CertificateParams.from_model(params, cfg.epsilon)
        states, _ = certify_streams(0)
        rng = np.random.default_rng(n_a)
        s = rng.uniform(0.0, 1.0, (20_000, n_a)) * params.population
        i = rng.uniform(0.0, 1.0, s.shape) * (params.population - s)
        u = rng.uniform(0.0, 2.0, s.shape) * s
        assert np.any(reference_si_step(s, i, u, params)[2] < u)  # the clamp binds
        for inputs in (terminal_draw(cert, params, 20_000, states, cfg.v_bar), (s, i, u)):
            assert matches_closed_form(si_step, *inputs, params)
            for mutation in MUTATIONS:
                mutated = mutated_si_step(mutation)
                assert not matches_closed_form(mutated, *inputs, params), mutation


class TestInvariance:
    def test_no_violations_on_preset(self, preset_params):
        cert = CertificateParams.from_model(preset_params, 0.1)
        draw = terminal_draw(cert, preset_params, 2000, np.random.default_rng(11), 55191.0)
        margin, _ = state_margins(cert, preset_params, *draw)
        assert np.all(margin >= 0)
        assert margin.shape == (2000,)

    def test_disease_free_state_stays(self, preset_params):
        cert = CertificateParams.from_model(preset_params, 0.1)
        state = vaxmpc.initial_state(preset_params, np.zeros(6))
        nxt = vaxmpc.step(state, np.full(6, 1000.0), preset_params)
        assert vaxmpc.in_terminal_set(nxt, cert)

    def test_report_round_trips_to_json(self, preset_params):
        cert = CertificateParams.from_model(preset_params, 0.1)
        draw = terminal_draw(cert, preset_params, 50, np.random.default_rng(2), 55191.0)
        margin, _ = state_margins(cert, preset_params, *draw)
        report = _report("terminal_set_invariance", margin, 2)
        payload = json.loads(report.to_json())
        assert set(payload) >= {"n_samples", "n_violations", "worst_margin", "seed"}
        assert payload["seed"] == 2


class TestLyapunovDecrease:
    def test_no_violations_on_preset(self, preset_params):
        cert = CertificateParams.from_model(preset_params, 0.1)
        draw = terminal_draw(cert, preset_params, 2000, np.random.default_rng(4), 55191.0)
        assert np.all(state_margins(cert, preset_params, *draw)[1] >= 0)

    def test_scalar_threshold_example(self):
        params = scalar_params()
        gd = params.gamma_d

        def decrease_margin(s_value):
            s = np.array([s_value])
            i = np.array([10.0])
            from vaxmpc.model import si_step

            _, i1, _ = si_step(s, i, np.zeros(1), params)
            return float((1 - 0.1) * (gd @ i) - gd @ i1)

        assert decrease_margin(49.0) > 0  # inside the region: decrease holds
        assert decrease_margin(51.0) < 0  # outside: inequality fails

    def test_degenerate_without_infections(self):
        params = scalar_params()
        from vaxmpc.model import si_step

        _, i1, _ = si_step(np.array([40.0]), np.zeros(1), np.zeros(1), params)
        assert i1[0] == 0.0


class TestStageCostBound:
    def test_stage_cost_dominates_scaled_infection_mass(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            n = int(rng.integers(1, 7))
            gd = rng.uniform(1e-4, 0.3, n)
            i = rng.uniform(0, 1e5, n)
            assert gd @ i >= gd.min() * i.sum() * (1 - 1e-12)


class TestDeathBoundAudit:
    def test_requires_recorded_values(self, desk_params, desk_state0, desk_cfg):
        run = vaxmpc.run_policy_loop(desk_state0, desk_cfg, desk_params, "national")
        with pytest.raises(ContractViolation):
            vaxmpc.audit_death_bound(run)

    def test_desk_scale_loop_has_no_violations(
        self, desk_params, desk_state0, desk_cfg
    ):
        run = vaxmpc.run_policy_loop(desk_state0, desk_cfg, desk_params)
        solved = [rec for rec in run.day_records if rec.v_n0 is not None]
        assert solved and all(rec.feasible for rec in solved)
        audit = vaxmpc.audit_death_bound(run)
        assert audit.passed
        assert audit.n_bound_violations == 0
        assert audit.n_descent_violations == 0
        payload = json.loads(audit.to_json())
        assert set(payload) >= {"n_samples", "n_violations", "worst_margin", "seed"}

    def test_trivially_eradicated_run(self, desk_params, desk_cfg):
        state = vaxmpc.initial_state(desk_params, np.zeros(2))
        run = vaxmpc.run_policy_loop(state, desk_cfg, desk_params)
        # below-threshold start latches immediately: no solves to audit
        assert run.latch_day == 1
        assert run.day_records == []
        assert not run.controls.any()
        audit = vaxmpc.audit_death_bound(run)
        assert audit.passed and audit.n_samples == 0

    def test_record_day_outside_the_trajectory(self, desk_params, desk_state0, desk_cfg):
        run = vaxmpc.run_policy_loop(desk_state0, desk_cfg, desk_params)
        records = list(run.day_records)
        records[0] = dataclasses.replace(records[0], day=run.n_days + 5)
        with pytest.raises(ContractViolation, match="outside the trajectory"):
            vaxmpc.audit_death_bound(dataclasses.replace(run, day_records=records))


class TestReportRule:
    def test_nan_margin_counts_as_violation(self):
        report = _report("check", np.array([0.5, np.nan, 2.0]), 0)
        assert report.n_samples == 3
        assert report.n_violations == 1
        assert not report.passed

    def test_one_group_config_without_nan(self, tmp_path, capsys):
        # the box is the whole population, so boundary rows sit at S = P
        # and carry no infection
        (tmp_path / "c.csv").write_text("0.001\n")
        config = {
            "model": {"lambda": [0.01], "gamma_r": [0.5], "gamma_d": [0.1],
                      "population": [1000.0]},
            "contact_matrix_path": "c.csv",
            "contact_matrix_is_raw": False,
            "mpc": {"epsilon": 0.1},
        }
        path = tmp_path / "one.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "report.json"
        code = cli.main(
            ["--quiet", "certify", "--config", str(path), "--samples", "500",
             "--seed", "0", "--out", str(out)]
        )
        checks = json.loads(out.read_text())["checks"]
        assert code == 0
        assert all(np.isfinite(c["worst_margin"]) for c in checks)
        assert all(c["n_violations"] == 0 for c in checks)


def box_is_population_params(rng):
    """One group whose terminal-set box is its whole population."""
    pop = rng.uniform(1e3, 1e5)
    lam, gamma_r, gamma_d = rng.uniform(0.01, 0.3), rng.uniform(0.1, 0.8), rng.uniform(1e-4, 0.15)
    # S* = (gamma_r + gamma_d - eps) / (lam C) >= P at eps = (gamma_r + gamma_d) / 2
    contact = rng.uniform(0.1, 1.0) * gamma_r / (2.0 * lam * pop)
    return vaxmpc.ModelParams(
        lam=np.array([lam]),
        gamma_r=np.array([gamma_r]),
        gamma_d=np.array([gamma_d]),
        population=np.array([pop]),
        contact=np.array([[contact]]),
    )


class TestRandomInstances:
    """Invariance and decrease hold past the preset, up to sixteen groups."""

    @pytest.mark.parametrize("n_a", range(1, 17))
    def test_invariance_and_decrease(self, n_a):
        rng = np.random.default_rng(2000 + n_a)
        instances = [random_params(n_a, rng) for _ in range(5)]
        if n_a == 1:
            instances += [box_is_population_params(rng) for _ in range(5)]
        for k, params in enumerate(instances):
            cert = CertificateParams.from_model(params, 0.5 * float(np.min(params.removal)))
            if n_a == 1 and k >= 5:
                assert susceptible_box(cert, params)[0] == params.population[0]
            v_bar = float(rng.uniform(0.01, 0.1) * params.population.sum())
            draw = terminal_draw(cert, params, 500, np.random.default_rng(k), v_bar)
            margins = state_margins(cert, params, *draw)
            checks = [
                (check_invariance, reference_invariance),
                (check_lyapunov_decrease, reference_lyapunov),
            ]
            for (check, reference), margin in zip(checks, margins):
                report = _report(check.__name__, margin, k)
                assert np.isfinite(report.worst_margin), (k, report)
                assert report.n_violations == 0, (k, report)
                # each reference draws on its own, from the shared draw's stream
                want = reference(cert, params, 500, k, v_bar)
                assert (report.n_violations, report.worst_margin) == want, (k, report)

    def test_zero_population_group(self):
        """A group with P_k = 0 has a zero direction entry in every draw,
        which the reach skips instead of dividing 0 by 0."""
        params = random_params(5, np.random.default_rng(77))
        population = params.population.copy()
        population[2] = 0.0
        params = dataclasses.replace(params, population=population)
        cert = CertificateParams.from_model(params, 0.5 * float(np.min(params.removal)))
        s, i = sample_terminal_states(cert, params, 2000, np.random.default_rng(0))
        for a in (s, i):
            assert np.all(np.isfinite(a))
        assert np.all(_constraint_margin(s, cert) >= 0)
        assert np.all(s >= 0) and np.all(s <= population)
        assert np.all(s[:, 2] == 0.0)
        assert np.all(np.delete(s, 2, axis=1).any(axis=1))
        draw = terminal_draw(cert, params, 2000, np.random.default_rng(0), 0.05 * population.sum())
        margins = state_margins(cert, params, *draw)
        for check, margin in zip((check_invariance, check_lyapunov_decrease), margins):
            report = _report(check.__name__, margin, 0)
            assert np.isfinite(report.worst_margin) and report.passed, report


def reference_audit_death_bound(run):
    """The per-record audit loop the array pass replaced, kept verbatim."""
    records = [rec for rec in run.day_records if rec.v_n0 is not None]
    if not records:
        if run.policy == "mpc":
            # eradicated before the first solve: nothing to bound
            return BoundAudit(
                name="death_toll_bound",
                n_samples=0,
                n_violations=0,
                worst_margin=float("inf"),
                seed=None,
                n_bound_violations=0,
                n_descent_violations=0,
            )
        raise ContractViolation(
            "run carries no recorded optimal values; the death-toll audit "
            "applies to predictive-controller runs only"
        )
    daily = run.daily_deaths()
    n_steps = run.trajectory.n_steps
    if run.latch_day is not None:
        end = run.latch_day - 1 - run.trajectory.start_time_step
    else:
        end = n_steps
    tail = np.zeros(n_steps + 1)
    tail[:end] = np.cumsum(daily[:end][::-1])[::-1]
    bound_violations = 0
    descent_violations = 0
    worst = np.inf
    for rec in records:
        t = rec.day - 1 - run.trajectory.start_time_step
        if not 0 <= t <= n_steps:
            raise ContractViolation(f"record day {rec.day} outside the trajectory")
        v = rec.v_n0
        margin = (v * (1.0 + BOUND_RTOL) - tail[t]) / max(v, 1e-300)
        worst = min(worst, margin)
        if margin < 0:
            bound_violations += 1
    by_day = {rec.day: rec for rec in records}
    for rec in records:
        nxt = by_day.get(rec.day + 1)
        if nxt is None or not rec.feasible:
            continue
        margin = (rec.v_n0 * (1.0 + BOUND_RTOL) - nxt.v_n0) / max(rec.v_n0, 1e-300)
        worst = min(worst, margin)
        if margin < 0:
            descent_violations += 1
    return BoundAudit(
        name="death_toll_bound",
        n_samples=len(records),
        n_violations=bound_violations + descent_violations,
        worst_margin=float(worst),
        seed=None,
        n_bound_violations=bound_violations,
        n_descent_violations=descent_violations,
    )


def doctored(run, index, v_n0):
    """The run with its index-th solved day's optimal value replaced."""
    records = list(run.day_records)
    solved = [k for k, rec in enumerate(records) if rec.v_n0 is not None]
    k = solved[index]
    records[k] = dataclasses.replace(records[k], v_n0=v_n0(records[k].v_n0))
    return dataclasses.replace(run, day_records=records)


class TestAuditEqualsRecordLoop:
    """The array audit reports exactly what the per-record loop reports."""

    @staticmethod
    def assert_same(run):
        got = vaxmpc.audit_death_bound(run)
        assert got.to_json() == reference_audit_death_bound(run).to_json()
        return got

    def test_preset_run(self, preset_runs):
        runs, _ = preset_runs
        audit = self.assert_same(runs["mpc"])
        assert audit.n_samples > 0 and audit.passed

    def test_desk_loop_and_instances(self, desk_params, desk_state0, desk_cfg):
        self.assert_same(vaxmpc.run_policy_loop(desk_state0, desk_cfg, desk_params))
        for seed in range(20):
            params, state0, cfg = random_desk_instance(seed)
            self.assert_same(vaxmpc.run_policy_loop(state0, cfg, params))

    def test_eradicated_and_late_start(self, desk_params, desk_state0, desk_cfg):
        state = vaxmpc.initial_state(desk_params, np.zeros(2))
        audit = self.assert_same(vaxmpc.run_policy_loop(state, desk_cfg, desk_params))
        assert audit.n_samples == 0
        full = vaxmpc.run_policy_loop(desk_state0, desk_cfg, desk_params)
        late_cfg = dataclasses.replace(
            desk_cfg, vaccination_start_day=6, strategy_horizon=15, eradication_threshold=1.0
        )
        late = vaxmpc.run_policy_loop(full.trajectory.state(3), late_cfg, desk_params)
        assert late.trajectory.state(0).day == 4 and late.latch_day == 18
        audit = self.assert_same(late)
        assert audit.n_samples > 0

    def test_doctored_runs(self, desk_params, desk_state0, desk_cfg):
        run = vaxmpc.run_policy_loop(desk_state0, desk_cfg, desk_params)
        # the last solve claims too few deaths: one bound violation
        audit = self.assert_same(doctored(run, -1, lambda v: 1e-3 * v))
        assert (audit.n_bound_violations, audit.n_descent_violations) == (1, 0)
        # the second solve's value rises above the first's: one descent violation
        audit = self.assert_same(doctored(run, 1, lambda v: 10.0 * v))
        assert (audit.n_bound_violations, audit.n_descent_violations) == (0, 1)
