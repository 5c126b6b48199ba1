import time

import numpy as np
import pytest

import vaxmpc
from vaxmpc.scenario import get_preset


@pytest.fixture(scope="session")
def preset_config():
    return get_preset("wallonia-2020")


@pytest.fixture(scope="session")
def preset_params(preset_config):
    return preset_config.build_params()


@pytest.fixture(scope="session")
def preset_state0(preset_config, preset_params):
    return preset_config.build_initial_state(preset_params)


@pytest.fixture(scope="session")
def preset_runs(preset_config, preset_params, preset_state0):
    """The three full-scale closed loops, timed (acceptance criteria 7 and 8)."""
    cfg = preset_config.mpc
    started = time.time()
    runs = {
        policy: vaxmpc.run_policy_loop(preset_state0, cfg, preset_params, policy)
        for policy in ("none", "national", "mpc")
    }
    return runs, time.time() - started


@pytest.fixture(scope="session")
def desk_params():
    """Two-group instance: growing outbreak, terminal region quickly reachable."""
    pop = np.array([8000.0, 2000.0])
    contact_raw = np.array([[8.0, 0.5], [2.0, 3.0]])
    return vaxmpc.ModelParams(
        lam=np.array([0.05, 0.08]),
        gamma_r=np.array([0.30, 0.25]),
        gamma_d=np.array([0.02, 0.12]),
        population=pop,
        contact=contact_raw / pop[None, :],
    )


@pytest.fixture(scope="session")
def desk_state0(desk_params):
    return vaxmpc.initial_state(desk_params, np.array([20.0, 5.0]))


@pytest.fixture(scope="session")
def desk_cfg():
    return vaxmpc.MpcConfig(
        horizon=6,
        epsilon=0.1,
        v_bar=1200.0,
        eradication_threshold=1e-6,
        strategy_horizon=25,
        vaccination_start_day=1,
        terminal_mode="hard",
        rng_seed=0,
        n_restarts=3,
    )


def random_desk_instance(seed):
    """Seeded small instance (1-2 groups, horizon 2-3) for oracle tests."""
    rng = np.random.default_rng(seed)
    n_a = int(rng.integers(1, 3))
    horizon = int(rng.integers(2, 4))
    pop = rng.uniform(1000, 10000, n_a)
    lam = rng.uniform(0.02, 0.3, n_a)
    gamma_r = rng.uniform(0.2, 0.7, n_a)
    gamma_d = rng.uniform(0.01, 0.2, n_a)
    excess = gamma_r + gamma_d
    scale = np.where(excess > 0.98, 0.98 / excess, 1.0)
    gamma_r, gamma_d = gamma_r * scale, gamma_d * scale
    raw = np.zeros((n_a, n_a))
    for k in range(n_a):
        raw[k, k] = rng.uniform(2, 8)
        for j in range(k + 1, n_a):
            raw[k, j] = rng.uniform(0.1, 1.0)
            raw[j, k] = raw[k, j] * pop[k] / pop[j]
    pressure = np.max(lam * raw.sum(axis=1))
    if pressure > 0.9:
        raw *= 0.9 / pressure
    params = vaxmpc.ModelParams(
        lam=lam,
        gamma_r=gamma_r,
        gamma_d=gamma_d,
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
        n_restarts=3,
    )
    return params, state0, cfg
