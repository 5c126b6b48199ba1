"""How the daily dose capacity shapes outcomes, on the desk-scale instance.

Re-runs the predictive closed loop for a range of capacities and tabulates
deaths, eradication day and doses spent.  The same experiment is available
from the command line:

    vaxmpc sweep --config <cfg.json> --vary mpc.v_bar=300,600,1200 --out runs/
"""

import dataclasses

import numpy as np

import vaxmpc


def main():
    pop = np.array([8000.0, 2000.0])
    raw = np.array([[8.0, 0.5], [2.0, 3.0]])
    params = vaxmpc.ModelParams(
        lam=np.array([0.05, 0.08]),
        gamma_r=np.array([0.30, 0.25]),
        gamma_d=np.array([0.02, 0.12]),
        population=pop,
        contact=raw / pop[None, :],
    )
    state0 = vaxmpc.initial_state(params, np.array([20.0, 5.0]))
    base = vaxmpc.MpcConfig(
        horizon=6, epsilon=0.1, v_bar=600.0, eradication_threshold=0.5,
        strategy_horizon=40, vaccination_start_day=1, rng_seed=0, n_restarts=3,
    )

    print(f"{'v_bar':>8} {'deaths':>10} {'eradicated':>11} {'doses':>10}")
    for v_bar in (150.0, 300.0, 600.0, 1200.0, 2400.0):
        cfg = dataclasses.replace(base, v_bar=v_bar)
        run = vaxmpc.run_policy_loop(state0, cfg, params, "mpc")
        m = vaxmpc.compute_metrics(run)
        eradicated = m.eradication_day if m.eradication_day else "-"
        print(f"{v_bar:>8.0f} {m.deaths_total:>10.3f} {str(eradicated):>11} "
              f"{m.vaccines_used:>10.0f}")

    print("\nDoubling capacity has diminishing returns once the plan can")
    print("already reach the terminal region within its horizon.")


if __name__ == "__main__":
    main()
