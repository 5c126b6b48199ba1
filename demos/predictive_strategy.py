"""The receding-horizon vaccination policy, end to end.

By default runs a two-group desk-scale instance so the script finishes in a
few seconds: solves the day-one planning problem, inspects the plan, runs
the closed loop, and audits the realized deaths against the optimal values.
Pass ``--full`` to re-run on the bundled six-group scenario instead (about
a minute) and compare with the oldest-first baseline.
"""

import argparse
from pathlib import Path

import numpy as np

import vaxmpc
from vaxmpc.scenario import get_preset, write_run

OUT = Path(__file__).resolve().parent / "output" / "predictive"


def desk_instance():
    pop = np.array([8000.0, 2000.0])
    raw = np.array([[8.0, 0.5], [2.0, 3.0]])  # reciprocal total contacts
    params = vaxmpc.ModelParams(
        lam=np.array([0.05, 0.08]),
        gamma_r=np.array([0.30, 0.25]),
        gamma_d=np.array([0.02, 0.12]),
        population=pop,
        contact=raw / pop[None, :],
    )
    state0 = vaxmpc.initial_state(params, np.array([20.0, 5.0]))
    cfg = vaxmpc.MpcConfig(
        horizon=6, epsilon=0.1, v_bar=1200.0, eradication_threshold=1e-6,
        strategy_horizon=25, vaccination_start_day=1, terminal_mode="hard",
        rng_seed=0, n_restarts=3,
    )
    return params, state0, cfg


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--full", action="store_true",
                        help="use the six-group bundled scenario")
    args = parser.parse_args()

    if args.full:
        config = get_preset("wallonia-2020")
        params, state0, cfg = config.params, config.state0, config.mpc
    else:
        params, state0, cfg = desk_instance()

    # One planning problem, dissected
    problem = vaxmpc.build_ocp(state0, cfg, params)
    solution = vaxmpc.solve_ocp(problem)
    print(f"Day-one plan over {cfg.horizon} days "
          f"({problem.n_decision_vars} decision variables):")
    print(solution.controls.round(1))
    print(f"predicted future deaths (optimal value): {solution.optimal_value:.4f}")
    print(f"terminal set reached: {solution.feasible} "
          f"(slack {solution.terminal_slack:.2e})\n")

    # The closed loop applies only each day's first planned dose vector
    run = vaxmpc.run_policy_loop(state0, cfg, params, "mpc")
    metrics = vaxmpc.compute_metrics(run)
    eradicated = (
        f"eradicated on day {metrics.eradication_day}"
        if metrics.eradication_day
        else "not eradicated within the window"
    )
    print(f"Closed loop: deaths {metrics.deaths_total:.2f}, {eradicated}, "
          f"{metrics.vaccines_used:.0f} doses used")

    # The certificate behind the policy: remaining deaths never exceed the
    # optimal value recorded the day the plan was made
    audit = vaxmpc.audit_death_bound(run)
    print(f"Death-toll bound audit: {audit.n_samples} audited days, "
          f"{audit.n_violations} violations, worst margin {audit.worst_margin:.2e}")

    write_run(run, OUT / ("full" if args.full else "desk"))
    print(f"wrote {OUT}")

    if args.full:
        national = vaxmpc.run_policy_loop(state0, cfg, params, "national")
        report = vaxmpc.compare([national, run])
        print("\n" + report.to_text())


if __name__ == "__main__":
    main()
