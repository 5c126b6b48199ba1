"""Numerically verify the stability machinery on the bundled scenario.

The controller's guarantees hinge on three checkable facts: the terminal
region is invariant under any admissible vaccination, the weighted death
count contracts inside it, and it grows by at most a computable factor per
day anywhere.  Each check samples seeded random states/controls and reports
violations (expected: none).
"""

import numpy as np

import vaxmpc
from vaxmpc.scenario import get_preset


def main():
    config = get_preset("wallonia-2020")
    params = config.params
    epsilon = config.mpc.epsilon

    upper = float(np.min(params.removal))
    print(f"decay margin epsilon={epsilon}, valid range (0, {upper:.10f}): "
          f"{vaxmpc.epsilon_valid(epsilon, params)}")

    cert = vaxmpc.CertificateParams.from_model(params, epsilon)
    print(f"terminal-set thresholds: {cert.gamma_vec}")
    print(f"daily growth factor eta: {cert.eta:.4f}\n")

    # one draw of states in the terminal region serves both checks on it
    sample = vaxmpc.draw_terminal_sample(cert, params, 10_000, 0,
                                         v_bar=config.mpc.v_bar)
    for report in (
        vaxmpc.check_invariance(cert, params, sample),
        vaxmpc.check_lyapunov_decrease(cert, params, sample),
        vaxmpc.check_eta_bound(params, rollouts=100, days=140, rng_seed=0,
                               v_bar=config.mpc.v_bar),
    ):
        print(report.to_json())

    print("\nzero violations means every sampled state behaved as proven:")
    print("once vaccination pushes susceptibles into the terminal region,")
    print("daily deaths shrink geometrically no matter how doses are spent.")


if __name__ == "__main__":
    main()
