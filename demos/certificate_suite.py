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

    # building the terminal set rejects an epsilon outside its valid range
    cert = vaxmpc.CertificateParams.from_model(params, config.mpc.epsilon)
    upper = float(np.min(params.removal))
    print(f"decay margin epsilon={cert.epsilon}, valid range (0, {upper:.10f})")
    print(f"terminal-set thresholds: {cert.gamma_vec}")
    print(f"daily growth factor eta: {vaxmpc.compute_eta(params):.4f}\n")

    # one draw of states in the terminal region serves both checks on it
    for report in vaxmpc.certify(params, config.mpc, 10_000, 0):
        print(report.to_json())

    print("\nzero violations means every sampled state behaved as proven:")
    print("once vaccination pushes susceptibles into the terminal region,")
    print("daily deaths shrink geometrically no matter how doses are spent.")


if __name__ == "__main__":
    main()
