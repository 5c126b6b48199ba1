"""Walk through the epidemic model and the two baseline policies.

Simulates the bundled six-group scenario three ways: letting the outbreak
run, vaccinating oldest-first, and doing both with the full 140-day window.
Writes each run's trajectory/metrics files next to this script and prints a
side-by-side comparison.
"""

from pathlib import Path

import vaxmpc
from vaxmpc.scenario import get_preset, write_run

OUT = Path(__file__).resolve().parent / "output" / "baselines"


def main():
    config = get_preset("wallonia-2020")
    params, state0 = config.params, config.state0

    print("Six age groups, populations:", params.population.astype(int))
    print("Initial infected:", state0.i.round(2), "\n")

    # A first look at the uncontrolled outbreak: one rollout, no policy.
    free = vaxmpc.rollout(state0, [[0.0] * 6] * 140, params)
    peak_day = int(free.i.sum(axis=1).argmax()) + 1
    print(f"Uncontrolled: infections peak on day {peak_day} "
          f"at {free.i.sum(axis=1).max():.0f} infected; "
          f"{free.d[-1].sum():.0f} dead by day 141.\n")

    runs = {}
    for policy in ("none", "national"):
        runs[policy] = vaxmpc.run_policy_loop(state0, config.mpc, params, policy)
        write_run(runs[policy], OUT / policy, fingerprint=config.fingerprint())
        print(f"{policy:>8}: wrote {OUT / policy}")

    report = vaxmpc.compare([runs["none"], runs["national"]])
    print("\n" + report.to_text())
    print("\nVaccinating oldest-first cuts deaths sharply, but watch the")
    print("eradication day: capacity spent on small old groups leaves the")
    print("transmission core untouched for weeks.")


if __name__ == "__main__":
    main()
