"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
as they appear; the slow piece is the three full-scale closed-loop runs
behind criteria 7 and 8 (about a minute total).
"""

import json
import time

import numpy as np
import pytest

import vaxmpc
from vaxmpc import cli
from vaxmpc.certificates import validate_epsilon
from vaxmpc.mpc import build_ocp, solve_ocp

from conftest import random_desk_instance
from test_mpc import grid_search, penalized_value

PRESET_MIN_REMOVAL = 0.5939991772


def verdict(number, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status}{' - ' + detail if detail else ''}")
    assert passed, f"criterion {number} ({name}) failed {detail}"


def test_criterion_1_conservation_suite():
    def random_params(rng, n_a):
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

    rng = np.random.default_rng(2024)
    started = time.time()
    worst = 0.0
    for _ in range(10_000):
        n = int(rng.integers(1, 7))
        params = random_params(rng, n)
        s = rng.uniform(0, 1, n) * params.population
        i = rng.uniform(0, 1, n) * (params.population - s)
        r = rng.uniform(0, 1, n) * (params.population - s - i)
        d = params.population - s - i - r
        state = vaxmpc.EpidemicState(s=s, i=i, r=r, d=d)
        u = rng.uniform(0, 1, n) * params.population * 0.3
        nxt = vaxmpc.step(state, u, params)
        drift = np.max(
            np.abs(nxt.total_by_group() - state.total_by_group())
            / params.population
        )
        worst = max(worst, float(drift))
    elapsed = time.time() - started
    verdict(
        1,
        "conservation suite",
        worst <= 1e-12 and elapsed < 5.0,
        f"worst drift {worst:.2e}, {elapsed:.1f}s",
    )


@pytest.fixture(scope="module")
def preset_reports(preset_config):
    """The certificate suite on the preset at 10 000 samples, seed 0, by
    report name: the evidence of criteria 2-4."""
    reports = vaxmpc.certify(preset_config.params, preset_config.mpc, 10_000, 0)
    return {report.name: report for report in reports}


def test_criterion_2_terminal_set_invariance(preset_params, preset_reports):
    upper = float(np.min(preset_params.gamma_r + preset_params.gamma_d))
    assert upper == pytest.approx(PRESET_MIN_REMOVAL, abs=1e-10)
    validate_epsilon(0.1, preset_params.removal)
    report = preset_reports["terminal_set_invariance"]
    verdict(
        2,
        "terminal-set invariance",
        report.n_violations == 0 and report.n_samples == 10_000,
        f"{report.n_violations} violations, worst margin {report.worst_margin:.2e}",
    )


def test_criterion_3_lyapunov_suite(preset_reports):
    report = preset_reports["lyapunov_decrease"]
    verdict(
        3,
        "Lyapunov decrease suite",
        report.n_violations == 0 and report.n_samples == 10_000,
        f"{report.n_violations} violations, worst margin {report.worst_margin:.2e}",
    )


def test_criterion_4_growth_bound(preset_params, preset_reports):
    report = preset_reports["growth_factor_bound"]
    verdict(
        4,
        "growth-factor bound",
        report.n_violations == 0 and report.n_samples == 100 * 140,
        f"eta={vaxmpc.compute_eta(preset_params):.3f}, "
        f"{report.n_violations} violations",
    )


def test_criterion_5_solver_matches_grid_oracle():
    started = time.time()
    worst_rel = -np.inf
    failures = []
    for seed in range(20):
        params, state0, cfg = random_desk_instance(seed)
        problem = build_ocp(state0, cfg, params)
        solution = solve_ocp(problem)
        oracle, _ = grid_search(problem, levels=11)
        rel = (penalized_value(problem, solution) - oracle) / oracle
        worst_rel = max(worst_rel, rel)
        if rel > 1e-3:
            failures.append(seed)
    elapsed = time.time() - started
    verdict(
        5,
        "solver-oracle equivalence",
        not failures and elapsed < 120.0,
        f"worst rel gap {worst_rel:+.2e}, {elapsed:.1f}s, failing seeds {failures}",
    )


def test_criterion_6_death_bound_audit(desk_params, desk_state0, desk_cfg):
    run = vaxmpc.run_policy_loop(desk_state0, desk_cfg, desk_params)
    solved = [rec for rec in run.day_records if rec.v_n0 is not None]
    all_feasible = bool(solved) and all(rec.feasible for rec in solved)
    audit = vaxmpc.audit_death_bound(run)
    verdict(
        6,
        "death-toll bound audit",
        all_feasible
        and audit.n_bound_violations == 0
        and audit.n_descent_violations == 0,
        f"{len(solved)} feasible solves, worst margin {audit.worst_margin:.2e}",
    )


def test_criterion_7_qualitative_ordering(preset_runs):
    runs, elapsed = preset_runs
    metrics = {name: vaxmpc.compute_metrics(run) for name, run in runs.items()}
    ordering = (
        metrics["mpc"].deaths_since_vax <= metrics["national"].deaths_since_vax
        and metrics["national"].deaths_since_vax <= metrics["none"].deaths_since_vax
        and metrics["mpc"].deaths_total <= metrics["national"].deaths_total
        and metrics["national"].deaths_total <= metrics["none"].deaths_total
    )
    eradication = (
        metrics["mpc"].eradication_day is not None
        and metrics["national"].eradication_day is not None
        and metrics["mpc"].eradication_day <= metrics["national"].eradication_day
    )
    vaccines = metrics["mpc"].vaccines_used <= metrics["national"].vaccines_used
    verdict(
        7,
        "qualitative ordering",
        ordering and eradication and vaccines and elapsed < 600.0,
        "deaths {:.0f}<={:.0f}<={:.0f}, eradication {}<={}, doses {:.0f}<={:.0f}, {:.0f}s".format(
            metrics["mpc"].deaths_since_vax,
            metrics["national"].deaths_since_vax,
            metrics["none"].deaths_since_vax,
            metrics["mpc"].eradication_day,
            metrics["national"].eradication_day,
            metrics["mpc"].vaccines_used,
            metrics["national"].vaccines_used,
            elapsed,
        ),
    )


def test_criterion_8_national_mechanics(preset_runs):
    runs, _ = preset_runs
    national = runs["national"]
    controls = national.controls
    start_t = national.cfg.vaccination_start_day - 1
    first = controls[start_t]
    day_one_ok = first[5] == 55191.0 and not first[:5].any()
    structure_ok = True
    s = national.trajectory.s
    for t in range(start_t, national.n_days):
        u = controls[t]
        funded = np.flatnonzero(u > 0)
        if funded.size == 0:
            continue
        youngest = funded.min()
        # whenever a younger group is funded, every older one is saturated:
        # its dose equals all of that day's susceptibles
        if not np.allclose(u[youngest + 1 :], s[t][youngest + 1 :], rtol=1e-12):
            structure_ok = False
            break
    split_days = [
        t
        for t in range(start_t, national.n_days)
        if np.count_nonzero(controls[t]) > 1
    ]
    spillover_ok = bool(split_days) and all(
        controls[t].sum() == pytest.approx(55191.0, rel=1e-12) for t in split_days
    )
    verdict(
        8,
        "decreasing-age mechanics",
        day_one_ok and structure_ok and spillover_ok,
        f"day-one dose {first[5]:.0f} to oldest, {len(split_days)} split days",
    )


def test_criterion_9_determinism(tmp_path):
    pop = [8000.0, 2000.0]
    raw = [[8.0, 0.5], [2.0, 3.0]]
    (tmp_path / "contacts.csv").write_text(
        "\n".join(",".join(repr(float(v)) for v in row) for row in raw) + "\n"
    )
    config = {
        "name": "desk",
        "model": {
            "lambda": [0.05, 0.08],
            "gamma_r": [0.30, 0.25],
            "gamma_d": [0.02, 0.12],
            "population": pop,
        },
        "i0": [20.0, 5.0],
        "contact_matrix_path": "contacts.csv",
        "contact_matrix_is_raw": True,
        "policy": "mpc",
        "mpc": {
            "horizon": 5,
            "epsilon": 0.1,
            "v_bar": 1200.0,
            "eradication_threshold": 1e-6,
            "strategy_horizon": 12,
            "vaccination_start_day": 1,
            "rng_seed": 7,
            "n_restarts": 2,
        },
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))

    identical = True
    details = []
    for command, files in [
        (["simulate", "--config", str(config_path), "--out", None],
         ["trajectory.csv", "metrics.json", "diagnostics.jsonl"]),
        (["certify", "--config", str(config_path), "--samples", "200",
          "--seed", "3", "--out", None],
         []),
    ]:
        outputs = []
        for attempt in ("a", "b"):
            target = tmp_path / f"{command[0]}_{attempt}"
            argv = ["--quiet"] + [
                str(target) if part is None else part for part in command
            ]
            assert cli.main(argv) == 0
            if command[0] == "simulate":
                outputs.append(
                    tuple((target / name).read_bytes() for name in files)
                )
            else:
                outputs.append(target.read_bytes())
        same = outputs[0] == outputs[1]
        identical = identical and same
        details.append(f"{command[0]}:{'ok' if same else 'DIFFERS'}")
    # compare consumes the simulate outputs; byte-compare its report too
    for attempt in ("a", "b"):
        assert (
            cli.main(
                [
                    "--quiet",
                    "compare",
                    "--runs",
                    str(tmp_path / "simulate_a"),
                    "--out",
                    str(tmp_path / f"report_{attempt}.json"),
                ]
            )
            == 0
        )
    same = (tmp_path / "report_a.json").read_bytes() == (
        tmp_path / "report_b.json"
    ).read_bytes()
    identical = identical and same
    details.append(f"compare:{'ok' if same else 'DIFFERS'}")
    verdict(9, "bitwise determinism", identical, " ".join(details))
