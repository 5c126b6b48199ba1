"""The benchmark's workloads: inputs made from a seed, one timed operation,
and the checks on its outputs.

Each workload writes the config its operation reads into a work directory,
so the program sees only configs and CLI arguments generated from the seed.
``run`` is the timed operation; ``check`` reads what it produced, untimed,
and turns it into an :class:`Outcome`.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from vaxmpc import certificates, cli, model, scenario

PRESET = "wallonia-2020"

#: Days 1..62 of the preset: the cold day-61 solve and the warm-started
#: day-62 solve.  The full 140-day loop takes ~100 s, too long to repeat.
MPC_WINDOW_DAYS = 62

SWEEP_VALUES = 50
SWEEP_V_BAR_RANGE = (30_000, 80_000)

#: Large enough that the sampler's matmuls use the BLAS thread pool.
CERTIFY_SAMPLES = 20_000


@dataclass(frozen=True)
class Outcome:
    """What one operation did: operations attempted and failed, plus the
    outcome numbers a faster but worse program would change."""

    attempted: int
    failed: int
    v_n0_first: float = 0.0
    deaths: float = 0.0


_REF_MATRIX = np.random.default_rng(0).uniform(0.0, 1.0 / 6.0, size=(6, 6))
_REF_STEPS = 3000
_REF_REPEATS = 5


def reference_times() -> tuple[float, float]:
    """(wall, CPU) seconds of a fixed loop of 6-vector numpy steps, median of 5.

    The machine's speed drifts by up to 2x over tens of seconds on a shared
    host.  This loop has the same shape of work as the program's hot path (a
    small matvec and elementwise clamps per step) but no vaxmpc code, so an
    operation's time divided by the loop's time measured beside it tracks
    the program, not the host.
    """
    walls, cpus = [], []
    for _ in range(_REF_REPEATS):
        t0, c0 = time.perf_counter(), time.process_time()
        x = np.ones(6)
        for _ in range(_REF_STEPS):
            y = _REF_MATRIX @ x
            x = 0.5 * np.minimum(y, x) + 0.5 * np.maximum(y, 1.0)
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
    return statistics.median(walls), statistics.median(cpus)


def _write_config(path: Path, data: dict) -> Path:
    path.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return path


class PresetMpc:
    """The predictive closed loop, as ``vaxmpc simulate --policy mpc`` runs it.

    Operations are solved days.
    """

    name = "preset-mpc"

    def __init__(self, seed: int, workdir: Path):
        self.config_path = _write_config(
            workdir / "preset-mpc.json",
            {
                "preset": PRESET,
                "policy": "mpc",
                "mpc": {"rng_seed": seed, "strategy_horizon": MPC_WINDOW_DAYS},
            },
        )
        self.config = scenario.load_config(self.config_path)
        self.expected = MPC_WINDOW_DAYS - self.config.mpc.vaccination_start_day + 1

    def run(self, out_dir: Path):
        run = scenario.run_scenario(self.config)
        scenario.write_run(run, out_dir, fingerprint=self.config.fingerprint())
        return run

    def check(self, run, out_dir: Path) -> Outcome:
        solved = [rec for rec in run.day_records if rec.v_n0 is not None]
        bad = sum(not math.isfinite(rec.v_n0) for rec in solved)
        audit = certificates.audit_death_bound(run)
        missing = max(0, self.expected - len(solved))
        diagnostics = (out_dir / "diagnostics.jsonl").read_text(encoding="utf-8")
        if len(diagnostics.splitlines()) != MPC_WINDOW_DAYS:
            bad = len(solved)
        attempted = len(solved) + missing
        return Outcome(
            attempted=attempted,
            failed=min(attempted, bad + audit.n_violations + missing),
            v_n0_first=solved[0].v_n0 if solved else 0.0,
            deaths=run.trajectory.total_deaths(run.trajectory.n_steps),
        )


class BaselineSweep:
    """``vaxmpc sweep`` of the national policy over seeded capacities.

    Operations are sweep runs.
    """

    name = "baseline-sweep"

    def __init__(self, seed: int, workdir: Path):
        lo, hi = SWEEP_V_BAR_RANGE
        rng = np.random.default_rng(seed)
        picks = rng.choice(hi - lo + 1, size=SWEEP_VALUES, replace=False) + lo
        self.values = sorted(int(v) for v in picks)
        self.config_path = _write_config(
            workdir / "baseline-sweep.json", {"preset": PRESET, "policy": "national"}
        )
        self.population = np.asarray(
            scenario.load_config(self.config_path).population, dtype=float
        )
        self.expected = SWEEP_VALUES

    def run(self, out_dir: Path) -> int:
        vary = "mpc.v_bar=" + ",".join(str(v) for v in self.values)
        return cli.main(
            ["--quiet", "sweep", "--config", str(self.config_path), "--vary", vary,
             "--out", str(out_dir)]
        )

    def check(self, code: int, out_dir: Path) -> Outcome:
        if code != 0:
            return Outcome(attempted=self.expected, failed=self.expected)
        failed = 0
        deaths = []
        for value in self.values:
            rows = np.loadtxt(
                out_dir / f"mpc.v_bar={value}" / "trajectory.csv",
                delimiter=",", skiprows=1, usecols=(1, 2, 3, 4, 5),
            )
            group = rows[:, 0].astype(int)
            totals = rows[:, 1:].sum(axis=1)
            pop = self.population[group]
            if not np.all(np.abs(totals - pop) <= model.CONSERVATION_RTOL * pop):
                failed += 1
            deaths.append(rows[-len(self.population):, 4].sum())
        return Outcome(
            attempted=self.expected, failed=failed, deaths=float(np.mean(deaths))
        )


class Certify:
    """``vaxmpc certify`` on the preset with the workload seed.

    Operations are sampled checks.
    """

    name = "certify"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.config_path = _write_config(workdir / "certify.json", {"preset": PRESET})
        days = scenario.load_config(self.config_path).mpc.strategy_horizon
        self.expected = 2 * CERTIFY_SAMPLES + (CERTIFY_SAMPLES // 100) * days

    def run(self, out_dir: Path) -> int:
        out_dir.mkdir(parents=True)
        return cli.main(
            ["--quiet", "certify", "--config", str(self.config_path),
             "--samples", str(CERTIFY_SAMPLES), "--seed", str(self.seed),
             "--out", str(out_dir / "report.json")]
        )

    def check(self, code: int, out_dir: Path) -> Outcome:
        report_path = out_dir / "report.json"
        if code not in (0, 3) or not report_path.exists():
            return Outcome(attempted=self.expected, failed=self.expected)
        checks = json.loads(report_path.read_text(encoding="utf-8"))["checks"]
        attempted = sum(c["n_samples"] for c in checks)
        failed = sum(c["n_violations"] for c in checks)
        if code != 0 or len(checks) != 3:
            failed = attempted
        return Outcome(attempted=attempted, failed=failed)


WORKLOADS = {cls.name: cls for cls in (PresetMpc, BaselineSweep, Certify)}
