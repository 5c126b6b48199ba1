"""Scenario configuration, contact-matrix loading, metrics and reporting.

Configs are JSON.  A config either spells out every field or names a preset
and overrides selected fields::

    {"preset": "wallonia-2020", "policy": "national",
     "mpc": {"rng_seed": 7}}

The ``wallonia-2020`` preset carries the six-group Walloon population,
calibrated rates and initial infections, a daily capacity of 55191 doses,
horizon 40, epsilon 0.1, vaccination start day 61 and a 140-day simulation.
Its contact matrix is the bundled synthetic 6x6 test matrix
(``builtin:synthetic-6x6``): raw per-person daily contact rates, reciprocal
in total contact events, diagonally dominant, and scaled so the worst-case
one-day infection pressure stays below one.  It is a stand-in constructed
for reproducible tests, not survey data.

Outputs per run: ``trajectory.csv`` (day, group, S, I, R, D, applied_u),
``metrics.json`` (with the run's scenario fingerprint) and, for predictive
runs, ``diagnostics.jsonl`` with one record per day.  All writers are
deterministic byte for byte.  Each distinct day row of ``trajectory.csv`` is
formatted once and reused from a bounded cache, so a sweep prints the days
its runs share before vaccination starts once, with unchanged bytes.
"""

from __future__ import annotations

import functools
import importlib.resources
import json
import warnings
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import mpc as mpc_mod
from .certificates import validate_epsilon
from .errors import ContractViolation, ValidationError
from .model import EpidemicState, ModelParams, initial_state, new_infections
from .results import DayRecord, ScenarioResult, scenario_fingerprint
from .strategies import POLICIES

BUILTIN_MATRIX = "builtin:synthetic-6x6"

#: Table of per-group simulation parameters for the Walloon first wave:
#: populations, transmission probabilities, recovery/death rates and the
#: initial infected seeding, groups ordered youngest to oldest: ages 0-24,
#: 25-44, 45-64, 65-74, 75-84 and 85+.
WALLONIA_2020 = {
    "name": "wallonia-2020",
    "model": {
        "lambda": [
            0.0769924521,
            0.0290873349,
            0.0136872530,
            0.1149749309,
            0.2326289564,
            0.3331837058,
        ],
        "gamma_r": [
            0.9216927886,
            0.7230105996,
            0.5707245171,
            0.8482912034,
            0.8200428486,
            0.6612236351,
        ],
        "gamma_d": [
            0.0004407167,
            0.0018303543,
            0.0232746601,
            0.0397484004,
            0.1006921381,
            0.1514435560,
        ],
        "population": [1058304, 915796, 983789, 384803, 203035, 99516],
    },
    "i0": [
        4.6595088243,
        4.3296088874,
        4.8417769521,
        0.1709101349,
        1.4936938584,
        1.6144863665,
    ],
    "contact_matrix_path": BUILTIN_MATRIX,
    "contact_matrix_is_raw": True,
    "policy": "mpc",
    "mpc": {
        "horizon": 40,
        "epsilon": 0.1,
        "v_bar": 55191.0,
        "eradication_threshold": 1.0,
        "strategy_horizon": 140,
        "vaccination_start_day": 61,
    },
}

PRESETS = {"wallonia-2020": WALLONIA_2020}

#: The keys a config may hold: each top-level key maps to the table of its
#: object's keys, or to None where its value is not an object of keys.
CONFIG_KEYS = {
    "name": None,
    "model": dict.fromkeys(("lambda", "gamma_r", "gamma_d", "population")),
    "i0": None,
    "contact_matrix_path": None,
    "contact_matrix_is_raw": None,
    "policy": None,
    "mpc": dict.fromkeys(f.name for f in fields(mpc_mod.MpcConfig)),
}


@dataclass(frozen=True)
class ScenarioConfig:
    """A built scenario: its model and first state, each checked as it was
    built, the policy and the controller.  The config format is known only
    to :data:`CONFIG_KEYS` and :func:`config_from_dict`."""

    params: ModelParams
    state0: EpidemicState
    policy: str
    mpc: mpc_mod.MpcConfig

    @property
    def population(self) -> np.ndarray:
        """``params.population``.  The property stays because
        ``perfbench/workloads.py`` reads it; dropping it would change the
        benchmark."""
        return self.params.population

    def build_params(self) -> ModelParams:
        """``params``, built when the config was loaded.  The method stays
        because ``perfbench/run.py`` calls it; dropping it would change the
        benchmark."""
        return self.params

    def fingerprint(self) -> str:
        """The :func:`scenario_fingerprint` its runs carry."""
        return scenario_fingerprint(self.params, self.state0, self.mpc)


def _require(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise ValidationError(f"{path}: {message}")


def _vector(raw, n: int | None, path: str) -> tuple:
    _require(isinstance(raw, (list, tuple)), path, "expected a list of numbers")
    finite = all(mpc_mod.is_finite_number(x) for x in raw)
    _require(finite, path, "entries must be finite numbers")
    if n is not None:
        _require(len(raw) == n, path, f"expected {n} entries, got {len(raw)}")
    return tuple(float(x) for x in raw)


def overlay(base, patch):
    """``patch`` laid over ``base``, the one merge of config values: where
    both are objects they merge key by key, and any other value replaces.
    Neither argument is modified."""
    if isinstance(base, dict) and isinstance(patch, dict):
        return {**base, **{key: overlay(base.get(key), value) for key, value in patch.items()}}
    return patch


def _check_keys(data: dict, table: dict, prefix: str = "") -> None:
    """Reject a key outside ``table``, at every level an object sits."""
    for key, value in data.items():
        _require(key in table, f"{prefix}{key}", "unknown configuration field")
        if table[key] is not None and isinstance(value, dict):
            _check_keys(value, table[key], f"{prefix}{key}.")


def config_from_dict(data: dict, base_dir: str | Path | None = None) -> ScenarioConfig:
    """Validate a parsed config dict (with optional preset) and build its
    scenario: the contact matrix is read (a relative path resolves against
    ``base_dir``), and the model and first state check themselves as they
    are built."""
    if not isinstance(data, dict):
        raise ValidationError("config root must be a JSON object")
    preset_name = data.get("preset")
    known = preset_name is None or isinstance(preset_name, str) and preset_name in PRESETS
    _require(known, "preset", f"unknown preset {preset_name!r}")
    overrides = {key: value for key, value in data.items() if key != "preset"}
    merged = overlay(PRESETS.get(preset_name, {}), overrides)
    _check_keys(merged, CONFIG_KEYS)

    _require("model" in merged, "model", "missing model section")
    model = merged["model"]
    _require(isinstance(model, dict), "model", "expected an object of model fields")
    for fld in CONFIG_KEYS["model"]:
        _require(fld in model, f"model.{fld}", "missing required field")
    lam = _vector(model["lambda"], None, "model.lambda")
    n = len(lam)
    _require(n > 0, "model.lambda", "needs at least one age group")
    gamma_r = _vector(model["gamma_r"], n, "model.gamma_r")
    gamma_d = _vector(model["gamma_d"], n, "model.gamma_d")
    population = _vector(model["population"], n, "model.population")
    i0 = _vector(merged.get("i0", [0.0] * n), n, "i0")

    matrix_path = merged.get("contact_matrix_path")
    _require(
        isinstance(matrix_path, str) and matrix_path,
        "contact_matrix_path",
        "missing contact matrix path",
    )
    is_raw = merged.get("contact_matrix_is_raw", False)
    _require(isinstance(is_raw, bool), "contact_matrix_is_raw", "must be true or false")
    policy = merged.get("policy", "none")
    _require(
        policy in POLICIES,
        "policy",
        f"must be one of {'|'.join(POLICIES)}, got {policy!r}",
    )

    mpc_raw = merged.get("mpc", {})
    _require(isinstance(mpc_raw, dict), "mpc", "expected an object of controller settings")
    try:  # every key is a field: checked above; its messages start with the field name
        mpc_cfg = mpc_mod.MpcConfig(**mpc_raw)
    except ValidationError as exc:
        raise ValidationError(f"mpc.{exc}") from exc
    _require(isinstance(merged.get("name", ""), str), "name", "expected a string")

    contact = load_contact_matrix(matrix_path, is_raw, np.asarray(population), base_dir)
    params = ModelParams(lam, gamma_r, gamma_d, population, contact)
    state0 = initial_state(params, i0)
    try:
        validate_epsilon(mpc_cfg.epsilon, params.removal)
    except ValidationError as exc:
        raise ValidationError(f"mpc.{exc}") from exc
    return ScenarioConfig(params, state0, policy, mpc_cfg)


def load_config(path: str | Path) -> ScenarioConfig:
    """Read, validate and build a JSON scenario config from disk."""
    path = Path(path)
    return config_from_dict(read_json(path), base_dir=path.parent)


def read_json(path: Path):
    """A file's JSON value; a file that is not UTF-8 JSON is a ValidationError."""
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except ValueError as exc:  # a UnicodeDecodeError or a JSONDecodeError
        raise ValidationError(f"{path}: invalid JSON ({exc})") from exc


def get_preset(name: str) -> ScenarioConfig:
    """Resolve a named preset into a full config."""
    return config_from_dict({"preset": name})


def load_contact_matrix(
    path: str,
    raw: bool,
    population: np.ndarray,
    base_dir: str | Path | None = None,
) -> np.ndarray:
    """Load an n_a x n_a contact matrix from CSV; normalize if raw.

    A raw matrix holds per-person daily contact rates; dividing column j by
    the population of group j converts it to the per-capita form the
    dynamics expect.  ``builtin:`` paths resolve to matrices bundled with
    the package.
    """
    n = population.shape[0]
    if path == BUILTIN_MATRIX:
        source = importlib.resources.files("vaxmpc") / "data" / "synthetic_contacts_6x6.csv"
    elif path.startswith("builtin:"):
        raise ValidationError(f"unknown builtin contact matrix {path!r}")
    else:
        source = Path(path)
        if base_dir is not None and not source.is_absolute():
            source = Path(base_dir) / source
        if not source.exists():
            raise FileNotFoundError(f"contact matrix file not found: {source}")
    try:
        with source.open(encoding="utf-8") as handle, warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # no rows fails the shape check
            matrix = np.loadtxt(handle, delimiter=",", comments="#", ndmin=2)
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{source}: not UTF-8 text ({exc})") from exc
    except ValueError as exc:  # a non-numeric cell or a row of another length
        raise ValidationError(f"{source}: non-numeric or ragged CSV ({exc})") from exc
    if matrix.shape != (n, n):
        raise ValidationError(
            f"contact matrix {path}: expected shape ({n}, {n}), got {matrix.shape}"
        )
    if not np.all(np.isfinite(matrix)) or np.any(matrix < 0):
        raise ValidationError(
            f"contact matrix {path}: entries must be finite and nonnegative"
        )
    if raw:
        if np.any(population <= 0):
            raise ValidationError("populations must be positive to normalize")
        matrix = matrix / population[None, :]
    return matrix


@dataclass(frozen=True)
class ScenarioMetrics:
    """Summary numbers for one finished run (one-based day convention);
    each field's type is checked when it is built."""

    policy: str
    deaths_total: float
    deaths_since_vax: float
    cumulative_incidence: float
    eradication_day: int | None
    vaccines_used: float

    def __post_init__(self):
        mpc_mod.check_field_types(self)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class MetricsPayload:
    """The ``metrics.json`` object of one run: the one schema that
    :func:`write_run` writes and both comparisons read.  Each field's type
    is checked when it is built, and ``policy`` and ``latch_day`` must
    equal ``metrics.policy`` and ``metrics.eradication_day``.  Every run
    carries a ``fingerprint``, so a file without one is refused on load."""

    policy: str
    metrics: ScenarioMetrics
    vaccination_start_day: int
    strategy_horizon: int
    latch_day: int | None
    fingerprint: str

    def __post_init__(self):
        mpc_mod.check_field_types(self)
        policy, day = self.metrics.policy, self.metrics.eradication_day
        if self.policy != policy:
            raise ValidationError(f"policy {self.policy!r} differs from metrics.policy {policy!r}")
        if self.latch_day != day:
            raise ValidationError(
                f"latch_day {self.latch_day!r} differs from metrics.eradication_day {day!r}"
            )


def compute_metrics(run: ScenarioResult) -> ScenarioMetrics:
    """Summary metrics at the end of the strategy horizon.

    Deaths are read off day ``N_v`` (the horizon's last decision day) and
    split at the vaccination start day, or at the run's first day if it
    starts later; cumulative incidence counts every new infection over the
    run plus the initial seeding.  The eradication day is read from the
    latch: ``run.latch_day``, the first vaccination-era day with every
    group's infected count at or below the threshold.
    """
    traj = run.trajectory
    n_days = traj.n_steps
    deaths_total = float(traj.d[n_days - 1].sum())
    start_idx = traj.row(run.cfg.vaccination_start_day)
    deaths_at_start = float(traj.d[min(max(start_idx, 0), n_days)].sum())
    new_inf = new_infections(traj.s[:n_days], traj.i[:n_days], run.params)
    cumulative = float(new_inf.sum()) + float(traj.i[0].sum())
    return ScenarioMetrics(
        policy=run.policy,
        deaths_total=deaths_total,
        deaths_since_vax=deaths_total - deaths_at_start,
        cumulative_incidence=cumulative,
        eradication_day=run.latch_day,
        vaccines_used=float(traj.applied_u.sum()),
    )


def _metrics_payload(run: ScenarioResult) -> MetricsPayload:
    """The run's ``metrics.json`` object, as :func:`write_run` writes it."""
    return MetricsPayload(run.policy, compute_metrics(run), run.cfg.vaccination_start_day,
                          run.n_days, run.latch_day, run.fingerprint)


_COMPARE_FIELDS = (
    "deaths_since_vax",
    "cumulative_incidence",
    "eradication_day",
    "vaccines_used",
)


@dataclass(frozen=True)
class ComparisonReport:
    """Side-by-side metrics with improvements relative to the first run.

    Improvements are (baseline - other) / baseline per metric; eradication
    is measured in days since the vaccination start so percentages match the
    days-to-eradicate reading.
    """

    start_day: int
    metrics: list[ScenarioMetrics]
    improvements: list[dict]

    def to_dict(self) -> dict:
        return {
            "start_day": self.start_day,
            "runs": [m.to_dict() for m in self.metrics],
            "improvements": self.improvements,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def to_text(self) -> str:
        table = [["policy", *_COMPARE_FIELDS]]
        for m in self.metrics:
            table.append([m.policy] + [
                _fmt_metric(getattr(m, f), f, self.start_day) for f in _COMPARE_FIELDS
            ])
        for imp in self.improvements:
            table.append([f"improvement vs {imp['baseline']}"] + [
                _fmt_pct(imp[f]) for f in _COMPARE_FIELDS
            ])
        widths = [max(map(len, column)) for column in zip(*table)]
        return "\n".join("  ".join(c.rjust(w) for c, w in zip(row, widths)) for row in table)


def _fmt_metric(value, fld: str, start_day: int) -> str:
    if value is None:
        return "n/a"
    if fld == "eradication_day":
        return f"{value} (+{value - start_day}d)"
    return f"{value:.4f}"


def _fmt_pct(value) -> str:
    return "n/a" if value is None else f"{100.0 * value:.1f}%"


def _improvement(base, other, origin=0):
    """(base - other) / base, each read from ``origin``."""
    if base is None or other is None:
        return None
    base, other = base - origin, other - origin
    if base == 0:
        return 0.0 if other == 0 else None
    return (base - other) / base


def _same_scenario(fingerprints: list[str]) -> None:
    """The one scenario-identity rule: runs are comparable only when their
    fingerprints are all equal.  Equal fingerprints mean the same model,
    start state, budget, start day, horizon and eradication threshold (see
    :func:`scenario_fingerprint`)."""
    if len(set(fingerprints)) > 1:
        listed = ", ".join(fingerprints)
        raise ContractViolation(
            f"runs use different scenario inputs: each needs the same fingerprint, got {listed}"
        )


def compare(runs: list[ScenarioResult]) -> ComparisonReport:
    """Build a comparison of runs that share one scenario fingerprint; the
    same path as :func:`compare_run_dirs`, from the payloads the runs'
    ``metrics.json`` files would hold."""
    return _compare([_metrics_payload(run) for run in runs])


def _compare(payloads: list[MetricsPayload]) -> ComparisonReport:
    if not payloads:
        raise ContractViolation("compare needs at least one run")
    _same_scenario([p.fingerprint for p in payloads])
    start_day = payloads[0].vaccination_start_day
    metrics = [p.metrics for p in payloads]
    baseline = metrics[0]
    improvements = []
    for other in metrics[1:]:
        entry = {"baseline": baseline.policy, "policy": other.policy}
        for fld in _COMPARE_FIELDS:
            origin = start_day if fld == "eradication_day" else 0
            entry[fld] = _improvement(getattr(baseline, fld), getattr(other, fld), origin)
        improvements.append(entry)
    return ComparisonReport(start_day, metrics, improvements)


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    """Simulate the closed loop of a config's own policy from its built model
    and first state.  Another policy is another config: lay
    ``{"policy": ...}`` over the config's JSON with :func:`overlay`."""
    return mpc_mod.run_policy_loop(config.state0, config.mpc, config.params, config.policy)


def run_scenarios(configs: list[ScenarioConfig]) -> list[ScenarioResult]:
    """The closed loops of several configs, simulated in lockstep; each
    result is bitwise the one :func:`run_scenario` gives."""
    names = ("state0", "mpc", "params", "policy")
    return mpc_mod.run_policy_loop(*([getattr(c, name) for c in configs] for name in names))


#: How many formatted day rows of ``trajectory.csv`` are kept.  The runs of
#: one sweep share their days before vaccination starts, and a run's rows
#: stay among the most recent until the next run reads them; a sweep has
#: thousands of distinct rows, far more than are kept.
ROW_CACHE_SIZE = 256


def _lines(day: int, n: int, cells: str, values: list) -> str:
    """One day's ``trajectory.csv`` lines, one a group; each cell is the
    repr() of a float64."""
    return "\n".join(f"{day},{g},{cells}" for g in range(n)) % tuple(values)


@functools.lru_cache(maxsize=ROW_CACHE_SIZE)
def _day_lines(day: int, n: int, row: bytes) -> str:
    """The lines of a day that doses leave, from the bytes of its 5n float64
    cells.  The key is the bytes, not the floats: -0.0 == 0.0, but the two
    print differently."""
    return _lines(day, n, "%r,%r,%r,%r,%r", np.frombuffer(row).tolist())


def write_run(
    run: ScenarioResult,
    out_dir: str | Path,
    fingerprint: str | None = None,
) -> ScenarioMetrics:
    """Write trajectory.csv, metrics.json and (for MPC) diagnostics.jsonl.

    ``metrics.json`` always carries ``run.fingerprint``.  A ``fingerprint``
    passed in must equal it, by the rule the comparisons apply.  The
    keyword stays because ``perfbench/workloads.py`` passes it; dropping it
    would change the benchmark.
    """
    payload = _metrics_payload(run)
    if fingerprint is not None:
        _same_scenario([fingerprint, payload.fingerprint])
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    traj, n, n_days = run.trajectory, run.params.n_a, run.n_days
    first_day = traj.start_time_step + 1
    # (days + 1, n_a, 4) compartments; each day that doses leave gets a fifth column
    states = np.stack([traj.s, traj.i, traj.r, traj.d], axis=-1, dtype=float)
    doses = np.concatenate([states[:-1], traj.applied_u[..., None]], axis=-1)
    lines = ["day,group,S,I,R,D,applied_u"]
    lines += [_day_lines(first_day + t, n, row.tobytes())
              for t, row in enumerate(doses.reshape(n_days, 5 * n))]
    lines.append(_lines(first_day + n_days, n, "%r,%r,%r,%r,", states[-1].ravel().tolist()))
    (out / "trajectory.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (out / "metrics.json").write_text(
        json.dumps(asdict(payload), sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )

    diagnostics = out / "diagnostics.jsonl"
    if run.policy == "mpc":  # every predictive run, solved or not: one line a day
        solved = {rec.day: rec for rec in run.day_records}
        records = []
        for day, u in enumerate(traj.applied_u, first_day):
            rec = solved.get(day) or DayRecord(day)  # null fields on a day without a solve
            records.append(json.dumps(rec.to_dict(u), sort_keys=True))
        diagnostics.write_text("\n".join(records) + "\n", encoding="utf-8")
    else:  # a predictive run written here before must not leave its records
        diagnostics.unlink(missing_ok=True)
    return payload.metrics


def load_metrics(run_dir: str | Path) -> MetricsPayload:
    """Read back a run directory's metrics.json; a malformed one is a
    ValidationError that names the file."""
    path = Path(run_dir) / "metrics.json"
    raw = read_json(path)
    metrics = raw.get("metrics") if isinstance(raw, dict) else None
    _require(isinstance(metrics, dict), str(path), "expected an object with a metrics object")
    try:
        return MetricsPayload(**{**raw, "metrics": ScenarioMetrics(**metrics)})
    except (TypeError, ValidationError) as exc:  # a missing or unknown key, or a mistyped value
        raise ValidationError(f"{path}: {exc}") from exc


def compare_run_dirs(run_dirs: list[str | Path]) -> ComparisonReport:
    """Comparison report from saved run directories, by the same path and
    scenario-identity rule as :func:`compare`."""
    return _compare([load_metrics(d) for d in run_dirs])
