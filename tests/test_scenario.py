import dataclasses
import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

import vaxmpc
from vaxmpc.errors import ContractViolation, ValidationError
from vaxmpc.model import Trajectory
from vaxmpc.results import ScenarioResult
from vaxmpc.scenario import (
    BUILTIN_MATRIX,
    CONFIG_KEYS,
    compare_run_dirs,
    config_from_dict,
    get_preset,
    load_config,
    load_contact_matrix,
    overlay,
    run_scenario,
    write_run,
)

# Reference total-deceased readings used to pin down the metric arithmetic:
# day 61 (vaccination start) and day 140 (horizon end) for a decreasing-age
# run and a predictive run on the same outbreak.
DEATHS_DAY_61 = 1271.71162129538
DEATHS_DAY_140_NATIONAL = 2183.25718934918
DEATHS_DAY_140_MPC = 2123.11862987758

# sha256 of every file write_run writes for the three preset closed loops.
PRESET_OUTPUT_SHA256 = {
    "none": {
        "trajectory.csv": "1324856caecfe6d006636369bb0a5471339667dd3e9154f95fd2c3e2f5c30e00",
        "metrics.json": "125c8eacf31f02f2f434298ae02221a965805c00209d6f55f4ff3208685c5dda",
    },
    "national": {
        "trajectory.csv": "beeb88ebda60c558498a4a767895cca4c9178483ac6af5fa3828b934be7e5ad8",
        "metrics.json": "c5473fbed9e84fffe7cbf88edc28fe91f8aebc2684e453c99036e055a78e0175",
    },
    "mpc": {
        "trajectory.csv": "0f828d0035767c3d08732f714317c6a0b464b8e82074820c770149d526023881",
        "metrics.json": "2bffdf13feaedabf07847cfb10dfab2285221b35f417795199d094e72af76800",
        "diagnostics.jsonl": "1dd0714149c1654c25efdcbbe6bc324eff68f6b1bcb064860cc3ffccaf0c83f4",
    },
}

README = Path(__file__).resolve().parents[1] / "README.md"


class TestPreset:
    def test_wallonia_preset_values(self):
        cfg = get_preset("wallonia-2020")
        assert cfg.population.tolist() == [1058304, 915796, 983789, 384803, 203035, 99516]
        assert cfg.mpc.v_bar == 55191.0
        assert cfg.mpc.horizon == 40
        assert cfg.mpc.epsilon == 0.1
        assert cfg.mpc.vaccination_start_day == 61
        assert cfg.mpc.strategy_horizon == 140
        assert cfg.mpc.eradication_threshold == 1.0
        assert cfg.contact_matrix_path == BUILTIN_MATRIX

    def test_preset_matrix_satisfies_pressure_premise(self, preset_params):
        pressure = preset_params.lam * (
            preset_params.contact @ preset_params.population
        )
        assert np.all(pressure < 1.0)

    def test_builtin_matrix_reciprocity_and_dominance(self, preset_params):
        pop = preset_params.population
        raw = preset_params.contact * pop[None, :]
        events = raw * pop[:, None]
        assert np.allclose(events, events.T, rtol=1e-12)
        diag = np.diag(raw)
        off = raw.sum(axis=1) - diag
        assert np.all(diag > off)


class TestConfig:
    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="gamma_r"):
            config_from_dict(
                {
                    "model": {
                        "lambda": [0.1, 0.2],
                        "gamma_r": [0.5],
                        "gamma_d": [0.1, 0.1],
                        "population": [100, 100],
                    },
                    "contact_matrix_path": BUILTIN_MATRIX,
                }
            )

    def test_missing_matrix_file_errors(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            config_from_dict(
                {
                    "preset": "wallonia-2020",
                    "contact_matrix_path": "nowhere.csv",
                },
                base_dir=str(tmp_path),
            )

    @pytest.mark.parametrize(
        "patch, error, message",
        [
            ({"model": {"gamma_r": [0.9999] + [0.5] * 5}}, ValidationError,
             r"gamma_r \+ gamma_d must be <= 1"),
            ({"model": {"gamma_r": [-0.1] + [0.5] * 5}}, ValidationError,
             "^gamma_r: negative entries"),
            ({"i0": [2e6] + [1.0] * 5}, ValidationError, "i0 must satisfy"),
            ({"model": {"lambda": [0.9] * 6}}, ValidationError, "infection pressure"),
            ({"contact_matrix_path": "nowhere.csv"}, FileNotFoundError, "nowhere.csv"),
        ],
        ids=["removal-above-one", "negative-recovery", "i0-above-population",
             "pressure-above-one", "missing-csv"],
    )
    def test_model_and_first_state_checked_on_load(self, tmp_path, patch, error, message):
        """Each of these used to load and fail only in whichever caller
        built the model first."""
        with pytest.raises(error, match=message):
            config_from_dict({"preset": "wallonia-2020", **patch}, base_dir=tmp_path)

    def test_unknown_field_rejected(self):
        with pytest.raises(ValidationError, match="polcy"):
            config_from_dict({"preset": "wallonia-2020", "polcy": "mpc"})

    def test_bad_policy_rejected(self):
        with pytest.raises(ValidationError, match="policy"):
            config_from_dict({"preset": "wallonia-2020", "policy": "oldest-first"})

    def test_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps({"preset": "wallonia-2020", "policy": "national"})
        )
        config = load_config(path)
        again = config_from_dict(json.loads(config.to_json()))
        assert again.to_dict() == config.to_dict()
        assert again.fingerprint() == config.fingerprint()

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError, match="invalid JSON"):
            load_config(path)

    def test_preset_overrides_merge(self):
        config = config_from_dict(
            {"preset": "wallonia-2020", "mpc": {"rng_seed": 9}}
        )
        assert config.mpc.rng_seed == 9
        assert config.mpc.horizon == 40  # untouched preset value

    def test_per_group_threshold_rejected(self):
        with pytest.raises(ValidationError, match="mpc.eradication_threshold"):
            config_from_dict(
                {"preset": "wallonia-2020", "mpc": {"eradication_threshold": [1.0, 2.0]}}
            )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("horizon", 2.5),
            ("horizon", True),
            ("strategy_horizon", 62.0),
            ("vaccination_start_day", 61.5),
            ("n_restarts", 1.5),
            ("rng_seed", "x"),
            ("rng_seed", -1),
            ("epsilon", "0.1"),
            ("epsilon", float("nan")),
            ("v_bar", True),
            ("eradication_threshold", float("inf")),
        ],
    )
    def test_mistyped_controller_setting_rejected(self, field, value):
        with pytest.raises(ValidationError, match=f"mpc.{field}"):
            config_from_dict({"preset": "wallonia-2020", "mpc": {field: value}})

    def test_epsilon_checked_against_the_configs_rates(self):
        preset = config_from_dict({"preset": "wallonia-2020"})
        upper = float(np.min(preset.params.removal))
        below = float(np.nextafter(upper, 0.0))
        for epsilon in (0.9, upper, 0.0):
            with pytest.raises(ValidationError, match=f"mpc.epsilon={epsilon} outside"):
                config_from_dict({"preset": "wallonia-2020", "mpc": {"epsilon": epsilon}})
        config = config_from_dict({"preset": "wallonia-2020", "mpc": {"epsilon": below}})
        assert vaxmpc.epsilon_valid(config.mpc.epsilon, config.params)

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_raw_matrix_flag_must_be_boolean(self, value):
        with pytest.raises(ValidationError, match="contact_matrix_is_raw"):
            config_from_dict(
                {"preset": "wallonia-2020", "contact_matrix_is_raw": value}
            )

    @pytest.mark.parametrize(
        "field", ["lambda", "gamma_r", "gamma_d", "population"]
    )
    def test_boolean_model_entry_rejected(self, field):
        values = list(get_preset("wallonia-2020").to_dict()["model"][field])
        values[0] = True
        with pytest.raises(ValidationError, match=f"model.{field}"):
            config_from_dict({"preset": "wallonia-2020", "model": {field: values}})

    def test_boolean_i0_entry_rejected(self):
        with pytest.raises(ValidationError, match="i0"):
            config_from_dict({"preset": "wallonia-2020", "i0": [True] + [1.0] * 5})

    def test_output_dir_is_not_a_field(self):
        with pytest.raises(
            ValidationError, match="output_dir: unknown configuration field"
        ):
            config_from_dict({"preset": "wallonia-2020", "output_dir": "runs"})

    def test_age_groups_is_not_a_field(self):
        with pytest.raises(
            ValidationError, match="age_groups: unknown configuration field"
        ):
            labels = ["0-24", "25-44", "45-64", "65-74", "75-84", "85+"]
            config_from_dict({"preset": "wallonia-2020", "age_groups": labels})

    def test_readme_configs_load_and_schema_lists_every_field(self, tmp_path):
        (tmp_path / "contacts.csv").write_text("8.0,0.5\n2.0,3.0\n")  # the schema's raw 2x2
        blocks = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
        configs = [json.loads(block) for block in blocks]
        for data in configs:
            config_from_dict(data, base_dir=tmp_path)
        (schema,) = [data for data in configs if "model" in data]
        fields = {f.name for f in dataclasses.fields(vaxmpc.MpcConfig)}
        assert set(schema["mpc"]) == fields
        assert set(schema) == set(CONFIG_KEYS)  # the loader's one key table
        for key, table in CONFIG_KEYS.items():
            if table is not None:
                assert set(schema[key]) == set(table), key

    def test_overlay_merges_objects_and_replaces_the_rest(self):
        base = {"a": {"x": 1, "y": [1, 2]}, "b": {"z": 3}, "c": 4}
        patch = {"a": {"y": [5], "w": {"v": 6}}, "b": 7, "d": None}
        assert overlay(base, patch) == {
            "a": {"x": 1, "y": [5], "w": {"v": 6}}, "b": 7, "c": 4, "d": None
        }
        assert base == {"a": {"x": 1, "y": [1, 2]}, "b": {"z": 3}, "c": 4}
        assert patch == {"a": {"y": [5], "w": {"v": 6}}, "b": 7, "d": None}
        assert overlay([1, 2], {"k": 1}) == {"k": 1}
        assert overlay({"k": 1}, [3]) == [3]


class TestContactMatrixLoading:
    def test_raw_normalization_divides_columns(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,1.0\n1.0,1.0\n")
        got = load_contact_matrix(str(path), True, np.array([100.0, 200.0]))
        assert np.allclose(got, np.array([[0.01, 0.005], [0.01, 0.005]]))

    def test_identity_raw_diagonal(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,0.0\n0.0,1.0\n")
        got = load_contact_matrix(str(path), True, np.array([100.0, 200.0]))
        assert np.allclose(got, np.diag([0.01, 0.005]))

    def test_zero_matrix_means_no_transmission(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,0\n0,0\n")
        got = load_contact_matrix(str(path), False, np.array([10.0, 10.0]))
        assert not got.any()

    def test_non_numeric_cell_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,x\n0.0,1.0\n")
        with pytest.raises(ValidationError, match="non-numeric"):
            load_contact_matrix(str(path), False, np.array([10.0, 10.0]))

    def test_wrong_shape_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,2.0,3.0\n4.0,5.0,6.0\n7.0,8.0,9.0\n")
        with pytest.raises(ValidationError, match="shape"):
            load_contact_matrix(str(path), False, np.array([10.0, 10.0]))

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("# header\n\n1.0, 2.0  # inline note\n 3.0,4.0\n#tail\n")
        got = load_contact_matrix(str(path), False, np.array([10.0, 10.0]))
        assert got.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_cells_read_to_the_bits_of_float(self, tmp_path):
        """60,025 decimal strings of every length and exponent range read to
        the same float64 bits as Python's float()."""
        rng = np.random.default_rng(18)

        def digits(count):
            return "".join(map(str, rng.integers(0, 10, count)))

        cells = []
        for k in range(245 * 245):
            kind = k % 4
            if kind == 0:
                cells.append(repr(float(rng.random()) * 10.0 ** int(rng.integers(-30, 31))))
            elif kind == 1:
                cells.append(f"{digits(rng.integers(1, 41))}.{digits(rng.integers(0, 41))}")
            elif kind == 2:
                cells.append(f"{digits(1)}.{digits(rng.integers(1, 26))}e-{rng.integers(0, 330)}")
            else:
                cells.append(f"0.{digits(rng.integers(1, 31))}E+{rng.integers(0, 300)}")
        rows = [",".join(cells[r * 245:(r + 1) * 245]) for r in range(245)]
        path = tmp_path / "m.csv"
        path.write_text("\n".join(rows) + "\n")
        got = load_contact_matrix(str(path), False, np.ones(245))
        want = np.array([float(c) for c in cells]).reshape(245, 245)
        assert got.tobytes() == want.tobytes()

    def test_negative_entry_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,-2.0\n1.0,1.0\n")
        with pytest.raises(ValidationError, match="nonnegative"):
            load_contact_matrix(str(path), False, np.array([10.0, 10.0]))


def synthetic_run(d_day61, d_day140, policy="national"):
    """A run whose only meaningful content is the total-deceased series."""
    n_days = 140
    d = np.zeros((n_days + 1, 1))
    d[:, 0] = np.linspace(0.0, d_day61, n_days + 1)
    d[60, 0] = d_day61
    d[139:, 0] = d_day140
    traj = Trajectory(
        s=np.zeros((n_days + 1, 1)),
        i=np.zeros((n_days + 1, 1)),
        r=np.zeros((n_days + 1, 1)),
        d=d,
        applied_u=np.zeros((n_days, 1)),
    )
    params = vaxmpc.ModelParams(
        lam=np.array([0.1]),
        gamma_r=np.array([0.5]),
        gamma_d=np.array([0.1]),
        population=np.array([1000.0]),
        contact=np.array([[1e-4]]),
    )
    return ScenarioResult(
        policy=policy,
        trajectory=traj,
        controls=np.zeros((n_days, 1)),
        params=params,
        cfg=vaxmpc.MpcConfig(v_bar=55191.0, vaccination_start_day=61),
    )


class TestMetrics:
    def test_zero_infection_run(self, desk_params):
        state = vaxmpc.initial_state(desk_params, np.zeros(2))
        cfg = vaxmpc.MpcConfig(
            horizon=3, v_bar=100.0, vaccination_start_day=1, strategy_horizon=10
        )
        run = vaxmpc.run_policy_loop(state, cfg, desk_params, "none")
        metrics = vaxmpc.compute_metrics(run)
        assert metrics.deaths_total == 0.0
        assert metrics.cumulative_incidence == 0.0
        assert metrics.vaccines_used == 0.0
        assert metrics.eradication_day == 1  # already below threshold

    def test_decreasing_age_reference_series(self):
        metrics = vaxmpc.compute_metrics(
            synthetic_run(DEATHS_DAY_61, DEATHS_DAY_140_NATIONAL)
        )
        assert metrics.deaths_since_vax == pytest.approx(911.5456, abs=1e-4)
        assert int(metrics.deaths_since_vax) == 911

    def test_predictive_reference_series(self):
        metrics = vaxmpc.compute_metrics(
            synthetic_run(DEATHS_DAY_61, DEATHS_DAY_140_MPC, policy="mpc")
        )
        assert metrics.deaths_since_vax == pytest.approx(851.4070, abs=1e-4)
        assert int(metrics.deaths_since_vax) == 851

    def test_additivity_of_death_split(self, desk_params, desk_state0):
        cfg = vaxmpc.MpcConfig(
            horizon=3, v_bar=400.0, vaccination_start_day=5, strategy_horizon=20
        )
        run = vaxmpc.run_policy_loop(desk_state0, cfg, desk_params, "national")
        metrics = vaxmpc.compute_metrics(run)
        deaths_at_start = float(run.trajectory.d[4].sum())
        assert metrics.deaths_total == pytest.approx(
            metrics.deaths_since_vax + deaths_at_start, rel=1e-12
        )

    def test_late_start_reads_the_same_days(self, desk_params, desk_state0):
        # a run started on day 11 of another run's path covers the same days
        # from then on, so every day-based metric must agree
        cfg = vaxmpc.MpcConfig(
            horizon=3, v_bar=400.0, eradication_threshold=1.0,
            vaccination_start_day=15, strategy_horizon=60,
        )
        full = vaxmpc.run_policy_loop(desk_state0, cfg, desk_params, "national")
        late_cfg = dataclasses.replace(cfg, strategy_horizon=50)
        late = vaxmpc.run_policy_loop(
            full.trajectory.state(10), late_cfg, desk_params, "national"
        )
        assert np.array_equal(late.trajectory.d, full.trajectory.d[10:])
        assert late.latch_day == full.latch_day is not None
        m_full = vaxmpc.compute_metrics(full)
        m_late = vaxmpc.compute_metrics(late)
        assert m_late.eradication_day == m_full.eradication_day == full.latch_day
        assert m_late.deaths_total == m_full.deaths_total
        assert m_late.deaths_since_vax == m_full.deaths_since_vax
        assert m_late.vaccines_used == m_full.vaccines_used

    def test_cumulative_incidence_equals_plant_infections(
        self, preset_config, preset_params, preset_state0
    ):
        cfg = dataclasses.replace(preset_config.mpc, v_bar=30000.0)
        run = vaxmpc.run_policy_loop(preset_state0, cfg, preset_params, "national")
        traj = run.trajectory
        daily = np.array(
            [
                vaxmpc.new_infections(traj.s[t], traj.i[t], preset_params)
                for t in range(traj.n_steps)
            ]
        )
        expected = float(daily.sum()) + float(preset_state0.i.sum())
        assert vaxmpc.compute_metrics(run).cumulative_incidence == expected

    def test_cumulative_incidence_counts_seeding(self, desk_params, desk_state0):
        cfg = vaxmpc.MpcConfig(
            horizon=3, v_bar=400.0, vaccination_start_day=1, strategy_horizon=15
        )
        run = vaxmpc.run_policy_loop(desk_state0, cfg, desk_params, "none")
        metrics = vaxmpc.compute_metrics(run)
        assert metrics.cumulative_incidence >= desk_state0.i.sum()


class TestCompare:
    def test_run_compared_with_itself_is_zero_improvement(
        self, desk_params, desk_state0
    ):
        cfg = vaxmpc.MpcConfig(
            horizon=3, v_bar=400.0, vaccination_start_day=1, strategy_horizon=15
        )
        run = vaxmpc.run_policy_loop(desk_state0, cfg, desk_params, "national")
        report = vaxmpc.compare([run, run])
        entry = report.improvements[0]
        for key in ("deaths_since_vax", "cumulative_incidence", "vaccines_used"):
            assert entry[key] == 0.0

    def test_mismatched_inputs_rejected(self, desk_params, desk_state0):
        cfg = vaxmpc.MpcConfig(
            horizon=3, v_bar=400.0, vaccination_start_day=1, strategy_horizon=15
        )
        run = vaxmpc.run_policy_loop(desk_state0, cfg, desk_params, "national")
        other_state = vaxmpc.initial_state(desk_params, np.array([1.0, 1.0]))
        others = [vaxmpc.run_policy_loop(other_state, cfg, desk_params, "none")]
        # the comparison's budget, window and eradication reading count too
        for change in (
            {"v_bar": 500.0},
            {"strategy_horizon": 16},
            {"eradication_threshold": 2.0},
        ):
            other_cfg = dataclasses.replace(cfg, **change)
            others.append(
                vaxmpc.run_policy_loop(desk_state0, other_cfg, desk_params, "none")
            )
        for other in others:
            with pytest.raises(ContractViolation):
                vaxmpc.compare([run, other])
        same = vaxmpc.run_policy_loop(
            desk_state0, dataclasses.replace(cfg, rng_seed=5), desk_params, "none"
        )
        assert len(vaxmpc.compare([run, same]).metrics) == 2

    def test_run_carries_its_config_fingerprint(self, tmp_path):
        preset = get_preset("wallonia-2020")
        assert run_scenario(preset, policy="none").fingerprint == preset.fingerprint()
        (tmp_path / "contacts.csv").write_text("8.0,0.5\n2.0,3.0\n")
        desk = config_from_dict(
            {
                "model": {
                    "lambda": [0.05, 0.08],
                    "gamma_r": [0.30, 0.25],
                    "gamma_d": [0.02, 0.12],
                    "population": [8000, 2000],
                },
                "i0": [20.0, 5.0],
                "contact_matrix_path": "contacts.csv",
                "contact_matrix_is_raw": True,
                "policy": "national",
                "mpc": {
                    "v_bar": 400,
                    "vaccination_start_day": 1,
                    "strategy_horizon": 15,
                },
            },
            base_dir=str(tmp_path),
        )
        assert run_scenario(desk).fingerprint == desk.fingerprint()

    def test_report_renders_text_and_json(self, desk_params, desk_state0):
        cfg = vaxmpc.MpcConfig(
            horizon=3, v_bar=400.0, vaccination_start_day=1, strategy_horizon=15
        )
        none_run = vaxmpc.run_policy_loop(desk_state0, cfg, desk_params, "none")
        nat_run = vaxmpc.run_policy_loop(desk_state0, cfg, desk_params, "national")
        report = vaxmpc.compare([none_run, nat_run])
        text = report.to_text()
        assert "policy" in text and "national" in text
        payload = json.loads(report.to_json())
        assert len(payload["runs"]) == 2
        assert payload["improvements"][0]["baseline"] == "none"


class TestWriters:
    @pytest.fixture()
    def desk_run(self, desk_params, desk_state0):
        cfg = vaxmpc.MpcConfig(
            horizon=3, v_bar=400.0, vaccination_start_day=1, strategy_horizon=12
        )
        return vaxmpc.run_policy_loop(desk_state0, cfg, desk_params, "national")

    def test_csv_rows_conserve_population(self, desk_run, desk_params, tmp_path):
        write_run(desk_run, tmp_path)
        lines = (tmp_path / "trajectory.csv").read_text().strip().splitlines()
        header, rows = lines[0], lines[1:]
        assert header == "day,group,S,I,R,D,applied_u"
        by_day = {}
        for row in rows:
            cells = row.split(",")
            day = int(cells[0])
            by_day.setdefault(day, 0.0)
            by_day[day] += sum(float(c) for c in cells[2:6])
        total = desk_params.population.sum()
        for day, value in by_day.items():
            assert value == pytest.approx(total, rel=1e-9)

    def test_metrics_payload_round_trips(self, desk_run, tmp_path):
        metrics = write_run(desk_run, tmp_path)
        payload = json.loads((tmp_path / "metrics.json").read_text())
        assert payload["fingerprint"] == desk_run.fingerprint
        assert payload["metrics"] == metrics.to_dict()
        write_run(desk_run, tmp_path / "again", fingerprint=desk_run.fingerprint)
        with pytest.raises(ContractViolation, match="fingerprint"):
            write_run(desk_run, tmp_path / "wrong", fingerprint="abc123")

    def test_preset_outputs_pinned(self, preset_runs, tmp_path):
        for policy, files in PRESET_OUTPUT_SHA256.items():
            write_run(preset_runs[0][policy], tmp_path / policy)
            written = {f.name for f in (tmp_path / policy).iterdir()}
            assert written == set(files), policy
            for name, digest in files.items():
                data = (tmp_path / policy / name).read_bytes()
                assert hashlib.sha256(data).hexdigest() == digest, f"{policy}/{name}"

    def test_writes_are_deterministic(self, desk_run, tmp_path):
        write_run(desk_run, tmp_path / "a")
        write_run(desk_run, tmp_path / "b")
        for name in ("trajectory.csv", "metrics.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_compare_run_dirs_checks_fingerprints(
        self, desk_run, desk_params, desk_state0, tmp_path
    ):
        cfg = dataclasses.replace(desk_run.cfg, v_bar=500.0)
        other = vaxmpc.run_policy_loop(desk_state0, cfg, desk_params, "national")
        write_run(desk_run, tmp_path / "a")
        write_run(other, tmp_path / "b")
        with pytest.raises(ContractViolation):
            compare_run_dirs([tmp_path / "a", tmp_path / "b"])

    def test_sibling_matrix_files_are_different_scenarios(self, tmp_path):
        # both configs name "contacts.csv", each resolving to its own file
        matrices = {"a": "8.0,0.5\n2.0,3.0\n", "b": "2.0,0.5\n2.0,9.0\n"}
        configs = {}
        for name, matrix in matrices.items():
            (tmp_path / name).mkdir()
            (tmp_path / name / "contacts.csv").write_text(matrix)
            path = tmp_path / name / "config.json"
            path.write_text(
                json.dumps(
                    {
                        "model": {
                            "lambda": [0.05, 0.08],
                            "gamma_r": [0.30, 0.25],
                            "gamma_d": [0.02, 0.12],
                            "population": [8000, 2000],
                        },
                        "i0": [20.0, 5.0],
                        "contact_matrix_path": "contacts.csv",
                        "contact_matrix_is_raw": True,
                        "policy": "national",
                        "mpc": {"vaccination_start_day": 1, "strategy_horizon": 15},
                    }
                )
            )
            configs[name] = load_config(path)
        assert configs["a"].fingerprint() != configs["b"].fingerprint()
        for name, config in configs.items():
            write_run(run_scenario(config), tmp_path / "runs" / name)
        with pytest.raises(ContractViolation):
            compare_run_dirs([tmp_path / "runs" / "a", tmp_path / "runs" / "b"])

    def test_compare_run_dirs_requires_fingerprints(
        self, desk_run, desk_params, desk_state0, tmp_path
    ):
        other = vaxmpc.ModelParams(
            lam=np.array([0.07, 0.08]),
            gamma_r=desk_params.gamma_r,
            gamma_d=desk_params.gamma_d,
            population=desk_params.population,
            contact=desk_params.contact,
        )
        cfg = vaxmpc.MpcConfig(
            horizon=3, v_bar=400.0, vaccination_start_day=1, strategy_horizon=12
        )
        none_run = vaxmpc.run_policy_loop(
            vaxmpc.initial_state(other, desk_state0.i), cfg, other, "none"
        )
        with pytest.raises(ContractViolation):
            vaxmpc.compare([desk_run, none_run])
        write_run(desk_run, tmp_path / "a")
        write_run(desk_run, tmp_path / "b")
        path = tmp_path / "b" / "metrics.json"
        payload = json.loads(path.read_text())
        del payload["fingerprint"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ContractViolation, match="fingerprint"):
            compare_run_dirs([tmp_path / "a", tmp_path / "b"])
        assert compare_run_dirs([tmp_path / "b"]).metrics[0].policy == "national"

    def test_both_comparisons_give_the_same_report(
        self, desk_run, desk_params, desk_state0, tmp_path
    ):
        runs = [
            vaxmpc.run_policy_loop(desk_state0, desk_run.cfg, desk_params, policy)
            for policy in ("none", "national", "mpc")
        ]
        dirs = [tmp_path / run.policy for run in runs]
        for run, run_dir in zip(runs, dirs):
            write_run(run, run_dir)
        in_memory, on_disk = vaxmpc.compare(runs), compare_run_dirs(dirs)
        assert in_memory.to_dict() == on_disk.to_dict()
        assert in_memory.to_text() == on_disk.to_text()
        with pytest.raises(ContractViolation):
            compare_run_dirs([])

    def test_diagnostics_written_for_predictive_runs(
        self, desk_params, desk_state0, desk_cfg, tmp_path
    ):
        run = vaxmpc.run_policy_loop(desk_state0, desk_cfg, desk_params)
        write_run(run, tmp_path)
        lines = (tmp_path / "diagnostics.jsonl").read_text().strip().splitlines()
        assert len(lines) == run.n_days
        first = json.loads(lines[0])
        assert {
            "day", "V_N0", "feasible", "terminal_slack", "iterations", "applied_u"
        } <= set(first)
        for line, rec in zip(lines, run.day_records):
            assert json.loads(line)["iterations"] == rec.iterations
        assert first["iterations"] > 0
