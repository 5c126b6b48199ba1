import hashlib
import json
import warnings

import numpy as np
import pytest

from vaxmpc import certificates, cli, mpc, scenario
from vaxmpc.errors import SolverFailure, ValidationError


@pytest.fixture()
def desk_config_path(tmp_path):
    """A small self-contained scenario on disk (matrix file next to it)."""
    pop = [8000.0, 2000.0]
    raw = np.array([[8.0, 0.5], [2.0, 3.0]])
    matrix = tmp_path / "contacts.csv"
    matrix.write_text(
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
            "rng_seed": 0,
            "n_restarts": 2,
        },
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


class TestSimulate:
    def test_writes_run_directory(self, desk_config_path, tmp_path, capsys):
        out = tmp_path / "run"
        code = cli.main(
            ["simulate", "--config", str(desk_config_path), "--out", str(out)]
        )
        assert code == 0
        assert (out / "trajectory.csv").exists()
        assert (out / "metrics.json").exists()
        assert (out / "diagnostics.jsonl").exists()
        assert "policy=mpc" in capsys.readouterr().out

    def test_predictive_run_without_a_solve_writes_diagnostics(
        self, desk_config_path, tmp_path
    ):
        config = json.loads(desk_config_path.read_text())
        config["i0"] = [0.0, 0.0]  # eradicated before the first solve
        path = tmp_path / "free.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "run"
        assert cli.main(["--quiet", "simulate", "--config", str(path), "--out", str(out)]) == 0
        lines = (out / "diagnostics.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert [rec["day"] for rec in records] == list(range(1, 13))
        assert all(rec["V_N0"] is None for rec in records)

    def test_policy_flag_overrides_config(self, desk_config_path, tmp_path):
        out = tmp_path / "run"
        code = cli.main(
            [
                "--quiet",
                "simulate",
                "--config",
                str(desk_config_path),
                "--policy",
                "none",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads((out / "metrics.json").read_text())
        assert payload["policy"] == "none"
        assert not (out / "diagnostics.jsonl").exists()

    def test_rewrite_leaves_no_stale_diagnostics(self, desk_config_path, tmp_path):
        """A national run written over a predictive one leaves what a fresh
        national run leaves, byte for byte."""
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        for policy, out in (("mpc", reused), ("national", reused), ("national", fresh)):
            assert cli.main(["--quiet", "simulate", "--config", str(desk_config_path),
                             "--policy", policy, "--out", str(out)]) == 0
        names = sorted(p.name for p in fresh.iterdir())
        assert sorted(p.name for p in reused.iterdir()) == names
        assert all((reused / n).read_bytes() == (fresh / n).read_bytes() for n in names)

    def test_missing_config_exits_one(self, tmp_path, capsys):
        code = cli.main(
            ["simulate", "--config", str(tmp_path / "nope.json"), "--out", "x"]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "global_flags, flags, patch",
        [
            (["--seed", "4"], [], {"mpc": {"rng_seed": 4}}),
            ([], ["--policy", "national"], {"policy": "national"}),
        ],
        ids=["seed", "policy"],
    )
    def test_override_writes_what_the_same_value_in_the_file_writes(
        self, desk_config_path, tmp_path, global_flags, flags, patch
    ):
        """An override is a patch on the file's JSON, so it runs as a copy of
        the file that holds the same value."""
        config = scenario.overlay(json.loads(desk_config_path.read_text()), patch)
        copy = tmp_path / "copy.json"
        copy.write_text(json.dumps(config))
        override, written = tmp_path / "override", tmp_path / "written"
        assert cli.main(["--quiet", *global_flags, "simulate", "--config",
                         str(desk_config_path), *flags, "--out", str(override)]) == 0
        assert cli.main(["--quiet", "simulate", "--config", str(copy),
                         "--out", str(written)]) == 0
        names = sorted(path.name for path in written.iterdir())
        assert sorted(path.name for path in override.iterdir()) == names
        assert all((override / n).read_bytes() == (written / n).read_bytes() for n in names)

    @pytest.mark.parametrize(
        "in_file, flag", [("magic", "none"), ("mpc", "magic")], ids=["in-file", "override"]
    )
    def test_bad_policy_exits_one(self, desk_config_path, tmp_path, capsys, in_file, flag):
        """The file is built as written before ``--policy`` is laid over it,
        so a bad policy in the file fails even where the flag would replace it,
        and a bad flag fails by the file's own rule."""
        config = json.loads(desk_config_path.read_text())
        config["policy"] = in_file
        path = tmp_path / "policy.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "run"
        code = cli.main(["simulate", "--config", str(path), "--policy", flag, "--out", str(out)])
        assert code == 1
        assert one_error_line(capsys) == (
            "error: policy: must be one of none|national|mpc, got 'magic'"
        )
        assert not out.exists()

    def test_bad_config_exits_one(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"preset": "wallonia-2020", "policy": "magic"}))
        assert cli.main(["simulate", "--config", str(bad), "--out", "x"]) == 1

    def test_per_group_threshold_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {"preset": "wallonia-2020", "mpc": {"eradication_threshold": [1.0, 2.0]}}
            )
        )
        code = cli.main(["simulate", "--config", str(bad), "--out", str(tmp_path / "run")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [("horizon", 2.5), ("rng_seed", "x"), ("rng_seed", -1), ("v_bar", True)],
    )
    def test_mistyped_controller_setting_exits_one(
        self, desk_config_path, tmp_path, capsys, field, value
    ):
        config = json.loads(desk_config_path.read_text())
        config["mpc"][field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))
        out = str(tmp_path / "run")
        assert cli.main(["simulate", "--config", str(bad), "--out", out]) == 1
        assert f"error: mpc.{field}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("contact_matrix_is_raw", "false"),
            ("contact_matrix_is_raw", 1),
            ("model.population", [8000.0, True]),
            ("i0", [True, 5.0]),
            ("output_dir", "runs"),
            # integers too large for a float are not finite numbers
            pytest.param("i0", [10**400, 5.0], id="i0-10**400"),
            pytest.param("model.population", [8000.0, 10**400], id="population-10**400"),
            pytest.param("mpc.v_bar", 10**400, id="v_bar-10**400"),
            # day counts too large to allocate a plan or a run for
            *(
                pytest.param(f"mpc.{name}", value, id=f"{name}-{label}")
                for name in ("horizon", "strategy_horizon")
                for value, label in ((10**400, "10**400"), (2**62, "2**62"), (2**40, "2**40"))
            ),
            # more starts than the solver holds at once
            pytest.param("mpc.n_restarts", 2**62, id="n_restarts-2**62"),
            pytest.param("mpc.n_restarts", 10**400, id="n_restarts-10**400"),
        ],
    )
    def test_mistyped_config_field_exits_one(
        self, desk_config_path, tmp_path, capsys, key, value
    ):
        config = json.loads(desk_config_path.read_text())
        *parents, last = key.split(".")
        cursor = config
        for name in parents:
            cursor = cursor[name]
        cursor[last] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", str(bad), "--out", str(out)]) == 1
        assert f"error: {key}" in capsys.readouterr().err
        assert not out.exists()

    def test_allocation_failure_exits_one(self, desk_config_path, monkeypatch, capsys):
        def too_big(*args, **kwargs):
            raise MemoryError("Unable to allocate 48.0 TiB")

        monkeypatch.setattr("vaxmpc.cli.scenario.run_scenario", too_big)
        code = cli.main(["simulate", "--config", str(desk_config_path), "--out", "x"])
        assert code == 1
        assert capsys.readouterr().err == "error: Unable to allocate 48.0 TiB\n"

    def test_solver_failure_exits_two(self, desk_config_path, monkeypatch):
        def boom(*args, **kwargs):
            raise SolverFailure("numerical blow-up")

        monkeypatch.setattr("vaxmpc.scenario.run_scenario", boom)
        code = cli.main(
            ["simulate", "--config", str(desk_config_path), "--out", "x"]
        )
        assert code == 2


@pytest.mark.parametrize(
    "argv, code",
    [
        (["simulate", "--out", "x"], 1),
        (["certify", "--config", "x", "--samples", "abc"], 1),
        (["--help"], 0),
        (["certify", "--help"], 0),
    ],
    ids=["simulate-without-config", "certify-non-integer-samples", "help", "certify-help"],
)
def test_usage_errors_exit_one(argv, code, capsys):
    """A usage error exits 1, not argparse's 2, which is a solver failure."""
    assert cli.main(argv) == code
    captured = capsys.readouterr()
    assert ("usage:" in captured.err) == (code == 1)


class TestCompare:
    def test_compares_two_runs(self, desk_config_path, tmp_path, capsys):
        for policy in ("national", "mpc"):
            assert (
                cli.main(
                    [
                        "--quiet",
                        "simulate",
                        "--config",
                        str(desk_config_path),
                        "--policy",
                        policy,
                        "--out",
                        str(tmp_path / policy),
                    ]
                )
                == 0
            )
        report_path = tmp_path / "report.json"
        code = cli.main(
            [
                "compare",
                "--runs",
                str(tmp_path / "national"),
                str(tmp_path / "mpc"),
                "--out",
                str(report_path),
            ]
        )
        assert code == 0
        payload = json.loads(report_path.read_text())
        assert payload["improvements"][0]["baseline"] == "national"

    def test_missing_run_dir_exits_one(self, tmp_path):
        assert cli.main(["compare", "--runs", str(tmp_path / "ghost")]) == 1

    def test_quiet_without_out_prints_the_json_report(self, desk_config_path, tmp_path, capsys):
        runs = [str(tmp_path / policy) for policy in ("none", "national")]
        for policy, out in zip(("none", "national"), runs):
            assert cli.main(["--quiet", "simulate", "--config", str(desk_config_path),
                             "--policy", policy, "--out", out]) == 0
        assert cli.main(["--quiet", "compare", "--runs", *runs]) == 0
        assert capsys.readouterr().out == scenario.compare_run_dirs(runs).to_json() + "\n"


class TestCertify:
    def test_clean_suite_exits_zero(self, desk_config_path, tmp_path):
        report_path = tmp_path / "cert.json"
        code = cli.main(
            [
                "--quiet",
                "certify",
                "--config",
                str(desk_config_path),
                "--samples",
                "300",
                "--seed",
                "1",
                "--out",
                str(report_path),
            ]
        )
        assert code == 0
        payload = json.loads(report_path.read_text())
        assert len(payload["checks"]) == 3
        assert all(c["n_violations"] == 0 for c in payload["checks"])

    def test_bad_epsilon_exits_one(self, desk_config_path, tmp_path, capsys):
        config = json.loads(desk_config_path.read_text())
        config["mpc"]["epsilon"] = 0.9  # above min(gamma_r + gamma_d) = 0.32
        bad = tmp_path / "bad_epsilon.json"
        bad.write_text(json.dumps(config))
        code = cli.main(["--quiet", "certify", "--config", str(bad), "--samples", "50"])
        assert code == 1
        assert "epsilon" in capsys.readouterr().err

    def test_draws_the_terminal_set_once(self, desk_config_path, monkeypatch):
        calls = []
        sampler = certificates.sample_terminal_states

        def counting(*args, **kwargs):
            calls.append(args[2])
            return sampler(*args, **kwargs)

        monkeypatch.setattr(certificates, "sample_terminal_states", counting)
        code = cli.main(
            ["--quiet", "certify", "--config", str(desk_config_path), "--samples", "300"]
        )
        assert code == 0
        assert calls == [300]  # invariance and decrease share the draw

    @pytest.mark.parametrize("n_a", [12, 16])
    def test_many_groups_pass(self, tmp_path, n_a):
        """The terminal-set draw needs no rejection, so past six groups a
        full-size certify run is as quick as on the preset."""
        rng = np.random.default_rng(n_a)
        pop = rng.uniform(1e3, 1e6, n_a)
        lam = rng.uniform(0.01, 0.3, n_a)
        raw = rng.uniform(0.1, 5.0, (n_a, n_a))
        raw *= min(1.0, 0.9 / np.max(lam * raw.sum(axis=1)))  # pressure below one
        gamma_r, gamma_d = rng.uniform(0.1, 0.8, n_a), rng.uniform(1e-4, 0.15, n_a)
        np.savetxt(tmp_path / "c.csv", raw / pop[None, :], delimiter=",", fmt="%.17g")
        config = {
            "model": {"lambda": lam.tolist(), "gamma_r": gamma_r.tolist(),
                      "gamma_d": gamma_d.tolist(), "population": pop.tolist()},
            "contact_matrix_path": "c.csv",
            "contact_matrix_is_raw": False,
            "mpc": {"epsilon": 0.5 * float(np.min(gamma_r + gamma_d)),
                    "v_bar": 0.05 * float(pop.sum())},
        }
        path = tmp_path / "groups.json"
        path.write_text(json.dumps(config))
        report_path = tmp_path / "cert.json"
        code = cli.main(
            ["--quiet", "certify", "--config", str(path), "--samples", "20000",
             "--seed", "0", "--out", str(report_path)]
        )
        assert code == 0
        checks = json.loads(report_path.read_text())["checks"]
        assert len(checks) == 3
        assert all(c["n_violations"] == 0 for c in checks)

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_nonpositive_samples_exit_one(self, desk_config_path, capsys, samples):
        code = cli.main(
            ["--quiet", "certify", "--config", str(desk_config_path), "--samples", samples]
        )
        assert code == 1
        assert "error: --samples must be a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("samples", [certificates.MAX_SAMPLES + 1, 10**12])
    def test_too_many_samples_exit_one_before_drawing(
        self, desk_config_path, capsys, monkeypatch, samples
    ):
        def no_draw(*args, **kwargs):
            raise AssertionError("sampled despite the cap")

        for name in ("sample_terminal_states", "_sample_controls", "check_eta_bound"):
            monkeypatch.setattr(certificates, name, no_draw)
        code = cli.main(
            ["--quiet", "certify", "--config", str(desk_config_path), "--samples", str(samples)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: --samples must be at most {certificates.MAX_SAMPLES}" in err

    @pytest.mark.parametrize(
        "seed, digest",
        [
            (1, "58fb343e33f0f4931bee19ffda3a1c340398420a7caf32acf9c17caf950da64c"),
            (2, "f974c5a775aa8bb689e21a585e6952fd657eca2afd8939d38c6dc6821997be64"),
            (3, "47167e0602ec3e5e18623897e3c5975ff57701493980750f731c79ae934477b0"),
            (4, "6c17835f8429f223a828eac26521298e55890f8a1be7fe8ab7ad81dc2aa257c0"),
        ],
        ids=["1", "2", "3", "4"],  # the seed alone: a re-pin keeps the names
    )
    def test_preset_report_digest_pinned(self, tmp_path, seed, digest):
        config = tmp_path / "preset.json"
        config.write_text(json.dumps({"preset": "wallonia-2020"}))
        report_path = tmp_path / "cert.json"
        code = cli.main(
            [
                "--quiet",
                "certify",
                "--config",
                str(config),
                "--samples",
                "20000",
                "--seed",
                str(seed),
                "--out",
                str(report_path),
            ]
        )
        assert code == 0
        assert hashlib.sha256(report_path.read_bytes()).hexdigest() == digest

    def test_seed_0_report_pinned(self, tmp_path):
        config = tmp_path / "preset.json"
        config.write_text(json.dumps({"preset": "wallonia-2020"}))
        report_path = tmp_path / "cert.json"
        code = cli.main(
            [
                "--quiet",
                "certify",
                "--config",
                str(config),
                "--samples",
                "20000",
                "--seed",
                "0",
                "--out",
                str(report_path),
            ]
        )
        assert code == 0
        payload = json.loads(report_path.read_text())
        assert payload["eta"] == 14.413148224395638
        worst = {c["name"]: c["worst_margin"] for c in payload["checks"]}
        assert worst == {
            "terminal_set_invariance": 5.49863578501694e-05,
            "lyapunov_decrease": 0.3422439753178143,
            "growth_factor_bound": 0.9068410114217567,
        }
        assert all(c["n_violations"] == 0 for c in payload["checks"])

    def test_violations_exit_three(self, desk_config_path, monkeypatch):
        failing = np.array([0.5, -1.0, 2.0])
        monkeypatch.setattr(
            certificates, "check_invariance", lambda *a, **k: failing
        )
        code = cli.main(
            ["--quiet", "certify", "--config", str(desk_config_path), "--samples", "50"]
        )
        assert code == 3


@pytest.mark.parametrize("command", ["simulate", "certify", "sweep"])
def test_epsilon_outside_the_configs_rates_fails_on_load(command, tmp_path, capsys):
    config = tmp_path / "eps.json"
    config.write_text(json.dumps({"preset": "wallonia-2020", "mpc": {"epsilon": 0.9}}))
    out = tmp_path / "out"
    extra = {
        "simulate": ["--policy", "none", "--out", str(out)],
        "certify": ["--samples", "50"],
        "sweep": ["--vary", "mpc.v_bar=40000", "--out", str(out)],
    }[command]
    code = cli.main(["--quiet", command, "--config", str(config), *extra])
    assert code == 1
    assert "error: mpc.epsilon=0.9 outside (0, 0.59" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["--seed", "-1", "simulate"],
        ["--seed", "-1", "sweep", "--vary", "mpc.v_bar=600"],
        ["--seed", "-1", "sweep", "--vary", "mpc.rng_seed=1,2"],
        ["--seed", "-1", "certify"],
        ["certify", "--seed", "-1"],
    ],
    ids=["simulate", "sweep", "sweep-varied-seed", "certify-global-seed", "certify-seed"],
)
def test_negative_seed_exits_one(argv, desk_config_path, tmp_path, capsys):
    """One seed rule for every command, checked before the command runs.  A
    sweep that varies ``mpc.rng_seed`` used to run without reading the
    negative global ``--seed`` it laid each value over."""
    out = tmp_path / "out"
    code = cli.main(["--quiet", *argv, "--config", str(desk_config_path), "--out", str(out)])
    assert code == 1
    assert one_error_line(capsys) == "error: --seed must be nonnegative"
    assert not out.exists()


class TestSweep:
    def test_sweeps_capacity_values(self, desk_config_path, tmp_path):
        out = tmp_path / "sweep"
        code = cli.main(
            [
                "--quiet",
                "sweep",
                "--config",
                str(desk_config_path),
                "--vary",
                "mpc.v_bar=600,1200",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert (out / "mpc.v_bar=600" / "metrics.json").exists()
        assert (out / "mpc.v_bar=1200" / "metrics.json").exists()
        summary = json.loads((out / "sweep.json").read_text())
        assert [entry["value"] for entry in summary] == [600, 1200]

    @pytest.mark.parametrize(
        "vary, values",
        [
            ("i0=[10,2]", [[10, 2]]),
            ("i0=[20, 5],[10,2]", [[20, 5], [10, 2]]),
        ],
    )
    def test_sweeps_list_values(self, desk_config_path, tmp_path, vary, values):
        out = tmp_path / "sweep"
        code = cli.main(
            ["--quiet", "sweep", "--config", str(desk_config_path), "--vary", vary,
             "--out", str(out)]
        )
        assert code == 0
        summary = json.loads((out / "sweep.json").read_text())
        assert [entry["value"] for entry in summary] == values
        for value in values:
            rows = np.loadtxt(
                out / f"i0={value}" / "trajectory.csv", delimiter=",", skiprows=1,
                usecols=(0, 3), max_rows=2,
            )
            assert rows[:, 0].tolist() == [1, 1]
            assert rows[:, 1].tolist() == value

    @pytest.mark.parametrize(
        "vary, values",
        [
            ("mpc.v_bar=40000,55191", [40000, 55191]),
            ("policy=none, national", ["none", "national"]),
            ('policy="none",national', ["none", "national"]),
            ("i0=[1,2,3,4,5,6]", [[1, 2, 3, 4, 5, 6]]),
        ],
    )
    def test_vary_values_parsed(self, vary, values):
        assert cli._parse_vary(vary)[1] == values

    def test_vary_without_equals_rejected(self):
        with pytest.raises(ValidationError, match=r"^--vary expects FIELD=V1,V2,\.\.\.$"):
            cli._parse_vary("mpc.v_bar")

    def test_builds_each_values_model_once(self, desk_config_path, tmp_path, monkeypatch):
        """The matrix is read once for the base config and once per value,
        and never again while the runs go."""
        events = []
        load, run = scenario.load_contact_matrix, scenario.run_scenarios

        def loading(*args, **kwargs):
            events.append("load")
            return load(*args, **kwargs)

        def running(configs, *args, **kwargs):
            events.append(f"run {[config.mpc.v_bar for config in configs]}")
            return run(configs, *args, **kwargs)

        monkeypatch.setattr(scenario, "load_contact_matrix", loading)
        monkeypatch.setattr(scenario, "run_scenarios", running)
        code = cli.main(
            ["--quiet", "sweep", "--config", str(desk_config_path), "--vary",
             "mpc.v_bar=600,1200", "--out", str(tmp_path / "sweep")]
        )
        assert code == 0
        assert events == ["load", "load", "load", "run [600, 1200]"]

    def test_value_the_file_holds_runs_as_simulate(self, desk_config_path, tmp_path):
        """A sweep builds each value from the config file's own JSON, so the
        value the file already holds writes what ``simulate`` of the file writes."""
        out, alone = tmp_path / "sweep", tmp_path / "alone"
        assert cli.main(["--quiet", "sweep", "--config", str(desk_config_path),
                         "--vary", "mpc.v_bar=1200.0", "--out", str(out)]) == 0
        assert cli.main(["--quiet", "simulate", "--config", str(desk_config_path),
                         "--out", str(alone)]) == 0
        for name in ("trajectory.csv", "metrics.json", "diagnostics.jsonl"):
            assert (out / "mpc.v_bar=1200.0" / name).read_bytes() == (alone / name).read_bytes()

    def test_varied_seed_wins_over_global_seed(self, desk_config_path, tmp_path):
        """``--seed 5`` used to replace every varied ``mpc.rng_seed``, so
        ``mpc.rng_seed=1/`` and ``mpc.rng_seed=2/`` both ran seed 5."""
        def sweep(out, vary, *seed):
            return cli.main(["--quiet", *seed, "sweep", "--config", str(desk_config_path),
                             "--vary", vary, "--out", str(out)])

        assert sweep(tmp_path / "seeded", "mpc.rng_seed=1,2", "--seed", "5") == 0
        assert sweep(tmp_path / "plain", "mpc.rng_seed=1,2") == 0
        for name in ("mpc.rng_seed=1", "mpc.rng_seed=2"):
            seeded = (tmp_path / "seeded" / name / "trajectory.csv").read_bytes()
            assert seeded == (tmp_path / "plain" / name / "trajectory.csv").read_bytes()

    def test_entry_of_another_sweep_refused(self, desk_config_path, tmp_path, capsys):
        """A narrower sweep into an earlier sweep's --out used to leave the
        earlier runs beside a sweep.json that no longer listed them."""
        out = tmp_path / "sweep"

        def sweep(vary):
            return cli.main(["--quiet", "sweep", "--config", str(desk_config_path),
                             "--vary", vary, "--out", str(out)])

        assert sweep("policy=none,national") == 0
        before = {path: path.read_bytes() for path in out.rglob("*") if path.is_file()}
        assert sweep("policy=none") == 1
        assert one_error_line(capsys) == (
            f"error: --out: {out} holds 'policy=national', not a run of this sweep"
        )
        assert {path: path.read_bytes() for path in out.rglob("*") if path.is_file()} == before
        assert sweep("policy=none,national") == 0  # the identical sweep may run again
        assert sweep("policy=national,none") == 0
        assert sweep("policy=none,national,mpc") == 0  # and so may a wider one

    def test_unknown_field_exits_one(self, desk_config_path):
        code = cli.main(
            [
                "--quiet",
                "sweep",
                "--config",
                str(desk_config_path),
                "--vary",
                "mpc.nope=1,2",
                "--out",
                "x",
            ]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "vary",
        [
            "mpc.v_bar=600,-5",
            "mpc.v_bar=",
            "mpc.epsilon=0.1,0.9",
            "contact_matrix_path=contacts.csv,missing.csv",
            # the closed loop's own input check, run on every value up front
            "mpc.vaccination_start_day=1,200",
            # two values that name one run directory
            "mpc.v_bar=1000,1000",
            "mpc.v_bar=1e3,1000.0",
            'policy="none",none',
            # keys the loader's key table rejects, and the preset a merge would ignore
            "model.lamda=1",
            'preset="wallonia-2020"',
        ],
    )
    def test_bad_value_writes_nothing(self, desk_config_path, tmp_path, capsys, vary):
        out = tmp_path / "sweep"
        code = cli.main(
            ["--quiet", "sweep", "--config", str(desk_config_path), "--vary", vary,
             "--out", str(out)]
        )
        assert code == 1
        one_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize(
        "vary", ['name="../../../escaped","a/b"', 'name="ok","a\\u0000b"'], ids=["path", "nul"]
    )
    def test_run_directory_stays_under_out(self, desk_config_path, tmp_path, capsys, vary):
        """Each value's FIELD=VALUE directory must be one name directly under --out."""
        out = tmp_path / "sweep"
        code = cli.main(
            ["--quiet", "sweep", "--config", str(desk_config_path), "--vary", vary,
             "--out", str(out)]
        )
        assert code == 1
        assert one_error_line(capsys).startswith("error: --vary: 'name=")
        assert not out.exists()
        assert not (tmp_path / "escaped").exists()


def one_error_line(capsys) -> str:
    """stderr's only line, which must be an ``error:`` line, not a traceback."""
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    return lines[0]


class TestMalformedInput:
    @pytest.mark.parametrize(
        "value", [5, [1, 2], "x", [["horizon", 5]]], ids=["int", "list", "string", "pairs"]
    )
    def test_mpc_not_an_object_exits_one(self, tmp_path, capsys, value):
        """A list of pairs used to be read as the object they spell."""
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"preset": "wallonia-2020", "mpc": value}))
        out = tmp_path / "o"
        code = cli.main(["simulate", "--config", str(config), "--policy", "none",
                         "--out", str(out)])
        assert code == 1
        assert one_error_line(capsys).startswith("error: mpc: ")
        assert not out.exists()

    @pytest.mark.parametrize("value", [5, [1], "x", None], ids=["int", "list", "string", "null"])
    def test_model_not_an_object_exits_one(self, tmp_path, capsys, value):
        """A model that is there but no object used to be reported missing."""
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"preset": "wallonia-2020", "model": value}))
        out = tmp_path / "o"
        code = cli.main(["simulate", "--config", str(config), "--policy", "none",
                         "--out", str(out)])
        assert code == 1
        assert one_error_line(capsys) == "error: model: expected an object of model fields"
        assert not out.exists()

    @pytest.mark.parametrize("value", [["wallonia-2020"], {"name": "wallonia-2020"}],
                             ids=["list", "object"])
    def test_preset_not_a_string_exits_one(self, tmp_path, capsys, value):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"preset": value}))
        out = tmp_path / "o"
        code = cli.main(["simulate", "--config", str(config), "--policy", "none",
                         "--out", str(out)])
        assert code == 1
        assert one_error_line(capsys).startswith("error: preset: ")

    @pytest.mark.parametrize("value", [[1, 2], 5, None], ids=["list", "int", "null"])
    def test_name_not_a_string_exits_one(self, tmp_path, capsys, value):
        """A name used to be coerced with str()."""
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"preset": "wallonia-2020", "name": value}))
        out = tmp_path / "o"
        code = cli.main(["simulate", "--config", str(config), "--policy", "none",
                         "--out", str(out)])
        assert code == 1
        assert one_error_line(capsys).startswith("error: name: ")
        assert not out.exists()

    def test_unknown_model_key_exits_one(self, tmp_path, capsys):
        """A misspelt rate used to load and run the preset's rates silently."""
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"preset": "wallonia-2020", "model": {"gamma_D": [0.1] * 6}}))
        out = tmp_path / "o"
        code = cli.main(["simulate", "--config", str(config), "--out", str(out)])
        assert code == 1
        assert one_error_line(capsys) == "error: model.gamma_D: unknown configuration field"
        assert not out.exists()

    @pytest.mark.parametrize("text", ["", "# no rows\n#\n"], ids=["empty", "comments-only"])
    def test_contact_csv_without_rows_exits_one(self, desk_config_path, tmp_path, capsys, text):
        (tmp_path / "contacts.csv").write_text(text)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would end in a traceback
            code = cli.main(["simulate", "--config", str(desk_config_path), "--out", str(out)])
        assert code == 1
        assert "expected shape (2, 2), got (0, 1)" in one_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "certify", "sweep"])
    @pytest.mark.parametrize("target", ["config.json", "contacts.csv"])
    def test_non_utf8_file_exits_one(self, desk_config_path, tmp_path, capsys, command, target):
        path = tmp_path / target
        path.write_bytes(b"\xff" + path.read_bytes())
        out = tmp_path / "out"
        extra = {
            "simulate": ["--out", str(out)],
            "certify": ["--samples", "10"],
            "sweep": ["--vary", "mpc.v_bar=1000,1200", "--out", str(out)],
        }[command]
        code = cli.main(["--quiet", command, "--config", str(desk_config_path), *extra])
        assert code == 1
        assert str(path) in one_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda payload: "{not json",
            lambda payload: json.dumps([payload]),
            lambda payload: json.dumps({k: v for k, v in payload.items() if k != "metrics"}),
            lambda payload: json.dumps(
                {**payload, "metrics": {**payload["metrics"], "deaths_per_day": 1.0}}
            ),
            # values of the wrong type used to end in a traceback or pass silently
            lambda payload: json.dumps(
                {**payload, "metrics": {**payload["metrics"], "eradication_day": "9"}}
            ),
            lambda payload: json.dumps({**payload, "fingerprint": [1, 2]}),
            lambda payload: json.dumps({k: v for k, v in payload.items() if k != "fingerprint"}),
            lambda payload: json.dumps({**payload, "fingerprint": None}),
            lambda payload: json.dumps(
                {**payload, "metrics": {**payload["metrics"], "deaths_total": "1.0"}}
            ),
            lambda payload: json.dumps({**payload, "vaccination_start_day": "1"}),
            lambda payload: json.dumps(
                {**payload, "metrics": {**payload["metrics"], "policy": 1}}
            ),
            lambda payload: json.dumps(
                {**payload, "metrics": {**payload["metrics"], "vaccines_used": True}}
            ),
            # the top-level copies must agree with the metrics they repeat
            lambda payload: json.dumps({**payload, "policy": "mpc"}),
            lambda payload: json.dumps({**payload, "latch_day": 5}),
            lambda payload: json.dumps(
                {**payload, "policy": "mpc", "latch_day": 5, "strategy_horizon": 3}
            ),
        ],
        ids=["not-json", "not-an-object", "no-metrics", "unknown-metric",
             "string-eradication-day", "list-fingerprint", "no-fingerprint",
             "null-fingerprint", "string-deaths-total",
             "string-start-day", "integer-policy", "boolean-vaccines-used",
             "policy-differs", "latch-day-differs", "policy-and-latch-day-differ"],
    )
    def test_malformed_metrics_json_exits_one(self, desk_config_path, tmp_path, capsys, corrupt):
        run = tmp_path / "run"
        assert cli.main(["--quiet", "simulate", "--config", str(desk_config_path),
                         "--policy", "none", "--out", str(run)]) == 0
        metrics = run / "metrics.json"
        metrics.write_text(corrupt(json.loads(metrics.read_text())))
        assert cli.main(["compare", "--runs", str(run)]) == 1
        assert str(metrics) in one_error_line(capsys)


class TestSweepLockstep:
    """A sweep simulates its values together, in lockstep batches of the
    closed loop; each run directory holds the bytes ``simulate`` of that
    value alone writes."""

    @pytest.mark.parametrize(
        "vary",
        [
            "mpc.v_bar=600,1200,2500",
            "policy=none,national,mpc",
            "mpc.strategy_horizon=3,12,7",
            "mpc.vaccination_start_day=1,4,9",
            "model.lambda=[0.05,0.08],[0.1,0.02],[0.03,0.1]",
        ],
    )
    def test_runs_equal_simulate_alone(self, desk_config_path, tmp_path, vary):
        self.assert_equal_alone(desk_config_path, tmp_path, vary)

    @pytest.mark.parametrize("start_day", [1, 4])
    def test_batches_of_national_runs_equal_simulate_alone(self, desk_config_path, tmp_path,
                                                           start_day):
        # with vaccination from day 4, the runs share the rows of days 1-3
        values = [300 * k for k in range(1, cli.SWEEP_BATCH + 3)]  # two batches
        config = json.loads(desk_config_path.read_text())
        patch = {"policy": "national", "mpc": {"vaccination_start_day": start_day}}
        desk_config_path.write_text(json.dumps(scenario.overlay(config, patch)))
        self.assert_equal_alone(
            desk_config_path, tmp_path, "mpc.v_bar=" + ",".join(map(str, values))
        )

    def test_solver_failure_keeps_earlier_batches(self, desk_config_path, tmp_path,
                                                  monkeypatch, capsys):
        solve = mpc.solve_ocp

        def failing_at_1400(problem, warm_start=None):
            if problem.cfg.v_bar == 1400:
                raise SolverFailure("boom")
            return solve(problem, warm_start=warm_start)

        monkeypatch.setattr(cli, "SWEEP_BATCH", 2)
        monkeypatch.setattr(mpc, "solve_ocp", failing_at_1400)
        out = tmp_path / "sweep"
        code = cli.main(["--quiet", "sweep", "--config", str(desk_config_path), "--vary",
                         "mpc.v_bar=1100,1200,1300,1400", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "solver failure: day 1: boom\n"
        # the first batch stays written; the failing batch writes neither of its runs
        assert sorted(path.name for path in out.iterdir()) == ["mpc.v_bar=1100", "mpc.v_bar=1200"]

    def assert_equal_alone(self, config_path, tmp_path, vary):
        out = tmp_path / "sweep"
        assert cli.main(["--quiet", "sweep", "--config", str(config_path), "--vary", vary,
                         "--out", str(out)]) == 0
        keys, values = cli._parse_vary(vary)
        raw = json.loads(config_path.read_text())
        for value in values:
            patch = value
            for key in reversed(keys):
                patch = {key: patch}
            alone_config = tmp_path / "alone.json"  # beside contacts.csv
            alone_config.write_text(json.dumps(scenario.overlay(raw, patch)))
            alone = tmp_path / "alone" / str(value)
            assert cli.main(["--quiet", "simulate", "--config", str(alone_config),
                             "--out", str(alone)]) == 0
            swept = out / f"{'.'.join(keys)}={value}"
            names = sorted(path.name for path in alone.iterdir())
            assert sorted(path.name for path in swept.iterdir()) == names
            for name in names:
                assert (swept / name).read_bytes() == (alone / name).read_bytes(), (value, name)
