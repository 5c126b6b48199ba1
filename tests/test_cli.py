import hashlib
import json
import warnings

import numpy as np
import pytest

from vaxmpc import certificates, cli, scenario
from vaxmpc.certificates import CheckReport
from vaxmpc.errors import SolverFailure


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

    def test_negative_seed_exits_one(self, desk_config_path, tmp_path, capsys):
        out = str(tmp_path / "run")
        code = cli.main(["--seed", "-1", "simulate", "--config", str(desk_config_path),
                         "--out", out])
        assert code == 1
        assert "error: rng_seed must be nonnegative" in capsys.readouterr().err

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
        monkeypatch.setattr("vaxmpc.cli.scenario.run_scenario", boom)
        code = cli.main(
            ["simulate", "--config", str(desk_config_path), "--out", "x"]
        )
        assert code == 2


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

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_nonpositive_samples_exit_one(self, desk_config_path, capsys, samples):
        code = cli.main(
            ["--quiet", "certify", "--config", str(desk_config_path), "--samples", samples]
        )
        assert code == 1
        assert "error: --samples must be a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "seed_args",
        [["certify", "--seed", "-1"], ["--seed", "-1", "certify"]],
        ids=["certify-seed", "global-seed"],
    )
    def test_negative_seed_exits_one(self, desk_config_path, capsys, seed_args):
        code = cli.main(
            ["--quiet", *seed_args, "--config", str(desk_config_path), "--samples", "10"]
        )
        assert code == 1
        assert "error: --seed must be nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("samples", [certificates.MAX_SAMPLES + 1, 10**12])
    def test_too_many_samples_exit_one_before_drawing(
        self, desk_config_path, capsys, monkeypatch, samples
    ):
        def no_draw(*args, **kwargs):
            raise AssertionError("sampled despite the cap")

        for name in ("sample_terminal_states", "draw_terminal_sample", "check_eta_bound"):
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
            (1, "17cfb09195a084006fa0934f7d787535f65a9636cdaa81d000ab433ffd3309a8"),
            (2, "8a75aa558538e9c7c8ea60d9d3404d1ce5bd179f322200f6fdc23d0ada2730e8"),
            (3, "343b39755088ea214dcd8f69d524cc4f0b03c2b27061c9f3d30c559e988cef0f"),
            (4, "f1e0d28fe9a8532e8a746d49ebc5300ebdc021c9a0b6b1a529eba672032c1654"),
        ],
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
            "terminal_set_invariance": 2.727342023304695e-05,
            "lyapunov_decrease": 0.24786236257687136,
            "growth_factor_bound": 0.9049147692490684,
        }
        assert all(c["n_violations"] == 0 for c in payload["checks"])

    def test_violations_exit_three(self, desk_config_path, monkeypatch):
        failing = CheckReport(
            name="terminal_set_invariance",
            n_samples=10,
            n_violations=2,
            worst_margin=-1.0,
            seed=0,
        )
        monkeypatch.setattr(
            certificates, "check_invariance", lambda *a, **k: failing
        )
        monkeypatch.setattr(
            "vaxmpc.cli.certificates.check_invariance", lambda *a, **k: failing
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

    def test_builds_each_values_model_once(self, desk_config_path, tmp_path, monkeypatch):
        """The matrix is read once for the base config and once per value,
        and never again while the runs go."""
        events = []
        load, run = scenario.load_contact_matrix, scenario.run_scenario

        def loading(*args, **kwargs):
            events.append("load")
            return load(*args, **kwargs)

        def running(config, *args, **kwargs):
            events.append(f"run {config.mpc.v_bar}")
            return run(config, *args, **kwargs)

        monkeypatch.setattr(scenario, "load_contact_matrix", loading)
        monkeypatch.setattr(scenario, "run_scenario", running)
        code = cli.main(
            ["--quiet", "sweep", "--config", str(desk_config_path), "--vary",
             "mpc.v_bar=600,1200", "--out", str(tmp_path / "sweep")]
        )
        assert code == 0
        assert events == ["load", "load", "load", "run 600", "run 1200"]

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
             "string-eradication-day", "list-fingerprint", "string-deaths-total",
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
