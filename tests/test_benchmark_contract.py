"""The benchmark's workloads run clean against the current sources.

``perfbench/`` patches vaxmpc functions by name and drives the public API
(configs, ``run_scenario``, ``write_run``, the CLI, the death-toll audit).
A refactor under ``src/`` that breaks what it relies on fails here, in the
test suite, rather than only when the benchmark runs.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from vaxmpc import scenario

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench_module(name):
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("name", ["preset-mpc", "baseline-sweep", "certify"])
def test_workload_runs_clean_under_the_tracer(name, tmp_path):
    tracing = _perfbench_module("tracing")
    workloads = _perfbench_module("workloads")
    workload = workloads.WORKLOADS[name](0, tmp_path)
    out_dir = tmp_path / "out"
    with tracing.Tracer() as tracer:  # looks up every patched hook
        raw = workload.run(out_dir)
    outcome = workload.check(raw, out_dir)
    assert outcome.attempted == workload.expected > 0
    assert outcome.failed == 0
    assert len(tracer.spans) > 1  # the hooks were called through


def test_setup_snippet_runs_on_the_preset(tmp_path):
    """``setup_s`` times perfbench's own snippet in a fresh interpreter."""
    run = _perfbench_module("run")
    config = tmp_path / "preset.json"
    config.write_text(json.dumps({"preset": "wallonia-2020"}))
    done = subprocess.run(
        [sys.executable, "-c", run.SETUP_CODE, str(run.SRC), str(config)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_kept_names_read_the_built_scenario(tmp_path):
    """``build_params()`` and ``population`` stay for perfbench; both read
    the model the loaded config already holds, and a run carries the
    config's own fingerprint."""
    workloads = _perfbench_module("workloads")
    sweep = workloads.BaselineSweep(0, tmp_path)
    config = scenario.load_config(sweep.config_path)
    assert config.build_params() is config.params
    assert config.population is config.params.population
    assert sweep.population.tolist() == config.params.population.tolist()
    assert scenario.run_scenario(config).fingerprint == config.fingerprint()
    preset = workloads.PresetMpc(0, tmp_path).config
    assert preset.build_params() is preset.params
