"""The benchmark's workloads run clean against the current sources.

``perfbench/`` patches vaxmpc functions by name and drives the public API
(configs, ``run_scenario``, ``write_run``, the CLI, the death-toll audit).
A refactor under ``src/`` that breaks what it relies on fails here, in the
test suite, rather than only when the benchmark runs.
"""

import collections
import importlib
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from vaxmpc import cli, scenario

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SRC = PERFBENCH.parent / "src"

#: How far the peak RSS may rise from the first baseline-sweep operation to
#: the fourth, in MiB.  On a 2-core x86-64 host it rose by 0.3 MiB with
#: trajectory.csv written a day at a time, or a cell at a time, and by
#: 2.1-2.9 MiB (and kept rising) with the whole file formatted by one template.
SWEEP_RSS_GROWTH_MIB = 1.5

# The child reads its peak RSS as VmHWM: its ru_maxrss would start at the
# test runner's own peak, which a child inherits on Linux, and hide growth.
_SWEEP_RSS_SCRIPT = """
import re, shutil, sys, tempfile
from pathlib import Path
sys.path[:0] = sys.argv[1:3]
import workloads
with tempfile.TemporaryDirectory() as tmp:
    sweep = workloads.BaselineSweep(0, Path(tmp))
    for k in range(4):
        out = Path(tmp) / f"op{k}"
        assert sweep.check(sweep.run(out), out).failed == 0
        shutil.rmtree(out)
        status = Path("/proc/self/status").read_text()
        print(re.search(r"VmHWM:\\s*(\\d+) kB", status).group(1))
"""


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
    # a hook the loop reached under another name (an alias bound at import)
    # would drop out of these counts
    counts = collections.Counter(span.name for span in tracer.spans)
    # the closed loop steps every run of its batch with one si_step a day
    loop_days = sum(span.leaves.get(("model.si_step", "mpc.run_policy_loop"), [0])[0]
                    for span in tracer.spans)
    if name == "preset-mpc":
        solved = sum(rec.v_n0 is not None for rec in raw.day_records)
        assert solved == 2  # days 61 and 62
        assert counts["mpc.run_policy_loop"] == 1 and loop_days == 62
        assert counts["mpc.build_ocp"] == counts["mpc.solve_ocp"] == solved
    elif name == "baseline-sweep":
        batches = math.ceil(workloads.SWEEP_VALUES / cli.SWEEP_BATCH)
        assert counts["mpc.run_policy_loop"] == batches == 5
        assert loop_days == batches * 140  # 50 runs of 140 days, 10 a batch
        assert counts["strategies.national_allocate"] > 0


def test_sweep_peak_rss_levels_off():
    """Repeated baseline-sweep operations, as the benchmark times them, keep
    the process's peak RSS (its ``peak_rss_mb``) level: it grows by at most
    ``SWEEP_RSS_GROWTH_MIB`` from the first operation to the fourth."""
    done = subprocess.run(
        [sys.executable, "-c", _SWEEP_RSS_SCRIPT, str(SRC), str(PERFBENCH)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    first, *_, fourth = (int(line) / 1024 for line in done.stdout.split())
    assert fourth - first <= SWEEP_RSS_GROWTH_MIB


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
