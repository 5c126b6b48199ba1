"""vaxmpc benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload preset-mpc --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seconds 10     # every workload, every metric
    python3 perfbench/run.py --self-test            # traced counts repeat exactly

Run from anywhere; the program is imported from ``src/`` next to this
directory.  With ``--trace 0`` the run reports the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` its per-layer metrics.  The last line
of standard output is the result object; the line before it holds the
details (machine, error rate, per-operation times).  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
WORK_ROOT = ROOT / ".perfbench_work"

#: Fresh interpreters timed per run; setup_s is their median.
SETUP_REPEATS = 9

SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); from vaxmpc import scenario; "
    "scenario.load_config(sys.argv[2]).build_params()"
)

#: Set by run_one before numpy loads.  That is why the modules that load
#: numpy (vaxmpc, workloads, tracing) are imported inside functions here.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: First-solve counts of the preset-mpc workload at seed 0 (the day-61 cold
#: solve), as the solver computed them when the benchmark was defined.
DAY61_SEED0 = {"iterations": 1158, "predict_calls": 2385, "project_capacity_calls": 2395}

#: Minimum share of traced wall time each workload must spend in the layer it
#: was chosen for.
LOAD_CHECKS = (
    ("preset-mpc", "mpc.solve_ocp.share", 0.95),
    ("baseline-sweep", "scenario.write_run.share", 0.25),
)


@dataclass(frozen=True)
class Op:
    wall_s: float
    cpu_s: float
    outcome: object


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _threads() -> int:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("Threads:"):
            return int(line.split()[1])
    return 0


def _cpu_model() -> str:
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor()


def _spread(values: list[float]) -> float | None:
    """Interquartile range as a share of the median (None below 2 values)."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _repeat(seconds: float, body) -> list:
    """Call body(k) for k = 0, 1, ... until ``seconds`` have passed (once at least)."""
    results = []
    start = time.perf_counter()
    while not results or time.perf_counter() - start < seconds:
        results.append(body(len(results)))
    return results


def _setup_seconds(config_path: Path) -> float:
    """Wall time of a fresh interpreter that imports vaxmpc and builds the scenario."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC), str(config_path)],
        check=True, timeout=120,
    )
    return time.perf_counter() - t0


def _timed_op(workload, out_dir: Path, tracer=None) -> Op:
    from workloads import Outcome

    t0, c0 = time.perf_counter(), time.process_time()
    try:
        with tracer if tracer is not None else contextlib.nullcontext():
            raw = workload.run(out_dir)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        outcome = workload.check(raw, out_dir)
    except Exception:  # a crash of the program is a failed operation, reported
        traceback.print_exc(file=sys.stderr)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        outcome = Outcome(attempted=workload.expected, failed=workload.expected)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return Op(wall, cpu, outcome)


def _measure(workload, seconds: float, workdir: Path) -> tuple[dict, list[Op]]:
    """End-to-end numbers; each operation is bracketed by reference-loop timings."""
    from workloads import reference_times

    setup = [_setup_seconds(workload.config_path) for _ in range(SETUP_REPEATS)]
    refs = [reference_times()]

    def body(k: int) -> Op:
        op = _timed_op(workload, workdir / f"op{k}")
        refs.append(reference_times())
        return op

    ops = _repeat(seconds, body)
    # the reference time of operation k: the mean of the loops just before and after it
    ref_wall = [(a[0] + b[0]) / 2 for a, b in zip(refs, refs[1:])]
    ref_cpu = [(a[1] + b[1]) / 2 for a, b in zip(refs, refs[1:])]
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(op.wall_s for op in ops),
        "cpu_s": statistics.median(op.cpu_s for op in ops),
        "wall_ref": statistics.median(op.wall_s / r for op, r in zip(ops, ref_wall)),
        "cpu_ref": statistics.median(op.cpu_s / r for op, r in zip(ops, ref_cpu)),
        "ref_s": statistics.median(ref_wall),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return values, ops


def _measure_traced(workload, seconds: float, workdir: Path) -> tuple[dict, list[Op], dict]:
    """Alternate untraced and traced operations; per-layer numbers per traced op."""
    import tracing

    tracers: list[tracing.Tracer] = []

    def pair(k: int) -> tuple[Op, Op]:
        plain = _timed_op(workload, workdir / f"plain{k}")
        tracers.append(tracing.Tracer())
        return plain, _timed_op(workload, workdir / f"traced{k}", tracers[-1])

    pairs = _repeat(seconds, pair)
    plain_walls = [plain.wall_s for plain, _ in pairs]
    traced_walls = [traced.wall_s for _, traced in pairs]
    values = tracing.layer_metrics(tracers, traced_walls)
    values["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain_walls)
    return values, [op for p in pairs for op in p], tracing.first_solve(tracers[0])


def run_one(workload_name: str, seed: int, seconds: float, trace: bool, spec: dict) -> int:
    nproc = _nproc()
    # Before numpy loads: the process never runs more threads than cores.
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    sys.path.insert(0, str(SRC))
    import numpy
    import vaxmpc
    from workloads import WORKLOADS

    if not Path(vaxmpc.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: vaxmpc imported from {vaxmpc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workdir = WORK_ROOT / f"{workload_name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[workload_name](seed, workdir)
        if trace:
            values, ops, first = _measure_traced(workload, seconds, workdir)
        else:
            values, ops = _measure(workload, seconds, workdir)
            first = None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()
    values["v_n0_first"] = ops[0].outcome.v_n0_first
    values["deaths"] = ops[0].outcome.deaths

    attempted = sum(op.outcome.attempted for op in ops)
    failed = sum(op.outcome.failed for op in ops)
    threads = _threads()
    walls = [op.wall_s for op in ops]
    detail = {
        "workload": workload_name,
        "seed": seed,
        "trace": int(trace),
        "operations": len(ops),
        "op_wall_s": walls,
        "op_wall_spread": _spread(walls),
        "error_rate": failed / attempted,
        "v_n0_first": values["v_n0_first"],
        "deaths": values["deaths"],
        "first_solve": first,
        "seconds": {k: values[k] for k in ("wall_s", "cpu_s", "ref_s") if k in values},
        "machine": {
            "nproc": nproc,
            "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "threads_observed": threads,
        },
    }
    kind = "per_layer" if trace else "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[kind]}
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0 and threads <= nproc,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def _child(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """Run one workload in its own process; returns (result, detail)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=900, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def run_all(seed: int, seconds: float, spec: dict) -> int:
    """Every workload, untraced then traced; prints each metric with its unit."""
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            result, detail = _child(workload, seed, seconds, trace)
            rows = [(name, m["value"], m["unit"]) for name, m in result["metrics"].items()]
            if not trace:
                rows += [(name, value, "s") for name, value in detail["seconds"].items()]
                rows += [
                    ("error_rate", detail["error_rate"], "ratio"),
                    ("v_n0_first", detail["v_n0_first"], "deaths"),
                    ("deaths", detail["deaths"], "deaths"),
                ]
            ok &= result["correct"] and detail["error_rate"] == 0
            label = "traced" if trace else "end-to-end"
            print(f"# {workload} {label}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"operations={detail['operations']}")
            for name, value, unit in rows:
                print(f"{workload:15s} {name:45s} {value:16.6f} {unit}")
    print(f"# machine: {json.dumps(detail['machine'], sort_keys=True)}")
    return 0 if ok else 1


def self_test(spec: dict) -> int:
    """Two traced runs per workload at seed 0 must give identical counts."""
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        (first, first_detail), (second, _) = (_child(workload, 0, 1, 1) for _ in range(2))
        counts = [
            name for name in first["metrics"]
            if name.endswith((".calls", ".bytes"))
            or name in ("mpc.iterations", "mpc.iterations_first", "v_n0_first", "deaths")
        ]
        for name in counts:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            if a != b:
                failures.append(f"{workload}: {name} differs between runs: {a} vs {b}")
        for wl, name, floor in LOAD_CHECKS:
            share = first["metrics"][name]["value"]
            if wl == workload and share < floor:
                failures.append(f"{workload}: {name} = {share:.3f} < {floor}")
        if workload == "preset-mpc":
            got = {k: first_detail["first_solve"][k] for k in DAY61_SEED0}
            if got != DAY61_SEED0:
                failures.append(f"preset-mpc: day-61 counts {got} != {DAY61_SEED0}")
        print(f"{workload}: {len(counts)} counts compared, correct={first['correct']}")
        if not (first["correct"] and second["correct"]):
            failures.append(f"{workload}: outputs failed their checks")
    for line in failures:
        print("FAIL", line)
    print("self-test", "failed" if failures else "passed")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", help="run one workload")
    mode.add_argument("--all", action="store_true", help="run every workload, print all metrics")
    mode.add_argument("--self-test", action="store_true", help="check traced counts repeat")
    parser.add_argument("--seed", type=int, default=0, help="workload seed (>= 0)")
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "vaxmpc" / "__init__.py").is_file() or not SPEC_PATH.is_file():
        print(f"error: no vaxmpc sources under {SRC} or no {SPEC_PATH.name}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    if args.all:
        return run_all(args.seed, args.seconds, spec)
    if args.self_test:
        return self_test(spec)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace), spec)


if __name__ == "__main__":
    sys.exit(main())
