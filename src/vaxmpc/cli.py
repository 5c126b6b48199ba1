"""Command-line entry points.

Subcommands::

    vaxmpc simulate --config cfg.json --policy mpc --out runs/mpc
    vaxmpc compare  --runs runs/none runs/national runs/mpc
    vaxmpc certify  --config cfg.json --samples 5000 --seed 0
    vaxmpc sweep    --config cfg.json --vary mpc.v_bar=40000,55191 --out runs/sweep

Every override (``--seed``, ``simulate --policy``, each ``sweep --vary``
value) is a patch laid over the ``--config`` file's JSON by
:func:`scenario.overlay`, after the file as written has been built and
checked, so an override is checked as the same value written in the file.
Every seed, global or ``certify --seed``, must be nonnegative.

Exit codes: 0 success, 1 usage, validation or config error (or an array
too large to allocate), 2 solver failure, 3 certificate violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import certificates, mpc, scenario
from .errors import SolverFailure, ValidationError, VaxmpcError


#: Values a sweep simulates together, in one lockstep batch of the closed
#: loop.  Larger batches cut little more time and hold more runs at once.
SWEEP_BATCH = 10


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vaxmpc",
        description="Age-structured SIRD vaccination strategies and certificates",
    )
    parser.add_argument("--seed", type=int, default=None, help="override the RNG seed")
    parser.add_argument("--quiet", action="store_true", help="suppress stdout chatter")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one policy's closed loop")
    sim.add_argument("--config", required=True)
    sim.add_argument("--policy", default=None, help="override the config's policy")
    sim.add_argument("--out", required=True)

    cmp_cmd = sub.add_parser("compare", help="compare finished run directories")
    cmp_cmd.add_argument("--runs", nargs="+", required=True)
    cmp_cmd.add_argument("--out", default=None, help="optional JSON report path")

    cert = sub.add_parser("certify", help="run the numeric certificate suite")
    cert.add_argument("--config", required=True)
    cert.add_argument("--samples", type=int, default=10_000)
    cert.add_argument("--seed", type=int, default=None, dest="cert_seed")
    cert.add_argument("--out", default=None, help="optional JSON report path")

    sweep = sub.add_parser("sweep", help="re-run a scenario over a field's values")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--vary", required=True, metavar="FIELD=V1,V2,...")
    sweep.add_argument("--out", required=True)
    return parser


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _config_json(args) -> tuple[dict, Path]:
    """The ``--config`` file's JSON with a global ``--seed`` laid over it,
    and the file's directory.  The file as written is built first, so a bad
    file fails before any override is read."""
    raw = scenario.read_json(Path(args.config))
    base_dir = Path(args.config).parent
    scenario.config_from_dict(raw, base_dir=base_dir)
    if args.seed is not None:
        raw = scenario.overlay(raw, {"mpc": {"rng_seed": args.seed}})
    return raw, base_dir


def _cmd_simulate(args) -> int:
    raw, base_dir = _config_json(args)
    patch = {} if args.policy is None else {"policy": args.policy}
    config = scenario.config_from_dict(scenario.overlay(raw, patch), base_dir=base_dir)
    run = scenario.run_scenario(config)
    metrics = scenario.write_run(run, args.out)
    _say(args, f"policy={run.policy} -> {args.out}")
    _say(args, json.dumps(metrics.to_dict(), sort_keys=True, indent=2))
    return 0


def _cmd_compare(args) -> int:
    report = scenario.compare_run_dirs(args.runs)
    text = report.to_text()
    _say(args, text)
    if args.out:
        Path(args.out).write_text(report.to_json() + "\n", encoding="utf-8")
    elif args.quiet:
        print(report.to_json())
    return 0


def _cmd_certify(args) -> int:
    if args.samples < 1:
        raise ValidationError("--samples must be a positive integer")
    if args.samples > certificates.MAX_SAMPLES:
        raise ValidationError(f"--samples must be at most {certificates.MAX_SAMPLES}")
    seed = args.cert_seed if args.cert_seed is not None else (args.seed or 0)
    config = scenario.load_config(args.config)
    reports = certificates.certify(config.params, config.mpc, args.samples, seed)
    payload = {
        "epsilon": config.mpc.epsilon,
        "eta": certificates.compute_eta(config.params),
        "checks": [r.to_dict() for r in reports],
    }
    rendered = json.dumps(payload, sort_keys=True, indent=2)
    _say(args, rendered)
    if args.out:
        Path(args.out).write_text(rendered + "\n", encoding="utf-8")
    if any(not r.passed for r in reports):
        print("certificate violations detected", file=sys.stderr)
        return 3
    return 0


def _parse_vary(spec: str) -> tuple[list[str], list]:
    if "=" not in spec:
        raise ValidationError("--vary expects FIELD=V1,V2,...")
    field_path, _, raw_values = spec.partition("=")
    keys = field_path.strip().split(".")
    try:  # one JSON array keeps list values such as [1,2] whole
        values = json.loads(f"[{raw_values}]")
    except json.JSONDecodeError:
        values = []
        for chunk in raw_values.split(","):
            chunk = chunk.strip()
            try:
                values.append(json.loads(chunk))
            except json.JSONDecodeError:
                values.append(chunk)
    if not values:
        raise ValidationError("--vary needs at least one value")
    return keys, values


def _cmd_sweep(args) -> int:
    raw, base_dir = _config_json(args)  # the seed lies under the values: a varied one wins
    keys, values = _parse_vary(args.vary)
    field = ".".join(keys)
    if keys[0] == "preset":
        raise ValidationError("--vary: preset cannot be varied; vary the fields it sets")
    out_root = Path(args.out)
    runs = {}  # every value is built and checked before any run writes
    for value in values:
        name = f"{field}={value}"
        run_dir = out_root / name
        if run_dir.parent != out_root or "\0" in name:
            raise ValidationError(f"--vary: {name!r} is not one directory name under --out")
        if run_dir in runs:
            raise ValidationError(f"--vary: {name!r} names a run directory twice")
        patch = value
        for key in reversed(keys):
            patch = {key: patch}
        config = scenario.config_from_dict(scenario.overlay(raw, patch), base_dir=base_dir)
        mpc.check_loop_inputs(config.state0, config.mpc, config.params, config.policy)
        runs[run_dir] = (value, config)
    if out_root.is_dir():  # it may hold this sweep's own entries and nothing else
        own = {run_dir.name for run_dir in runs} | {"sweep.json"}
        stale = sorted(entry.name for entry in out_root.iterdir() if entry.name not in own)
        if stale:
            raise ValidationError(f"--out: {out_root} holds {stale[0]!r}, not a run of this sweep")
    summaries, items = [], list(runs.items())
    # a value replaces one field and the others fix the group count, so
    # every value of a sweep has the same one and any of them can share a batch
    for first in range(0, len(items), SWEEP_BATCH):
        batch = items[first:first + SWEEP_BATCH]
        results = scenario.run_scenarios([config for _, (_, config) in batch])
        for (run_dir, (value, _)), run in zip(batch, results):
            metrics = scenario.write_run(run, run_dir)
            summaries.append({"value": value, "metrics": metrics.to_dict()})
            _say(args, f"{field}={value} -> {run_dir}")
        del results, run  # the runs share one block: let it go before the next batch
    (out_root / "sweep.json").write_text(
        json.dumps(summaries, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return 0


_HANDLERS = {
    "simulate": _cmd_simulate,
    "compare": _cmd_compare,
    "certify": _cmd_certify,
    "sweep": _cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error; 2 is a solver failure
        return 1 if exc.code else 0
    try:
        if min(args.seed or 0, getattr(args, "cert_seed", None) or 0) < 0:
            raise ValidationError("--seed must be nonnegative")
        return _HANDLERS[args.command](args)
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2
    except (VaxmpcError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
