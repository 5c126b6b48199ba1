"""Command-line entry points.

Subcommands::

    vaxmpc simulate --config cfg.json --policy mpc --out runs/mpc
    vaxmpc compare  --runs runs/none runs/national runs/mpc
    vaxmpc certify  --config cfg.json --samples 5000 --seed 0
    vaxmpc sweep    --config cfg.json --vary mpc.v_bar=40000,55191 --out runs/sweep

Exit codes: 0 success, 1 validation/config error (or an array too large
to allocate), 2 solver failure, 3 certificate violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import certificates, mpc, scenario, strategies
from .errors import SolverFailure, ValidationError, VaxmpcError


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
    sim.add_argument("--policy", choices=strategies.POLICIES, default=None)
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


def _with_seed(config: scenario.ScenarioConfig, seed: int | None):
    if seed is None:
        return config
    return dataclasses.replace(
        config, mpc=dataclasses.replace(config.mpc, rng_seed=seed)
    )


def _cmd_simulate(args) -> int:
    config = _with_seed(scenario.load_config(args.config), args.seed)
    run = scenario.run_scenario(config, policy=args.policy)
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
    if seed < 0:
        raise ValidationError("--seed must be nonnegative")
    config = scenario.load_config(args.config)
    params = config.params
    cert = certificates.CertificateParams.from_model(params, config.mpc.epsilon)
    sample = certificates.draw_terminal_sample(
        cert, params, args.samples, seed, v_bar=config.mpc.v_bar
    )
    reports = [
        certificates.check_invariance(cert, params, sample),
        certificates.check_lyapunov_decrease(cert, params, sample),
        certificates.check_eta_bound(
            params,
            rollouts=max(1, args.samples // 100),
            days=config.mpc.strategy_horizon,
            rng_seed=seed,
            v_bar=config.mpc.v_bar,
        ),
    ]
    payload = {
        "epsilon": config.mpc.epsilon,
        "eta": cert.eta,
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
    base = scenario.load_config(args.config)
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
        data = scenario.overlay(base.to_dict(), patch)
        config = scenario.config_from_dict(data, base_dir=Path(args.config).parent)
        config = _with_seed(config, args.seed)
        mpc.check_loop_inputs(config.state0, config.mpc, config.params, config.policy)
        runs[run_dir] = (value, config)
    if out_root.is_dir():  # it may hold this sweep's own entries and nothing else
        own = {run_dir.name for run_dir in runs} | {"sweep.json"}
        stale = sorted(entry.name for entry in out_root.iterdir() if entry.name not in own)
        if stale:
            raise ValidationError(f"--out: {out_root} holds {stale[0]!r}, not a run of this sweep")
    summaries = []
    for run_dir, (value, config) in runs.items():
        metrics = scenario.write_run(scenario.run_scenario(config), run_dir)
        summaries.append({"value": value, "metrics": metrics.to_dict()})
        _say(args, f"{field}={value} -> {run_dir}")
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
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2
    except (VaxmpcError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
