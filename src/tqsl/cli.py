"""Command-line front end: `gue` and `spin` sweeps plus `verify`.

Exit codes: 0 on success, 1 when a run violates a bound or a property
check fails, 2 on configuration errors.
"""
from __future__ import annotations

import argparse
import sys

from .errors import BlockIndexOutOfRange, ConfigError
from .experiments import (
    ExperimentConfig,
    run_experiment_gue,
    run_experiment_spin,
    run_property_suite,
)


def parse_seeds(text: str) -> tuple:
    """Accept '0-49', '0,3,7', or mixes like '0-4,9'."""
    seeds = []
    try:
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            if "-" in part[1:]:
                lo, hi = part.split("-", 1)
                if int(hi) < int(lo):
                    raise ConfigError(f"empty seed range {part!r}")
                seeds.extend(range(int(lo), int(hi) + 1))
            else:
                seeds.append(int(part))
    except ValueError as err:
        raise ConfigError(f"bad seed list {text!r}: {err}") from err
    if not seeds:
        raise ConfigError(f"no seeds in {text!r}")
    return tuple(seeds)


def parse_blocks(text: str) -> tuple:
    """Semicolon-separated blocks of comma-separated 1-based sites."""
    if not text.strip():
        return ()
    try:
        return tuple(
            tuple(int(site) for site in block.split(","))
            for block in text.split(";")
            if block.strip()
        )
    except ValueError as err:
        raise ConfigError(f"bad block list {text!r}: {err}") from err


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tqsl",
        description="Tightened quantum speed limit sweeps and invariant checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gue = sub.add_parser("gue", help="random-Hamiltonian sweep, one CSV per seed")
    gue.add_argument("--dim", type=int, default=3, help="Hilbert dimension")
    gue.add_argument("--tmax", type=float, default=3.0, help="evolution window")
    gue.add_argument("--steps", type=int, default=300, help="grid points")
    gue.add_argument("--seeds", default="0,1,2", help="e.g. 0-49 or 0,1,2")
    gue.add_argument("--basis", choices=("fixed-random", "optimize", "identity"), default="fixed-random")
    gue.add_argument("--hbar", type=float, default=1.0)
    gue.add_argument("--out", default="out/gue", help="output directory")

    spin = sub.add_parser("spin", help="spin-chain sweep with closed-form cross-check")
    spin.add_argument("--spins", type=int, default=2, help="number of spins")
    spin.add_argument("--blocks", default="1,2", help="e.g. '1,2' or '1,2;2,3'")
    spin.add_argument("--omega0", type=float, default=1.0)
    spin.add_argument("--omega", type=float, default=1.0)
    spin.add_argument("--tmax", type=float, default=2.0)
    spin.add_argument("--steps", type=int, default=200)
    spin.add_argument("--seeds", default="0", help="basis seeds, one run per seed")
    spin.add_argument("--basis", choices=("fixed-random", "optimize", "identity"), default="fixed-random")
    spin.add_argument("--hbar", type=float, default=1.0)
    spin.add_argument("--out", default="out/spin")

    verify = sub.add_parser("verify", help="seeded property suite over all invariants")
    verify.add_argument("--trials", type=int, default=200)
    verify.add_argument("--seeds", default="0")
    verify.add_argument("--out", default="out/verify")
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    seeds = parse_seeds(args.seeds)
    if args.command == "verify":
        return ExperimentConfig(kind="verify", seeds=seeds, trials=args.trials, output_path=args.out)
    sweep = dict(
        kind=args.command, t_max=args.tmax, steps=args.steps, seeds=seeds,
        basis_mode=args.basis, hbar=args.hbar, output_path=args.out,
    )
    if args.command == "gue":
        return ExperimentConfig(dim=args.dim, **sweep)
    return ExperimentConfig(
        num_spins=args.spins, blocks=parse_blocks(args.blocks), omega0=args.omega0, omega=args.omega,
        **sweep,
    )


def _print_runs(summary: dict) -> int:
    for run in summary["runs"]:
        if run["min_delta"] is None:
            print(f"seed {run['seed']}: failed {run['flags']}")
        else:
            flags = f" flags={run['flags']}" if run["flags"] else ""
            print(
                f"seed {run['seed']}: min_delta={run['min_delta']:+.3e} "
                f"max_delta={run['max_delta']:+.3e}{flags}"
            )
    print(f"summary: {summary['config']['output_path']}/summary.json")
    return 0 if summary["ok"] else 1


def _print_suite(report: dict) -> int:
    for check in report["checks"]:
        mark = "ok  " if check["passed"] else "FAIL"
        detail = check.get("error") or f"worst={check['worst_slack']:+.3e} tol={check['tolerance']:g}"
        print(f"{mark} {check['name']:<24} trials={check['trials']:<5} {detail}")
    print("passed" if report["passed"] else "failed")
    return 0 if report["passed"] else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if args.command == "gue":
            return _print_runs(run_experiment_gue(cfg))
        if args.command == "spin":
            return _print_runs(run_experiment_spin(cfg))
        return _print_suite(run_property_suite(cfg))
    except (ConfigError, BlockIndexOutOfRange) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
