"""Command line interface: hard-instance search, verification, the identity
battery, single runs, and horizon sweeps.

Exit codes: 0 success, 1 validation/usage error, 2 runtime failure.
"""
from __future__ import annotations

import argparse
import os
import sys

from .hardinstances import (
    HardInstance,
    find_hard_instance,
    identity_battery,
    verify_hard_instance,
)
from .harness import (
    ExperimentConfig,
    build_link,
    run_experiment,
    run_sweep,
    write_run_csv,
    write_sweep_csv,
)


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports usage problems with exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def parse_link_arg(text: str):
    """Parse a --g value, 'mnl', 'poly:a0,a1,...' or 'tab:x0:y0,x1:y1,...',
    into the link a config's link spec of that kind builds."""
    if text == "mnl":
        return build_link({"kind": "mnl"})
    if text.startswith("poly:"):
        coeffs = [float(c) for c in text[len("poly:"):].split(",")]
        return build_link({"kind": "polynomial", "coefficients": coeffs})
    if text.startswith("tab:"):
        pairs = [p.split(":") for p in text[len("tab:"):].split(",")]
        if any(len(p) != 2 for p in pairs):
            raise ValueError(f"cannot parse link {text!r}; tab: takes x:y pairs")
        return build_link({"kind": "tabulated", "xs": [float(x) for x, _ in pairs],
                           "ys": [float(y) for _, y in pairs]})
    raise ValueError(f"cannot parse link {text!r}; use mnl, poly:..., or tab:...")


def _build_parser() -> _Parser:
    parser = _Parser(prog="nonlinbandit",
                     description="adversarial combinatorial bandit toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("find-hard", parents=[], help="search for a hard instance")
    p.add_argument("--g", required=True, help="link: mnl | poly:a0,a1,... | tab:x:y,...")
    p.add_argument("--m", type=int, required=True, help="exchangeable coordinates")
    p.add_argument("--b", type=int, required=True, help="shift budget (action size)")
    p.add_argument("--grid", type=int, default=50, help="grid denominator q (step 1/q)")
    p.add_argument("--x0", type=float, nargs="*", default=None,
                   help="explicit x0 candidates in (0, 1)")
    p.add_argument("--out", required=True, help="output JSON path")

    p = sub.add_parser("verify", help="verify a hard instance file")
    p.add_argument("--inst", required=True)
    p.add_argument("--g", required=True)

    p = sub.add_parser("identity-check", help="run the alternating-identity battery")
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("run", help="execute a run-mode config")
    p.add_argument("--config", required=True)

    p = sub.add_parser("sweep", help="execute a sweep-mode config")
    p.add_argument("--config", required=True)
    return parser


def _cmd_find_hard(args) -> int:
    link = parse_link_arg(args.g)
    if args.grid < 1:
        raise ValueError(f"--grid must be a positive integer, got {args.grid}")
    if os.path.isdir(args.out) or not os.path.isdir(os.path.dirname(args.out) or "."):
        raise ValueError(f"--out {args.out!r} is not a file path in an existing directory")
    instance = find_hard_instance(link, m=args.m, b=args.b,
                                  grid_step=1.0 / args.grid,
                                  x0_candidates=args.x0)
    instance.save(args.out)
    print(f"gamma={instance.gamma!r} x0={instance.x0!r} atoms={len(instance.weights)}")
    print(f"wrote {args.out}")
    return 0


def _cmd_verify(args) -> int:
    link = parse_link_arg(args.g)
    instance = HardInstance.load(args.inst)
    report = verify_hard_instance(instance, link)
    print(report)
    return 0 if report.valid else 2


def _cmd_identity_check(args) -> int:
    summary = identity_battery(trials=args.trials, seed=args.seed)
    print(f"trials={summary['trials']}")
    print(f"max |residual| at degree < m: {summary['max_low_degree_residual']:.3e}")
    print(f"degree-m counterexamples above 1e-3: "
          f"{summary['counterexample_fraction']:.1%}")
    print(f"elapsed: {summary['elapsed_s']:.2f}s")
    ok = (summary["max_low_degree_residual"] <= 1e-9
          and summary["counterexample_fraction"] >= 0.95)
    print("PASS" if ok else "FAIL")
    return 0 if ok else 2


def _cmd_run(args) -> int:
    config = ExperimentConfig.from_json_file(args.config)
    results = run_experiment(config)
    if config.output:
        write_run_csv(results, config.output)
        print(f"wrote {config.output}")
    failed = 0
    for res in results:
        if res.error is not None:
            failed += 1
            print(f"run {res.run_id}: seed={res.seed} FAILED ({res.error})")
        else:
            print(f"run {res.run_id}: seed={res.seed} final_regret={res.final_regret!r} "
                  f"({res.wall_time_s:.2f}s)")
    return 2 if failed else 0


def _cmd_sweep(args) -> int:
    config = ExperimentConfig.from_json_file(args.config)
    rows = run_sweep(config)
    if config.output:
        write_sweep_csv(rows, config.output)
        print(f"wrote {config.output}")
    failed = 0
    for row in rows:
        print(f"{row['algo']} T={row['T']}: mean_regret={row['mean_regret']!r} "
              f"stderr={row['stderr']!r}")
        if row["reps"] < config.replications:
            failed += 1
            print(f"{row['algo']} T={row['T']}: {row['reps']} of "
                  f"{config.replications} replications survived")
    return 2 if failed else 0


_COMMANDS = {
    "find-hard": _cmd_find_hard,
    "verify": _cmd_verify,
    "identity-check": _cmd_identity_check,
    "run": _cmd_run,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
