"""Command line front end: evolve, annotate, verify, rule, search."""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import engine, metrics, packed, verifier
from .engine import Converged, Cycle
from .lattice import ConfigurationError, parse
from .rule import CORRECTED, ORIGINAL, VARIANTS, build_rule_table, table_diff, \
    table_string, wolfram_number

WORKERS_ENV = "PARITYCA_WORKERS"


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {text!r}")
    return value


def _positive_int(text: str) -> int:
    value = _nonnegative_int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1: {text!r}")
    return value


def _max_size(text: str) -> int:
    value = _positive_int(text)
    if value > packed.MAX_N:
        raise argparse.ArgumentTypeError(f"must be at most {packed.MAX_N}: {text!r}")
    return value


def _sizes(text: str) -> list[int]:
    """Parse '1..21', '13' or '3,5,13' into a list of odd sizes."""
    too_large = argparse.ArgumentTypeError(f"sizes must be at most {packed.MAX_N}: {text!r}")
    not_positive = argparse.ArgumentTypeError(f"sizes must be odd and positive: {text!r}")
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
            if hi > packed.MAX_N:
                raise too_large
            if lo < 1:
                raise not_positive
            if lo > hi:
                raise argparse.ArgumentTypeError(f"empty size range: {text!r}")
            sizes = [n for n in range(lo, hi + 1) if n % 2 == 1]
        else:
            sizes = [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad size list {text!r}") from exc
    if not sizes or any(n < 1 or n % 2 == 0 for n in sizes):
        raise not_positive
    if max(sizes) > packed.MAX_N:
        raise too_large
    return sizes


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parityca",
        description="Radius-4 cellular automaton for the parity problem.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evolve", help="run a configuration and print the diagram")
    p.add_argument("--rule", choices=VARIANTS, default=CORRECTED)
    p.add_argument("--config", required=True)
    p.add_argument("--steps", type=_nonnegative_int, default=None)
    p.add_argument("--budget", type=_positive_int, default=None)
    p.add_argument("--format", choices=("text", "json", "pbm"), default="text")
    p.add_argument("--output", default=None)

    p = sub.add_parser("annotate", help="switch/box/ordered-block report")
    p.add_argument("--config", required=True)
    p.add_argument("--format", choices=("text", "json", "both"), default="both")

    p = sub.add_parser("verify", help="exhaustive sweep, one JSON report per size")
    p.add_argument("--rule", choices=VARIANTS, default=CORRECTED)
    p.add_argument("--sizes", type=_sizes, required=True)
    p.add_argument("--mode", choices=verifier.MODES, default=verifier.FULL)
    p.add_argument("--workers", type=_positive_int, default=None,
                   help=f"worker processes (default: ${WORKERS_ENV}, else 1)")
    p.add_argument("--budget", type=_positive_int, default=None)
    p.add_argument("--invariants", action="store_true",
                   help="also check the five step laws on every configuration")

    p = sub.add_parser("rule", help="inspect a rule table")
    p.add_argument("--variant", choices=VARIANTS, default=CORRECTED)
    p.add_argument("--emit", choices=("table", "number", "diff"), required=True)

    p = sub.add_parser("search", help="find misclassified configurations")
    p.add_argument("--rule", choices=VARIANTS, default=CORRECTED)
    p.add_argument("--max-size", type=_max_size, required=True)
    p.add_argument("--mode", choices=verifier.MODES, default=verifier.FULL)
    p.add_argument("--workers", type=_positive_int, default=None,
                   help=f"worker processes (default: ${WORKERS_ENV}, else 1)")
    p.add_argument("--budget", type=_positive_int, default=None)
    return parser


class OutputError(Exception):
    """The --output file could not be written."""


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="ascii") as handle:
            handle.write(text)
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _outcome_summary(outcome) -> str:
    if isinstance(outcome, Converged):
        return f"converged to {outcome.fixed_point} at t0={outcome.t0}"
    if isinstance(outcome, Cycle):
        return (
            f"cycle: entry={outcome.entry} period={outcome.period} "
            f"displacement={outcome.displacement} every {outcome.displacement_steps} steps"
        )
    return f"budget exceeded after {outcome.steps} steps"


def _cmd_evolve(args) -> int:
    rule = build_rule_table(args.rule)
    x = parse(args.config)
    outcome = engine.evolve(rule, x, budget=args.budget)
    if args.steps is not None:
        steps = args.steps
    elif isinstance(outcome, Converged):
        steps = outcome.t0
    elif isinstance(outcome, Cycle):
        steps = outcome.entry + outcome.period
    else:
        steps = outcome.steps
    diagram = engine.space_time(rule, x, steps)
    if args.format == "text":
        _emit(engine.render_text(diagram) + "\n", args.output)
        print(_outcome_summary(outcome), file=sys.stderr)
    elif args.format == "pbm":
        _emit(engine.render_pbm(diagram), args.output)
        print(_outcome_summary(outcome), file=sys.stderr)
    else:
        doc = engine.trajectory_json(rule, diagram, outcome)
        _emit(json.dumps(doc) + "\n", args.output)
    return 0


def _cmd_annotate(args) -> int:
    x = parse(args.config)
    if args.format in ("text", "both"):
        print(metrics.annotate(x))
    if args.format in ("json", "both"):
        print(json.dumps(metrics.report_json(x)))
    return 0


def _cmd_verify(args) -> int:
    rule = build_rule_table(args.rule)
    all_passed = True
    for n in args.sizes:
        report = verifier.verify_size(
            rule,
            n,
            budget=args.budget,
            mode=args.mode,
            workers=args.workers,
            invariants=args.invariants,
        )
        print(json.dumps(report.to_json()), flush=True)
        all_passed = all_passed and report.passed
    return 0 if all_passed else 1


def _cmd_rule(args) -> int:
    rule = build_rule_table(args.variant)
    if args.emit == "table":
        print(table_string(rule))
    elif args.emit == "number":
        print(wolfram_number(rule))
    else:
        other = build_rule_table(ORIGINAL if args.variant == CORRECTED else CORRECTED)
        for code in sorted(table_diff(rule, other)):
            print(
                f"{code:09b} {rule.variant}={rule.outputs[code]} "
                f"{other.variant}={other.outputs[code]}"
            )
    return 0


def _cmd_search(args) -> int:
    rule = build_rule_table(args.rule)
    found = verifier.search_counterexamples(
        rule, args.max_size, budget=args.budget, mode=args.mode, workers=args.workers
    )
    for n, config, outcome in found:
        print(
            json.dumps(
                {"n": n, "config": str(config), "outcome": engine.outcome_json(outcome)}
            )
        )
    return 1 if found else 0


_COMMANDS = {
    "evolve": _cmd_evolve,
    "annotate": _cmd_annotate,
    "verify": _cmd_verify,
    "rule": _cmd_rule,
    "search": _cmd_search,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "workers", 1) is None:
        try:
            args.workers = _positive_int(os.environ.get(WORKERS_ENV, "1"))
        except argparse.ArgumentTypeError as exc:
            parser.error(f"{WORKERS_ENV}: {exc}")
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader left: send the flush at exit to devnull, end as SIGPIPE would.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(parser.format_usage().rstrip(), file=sys.stderr)
        return 2
    except OutputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
