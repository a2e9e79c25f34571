"""Command line front end: evolve, annotate, verify, rule, search."""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import engine, metrics
from .engine import Converged, Cycle
from .lattice import FULL, MAX_N, MODES, ConfigurationError, parse
from .rule import CORRECTED, ORIGINAL, VARIANTS, build_rule_table, table_diff, \
    table_string, wolfram_number

WORKERS_ENV = "PARITYCA_WORKERS"


def _int_in(lo: int, hi: int | None = None):
    """The argparse type for an integer from lo up to hi (no upper bound if None)."""
    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}: {text!r}")
        if hi is not None and value > hi:
            raise argparse.ArgumentTypeError(f"must be at most {hi}: {text!r}")
        return value
    return convert


def _sizes(text: str) -> list[int]:
    """Parse '1..21', '13' or '3,5,13' into a list of odd sizes."""
    ranged = ".." in text
    try:
        if ranged:
            lo, hi = (int(end) for end in text.split("..", 1))
        else:
            sizes = [int(part) for part in text.split(",")]
            lo, hi = min(sizes), max(sizes)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad size list {text!r}") from exc
    # A range is judged by its ends until it passes, so -10000000000..5 is never
    # listed; it holds an odd size unless it is one even number. A list names an
    # even or non-positive size before one that is too large.
    odd = (lo % 2 == 1 or lo != hi) if ranged else all(n % 2 == 1 for n in sizes)
    if hi > MAX_N and (ranged or (lo >= 1 and odd)):
        raise argparse.ArgumentTypeError(f"sizes must be at most {MAX_N}: {text!r}")
    if lo < 1 or not odd:
        raise argparse.ArgumentTypeError(f"sizes must be odd and positive: {text!r}")
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty size range: {text!r}")
    return [n for n in range(lo, hi + 1) if n % 2 == 1] if ranged else sizes


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
    if args.format == "json":
        text = json.dumps(engine.trajectory_json(rule, diagram, outcome)) + "\n"
    elif args.format == "text":
        text = engine.render_text(diagram) + "\n"
    else:
        text = engine.render_pbm(diagram)
    _emit(text, args.output)
    if args.format != "json":
        print(_outcome_summary(outcome), file=sys.stderr)
    return 0


def _cmd_annotate(args) -> int:
    x = parse(args.config)
    if args.format in ("text", "both"):
        print(metrics.annotate(x))
    if args.format in ("json", "both"):
        print(json.dumps(metrics.report_json(x)))
    return 0


def _cmd_verify(args) -> int:
    from . import verifier

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
    from . import verifier

    rule = build_rule_table(args.rule)
    found = verifier.search_counterexamples(
        rule, args.max_size, budget=args.budget, mode=args.mode, workers=args.workers
    )
    for n, config, outcome in found:
        doc = {"n": n, "config": str(config), "outcome": engine.outcome_json(outcome)}
        print(json.dumps(doc))
    return 1 if found else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parityca",
        description="Radius-4 cellular automaton for the parity problem.",
    )
    rule_options = argparse.ArgumentParser(add_help=False)
    rule_options.add_argument("--rule", choices=VARIANTS, default=CORRECTED)
    rule_options.add_argument("--budget", type=_int_in(1), default=None)
    sweep_options = argparse.ArgumentParser(add_help=False)
    sweep_options.add_argument("--mode", choices=MODES, default=FULL)
    sweep_options.add_argument("--workers", type=_int_in(1), default=None,
                               help=f"worker processes (default: ${WORKERS_ENV}, else 1)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evolve", parents=[rule_options],
                       help="run a configuration and print the diagram")
    p.set_defaults(run=_cmd_evolve)
    p.add_argument("--config", required=True)
    # The diagram is built whole before it is written, about 0.18 MB per
    # 1,000 rows of 13 cells, so the rows are capped.
    p.add_argument("--steps", type=_int_in(0, 100_000), default=None)
    p.add_argument("--format", choices=("text", "json", "pbm"), default="text")
    p.add_argument("--output", default=None)

    p = sub.add_parser("annotate", help="switch/box/ordered-block report")
    p.set_defaults(run=_cmd_annotate)
    p.add_argument("--config", required=True)
    p.add_argument("--format", choices=("text", "json", "both"), default="both")

    p = sub.add_parser("verify", parents=[rule_options, sweep_options],
                       help="exhaustive sweep, one JSON report per size")
    p.set_defaults(run=_cmd_verify)
    p.add_argument("--sizes", type=_sizes, required=True)
    p.add_argument("--invariants", action="store_true",
                   help="also check the five step laws on every configuration")

    p = sub.add_parser("rule", help="inspect a rule table")
    p.set_defaults(run=_cmd_rule)
    p.add_argument("--variant", choices=VARIANTS, default=CORRECTED)
    p.add_argument("--emit", choices=("table", "number", "diff"), required=True)

    p = sub.add_parser("search", parents=[rule_options, sweep_options],
                       help="find misclassified configurations")
    p.set_defaults(run=_cmd_search)
    p.add_argument("--max-size", type=_int_in(1, MAX_N), required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "workers", 1) is None:
        try:
            args.workers = _int_in(1)(os.environ.get(WORKERS_ENV, "1"))
        except argparse.ArgumentTypeError as exc:
            parser.error(f"{WORKERS_ENV}: {exc}")
    try:
        code = args.run(args)
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
