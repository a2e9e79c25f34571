"""Radius-4 cellular automaton for the parity problem.

A library and CLI around one rule family: build and inspect the rule
tables, evolve odd cyclic configurations, measure their structure
(boxes, switches, domains, ordered blocks) and verify the convergence
laws exhaustively at small sizes.
"""
from .engine import (
    BudgetExceeded,
    Converged,
    Cycle,
    Outcome,
    SpaceTimeDiagram,
    default_budget,
    evolve,
    render_pbm,
    render_text,
    space_time,
    step,
)
from .lattice import (
    Configuration,
    ConfigurationError,
    EmptyConfiguration,
    EvenLength,
    InvalidCharacter,
    is_homogeneous,
    parity,
    parse,
    rotate,
)
from .metrics import (
    DomainHit,
    OrderedBlock,
    Switch,
    SwitchReport,
    annotate,
    domain_kinds,
    find_domains,
    merge_events,
    ordered_blocks,
    switch_count,
    switches,
)
from .rule import (
    CORRECTED,
    ORIGINAL,
    ActiveTransition,
    RuleTable,
    build_rule_table,
    table_diff,
    table_string,
    transitions,
    wolfram_number,
)

__version__ = "0.1.0"

# The sweep needs numpy, which the single-ring commands never load: the
# verifier's exports are imported on first access.
_VERIFIER_EXPORTS = frozenset({
    "VerificationReport",
    "Violation",
    "check_trajectory_invariants",
    "plan_sweep",
    "search_counterexamples",
    "verify_size",
})


def __getattr__(name: str):
    if name not in _VERIFIER_EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import verifier

    return getattr(verifier, name)
