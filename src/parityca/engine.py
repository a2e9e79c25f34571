"""Global rule application, trajectory evolution, space-time rendering."""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .lattice import Configuration
from .rule import RuleTable

_WINDOW_MASK = 0x1FF
# Rule outputs (bytes 0 and 1) to the digits that ``int(..., 2)`` reads.
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def default_budget(n: int, budget: int | None = None) -> int:
    """The step cap: ``budget``, at least 1, or 4n² (convergence stays near 1.5n)."""
    if budget is None:
        return 4 * n * n
    if budget < 1:
        raise ValueError("budget must be at least 1")
    return budget


# ``step`` keeps its last 1,024 results: enough for one whole trajectory
# (a 1,001-cell ring converges in about 500 steps), and a fixed bound however
# many rings a process steps.
@lru_cache(maxsize=1024)
def step(rule: RuleTable, x: Configuration) -> Configuration:
    """One synchronous update: every cell reads its nine-cell window.

    The ring text, padded by four cells on each side, is read as one
    integer with cell -4 at its top bit, so the window of cell i is the
    nine bits at shift n-1-i, leftmost cell on top, as ``rule.outputs``
    is indexed: one lookup per cell. Indices wrap modulo n; for n < 9 a
    cell may appear several times in one window, which is exactly the
    behaviour of the concatenated lift.

    Results are memoized by the whole ``(rule, x)`` pair, the table's
    outputs included, so ``evolve``, ``space_time`` and the law checker,
    which walk the same trajectory, compute each of its states once.
    """
    n = x.n
    text = str(x) * (8 // n + 3)
    lo = -4 % n
    padded = int(text[lo:lo + n + 8], 2)
    outputs = rule.outputs
    # Shifts 0, 1, ... give cells n-1, n-2, ...: the new ring's bits, top first.
    out = bytes([outputs[(padded >> shift) & _WINDOW_MASK] for shift in range(n)])
    return Configuration(n=n, bits=int(out.translate(_DIGITS), 2))


@dataclass(frozen=True)
class Converged:
    """Reached a fixed point at step t0; stays there forever."""

    fixed_point: Configuration
    t0: int


@dataclass(frozen=True)
class Cycle:
    """The state at step ``entry`` recurs exactly after ``period`` steps.

    ``displacement`` is the rotation offset d of the earliest recurrence up
    to rotation: after ``displacement_steps`` further steps the entry state
    reappears shifted by d cells (d = 0, steps = period when the cycle has
    no drift).
    """

    entry: int
    period: int
    displacement: int
    displacement_steps: int


@dataclass(frozen=True)
class BudgetExceeded:
    """No fixed point or recurrence within the step budget."""

    steps: int


Outcome = Converged | Cycle | BudgetExceeded


def evolve(rule: RuleTable, x: Configuration, budget: int | None = None) -> Outcome:
    """Iterate the rule until a fixed point, a recurrence, or the budget.

    Every visited state is hashed, so any exact recurrence is caught the
    moment it happens. Rotation displacement is derived afterwards by
    scanning the cycle for rotations of its entry state.
    """
    budget = default_budget(x.n, budget)
    seen = {x: 0}
    cur = x
    for t in range(1, budget + 1):
        nxt = step(rule, cur)
        if nxt == cur:
            return Converged(fixed_point=cur, t0=t - 1)
        entry = seen.get(nxt)
        if entry is not None:
            period = t - entry
            steps, d = _cycle_displacement(list(seen)[entry:], period)
            return Cycle(entry=entry, period=period, displacement=d,
                         displacement_steps=steps)
        seen[nxt] = t
        cur = nxt
    return BudgetExceeded(steps=budget)


def _cycle_displacement(cycle: list[Configuration], period: int) -> tuple[int, int]:
    """Earliest step count at which the cycle revisits a rotation of its start."""
    base = str(cycle[0])
    doubled = base + base
    for steps in range(1, period):
        d = doubled.find(str(cycle[steps]))
        if 0 <= d < len(base):
            return steps, d
    return period, 0


@dataclass(frozen=True)
class SpaceTimeDiagram:
    """Row t is the configuration after t rule applications."""

    rows: tuple[Configuration, ...]

    @property
    def width(self) -> int:
        return self.rows[0].n

    @property
    def height(self) -> int:
        return len(self.rows)


def space_time(rule: RuleTable, x: Configuration, steps: int) -> SpaceTimeDiagram:
    rows = [x]
    for _ in range(steps):
        rows.append(step(rule, rows[-1]))
    return SpaceTimeDiagram(rows=tuple(rows))


def render_text(diagram: SpaceTimeDiagram) -> str:
    """One configuration per line, verbatim."""
    return "\n".join(str(row) for row in diagram.rows)


def render_pbm(diagram: SpaceTimeDiagram) -> str:
    """Plain PBM (P1); cell value 1 is rendered black."""
    lines = [f"P1\n{diagram.width} {diagram.height}"]
    for row in diagram.rows:
        lines.append(" ".join(str(row)))
    return "\n".join(lines) + "\n"


_KINDS = {Converged: "converged", Cycle: "cycle", BudgetExceeded: "budget_exceeded"}


def outcome_json(outcome: Outcome) -> dict:
    """The outcome's kind, then its fields in order, the fixed point as text."""
    out = {"kind": _KINDS[type(outcome)], **vars(outcome)}
    if isinstance(outcome, Converged):
        out["fixed_point"] = str(outcome.fixed_point)
    return out


def trajectory_json(rule: RuleTable, diagram: SpaceTimeDiagram, outcome: Outcome) -> dict:
    return {
        "rule": rule.variant,
        "initial": str(diagram.rows[0]),
        "rows": [str(row) for row in diagram.rows],
        "outcome": outcome_json(outcome),
    }
